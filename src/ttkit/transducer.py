"""Joint network, alignment lattice, and the marginal log-probability loss.

The joint network turns one audio activation and one label-history activation
into a distribution over the output vocabulary (blank included). Stacking
those distributions over every (frame, history-length) pair gives the
log-probability grid; the training loss marginalizes over all monotonic
alignments through that grid. It is one graph node per example: the forward
pass runs the log-space alpha recursion over the lattice's anti-diagonals in
numpy, and the backward pass gets the exact gradient in closed form from the
matching beta recursion and the arc occupancies (Graves 2012).

`brute_force_log_prob` enumerates alignments outright and exists purely as
the small-instance oracle for the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from . import tensor as tt
from .tensor import ParamSpec, ParamTree, Rng, ShapeError, Tensor

BLANK_ID = 0

# Test hook: added to every blank transition inside the lattice kernel.
# Non-zero values deliberately break the oracle-equivalence suite.
dp_perturbation = 0.0


@dataclass(frozen=True)
class Vocab:
    """Output vocabulary. Index 0 is always blank; blank never occurs in
    target sequences."""

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 2:
            raise ValueError(f"vocab needs blank plus at least one symbol, got {len(self.symbols)}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("vocab symbols must be unique")

    @classmethod
    def from_size(cls, num_labels: int) -> "Vocab":
        """Blank plus `num_labels` symbolic labels s1..sN."""
        return cls(("<b>",) + tuple(f"s{i}" for i in range(1, num_labels + 1)))

    @property
    def size(self) -> int:
        return len(self.symbols)

    @property
    def blank_id(self) -> int:
        return BLANK_ID

    def name(self, label_id: int) -> str:
        return self.symbols[label_id]

    def check_targets(self, y: Sequence[int]):
        for label in y:
            if not 0 < label < self.size:
                raise ValueError(f"target label {label} outside vocab of size {self.size} (blank forbidden)")


@dataclass
class JointParams(ParamTree):
    audio_w: Tensor   # [d_audio, joint_dim]
    audio_b: Tensor
    label_w: Tensor   # [d_label, joint_dim]
    label_b: Tensor
    out_w: Tensor     # [joint_dim, V]
    out_b: Tensor


def joint_param_spec(d_audio: int, d_label: int, joint_dim: int, vocab_size: int,
                     stream: tuple[str, ...] = ()) -> JointParams:
    """The joint's parameters as `ParamSpec` leaves. Weights draw from
    substreams of `stream` labeled by their name."""
    def dense(label, fan_in, fan_out):
        return ParamSpec((fan_in, fan_out), 1.0 / np.sqrt(fan_in), stream + (label,))

    return JointParams(
        audio_w=dense("audio_w", d_audio, joint_dim),
        audio_b=ParamSpec((joint_dim,)),
        label_w=dense("label_w", d_label, joint_dim),
        label_b=ParamSpec((joint_dim,)),
        out_w=dense("out_w", joint_dim, vocab_size),
        out_b=ParamSpec((vocab_size,)),
    )


def init_joint_params(d_audio: int, d_label: int, joint_dim: int, vocab_size: int, rng: Rng) -> JointParams:
    return joint_param_spec(d_audio, d_label, joint_dim, vocab_size).transform(
        lambda spec: spec.materialize(rng))


@dataclass
class LogProbGrid:
    """[T, U+1, V] log-probabilities: entry (t, u) is the distribution over
    the next output given frame t and a label history of length u. Every
    (t, u) row is a proper distribution (logsumexp 0)."""

    log_probs: Tensor

    @property
    def T(self) -> int:
        return self.log_probs.shape[0]

    @property
    def U(self) -> int:
        return self.log_probs.shape[1] - 1

    @property
    def vocab_size(self) -> int:
        return self.log_probs.shape[2]


def joint_logits(audio_t: Tensor, label_u: Tensor, params: JointParams) -> Tensor:
    """Combine one audio activation with one label-history activation:
    Linear(audio) + Linear(label) -> tanh -> Linear -> logits over V."""
    if audio_t.shape != (params.audio_w.shape[0],):
        raise ShapeError(f"audio activation shape {audio_t.shape} != ({params.audio_w.shape[0]},)")
    if label_u.shape != (params.label_w.shape[0],):
        raise ShapeError(f"label activation shape {label_u.shape} != ({params.label_w.shape[0]},)")
    pre = tt.add(
        tt.add(tt.matmul(audio_t, params.audio_w), params.audio_b),
        tt.add(tt.matmul(label_u, params.label_w), params.label_b),
    )
    return tt.add(tt.matmul(tt.tanh(pre), params.out_w), params.out_b)


def log_prob_grid(audio_acts: Tensor, label_acts: Tensor, params: JointParams) -> LogProbGrid:
    """Joint distribution at every (frame, history) pair, batched.

    The value at (t, u) is a pure function of the frame-t audio activation
    and the length-u history activation; no alignment context enters.
    """
    T = audio_acts.shape[0]
    u1 = label_acts.shape[0]
    a = tt.add(tt.matmul(audio_acts, params.audio_w), params.audio_b)   # [T, J]
    l = tt.add(tt.matmul(label_acts, params.label_w), params.label_b)  # [U+1, J]
    joint_dim = a.shape[1]
    pre = tt.add(tt.reshape(a, (T, 1, joint_dim)), tt.reshape(l, (1, u1, joint_dim)))
    hid = tt.reshape(tt.tanh(pre), (T * u1, joint_dim))
    logits = tt.add(tt.matmul(hid, params.out_w), params.out_b)
    grid = tt.log_softmax(tt.reshape(logits, (T, u1, params.out_w.shape[1])), axis=-1)
    return LogProbGrid(grid)


def _check_loss_args(grid: LogProbGrid, y: Sequence[int]):
    if len(y) > grid.U:
        raise ShapeError(f"grid holds {grid.U} history rows but targets have length {len(y)}")
    if grid.T == 0:
        raise ShapeError("grid must cover at least one frame")
    for label in y:
        if not 0 < label < grid.vocab_size:
            raise ValueError(f"label {label} outside vocab of size {grid.vocab_size} (blank forbidden)")


def _skew(a: np.ndarray) -> np.ndarray:
    """[T, W] -> [T+W-1, W] with s[t+u, u] = a[t, u] and -inf elsewhere, so
    each anti-diagonal t+u = d of `a` becomes the contiguous row d."""
    T, W = a.shape
    s = np.full((T + W - 1, W), -np.inf)
    t, u = np.indices(a.shape)
    s[t + u, u] = a
    return s


def _diagonal(d: int, T: int, U: int) -> tuple[int, int]:
    """Column range [lo, hi) of the lattice points (d-u, u) on diagonal d."""
    return max(0, d - T + 1), min(d, U) + 1


def _alpha(blank: np.ndarray, emit: np.ndarray, T: int, U: int) -> np.ndarray:
    """Skewed forward variables: A[t+u, u] = log-mass of all path prefixes
    from (0, 0) to (t, u). Off-lattice entries stay -inf."""
    A = np.full((T + U, U + 1), -np.inf)
    A[0, 0] = 0.0
    for d in range(1, T + U):
        lo, hi = _diagonal(d, T, U)
        row = A[d - 1, lo:hi] + blank[d - 1, lo:hi]  # blank from (t-1, u); -inf at t = 0
        e = max(lo, 1)
        row[e - lo:] = np.logaddexp(row[e - lo:], A[d - 1, e - 1:hi - 1] + emit[d - 1, e - 1:hi - 1])
        A[d, lo:hi] = row
    return A


def _beta(blank: np.ndarray, emit: np.ndarray, T: int, U: int) -> np.ndarray:
    """Skewed backward variables: B[t+u, u] = log-mass of all path suffixes
    from (t, u) to the end, the final blank included; B[T+U, U] = 0 is the
    point past that blank. Off-lattice entries stay -inf."""
    B = np.full((T + U + 1, U + 2), -np.inf)
    B[T + U, U] = 0.0
    for d in range(T + U - 1, -1, -1):
        lo, hi = _diagonal(d, T, U)
        B[d, lo:hi] = np.logaddexp(blank[d, lo:hi] + B[d + 1, lo:hi],                 # to (t+1, u)
                                   emit[d, lo:hi] + B[d + 1, lo + 1:hi + 1])          # to (t, u+1)
    return B


def rnnt_log_prob(grid: LogProbGrid, y: Sequence[int]) -> Tensor:
    """log P(y | x): the alignment-lattice marginal as one graph node.

    alpha(t, u) accumulates all paths reaching frame t with u labels emitted;
    blanks advance the frame, target labels advance the history, and the path
    closes with the blank consuming the final frame. The forward pass runs
    the alpha recursion in numpy, one anti-diagonal t+u at a time; the
    backward pass runs the matching beta recursion and writes the arc
    occupancies exp(alpha + arc + beta_next - log P) into the blank and
    target-label entries of the grid. Every other grid entry gets gradient 0,
    and so does the whole grid when log P is -inf (no path has mass).
    """
    y = list(y)
    _check_loss_args(grid, y)
    T, U = grid.T, len(y)
    lp = grid.log_probs.values
    labels = np.asarray(y, dtype=np.intp)
    with np.errstate(all="ignore"):
        blank = _skew(lp[:, :U + 1, BLANK_ID] + dp_perturbation)
        emit = _skew(np.concatenate([lp[:, np.arange(U), labels], np.full((T, 1), -np.inf)], axis=1))
        A = _alpha(blank, emit, T, U)
        log_p = A[T + U - 1, U] + blank[T + U - 1, U]

    def bw(g):
        grad = np.zeros_like(lp)
        if log_p == -np.inf:
            return (grad,)
        with np.errstate(all="ignore"):
            B = _beta(blank, emit, T, U)
            blank_occ = np.exp(A + blank + B[1:, :U + 1] - log_p)
            emit_occ = np.exp(A + emit + B[1:, 1:] - log_p)
        t, u = np.indices((T, U + 1))
        grad[:, :U + 1, BLANK_ID] = g * blank_occ[t + u, u]
        grad[:, np.arange(U), labels] = g * emit_occ[t + u, u][:, :U]
        return (grad,)

    return Tensor(log_p, (grid.log_probs,), bw)


def enumerate_alignments(T: int, U: int) -> Iterator[tuple[int, ...]]:
    """All valid alignments as move strings (0 = blank, 1 = emit label).

    A valid alignment interleaves T blanks with U label emissions and ends
    with the blank that consumes the final frame.
    """
    if T < 1:
        return
    total = T + U
    for label_slots in combinations(range(total - 1), U):
        moves = [0] * total
        for s in label_slots:
            moves[s] = 1
        yield tuple(moves)


def brute_force_log_prob(grid: LogProbGrid | np.ndarray, y: Sequence[int], max_size: int = 14) -> float:
    """Oracle: enumerate every alignment and sum the path probabilities.

    Deliberately naive; refuses instances with T + U beyond `max_size`.
    """
    lp = grid.log_probs.values if isinstance(grid, LogProbGrid) else np.asarray(grid)
    y = list(y)
    T, U = lp.shape[0], len(y)
    if U + 1 > lp.shape[1]:
        raise ShapeError(f"grid holds {lp.shape[1] - 1} history rows but targets have length {U}")
    if T + U > max_size:
        raise ValueError(f"instance too large for enumeration: T + U = {T + U} > {max_size}")
    if T == 0:
        raise ShapeError("grid must cover at least one frame")

    path_scores = []
    for moves in enumerate_alignments(T, U):
        t, u, acc = 0, 0, 0.0
        for move in moves:
            if move == 0:
                acc += lp[t, u, BLANK_ID]
                t += 1
            else:
                acc += lp[t, u, y[u]]
                u += 1
        path_scores.append(acc)
    m = max(path_scores)
    if m == -np.inf:
        return -np.inf
    return m + np.log(sum(np.exp(s - m) for s in path_scores))


def batch_loss(items: Sequence[tuple[LogProbGrid, Sequence[int]]]) -> Tensor:
    """Sum of negative alignment-marginal log-probabilities over a batch,
    reduced in example order."""
    total = None
    for grid, y in items:
        term = rnnt_log_prob(grid, y)
        total = term if total is None else tt.add(total, term)
    if total is None:
        raise ValueError("batch_loss needs at least one example")
    return tt.neg(total)


def random_grid(T: int, U: int, V: int, rng: Rng) -> LogProbGrid:
    """Well-formed random grid (each row a proper distribution); test helper."""
    logits = Tensor(rng.normal((T, U + 1, V), sigma=2.0))
    return LogProbGrid(tt.log_softmax(logits, axis=-1))


def uniform_grid(T: int, U: int, V: int) -> LogProbGrid:
    return LogProbGrid(tt.log_softmax(tt.zeros((T, U + 1, V)), axis=-1))
