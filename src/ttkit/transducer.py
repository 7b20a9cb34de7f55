"""Joint network, alignment lattice, and the marginal log-probability loss.

The joint network turns one audio activation and one label-history activation
into a distribution over the output vocabulary (blank included). Stacking
those distributions over every (frame, history-length) pair gives the
log-probability grid: one graph node over a padded batch [B, T, U+1, V]
that covers both joint projections, tanh, the output layer and log-softmax
(`log_prob_grid`). The training loss marginalizes over all monotonic
alignments through that grid, again one node for the whole batch: the
forward pass runs the log-space alpha recursion over the lattices'
anti-diagonals in numpy, each example on its own (T_b, U_b), and the
backward pass gets the exact gradient in closed form from the matching beta
recursion and the arc occupancies (Graves 2012). `rnnt_log_prob` is the same
kernel for one example.

`brute_force_log_prob` enumerates alignments outright and exists purely as
the small-instance oracle for the recursion.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

import numpy as np

from .tensor import ParamSpec, ParamTree, Rng, ShapeError, Tensor, flat_rows, unbroadcast

BLANK_ID = 0

# Test hook: added to every blank transition inside the lattice kernel.
# Non-zero values deliberately break the oracle-equivalence suite.
dp_perturbation = 0.0


def check_targets(y: Sequence[int], vocab_size: int):
    """Raise a ValueError unless every target id lies in 1..vocab_size-1:
    blank (id 0) never occurs in a target sequence."""
    for label in y:
        if not 0 < label < vocab_size:
            raise ValueError(f"target label {label} outside vocab of size {vocab_size} (blank forbidden)")


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


@dataclass
class LogProbGrid:
    """[T, U+1, V] log-probabilities: entry (t, u) is the distribution over
    the next output given frame t and a label history of length u. Every
    (t, u) row is a proper distribution (logsumexp 0). A batch is padded to
    [B, T, U+1, V], with each example's frame count in `frames`."""

    log_probs: Tensor
    frames: np.ndarray | None = None

    @property
    def T(self) -> int:
        return self.log_probs.shape[-3]

    @property
    def U(self) -> int:
        return self.log_probs.shape[-2] - 1

    @property
    def vocab_size(self) -> int:
        return self.log_probs.shape[-1]


def _log_softmax(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-softmax over the last axis and its log-normalizer. The result is
    written over `logits`, which is returned; it allocates one scratch
    array of the same shape. Non-finite logits give NaN (a +inf entry, a
    row of all -inf) without warnings."""
    with np.errstate(all="ignore"):
        m = np.max(logits, axis=-1, keepdims=True)
        m_safe = np.where(np.isfinite(m), m, 0.0)
        e = np.subtract(logits, m_safe)
        lse = m_safe + np.log(np.exp(e, out=e).sum(axis=-1, keepdims=True))
        lse = np.where(np.isfinite(m), lse, m)
        logits -= lse
        return logits, lse


def log_prob_grid(audio_acts: Tensor, label_acts: Tensor, params: JointParams,
                  frames: np.ndarray | None = None) -> LogProbGrid:
    """The joint distribution at every (frame, history) pair as one graph
    node: audio [T, d_audio] and label activations [U+1, d_label], or a
    padded batch of each, [B, T, d_audio] and [B, U+1, d_label], with the
    examples' frame counts in `frames`.

    logits(t, u) = tanh(Linear(audio_t) + Linear(label_u)) W_out + b_out,
    then log-softmax over V. The value at (t, u) is a pure function of the
    frame-t audio activation and the length-u history activation; no
    alignment context enters. The backward is closed-form over the two
    activations and the six joint parameters.
    """
    j = params
    if audio_acts.shape[-1] != j.audio_w.shape[0] or label_acts.shape[-1] != j.label_w.shape[0]:
        raise ShapeError(f"activations {audio_acts.shape} and {label_acts.shape} do not fit joint "
                         f"inputs ({j.audio_w.shape[0]}, {j.label_w.shape[0]})")
    a = audio_acts.values @ j.audio_w.values + j.audio_b.values          # [..., T, J]
    l = label_acts.values @ j.label_w.values + j.label_b.values          # [..., U+1, J]
    hid = a[..., :, None, :] + l[..., None, :, :]                         # [..., T, U+1, J]
    np.tanh(hid, out=hid)
    logits = hid @ j.out_w.values
    logits += j.out_b.values
    out, lse = _log_softmax(logits)

    def bw(g):
        # the [..., T, U+1, .] temporaries are reused in place: p becomes
        # d_logits, and one scratch array holds 1 - hid^2
        with np.errstate(all="ignore"):
            p = np.exp(out)
        np.copyto(p, 0.0, where=np.isneginf(lse))
        p *= g.sum(axis=-1, keepdims=True)
        d_logits = np.subtract(g, p, out=p)
        d_pre = d_logits @ j.out_w.values.T
        tanh_slope = np.multiply(hid, hid)
        d_pre *= np.subtract(1.0, tanh_slope, out=tanh_slope)
        d_a = d_pre.sum(axis=-2)                                          # over histories
        d_l = d_pre.sum(axis=-3)                                          # over frames
        return (d_a @ j.audio_w.values.T, d_l @ j.label_w.values.T,
                flat_rows(audio_acts.values).T @ flat_rows(d_a), unbroadcast(d_a, j.audio_b.shape),
                flat_rows(label_acts.values).T @ flat_rows(d_l), unbroadcast(d_l, j.label_b.shape),
                flat_rows(hid).T @ flat_rows(d_logits), unbroadcast(d_logits, j.out_b.shape))

    parents = (audio_acts, label_acts, j.audio_w, j.audio_b, j.label_w, j.label_b, j.out_w, j.out_b)
    return LogProbGrid(Tensor(out, parents, bw), frames)


def _check_loss_args(lp: np.ndarray, frames: Sequence[int], ys: Sequence[Sequence[int]]):
    if len(ys) != lp.shape[0] or len(frames) != lp.shape[0]:
        raise ShapeError(f"grid holds {lp.shape[0]} examples, got {len(frames)} frame counts "
                         f"and {len(ys)} target sequences")
    for t, y in zip(frames, ys):
        if len(y) > lp.shape[2] - 1:
            raise ShapeError(f"grid holds {lp.shape[2] - 1} history rows but targets have length {len(y)}")
        if not 0 < t <= lp.shape[1]:
            raise ShapeError("grid must cover at least one frame")
        check_targets(y, lp.shape[3])


def _skew(a: np.ndarray) -> np.ndarray:
    """[..., T, W] -> [..., T+W-1, W] with s[..., t+u, u] = a[..., t, u] and
    -inf elsewhere, so each anti-diagonal t+u = d of `a` becomes the
    contiguous row d."""
    T, W = a.shape[-2:]
    s = np.full(a.shape[:-2] + (T + W - 1, W), -np.inf)
    t, u = np.indices((T, W))
    s[..., t + u, u] = a
    return s


def _diagonal(d: int, T: int, U: int) -> tuple[int, int]:
    """Column range [lo, hi) of the lattice points (d-u, u) on diagonal d."""
    return max(0, d - T + 1), min(d, U) + 1


def _alpha(blank: np.ndarray, emit: np.ndarray, T: int, U: int) -> np.ndarray:
    """Skewed forward variables of a batch of lattices padded to (T, U):
    A[b, t+u, u] = log-mass of all path prefixes from (0, 0) to (t, u)."""
    A = np.full(blank.shape[:1] + (T + U, U + 1), -np.inf)
    A[:, 0, 0] = 0.0
    for d in range(1, T + U):
        lo, hi = _diagonal(d, T, U)
        row = A[:, d - 1, lo:hi] + blank[:, d - 1, lo:hi]  # blank from (t-1, u); -inf at t = 0
        e = max(lo, 1)
        row[:, e - lo:] = np.logaddexp(row[:, e - lo:],
                                       A[:, d - 1, e - 1:hi - 1] + emit[:, d - 1, e - 1:hi - 1])
        A[:, d, lo:hi] = row
    return A


def _beta(blank: np.ndarray, emit: np.ndarray, T: int, U: int, ends: np.ndarray,
          lengths: np.ndarray) -> np.ndarray:
    """Skewed backward variables: B[b, t+u, u] = log-mass of all path
    suffixes from (t, u) to the end, the final blank included. The point
    past example b's final blank, (T_b, U_b) on diagonal ends[b], holds 0;
    every other point off its lattice stays -inf."""
    n = np.arange(blank.shape[0])
    B = np.full(blank.shape[:1] + (T + U + 1, U + 2), -np.inf)
    B[n, ends, lengths] = 0.0
    for d in range(T + U - 1, -1, -1):
        lo, hi = _diagonal(d, T, U)
        B[:, d, lo:hi] = np.logaddexp(blank[:, d, lo:hi] + B[:, d + 1, lo:hi],         # to (t+1, u)
                                      emit[:, d, lo:hi] + B[:, d + 1, lo + 1:hi + 1])  # to (t, u+1)
        done = ends == d  # restore the end points the recursion just overwrote
        B[n[done], d, lengths[done]] = 0.0
    return B


def _lattice(log_probs: Tensor, frames: Sequence[int], ys: Sequence[Sequence[int]],
             sign: float) -> Tensor:
    """sign * sum over a batch of log P(y_b | x_b), the alignment-lattice
    marginals of a padded grid [B, T, W, V] (or one example's [T, W, V]),
    as one graph node.

    alpha(t, u) accumulates all paths reaching frame t with u labels emitted;
    blanks advance the frame, target labels advance the history, and the path
    closes with the blank consuming the example's final frame. The forward
    runs the alpha recursion over the whole batch, one anti-diagonal t+u at a
    time; arcs off an example's own (T_b, U_b) lattice are -inf, so its
    points see exactly its own arithmetic. The backward runs the matching
    beta recursion and writes the arc occupancies exp(alpha + arc + beta_next
    - log P) into the blank and target-label entries of the grid. Every other
    entry gets gradient 0, and so does every entry of an example whose
    log P is -inf (no path has mass).
    """
    lp = log_probs.values if log_probs.ndim == 4 else log_probs.values[None]
    _check_loss_args(lp, frames, ys)
    frames = np.asarray(frames)
    lengths = np.array([len(y) for y in ys])
    B, T, U = lp.shape[0], int(frames.max()), int(lengths.max())
    labels = np.ones((B, U), dtype=np.intp)  # padding takes label 1, off every lattice
    for b, y in enumerate(ys):
        labels[b, :len(y)] = y
    t, u = np.arange(T)[:, None], np.arange(U + 1)[None, :]
    past_end = t >= frames[:, None, None]                                           # [B, T, 1]
    with np.errstate(all="ignore"):
        blank = np.where(past_end | (u > lengths[:, None, None]), -np.inf,
                         lp[:, :T, :U + 1, BLANK_ID] + dp_perturbation)
        emit = np.take_along_axis(lp[:, :T, :U], labels[:, None, :, None], axis=-1)[..., 0]
        emit = np.where(past_end | (u >= lengths[:, None, None]), -np.inf,
                        np.concatenate([emit, np.zeros((B, T, 1))], axis=-1))
        blank, emit = _skew(blank), _skew(emit)
        A = _alpha(blank, emit, T, U)
        ends = frames + lengths
        n = np.arange(B)
        log_p = A[n, ends - 1, lengths] + blank[n, ends - 1, lengths]

    def bw(g):
        grad = np.zeros_like(lp)
        with np.errstate(all="ignore"):
            beta = _beta(blank, emit, T, U, ends, lengths)
            norm = np.where(np.isneginf(log_p), np.inf, log_p)[:, None, None]  # no mass: occupancy 0
            blank_occ = np.exp(A + blank + beta[:, 1:, :U + 1] - norm)
            emit_occ = np.exp(A + emit + beta[:, 1:, 1:] - norm)
        g = g * sign
        grad[:, :T, :U + 1, BLANK_ID] = g * blank_occ[:, t + u, u]
        np.put_along_axis(grad[:, :T, :U], labels[:, None, :, None],
                          (g * emit_occ[:, t + u, u][:, :, :U])[..., None], axis=-1)
        return (grad.reshape(log_probs.shape),)

    return Tensor(sign * log_p.sum(), (log_probs,), bw)


def rnnt_log_prob(grid: LogProbGrid, y: Sequence[int]) -> Tensor:
    """log P(y | x) of one example's grid [T, U+1, V]: `batch_loss`'s kernel
    for a batch of one."""
    if grid.log_probs.ndim != 3:
        raise ShapeError(f"rnnt_log_prob takes one example's [T, U+1, V] grid, got {grid.log_probs.shape}")
    return _lattice(grid.log_probs, [grid.T], [list(y)], 1.0)


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


def batch_loss(grid: LogProbGrid, ys: Sequence[Sequence[int]]) -> Tensor:
    """The batch's summed negative alignment-marginal log-probabilities,
    -sum_b log P(y_b | x_b), over a padded grid as one graph node."""
    frames = grid.frames
    if frames is None:
        frames = [grid.T] * (grid.log_probs.shape[0] if grid.log_probs.ndim == 4 else 1)
    return _lattice(grid.log_probs, frames, [list(y) for y in ys], -1.0)


def random_grid(T: int, U: int, V: int, rng: Rng) -> LogProbGrid:
    """Well-formed random grid (each row a proper distribution); test helper."""
    return LogProbGrid(Tensor(_log_softmax(rng.normal((T, U + 1, V), sigma=2.0))[0]))
