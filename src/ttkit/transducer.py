"""Joint network, alignment lattice, and the marginal log-probability loss.

The joint network turns one audio activation and one label-history activation
into a distribution over the output vocabulary (blank included). Stacking
those distributions over every (frame, history-length) pair gives the
log-probability grid: one graph node over a padded batch [B, T, U+1, V]
that covers both joint projections, tanh, the output layer and log-softmax
(`log_prob_grid`). Its only [B, T, U+1, J] array is the tanh it saves for
the backward. The backward first takes the output layer's gradient from
it, then writes the gradient before the tanh over it, T rows at a time
with `GRID_BLOCK_BYTES` of scratch, so it runs once per graph.

The training loss marginalizes over all monotonic alignments through that
grid, again one node for the whole batch: the forward pass runs the
log-space alpha recursion over the lattices' anti-diagonals in numpy, each
example on its own (T_b, U_b), and the backward pass gets the exact gradient
in closed form from the beta recursion, which is the same sweep over the
lattice turned around, and the arc occupancies (Graves 2012). The
examples' diagonals t+u = d form one contiguous row of the skewed arrays,
and each step updates all U+1 columns of it: arcs off a lattice are -inf,
so the lattice points get the bits of a step over their own column range.
That layout is written once, in `_frames`: the [B, T, W] strided view of
skewed rows through which the arcs go in and the occupancies come out.
`rnnt_log_prob` is the same kernel for one example.

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

# bytes of 1 - tanh^2 that the joint grid's backward holds at once: a block
# of T rows of its [..., U+1, J]; a desk batch's grid fits in one block
GRID_BLOCK_BYTES = 1 << 18

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
        nonlocal hid
        if hid is None:
            raise RuntimeError("the joint grid's backward ran already: it wrote its gradient over "
                               "the saved tanh")
        d_pre, hid = hid, None
        # p becomes d_logits in place
        with np.errstate(all="ignore"):
            p = np.exp(out)
        np.copyto(p, 0.0, where=np.isneginf(lse))
        p *= g.sum(axis=-1, keepdims=True)
        d_logits = np.subtract(g, p, out=p)
        d_out_w = flat_rows(d_pre).T @ flat_rows(d_logits)
        # the saved tanh becomes d_pre = (d_logits @ out_w.T) * (1 - tanh^2),
        # T rows at a time, with 1 - tanh^2 in one block of scratch
        T = d_pre.shape[-3]
        rows = max(1, GRID_BLOCK_BYTES // max(1, d_pre[..., :1, :, :].nbytes))
        scratch = np.empty(d_pre[..., :rows, :, :].shape)
        for lo in range(0, T, rows):
            h = d_pre[..., lo:lo + rows, :, :]
            slope = np.multiply(h, h, out=scratch[..., :h.shape[-3], :, :])
            np.subtract(1.0, slope, out=slope)
            np.matmul(d_logits[..., lo:lo + rows, :, :], j.out_w.values.T, out=h)
            h *= slope
        d_a = d_pre.sum(axis=-2)                                          # over histories
        d_l = d_pre.sum(axis=-3)                                          # over frames
        return (d_a @ j.audio_w.values.T, d_l @ j.label_w.values.T,
                flat_rows(audio_acts.values).T @ flat_rows(d_a), unbroadcast(d_a, j.audio_b.shape),
                flat_rows(label_acts.values).T @ flat_rows(d_l), unbroadcast(d_l, j.label_b.shape),
                d_out_w, unbroadcast(d_logits, j.out_b.shape))

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


def _frames(s: np.ndarray) -> np.ndarray:
    """The [B, T, W] view of skewed rows s [T+W-1, B, W]: view[b, t, u] =
    s[t+u, b, u], so anti-diagonal t+u = d of every example is the
    contiguous row d of s. T is len(s) - W + 1, so the view stays inside s,
    and its points are distinct cells of s, so it can be written through."""
    n, B, W = s.shape
    r, e, c = s.strides
    return np.lib.stride_tricks.as_strided(s, (B, n - W + 1, W), (e, r, r + c))


def _sweep(rows: np.ndarray, blank: np.ndarray, emit: np.ndarray,
           starts: Sequence[tuple[int, int]]) -> np.ndarray:
    """The log-space lattice recursion, in place over skewed rows [n, B, U+1]
    and label arcs [n-1, B, U], both in `_frames`' layout: row i+1 at column
    u is logaddexp(row i at u + blank[i] at u, row i at u-1 + emit[i] at
    u-1), two adds and one in-place `logaddexp` over all U+1 columns, the
    label arcs in columns 1..U of a scratch row whose column 0 stays -inf.
    Example b's start (row, column) `starts[b]` holds 0, put back after its
    row is computed."""
    stops: dict[int, list[tuple[int, int]]] = {}
    for b, (i, u) in enumerate(starts):
        stops.setdefault(i, []).append((b, u))
        rows[i, b, u] = 0.0
    arrive = np.full(rows.shape[1:], -np.inf)
    emitted = arrive[:, 1:]
    views = list(rows)
    for i, (prev, cur, blank_prev, emit_prev) in enumerate(zip(views, views[1:], blank, emit), 1):
        np.add(prev, blank_prev, out=cur)
        np.add(prev[:, :-1], emit_prev, out=emitted)
        np.logaddexp(cur, arrive, out=cur)
        for b, u in stops.get(i, ()):
            cur[b, u] = 0.0
    return rows


def _alpha(blank: np.ndarray, emit: np.ndarray) -> np.ndarray:
    """Skewed forward variables of a batch of lattices padded to (T, U):
    A[t+u, b, u] = log-mass of all path prefixes from (0, 0) to (t, u),
    from the skewed blank arcs [T+U, B, U+1] and label arcs [T+U-1, B, U]:
    the `_sweep` from (0, 0), blank arcs from (t-1, u), label arcs from
    (t, u-1). Points before a lattice (t < 0) stay -inf; points past the
    padded lattice (t >= T) get values that no lattice point reads."""
    A = np.full(blank.shape, -np.inf)
    return _sweep(A, blank, emit, [(0, 0)] * blank.shape[1])


def _beta(blank: np.ndarray, emit: np.ndarray, ends: np.ndarray,
          lengths: np.ndarray) -> np.ndarray:
    """Skewed backward variables: B[t+u, b, u] = log-mass of all path
    suffixes from (t, u) to the end, the final blank included. The point
    past example b's final blank, (T_b, U_b) on diagonal ends[b], holds 0;
    every other point off its lattice that a lattice point reads is -inf.

    It is the `_sweep` over the lattice turned around (diagonal d becomes
    row T+U-d, column u becomes U-u), returned as a view turned back. The
    label arcs are reversed behind one -inf row, as no label arc leaves the
    last diagonal, T+U-1 (its points with u < U lie past frame T-1)."""
    rows = np.full((len(blank) + 1,) + blank.shape[1:], -np.inf)
    turned_emit = np.concatenate([np.full((1,) + emit.shape[1:], -np.inf), emit[::-1, :, ::-1]])
    starts = list(zip((len(blank) - ends).tolist(), (emit.shape[-1] - lengths).tolist()))
    return _sweep(rows, np.ascontiguousarray(blank[::-1, :, ::-1]), turned_emit, starts)[::-1, :, ::-1]


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
    points see exactly its own arithmetic. The arcs are written into -inf
    skewed arrays through `_frames`, and log P and the occupancies are read
    back out through it. The backward runs the beta recursion, the same sweep
    turned around, and writes the arc occupancies
    exp(alpha + arc + beta_next - log P) into the blank and target-label
    entries of the grid. Every other entry gets gradient 0, and so does
    every entry of an example whose log P is -inf (no path has mass).
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
        blank, emit = np.full((T + U, B, U + 1), -np.inf), np.full((T + U - 1, B, U), -np.inf)
        _frames(blank)[...] = np.where(past_end | (u > lengths[:, None, None]), -np.inf,
                                       lp[:, :T, :U + 1, BLANK_ID] + dp_perturbation)
        emit_lp = np.take_along_axis(lp[:, :T, :U], labels[:, None, :, None], axis=-1)[..., 0]
        _frames(emit)[...] = np.where(past_end | (u[:, :U] >= lengths[:, None, None]), -np.inf, emit_lp)
        A = _alpha(blank, emit)
        ends = frames + lengths
        n, last = np.arange(B), frames - 1
        log_p = _frames(A)[n, last, lengths] + _frames(blank)[n, last, lengths]

    def bw(g):
        grad = np.zeros_like(lp)
        with np.errstate(all="ignore"):
            beta = _beta(blank, emit, ends, lengths)
            norm = np.where(np.isneginf(log_p), np.inf, log_p)[:, None]  # no mass: occupancy 0
            blank_occ = np.exp(A + blank + beta[1:] - norm)
            emit_occ = np.exp(A[:-1, :, :U] + emit + beta[1:-1, :, 1:] - norm)
        g = g * sign
        grad[:, :T, :U + 1, BLANK_ID] = g * _frames(blank_occ)
        np.put_along_axis(grad[:, :T, :U], labels[:, None, :, None], (g * _frames(emit_occ))[..., None], axis=-1)
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
    _check_loss_args(lp[None], [T], [y])
    if T + U > max_size:
        raise ValueError(f"instance too large for enumeration: T + U = {T + U} > {max_size}")

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
