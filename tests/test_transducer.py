import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_ops as ops
from reference_step import joint_logits
from ttkit import tensor as tt
from ttkit import transducer as tr
from ttkit.tensor import Rng, ShapeError, Tensor, backward, finite_difference_gradient, max_gradient_error
from ttkit.transducer import (
    BLANK_ID,
    LogProbGrid,
    batch_loss,
    brute_force_log_prob,
    enumerate_alignments,
    log_prob_grid,
    random_grid,
    rnnt_log_prob,
)


def make_joint(d_audio=4, d_label=3, joint_dim=5, vocab=3, seed=0):
    return tr.joint_param_spec(d_audio, d_label, joint_dim, vocab).map(
        lambda _, spec: spec.materialize(Rng(seed)))


# ----------------------------------------------------------------- vocab

def test_vocab_rejects_blank_in_targets():
    with pytest.raises(ValueError):
        tr.check_targets([1, 0, 2], 4)


# ----------------------------------------------------------------- joint

def test_joint_zero_params_uniform():
    params = make_joint()
    for _, p in params.named("j"):
        p.values[...] = 0.0
    logits = joint_logits(tt.zeros(4), tt.zeros(3), params)
    np.testing.assert_array_equal(logits.values, np.zeros(3))
    probs = ops.softmax(logits, axis=0)
    np.testing.assert_allclose(probs.values, 1 / 3, atol=1e-15)


def test_joint_blank_bias_dominates():
    # softmax([10, 0, 0]) puts 1/(1 + 2e^-10) > 0.9999 on blank
    params = make_joint(vocab=3)
    for _, p in params.named("j"):
        p.values[...] = 0.0
    params.out_b.values[0] = 10.0
    rng = Rng(1)
    grid = log_prob_grid(Tensor(rng.normal((3, 4))), Tensor(rng.normal((2, 3))), params)
    blank_probs = np.exp(grid.log_probs.values[:, :, 0])
    assert (blank_probs > 0.9999).all()


def test_joint_gradient_check():
    params = make_joint()
    rng = Rng(2)
    audio = Tensor(rng.normal((4,)))
    label = Tensor(rng.normal((3,)))

    def loss():
        return ops.tsum(ops.mul(joint_logits(audio, label, params), Tensor([0.3, -1.0, 0.7]))).item()

    backward(ops.tsum(ops.mul(joint_logits(audio, label, params), Tensor([0.3, -1.0, 0.7]))))
    for name, p in params.named("j"):
        num = finite_difference_gradient(loss, p)
        assert max_gradient_error(p.grad, num) < 1e-4, name


def test_joint_dim_mismatch():
    params = make_joint()
    with pytest.raises(ShapeError):
        joint_logits(tt.zeros(5), tt.zeros(3), params)


# ------------------------------------------------------------------ grid

def test_grid_minimal_shape():
    params = make_joint(vocab=5)
    grid = log_prob_grid(Tensor(Rng(3).normal((1, 4))), Tensor(Rng(4).normal((1, 3))), params)
    assert grid.log_probs.shape == (1, 1, 5)
    assert grid.T == 1 and grid.U == 0


def test_grid_rows_normalized():
    params = make_joint(vocab=6)
    rng = Rng(5)
    grid = log_prob_grid(Tensor(rng.normal((4, 4))), Tensor(rng.normal((3, 3))), params)
    lse = np.log(np.exp(grid.log_probs.values).sum(axis=-1))
    np.testing.assert_allclose(lse, 0.0, atol=1e-9)


def test_grid_is_pure_function_of_t_u():
    params = make_joint()
    rng = Rng(6)
    audio = Tensor(rng.normal((3, 4)))
    label = Tensor(rng.normal((2, 3)))
    g1 = log_prob_grid(audio, label, params).log_probs.values
    g2 = log_prob_grid(audio, label, params).log_probs.values
    assert g1.tobytes() == g2.tobytes()
    pair = joint_logits(ops.getitem(audio, 1), ops.getitem(label, 0), params)
    np.testing.assert_allclose(
        ops.log_softmax(pair, axis=0).values, g1[1, 0], atol=1e-12)


@st.composite
def grid_cases(draw):
    """A joint, activations (a padded batch, or one example) and an upstream
    gradient that is zero past each example's frames, with a block budget
    of 0 to T+1 rows (one-row blocks, T below a block, at it, or not a
    multiple of it) plus a remainder under one row. Some `out_b` entries,
    or all of them, may be -inf: with all, every row's log-normalizer is
    -inf."""
    B, T, U = draw(st.integers(1, 3)), draw(st.integers(1, 9)), draw(st.integers(0, 4))
    d_audio, d_label, J = (draw(st.integers(1, 6)) for _ in range(3))
    V = draw(st.integers(2, 7))
    rng = Rng(draw(st.integers(0, 2**31)))
    params = tr.joint_param_spec(d_audio, d_label, J, V).map(
        lambda name, spec: Tensor(rng.substream(name).normal(spec.shape)))
    params.out_b.values[rng.substream("dead").uniform(V) < draw(st.sampled_from([0.0, 0.5, 1.0]))] = -np.inf
    batched = draw(st.booleans())
    lead = (B,) if batched else ()
    audio, label = rng.normal(lead + (T, d_audio)), rng.normal(lead + (U + 1, d_label))
    g = rng.substream("g").normal(lead + (T, U + 1, V))
    frames = np.array([draw(st.integers(1, T)) for _ in range(B if batched else 1)])
    for b, t in enumerate(frames):
        g.reshape((-1,) + g.shape[-3:])[b, t:] = 0.0
    row_bytes = math.prod(lead + (U + 1, J)) * 8
    budget = draw(st.integers(0, T + 1)) * row_bytes + draw(st.integers(0, row_bytes - 1))
    return params, audio, label, frames if batched else None, g, budget


@settings(max_examples=300, deadline=None)
@given(grid_cases())
def test_grid_backward_in_place_matches_the_whole_array_reference(case):
    """The grid node that writes its backward over the saved tanh, block by
    block, gives the reference node's values and all eight gradients, bit
    for bit; a second call of its backward raises."""
    params, audio, label, frames, g, budget = case
    grid = log_prob_grid(Tensor(audio), Tensor(label), params, frames)
    ref = ops.log_prob_grid(Tensor(audio), Tensor(label), params, frames)
    assert np.array_equal(grid.log_probs.values, ref.log_probs.values, equal_nan=True)
    with mock.patch.object(tr, "GRID_BLOCK_BYTES", budget):
        grads = grid.log_probs.backward_fn(g)
        with pytest.raises(RuntimeError, match="ran already"):
            grid.log_probs.backward_fn(g)
    ref_grads = ref.log_probs.backward_fn(g)
    assert len(grads) == len(ref_grads) == 8
    for got, want in zip(grads, ref_grads):
        assert got.shape == want.shape and np.array_equal(got, want)


def _traced_peak(fn) -> int:
    """Peak bytes that `fn()` allocates beyond what is held when it starts."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_grid_backward_allocates_less_than_one_hidden_array():
    """Beyond what it holds at entry, the grid's backward allocates less
    than one [B, T, U+1, J] array; the reference's two whole temporaries
    take more than two."""
    B, T, U, J, V = 2, 48, 15, 128, 4
    params = make_joint(d_audio=8, d_label=8, joint_dim=J, vocab=V)
    rng = Rng(11)
    audio, label = rng.normal((B, T, 8)), rng.normal((B, U + 1, 8))
    g = rng.normal((B, T, U + 1, V))
    hidden_bytes = B * T * (U + 1) * J * 8
    assert hidden_bytes >= 4 * tr.GRID_BLOCK_BYTES  # the budget holds a fraction of it
    peaks = []
    for node in (log_prob_grid, ops.log_prob_grid):
        bw = node(Tensor(audio), Tensor(label), params).log_probs.backward_fn
        peaks.append(_traced_peak(lambda: bw(g)))
    assert peaks[0] < hidden_bytes < 2 * hidden_bytes < peaks[1], peaks


# ------------------------------------------------------------------ loss

def test_loss_empty_targets_is_blank_sum():
    rng = Rng(7)
    grid = random_grid(T=5, U=2, V=4, rng=rng)
    got = rnnt_log_prob(grid, [])
    expected = grid.log_probs.values[:, 0, 0].sum()
    assert got.item() == pytest.approx(expected, abs=1e-12)


def test_loss_single_path():
    rng = Rng(8)
    grid = random_grid(T=1, U=1, V=3, rng=rng)
    got = rnnt_log_prob(grid, [2])
    lp = grid.log_probs.values
    assert got.item() == pytest.approx(lp[0, 0, 2] + lp[0, 1, 0], abs=1e-12)


def test_loss_uniform_grid_closed_form():
    # V=2, T=2, U=1: exactly 2 alignments, each of probability (1/2)^3
    grid = ops.uniform_grid(T=2, U=1, V=2)
    got = rnnt_log_prob(grid, [1])
    assert got.item() == pytest.approx(math.log(0.25), abs=1e-12)


def test_alignment_count_t2_u1():
    assert len(list(enumerate_alignments(2, 1))) == 2


def test_alignment_moves_are_valid():
    for T, U in [(1, 0), (3, 2), (4, 3)]:
        for moves in enumerate_alignments(T, U):
            assert len(moves) == T + U
            assert sum(moves) == U
            assert moves[-1] == 0  # closes with the final blank


def test_oracle_equivalence_small_instances():
    rng = Rng(9)
    checked = 0
    for trial in range(300):
        T = rng.integers(1, 5)
        U = rng.integers(0, 4)
        V = rng.integers(2, 5)
        grid = random_grid(T, U, V, rng.substream(f"grid{trial}"))
        y = [rng.integers(1, V) for _ in range(U)]
        dp = rnnt_log_prob(grid, y).item()
        oracle = brute_force_log_prob(grid, y)
        assert abs(dp - oracle) < 1e-9, (T, U, V, y)
        checked += 1
    assert checked == 300


def test_oracle_rejects_large_instance():
    grid = ops.uniform_grid(T=10, U=6, V=2)
    with pytest.raises(ValueError):
        brute_force_log_prob(grid, [1] * 6)


def test_log_prob_never_positive():
    rng = Rng(10)
    for trial in range(50):
        grid = random_grid(rng.integers(1, 5), 2, 3, rng.substream(f"g{trial}"))
        y = [rng.integers(1, 3) for _ in range(rng.integers(0, 3))]
        assert rnnt_log_prob(grid, y).item() <= 1e-12


def test_log_prob_zero_only_for_certain_path():
    # force P(label)=1 then P(blank)=1 along the single path of T=1, U=1
    lp = np.full((1, 2, 2), -np.inf)
    lp[0, 0, 1] = 0.0
    lp[0, 1, 0] = 0.0
    grid = LogProbGrid(Tensor(lp))
    assert rnnt_log_prob(grid, [1]).item() == 0.0


def test_permutation_sensitivity():
    rng = Rng(11)
    grid = random_grid(T=4, U=2, V=4, rng=rng)
    a = rnnt_log_prob(grid, [1, 2]).item()
    b = rnnt_log_prob(grid, [2, 1]).item()
    assert abs(a - b) > 1e-6


def test_loss_label_out_of_vocab():
    grid = ops.uniform_grid(T=2, U=1, V=3)
    with pytest.raises(ValueError):
        rnnt_log_prob(grid, [3])
    with pytest.raises(ValueError):
        rnnt_log_prob(grid, [0])


def test_batch_loss_single_and_duplicate():
    rng = Rng(12)
    grid = random_grid(T=3, U=2, V=3, rng=rng)
    y = [1, 2]
    single = batch_loss(grid, [y])
    assert single.item() == pytest.approx(-rnnt_log_prob(grid, y).item(), abs=1e-12)
    double = batch_loss(LogProbGrid(Tensor(np.stack([grid.log_probs.values] * 2))), [y, y])
    assert double.item() == pytest.approx(2 * single.item(), abs=1e-12)


def test_loss_gradient_matches_finite_differences():
    params = make_joint(d_audio=3, d_label=3, joint_dim=4, vocab=3, seed=13)
    rng = Rng(14)
    audio = Tensor(rng.normal((3, 3)))
    label = Tensor(rng.normal((3, 3)))
    y = [1, 2]

    def loss():
        grid = log_prob_grid(audio, label, params)
        return batch_loss(grid, [y]).item()

    out = batch_loss(log_prob_grid(audio, label, params), [y])
    backward(out)
    for name, p in list(params.named("j")) + [("audio", audio), ("label", label)]:
        num = finite_difference_gradient(loss, p)
        assert max_gradient_error(p.grad, num) < 1e-4, name


def scalar_graph_log_prob(grid, y):
    """Slow reference: the lattice recursion as about 3*T*U scalar graph
    nodes, each alpha entry an add or logaddexp node over the one before."""
    y = list(y)
    T, U, V = grid.T, len(y), grid.vocab_size
    lp = grid.log_probs
    blanks = ops.getitem(lp, (slice(None), slice(U + 1), BLANK_ID))  # [T, U+1]
    if U > 0:
        idx = np.broadcast_to(np.asarray(y, dtype=np.intp), (T, U)).reshape(T * U, 1)
        emit_rows = ops.reshape(ops.getitem(lp, (slice(None), slice(U))), (T * U, V))
        labels = ops.reshape(ops.gather_cols(emit_rows, idx), (T, U))
    prev_row = [Tensor(0.0)]
    for u in range(1, U + 1):
        prev_row.append(ops.add(prev_row[u - 1], ops.getitem(labels, (0, u - 1))))
    for t in range(1, T):
        row = [ops.add(prev_row[0], ops.getitem(blanks, (t - 1, 0)))]
        for u in range(1, U + 1):
            stay = ops.add(prev_row[u], ops.getitem(blanks, (t - 1, u)))
            emit = ops.add(row[u - 1], ops.getitem(labels, (t, u - 1)))
            row.append(ops.logaddexp(stay, emit))
        prev_row = row
    return ops.add(prev_row[U], ops.getitem(blanks, (T - 1, U)))


@pytest.mark.parametrize("T,U,V", [(9, 4, 7), (71, 16, 7), (200, 40, 7)])
def test_fused_loss_matches_scalar_graph(T, U, V):
    rng = Rng(T * 1000 + U)
    y = [rng.integers(1, V) for _ in range(U)]
    logits = rng.normal((T, U + 1, V), sigma=2.0)
    results = []
    for loss_fn in (scalar_graph_log_prob, rnnt_log_prob):
        leaf = Tensor(logits.copy())
        value = loss_fn(LogProbGrid(ops.log_softmax(leaf, axis=-1)), y)
        backward(value)
        results.append((value.item(), leaf.grad))
    (ref, ref_grad), (got, got_grad) = results
    assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
    assert np.abs(got_grad - ref_grad).max() < 1e-10


@st.composite
def lattice_instances(draw):
    T = draw(st.integers(1, 6))
    U = draw(st.integers(0, 4))
    V = draw(st.integers(2, 5))
    extra_rows = draw(st.integers(0, 1))  # history rows beyond the targets are off-lattice
    y = draw(st.lists(st.integers(1, V - 1), min_size=U, max_size=U))
    shape = (T, U + 1 + extra_rows, V)
    rng = Rng(draw(st.integers(0, 2**31)))
    lp = ops.log_softmax(Tensor(rng.normal(shape, sigma=2.0)), axis=-1).values
    lp[rng.substream("dead").uniform(shape) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))] = -np.inf
    return lp, y


@settings(max_examples=150, deadline=None)
@given(lattice_instances())
def test_fused_loss_properties(instance):
    lp, y = instance
    T, U = lp.shape[0], len(y)
    leaf = Tensor(lp)
    value = rnnt_log_prob(LogProbGrid(leaf), y)
    oracle = brute_force_log_prob(lp, y)
    assert value.item() == oracle or abs(value.item() - oracle) < 1e-9
    backward(value)
    grad = leaf.grad
    assert not np.isnan(grad).any()
    on_lattice = np.zeros(lp.shape, dtype=bool)
    on_lattice[:T - 1, :U + 1, BLANK_ID] = True
    on_lattice[T - 1, U, BLANK_ID] = True  # the final blank
    on_lattice[:, np.arange(U), y] = True
    assert (grad[~on_lattice] == 0).all()
    assert (grad[np.isneginf(lp)] == 0).all()
    if np.isfinite(oracle):
        # every path takes T blanks and U labels, so the occupancies sum to that
        assert grad[..., BLANK_ID].sum() == pytest.approx(T, abs=1e-9)
        assert grad.sum() == pytest.approx(T + U, abs=1e-9)


@st.composite
def padded_batches(draw):
    """Up to four lattices over one vocabulary, padded into one grid whose
    padding holds unnormalized noise."""
    V = draw(st.integers(2, 5))
    rng = Rng(draw(st.integers(0, 2**31)))
    examples = []
    for b in range(draw(st.integers(1, 4))):
        T, U = draw(st.integers(1, 6)), draw(st.integers(0, 4))
        y = draw(st.lists(st.integers(1, V - 1), min_size=U, max_size=U))
        lp = ops.log_softmax(Tensor(rng.substream(f"lp{b}").normal((T, U + 1, V), sigma=2.0)), axis=-1).values
        lp[rng.substream(f"dead{b}").uniform(lp.shape) < draw(st.sampled_from([0.0, 0.3]))] = -np.inf
        examples.append((lp, y))
    T, W = (max(lp.shape[i] for lp, _ in examples) for i in (0, 1))
    padded = rng.substream("pad").normal((len(examples), T, W, V))
    for b, (lp, _) in enumerate(examples):
        padded[b, :lp.shape[0], :lp.shape[1]] = lp
    return padded, examples


@settings(max_examples=100, deadline=None)
@given(padded_batches())
def test_batch_loss_matches_each_example(batch):
    """The one lattice node over a padded batch gives each example's own
    log-probability and gradient; the padding gets gradient 0."""
    padded, examples = batch
    leaf = Tensor(padded)
    loss = batch_loss(LogProbGrid(leaf, np.array([lp.shape[0] for lp, _ in examples])),
                      [y for _, y in examples])
    backward(loss)
    expected = 0.0
    for b, (lp, y) in enumerate(examples):
        own = Tensor(lp)
        value = rnnt_log_prob(LogProbGrid(own), y)
        backward(value)
        expected -= value.item()
        T, W = lp.shape[:2]
        assert np.array_equal(leaf.grad[b, :T, :W], -own.grad)
        assert (leaf.grad[b, T:] == 0).all() and (leaf.grad[b, :, W:] == 0).all()
    assert loss.item() == expected or abs(loss.item() - expected) <= 1e-12 * abs(expected)


@st.composite
def lattice_batches(draw):
    """A padded batch of normalized grids with -inf entries: per-example
    frame counts and target lengths (0 among them), padding past the
    longest of each, and a blank perturbation."""
    V = draw(st.integers(2, 5))
    B = draw(st.integers(1, 4))
    frames = draw(st.lists(st.integers(1, 7), min_size=B, max_size=B))
    ys = [draw(st.lists(st.integers(1, V - 1), max_size=5)) for _ in range(B)]
    T = max(frames) + draw(st.integers(0, 1))
    W = max(len(y) for y in ys) + 1 + draw(st.integers(0, 1))
    rng = Rng(draw(st.integers(0, 2**31)))
    lp = ops.log_softmax(Tensor(rng.normal((B, T, W, V), sigma=2.0)), axis=-1).values
    lp[rng.substream("dead").uniform(lp.shape) < draw(st.sampled_from([0.0, 0.1, 0.3, 0.7]))] = -np.inf
    return lp, frames, ys, draw(st.sampled_from([0.0, 0.01, -0.7]))


@settings(max_examples=200, deadline=None)
@given(lattice_batches())
def test_full_width_diagonals_match_the_per_range_reference(batch):
    """`_alpha` and `_beta` update every column of a diagonal; the reference
    updates only its lattice points. Every point the loss and its gradient
    read, the loss value and the grid gradient are the same bytes."""
    lp, frames, ys, perturbation = batch

    def run(alpha, beta):
        out = {}

        def keep(name, fn):
            return lambda *args: out.setdefault(name, fn(*args))

        with mock.patch.object(tr, "_alpha", keep("alpha", alpha)), \
                mock.patch.object(tr, "_beta", keep("beta", beta)), \
                mock.patch.object(tr, "dp_perturbation", perturbation):
            leaf = Tensor(lp.copy())
            loss = batch_loss(LogProbGrid(leaf, np.array(frames)), ys)
            backward(loss, check_finite=False)
        return loss.item(), leaf.grad, out["alpha"], out["beta"]

    # the reference keeps the example axis first and one more -inf beta
    # column, and reads label arcs in the blank arcs' [T+U, B, U+1] layout,
    # -inf past the kernel's [T+U-1, B, U]; these views put it in the
    # kernel's layout
    def ref_alpha(blank, emit, T, U):
        return ops.lattice_alpha(blank.swapaxes(0, 1), emit.swapaxes(0, 1), T, U).swapaxes(0, 1)

    def ref_beta(blank, emit, T, U, ends, lengths):
        emit = np.pad(emit, ((0, 1), (0, 0), (0, 1)), constant_values=-np.inf)
        return ops.lattice_beta(blank.swapaxes(0, 1), emit.swapaxes(0, 1), T, U, ends,
                                lengths).swapaxes(0, 1)[..., :U + 1]

    (loss, grad, A, B), (ref_loss, ref_grad, ref_A, ref_B) = (
        run(tr._alpha, tr._beta), run(ref_alpha, ref_beta))
    assert loss.hex() == ref_loss.hex()
    assert grad.tobytes() == ref_grad.tobytes()
    T = max(frames)
    d, _, u = np.indices(A.shape)
    assert A[(d - u >= 0) & (d - u < T)].tobytes() == ref_A[(d - u >= 0) & (d - u < T)].tobytes()
    d, _, u = np.indices(B.shape)  # the backward reads beta up to t = T
    assert B[(d - u >= 0) & (d - u <= T)].tobytes() == ref_B[(d - u >= 0) & (d - u <= T)].tobytes()


def test_loss_on_non_finite_grid_raises_no_warning():
    lp = np.log(np.full((3, 3, 3), 1 / 3))
    lp[1, 1, 0], lp[0, 1, 2], lp[2, 0, 1] = np.nan, np.inf, -np.inf
    leaf = Tensor(lp)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = rnnt_log_prob(LogProbGrid(leaf), [2, 1])
        backward(value, check_finite=False)
    assert np.isnan(value.item())


def test_grid_from_non_finite_logits_raises_no_warning():
    logits = Rng(3).normal((3, 3, 3))
    logits[0, 0, 1], logits[1, 2, 0], logits[2, 1, :] = np.inf, -np.inf, np.nan
    logits[1, 0, :] = -np.inf
    leaf = Tensor(logits)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        grid = LogProbGrid(ops.log_softmax(leaf, axis=-1))
        value = rnnt_log_prob(grid, [2, 1])
        backward(value, check_finite=False)
    assert np.isnan(value.item())
    lp = grid.log_probs.values
    assert np.isnan(lp[0, 0, 1]) and np.isneginf(lp[0, 0, [0, 2]]).all()  # a +inf logit
    assert np.isnan(lp[1, 0]).all() and np.isnan(lp[2, 1]).all()  # an all -inf row, a NaN row
    assert np.isneginf(lp[1, 2, 0]) and np.isfinite(lp[1, 2, 1:]).all()


@pytest.mark.parametrize("T,U", [(1, 0), (4, 2), (30, 9)])
@pytest.mark.parametrize("B", [1, 3])
def test_batch_loss_graph_size_is_independent_of_lattice(T, U, B):
    grid = LogProbGrid(Tensor(np.stack([random_grid(T, U, 5, Rng(b)).log_probs.values for b in range(B)])))
    root = batch_loss(grid, [[1 + (u % 4) for u in range(U)]] * B)
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop().parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    # one loss node over the one padded grid leaf, whatever the batch
    assert len(seen) - 1 == 1


def test_dp_perturbation_hook_breaks_equivalence():
    rng = Rng(15)
    grid = random_grid(T=3, U=2, V=3, rng=rng)
    y = [1, 2]
    clean = rnnt_log_prob(grid, y).item()
    tr.dp_perturbation = 0.01
    try:
        perturbed = rnnt_log_prob(grid, y).item()
    finally:
        tr.dp_perturbation = 0.0
    assert abs(perturbed - brute_force_log_prob(grid, y)) > 1e-6
    assert abs(clean - brute_force_log_prob(grid, y)) < 1e-9
