import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ops as ops
from ttkit import tensor as tt
from ttkit.tensor import (
    NumericsError,
    Rng,
    ShapeError,
    Tensor,
    backward,
    finite_difference_gradient,
    max_gradient_error,
)


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ops.matmul(eye, b)
    np.testing.assert_array_equal(out.values, b.values)


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    out = ops.matmul(a, b)
    np.testing.assert_array_equal(out.values, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    a = Tensor(np.zeros((2, 3)))
    b = Tensor(np.zeros((2, 2)))
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        ops.matmul(a, b)


def test_matmul_batched_left_operand():
    rng = Rng(4)
    a = Tensor(rng.normal((3, 4, 5)))
    b = Tensor(rng.normal((5, 2)))
    upstream = Tensor(rng.normal((3, 4, 2)))
    out = ops.matmul(a, b)
    for i in range(3):
        np.testing.assert_allclose(out.values[i], a.values[i] @ b.values, atol=1e-12)
    backward(ops.tsum(ops.mul(out, upstream)))
    for p in (a, b):
        num = finite_difference_gradient(lambda: ops.tsum(ops.mul(ops.matmul(a, b), upstream)).item(), p)
        assert max_gradient_error(p.grad, num) < 1e-4


def test_logsumexp_equal_mass():
    out = ops.logsumexp(Tensor([0.0, 0.0]), axis=0)
    assert out.item() == pytest.approx(math.log(2.0), abs=1e-12)


def test_logsumexp_stability():
    out = ops.logsumexp(Tensor([-1000.0, -1000.0]), axis=0)
    assert out.item() == pytest.approx(-1000.0 + math.log(2.0), abs=1e-9)


def test_logsumexp_hand_value():
    # exp-sum-log by hand: exp(0) + exp(ln 3) = 4
    out = ops.logsumexp(Tensor([0.0, math.log(3.0)]), axis=0)
    assert out.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_logsumexp_empty_axis_errors():
    with pytest.raises(ShapeError):
        ops.logsumexp(Tensor(np.zeros((3, 0))), axis=1)


def test_logsumexp_all_masked_row():
    row = ops.apply_mask(Tensor([1.0, 2.0]), np.array([False, False]))
    out = ops.logsumexp(row, axis=0)
    assert out.values == -np.inf


def test_softmax_uniform():
    out = ops.softmax(Tensor([0.0, 0.0, 0.0]), axis=0)
    np.testing.assert_allclose(out.values, [1 / 3] * 3, atol=1e-15)


def test_softmax_hand_value():
    out = ops.softmax(Tensor([0.0, math.log(2.0)]), axis=0)
    np.testing.assert_allclose(out.values, [1 / 3, 2 / 3], atol=1e-15)


def test_exp_log_softmax_matches_softmax():
    rng = Rng(7)
    x = Tensor(rng.normal((4, 6)))
    s = ops.softmax(x, axis=-1)
    ls = ops.exp(ops.log_softmax(x, axis=-1))
    np.testing.assert_allclose(s.values, ls.values, atol=1e-12)
    np.testing.assert_allclose(s.values.sum(axis=-1), 1.0, atol=1e-12)


def test_layer_norm_constant_vector():
    x = Tensor([4.0, 4.0, 4.0])
    out = tt.layer_norm(x, tt.ones(3), tt.zeros(3), eps=1e-5)
    np.testing.assert_allclose(out.values, 0.0, atol=1e-12)


def test_layer_norm_hand_value():
    # mean 2, population std 1
    out = tt.layer_norm(Tensor([1.0, 3.0]), tt.ones(2), tt.zeros(2), eps=1e-12)
    np.testing.assert_allclose(out.values, [-1.0, 1.0], atol=1e-6)


def test_layer_norm_zero_gain_gives_bias():
    rng = Rng(3)
    x = Tensor(rng.normal((5, 4)))
    bias = Tensor([1.0, 2.0, 3.0, 4.0])
    out = tt.layer_norm(x, tt.zeros(4), bias, eps=1e-5)
    np.testing.assert_array_equal(out.values, np.broadcast_to(bias.values, (5, 4)))


# Composed references for the fused layer-norm and log-softmax nodes.

def composed_layer_norm(x, gain, bias, eps):
    mu = ops.mean(x, axis=-1, keepdims=True)
    xc = ops.sub(x, mu)
    var = ops.mean(ops.mul(xc, xc), axis=-1, keepdims=True)
    inv = ops.powc(ops.add(var, Tensor(eps)), -0.5)
    return ops.add(ops.mul(ops.mul(xc, inv), gain), bias)


def composed_log_softmax(a, axis):
    return ops.sub(a, ops.logsumexp(a, axis=axis, keepdims=True))


def _fused_and_composed(fused, composed, inputs, upstream):
    """(values, input gradients) of both graphs under the same upstream
    gradient, which reaches only the finite outputs."""
    out = []
    for fn in (fused, composed):
        for t in inputs:
            t.grad = None
        y = fn(*inputs)
        finite = np.isfinite(y.values)
        backward(ops.tsum(ops.mul(ops.getitem(y, finite), Tensor(upstream[finite]))))
        out.append((y.values, [t.grad.copy() for t in inputs]))
    return out


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(1,), (2,), (5,), (1, 3), (4, 1), (3, 6)]),
       eps=st.sampled_from([1e-12, 1e-5, 0.1]),
       constant=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_fused_layer_norm_matches_composed(shape, eps, constant, seed):
    rng = Rng(seed)
    x = Tensor(rng.normal(shape) + 3.0 * rng.normal(shape[:-1] + (1,)))  # rows off-centre
    if constant:
        x.values[...] = x.values.mean()
    gain, bias = Tensor(rng.normal(shape[-1:])), Tensor(rng.normal(shape[-1:]))
    (fv, fg), (cv, cg) = _fused_and_composed(
        lambda *t: tt.layer_norm(*t, eps), lambda *t: composed_layer_norm(*t, eps),
        [x, gain, bias], rng.normal(shape))
    assert np.max(np.abs(fv - cv)) <= 1e-12 * max(1.0, np.max(np.abs(cv)))
    for name, a, b in zip(("x", "gain", "bias"), fg, cg):
        assert np.max(np.abs(a - b)) <= 1e-10 * max(1.0, np.max(np.abs(b))), name


@settings(max_examples=200, deadline=None)
@given(d=st.one_of(st.integers(1, 64), st.sampled_from([128, 512])),
       eps=st.sampled_from([1e-12, 1e-5, 0.1]),
       scale=st.floats(1e-3, 1e3),
       seed=st.integers(0, 2**32 - 1))
def test_layer_norm_row_equals_the_row_as_a_batch(d, eps, scale, seed):
    """One row [d] normalizes with plain-float statistics; its output, x̂
    and inv equal those of the same row passed as x[None], bit for bit."""
    rng = Rng(seed)
    x = scale * (rng.normal((d,)) + 3.0 * rng.normal((1,)))
    gain, bias = rng.normal((d,)), rng.normal((d,))
    row = tt.layer_norm_forward(x, gain, bias, eps)
    batch = tt.layer_norm_forward(x[None], gain, bias, eps)
    for a, b in zip(row, batch):
        assert np.asarray(a).tobytes() == b[0].tobytes()


@settings(max_examples=40, deadline=None)
@given(shape=st.sampled_from([(1,), (4,), (3, 5), (2, 3, 4)]),
       axis=st.integers(-1, 0),
       masked=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_fused_log_softmax_matches_composed(shape, axis, masked, seed):
    rng = Rng(seed)
    values = rng.normal(shape, sigma=5.0)
    if masked:
        drop = rng.uniform(shape) < 0.3
        np.moveaxis(drop, axis, 0)[0] = False  # -inf entries, never a whole row
        values[drop] = -np.inf
    (fv, fg), (cv, cg) = _fused_and_composed(
        lambda t: ops.log_softmax(t, axis), lambda t: composed_log_softmax(t, axis),
        [Tensor(values)], rng.normal(shape))
    np.testing.assert_array_equal(np.isneginf(fv), np.isneginf(values))
    finite = np.isfinite(values)
    assert np.max(np.abs(fv[finite] - cv[finite])) <= 1e-12 * max(1.0, np.max(np.abs(cv[finite])))
    assert np.max(np.abs(fg[0] - cg[0])) <= 1e-10


@settings(max_examples=60, deadline=None)
@given(lead=st.sampled_from([(1,), (7,), (1, 1), (2, 5), (4, 1), (3, 9)]),
       n=st.integers(1, 40),
       m=st.integers(1, 40),
       seed=st.integers(0, 2**32 - 1))
@example(lead=(20,), n=48, m=32, seed=0)
@example(lead=(8, 20), n=48, m=32, seed=1)
def test_linear_matches_matmul_then_add_bit_for_bit(lead, n, m, seed):
    """The input node x W + b over one sequence [T, n] or a batch [B, T, n]
    equals `add(matmul(x, W), b)` bit for bit: its values and the gradients
    of x, W and b."""
    rng = Rng(seed)
    inputs = [Tensor(rng.normal(lead + (n,))), Tensor(rng.normal((n, m))), Tensor(rng.normal((m,)))]
    (fv, fg), (cv, cg) = _fused_and_composed(
        tt.linear, lambda x, w, b: ops.add(ops.matmul(x, w), b), inputs, rng.normal(lead + (m,)))
    assert fv.tobytes() == cv.tobytes()
    for name, a, b in zip(("x", "W", "b"), fg, cg):
        assert a.tobytes() == b.tobytes(), name
    assert tt.linear(*inputs).parents == tuple(inputs)


def test_layer_norm_and_log_softmax_are_one_node():
    x, gain, bias = Tensor(Rng(0).normal((3, 4))), tt.ones(4), tt.zeros(4)
    assert tt.layer_norm(x, gain, bias).parents == (x, gain, bias)
    assert ops.log_softmax(x, axis=-1).parents == (x,)


def test_dropout_inference_identity():
    x = Tensor(Rng(0).normal((8, 8)))
    assert tt.dropout_masks([x.shape], 0.1, None) is None


def test_dropout_zero_ratio_identity():
    assert tt.dropout_masks([(8, 8)], 0.0, Rng(1)) is None


def test_dropout_mean_preserved():
    keep = tt.dropout_masks([(1, 100_000)], 0.1, tt.BatchRng([Rng(42)], [100_000]))[0]
    assert keep.dtype == bool and abs(tt.dropout_factor(keep, 0.1).mean() - 1.0) < 0.02


def test_dropout_bad_ratio():
    with pytest.raises(ValueError):
        tt.dropout_masks([(3,)], 1.0, Rng(0))
    with pytest.raises(ValueError):
        tt.dropout_masks([(3,)], -0.1, Rng(0))


@pytest.mark.parametrize("lengths", [None, [3, 7, 1, 5]])
def test_layer_masks_drawn_together_equal_per_site_draws(lengths):
    """A layer's three dropout masks drawn in one call (attention, then the
    two feed-forward sites) give the factors of three per-site draws in that
    order, bit for bit, for a batch of one and for a padded batch."""
    t, d, ff = 7, 4, 6

    def rng():
        if lengths is None:
            return tt.BatchRng([Rng(11).substream("layer0")], [t])
        return tt.BatchRng([Rng(11 + b).substream("layer0") for b in range(len(lengths))], lengths)

    lead = (1, t) if lengths is None else (len(lengths), t)
    shapes = [lead + (d,), lead + (ff,), lead + (d,)]
    together = tt.dropout_masks(shapes, 0.1, rng())
    apart = rng()
    sites = [ops.dropout_scale(shape, 0.1, apart) for shape in shapes]
    assert [tt.dropout_factor(k, 0.1).tobytes() for k in together] == [s.tobytes() for s in sites]
    assert [k.shape for k in together] == shapes


def test_backward_sum_gives_ones():
    w = Tensor(Rng(5).normal((3, 4)))
    backward(ops.tsum(w))
    np.testing.assert_array_equal(w.grad, np.ones((3, 4)))


def test_backward_quadratic():
    w = Tensor(Rng(6).normal((5,)))
    backward(ops.tsum(ops.mul(w, w)))
    np.testing.assert_allclose(w.grad, 2.0 * w.values, atol=1e-12)


def test_backward_rejects_non_scalar_root():
    w = Tensor(Rng(6).normal((5,)))
    with pytest.raises(ShapeError):
        backward(w)


def test_backward_flags_non_finite_gradient():
    w = Tensor([0.0])
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(NumericsError):
        out = ops.log(w)  # -inf value, infinite gradient
        backward(ops.tsum(out))


def _composite_graph(w: Tensor, x: Tensor) -> Tensor:
    """Touches every differentiable op in the library."""
    h = ops.matmul(x, w)                                  # [4, 5]
    h = tt.layer_norm(h, tt.ones(5), tt.zeros(5), 1e-5)
    h = ops.add(ops.tanh(h), ops.mul(ops.relu(h), Tensor(0.5)))
    g = ops.gather_cols(h, np.array([[0, 1]] * 4))
    r = tt.rows(h, np.array([1, 2, 1]))
    m = ops.apply_mask(h, np.tril(np.ones((4, 5), dtype=bool)))
    sm = ops.log_softmax(m, axis=-1)
    lse = ops.logsumexp(h, axis=1)
    la = ops.getitem(ops.logaddexp(lse, ops.tsum(g, axis=1)), slice(2))
    parts = ops.concat([ops.reshape(r, (3, 5)), ops.exp(sm)], axis=0)
    return ops.add(ops.add(
        ops.tsum(ops.exp(ops.mul(Tensor(-1.0), ops.powc(
            ops.add(ops.mul(ops.mean(parts, axis=0), ops.mean(parts, axis=0)), Tensor(1.0)), 0.5)))),
        ops.tsum(la)),
        # unmasked block only; -inf entries stay out of arithmetic
        ops.tsum(ops.getitem(sm, (slice(1, None), slice(2)))))


def test_gradient_check_composite_graph():
    rng = Rng(11)
    w = Tensor(rng.normal((3, 5)))
    x = Tensor(rng.normal((4, 3)))
    loss = _composite_graph(w, x)
    backward(loss)
    for p in (w, x):
        num = finite_difference_gradient(lambda: _composite_graph(w, x).item(), p)
        assert max_gradient_error(p.grad, num) < 1e-4


@given(st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_gradient_check_random_small_graphs(seed):
    rng = Rng(seed)
    w = Tensor(rng.normal((2, 3)))
    x = Tensor(rng.normal((3, 3)))

    def build():
        h = ops.matmul(w, x)
        h = ops.logaddexp(h, ops.transpose(ops.matmul(x, ops.transpose(w))))
        s = ops.softmax(h, axis=-1)
        return ops.tsum(ops.mul(s, ops.tanh(h))).item()

    h = ops.matmul(w, x)
    h = ops.logaddexp(h, ops.transpose(ops.matmul(x, ops.transpose(w))))
    s = ops.softmax(h, axis=-1)
    loss = ops.tsum(ops.mul(s, ops.tanh(h)))
    backward(loss)
    num = finite_difference_gradient(build, w)
    assert max_gradient_error(w.grad, num) < 1e-4


def test_forward_and_gradients_bitwise_deterministic():
    def run():
        rng = Rng(123)
        w = Tensor(rng.normal((4, 4)))
        x = Tensor(rng.normal((4, 4)))
        out = ops.tsum(ops.mul(ops.softmax(ops.matmul(x, ops.tanh(w)), axis=-1), Tensor(3.0)))
        backward(out)
        return out.values.copy(), w.grad.copy()

    v1, g1 = run()
    v2, g2 = run()
    assert v1.tobytes() == v2.tobytes()
    assert g1.tobytes() == g2.tobytes()


def test_no_grad_blocks_graph():
    w = Tensor(np.ones((2, 2)))
    with tt.no_grad():
        out = ops.matmul(w, w)
    assert out.parents == () and out.backward_fn is None


def test_graph_lists_each_reachable_tensor_once_after_its_parents():
    """A diamond's shared input appears once, a node that lists its parents
    newest first still comes after both, and a node built under `no_grad`
    ends the walk: its input is not reached."""
    def node(*parents):
        return Tensor(1.0, parents, lambda g: (g,) * len(parents))

    x, hidden = Tensor(1.0), Tensor(2.0)
    a, b = node(x), node(x)
    c = node(b, a)
    with tt.no_grad():
        cut = node(hidden)
    root = node(c, cut, a)
    assert tt.graph(root) == [x, a, b, c, cut, root]


def test_backward_sums_a_tensors_gradients_newest_consumer_first():
    """Consumers a, b and c of x, built in that order, send it 1, 1e-16 and
    -1 through a root that lists them as (c, a, b). Summed newest consumer
    first, (-1 + 1e-16) + 1 keeps the small term as 2**-53; any order that
    adds 1e-16 to 1 first loses it."""
    x = Tensor([0.0])
    a, b, c = (Tensor([0.0], (x,), lambda g, s=s: (g * s,)) for s in (1.0, 1e-16, -1.0))
    root = Tensor([0.0], (c, a, b), lambda g: (g, g, g))
    backward(root)
    assert x.grad.tolist() == [2.0 ** -53]


def test_broadcast_add_gradients():
    a = Tensor(Rng(1).normal((3, 1, 4)))
    b = Tensor(Rng(2).normal((5, 4)))
    out = ops.tsum(ops.add(a, b))
    backward(out)
    assert a.grad.shape == a.shape and b.grad.shape == b.shape
    np.testing.assert_allclose(a.grad, 5.0)
    np.testing.assert_allclose(b.grad, 3.0)


def test_rng_same_seed_same_stream():
    assert Rng(9).normal((10,)).tobytes() == Rng(9).normal((10,)).tobytes()


def test_rng_streams_equal_keyed_philox():
    """`Rng(k)` streams as numpy's Philox keyed by k, though it builds the
    generator without gathering OS entropy."""
    keys = [0, 1, 2**64 - 1] + [int(k) for k in np.random.Generator(np.random.Philox(key=7)).integers(
        0, 2**64, 200, dtype=np.uint64)]
    for k in keys:
        want = np.random.Generator(np.random.Philox(key=k))
        rng = Rng(k)
        assert rng.uniform((5,)).tobytes() == want.random(5).tobytes()
        assert rng.normal((4,), sigma=2.0).tobytes() == want.normal(0.0, 2.0, size=4).tobytes()
        assert rng.integers(0, 1000, (3,)).tobytes() == want.integers(0, 1000, size=3).tobytes()
        assert rng.integers(3, 9) == int(want.integers(3, 9))


def test_rng_generator_holds_no_reference_back():
    """A drawn-from `Rng` is freed by reference counting alone: its Philox
    keeps a seed sequence that is not the `Rng` itself."""
    rng = Rng(3)
    rng.uniform((2,))
    gone = weakref.ref(rng)
    gc.disable()
    try:
        del rng
        assert gone() is None
    finally:
        gc.enable()


def test_rng_substreams_independent():
    root = Rng(9)
    a1 = root.substream("dropout").normal((4,))
    # drawing from an unrelated substream must not perturb "dropout"
    root.substream("noise").normal((100,))
    a2 = Rng(9).substream("dropout").normal((4,))
    np.testing.assert_array_equal(a1, a2)
