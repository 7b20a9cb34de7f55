import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_ops as ops
from ttkit import attention as att
from ttkit import tensor as tt
from ttkit.attention import AttentionMask, EncoderConfig, receptive_field
from ttkit.tensor import Rng, Tensor, backward, finite_difference_gradient, max_gradient_error


def small_config(num_layers=2, left=2, right=1, model_dim=8, **kw):
    kw.setdefault("mask", AttentionMask(left, right))
    return EncoderConfig(
        num_layers=num_layers,
        model_dim=model_dim,
        ff_dim1=12,
        ff_dim2=model_dim,
        num_heads=kw.pop("num_heads", 2),
        head_dim=4,
        dropout_ratio=kw.pop("dropout_ratio", 0.0),
        input_dim=kw.pop("input_dim", 5),
        **kw,
    )


def init_encoder_params(config, rng):
    return att.encoder_param_spec(config).map(lambda _, spec: spec.materialize(rng))


def zero_params(params):
    """Zero every projection weight and bias, keeping layer-norm gains."""
    def z(name, t):
        if name.split(".")[-1] in ("ln1_g", "ln1_b", "ln2_g", "ln2_b", "final_g", "final_b", "input_w", "input_b"):
            return t
        return tt.zeros(t.shape)
    return _map_named(params, z)


def _map_named(params, fn):
    import copy
    out = copy.deepcopy(params)
    for name, t in out.named("p"):
        t.values[...] = fn(name, t).values
    return out


# ---------------------------------------------------------------- masks

def test_mask_fig_window():
    # 1-based row 7 with left=2, right=1 allows columns {5, 6, 7, 8}
    m = ops.build_mask(10, AttentionMask(2, 1))
    row = np.flatnonzero(m[6]) + 1
    assert row.tolist() == [5, 6, 7, 8]


def test_mask_unlimited_all_true():
    m = ops.build_mask(5, AttentionMask(None, None))
    assert m.all()


def test_mask_zero_window_is_identity():
    m = ops.build_mask(6, AttentionMask(0, 0))
    np.testing.assert_array_equal(m, np.eye(6, dtype=bool))


def test_mask_diagonal_always_true():
    for left, right in [(0, 0), (3, 0), (0, 2), (None, 1), (4, None)]:
        m = ops.build_mask(9, AttentionMask(left, right))
        assert m.diagonal().all()


def test_mask_rejects_negative():
    with pytest.raises(ValueError):
        AttentionMask(-1, 0)


@pytest.mark.parametrize("side", [True, False])
def test_mask_rejects_bool(side):
    # a bool is an int to isinstance, and True would act as a window of 1
    with pytest.raises(ValueError, match="mask left"):
        AttentionMask(side, 0)
    with pytest.raises(ValueError, match="mask right"):
        AttentionMask(0, side)


# ------------------------------------------- composed reference attention
#
# The per-head graph of scalar-sized ops that the attention node fuses into
# one node. It is slow but built only from primitives with their own tests,
# so it serves as the reference for the fused values and gradients, both of
# ttkit's node and of the dense reference node `ops.multi_head_attention`.

def attention_scores(q, k, rel_emb, content_bias, pos_bias, q_positions, k_positions, max_offset):
    """Single-head attention scores over explicit absolute positions.

    score(i, j) = [(q_i + content_bias) . k_j + (q_i + pos_bias) . r_{o(i,j)}]
                  / sqrt(head_dim), with o(i, j) the offset i - j clipped to
    [-max_offset, max_offset].
    """
    head_dim = q.shape[-1]
    offsets = np.asarray(q_positions)[:, None] - np.asarray(k_positions)[None, :]
    idx = np.clip(offsets, -max_offset, max_offset) + max_offset
    content = ops.matmul(ops.add(q, content_bias), ops.transpose(k))
    pos_all = ops.matmul(ops.add(q, pos_bias), ops.transpose(rel_emb))
    pos = ops.gather_cols(pos_all, idx)
    return ops.mul(ops.add(content, pos), Tensor(1.0 / math.sqrt(head_dim)))


def composed_multi_head_attention(h, layer, params, config, positions, mask_bool, counters):
    dh = config.head_dim
    q_all = ops.matmul(h, layer.wq)
    k_all = ops.matmul(h, layer.wk)
    v_all = ops.matmul(h, layer.wv)
    heads = []
    for i in range(config.num_heads):
        cols = (slice(None), slice(i * dh, (i + 1) * dh))
        scores = attention_scores(
            ops.getitem(q_all, cols), ops.getitem(k_all, cols),
            ops.getitem(params.rel_emb, i), ops.getitem(params.content_bias, i),
            ops.getitem(params.pos_bias, i), positions, positions, config.rel_offset,
        )
        if counters is not None:
            counters.attention_scores += scores.size
        if mask_bool is not None:
            scores = ops.apply_mask(scores, mask_bool)
        weights = ops.softmax(scores, axis=-1)
        heads.append(ops.matmul(weights, ops.getitem(v_all, cols)))
    return ops.matmul(ops.concat(heads, axis=1), layer.wo)


# ------------------------------------------------------- attention scores

def _head_inputs(rng, L=6, dh=4, max_off=3):
    q = Tensor(rng.substream("q").normal((L, dh)))
    k = Tensor(rng.substream("k").normal((L, dh)))
    rel = Tensor(rng.substream("rel").normal((2 * max_off + 1, dh), sigma=0.1))
    u = Tensor(rng.substream("u").normal((dh,), sigma=0.1))
    v = Tensor(rng.substream("v").normal((dh,), sigma=0.1))
    return q, k, rel, u, v


def test_scores_zero_position_params_reduce_to_dot_product():
    rng = Rng(0)
    q, k, rel, u, v = _head_inputs(rng)
    L, dh = q.shape
    pos = np.arange(L)
    scores = attention_scores(q, k, tt.zeros(rel.shape), tt.zeros(4), tt.zeros(4), pos, pos, 3)
    expected = (q.values @ k.values.T) / math.sqrt(dh)
    np.testing.assert_allclose(scores.values, expected, atol=1e-12)


def test_scores_shift_invariant():
    rng = Rng(1)
    q, k, rel, u, v = _head_inputs(rng)
    pos = np.arange(6)
    s0 = attention_scores(q, k, rel, u, v, pos, pos, 3)
    s1 = attention_scores(q, k, rel, u, v, pos + 17, pos + 17, 3)
    np.testing.assert_array_equal(s0.values, s1.values)


def test_scores_clip_beyond_max_offset():
    rng = Rng(2)
    q, k, rel, u, v = _head_inputs(rng, L=1, max_off=2)
    # a single query against single keys at offsets max and max+1
    for sign in (+1, -1):
        near = attention_scores(q, k, rel, u, v, np.array([0]), np.array([-sign * 2]), 2)
        far = attention_scores(q, k, rel, u, v, np.array([0]), np.array([-sign * 3]), 2)
        np.testing.assert_array_equal(near.values, far.values)


# ------------------------------------------------- fused attention node

@settings(max_examples=60, deadline=None)
@given(
    tk=st.integers(1, 9),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 4),
    model_dim=st.integers(1, 5),
    max_offset=st.integers(0, 4),
    window=st.one_of(st.none(), st.tuples(st.integers(0, 4), st.integers(0, 4))),
    shift=st.integers(-5, 5),
    seed=st.integers(0, 2**16),
)
def test_fused_attention_matches_composed(tk, heads, head_dim, model_dim, max_offset,
                                          window, shift, seed):
    cfg = EncoderConfig(num_layers=1, model_dim=model_dim, ff_dim1=2, ff_dim2=model_dim,
                        num_heads=heads, head_dim=head_dim, dropout_ratio=0.0,
                        mask=AttentionMask(None, None), input_dim=model_dim,
                        max_relative_offset=max_offset)
    rng = Rng(seed)
    params = init_encoder_params(cfg, rng.substream("params"))
    for name, p in params.named("p"):
        p.values[...] = rng.substream(name).normal(p.shape)
    layer = params.layers[0]
    # self-attention: one tensor provides queries, keys and values; the
    # composed reference sees shifted positions, which only offsets may enter
    queries = Tensor(rng.substream("h").normal((tk, model_dim)))
    positions = np.arange(tk) + shift
    window_mask = AttentionMask(None, None) if window is None else AttentionMask(*window)
    mask = None if window is None else ops.build_mask(tk, window_mask)
    upstream = Tensor(rng.substream("g").normal((queries.shape[0], model_dim)))
    parents = [queries, layer.wq, layer.wk, layer.wv, layer.wo,
               params.rel_emb, params.content_bias, params.pos_bias]

    results = []
    for fn in (lambda c: ops.attention_node(queries, layer, params, cfg, att.band(tk, window_mask), c),
               lambda c: ops.multi_head_attention(queries, layer, params, cfg, mask, c),
               lambda c: composed_multi_head_attention(queries, layer, params, cfg, positions, mask, c)):
        for p in parents:
            p.grad = None
        counters = att.Counters()
        out = fn(counters)
        backward(ops.tsum(ops.mul(out, upstream)))
        results.append((out.values, [p.grad.copy() for p in parents], counters.attention_scores))

    ref, ref_grads, ref_count = results.pop()
    for fused, fused_grads, fused_count in results:
        assert fused_count == ref_count == heads * queries.shape[0] * tk
        assert np.max(np.abs(fused - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))  # relative to scale
        for i, (a, b) in enumerate(zip(fused_grads, ref_grads)):
            assert np.max(np.abs(a - b)) <= 1e-10, f"parent {i}"


# ------------------------------------------------ banded attention node

def _attention_case(cfg, lengths, seed, batched=True):
    """Random parameters at unit scale, a padded batch of rows (or, not
    `batched`, the lengths[0] rows of one sequence) and an upstream gradient
    that is zero on padded rows."""
    rng = Rng(seed)
    params = init_encoder_params(cfg, rng.substream("params"))
    for name, p in params.named("p"):
        p.values[...] = rng.substream(name).normal(p.shape)
    shape = (len(lengths), max(lengths), cfg.model_dim) if batched else (lengths[0], cfg.model_dim)
    valid = np.arange(max(lengths)) < np.asarray(lengths)[:, None]
    valid = valid if batched else valid[0]
    h = Tensor(rng.substream("h").normal(shape))
    upstream = Tensor(rng.substream("g").normal(shape) * valid[..., None])
    layer = params.layers[0]
    parents = [h, layer.wq, layer.wk, layer.wv, layer.wo,
               params.rel_emb, params.content_bias, params.pos_bias]
    return params, h, upstream, valid, parents


def _banded(h, params, cfg, lengths, counters=None):
    band = att.band(h.shape[-2], cfg.mask, lengths)
    return ops.attention_node(h, params.layers[0], params, cfg, band, counters, lengths)


@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 70), min_size=1, max_size=4),
    batched=st.booleans(),
    left=st.one_of(st.none(), st.integers(0, 12)),
    right=st.one_of(st.none(), st.integers(0, 4)),
    offset_change=st.integers(-4, 4),
    heads=st.integers(1, 3),
    head_dim=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@example(lengths=[1], batched=True, left=0, right=0, offset_change=0, heads=1, head_dim=1, seed=0)
@example(lengths=[70, 1, 33, 69], batched=True, left=12, right=4, offset_change=-4, heads=3, head_dim=4,
         seed=1)
@example(lengths=[64], batched=False, left=10, right=2, offset_change=0, heads=2, head_dim=3, seed=2)
@example(lengths=[47, 9], batched=True, left=None, right=0, offset_change=3, heads=2, head_dim=2, seed=3)
@example(lengths=[55], batched=False, left=10, right=2, offset_change=1, heads=1, head_dim=4, seed=4)
def test_banded_attention_matches_dense(lengths, batched, left, right, offset_change, heads, head_dim,
                                        seed):
    """On a ragged padded batch or one unpadded sequence, the attention node
    gives the dense reference node's outputs, parent gradients and score
    count: bit for bit in one block, within rounding in blocks past the
    crossover. Padded rows stay finite and get no input gradient."""
    mask = AttentionMask(left, right)
    cfg = EncoderConfig(num_layers=1, model_dim=5, ff_dim1=2, ff_dim2=5, num_heads=heads,
                        head_dim=head_dim, dropout_ratio=0.0, mask=mask, input_dim=5,
                        max_relative_offset=max(0, (left or 0) + (right or 0) + offset_change))
    lengths = lengths if batched else lengths[:1]
    node_lengths = lengths if batched else None
    params, h, upstream, valid, parents = _attention_case(cfg, lengths, seed, batched)
    t = h.shape[-2]
    blocks = att.band(t, mask, node_lengths)
    assert (blocks.n_blocks > 1) == (mask.is_finite and t >= 2 * (left + right) + att.BANDED_MIN_EXTRA_ROWS)
    dense_mask = ops.build_mask(t, mask)
    dense_mask = ops.batch_mask(dense_mask, lengths) if batched else dense_mask
    results = []
    for fn in (lambda c: ops.attention_node(h, params.layers[0], params, cfg, blocks, c, node_lengths),
               lambda c: ops.multi_head_attention(h, params.layers[0], params, cfg, dense_mask, c,
                                                  node_lengths)):
        for p in parents:
            p.grad = None
        counters = att.Counters()
        out = fn(counters)
        backward(ops.tsum(ops.mul(out, upstream)))
        results.append((out.values, [p.grad.copy() for p in parents], counters.attention_scores))

    (banded, banded_grads, banded_count), (dense, dense_grads, dense_count) = results
    assert banded_count == dense_count == heads * sum(n * n for n in lengths)
    assert np.isfinite(banded).all()
    if blocks.n_blocks == 1:
        assert np.array_equal(banded, dense)
        for i, (a, b) in enumerate(zip(banded_grads, dense_grads)):
            assert np.array_equal(a, b), f"parent {i}"
    else:
        assert np.max(np.abs(banded - dense)) <= 1e-12 * max(1.0, np.max(np.abs(dense)))  # relative to scale
        for i, (a, b) in enumerate(zip(banded_grads, dense_grads)):
            assert np.max(np.abs(a - b)) <= 1e-10, f"parent {i}"
    assert (banded_grads[0][~valid] == 0).all()


def test_banded_attention_gradient_check():
    # three blocks of four rows, the last one part padding, and a padded example
    cfg = small_config(num_layers=1, left=3, right=1, model_dim=4, num_heads=2)
    lengths = [9, 4]
    params, h, upstream, _, parents = _attention_case(cfg, lengths, 5)

    def loss():
        return ops.tsum(ops.mul(_banded(h, params, cfg, lengths), upstream)).item()

    backward(ops.tsum(ops.mul(_banded(h, params, cfg, lengths), upstream)))
    for i, p in enumerate(parents):
        num = finite_difference_gradient(loss, p)
        assert max_gradient_error(p.grad, num) < 1e-4, f"parent {i}"


@settings(max_examples=40, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 7), min_size=1, max_size=4),
    window=st.one_of(st.none(), st.tuples(st.integers(0, 3), st.integers(0, 2))),
    layers=st.integers(1, 2),
    dropout=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
@example(lengths=[40, 1, 23], window=(2, 1), layers=2, dropout=0.3, seed=0)
@example(lengths=[36, 36], window=(2, 0), layers=1, dropout=0.0, seed=1)
def test_batched_encode_matches_each_example(lengths, window, layers, dropout, seed):
    """A padded batch through the stack gives each example's own rows, loss
    gradients and attention-score count, within rounding; padding gets no
    gradient. Past the crossover the batch runs in blocks, and each example
    is still encoded in one."""
    mask = AttentionMask(None, None) if window is None else AttentionMask(*window)
    cfg = small_config(num_layers=layers, mask=mask, dropout_ratio=dropout, max_relative_offset=3)
    rng = Rng(seed)
    params = init_encoder_params(cfg, rng.substream("params"))
    xs = [rng.substream(f"x{b}").normal((n, cfg.input_dim)) for b, n in enumerate(lengths)]
    gs = [rng.substream(f"g{b}").normal((n, cfg.model_dim)) for b, n in enumerate(lengths)]
    rngs = [rng.substream(f"drop{b}") for b in range(len(lengths))]
    padded = np.zeros((len(lengths), max(lengths), cfg.input_dim))
    upstream = np.zeros((len(lengths), max(lengths), cfg.model_dim))
    for b, n in enumerate(lengths):
        padded[b, :n], upstream[b, :n] = xs[b], gs[b]

    def grads():
        out = [p.grad.copy() if p.grad is not None else np.zeros(p.shape) for _, p in params.named()]
        for _, p in params.named():
            p.grad = None
        return out

    counters = att.Counters()
    x = Tensor(padded)
    with mock.patch.object(att, "band", wraps=att.band) as spy:
        batch = att.encode(x, cfg, params, tt.BatchRng(rngs, lengths), counters, lengths)
    (blocks,) = [att.band(*c.args, **c.kwargs) for c in spy.call_args_list]
    assert (blocks.n_blocks > 1) == (mask.is_finite and max(lengths) >= 2 * sum(window)
                                     + att.BANDED_MIN_EXTRA_ROWS)
    backward(ops.tsum(ops.mul(batch, Tensor(upstream))))
    batch_grads, x_grad = grads(), x.grad
    ref_count, ref_grads = 0, None
    for b, n in enumerate(lengths):
        ref_counters, xb = att.Counters(), Tensor(xs[b])
        with mock.patch.object(att, "BANDED_MIN_EXTRA_ROWS", math.inf):
            out = att.encode(xb, cfg, params, rngs[b], ref_counters)
        backward(ops.tsum(ops.mul(out, Tensor(gs[b]))))
        ref_count += ref_counters.attention_scores
        assert np.max(np.abs(batch.values[b, :n] - out.values)) <= 1e-12
        assert np.max(np.abs(x_grad[b, :n] - xb.grad)) <= 1e-10
        assert (x_grad[b, n:] == 0).all()
    ref_grads = grads()  # accumulated over the examples
    assert counters.attention_scores == ref_count
    for a, r in zip(batch_grads, ref_grads):
        assert np.max(np.abs(a - r)) <= 1e-10


# ----------------------------------------------------------- encoder layer

@settings(max_examples=60, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    batched=st.booleans(),
    window=st.sampled_from([(2, 1), (3, 0), (1, 2), None]),
    banded=st.booleans(),
    dropout=st.sampled_from([0.0, 0.3]),
    seed=st.integers(0, 2**16),
)
@example(lengths=[12, 1, 7], batched=True, window=(2, 1), banded=True, dropout=0.3, seed=0)
@example(lengths=[9], batched=False, window=(3, 0), banded=True, dropout=0.3, seed=1)
def test_encoder_layer_equals_the_composed_layer(lengths, batched, window, banded, dropout, seed):
    """A layer of two residual nodes gives the five-node layer of
    `reference_ops` bit for bit: its values, the attention-score count, and
    the gradients of its input and of every parameter. Drawn over padded
    batches and single sequences, with dropout on and off, in one block or
    in several (the crossover moved to 0 rows)."""
    mask = AttentionMask(None, None) if window is None else AttentionMask(*window)
    cfg = small_config(num_layers=1, mask=mask, dropout_ratio=dropout, max_relative_offset=3)
    lengths = lengths if batched else lengths[:1]
    node_lengths = lengths if batched else None
    rng = Rng(seed)
    params = init_encoder_params(cfg, rng.substream("params"))
    for name, p in params.named("p"):
        p.values[...] = rng.substream(name).normal(p.shape)
    shape = (len(lengths), max(lengths), cfg.model_dim) if batched else (lengths[0], cfg.model_dim)
    x_values = rng.substream("x").normal(shape)
    upstream = Tensor(rng.substream("g").normal(shape))
    with mock.patch.object(att, "BANDED_MIN_EXTRA_ROWS", 0 if banded else math.inf):
        blocks = att.band(shape[-2], mask, node_lengths)

    def drop_rng():
        drops = [rng.substream(f"drop{b}") for b in range(len(lengths))]
        return tt.BatchRng(drops, lengths) if batched else drops[0]

    results = []
    for layer_fn in (att.encoder_layer, ops.encoder_layer):
        for _, p in params.named():
            p.grad = None
        x, counters = Tensor(x_values), att.Counters()
        out = layer_fn(x, blocks, params.layers[0], params, cfg, drop_rng(), counters, node_lengths)
        backward(ops.tsum(ops.mul(out, upstream)))
        grads = [None if p.grad is None else p.grad.tobytes() for _, p in params.named()]
        results.append((out.values.tobytes(), counters.attention_scores, x.grad.tobytes(), grads))
    assert results[0] == results[1]


def test_zero_parameter_layer_is_identity():
    cfg = small_config(num_layers=1)
    params = zero_params(init_encoder_params(cfg, Rng(3)))
    x = Tensor(Rng(4).normal((7, cfg.model_dim)))
    mask = att.band(7, cfg.mask)
    out = att.encoder_layer(x, mask, params.layers[0], params, cfg)
    np.testing.assert_array_equal(out.values, x.values)


def test_single_position_layer():
    cfg = small_config(num_layers=1)
    params = init_encoder_params(cfg, Rng(5))
    x = Tensor(Rng(6).normal((1, cfg.model_dim)))
    out = att.encoder_layer(x, att.band(1, cfg.mask), params.layers[0], params, cfg)
    assert out.shape == (1, cfg.model_dim)
    assert np.all(np.isfinite(out.values))


def test_layer_rejects_wrong_dims():
    cfg = small_config(num_layers=1)
    params = init_encoder_params(cfg, Rng(5))
    bad = Tensor(Rng(6).normal((4, cfg.model_dim + 1)))
    with pytest.raises(tt.ShapeError):
        att.encoder_layer(bad, att.band(4, cfg.mask), params.layers[0], params, cfg)


def test_layer_gradient_check():
    cfg = small_config(num_layers=1, model_dim=4)
    cfg.ff_dim1 = 5
    cfg.ff_dim2 = 4
    cfg.num_heads = 2
    cfg.head_dim = 2
    params = init_encoder_params(cfg, Rng(7))
    x = Tensor(Rng(8).normal((4, cfg.model_dim)))
    mask = att.band(4, cfg.mask)

    def loss():
        return ops.tsum(att.encoder_layer(x, mask, params.layers[0], params, cfg)).item()

    out = ops.tsum(att.encoder_layer(x, mask, params.layers[0], params, cfg))
    backward(out)
    for name, p in params.named("enc"):
        if p.grad is None:
            continue
        num = finite_difference_gradient(loss, p)
        assert max_gradient_error(p.grad, num) < 1e-4, name


def _graph_ops(root):
    """Non-leaf tensors reachable from `root`."""
    seen, stack, ops = {id(root)}, [root], 0
    while stack:
        node = stack.pop()
        ops += node.backward_fn is not None
        for p in node.parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return ops


@pytest.mark.parametrize("training", [False, True])
def test_encoder_layer_graph_size_is_independent_of_length_and_heads(training):
    # two residual nodes, each with its layer norm and dropout: one around
    # all heads of attention, one around both dense layers and the relu
    expected = 2
    for num_heads in (1, 2, 3):
        for seq_len in (1, 4, 9):
            cfg = small_config(num_layers=1, num_heads=num_heads, dropout_ratio=0.1)
            params = init_encoder_params(cfg, Rng(num_heads))
            x = Tensor(Rng(seq_len).normal((seq_len, cfg.model_dim)))
            out = att.encoder_layer(x, att.band(seq_len, cfg.mask), params.layers[0], params, cfg,
                                    Rng(0) if training else None)
            assert _graph_ops(out) == expected, (num_heads, seq_len)


# ----------------------------------------------------------------- stack

def test_zero_layers_is_input_projection():
    cfg = small_config(num_layers=0)
    params = init_encoder_params(cfg, Rng(9))
    x = Tensor(Rng(10).normal((5, cfg.input_dim)))
    out = att.encode(x, cfg, params)
    expected = x.values @ params.input_w.values + params.input_b.values
    np.testing.assert_array_equal(out.values, expected)


def test_zero_parameter_stack_is_identity_on_projection():
    cfg = small_config(num_layers=3, final_layer_norm=False)
    params = zero_params(init_encoder_params(cfg, Rng(11)))
    x = Tensor(Rng(12).normal((6, cfg.input_dim)))
    out = att.encode(x, cfg, params)
    expected = x.values @ params.input_w.values + params.input_b.values
    np.testing.assert_array_equal(out.values, expected)


def test_causal_mask_ignores_future_bitwise():
    cfg = small_config(num_layers=2, left=3, right=0)
    params = init_encoder_params(cfg, Rng(13))
    rng = Rng(14)
    x = rng.normal((9, cfg.input_dim))
    base = att.encode(Tensor(x), cfg, params).values
    for trial in range(20):
        t = rng.integers(0, 8)
        perturbed = x.copy()
        perturbed[t + 1:] += rng.normal(perturbed[t + 1:].shape)
        out = att.encode(Tensor(perturbed), cfg, params).values
        assert out[: t + 1].tobytes() == base[: t + 1].tobytes()


def test_receptive_field_perturbation():
    # 3 layers, left=2, right=1: position 7 (1-based) reaches exactly 1..10
    cfg = small_config(num_layers=3, left=2, right=1)
    params = init_encoder_params(cfg, Rng(15))
    rng = Rng(16)
    x = rng.normal((12, cfg.input_dim))
    base = att.encode(Tensor(x), cfg, params).values
    pos = 6  # 0-based index of 1-based position 7

    inside = x.copy()
    inside[9] += 1.0  # 1-based position 10
    assert not np.allclose(att.encode(Tensor(inside), cfg, params).values[pos], base[pos])

    outside = x.copy()
    outside[10] += 1.0  # 1-based position 11
    np.testing.assert_array_equal(att.encode(Tensor(outside), cfg, params).values[pos], base[pos])
    below = x.copy()
    below[0] += 1.0  # 1-based position 1 = 7 - 3*2, inside on the left
    assert not np.allclose(att.encode(Tensor(below), cfg, params).values[pos], base[pos])


def test_translation_invariance():
    cfg = small_config(num_layers=2, left=2, right=1, final_layer_norm=True)
    params = init_encoder_params(cfg, Rng(17))
    rng = Rng(18)
    content = rng.normal((11, cfg.input_dim))
    pad_a = rng.normal((3, cfg.input_dim))
    pad_b = rng.normal((7, cfg.input_dim))
    xa = np.concatenate([pad_a, content, pad_a[:2]])
    xb = np.concatenate([pad_b, content, pad_b[:4]])
    out_a = att.encode(Tensor(xa), cfg, params).values
    out_b = att.encode(Tensor(xb), cfg, params).values
    # interior positions whose receptive field [p-4, p+2] lies inside content
    for local in range(4, 9):
        np.testing.assert_allclose(out_a[3 + local], out_b[7 + local], atol=1e-12)


def test_stack_gradient_check():
    cfg = small_config(num_layers=2, model_dim=4, input_dim=3)
    cfg.ff_dim1 = 5
    cfg.ff_dim2 = 4
    cfg.num_heads = 2
    cfg.head_dim = 2
    params = init_encoder_params(cfg, Rng(19))
    x = Tensor(Rng(20).normal((5, cfg.input_dim)))

    def loss():
        return ops.tsum(att.encode(x, cfg, params)).item()

    backward(ops.tsum(att.encode(x, cfg, params)))
    for name, p in params.named("enc"):
        num = finite_difference_gradient(loss, p)
        if p.grad is None:
            assert np.all(np.abs(num) < 1e-8), name
            continue
        assert max_gradient_error(p.grad, num) < 1e-4, name


def test_encoder_layer_step_matches_batch():
    cfg = small_config(num_layers=1, left=2, right=1)
    params = init_encoder_params(cfg, Rng(21))
    x = Rng(22).normal((8, cfg.model_dim))
    mask = att.band(8, cfg.mask)
    batch = att.encoder_layer(Tensor(x), mask, params.layers[0], params, cfg).values
    for q in range(8):
        lo, hi = max(0, q - 2), min(7, q + 1)
        weights = att.qkv_weights(params.layers[0])
        window = np.stack([att.qkv_row(row, params.layers[0], weights, cfg) for row in x[lo:hi + 1]], axis=1)
        out = att.encoder_layer_step(x[q], window, q - lo, params.layers[0], params, cfg)
        np.testing.assert_allclose(out, batch[q], atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(
    left=st.one_of(st.none(), st.integers(0, 3)),
    right=st.integers(0, 2),
    layers=st.integers(1, 3),
    seq_len=st.integers(1, 9),
    heads=st.integers(1, 3),
    max_offset=st.integers(0, 4),
    seed=st.integers(0, 2**16),
)
def test_cached_step_matches_batch_layer_property(left, right, layers, seq_len, heads, max_offset,
                                                  seed):
    """At every layer and position, the graph-free step over cached
    `qkv_row`s gives the batch layer's row, up to the rounding of
    one-row against window products."""
    cfg = small_config(num_layers=layers, left=left, right=right, num_heads=heads,
                       max_relative_offset=max_offset)
    rng = Rng(seed)
    params = init_encoder_params(cfg, rng.substream("params"))
    for name, p in params.named("p"):
        p.values[...] = rng.substream(name).normal(p.shape)
    x = rng.substream("x").normal((seq_len, cfg.model_dim))
    mask = att.band(seq_len, cfg.mask)
    for layer in params.layers:
        batch = att.encoder_layer(Tensor(x), mask, layer, params, cfg).values
        weights = att.qkv_weights(layer)
        cached = np.stack([att.qkv_row(row, layer, weights, cfg) for row in x], axis=1)
        for q in range(seq_len):
            lo = 0 if left is None else max(0, q - left)
            window = cached[:, lo:min(seq_len, q + right + 1)]
            out = att.encoder_layer_step(x[q], window, q - lo, layer, params, cfg)
            assert np.max(np.abs(out - batch[q])) <= 1e-12 * max(1.0, np.max(np.abs(batch[q])))
        x = batch


# --------------------------------------------------------- receptive field

def test_receptive_field_three_layer_lookahead():
    rf = receptive_field(3, AttentionMask(2, 1), 30.0)
    assert rf.future_frames == 3
    assert rf.past_frames == 6
    assert rf.future_latency_ms == 90.0


def test_receptive_field_matches_latency_arithmetic():
    assert receptive_field(18, AttentionMask(512, 2), 30.0).future_latency_ms == 1080.0
    assert receptive_field(18, AttentionMask(512, 6), 30.0).future_latency_ms == 3240.0


def test_receptive_field_zero_right():
    rf = receptive_field(18, AttentionMask(10, 0), 30.0)
    assert rf.future_latency_ms == 0.0


def test_receptive_field_zero_layers_sees_only_the_current_row():
    rf = receptive_field(0, AttentionMask(None, None), 30.0)
    assert (rf.past_frames, rf.future_frames, rf.future_latency_ms) == (0, 0, 0.0)
    assert math.isfinite(rf.past_frames) and math.isfinite(rf.future_frames)


def test_receptive_field_unbounded():
    rf = receptive_field(4, AttentionMask(None, 2), 30.0)
    assert rf.past_frames == math.inf and math.isfinite(rf.future_frames)
