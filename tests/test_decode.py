import dataclasses
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_beam
import reference_stream
import ttkit.attention as att
import ttkit.tensor as tt
from ttkit import decode as dec
from ttkit import transducer as tr
from ttkit.attention import AttentionMask, EncoderConfig
from ttkit.decode import (BigramLm, DecodeOptions, FusionConfig, StreamError, StreamState, beam_decode,
                          greedy_decode)
from ttkit.frontend import FrontendConfig, stack_subsample
from ttkit.model import ModelConfig, desk_config, init_model
from ttkit.tensor import Rng


def small_model(audio_mask=AttentionMask(4, 1), label_left=4, seed=0, vocab_size=4,
                blank_bias=0.0, num_audio_layers=2, frontend=None, num_label_layers=1):
    cfg = desk_config(vocab_size=vocab_size, feature_dim=6, audio_mask=audio_mask,
                      label_left=label_left, dropout=0.0, model_dim=8,
                      num_audio_layers=num_audio_layers, frontend=frontend,
                      num_label_layers=num_label_layers)
    model = init_model(cfg, Rng(seed))
    model.params.joint.out_b.values[0] += blank_bias
    return model


def blank_forcing_model(**kw):
    return small_model(blank_bias=10.0, **kw)


def trivial_encoder_config(mask):
    return EncoderConfig(num_layers=0, model_dim=2, ff_dim1=2, ff_dim2=2, num_heads=1,
                         head_dim=2, dropout_ratio=0.0, mask=mask, input_dim=2,
                         max_relative_offset=1)


def handcrafted_model():
    """Vocab {blank, a}; emits `a` exactly once, at the frame whose first
    feature channel is positive and before `a` enters the history."""
    cfg = ModelConfig(
        vocab_size=2, feature_dim=2, joint_dim=2,
        audio=trivial_encoder_config(AttentionMask(2, 0)),
        label=trivial_encoder_config(AttentionMask(2, 0)),
        frontend=FrontendConfig(),
    )
    model = init_model(cfg, Rng(0))
    for _, p in model.params.named():
        p.values[...] = 0.0
    model.params.audio.input_w.values[0, 0] = 1.0
    model.params.label.input_w.values[...] = np.eye(2)
    model.params.label_embedding.values[...] = [[1.0, 0.0], [-1.0, 0.0]]
    model.params.joint.audio_w.values[...] = np.eye(2)
    model.params.joint.label_w.values[...] = np.eye(2)
    model.params.joint.out_w.values[...] = [[0.0, 3.0], [0.0, 0.0]]
    return model


def stream_decode(model, feats, **kw):
    st = StreamState(model, **kw)
    out = []
    for t in range(feats.shape[0]):
        out += st.step(feats[t])
    out += st.flush()
    return out, st


def incremental_gap(model, feats) -> float:
    """The largest gap between batch `encode` and the rows of the
    incremental encoder a `StreamState` drives, fed the same prepared rows."""
    stacked = model.prepare_features(feats)
    enc = dec.IncrementalEncoder(model.config.audio, model.params.audio)
    rows = [r for row in stacked for r in enc.push(row)] + enc.finish()
    with tt.no_grad():
        batch = model.encode_audio(stacked).values
    return np.abs(np.stack(rows) - batch).max()


def greedy_path_score(model, feats, labels):
    """Score of greedy's alignment: every emission plus the blank closing
    each frame, replayed against the same joint distributions. Requires the
    per-frame cap never to bind, so the trace is a complete alignment."""
    with tt.no_grad():
        enc = model.encode_audio(model.prepare_features(feats)).values
    state = dec.LabelState(model)
    remaining = list(labels)
    score = 0.0
    for t in range(enc.shape[0]):
        per_frame = 0
        while True:
            lp = model.joint_from_projections(model.project_audio(enc[t]), state.proj)
            best = int(np.argmax(lp))
            if best == tr.BLANK_ID:
                score += lp[tr.BLANK_ID]
                break
            per_frame += 1
            assert per_frame < 10, "cap bound; pick a blank-leaning model for this check"
            assert remaining and remaining[0] == best
            remaining.pop(0)
            score += lp[best]
            state = state.advance(best)
    assert not remaining
    return score


# ---------------------------------------------------------------- greedy

def test_greedy_blank_forcing_model_emits_nothing():
    model = blank_forcing_model()
    feats = Rng(1).normal((12, 6))
    assert greedy_decode(model, feats) == []


def test_greedy_handcrafted_single_emission():
    model = handcrafted_model()
    feats = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert greedy_decode(model, feats) == [1]


def test_greedy_prefix_invariant_to_future_for_causal_mask():
    model = small_model(audio_mask=AttentionMask(6, 0), seed=3)
    feats = Rng(4).normal((14, 6))
    _, st_a = stream_decode(model, feats)
    perturbed = feats.copy()
    perturbed[9:] += 2.0

    st_b = StreamState(model)
    out_b_prefix = []
    for t in range(9):
        out_b_prefix += st_b.step(perturbed[t])

    st_c = StreamState(model)
    out_a_prefix = []
    for t in range(9):
        out_a_prefix += st_c.step(feats[t])
    assert out_a_prefix == out_b_prefix


def test_greedy_respects_emission_cap():
    model = small_model(seed=0, blank_bias=-20.0)  # never wants to emit blank
    feats = Rng(5).normal((4, 6))
    out = greedy_decode(model, feats, max_symbols_per_frame=3)
    assert len(out) == 12


# ------------------------------------------------------------------ beam

def test_beam_width_one_equals_greedy():
    for seed in range(6):
        model = small_model(seed=seed, blank_bias=1.5)
        feats = Rng(100 + seed).normal((9, 6))
        greedy = greedy_decode(model, feats)
        beam = beam_decode(model, feats, beam_width=1)
        assert beam[0].labels == tuple(greedy), seed


def test_zero_frames_decode_to_nothing():
    """No frames: greedy and stream emit nothing, and beam keeps only the
    empty hypothesis at score 0."""
    model = small_model(blank_bias=-10.0)
    features = np.zeros((0, model.config.feature_dim))
    assert dec.greedy_decode(model, features) == []
    beam = dec.beam_decode(model, features, 4)
    assert [(h.labels, h.score) for h in beam] == [((), 0.0)]
    assert StreamState(model).flush() == []


def test_beam_rejects_zero_width():
    with pytest.raises(ValueError):
        beam_decode(small_model(), Rng(0).normal((3, 6)), beam_width=0)


@pytest.mark.parametrize("cap", [0, -1])
def test_decoders_reject_symbol_cap_below_one(cap):
    model, feats = small_model(), Rng(0).normal((3, 6))
    with pytest.raises(ValueError, match="max_symbols_per_frame"):
        greedy_decode(model, feats, max_symbols_per_frame=cap)
    with pytest.raises(ValueError, match="max_symbols_per_frame"):
        beam_decode(model, feats, beam_width=2, max_symbols_per_frame=cap)
    with pytest.raises(ValueError, match="max_symbols_per_frame"):
        StreamState(model, max_symbols_per_frame=cap)


def test_beam_score_matches_exhaustive_marginal_oracle():
    # V=2: candidate outputs are a^k, so a modest width is exhaustive.
    for seed in (0, 1, 2, 4):
        model = small_model(seed=seed, vocab_size=2, blank_bias=2.5,
                            audio_mask=AttentionMask(4, 0), num_audio_layers=1)
        feats = Rng(200 + seed).normal((3, 6))
        stacked = model.prepare_features(feats)
        with tt.no_grad():
            audio = model.encode_audio(stacked)

        def marginal(k):
            with tt.no_grad():
                grid = tr.log_prob_grid(audio, model.encode_labels([1] * k), model.params.joint)
            return tr.brute_force_log_prob(grid, [1] * k)

        scores = {k: marginal(k) for k in range(0, 6)}
        best_k = max(scores, key=scores.get)
        assert best_k <= 2  # oracle max must be realizable under the cap
        beam = beam_decode(model, feats, beam_width=64, max_symbols_per_frame=3)
        assert beam[0].labels == (1,) * best_k
        assert beam[0].score == pytest.approx(scores[best_k], abs=1e-9)


def test_beam_monotone_vs_greedy():
    # seeds chosen so greedy emits without hitting the per-frame cap
    nonempty = 0
    for seed in (0, 3, 5, 7):
        model = small_model(seed=seed, blank_bias=1.0)
        model.params.joint.out_w.values *= 0.7
        feats = Rng(300 + seed).normal((8, 6))
        greedy = greedy_decode(model, feats)
        nonempty += bool(greedy)
        score = greedy_path_score(model, feats, greedy)
        for width in (2, 4):
            beam = beam_decode(model, feats, beam_width=width)
            assert beam[0].score >= score - 1e-12, (seed, width)
    assert nonempty >= 2  # the check must exercise real emissions


def test_beam_length_bonus_limit_hits_cap():
    model = small_model(vocab_size=2, blank_bias=5.0)
    feats = Rng(6).normal((4, 6))
    assert beam_decode(model, feats, beam_width=2)[0].labels == ()
    fused = beam_decode(model, feats, beam_width=2,
                        fusion=FusionConfig(length_bonus=1e6), max_symbols_per_frame=5)
    assert len(fused[0].labels) == 4 * 5


def test_merge_is_logaddexp():
    state = object()
    done = {}
    dec._merge(done, dec.Hypothesis((1, 2), -1.25, state))
    dec._merge(done, dec.Hypothesis((1, 2), -2.5, state))
    assert done[(1, 2)].score == pytest.approx(np.logaddexp(-1.25, -2.5), abs=1e-12)


def test_beam_nbest_ordering_deterministic():
    model = small_model(seed=9, blank_bias=1.0)
    feats = Rng(7).normal((7, 6))
    nbest = beam_decode(model, feats, beam_width=4)
    scores = [h.score for h in nbest]
    assert scores == sorted(scores, reverse=True)
    again = beam_decode(model, feats, beam_width=4)
    assert [h.labels for h in nbest] == [h.labels for h in again]


def use_unshared_states(monkeypatch):
    """Decode with clone-per-state label states: `reference_stream.LabelState`
    in place of `decode.LabelState`, its `advance` (a private clone of the
    parent's encoder and one push for every call, sharing nothing between
    hypotheses) in place of `advanced`."""
    monkeypatch.setattr(dec, "LabelState", reference_stream.LabelState)
    monkeypatch.setattr(reference_stream.LabelState, "advanced", reference_stream.LabelState.advance)


def unshared_state_after(model, history):
    state = reference_stream.LabelState(model)
    for label in history:
        state = state.advance(label)
    return state


def label_state_after(model, history):
    """A fresh state moved along the full history by `advance`, outside
    any memo."""
    state = dec.LabelState(model)
    for label in history:
        state = state.advance(label)
    return state


def walk(state, history):
    for label in history:
        state = state.advanced(label)
    return state


def assert_same_state(state, reference):
    assert state.vec.tobytes() == reference.vec.tobytes()
    assert state.proj.tobytes() == reference.proj.tobytes()


@settings(max_examples=40, deadline=None)
@given(label_layers=st.integers(0, 3), label_left=st.one_of(st.none(), st.integers(0, 4)),
       vocab=st.integers(2, 5), seed=st.integers(0, 2**16), data=st.data())
def test_shared_label_states_equal_full_history_states(label_layers, label_left, vocab, seed, data):
    model = small_model(label_left=label_left, num_label_layers=label_layers,
                        vocab_size=vocab, seed=seed)
    # a stack of no layers sees only the newest id, whatever its window
    span = None if label_left is None and label_layers else label_layers * (label_left or 0) + 1
    labels = st.integers(1, vocab - 1)
    # every prefix followed by every suffix: pairs that share a suffix but
    # differ earlier, histories shorter and longer than the span, and a tree
    # of shared prefixes under one root
    prefixes = data.draw(st.lists(st.lists(labels, max_size=5), min_size=2, max_size=3))
    suffixes = data.draw(st.lists(st.lists(labels, max_size=14), min_size=1, max_size=2))
    histories = [p + s for p in prefixes for s in suffixes]
    extra = data.draw(labels)

    root = dec.LabelState(model)
    by_context = {}
    for h in histories:
        state = walk(root, h)
        context = (tr.BLANK_ID, *h) if span is None else (tr.BLANK_ID, *h)[-span:]
        assert state.context == context
        assert by_context.setdefault(context, state) is state  # one state per context
        assert_same_state(state, label_state_after(model, h))

    # `advance` from a state reached through `advanced`, or from the root,
    # leaves that state and the memo as they were
    for state in [root, *(walk(root, h) for h in histories)]:
        memo = dict(root.memo)
        before = (state.context, state.vec.tobytes(), state.proj.tobytes())
        child = state.advance(extra)
        assert child.context == (state.context + (extra,))[state.keep]
        assert (state.context, state.vec.tobytes(), state.proj.tobytes()) == before
        assert root.memo == memo and all(root.memo[c] is s for c, s in memo.items())
    for h in histories:
        assert_same_state(walk(root, h).advance(extra), label_state_after(model, h + [extra]))


def state_bytes(state):
    return (state.context, [w.tobytes() for w in state.windows], state.vec.tobytes(), state.proj.tobytes())


@pytest.mark.parametrize("label_left", [None, 1])
def test_label_states_never_change_once_built(monkeypatch, label_left):
    """The root, its `advance` and `advanced` children and every state that
    greedy, stream and beam decoding build keep their context, windows, vec
    and proj bytes while decoding goes on from them; `advance` adds nothing
    to the memo."""
    model = small_model(label_left=label_left, num_label_layers=2, blank_bias=-1.0)
    feats = Rng(31).normal((16, 6))
    built = []
    init, child = dec.LabelState.__init__, dec.LabelState._child

    def recording_init(self, model):
        init(self, model)
        built.append((self, state_bytes(self)))

    def recording_child(self, label, step=None):
        state = child(self, label, step)
        built.append((state, state_bytes(state)))
        return state

    monkeypatch.setattr(dec.LabelState, "__init__", recording_init)
    monkeypatch.setattr(dec.LabelState, "_child", recording_child)
    root = dec.LabelState(model)
    shared = root.advanced(2)
    memo = dict(root.memo)
    unshared = root.advance(1)
    assert root.memo == memo
    rows = dec._batch_encode_audio(model, feats)
    for state in (root, unshared, shared):  # decode on from each
        labels, reached = dec._greedy_rows(model, rows, state, 10)
        assert len(labels) > len(rows)  # several states per row
        assert root.memo == memo and reached not in root.memo.values()
    dec.LabelState.advanced_all([(root, 1), (unshared, 2), (shared, 3), (shared, 1)])
    greedy_decode(model, feats)
    stream_decode(model, feats)
    beam_decode(model, feats, beam_width=4)
    roots = [state for state, _ in built if len(state.context) == 1]
    assert len(roots) == 4  # this test's, greedy's, stream's and beam's
    for state, snapshot in built:
        assert state_bytes(state) == snapshot


def test_beam_equals_unshared_beam(monkeypatch):
    lm = BigramLm.fit([[1, 2, 3], [3, 2, 1, 1], [2, 2], [1, 3, 3]], num_labels=3)
    fusions = [None, FusionConfig(lm_weight=0.5, lm=lm), FusionConfig(length_bonus=0.4),
               FusionConfig(lm_weight=0.3, length_bonus=0.2, lm=lm)]
    for i in range(16):
        model = small_model(seed=i, label_left=[None, 0, 1, 2, 3][i % 5],
                            num_label_layers=i % 4, blank_bias=0.5)
        feats = Rng(500 + i).normal((10, 6))
        width, fusion = 1 + (3 * i) % 8, fusions[i % 4]
        shared = beam_decode(model, feats, beam_width=width, fusion=fusion)
        with monkeypatch.context() as m:
            use_unshared_states(m)
            unshared = beam_decode(model, feats, beam_width=width, fusion=fusion)
        assert [(h.labels, h.score) for h in shared] == [(h.labels, h.score) for h in unshared], i
        for a, b in zip(shared, unshared):
            assert_same_state(a.state, b.state)


@settings(max_examples=60, deadline=None)
@given(label_layers=st.integers(0, 3), label_left=st.one_of(st.none(), st.integers(0, 4)),
       heads=st.integers(1, 3), head_dim=st.integers(1, 4), max_offset=st.integers(0, 5),
       seed=st.integers(0, 2**16), data=st.data())
def test_label_states_computed_together_equal_lone_states(label_layers, label_left, heads, head_dim,
                                                          max_offset, seed, data):
    """States computed together by `advanced_all` from 1-6 parents of mixed
    window lengths equal the same states advanced one at a time and the
    clone-per-state reference, bit for bit; each label layer runs one
    stacked step per window length among them."""
    cfg = desk_config(vocab_size=5, feature_dim=6, label_left=label_left, dropout=0.0, model_dim=8,
                      num_label_layers=label_layers, max_relative_offset=max_offset)
    cfg = dataclasses.replace(cfg, label=dataclasses.replace(cfg.label, num_heads=heads, head_dim=head_dim))
    model = init_model(cfg, Rng(0))
    randomized(model.params, seed)
    labels = st.integers(1, cfg.vocab_size - 1)
    histories = data.draw(st.lists(st.lists(labels, max_size=7), min_size=1, max_size=6))
    nexts = data.draw(st.lists(labels, min_size=len(histories), max_size=len(histories)))

    root = dec.LabelState(model)
    parents = [walk(root, h) for h in histories]
    root.memo.clear()  # so the call below computes every child
    before = model.counters.attention_scores
    with mock.patch.object(att, "encoder_layer_step", wraps=att.encoder_layer_step) as spy:
        together = dec.LabelState.advanced_all(list(zip(parents, nexts)))
    distinct = list({id(s): s for s in together}.values())
    if label_layers:
        assert spy.call_count == label_layers * len({s.windows[0].shape[1] for s in distinct})
        rows = sum(c.args[0].size // c.args[0].shape[-1] for c in spy.call_args_list)
        assert rows == label_layers * len(distinct)
        scores = label_layers * heads * sum(s.windows[0].shape[1] for s in distinct)
        assert model.counters.attention_scores - before == scores
    for state, h, v in zip(together, histories, nexts):
        assert_same_state(state, walk(dec.LabelState(model), h).advanced(v))
        assert_same_state(state, unshared_state_after(model, h + [v]))


def test_one_row_products_of_a_stack_equal_lone_products():
    """The build property stacked label steps rely on: each row of [K, 1, n]
    @ [n, m] equals the lone product [n] @ [n, m] bit for bit."""
    rng = Rng(21)
    for n, m in [(8, 16), (16, 8), (32, 32), (32, 64), (64, 32), (1, 5), (5, 1), (3, 7)]:
        for k in (1, 2, 3, 6):
            rows, w = rng.normal((k, 1, n)), rng.normal((n, m))
            stacked = rows @ w
            for i in range(k):
                assert stacked[i, 0].tobytes() == (rows[i, 0] @ w).tobytes(), (n, m, k, i)


def count_pushes(monkeypatch, model, pushes):
    """Append to `pushes` the number of label states each call of
    `model.project_label` finishes: one row per state, computed alone or in
    a stack, shared or unshared."""
    project_label = model.project_label

    def counting_project_label(vec):
        pushes.append(vec.size // vec.shape[-1])
        return project_label(vec)

    monkeypatch.setattr(model, "project_label", counting_project_label)


def test_beam_label_pushes_bounded_by_contexts(monkeypatch):
    # V=3, one label layer, label_left 1: the activation depends on the last
    # two ids, so the start state, (start, v) and (u, v) are all there are
    V = 3
    model = small_model(vocab_size=V, label_left=1, blank_bias=1.0)
    feats = Rng(12).normal((60, 6))
    pushes = []
    count_pushes(monkeypatch, model, pushes)
    shared = beam_decode(model, feats, beam_width=4)
    shared_pushes, pushes[:] = sum(pushes), []
    use_unshared_states(monkeypatch)
    unshared = beam_decode(model, feats, beam_width=4)
    assert [h.labels for h in shared] == [h.labels for h in unshared]
    assert shared_pushes <= 1 + (V - 1) + (V - 1) ** 2
    assert sum(pushes) > shared_pushes


def test_beam_label_pushes_without_label_layers(monkeypatch):
    # with no label layers the activation is the last id's embedding
    # projection whatever the label window, so V states cover every history
    V = 3
    feats = Rng(12).normal((60, 6))
    counts = []
    for label_left in (None, 0):
        model = small_model(vocab_size=V, label_left=label_left, num_label_layers=0, blank_bias=1.0)
        pushes = []
        count_pushes(monkeypatch, model, pushes)
        beam_decode(model, feats, beam_width=4)
        counts.append(sum(pushes))
    assert counts[0] == counts[1] <= V


def nbest_bits(beam):
    return [(h.labels, float(h.score).hex()) for h in beam]


@settings(max_examples=60, deadline=None)
@given(width=st.integers(1, 8), label_left=st.one_of(st.none(), st.integers(0, 3)),
       label_layers=st.integers(0, 3), cap=st.integers(1, 10), vocab=st.integers(2, 5),
       fusion=st.sampled_from(["off", "lm", "bonus", "penalty"]), seed=st.integers(0, 2**16),
       frames=st.integers(0, 25), data=st.data())
def test_beam_equals_reference_beam(width, label_left, label_layers, cap, vocab, fusion, seed,
                                    frames, data):
    """The n-best labels and score bits equal those of the reference, which
    builds and sorts every child, calls the joint per hypothesis and runs
    every round of every frame. Frames run long enough for the early exit
    to fire (fusion off, or a negative length bonus) and for it to be
    barred (an LM, or a positive length bonus)."""
    model = small_model(seed=seed, vocab_size=vocab, label_left=label_left,
                        num_label_layers=label_layers, blank_bias=data.draw(st.floats(-1.0, 2.0)))
    feats = Rng(seed + 1).normal((frames, 6))
    labels = st.integers(1, vocab - 1)
    config = None
    if fusion == "lm":
        lm = BigramLm.fit(data.draw(st.lists(st.lists(labels, max_size=6), max_size=4)), vocab - 1)
        config = FusionConfig(lm_weight=data.draw(st.floats(0.05, 1.0)), lm=lm)
    elif fusion == "bonus":
        config = FusionConfig(length_bonus=data.draw(st.floats(0.01, 2.0)))
    elif fusion == "penalty":
        config = FusionConfig(length_bonus=-data.draw(st.floats(0.01, 2.0)))
    got = beam_decode(model, feats, width, fusion=config, max_symbols_per_frame=cap)
    want = reference_beam.beam_decode(model, feats, width, fusion=config, max_symbols_per_frame=cap)
    assert nbest_bits(got) == nbest_bits(want)


def test_beam_early_exit_fires_and_keeps_the_nbest(monkeypatch):
    """Ending a frame once `_settled` holds saves joint evaluations, and the
    n-best bits equal those of a search that runs every round."""
    model = small_model(seed=3, blank_bias=1.0)
    feats = Rng(21).normal((30, 6))
    for fusion in (None, FusionConfig(length_bonus=-0.5)):
        before = model.counters.joint_evals
        got = beam_decode(model, feats, 4, fusion=fusion)
        evals = model.counters.joint_evals - before
        with monkeypatch.context() as m:
            m.setattr(dec, "_settled", lambda *args: False)
            before = model.counters.joint_evals
            want = beam_decode(model, feats, 4, fusion=fusion)
            assert evals < model.counters.joint_evals - before
        assert nbest_bits(got) == nbest_bits(want)


def test_beam_never_exits_early_when_fusion_can_raise_a_score(monkeypatch):
    """An LM or a positive length bonus can lift a child above its parent,
    so no frame ends before its last round."""
    def refuse(*args):
        raise AssertionError("_settled consulted")

    monkeypatch.setattr(dec, "_settled", refuse)
    model = small_model(seed=3, blank_bias=1.0)
    feats = Rng(21).normal((30, 6))
    lm = BigramLm.fit([[1, 2, 3], [3, 3], [2]], num_labels=3)
    for fusion in (FusionConfig(length_bonus=0.5), FusionConfig(lm_weight=0.5, lm=lm)):
        beam_decode(model, feats, 4, fusion=fusion)


def finished(entries):
    return {labels: dec.Hypothesis(labels, score, None) for labels, score in entries}


def settled(done, emitting, beam_width=2):
    return dec._settled(finished(done), emitting, beam_width)


def old_settled(done, emitting, beam_width, rounds_left):
    """`_settled` with the looser bound it replaced: at most rounds_left *
    beam_width blank children still reach `done`, each scoring at most the
    best emitting score a, so they lift it by at most a + log(rounds_left *
    beam_width)."""
    if len(done) < beam_width or not all(math.isfinite(score) for _, score in emitting):
        return False
    bar = sorted(hyp.score for hyp in done.values())[-beam_width]
    bar -= 1e-9 * (1.0 + abs(bar))
    lift = max(score for _, score in emitting) + math.log(rounds_left * beam_width)
    prefixes = {labels for labels, _ in emitting}
    lengths = {len(labels) for labels in prefixes}
    return lift < bar and all(np.logaddexp(hyp.score, lift) < bar for hyp in done.values()
                              if any(hyp.labels[:k] in prefixes for k in lengths))


def test_settled_holds_when_no_later_child_can_reach_the_nbest():
    """Beam width 2 and a bar of -2: the emitting children's total mass
    must stay below exp(-2)."""
    done = [((2,), -1.0), ((3,), -2.0), ((1, 4), -60.0)]
    assert settled(done, [((1,), -50.0), ((5,), -55.0)])
    # two children of half the bar's mass each reach it together
    assert not settled(done, [((1,), -2.0 - math.log(2.0)), ((5,), -2.0 - math.log(2.0))])
    assert settled(done, [((1,), -2.0 - math.log(2.1)), ((5,), -2.0 - math.log(2.1))])
    # unequal children: 1/1.5 + 1/4 of the bar's mass settles, though twice
    # the larger one would not
    assert settled(done, [((1,), -2.0 - math.log(1.5)), ((5,), -2.0 - math.log(4.0))])
    # a lone child at -2 - log 5 settles; a + log(rounds_left * beam_width)
    # with 3 rounds left refused it
    assert settled(done, [((1,), -2.0 - math.log(5.0))])
    assert not old_settled(finished(done), [((1,), -2.0 - math.log(5.0))], 2, 3)
    # the entry that extends an emitting child may rise from -2.1 to about -1.76
    assert not settled(done[:2] + [((1, 4), -2.1)], [((1,), -3.0)])
    assert settled(done[:2] + [((1, 4), -2.1)], [((5,), -3.0)])


def test_mass_bound_ends_frames_sooner_than_the_rounds_left_bound(monkeypatch):
    """On a fixed model the mass bound ends frames that the bound it
    replaced kept open: fewer joint evaluations, the same n-best bits.
    `beam_decode` consults `_settled` once per round until the frame ends,
    so the calls on one `done` count the rounds."""
    model = small_model(seed=3, blank_bias=1.0)
    feats = Rng(21).normal((30, 6))
    cap = DecodeOptions.max_symbols_per_frame
    frame = {"done": None, "rounds": 0}

    def by_rounds_left(done, emitting, beam_width):
        if done is not frame["done"]:
            frame.update(done=done, rounds=0)
        frame["rounds"] += 1
        return old_settled(done, emitting, beam_width, cap + 1 - frame["rounds"])

    for fusion in (None, FusionConfig(length_bonus=-0.5)):
        before = model.counters.joint_evals
        got = beam_decode(model, feats, 4, fusion=fusion)
        evals = model.counters.joint_evals - before
        with monkeypatch.context() as m:
            m.setattr(dec, "_settled", by_rounds_left)
            before = model.counters.joint_evals
            want = beam_decode(model, feats, 4, fusion=fusion)
            assert evals < model.counters.joint_evals - before
        assert nbest_bits(got) == nbest_bits(want)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**16), vocab=st.integers(2, 8), scale=st.floats(1e-3, 1e3),
       spread=st.floats(1e-3, 1e3))
def test_joint_rows_are_distributions(seed, vocab, scale, spread):
    """Every row `joint_from_projections` returns is a distribution to
    1e-12, the premise of `_settled`'s mass bound. Output weights up to
    about 1e3 spread the logits over thousands of nats, so the max shift in
    the log-softmax matters."""
    model = small_model(seed=seed, vocab_size=vocab)
    joint = model.params.joint
    joint.out_w.values[...] *= scale
    joint.out_b.values[...] *= scale
    rng = Rng(seed + 1)
    width = joint.audio_w.values.shape[1]
    for _ in range(4):
        row = model.joint_from_projections(rng.normal((width,), spread), rng.normal((width,), spread))
        assert row.shape == (vocab,)
        assert abs(math.fsum(np.exp(row)) - 1.0) <= 1e-12


def test_settled_needs_beam_width_finished_entries():
    assert not settled([((2,), -1.0)], [((1,), -50.0)])
    assert settled([((2,), -1.0)], [((1,), -50.0)], beam_width=1)


def test_settled_needs_finite_emitting_scores():
    done = [((2,), -1.0), ((3,), -2.0)]
    for bad in (-math.inf, math.nan):
        assert not settled(done, [((1,), -50.0), ((4,), bad)])


@pytest.mark.parametrize("top", [(1,), (1, 3)])
def test_settled_refuses_a_top_entry_that_extends_an_emitting_child(top):
    """A later blank child may merge into it, which would change its score
    bits, however low the emitting score."""
    assert not settled([(top, -1.0), ((2,), -2.0)], [((1,), -500.0)])


def test_settled_does_not_overflow_far_above_the_emitting_score():
    """An extending entry 900 nats above the best emitting score."""
    assert settled([((2,), -1.0), ((3,), -1.5), ((1, 4), -100.0)], [((1,), -1000.0)])


def test_beam_ties_break_on_labels_like_the_reference():
    """With a zero output layer every child of a hypothesis scores the same,
    so the labels alone order them."""
    lm = BigramLm.fit([[1, 2, 3], [3, 3], [2]], num_labels=3)
    for fusion in (None, FusionConfig(lm_weight=0.5, lm=lm)):
        model = small_model(seed=4, label_left=1)
        model.params.joint.out_w.values[...] = 0.0
        model.params.joint.out_b.values[...] = 0.0
        feats = Rng(8).normal((5, 6))
        for width in (1, 2, 3, 5, 8):
            for cap in (1, 2, 3):
                got = beam_decode(model, feats, width, fusion=fusion, max_symbols_per_frame=cap)
                want = reference_beam.beam_decode(model, feats, width, fusion=fusion,
                                                  max_symbols_per_frame=cap)
                assert nbest_bits(got) == nbest_bits(want), (fusion, width, cap)


def test_beam_scores_each_frame_and_state_once(monkeypatch):
    """One joint evaluation per distinct (frame, label state) pair, fewer
    than the reference's one per hypothesis per round."""
    model = small_model(vocab_size=3, label_left=1, blank_bias=1.0)
    feats = Rng(12).normal((60, 6))
    project_audio, joint = model.project_audio, model.joint_from_projections
    frame, pairs, held = [-1], [], []

    def counting_project_audio(row):
        frame[0] += 1
        return project_audio(row)

    def recording_joint(audio_proj, label_proj):
        pairs.append((frame[0], id(label_proj)))
        held.append(label_proj)  # keeps every id distinct
        return joint(audio_proj, label_proj)

    monkeypatch.setattr(model, "project_audio", counting_project_audio)
    monkeypatch.setattr(model, "joint_from_projections", recording_joint)
    before = model.counters.joint_evals
    beam_decode(model, feats, beam_width=4)
    evals = model.counters.joint_evals - before
    assert frame[0] == 59
    assert evals == len(pairs) == len(set(pairs))
    before = model.counters.joint_evals
    reference_beam.beam_decode(model, feats, beam_width=4)
    assert evals < model.counters.joint_evals - before


@pytest.mark.parametrize("decoder", ["greedy", "beam", "stream"])
def test_label_input_rows_computed_once_per_call(monkeypatch, decoder):
    """A label id's input projection and first-layer query, key and value
    are computed at most once per decode call, however often it is pushed."""
    model = small_model(vocab_size=4, label_left=2, num_label_layers=2, blank_bias=-1.0)
    feats = Rng(13).normal((30, 6))
    first_layer = model.params.label.layers[0]
    projected, key_values, pushes = [], [], []
    qkv_row = att.qkv_row

    def counting_qkv_row(row, layer, weights, config):
        if layer is first_layer:
            key_values.append(row.tobytes())
        return qkv_row(row, layer, weights, config)

    class CountingWeights(np.ndarray):
        def __rmatmul__(self, other):
            projected.append(np.asarray(other).tobytes())
            return np.asarray(other) @ self.view(np.ndarray)

    input_w = model.params.label.input_w
    monkeypatch.setattr(input_w, "values", input_w.values.view(CountingWeights))
    monkeypatch.setattr(att, "qkv_row", counting_qkv_row)
    count_pushes(monkeypatch, model, pushes)
    if decoder == "greedy":
        greedy_decode(model, feats, max_symbols_per_frame=3)
    elif decoder == "beam":
        beam_decode(model, feats, beam_width=4, max_symbols_per_frame=3)
    else:
        stream_decode(model, feats, max_symbols_per_frame=3)
    assert len(projected) == len(set(projected)) <= model.config.vocab_size
    assert len(key_values) == len(set(key_values)) == len(projected)
    assert sum(pushes) > 3 * len(projected)  # ids are pushed again and again


def test_fusion_requires_lm():
    with pytest.raises(ValueError):
        FusionConfig(lm_weight=0.5, lm=None)


# ------------------------------------------------------------------- lm

def test_bigram_lm_is_a_distribution():
    lm = BigramLm.fit([[1, 2, 3], [2, 3, 1], [1, 2]], num_labels=3)
    for history in ([], [1], [3, 2]):
        total = sum(math.exp(lm.log_prob(history, v)) for v in (1, 2, 3))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_bigram_lm_learns_counts():
    lm = BigramLm.fit([[1, 2]] * 10 + [[1, 3]], num_labels=3)
    assert lm.log_prob([1], 2) > lm.log_prob([1], 3)


# ---------------------------------------------------------------- stream

def test_stream_equals_batch_greedy_across_masks():
    for (left, right), label_left in [((10, 0), 2), ((10, 2), 2), ((2, 0), 20)]:
        for seed in (0, 1):
            model = small_model(audio_mask=AttentionMask(left, right),
                                label_left=label_left, seed=seed)
            feats = Rng(400 + seed).normal((17, 6))
            batch = greedy_decode(model, feats)
            streamed, _ = stream_decode(model, feats)
            assert streamed == batch
            assert incremental_gap(model, feats) < 1e-9


@settings(max_examples=40, deadline=None)
@given(left=st.integers(0, 3), right=st.integers(0, 2), layers=st.integers(0, 3),
       label_left=st.one_of(st.none(), st.integers(0, 4)), frames=st.integers(1, 20),
       stack=st.integers(1, 3), subsample=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_stream_equals_batch_property(left, right, layers, label_left, frames, stack, subsample, seed):
    model = small_model(audio_mask=AttentionMask(left, right), label_left=label_left,
                        seed=seed, num_audio_layers=layers,
                        frontend=FrontendConfig(stack=stack, subsample=subsample))
    feats = Rng(seed + 1).normal((frames, 6))
    streamed, _ = stream_decode(model, feats)
    assert streamed == greedy_decode(model, feats)
    assert incremental_gap(model, feats) < 1e-9


@settings(max_examples=60, deadline=None)
@given(stack=st.integers(1, 5), subsample=st.integers(1, 5), frames=st.integers(1, 12))
@example(stack=2, subsample=5, frames=12)  # subsample > stack
@example(stack=5, subsample=3, frames=3)   # fewer frames than one row
def test_stream_stacked_rows_equal_stack_subsample_bitwise(stack, subsample, frames):
    model = small_model(num_audio_layers=0, frontend=FrontendConfig(stack=stack, subsample=subsample))
    feats = Rng(frames).normal((frames, 6))
    st_ = StreamState(model)
    with mock.patch.object(st_.encoder, "push", wraps=st_.encoder.push) as push:
        for t in range(frames):
            st_.step(feats[t])
        st_.flush()
    pushed = np.stack([call.args[0] for call in push.call_args_list])
    want = stack_subsample(feats, stack, subsample)
    assert pushed.shape == want.shape and pushed.tobytes() == want.tobytes()


def test_stream_constant_per_frame_work():
    model = blank_forcing_model(audio_mask=AttentionMask(4, 1))
    st = StreamState(model)
    frames = Rng(8).normal((220, 6))
    costs = []
    for t in range(220):
        before = (model.counters.joint_evals, model.counters.attention_scores)
        st.step(frames[t])
        costs.append((model.counters.joint_evals - before[0],
                      model.counters.attention_scores - before[1]))
    assert costs[19] == costs[199]
    assert costs[19][0] == 1  # one finalized frame, one joint evaluation
    # all steady-state steps cost the same
    assert len(set(costs[10:])) == 1


@pytest.mark.parametrize("left, right, layers", [(2, 1, 3), (1, 2, 3), (0, 3, 2), (4, 1, 1)])
def test_incremental_encoder_holds_at_most_one_window_per_layer(monkeypatch, left, right, layers):
    """Every window a layer step attends is at most left + right + 1
    columns of the level's buffer, a view into it, in the end-of-stream
    drain too; and the buffers allocated up front serve the whole stream."""
    model = small_model(audio_mask=AttentionMask(left, right), num_audio_layers=layers)
    params = model.params.audio
    enc = dec.IncrementalEncoder(model.config.audio, params)
    rows, qkv = enc.rows, enc.qkv
    buffers = [list(level) for level in (rows, qkv)]
    windows = []
    step = att.encoder_layer_step

    def recording_step(x_row, window, q_local, layer, *args, **kw):
        below = enc.qkv[next(i for i, p in enumerate(params.layers) if p is layer)]
        windows.append((window.shape[1], np.shares_memory(window, below)))
        return step(x_row, window, q_local, layer, *args, **kw)

    monkeypatch.setattr(att, "encoder_layer_step", recording_step)
    out = []
    for row in Rng(14).normal((200, model.config.audio.input_dim)):
        out += enc.push(row)
    drained = len(windows)
    out += enc.finish()
    assert len(out) == 200
    assert len(windows) - drained == layers * (layers + 1) // 2 * right  # the drain steps
    assert max(width for width, _ in windows) <= left + right + 1
    assert all(view for _, view in windows)
    assert enc.rows is rows and enc.qkv is qkv
    assert all(a is b for level, before in zip((rows, qkv), buffers) for a, b in zip(level, before))


def test_incremental_encoder_computes_each_key_value_row_once(monkeypatch):
    """Each row's layer-norm and keys/values are computed once per layer,
    when the row arrives, never again for a later window, in the drain too."""
    model = small_model(audio_mask=AttentionMask(2, 1), num_audio_layers=3)
    layers = model.params.audio.layers
    enc = dec.IncrementalEncoder(model.config.audio, model.params.audio)
    calls = [0] * len(layers)
    qkv_row = att.qkv_row

    def counting(row, layer, weights, config):
        calls[next(i for i, p in enumerate(layers) if p is layer)] += 1
        return qkv_row(row, layer, weights, config)

    monkeypatch.setattr(att, "qkv_row", counting)
    out = []
    for row in Rng(15).normal((20, model.config.audio.input_dim)):
        out += enc.push(row)
    out += enc.finish()
    assert len(out) == 20
    assert calls == [20, 20, 20]


@pytest.mark.parametrize("left, right, layers", [(2, 1, 3), (1, 2, 3), (0, 3, 2), (4, 1, 1)])
def test_incremental_encoder_key_value_cache_follows_rows(monkeypatch, left, right, layers):
    """After every push and every drain step, both mirrored columns of each
    level's newest min(count, W) positions hold the `qkv_row` of the row in
    that position's slot."""
    model = small_model(audio_mask=AttentionMask(left, right), num_audio_layers=layers)
    cfg, params = model.config.audio, model.params.audio
    enc = dec.IncrementalEncoder(cfg, params)
    w = left + right + 1
    advance = enc._advance
    checked = []

    def checking_advance(frontier):
        top = advance(frontier)
        assert len(enc.qkv) == layers
        for rows, buf, count, layer, weights in zip(enc.rows, enc.qkv, enc.count, params.layers, enc.weights):
            for p in range(max(0, count - w), count):
                want = att.qkv_row(rows[p % w], layer, weights, cfg)
                np.testing.assert_array_equal(buf[:, p % w], want)
                np.testing.assert_array_equal(buf[:, p % w + w], want)
        checked.append(frontier)
        return top

    monkeypatch.setattr(enc, "_advance", checking_advance)
    for row in Rng(16).normal((20, cfg.input_dim)):
        enc.push(row)
    enc.finish()
    assert len(checked) == 20 + layers * right


@pytest.mark.parametrize("mask", [AttentionMask(None, 1), AttentionMask(2, None)], ids=["left", "right"])
def test_incremental_encoder_rejects_unbounded_masks(mask):
    model = small_model()
    with pytest.raises(ValueError, match="finite attention window on both sides"):
        dec.IncrementalEncoder(dataclasses.replace(model.config.audio, mask=mask), model.params.audio)


def randomized(params, seed: int):
    """`params` with every value drawn from a normal, biases, gains and
    relative-position terms included."""
    rng = Rng(seed)
    for name, p in params.named():
        p.values[...] = rng.substream(name).normal(p.shape)
    return params


@settings(max_examples=150, deadline=None)
@given(left=st.integers(0, 12), label_left=st.one_of(st.none(), st.integers(0, 12)), right=st.integers(0, 3),
       layers=st.integers(0, 3), heads=st.integers(1, 3), head_dim=st.integers(1, 4),
       frames=st.integers(1, 120), length=st.integers(1, 60), max_offset=st.integers(0, 14),
       seed=st.integers(0, 2**16))
@example(left=10, label_left=10, right=0, layers=2, heads=2, head_dim=4, frames=60, length=60, max_offset=12,
         seed=0)
@example(left=2, label_left=None, right=2, layers=3, heads=3, head_dim=3, frames=120, length=40, max_offset=5,
         seed=1)
def test_incremental_encoder_equals_list_window_reference(left, label_left, right, layers, heads, head_dim,
                                                          frames, length, max_offset, seed):
    """The windowed encoder emits the list-window reference's rows bit for
    bit, with the same score count, over streams that wrap its window many
    times; so do label states, which carry their windows, against the
    reference's clone-per-state ones, through `advanced` from any earlier
    state and through `advance` outside the memo."""
    cfg = EncoderConfig(num_layers=layers, model_dim=6, ff_dim1=7, ff_dim2=6, num_heads=heads,
                        head_dim=head_dim, mask=AttentionMask(left, right), input_dim=6,
                        dropout_ratio=0.0, max_relative_offset=max_offset)
    params = randomized(att.encoder_param_spec(cfg).map(lambda _, spec: spec.materialize(Rng(0))), seed)
    rng = Rng(seed + 1)
    rows = rng.substream("rows").normal((frames, cfg.input_dim))
    outputs = []
    for cls in (dec.IncrementalEncoder, reference_stream.IncrementalEncoder):
        counters = att.Counters()
        enc = cls(cfg, params, counters)
        out = [r for row in rows for r in enc.push(row)] + enc.finish()
        outputs.append((out, counters.attention_scores))
    (got, got_scores), (want, want_scores) = outputs
    assert len(got) == len(want) == frames and got_scores == want_scores
    for a, b in zip(got, want):
        assert np.array_equal(a, b)

    label_model = init_model(ModelConfig(
        vocab_size=5, feature_dim=2, joint_dim=5, audio=trivial_encoder_config(AttentionMask(2, 0)),
        label=dataclasses.replace(cfg, mask=AttentionMask(label_left, 0)), frontend=FrontendConfig()), Rng(0))
    randomized(label_model.params, seed)
    labels = rng.substream("labels").integers(1, label_model.config.vocab_size, length).tolist()
    picks = rng.substream("picks").integers(0, length + 1, length).tolist()
    walks = []
    for cls in (dec.LabelState, reference_stream.LabelState):
        before = label_model.counters.attention_scores
        states, walker = [cls(label_model)], cls(label_model)
        for i, label in enumerate(labels):
            states.append(states[picks[i] % len(states)].advanced(label))
            walker = walker.advance(label)
            states.append(walker)
            walker = cls(label_model) if i == length // 2 else walker
        walks.append(([(s.vec, s.proj) for s in states], label_model.counters.attention_scores - before))
    (got, got_scores), (want, want_scores) = walks
    assert got_scores == want_scores
    for (vec, proj), (ref_vec, ref_proj) in zip(got, want):
        assert np.array_equal(vec, ref_vec) and np.array_equal(proj, ref_proj)


def test_step_offset_cache_stays_bounded_under_full_history_labels():
    """With `label_left` None every push attends a longer window, so each
    step needs a new offset table; the cache stays at its bound, evicting
    old tables, and the states stay equal to the reference's."""
    model = small_model(label_left=None, num_label_layers=2)
    limit = att._offset_index.cache_info().maxsize
    att._offset_index.cache_clear()
    state = dec.LabelState(model)
    reference = reference_stream.LabelState(model)
    sizes = []
    for i in range(limit + 40):
        label = 1 + i % (model.config.vocab_size - 1)
        state = state.advance(label)
        reference = reference.advance(label)
        sizes.append(att._offset_index.cache_info().currsize)
    assert limit is not None and max(sizes) == sizes[-1] == limit  # full, and evicting since
    assert np.array_equal(state.vec, reference.vec) and np.array_equal(state.proj, reference.proj)
    idx = att._offset_index(1, limit + 5, limit + 6, model.config.label.rel_offset)
    assert not idx.flags.writeable


def test_stream_lookahead_delays_first_emission():
    # 3 layers, right=1: position 1 needs frames up to 1 + 3
    model = small_model(audio_mask=AttentionMask(2, 1), num_audio_layers=3, blank_bias=-10.0)
    st = StreamState(model)
    frames = Rng(9).normal((6, 6))
    emitted_at = []
    for t in range(6):
        out = st.step(frames[t])
        emitted_at.append(len(out) > 0)
    assert emitted_at[:3] == [False, False, False]
    assert emitted_at[3]


def test_stream_rejects_unbounded_masks():
    with pytest.raises(ValueError):
        StreamState(small_model(audio_mask=AttentionMask(None, 0)))
    with pytest.raises(ValueError):
        StreamState(small_model(audio_mask=AttentionMask(4, None)))


def test_stream_empty_flush():
    st = StreamState(small_model())
    assert st.flush() == []


def test_stream_shorter_than_lookahead():
    model = small_model(audio_mask=AttentionMask(3, 2), num_audio_layers=2, seed=5)
    for n in (1, 2, 3):
        feats = Rng(500 + n).normal((n, 6))
        batch = greedy_decode(model, feats)
        streamed, _ = stream_decode(model, feats)
        assert streamed == batch


def test_stream_single_frame():
    model = small_model(audio_mask=AttentionMask(5, 3))
    feats = Rng(10).normal((1, 6))
    streamed, _ = stream_decode(model, feats)
    assert streamed == greedy_decode(model, feats)


def test_stream_double_flush_errors():
    st = StreamState(small_model())
    st.step(Rng(11).normal(6))
    st.flush()
    with pytest.raises(StreamError, match="double flush"):
        st.flush()


def test_stream_step_after_flush_errors():
    st = StreamState(small_model())
    st.flush()
    with pytest.raises(StreamError):
        st.step(Rng(12).normal(6))


def test_stream_with_stacking_frontend():
    fc = FrontendConfig(stack=3, subsample=2)
    cfg = desk_config(vocab_size=4, feature_dim=4, audio_mask=AttentionMask(4, 1),
                      label_left=3, dropout=0.0, model_dim=8, frontend=fc)
    model = init_model(cfg, Rng(13))
    for n in (1, 4, 9, 14):
        feats = Rng(600 + n).normal((n, 4))
        streamed, _ = stream_decode(model, feats)
        assert streamed == greedy_decode(model, feats)
