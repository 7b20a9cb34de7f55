"""Acceptance suite: one test per criterion, each printing a pass line with
its measured quantities. Training-based criteria share cached runs."""

import time

import numpy as np

import reference_ops as ops
from test_tasks import split
import ttkit.tensor as tt
from ttkit import checks
from ttkit import transducer as tr
from ttkit.attention import AttentionMask, receptive_field
from ttkit.decode import BigramLm, FusionConfig, beam_decode, greedy_decode
from ttkit.model import desk_config, init_model
from ttkit.tasks import (
    SyntheticTaskConfig,
    corpus_wer,
    dataset_bytes,
    gen_synthetic,
    read_dataset,
    symbol_templates,
    write_dataset,
)
from ttkit.tensor import Rng
from ttkit.train import (
    ScheduleConfig,
    TrainConfig,
    checkpoint_bytes,
    load_checkpoint,
    save_checkpoint,
    train_loop,
)

FULL = AttentionMask(None, None)
STREAMABLE = AttentionMask(10, 0)
LOOKAHEAD = AttentionMask(10, 2)

TOY_STEPS = 500
_toy_cache: dict = {}


def toy_task(seed: int, noise: float = 0.2, bigram_scale: float = 0.0, size: int = 2200):
    return SyntheticTaskConfig(vocab=6, label_len=(3, 5), frames_per_label=(1, 3),
                               feature_dim=16, noise_sigma=noise, size=size,
                               seed=seed, bigram_scale=bigram_scale)


def toy_schedule(steps: int = TOY_STEPS) -> ScheduleConfig:
    return ScheduleConfig(peak_lr=3e-3, warmup_steps=max(1, steps // 10),
                          hold_until=steps // 3, decay_until=steps, final_lr=3e-4)


def train_toy(tmp_path_factory, seed: int, mask: AttentionMask, label_left):
    """Train the default desk config (2 audio layers, 1 label layer,
    model_dim 32, vocab 6, 2000 train utterances); cached per setting."""
    key = (seed, mask.left, mask.right, label_left)
    if key in _toy_cache:
        return _toy_cache[key]
    data = gen_synthetic(toy_task(seed))
    train, dev, test = split(data, 2000, 100)
    cfg = desk_config(vocab_size=7, feature_dim=16, audio_mask=mask,
                      label_left=label_left, dropout=0.1)
    model = init_model(cfg, Rng(seed))
    start = time.monotonic()
    train_loop(model, train, toy_schedule(), TrainConfig(batch_size=8, total_steps=TOY_STEPS, seed=seed),
               out_dir=tmp_path_factory.mktemp("toy"))
    elapsed = time.monotonic() - start
    ser = corpus_wer([(u.labels, greedy_decode(model, u.features)) for u in test.utterances])
    _toy_cache[key] = (model, ser, elapsed, test)
    return _toy_cache[key]


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst = 0.0
    for n, case in enumerate(checks.oracle_gaps(), 1):
        worst = max(worst, case.gap)
        assert case.gap < 1e-9, case.case
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"\n[PASS] criterion 1: oracle equivalence over {n} instances, "
          f"worst gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_2_uniform_grid_closed_form():
    grid = ops.uniform_grid(T=2, U=1, V=2)
    got = tr.rnnt_log_prob(grid, [1]).item()
    want = np.log(0.25)
    assert abs(got - want) < 1e-12
    assert len(list(tr.enumerate_alignments(2, 1))) == 2
    print(f"\n[PASS] criterion 2: uniform grid log P = {got:.12f} = ln(1/4), 2 alignments")


def test_criterion_3_end_to_end_gradient():
    start = time.monotonic()
    worst = 0.0
    checked = 0
    for case in checks.gradient_errors():
        if case.error is None:
            assert case.fd_max < 1e-8, case.name
            continue
        worst = max(worst, case.error)
        checked += case.size
        assert case.error < 1e-4, case.name
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    print(f"\n[PASS] criterion 3: end-to-end gradient on {checked} parameter "
          f"entries, worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_4_causality_bitwise():
    import ttkit.attention as att

    cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=AttentionMask(6, 0),
                      label_left=2, dropout=0.0, model_dim=16)
    model = init_model(cfg, Rng(41))
    rng = Rng(42)
    x = rng.normal((12, 8))
    with tt.no_grad():
        base = att.encode(tt.Tensor(x), cfg.audio, model.params.audio).values
    for trial in range(100):
        t = rng.integers(0, 11)
        perturbed = x.copy()
        perturbed[t + 1:] += rng.normal(perturbed[t + 1:].shape)
        with tt.no_grad():
            out = att.encode(tt.Tensor(perturbed), cfg.audio, model.params.audio).values
        assert out[: t + 1].tobytes() == base[: t + 1].tobytes(), trial
    print("\n[PASS] criterion 4: right=0 causality bitwise over 100 trials")


def test_criterion_5_receptive_field_and_latency():
    import ttkit.attention as att

    cfg = desk_config(vocab_size=5, feature_dim=8, audio_mask=AttentionMask(2, 1),
                      label_left=2, dropout=0.0, model_dim=16, num_audio_layers=3)
    model = init_model(cfg, Rng(51))
    x = Rng(52).normal((14, 8))
    with tt.no_grad():
        base = att.encode(tt.Tensor(x), cfg.audio, model.params.audio).values
    pos = 6  # 1-based position 7

    inside = x.copy()
    inside[9] += 1.0  # 1-based 10 = 7 + 3 layers * right 1
    with tt.no_grad():
        moved = att.encode(tt.Tensor(inside), cfg.audio, model.params.audio).values
    assert not np.allclose(moved[pos], base[pos])

    outside = x.copy()
    outside[10] += 1.0  # 1-based 11, beyond the aggregated look-ahead
    with tt.no_grad():
        unmoved = att.encode(tt.Tensor(outside), cfg.audio, model.params.audio).values
    assert unmoved[pos].tobytes() == base[pos].tobytes()

    assert receptive_field(18, AttentionMask(512, 2), 30.0).future_latency_ms == 1080.0
    assert receptive_field(18, AttentionMask(512, 6), 30.0).future_latency_ms == 3240.0
    print("\n[PASS] criterion 5: position 7 sees input 10 but not 11; "
          "18-layer look-ahead 1080 ms (right=2) and 3240 ms (right=6)")


def test_criterion_6_streaming_equivalence_and_constant_work():
    start = time.monotonic()
    for n, run in enumerate(checks.stream_runs(), 1):
        assert run.streamed == run.batch, run.setting
        assert run.activation_gap < 1e-9, run.setting
        # constant per-frame work: the joint evaluations of a frame are a
        # function of its own emissions (see `checks.stream_runs`), never of t
        for t in range(run.warmup, len(run.per_frame)):
            evals, emitted = run.per_frame[t]
            expected = emitted + 1 if emitted < 10 else 10
            assert evals == expected, (*run.setting, t, run.per_frame[t])
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"\n[PASS] criterion 6: streaming == batch for {n} mask settings "
          f"(activations <= 1e-9, per-frame joint cost constant), {elapsed:.1f}s")


def test_criterion_7_lr_schedule_published_points():
    for p in checks.schedule_points():  # 2.5e-4 / 4K / 30K / 200K / 2.5e-6
        assert abs(p.got - p.want) <= 1e-12 * max(1.0, abs(p.want)), p.step
    print("\n[PASS] criterion 7: schedule hits {0, 4000, 30000, 115000, 200000} -> "
          "{0, 2.5e-4, 2.5e-4, 2.5e-5, 2.5e-6} exactly")


def test_criterion_8_toy_convergence_within_budget(tmp_path_factory):
    model_f, ser_full, time_full, _ = train_toy(tmp_path_factory, 0, FULL, None)
    model_s, ser_stream, time_stream, _ = train_toy(tmp_path_factory, 0, STREAMABLE, 2)
    budget = time_full + time_stream
    assert budget < 900.0
    assert ser_full < 0.05, ser_full
    assert ser_stream < 0.10, ser_stream
    assert ser_full <= ser_stream
    print(f"\n[PASS] criterion 8: full SER {ser_full:.3f} (<5%), streamable SER "
          f"{ser_stream:.3f} (<10%), full <= streamable, trained in {budget:.0f}s (<900s)")


def test_criterion_9_lookahead_bridges_the_gap(tmp_path_factory):
    rows = []
    for seed in (0, 1, 2):
        _, ser_full, _, _ = train_toy(tmp_path_factory, seed, FULL, None)
        _, ser_stream, _, _ = train_toy(tmp_path_factory, seed, STREAMABLE, 2)
        _, ser_look, _, _ = train_toy(tmp_path_factory, seed, LOOKAHEAD, 2)
        assert ser_look <= ser_stream, (seed, ser_look, ser_stream)
        assert ser_look >= ser_full, (seed, ser_look, ser_full)
        rows.append((seed, ser_full, ser_look, ser_stream))
    table = "; ".join(f"seed {s}: full {f:.3f} <= look {l:.3f} <= stream {st:.3f}"
                      for s, f, l, st in rows)
    print(f"\n[PASS] criterion 9: {table}")


def test_criterion_10_shallow_fusion_helps(tmp_path):
    """Transducer trained on flat label statistics, evaluated where labels
    follow a bigram process the bundled LM was fit on: fusion must not hurt,
    and is expected to help, on the held-out split for most seeds."""
    def beam_wer(model, utts, fusion=None):
        return corpus_wer([(u.labels, list(beam_decode(model, u.features, 4, fusion)[0].labels))
                           for u in utts])

    wins = 0
    details = []
    for seed in (0, 1, 2):
        train = gen_synthetic(toy_task(seed, noise=1.8, bigram_scale=0.0, size=1200))
        structured = toy_task(seed, noise=1.8, bigram_scale=5.0, size=300)
        assert symbol_templates(toy_task(seed, noise=1.8)).tobytes() \
            == symbol_templates(structured).tobytes()
        dev, test = split(gen_synthetic(structured), 150)
        lm_text = toy_task(seed, noise=0.0, bigram_scale=5.0, size=4000)
        lm = BigramLm.fit([u.labels for u in gen_synthetic(lm_text).utterances], 6, add_k=0.1)

        cfg = desk_config(vocab_size=7, feature_dim=16, audio_mask=STREAMABLE,
                          label_left=2, dropout=0.1)
        model = init_model(cfg, Rng(seed))
        train_loop(model, train, toy_schedule(400),
                   TrainConfig(batch_size=8, total_steps=400, seed=seed), out_dir=tmp_path / f"seed{seed}")

        base_dev = beam_wer(model, dev.utterances)
        best, best_wer = None, base_dev - 0.01  # adopt fusion only on a clear dev win
        for lw in (0.3, 0.6):
            for lb in (0.0, 0.3):
                w = beam_wer(model, dev.utterances, FusionConfig(lw, lb, lm))
                if w < best_wer:
                    best_wer, best = w, (lw, lb)
        base_test = beam_wer(model, test.utterances)
        fused_test = base_test if best is None else beam_wer(
            model, test.utterances, FusionConfig(best[0], best[1], lm))
        wins += fused_test <= base_test
        details.append(f"seed {seed}: {base_test:.3f} -> {fused_test:.3f} (tuned {best})")
    assert wins >= 2, details
    print(f"\n[PASS] criterion 10: fusion <= baseline on {wins}/3 seeds; " + "; ".join(details))


def test_criterion_11_determinism_and_roundtrips(tmp_path, tmp_path_factory):
    # identical seeds, identical checkpoints (fresh short runs, twice)
    def short_run():
        data = split(gen_synthetic(toy_task(3, size=300)), 256)[0]
        cfg = desk_config(vocab_size=7, feature_dim=16, audio_mask=STREAMABLE,
                          label_left=2, dropout=0.1)
        model = init_model(cfg, Rng(3))
        train_loop(model, data, toy_schedule(60), TrainConfig(batch_size=8, total_steps=60, seed=3),
                   out_dir=tmp_path / "short")
        return model

    bytes_a = checkpoint_bytes(short_run())
    bytes_b = checkpoint_bytes(short_run())
    assert bytes_a == bytes_b

    # save -> load -> save is byte-identical, and the restored model scores
    # the toy evaluation identically
    model, ser, _, test = train_toy(tmp_path_factory, 0, STREAMABLE, 2)
    p1, p2 = tmp_path / "m1.ttck", tmp_path / "m2.ttck"
    save_checkpoint(model, p1)
    restored = load_checkpoint(p1)
    save_checkpoint(restored, p2)
    assert p1.read_bytes() == p2.read_bytes()
    ser_restored = corpus_wer([(u.labels, greedy_decode(restored, u.features))
                               for u in test.utterances])
    assert ser_restored == ser

    # dataset write/read is exact
    data = gen_synthetic(toy_task(9, size=40))
    path = tmp_path / "d.ttds"
    write_dataset(data, path)
    again = read_dataset(path)
    assert dataset_bytes(again) == dataset_bytes(data)
    print(f"\n[PASS] criterion 11: seeded training, checkpoint, and dataset "
          f"round-trips all bit-exact (restored SER {ser_restored:.3f})")
