"""The plain frame-synchronous beam search, the reference for ttkit's.

Every round builds a child for every candidate of every active hypothesis
(its blank and each label), sorts them all and keeps `beam_width`; every
active hypothesis gets its own joint call, even when another one holds the
same label state in the same frame, and every frame runs every round until
no child emits. ttkit's `beam_decode` scores each (frame, state) once,
builds children only at or above the round's cut and ends a frame once no
later round can change its n-best, so its n-best labels and scores equal
this one's bit for bit.
"""

from __future__ import annotations

from ttkit import decode as dec
from ttkit.decode import FusionConfig, Hypothesis, LabelState
from ttkit.transducer import BLANK_ID


def beam_decode(model, features, beam_width: int, fusion: FusionConfig | None = None,
                max_symbols_per_frame: int = 10) -> list[Hypothesis]:
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    fusion = fusion if fusion is not None else FusionConfig()
    enc = dec._batch_encode_audio(model, features)
    beam = [Hypothesis(labels=(), score=0.0, state=LabelState(model))]

    for t in range(enc.shape[0]):
        audio_proj = model.project_audio(enc[t])
        active = beam
        done: dict[tuple[int, ...], Hypothesis] = {}
        for round_i in range(max_symbols_per_frame + 1):
            # children: (labels, score, parent_state, emitted label or None);
            # label-encoder states are looked up only for surviving children
            children: list[tuple[tuple[int, ...], float, LabelState, int | None]] = []
            allow_emit = round_i < max_symbols_per_frame
            for hyp in active:
                lp = model.joint_from_projections(audio_proj, hyp.state.proj)
                children.append((hyp.labels, hyp.score + lp[BLANK_ID], hyp.state, None))
                if not allow_emit:
                    continue
                for v in range(1, lp.shape[0]):
                    bonus = fusion.length_bonus
                    if fusion.lm_weight != 0.0:
                        bonus += fusion.lm_weight * fusion.lm.log_prob(hyp.labels, v)
                    children.append((hyp.labels + (v,), hyp.score + lp[v] + bonus, hyp.state, v))
            children.sort(key=lambda c: (-c[1], c[0]))
            active = []
            for labels, score, state, emitted in children[:beam_width]:
                if emitted is None:
                    dec._merge(done, Hypothesis(labels, score, state))
                else:
                    active.append(Hypothesis(labels, score, state.advanced(emitted)))
            if not active:
                break
        beam = sorted(done.values(), key=lambda h: (-h.score, h.labels))[:beam_width]
    return beam
