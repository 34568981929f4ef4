import contextlib
import json
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxmix import decoding
from voxmix import numerics as nm
from voxmix.decoding import DecodeConfig, transcribe_batch
from voxmix.losses import LossConfig
from voxmix.model import (
    DecodeCache,
    LoraSpec,
    ModelConfig,
    attach_adapters,
    base_digest,
    build_model,
    decode_batch,
    encode_batch,
    pad_frames,
    set_trainable,
)
from voxmix.synthdata import (
    BOS_ID,
    EOS_ID,
    PAD_ID,
    GenConfig,
    build_corpus,
    detokenize,
    generate_song,
)
from voxmix.training import PhasePlanSpec, TrainPlan, pad_batch, run_experiment


@pytest.fixture(scope="module")
def clean_cfg():
    return replace(GenConfig(), jitter=0.25, gain_range=(0.0, 0.0))


@pytest.fixture(scope="module")
def trained(clean_cfg, tmp_path_factory):
    """Pretrained then voc-finetuned model on the zero-interference distribution."""
    tmp = tmp_path_factory.mktemp("trained")
    corpus = build_corpus(clean_cfg, songs_per_language=64, seed_base=0)
    model = build_model(ModelConfig(), seed=0)
    run_experiment(
        TrainPlan(LossConfig(strategy="voc"),
                  PhasePlanSpec(peak_lr=3e-3, total_steps=700, batch_size=8, seed=1)),
        corpus, model, tmp / "pre.jsonl",
    )
    attach_adapters(model, LoraSpec(), seed=2)
    run_experiment(
        TrainPlan(LossConfig(strategy="voc"),
                  PhasePlanSpec(peak_lr=1e-3, total_steps=200, batch_size=8, seed=3)),
        corpus, model, tmp / "ft.jsonl",
    )
    return model


@pytest.fixture
def cfg():
    return DecodeConfig(max_tokens=24)


def test_forced_eos_stops_immediately(cfg):
    model = build_model(ModelConfig(), seed=5)
    model.params["dec.out.b"].values[EOS_ID] = 1000.0
    x = np.random.default_rng(0).standard_normal((10, model.config.feature_dim))
    assert transcribe_batch(model, [x], cfg)[0] == [BOS_ID, EOS_ID]


def test_greedy_decode_deterministic(trained, clean_cfg, cfg):
    s = generate_song(90_000, clean_cfg, "toyla")[0]
    a = transcribe_batch(trained, [s.x_v], cfg)[0]
    b = transcribe_batch(trained, [s.x_v], cfg)[0]
    assert a == b


def test_greedy_decode_respects_window_limit(trained, cfg):
    # the model's max_audio_frames is the one window length
    n = trained.config.max_audio_frames
    ok = np.zeros((n, trained.config.feature_dim))
    assert transcribe_batch(trained, [ok[:5], ok], cfg)
    with pytest.raises(ValueError, match=f"split longer inputs into windows of at most {n} frames"):
        transcribe_batch(trained, [ok[:5], np.zeros((n + 1, ok.shape[1]))], cfg)


def test_transcribe_batch_rejects_non_2d_window(trained, cfg):
    with pytest.raises(ValueError, match="frames, features"):
        transcribe_batch(trained, [np.zeros(trained.config.feature_dim)], cfg)[0]
    with pytest.raises(ValueError, match="frames, features"):
        transcribe_batch(trained, [np.zeros((1, 8, trained.config.feature_dim))], cfg)[0]


def test_transcribe_batch_rejects_wrong_feature_count(trained, cfg):
    dim = trained.config.feature_dim
    with pytest.raises(ValueError, match=f"{dim // 2} features per frame; the model takes {dim}"):
        transcribe_batch(trained, [np.zeros((5, dim)), np.zeros((5, dim // 2))], cfg)


def test_greedy_decode_caps_output_length(cfg):
    model = build_model(ModelConfig(), seed=6)
    model.params["dec.out.b"].values[EOS_ID] = -1000.0  # never emits EOS
    x = np.random.default_rng(1).standard_normal((8, model.config.feature_dim))
    tokens = transcribe_batch(model, [x], cfg)[0]
    assert len(tokens) == cfg.max_tokens
    assert EOS_ID not in tokens[1:]
    # the last token is never fed back, so max_token_len + 1 tokens fit the decoder
    limit = model.config.max_token_len
    tokens = transcribe_batch(model, [x], DecodeConfig(max_tokens=limit + 1))[0]
    assert len(tokens) == limit + 1
    assert EOS_ID not in tokens[1:]
    # a limit past the model's is refused, not cut to it
    with pytest.raises(ValueError, match=f"max_tokens {limit + 2} feeds the decoder {limit + 1} "
                                         f"positions, over the model's max_token_len {limit}"):
        transcribe_batch(model, [x], DecodeConfig(max_tokens=limit + 2))


def test_trained_model_transcribes_held_out_clean_sample(trained, clean_cfg, cfg):
    from voxmix.evaluation import wer

    details = []
    for seed in range(90_010, 90_020):
        s = generate_song(seed, clean_cfg, "toyla")[0]
        hyp = detokenize(transcribe_batch(trained, [s.x_v], cfg)[0])
        details.append(wer(s.text, hyp))
    pooled = sum(d.substitutions + d.deletions + d.insertions for d in details) / sum(
        d.ref_words for d in details
    )
    assert pooled <= 0.1


def test_batch_transcription_equals_per_sample(trained, clean_cfg, cfg):
    samples = [generate_song(seed, clean_cfg, "toyla")[0] for seed in range(90_030, 90_042)]
    windows = [s.x_v for s in samples] + [s.x_m for s in samples]
    batch = transcribe_batch(trained, windows, cfg)
    single = [transcribe_batch(trained, [w], cfg)[0] for w in windows]
    assert batch == single


def test_decoding_does_not_mutate_model(trained, clean_cfg, cfg):
    digest = base_digest(trained)
    adapters_before = {k: (ad.a.values.copy(), ad.b.values.copy()) for k, ad in trained.adapters.items()}
    s = generate_song(90_060, clean_cfg, "toyla")[0]
    transcribe_batch(trained, [s.x_m], cfg)[0]
    transcribe_batch(trained, [s.x_v, s.x_m, s.x_v[: s.duration_frames // 2]], cfg)
    assert base_digest(trained) == digest
    for k, (a, b) in adapters_before.items():
        assert np.array_equal(trained.adapters[k].a.values, a)
        assert np.array_equal(trained.adapters[k].b.values, b)


# ---------------------------------------------------------------------------
# incremental decoding: a DecodeCache against the full-prefix recompute
# ---------------------------------------------------------------------------

# A cached step multiplies fewer rows than the full-prefix forward, and BLAS
# may round a row differently with the row count, so logits agree to a
# tolerance rather than bit for bit.
CACHE_TOL = dict(rtol=1e-12, atol=1e-12)


def adapted_with_nonzero_b(seed=11):
    model = build_model(ModelConfig(), seed=seed)
    attach_adapters(model, LoraSpec(), seed=seed + 1)
    rng = np.random.default_rng(seed + 2)
    for ad in model.adapters.values():
        ad.b.values[:] = 0.1 * rng.standard_normal(ad.b.values.shape)
    return model


def random_windows(model, lengths, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal((n, model.config.feature_dim)) for n in lengths]


def token_prefixes(model, bsz, length, seed):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, model.config.vocab_size, size=(bsz, length))
    y[:, 0] = BOS_ID
    return y


def full_recompute_greedy(model, windows, cfg):
    """The greedy loop with no cache: each step reruns the decoder over the whole prefix."""
    feats, mask = pad_frames(windows)
    y = np.full((len(windows), 1), BOS_ID, dtype=np.int64)
    done = np.zeros(len(windows), dtype=bool)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, train_mode=False)
        while True:
            nxt = np.argmax(decode_batch(model, enc, mask, y, False).values[:, -1, :], axis=-1)
            nxt = np.where(done, PAD_ID, nxt)
            y = np.concatenate([y, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all() or y.shape[1] >= cfg.max_tokens:
                break
    return [[int(t) for t in row if t != PAD_ID] for row in y]


def test_cached_steps_match_the_full_prefix_logits():
    model = adapted_with_nonzero_b()
    feats, mask = pad_frames(random_windows(model, [64, 23, 40, 7], seed=1))
    y = token_prefixes(model, 4, model.config.max_token_len, seed=2)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, False)
        cache = DecodeCache()
        for t in range(y.shape[1]):
            step = decode_batch(model, enc, mask, y[:, t : t + 1], False, cache=cache)
            full = decode_batch(model, enc, mask, y[:, : t + 1], False)
            np.testing.assert_allclose(step.values[:, 0], full.values[:, -1], **CACHE_TOL)
    assert cache.length == model.config.max_token_len


def test_a_chunk_after_a_filled_cache_matches_the_full_prefix_logits():
    # a 3-token chunk checks the offset causal mask and positions
    model = adapted_with_nonzero_b(seed=21)
    feats, mask = pad_frames(random_windows(model, [30, 64, 12], seed=3))
    y = token_prefixes(model, 3, 12, seed=4)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, False)
        full = decode_batch(model, enc, mask, y, False).values
        cache = DecodeCache()
        first = decode_batch(model, enc, mask, y[:, :5], False, cache=cache)
        chunk = decode_batch(model, enc, mask, y[:, 5:8], False, cache=cache)
        np.testing.assert_allclose(first.values, full[:, :5], **CACHE_TOL)
        np.testing.assert_allclose(chunk.values, full[:, 5:8], **CACHE_TOL)
        for t in range(8, 12):
            step = decode_batch(model, enc, mask, y[:, t : t + 1], False, cache=cache)
            np.testing.assert_allclose(step.values[:, 0], full[:, t], **CACHE_TOL)


@pytest.mark.parametrize("which", ["trained", "nonzero_b"])
def test_transcribe_batch_equals_the_full_recompute_greedy_loop(trained, clean_cfg, which):
    if which == "trained":
        model, cfg = trained, DecodeConfig(max_tokens=24)
        samples = [generate_song(seed, clean_cfg, "toyla")[0] for seed in range(90_140, 90_150)]
        windows = [s.x_v for s in samples] + [s.x_m[: s.duration_frames // 2] for s in samples]
    else:  # an untrained model runs on to the longest prefix the model takes
        model, cfg = adapted_with_nonzero_b(seed=31), DecodeConfig(max_tokens=48)
        windows = random_windows(model, [64, 5, 33, 48, 17], seed=5)
    assert transcribe_batch(model, windows, cfg) == full_recompute_greedy(model, windows, cfg)


def test_gradients_through_a_cached_decode_match_the_full_decode():
    # recording on: the cached keys and values must carry gradient into later steps
    model = adapted_with_nonzero_b(seed=41)
    feats, mask = pad_frames(random_windows(model, [16, 9], seed=6))
    y = token_prefixes(model, 2, 2, seed=7)
    weights = np.random.default_rng(8).standard_normal((2, 2, model.config.vocab_size))
    params = list(model.params.values()) + [t for ad in model.adapters.values() for t in (ad.a, ad.b)]

    def grads(cached: bool):
        nm.zero_grads(params)
        enc = encode_batch(model, feats, mask, False)
        if cached:
            cache = DecodeCache()
            steps = [decode_batch(model, enc, mask, y[:, t : t + 1], False, cache=cache)
                     for t in range(2)]
            loss = nm.add(*(nm.tensor_sum(nm.mul(s, nm.Tensor(weights[:, t : t + 1])))
                            for t, s in enumerate(steps)))
        else:
            logits = decode_batch(model, enc, mask, y, False)
            loss = nm.tensor_sum(nm.mul(logits, nm.Tensor(weights)))
        nm.backward(loss)
        return [p.grad.copy() for p in params]

    full, cached = grads(False), grads(True)
    for g_full, g_cached in zip(full, cached):
        np.testing.assert_allclose(g_cached, g_full, **CACHE_TOL)
    assert all(np.abs(g).max() > 0 for g in cached)


# ---------------------------------------------------------------------------
# finished rows leave the batch, and every other row's logits stay the same
# ---------------------------------------------------------------------------


def uncompacted_greedy(model, windows, cfg):
    """The greedy loop in which every row runs to the last step, a finished row
    emitting PAD: its tokens, the logits of the rows not yet finished at each
    step, and how many steps each row decoded before it finished."""
    feats, mask = pad_frames(windows)
    y = np.full((len(windows), 1), BOS_ID, dtype=np.int64)
    done = np.zeros(len(windows), dtype=bool)
    steps, own = [], np.zeros(len(windows), dtype=int)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, train_mode=False)
        cache = DecodeCache()
        while True:
            logits = decode_batch(model, enc, mask, y[:, -1:], train_mode=False, cache=cache)
            steps.append(logits.values[~done, -1, :])
            own += ~done
            nxt = np.argmax(logits.values[:, -1, :], axis=-1)
            nxt = np.where(done, PAD_ID, nxt)
            y = np.concatenate([y, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all() or y.shape[1] >= cfg.max_tokens:
                break
    return [[int(t) for t in row if t != PAD_ID] for row in y], steps, own


def assert_rows_leave_with_unchanged_logits(model, windows, cfg, monkeypatch):
    """transcribe_batch against the uncompacted loop, step by step; its tokens."""
    want_tokens, want, own = uncompacted_greedy(model, windows, cfg)
    got, fed = [], []

    def recorded(model, enc, mask, y_in, *args, **kwargs):
        logits = decode_batch(model, enc, mask, y_in, *args, **kwargs)
        got.append(logits.values[:, -1, :].copy())
        fed.append(len(y_in))
        return logits

    monkeypatch.setattr(decoding, "decode_batch", recorded)
    tokens = transcribe_batch(model, windows, cfg)
    monkeypatch.undo()
    assert tokens == want_tokens
    assert len(got) == len(want)
    for step, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape and g.tobytes() == w.tobytes(), f"step {step}"
    # the work: each row is fed to decode_batch for its own steps only
    assert sum(fed) == own.sum() < len(windows) * len(fed)
    return tokens, fed


def test_paired_vocal_and_mixture_rows_leave_the_batch_with_unchanged_logits(trained, monkeypatch):
    # more windows than decoding.ENCODE_ROWS: the reference encodes them in one part
    samples = [s for seed in range(90_200, 90_216) for s in generate_song(seed, GenConfig(), "toyla")]
    windows = [s.x_v for s in samples] + [s.x_m for s in samples]
    assert len(windows) > decoding.ENCODE_ROWS
    assert_rows_leave_with_unchanged_logits(trained, windows, DecodeConfig(max_tokens=24), monkeypatch)


def test_a_batch_where_all_rows_but_one_stop_at_the_first_step(monkeypatch):
    model = build_model(ModelConfig(), seed=9)
    windows = random_windows(model, [30, 64, 12, 50, 41, 7], seed=9)
    _, (first, *_), _ = uncompacted_greedy(model, windows, DecodeConfig(max_tokens=2))
    margin = np.delete(first, EOS_ID, axis=1).max(axis=1) - first[:, EOS_ID]  # EOS's shortfall
    survivor = int(np.argmax(margin))
    rest = np.delete(margin, survivor).max()
    assert rest < margin[survivor]
    # a bias that lifts EOS above every other row's best token, but not above the survivor's
    model.params["dec.out.b"].values[EOS_ID] += (rest + margin[survivor]) / 2
    tokens, fed = assert_rows_leave_with_unchanged_logits(model, windows, DecodeConfig(max_tokens=12),
                                                          monkeypatch)
    assert fed[:2] == [len(windows), 1]
    assert [len(row) for i, row in enumerate(tokens) if i != survivor] == [2] * (len(windows) - 1)


def test_a_row_cut_at_max_tokens_leaves_with_the_rows_that_finished(trained, monkeypatch):
    samples = [generate_song(seed, GenConfig(), "toyla")[0] for seed in range(90_220, 90_226)]
    # halved windows end sooner, so that rows finish before the longest is cut
    windows = [s.x_v for s in samples] + [s.x_m[: s.duration_frames // 2] for s in samples]
    lengths = [len(row) for row in transcribe_batch(trained, windows, DecodeConfig(max_tokens=24))]
    cap = max(lengths) - 1  # the longest rows are cut one token short of their EOS
    assert min(lengths) < cap
    tokens, fed = assert_rows_leave_with_unchanged_logits(trained, windows, DecodeConfig(max_tokens=cap),
                                                          monkeypatch)
    cut = [row for row in tokens if len(row) == cap and EOS_ID not in row]
    assert cut and len(fed) == cap - 1 and len(cut) <= fed[-1] < len(windows)


def test_a_batch_of_paired_windows_decodes_as_its_two_halves(trained):
    samples = [s for seed in range(90_230, 90_238) for s in generate_song(seed, GenConfig(), "toyla")]
    vocal, mixture = [s.x_v for s in samples], [s.x_m for s in samples]
    cfg = DecodeConfig(max_tokens=24)
    together = transcribe_batch(trained, vocal + mixture, cfg)
    assert together == transcribe_batch(trained, vocal, cfg) + transcribe_batch(trained, mixture, cfg)


# ---------------------------------------------------------------------------
# decoding records no autograd graph
# ---------------------------------------------------------------------------


def test_decode_logits_without_graph_equal_recorded_logits(trained, clean_cfg):
    samples = [generate_song(seed, clean_cfg, "toyla")[0] for seed in range(90_070, 90_076)]
    x_m, mask, y_in, _ = pad_batch([(s, "m") for s in samples])

    recorded = decode_batch(trained, encode_batch(trained, x_m, mask, False), mask, y_in, False)
    with nm.no_grad():
        free = decode_batch(trained, encode_batch(trained, x_m, mask, False), mask, y_in, False)
    assert recorded.requires_grad and not free.requires_grad
    assert np.array_equal(free.values, recorded.values)


@pytest.mark.parametrize("phase", [None, "pretrain", "finetune"])
def test_transcribe_batch_leaves_requires_grad_flags_as_they_were(clean_cfg, cfg, phase):
    # pretrain: a plain model trains its base weights; otherwise it has adapters
    model = build_model(ModelConfig(), seed=7)
    if phase != "pretrain":
        attach_adapters(model, LoraSpec(), seed=8)
    if phase is not None:
        set_trainable(model)

    def flags():
        adapters = (getattr(ad, f) for ad in model.adapters.values() for f in ("a", "b"))
        return [p.requires_grad for p in model.params.values()] + [t.requires_grad for t in adapters]

    before = flags()
    s = generate_song(90_080, clean_cfg, "toyla")[0]
    transcribe_batch(model, [s.x_v, s.x_m], cfg)
    assert flags() == before


def _traced_peak(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_decode_without_graph_peaks_at_a_quarter_of_recorded_memory(
    trained, clean_cfg, cfg, monkeypatch
):
    samples = [generate_song(seed, clean_cfg, "toyla")[0] for seed in range(90_100, 90_133)]
    windows = ([s.x_v for s in samples] + [s.x_m for s in samples])[:65]

    tokens, free_peak = _traced_peak(lambda: transcribe_batch(trained, windows, cfg))
    # the same decode with recording left on
    monkeypatch.setattr(nm, "no_grad", contextlib.nullcontext)
    recorded_tokens, recorded_peak = _traced_peak(lambda: transcribe_batch(trained, windows, cfg))
    assert tokens == recorded_tokens
    assert free_peak <= recorded_peak / 4, (free_peak, recorded_peak)


# A fresh interpreter, so that no earlier test has shaped the heap.
REPEATED_DECODE = """
import json, resource, sys
sys.path.insert(0, {src!r})
import numpy as np
from voxmix.decoding import DecodeConfig, transcribe_batch
from voxmix.model import ModelConfig, build_model
model = build_model(ModelConfig(), seed=0)
rng = np.random.default_rng(0)
windows = [rng.standard_normal((64, 16)) for _ in range(65)]
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    transcribe_batch(model, windows, DecodeConfig(max_tokens=4))
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="page-fault counts are Linux's")
def test_repeated_batch_decode_reuses_resident_memory():
    # with glibc's moving thresholds, each 65-window decode after the first
    # faulted in thousands of fresh pages
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run([sys.executable, "-c", REPEATED_DECODE.format(src=src)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    first, *later = json.loads(done.stdout)
    assert first > 0 and max(later) < 100, (first, later)
