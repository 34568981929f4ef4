import copy
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from voxmix.losses import LossConfig
from voxmix.model import (
    LoraSpec,
    ModelConfig,
    attach_adapters,
    base_digest,
    build_model,
    load_checkpoint,
    save_checkpoint,
    share_base,
)
from loss_reference import per_parameter, reference_adam_step, reference_step
from voxmix import training
from voxmix.numerics import Tensor
from voxmix.synthdata import GenConfig, build_corpus
from voxmix.training import (
    NonFiniteLossError,
    PhasePlanSpec,
    TrainPlan,
    adam_step,
    learning_rate,
    make_train_state,
    next_batch,
    pad_batch,
    run_experiment,
    select_inputs,
    train_step,
)


# ---------------------------------------------------------------------------
# schedule
# ---------------------------------------------------------------------------


def test_schedule_formula_points():
    settings = PhasePlanSpec(peak_lr=1e-3, total_steps=100, batch_size=1, warmup_frac=0.1)
    assert learning_rate(10, settings) == pytest.approx(1e-3, abs=1e-18)
    assert learning_rate(0, settings) == 0.0
    assert learning_rate(100, settings) == 0.0
    assert learning_rate(55, settings) == pytest.approx(1e-3 * 45 / 90, abs=1e-18)


def test_schedule_piecewise_linear_and_single_peak():
    rng = np.random.default_rng(0)
    for _ in range(10):
        total = int(rng.integers(10, 500))
        frac = float(rng.uniform(0.05, 0.5))
        peak = float(rng.uniform(1e-4, 1e-2))
        settings = PhasePlanSpec(peak_lr=peak, total_steps=total, batch_size=1, warmup_frac=frac)
        warmup = math.ceil(frac * total)
        values = [learning_rate(s, settings) for s in range(total + 1)]
        assert values[0] == 0.0
        assert values[warmup] == pytest.approx(peak, rel=1e-12)
        assert values[total] == pytest.approx(0.0, abs=1e-18)
        assert max(values) == values[warmup]
        # both segments have constant slope
        up = np.diff(values[: warmup + 1])
        down = np.diff(values[warmup:])
        assert np.allclose(up, up[0], atol=1e-15)
        assert np.allclose(down, down[0], atol=1e-15)


# ---------------------------------------------------------------------------
# Adam against an independent recurrence
# ---------------------------------------------------------------------------


def test_adam_first_step_direction():
    p = Tensor(np.array([1.0]), requires_grad=True)
    g = np.array([0.3])
    adam_step([p], [g], np.zeros(1), np.zeros(1), 1, lr=0.01)
    # bias-corrected first step is about -lr * sign(g)
    assert p.values[0] == pytest.approx(1.0 - 0.01 * 0.3 / (abs(0.3) + 1e-8), rel=1e-6)


def test_adam_zero_gradient_keeps_parameter():
    p = Tensor(np.array([2.0]), requires_grad=True)
    adam_step([p], [np.zeros(1)], np.zeros(1), np.zeros(1), 1, lr=0.5)
    assert p.values[0] == 2.0


def test_adam_rejects_non_finite_gradients():
    p = Tensor(np.array([1.0]), requires_grad=True)
    with pytest.raises(ValueError, match="non-finite gradient .* at optimizer step 3"):
        adam_step([p], [np.array([np.nan])], np.zeros(1), np.zeros(1), 3, lr=0.1)


def test_adam_five_step_trace_matches_hand_recurrence():
    # minimize f(x) = x^2 from x = 1: grad = 2x; Kingma & Ba's constants are the reference
    lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
    p = Tensor(np.array([1.0]), requires_grad=True)
    moments = np.zeros(1), np.zeros(1)

    x = 1.0
    m = 0.0
    v = 0.0
    expected = []
    for t in range(1, 6):
        g = 2.0 * x
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1**t)
        v_hat = v / (1 - b2**t)
        x = x - lr * m_hat / (math.sqrt(v_hat) + eps)
        expected.append(x)

    got = []
    for t in range(1, 6):
        grad = 2.0 * p.values.copy()
        adam_step([p], [grad], *moments, t, lr)
        got.append(float(p.values[0]))

    for a, b in zip(got, expected):
        assert abs(a - b) <= 1e-12


def test_adam_scale_consistency_property():
    # identical gradient streams on two parameters stay in lockstep
    rng = np.random.default_rng(1)
    p1 = Tensor(np.array([0.7]), requires_grad=True)
    p2 = Tensor(np.array([0.7]), requires_grad=True)
    m, v = np.zeros(2), np.zeros(2)
    for t in range(1, 11):
        g = rng.standard_normal(1)
        adam_step([p1, p2], [g, g.copy()], m, v, t, lr=0.05)
        assert p1.values[0] == p2.values[0]


SHAPES = [(1,), (2, 3), (4,)]


def _adam_params(rng):
    return [Tensor(rng.standard_normal(shape), requires_grad=True) for shape in SHAPES]


def test_flat_adam_matches_the_per_parameter_update_bit_for_bit():
    rng = np.random.default_rng(7)
    params = _adam_params(rng)
    ref_params = [Tensor(p.values.copy(), requires_grad=True) for p in params]
    size = sum(p.values.size for p in params)
    m, v = np.zeros(size), np.zeros(size)
    ref_m, ref_v = [np.zeros(shape) for shape in SHAPES], [np.zeros(shape) for shape in SHAPES]
    for step in range(1, 7):
        grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-4, 3) for shape in SHAPES]
        lr = float(rng.uniform(1e-4, 1e-1))
        adam_step(params, [g.copy() for g in grads], m, v, step, lr)
        reference_adam_step(ref_params, grads, ref_m, ref_v, step, lr)
        for p, q in zip(params, ref_params):
            assert p.values.tobytes() == q.values.tobytes()
        for flat, ref in ((m, ref_m), (v, ref_v)):
            assert [a.tobytes() for a in per_parameter(params, flat)] == [a.tobytes() for a in ref]


def test_adam_names_the_parameter_with_a_non_finite_gradient():
    rng = np.random.default_rng(8)
    params = _adam_params(rng)
    grads = [rng.standard_normal(shape) for shape in SHAPES]
    grads[1][1, 2] = np.nan
    before = [p.values.copy() for p in params]
    m, v = np.zeros(7), np.zeros(7)
    with pytest.raises(ValueError) as err:
        adam_step(params, grads, m, v, 4, lr=0.1)
    assert str(err.value) == "non-finite gradient in parameter 1 (shape (2, 3)) at optimizer step 4"
    assert all(np.array_equal(p.values, b) for p, b in zip(params, before))  # refused before any update
    assert not m.any() and not v.any()


def test_adam_refuses_a_missing_gradient():
    rng = np.random.default_rng(9)
    params = _adam_params(rng)
    grads = [rng.standard_normal(shape) for shape in SHAPES]
    grads[2] = None
    with pytest.raises(ValueError, match="^parameter 2 has no gradient$"):
        adam_step(params, grads, np.zeros(7), np.zeros(7), 1, lr=0.1)


# ---------------------------------------------------------------------------
# strategy input selection
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gen_cfg():
    return GenConfig()


def test_select_voc_only():
    assert select_inputs("voc", np.random.default_rng(0)) == ["v"]


def test_select_mix_only():
    assert select_inputs("mix", np.random.default_rng(0)) == ["m"]


def test_select_paired_for_both_and_cns():
    for strategy in ("both", "cns"):
        assert select_inputs(strategy, np.random.default_rng(0)) == ["v", "m"]


def test_select_random_is_reproducible_fair_coin():
    rng = np.random.default_rng(7)
    tags = [select_inputs("random", rng)[0] for _ in range(10_000)]
    rate = tags.count("v") / len(tags)
    assert abs(rate - 0.5) <= 0.05
    rng2 = np.random.default_rng(7)
    tags2 = [select_inputs("random", rng2)[0] for _ in range(10_000)]
    assert tags == tags2


def test_random_rng_consumption_independent_of_content(gen_cfg):
    # same seed, two different corpora of equal size: a random-strategy step
    # leaves the domain coin in the same state
    a = build_corpus(gen_cfg, songs_per_language=4, seed_base=0)
    b = build_corpus(gen_cfg, songs_per_language=4, seed_base=5000)
    plan = finetune_plan("random")
    states = []
    for corpus in (a, b):
        model = adapted()
        state = make_train_state(model, plan)
        train_step(model, corpus[:8], plan, state)
        states.append(state.domain_rng.bit_generator.state)
    assert states[0] == states[1]


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus(gen_cfg):
    return build_corpus(gen_cfg, songs_per_language=6, seed_base=0)


def finetune_plan(strategy, steps=10, cns_kind="L2", weight=1.0):
    loss = LossConfig(strategy=strategy, cns_kind=cns_kind, weight=weight)
    return TrainPlan(loss, PhasePlanSpec(peak_lr=1e-3, total_steps=steps, batch_size=8, seed=11))


def pretrain_plan(steps, batch_size=4, seed=0):
    settings = PhasePlanSpec(peak_lr=3e-3, total_steps=steps, batch_size=batch_size, seed=seed)
    return TrainPlan(LossConfig(strategy="voc"), settings)


def adapted(seed=0, dropout=0.1):
    model = build_model(ModelConfig(), seed=seed)
    attach_adapters(model, LoraSpec(dropout=dropout), seed=seed + 1)
    return model


def test_train_step_cns_breakdown_satisfies_combination_exactly(tiny_corpus):
    model = adapted()
    both = finetune_plan("both")
    average = train_step(model, tiny_corpus[:4], both, make_train_state(model, both))["l_total"]
    for weight in (0.0, 0.7, 10.0):
        model = adapted()
        plan = finetune_plan("cns", weight=weight)
        state = make_train_state(model, plan)
        row = train_step(model, tiny_corpus[:4], plan, state)
        assert row["l_total"] == (row["l_v"] + row["l_m"]) / 2 + weight * row["l_cns"]
        assert row["l_cns"] > 0.0
        if weight == 0.0:  # the both average, bit for bit
            assert row["l_total"] == average


def test_train_step_both_with_zero_interference_degenerates(gen_cfg):
    cfg = replace(gen_cfg, gain_range=(0.0, 0.0))
    corpus = build_corpus(cfg, songs_per_language=2, seed_base=0)
    model = adapted(dropout=0.0)  # no dropout so the two passes are identical
    plan = finetune_plan("both")
    state = make_train_state(model, plan)
    row = train_step(model, corpus[:4], plan, state)
    assert row["l_v"] == row["l_m"]
    assert row["l_total"] == (row["l_v"] + row["l_m"]) / 2
    assert row["l_cns"] is None

    plan_cns = finetune_plan("cns", weight=10.0)
    state = make_train_state(model, plan_cns)
    row = train_step(model, corpus[:4], plan_cns, state)
    assert row["l_cns"] == 0.0
    assert row["l_total"] == (row["l_v"] + row["l_m"]) / 2


def test_train_step_single_domain_breakdown(tiny_corpus):
    model = adapted()
    plan = finetune_plan("voc")
    state = make_train_state(model, plan)
    row = train_step(model, tiny_corpus[:4], plan, state)
    assert row == {"step": 1, "lr": learning_rate(1, plan.settings), "l_v": row["l_v"], "l_m": None,
                   "l_cns": None, "l_total": row["l_v"]}


def test_train_step_updates_only_adapters(tiny_corpus):
    model = adapted()
    digest = base_digest(model)
    plan = finetune_plan("cns", steps=5)
    state = make_train_state(model, plan)
    before = [ad.b.values.copy() for ad in model.adapters.values()]
    for _ in range(5):
        row = train_step(model, tiny_corpus[:4], plan, state)
    assert base_digest(model) == digest
    after = [ad.b.values for ad in model.adapters.values()]
    assert any(not np.array_equal(x, y) for x, y in zip(before, after))
    assert np.isfinite(row["l_total"])


def test_pad_batch_masks(tiny_corpus):
    batch = tiny_corpus[:3]
    rows = [(s, "v") for s in batch] + [(s, "m") for s in batch]
    x, frame_mask, y_in, y_out = pad_batch(rows)
    assert x.shape[0] == len(rows)
    for i, (s, domain) in enumerate(rows):
        t = s.duration_frames
        assert np.array_equal(x[i, :t], s.x_v if domain == "v" else s.x_m)
        assert not x[i, t:].any()
        assert frame_mask[i, :t].all() and not frame_mask[i, t:].any()
        n = len(s.tokens) - 1
        assert list(y_in[i, :n]) == s.tokens[:-1]
        assert list(y_out[i, :n]) == s.tokens[1:]
        assert (y_in[i, n:] == 0).all() and (y_out[i, n:] == 0).all()


@pytest.mark.parametrize(
    "phase, strategy, cns_kind, weight",
    [
        ("finetune", "voc", "L2", 1.0),
        ("finetune", "mix", "L2", 1.0),
        ("finetune", "random", "L2", 1.0),
        ("finetune", "both", "L2", 1.0),
        ("finetune", "cns", "L1", 0.1),
        ("finetune", "cns", "L2", 10.0),
        ("pretrain", "voc", "L2", 1.0),
    ],
)
def test_one_loss_path_equals_the_two_path_reference(tiny_corpus, phase, strategy, cns_kind, weight):
    # the parent's stacked dual path and per-pick single path, bit for bit:
    # log row, every trainable gradient and the updated weights; the phase
    # picks the model, which decides what trains
    loss = LossConfig(strategy=strategy, cns_kind=cns_kind, weight=weight)
    plan = TrainPlan(loss, PhasePlanSpec(peak_lr=1e-3, total_steps=10, batch_size=8, seed=5))
    sides = []
    for _ in range(2):
        model = adapted() if phase == "finetune" else build_model(ModelConfig(), seed=0)
        sides.append((model, make_train_state(model, plan)))
    (ref_model, ref_state), (model, state) = sides
    for _ in range(4):
        want = reference_step(ref_model, next_batch(ref_state, tiny_corpus, 8), plan, ref_state)
        got = train_step(model, next_batch(state, tiny_corpus, 8), plan, state)
        assert got == want
        for ref_p, p in zip(ref_state.params, state.params):
            assert p.grad.tobytes() == ref_p.grad.tobytes()
            assert p.values.tobytes() == ref_p.values.tobytes()
    if strategy == "random":
        assert got["l_v"] is not None and got["l_m"] is not None


# ---------------------------------------------------------------------------
# run_experiment
# ---------------------------------------------------------------------------


def test_run_experiment_is_byte_deterministic(tiny_corpus, tmp_path):
    plan = finetune_plan("cns", steps=8)
    save_checkpoint(build_model(ModelConfig(), seed=0), tmp_path / "base.json")
    base, _ = load_checkpoint(tmp_path / "base.json")
    for run in ("a", "b"):
        model = share_base(base)
        attach_adapters(model, LoraSpec(), seed=1)
        run_experiment(
            plan,
            tiny_corpus,
            model,
            tmp_path / f"metrics_{run}.jsonl",
            tmp_path / f"ckpt_{run}.json",
        )
    assert (tmp_path / "metrics_a.jsonl").read_bytes() == (tmp_path / "metrics_b.jsonl").read_bytes()
    assert (tmp_path / "ckpt_a.json").read_bytes() == (tmp_path / "ckpt_b.json").read_bytes()


def test_run_experiment_refuses_a_model_it_could_not_save_before_step_1(tiny_corpus, tmp_path, monkeypatch):
    def step(*args):
        raise AssertionError("a step ran")

    monkeypatch.setattr(training, "train_step", step)
    model = adapted()  # adapters over a base that no full checkpoint holds
    ckpt = tmp_path / "cell.json"
    with pytest.raises(ValueError, match="its base was not loaded from a full checkpoint") as err:
        run_experiment(finetune_plan("voc", steps=4), tiny_corpus, model, tmp_path / "m.jsonl", ckpt)
    assert str(err.value).startswith(f"{ckpt}: cannot save an adapted model")
    assert list(tmp_path.iterdir()) == []


def test_run_experiment_pretrain_moves_base_finetune_does_not(tiny_corpus, tmp_path):
    model = build_model(ModelConfig(), seed=2)
    digest0 = base_digest(model)
    run_experiment(pretrain_plan(6), tiny_corpus, model, tmp_path / "pre.jsonl")
    digest1 = base_digest(model)
    assert digest1 != digest0

    attach_adapters(model, LoraSpec(), seed=9)
    ft_plan = finetune_plan("both", steps=6)
    run_experiment(ft_plan, tiny_corpus, model, tmp_path / "ft.jsonl")
    assert base_digest(model) == digest1


@pytest.mark.parametrize("adapters", [False, True], ids=["plain", "adapted"])
def test_run_experiment_trains_what_the_model_holds(tiny_corpus, tmp_path, adapters):
    # the plan names no phase: a plain model trains its base weights under a
    # fine-tune strategy too, an adapted one only its adapters under pretrain settings
    model = build_model(ModelConfig(), seed=2)
    if adapters:
        attach_adapters(model, LoraSpec(), seed=9)
    digest = base_digest(model)
    plan = pretrain_plan(3) if adapters else finetune_plan("both", steps=3)
    run_experiment(plan, tiny_corpus, model, tmp_path / "m.jsonl")
    assert (base_digest(model) == digest) == adapters
    assert any(ad.b.values.any() for ad in model.adapters.values()) == adapters


def test_metrics_log_schema(tiny_corpus, tmp_path):
    model = adapted()
    plan = finetune_plan("cns", steps=4)
    run_experiment(plan, tiny_corpus, model, tmp_path / "m.jsonl")
    lines = (tmp_path / "m.jsonl").read_text().splitlines()
    assert len(lines) == 4
    for i, line in enumerate(lines, start=1):
        rec = json.loads(line)
        assert set(rec) == {"step", "lr", "l_v", "l_m", "l_cns", "l_total"}
        assert rec["step"] == i
        assert all(isinstance(rec[k], float) for k in ("lr", "l_v", "l_m", "l_cns", "l_total"))


def _nan_biased_base(tmp_path):
    """A saved base whose output biases are NaN, so the first loss is NaN."""
    model = build_model(ModelConfig(), seed=2)
    model.params["dec.out.b"].values[:] = np.nan
    path = tmp_path / "base.json"
    save_checkpoint(model, path)
    return path


def test_nan_abort_of_a_finetune_names_its_base(tiny_corpus, tmp_path):
    base_path = _nan_biased_base(tmp_path)
    base, _ = load_checkpoint(base_path)
    model = share_base(base)
    attach_adapters(model, LoraSpec(), seed=9)
    ckpt = tmp_path / "cell.json"
    with pytest.raises(RuntimeError, match="non-finite loss") as err:
        run_experiment(finetune_plan("voc", steps=4), tiny_corpus, model, tmp_path / "m.jsonl", ckpt)
    assert "no checkpoint was written" in str(err.value)
    assert f"restart from the base checkpoint {base_path}" in str(err.value)
    assert not ckpt.exists()


def test_nan_abort_does_not_name_a_stale_checkpoint(tiny_corpus, tmp_path):
    model, _ = load_checkpoint(_nan_biased_base(tmp_path))
    stale = tmp_path / "stale.json"
    stale.write_text("{}")
    plan = pretrain_plan(4)
    with pytest.raises(RuntimeError, match="no checkpoint was written") as err:
        run_experiment(plan, tiny_corpus, model, tmp_path / "m.jsonl", stale)
    assert str(stale) not in str(err.value)
    assert "base.json" not in str(err.value)
    assert stale.read_text() == "{}"


def test_nan_abort_keeps_the_partial_log_beside_the_previous_one(tiny_corpus, tmp_path, monkeypatch):
    calls = []

    def step(*args):
        calls.append(None)
        if len(calls) == 3:
            raise NonFiniteLossError(3, float("nan"))
        return train_step(*args)

    monkeypatch.setattr(training, "train_step", step)
    log = tmp_path / "m.jsonl"
    log.write_text("previous\n")
    plan = pretrain_plan(4)
    with pytest.raises(RuntimeError, match="non-finite loss") as err:
        run_experiment(plan, tiny_corpus, build_model(ModelConfig(), seed=2), log)
    aborted = tmp_path / "m.jsonl.aborted"
    assert f"the steps before it are logged in {aborted}" in str(err.value)
    assert log.read_text() == "previous\n"
    assert [json.loads(line)["step"] for line in aborted.read_text().splitlines()] == [1, 2]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl", "m.jsonl.aborted"]

    # a rerun that completes leaves no partial log of the failed one beside its own
    monkeypatch.undo()
    run_experiment(plan, tiny_corpus, build_model(ModelConfig(), seed=2), log)
    assert [json.loads(line)["step"] for line in log.read_text().splitlines()] == [1, 2, 3, 4]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.jsonl"]


def test_write_to_shared_base_during_finetune_raises(tiny_corpus, tmp_path):
    path = tmp_path / "base.json"
    save_checkpoint(build_model(ModelConfig(), seed=2), path)
    base, _ = load_checkpoint(path)
    digest = base_digest(base)
    model = share_base(base)
    attach_adapters(model, LoraSpec(), seed=9)
    run_experiment(finetune_plan("cns", steps=3), tiny_corpus, model, tmp_path / "ft.jsonl")
    assert base_digest(base) == digest

    # without adapters the model trains every base weight, which would write
    # into the shared arrays
    with pytest.raises(ValueError, match="read-only"):
        run_experiment(pretrain_plan(3), tiny_corpus, share_base(base), tmp_path / "pre.jsonl")
    assert base_digest(base) == digest


def test_finetune_loss_drops_at_desk_scale(gen_cfg, tiny_corpus, tmp_path):
    # pretrain on the clean distribution, then 200 fine-tune steps on the
    # shifted one cut the training loss by at least 30% from its start
    clean_cfg = replace(gen_cfg, jitter=0.1, gain_range=(0.0, 0.0))
    clean = build_corpus(clean_cfg, songs_per_language=6, seed_base=20_000)
    model = build_model(ModelConfig(), seed=4)
    run_experiment(pretrain_plan(200, batch_size=8, seed=1), clean, model, tmp_path / "pre.jsonl")
    attach_adapters(model, LoraSpec(), seed=2)
    plan = finetune_plan("cns", steps=200)
    run_experiment(plan, tiny_corpus, model, tmp_path / "ft.jsonl")
    history = [json.loads(line) for line in (tmp_path / "ft.jsonl").read_text().splitlines()]
    start = history[0]["l_total"]
    tail = np.mean([row["l_total"] for row in history[-10:]])
    assert tail <= 0.7 * start


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def test_plan_validation():
    with pytest.raises(ValueError, match=r"^warmup_frac must be in \(0, 1\), got 0.0$"):
        PhasePlanSpec(1e-3, 10, 8, warmup_frac=0.0)


def test_a_run_continues_bit_for_bit_from_a_copy_of_its_train_state(tiny_corpus):
    # besides the corpus, a step reads and writes only the model's trainable
    # tensors and the TrainState, data order included, so a copy of both
    # resumes the run exactly. The 29 samples at batch 8 end the first epoch
    # at step 4 with 5 samples, and the second order is drawn at step 5: the
    # copy is cut mid-epoch and at the epoch's end, and both run to step 7.
    plan = finetune_plan("random", steps=8)

    def run(model, state, steps):
        return [train_step(model, next_batch(state, tiny_corpus, 8), plan, state) for _ in range(steps)]

    for cut in (3, 4):
        model = adapted()
        state = make_train_state(model, plan)
        run(model, state, cut)
        saved = copy.deepcopy(state)
        assert len(tiny_corpus) == len(saved.order) == 29 and saved.offset == 8 * cut
        want = run(model, state, 7 - cut)
        assert state.offset == 8 * 3  # three steps into the second epoch

        resumed_model = adapted()
        fresh = make_train_state(resumed_model, plan)
        for p, q in zip(fresh.params, saved.params):
            p.values[...] = q.values
        resumed = replace(saved, params=fresh.params)
        assert run(resumed_model, resumed, 7 - cut) == want
        assert np.array_equal(resumed.order, state.order) and resumed.offset == state.offset
        for p, q in zip(resumed.params, state.params):
            assert p.values.tobytes() == q.values.tobytes()


def test_data_rng_deterministic():
    # the batch order is the plan seed's first spawned stream, drawn from a
    # new generator for every train state
    plan = finetune_plan("voc")
    a = make_train_state(adapted(), plan).data_rng.permutation(10)
    b = make_train_state(adapted(), plan).data_rng.permutation(10)
    first = np.random.default_rng(np.random.SeedSequence(plan.settings.seed).spawn(3)[0])
    assert np.array_equal(a, b) and np.array_equal(a, first.permutation(10))
