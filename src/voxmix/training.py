"""Pretraining and fine-tuning loops: Adam with fixed constants and a
linear warmup/decay schedule, input-selection strategies over paired
samples, and the per-step strategy loss.

A step trains on (sample, domain) rows: voc, mix and random pick one
domain per sample, both and cns take the vocal and the mixture row of
every sample. The rows go through the shared model in one padded batch,
vocal rows first, and the strategy combines the per-domain losses: the
single loss for voc and mix, token weighting for random when a batch holds
both domains, and the mean of the two for both and cns, with cns adding
the weighted encoder-consistency term. One backward pass per step, then
one Adam update of the model's trainable parameters (its adapters, if
any), whose moments `m` and `v` are two flat float64 arrays over every
parameter's values in `params` order; a resume file would store those two
arrays. The loop is `next_batch` then `train_step` over one `TrainState`, the
run's whole position; `train_step` returns the row `run_experiment` logs:
`step`, `lr`, `l_v`, `l_m`, `l_cns` (None for an absent term) and `l_total`.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from voxmix import numerics as nm
from voxmix.files import atomic_write
from voxmix.losses import LossConfig, alt_loss, consistency_loss
from voxmix.model import TranscriberModel, decode_batch, encode_batch, pad_frames
from voxmix.model import base_reference, save_checkpoint, set_trainable
from voxmix.numerics import Tensor, backward, zero_grads
from voxmix.synthdata import PAD_ID, PairedSample


class NonFiniteLossError(RuntimeError):
    def __init__(self, step: int, value: float):
        super().__init__(f"non-finite loss {value!r} at step {step}")
        self.step = step


@dataclass
class PhasePlanSpec:
    """A training phase's schedule, batch size and seed; Adam's constants belong to `adam_step`."""

    peak_lr: float
    total_steps: int
    batch_size: int
    seed: int = 0
    warmup_frac: float = 0.1

    def __post_init__(self):
        """Raise a ValueError naming the field of a setting training cannot use."""
        rules = (
            ("total_steps", self.total_steps >= 2, ">= 2"),
            ("warmup_frac", 0 < self.warmup_frac < 1, "in (0, 1)"),
            ("batch_size", self.batch_size >= 1, ">= 1"),
            ("peak_lr", self.peak_lr > 0, "> 0"),
            ("seed", self.seed >= 0, ">= 0"),
        )
        for name, ok, want in rules:
            if not ok:
                raise ValueError(f"{name} must be {want}, got {getattr(self, name)!r}")


@dataclass
class TrainPlan:
    """One training run's loss and settings; the model decides what trains."""

    loss: LossConfig
    settings: PhasePlanSpec


def learning_rate(step: int, settings: PhasePlanSpec) -> float:
    """Linear warmup to peak at step W = ceil(warmup_frac * T), linear decay to 0 at T."""
    warmup = math.ceil(settings.warmup_frac * settings.total_steps)
    if step <= warmup:
        return settings.peak_lr * step / warmup
    return settings.peak_lr * (settings.total_steps - step) / (settings.total_steps - warmup)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------


def adam_step(
    params: list[Tensor],
    grads: list[np.ndarray],
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    lr: float,
) -> None:
    """Bias-corrected Adam update number `step` (from 1) of params, m and v, in place.

    `m` and `v` are flat float64 arrays over every parameter's values in
    `params` order; the update runs over them at once, then each parameter
    takes its own slice of it.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Kingma & Ba's defaults; no spec varies them
    if len(grads) != len(params):
        raise ValueError(f"got {len(grads)} grads for {len(params)} params")
    for i, g in enumerate(grads):
        if g is None:
            raise ValueError(f"parameter {i} has no gradient")
    g = np.concatenate(grads, axis=None)
    if not np.isfinite(g).all():
        i = next(i for i, g_i in enumerate(grads) if not np.isfinite(g_i).all())
        raise ValueError(
            f"non-finite gradient in parameter {i} "
            f"(shape {grads[i].shape}) at optimizer step {step}"
        )
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    # m = b1*m + (1-b1)*g, v = b2*v + (1-b2)*(g*g) and p -= lr*(m/c1) / (sqrt(v/c2) + eps),
    # op for op in that order, so each value rounds as a per-parameter update would
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    g *= g
    g *= 1.0 - beta2
    v += g
    denom = np.divide(v, c2, out=g)
    np.sqrt(denom, out=denom)
    denom += eps
    update = m / c1
    update *= lr
    update /= denom
    start = 0
    for p in params:
        stop = start + p.values.size
        p.values -= update[start:stop].reshape(p.values.shape)
        start = stop


# ---------------------------------------------------------------------------
# strategy input selection and batch assembly
# ---------------------------------------------------------------------------


def select_inputs(strategy: str, rng: np.random.Generator) -> list[str]:
    """The domain tags ("v" vocal, "m" mixture) of a paired sample this strategy trains on."""
    if strategy == "voc":
        return ["v"]
    if strategy == "mix":
        return ["m"]
    if strategy == "random":
        return ["v"] if rng.random() < 0.5 else ["m"]
    if strategy in ("both", "cns"):
        return ["v", "m"]
    raise ValueError(f"unknown strategy {strategy!r}")


def pad_batch(rows: list[tuple[PairedSample, str]]):
    """Stack (sample, domain) rows into padded features (B, T, F), a validity
    mask (B, T) and teacher-forcing inputs and targets (B, L)."""
    x, frame_mask = pad_frames([s.x_v if domain == "v" else s.x_m for s, domain in rows])
    l_max = max(len(s.tokens) - 1 for s, _ in rows)
    y_in = np.full((len(rows), l_max), PAD_ID, dtype=np.int64)
    y_out = np.full((len(rows), l_max), PAD_ID, dtype=np.int64)
    for i, (s, _) in enumerate(rows):
        toks = np.asarray(s.tokens, dtype=np.int64)
        y_in[i, : toks.size - 1] = toks[:-1]
        y_out[i, : toks.size - 1] = toks[1:]
    return x, frame_mask, y_in, y_out


@dataclass
class TrainState:
    """Plain data, each fact once: the trainable parameters, their Adam moments,
    the steps taken, the plan's three RNG streams and the data order.

    Each parameter is its own array; the moments `m` and `v` are one flat
    float64 array each, over every parameter's values in `params` order.
    """

    params: list[Tensor]
    m: np.ndarray
    v: np.ndarray
    data_rng: np.random.Generator
    domain_rng: np.random.Generator
    dropout_rng: np.random.Generator
    step: int = 0
    order: np.ndarray = field(default_factory=lambda: np.empty(0, np.int64))  # the epoch's permutation
    offset: int = 0  # how many samples of `order` were drawn


def make_train_state(model: TranscriberModel, plan: TrainPlan) -> TrainState:
    params = set_trainable(model)
    size = sum(p.values.size for p in params)
    seqs = np.random.SeedSequence(plan.settings.seed).spawn(3)
    return TrainState(
        params=params,
        m=np.zeros(size),
        v=np.zeros(size),
        data_rng=np.random.default_rng(seqs[0]),
        domain_rng=np.random.default_rng(seqs[1]),
        dropout_rng=np.random.default_rng(seqs[2]),
    )


def _losses(model, samples, plan, state):
    """One forward over the step's (sample, domain) rows, vocal rows first;
    returns the loss to train on and the loss fields of the log row."""
    strategy = plan.loss.strategy
    picks = [(s, tag) for s in samples for tag in select_inputs(strategy, state.domain_rng)]
    rows = sorted(picks, key=lambda row: row[1] != "v")  # stable: sample order within a domain
    n, n_v = len(rows), sum(tag == "v" for _, tag in rows)

    x, frame_mask, y_in, y_out = pad_batch(rows)
    enc = encode_batch(model, x, frame_mask, True, state.dropout_rng)
    logits = decode_batch(model, enc, frame_mask, y_in, True, state.dropout_rng)
    l_v = alt_loss(nm.narrow(logits, 0, n_v), y_out[:n_v]) if n_v else None
    l_m = alt_loss(nm.narrow(logits, n_v, n), y_out[n_v:]) if n_v < n else None

    l_cns = None
    if strategy in ("both", "cns"):
        total = nm.scale(nm.add(l_v, l_m), 0.5)
        if strategy == "cns":
            e_v, e_m = nm.narrow(enc, 0, n_v), nm.narrow(enc, n_v, n)
            l_cns = consistency_loss(e_v, e_m, plan.loss.cns_kind, frame_mask[:n_v])
            total = nm.add(total, nm.scale(l_cns, float(plan.loss.weight)))
    elif l_v is not None and l_m is not None:
        tokens_v = int((y_out[:n_v] != PAD_ID).sum())
        tokens_m = int((y_out[n_v:] != PAD_ID).sum())
        total_tokens = tokens_v + tokens_m
        total = nm.add(
            nm.scale(l_v, tokens_v / total_tokens), nm.scale(l_m, tokens_m / total_tokens)
        )
    else:
        total = l_v if l_v is not None else l_m
    scalars = {"l_v": l_v, "l_m": l_m, "l_cns": l_cns, "l_total": total}
    return total, {key: t.item() if t is not None else None for key, t in scalars.items()}


def train_step(
    model: TranscriberModel,
    batch: list[PairedSample],
    plan: TrainPlan,
    state: TrainState,
) -> dict:
    """Zero grads, one forward/backward on the strategy loss, one Adam update;
    returns the step's log row."""
    step = state.step + 1
    lr = learning_rate(step, plan.settings)

    zero_grads(state.params)
    total, losses = _losses(model, batch, plan, state)
    if not np.isfinite(losses["l_total"]):
        raise NonFiniteLossError(step, losses["l_total"])
    backward(total)
    adam_step(state.params, [p.grad for p in state.params], state.m, state.v, step, lr)
    state.step = step
    return {"step": step, "lr": lr, **losses}


def next_batch(state: TrainState, corpus: list[PairedSample], batch_size: int) -> list:
    """The epoch's next `batch_size` samples, fewer at its end; `state.data_rng` draws each order."""
    if state.offset >= len(state.order):
        state.order, state.offset = state.data_rng.permutation(len(corpus)), 0
    start, state.offset = state.offset, state.offset + batch_size
    return [corpus[j] for j in state.order[start : state.offset]]


def run_experiment(
    plan: TrainPlan,
    corpus: list[PairedSample],
    model: TranscriberModel,
    metrics_path,
    checkpoint_path=None,
    seed_lineage: dict | None = None,
) -> None:
    """Run one training phase to completion; deterministic given plan and
    corpus. Returns nothing: the metrics log is the run's record.

    Emits a JSON-lines metrics log, written during training to
    `.<name>.tmp` beside `metrics_path` and renamed into place after the last
    step, and a final checkpoint when a path is given (see model.save_checkpoint;
    a model it would refuse is refused before step 1). A non-finite loss, or any
    other exception, aborts before either is put in place, so a previous log
    or checkpoint at those paths is left as it was; the log of the steps
    before the abort is kept as `<metrics_path>.aborted`. The NaN error names
    that file and, for a fine-tune, the base checkpoint it started from.
    """
    if not corpus:
        raise ValueError("empty corpus")
    if checkpoint_path is not None:
        base_reference(model, checkpoint_path)  # raises for a model it could not save
    state = make_train_state(model, plan)
    aborted = f"{os.fspath(metrics_path)}.aborted"
    with atomic_write(metrics_path, partial=aborted) as fh:
        for _ in range(plan.settings.total_steps):
            try:
                row = train_step(model, next_batch(state, corpus, plan.settings.batch_size), plan, state)
            except NonFiniteLossError as err:
                hint = f"the steps before it are logged in {aborted}; no checkpoint was written"
                base = model.base_file
                if base is not None and os.path.exists(base.path):
                    hint += f"; restart from the base checkpoint {base.path}"
                raise RuntimeError(f"{err}; {hint}") from err
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, seed_lineage)
