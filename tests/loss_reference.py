"""The two loss paths that training used before it built every strategy's
loss in one forward over (sample, domain) rows, and the per-parameter Adam
update it used before its moments were flat, kept as a reference.

`_dual_losses` stacked the vocal and mixture halves of a paired batch for
both and cns; `_single_domain_losses` ran the per-sample picks of voc, mix
and random. `reference_adam_step` updates one moment array per parameter.
`reference_step` is a train step over them that returns the log row. Tests
compare `training.train_step` and `training.adam_step` against them bit for
bit.
"""

from __future__ import annotations

import numpy as np

from voxmix import numerics as nm
from voxmix.losses import alt_loss, consistency_loss
from voxmix.model import decode_batch, encode_batch
from voxmix.numerics import Tensor, backward, zero_grads
from voxmix.synthdata import PAD_ID
from voxmix.training import learning_rate, select_inputs


def reference_adam_step(params, grads, m, v, step, lr) -> None:
    """Bias-corrected Adam update number `step` of params and of the per-parameter
    moment arrays m and v, in place, one parameter at a time."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    if len(grads) != len(params):
        raise ValueError(f"got {len(grads)} grads for {len(params)} params")
    for i, g in enumerate(grads):
        if g is None:
            raise ValueError(f"parameter {i} has no gradient")
        if not np.isfinite(g).all():
            raise ValueError(
                f"non-finite gradient in parameter {i} "
                f"(shape {g.shape}) at optimizer step {step}"
            )
    c1 = 1.0 - beta1**step
    c2 = 1.0 - beta2**step
    for p, g, m_i, v_i in zip(params, grads, m, v):
        m_i *= beta1
        m_i += (1.0 - beta1) * g
        v_i *= beta2
        v_i += (1.0 - beta2) * (g * g)
        p.values -= lr * (m_i / c1) / (np.sqrt(v_i / c2) + eps)


def per_parameter(params, flat):
    """Views of the flat array `flat`, one per parameter in `params` order, in its shape."""
    views, start = [], 0
    for p in params:
        views.append(flat[start : start + p.values.size].reshape(p.values.shape))
        start += p.values.size
    return views


def _pad_pairs(samples):
    """Both domains of each sample, padded, with one mask and token layout."""
    bsz = len(samples)
    t_max = max(s.x_v.shape[0] for s in samples)
    l_max = max(len(s.tokens) - 1 for s in samples)
    feat = samples[0].x_v.shape[1]

    x_v = np.zeros((bsz, t_max, feat))
    x_m = np.zeros((bsz, t_max, feat))
    frame_mask = np.zeros((bsz, t_max), dtype=bool)
    y_in = np.full((bsz, l_max), PAD_ID, dtype=np.int64)
    y_out = np.full((bsz, l_max), PAD_ID, dtype=np.int64)
    for i, s in enumerate(samples):
        t = s.x_v.shape[0]
        x_v[i, :t] = s.x_v
        x_m[i, :t] = s.x_m
        frame_mask[i, :t] = True
        toks = np.asarray(s.tokens, dtype=np.int64)
        y_in[i, : toks.size - 1] = toks[:-1]
        y_out[i, : toks.size - 1] = toks[1:]
    return x_v, x_m, frame_mask, y_in, y_out


def _dual_losses(model, samples, plan, state):
    """One stacked forward over [vocal | mixture] halves of the paired batch."""
    bsz = len(samples)
    x_v, x_m, frame_mask, y_in, y_out = _pad_pairs(samples)
    x2 = np.concatenate([x_v, x_m], axis=0)
    mask2 = np.concatenate([frame_mask, frame_mask], axis=0)
    yin2 = np.concatenate([y_in, y_in], axis=0)

    enc = encode_batch(model, x2, mask2, True, state.dropout_rng)
    logits = decode_batch(model, enc, mask2, yin2, True, state.dropout_rng)
    l_v = alt_loss(nm.narrow(logits, 0, bsz), y_out)
    l_m = alt_loss(nm.narrow(logits, bsz, 2 * bsz), y_out)

    if plan.loss.strategy == "cns":
        e_v = nm.narrow(enc, 0, bsz)
        e_m = nm.narrow(enc, bsz, 2 * bsz)
        l_cns = consistency_loss(e_v, e_m, plan.loss.cns_kind, frame_mask)
        weight = plan.loss.weight
    else:
        l_cns = Tensor(0.0)
        weight = 0.0
    total = nm.add(nm.scale(nm.add(l_v, l_m), 0.5), nm.scale(l_cns, float(weight)))
    losses = {
        "l_v": l_v.item(),
        "l_m": l_m.item(),
        "l_cns": l_cns.item() if plan.loss.strategy == "cns" else None,
        "l_total": total.item(),
    }
    return total, losses


def _single_domain_losses(model, samples, plan, state):
    """Forward over per-sample selected domains, grouped as [vocal | mixture]."""
    picks = [select_inputs(plan.loss.strategy, state.domain_rng)[0] for _ in samples]
    v_idx = [i for i, tag in enumerate(picks) if tag == "v"]
    m_idx = [i for i, tag in enumerate(picks) if tag == "m"]
    ordered = [samples[i] for i in v_idx] + [samples[i] for i in m_idx]
    n_v = len(v_idx)

    x_v, x_m, frame_mask, y_in, y_out = _pad_pairs(ordered)
    x = np.concatenate([x_v[:n_v], x_m[n_v:]], axis=0)
    enc = encode_batch(model, x, frame_mask, True, state.dropout_rng)
    logits = decode_batch(model, enc, frame_mask, y_in, True, state.dropout_rng)

    tokens_v = int((y_out[:n_v] != PAD_ID).sum())
    tokens_m = int((y_out[n_v:] != PAD_ID).sum())
    l_v = alt_loss(nm.narrow(logits, 0, n_v), y_out[:n_v]) if n_v else None
    l_m = alt_loss(nm.narrow(logits, n_v, len(ordered)), y_out[n_v:]) if n_v < len(ordered) else None

    if l_v is not None and l_m is not None:
        total_tokens = tokens_v + tokens_m
        total = nm.add(
            nm.scale(l_v, tokens_v / total_tokens), nm.scale(l_m, tokens_m / total_tokens)
        )
    else:
        total = l_v if l_v is not None else l_m
    losses = {
        "l_v": l_v.item() if l_v is not None else None,
        "l_m": l_m.item() if l_m is not None else None,
        "l_cns": None,
        "l_total": total.item(),
    }
    return total, losses


def reference_step(model, batch, plan, state) -> dict:
    """A train step over the two reference paths; leaves the gradients in place."""
    step = state.step + 1
    zero_grads(state.params)
    if plan.loss.strategy in ("both", "cns"):
        total, losses = _dual_losses(model, batch, plan, state)
    else:
        total, losses = _single_domain_losses(model, batch, plan, state)
    backward(total)
    s = plan.settings
    lr = learning_rate(step, s)
    m, v = (per_parameter(state.params, flat) for flat in (state.m, state.v))
    reference_adam_step(state.params, [p.grad for p in state.params], m, v, step, lr)
    state.step = step
    return {"step": step, "lr": lr, **losses}
