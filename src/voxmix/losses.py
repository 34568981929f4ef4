"""Training objective: per-domain transcription losses and the encoder
consistency penalty, which training combines per strategy.

The cns loss is (L_v + L_m) / 2 + w * L_cns; the consistency term is
an L1 or L2 distance between the paired vocal and mixture encoder outputs,
reduced as a mean over valid (unmasked) elements so the weight w is
comparable across sequence lengths. Gradient flows into both encoder
paths — there is no stop-gradient on either side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxmix import numerics as nm
from voxmix.numerics import Tensor
from voxmix.synthdata import PAD_ID

STRATEGIES = ("voc", "mix", "random", "both", "cns")
CNS_KINDS = ("L1", "L2")


@dataclass
class LossConfig:
    strategy: str = "voc"
    cns_kind: str = "L2"  # only meaningful when strategy == "cns"
    weight: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}, expected one of {STRATEGIES}")
        if self.cns_kind not in CNS_KINDS:
            raise ValueError(f"consistency kind must be L1 or L2, got {self.cns_kind!r}")
        if self.weight < 0:
            raise ValueError(f"consistency weight must be >= 0, got {self.weight}")
        for name in ("cns_kind", "weight"):  # the class attribute is the default
            if self.strategy != "cns" and getattr(self, name) != getattr(LossConfig, name):
                raise ValueError(f"strategy {self.strategy!r} takes no {name}: it applies to cns "
                                 f"only, got {name}={getattr(self, name)!r}")


def alt_loss(logits: Tensor, y: np.ndarray) -> Tensor:
    """Cross-entropy against the shifted target sequence, PAD positions excluded."""
    return nm.cross_entropy(logits, y, ignore_index=PAD_ID)


def consistency_loss(e_v: Tensor, e_m: Tensor, kind: str, mask: np.ndarray) -> Tensor:
    """Mean L1 or squared distance between paired encoder outputs over valid frames.

    mask marks valid (non-padded) frames over the leading shape of the inputs;
    an empty mask yields 0 with zero gradient.
    """
    if e_v.values.shape != e_m.values.shape:
        raise ValueError(
            f"consistency_loss shapes disagree: {e_v.values.shape} vs {e_m.values.shape}"
        )
    if kind not in CNS_KINDS:
        raise ValueError(f"consistency kind must be L1 or L2, got {kind!r}")
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != e_v.values.shape[:-1]:
        raise ValueError(
            f"mask shape {mask.shape} does not cover frames of {e_v.values.shape}"
        )
    n_valid = int(mask.sum()) * e_v.values.shape[-1]
    if n_valid == 0:
        return Tensor(0.0)

    diff = nm.sub(e_v, e_m)
    per_elem = nm.tensor_abs(diff) if kind == "L1" else nm.mul(diff, diff)
    if mask.all():
        return nm.scale(nm.tensor_sum(per_elem), 1.0 / n_valid)
    weights = Tensor(mask[..., None].astype(np.float64))
    return nm.scale(nm.tensor_sum(nm.mul(per_elem, weights)), 1.0 / n_valid)

