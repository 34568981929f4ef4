"""voxmix: desk-scale dual-domain LoRA fine-tuning for noise-robust transcription.

A frozen toy encoder-decoder transcriber is adapted with low-rank
adapters on synthetic paired vocal/mixture data, under per-domain
cross-entropy losses optionally tied together by an encoder-consistency
penalty. Includes training strategies, batched greedy decoding, and WER
evaluation with per-subset reporting.
"""

from voxmix.numerics import Tensor, backward, zero_grads

__all__ = ["Tensor", "backward", "zero_grads"]
__version__ = "0.1.0"
