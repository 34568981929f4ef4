"""Autoregressive inference: batched greedy decoding plus long-form
transcription over fixed non-overlapping windows.

`transcribe_batch` is the one inference path: a single window is decoded
as `transcribe_batch(model, [x], cfg)[0]`, and `longform_decode` batches
the windows of a long input through it. It runs the eval-mode forward passes inside
`numerics.no_grad()`, so decoding records no autograd graph and frees
each step's intermediates as it goes; the arithmetic, and so every token,
is the same as with recording on. No parameter's `requires_grad` flag is
touched.

Decoding is domain-agnostic by construction: the model gets no signal
about whether the features are a vocal track or a mixture, and no prompt
conditioning of any kind. Ties in the argmax resolve to the lowest token
id, so output is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxmix import numerics as nm
from voxmix.model import TranscriberModel, decode_batch, encode_batch
from voxmix.synthdata import BOS_ID, EOS_ID, PAD_ID, detokenize


@dataclass
class DecodeConfig:
    max_tokens: int = 48  # includes BOS and EOS
    window_frames: int = 64

    def __post_init__(self):
        if self.max_tokens < 2:
            raise ValueError(f"max_tokens must be >= 2, got {self.max_tokens}")
        if self.window_frames < 1:
            raise ValueError(f"window_frames must be >= 1, got {self.window_frames}")


def _check_window(model: TranscriberModel, cfg: DecodeConfig) -> None:
    if cfg.window_frames > model.config.max_audio_frames:
        raise ValueError(
            f"window_frames {cfg.window_frames} exceeds the model's "
            f"max_audio_frames {model.config.max_audio_frames}"
        )


def transcribe_batch(
    model: TranscriberModel, windows: list[np.ndarray], cfg: DecodeConfig
) -> list[list[int]]:
    """Greedy-decode many windows in one padded batch, recording no graph.

    Each row's tokens are the same as decoding its window alone; padding is
    hidden behind attention masks and finished rows keep emitting into
    discarded positions until every row has stopped.
    """
    _check_window(model, cfg)
    if not windows:
        return []
    windows = [np.asarray(w, dtype=np.float64) for w in windows]
    for w in windows:
        if w.ndim != 2:
            raise ValueError(f"expected a (frames, features) window, got shape {w.shape}")
        if w.shape[0] > cfg.window_frames:
            raise ValueError(
                f"{w.shape[0]} frames exceeds window_frames {cfg.window_frames}; "
                "use longform_decode for longer inputs"
            )
    bsz = len(windows)
    t_max = max(w.shape[0] for w in windows)
    feats = np.zeros((bsz, t_max, model.config.feature_dim))
    mask = np.zeros((bsz, t_max), dtype=bool)
    for i, w in enumerate(windows):
        feats[i, : w.shape[0]] = w
        mask[i, : w.shape[0]] = True

    limit = min(cfg.max_tokens, model.config.max_token_len)
    y = np.full((bsz, 1), BOS_ID, dtype=np.int64)
    done = np.zeros(bsz, dtype=bool)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, train_mode=False)
        while True:
            logits = decode_batch(model, enc, mask, y, train_mode=False)
            nxt = np.argmax(logits.values[:, -1, :], axis=-1)
            nxt = np.where(done, PAD_ID, nxt)
            y = np.concatenate([y, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all() or y.shape[1] >= limit:
                break
    return [[int(t) for t in row if t != PAD_ID] for row in y]


def longform_decode(model: TranscriberModel, x_long: np.ndarray, cfg: DecodeConfig) -> str:
    """Transcribe features of any length by windowed greedy decoding.

    The input is split into consecutive non-overlapping windows (the last
    may be short); per-window transcripts are joined with single spaces.
    """
    x_long = np.asarray(x_long, dtype=np.float64)
    if x_long.ndim != 2 or x_long.shape[0] < 1:
        raise ValueError(f"expected a non-empty (frames, features) array, got {x_long.shape}")
    w = cfg.window_frames
    windows = [x_long[i : i + w] for i in range(0, x_long.shape[0], w)]
    texts = [detokenize(tokens) for tokens in transcribe_batch(model, windows, cfg)]
    return " ".join(texts)
