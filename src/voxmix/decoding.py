"""Autoregressive inference: batched greedy decoding of feature windows.

`transcribe_batch` is the one inference path; a single window is a batch
of one. A window holds at most the model's `max_audio_frames` frames, which
`encode_batch` checks; a longer input is the caller's to split. It runs
inside `numerics.no_grad()`, so it records no graph, frees each step's
intermediates and touches no `requires_grad` flag, with the same
arithmetic as with recording on. Each step feeds only the last token to
`decode_batch` with a `DecodeCache`; its logits match a full-prefix
recompute to about 1e-14, not bit for bit (see `model`), and the tokens
of every grid checked were identical.

Decoding is domain-agnostic by construction: the model gets no signal
about whether the features are a vocal track or a mixture, and no prompt
conditioning of any kind. Ties in the argmax resolve to the lowest token
id, so output is fully deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from voxmix import numerics as nm
from voxmix.model import DecodeCache, TranscriberModel, decode_batch, encode_batch, pad_frames
from voxmix.synthdata import BOS_ID, EOS_ID, PAD_ID


@dataclass
class DecodeConfig:
    max_tokens: int  # includes BOS and EOS

    def __post_init__(self):
        if self.max_tokens < 2:
            raise ValueError(f"max_tokens must be >= 2, got {self.max_tokens}")


def transcribe_batch(
    model: TranscriberModel, windows: list[np.ndarray], cfg: DecodeConfig
) -> list[list[int]]:
    """Greedy-decode many windows in one padded batch, recording no graph.

    Each row's tokens are the same as decoding its window alone; padding is
    hidden behind attention masks and finished rows keep emitting into
    discarded positions until every row has stopped.
    """
    if not windows:
        return []
    windows = [np.asarray(w, dtype=np.float64) for w in windows]
    feature_dim = model.config.feature_dim
    for w in windows:
        if w.ndim != 2:
            raise ValueError(f"expected a (frames, features) window, got shape {w.shape}")
        if w.shape[1] != feature_dim:
            raise ValueError(
                f"window has {w.shape[1]} features per frame; the model takes {feature_dim}"
            )
    if cfg.max_tokens - 1 > model.config.max_token_len:  # the last token is not fed back
        raise ValueError(f"max_tokens {cfg.max_tokens} feeds the decoder {cfg.max_tokens - 1} "
                         f"positions, over the model's max_token_len {model.config.max_token_len}")
    feats, mask = pad_frames(windows)
    y = np.full((len(windows), 1), BOS_ID, dtype=np.int64)
    done = np.zeros(len(windows), dtype=bool)
    with nm.no_grad():
        enc = encode_batch(model, feats, mask, train_mode=False)
        cache = DecodeCache()
        while True:
            logits = decode_batch(model, enc, mask, y[:, -1:], train_mode=False, cache=cache)
            nxt = np.argmax(logits.values[:, -1, :], axis=-1)
            nxt = np.where(done, PAD_ID, nxt)
            y = np.concatenate([y, nxt[:, None]], axis=1)
            done |= nxt == EOS_ID
            if done.all() or y.shape[1] >= cfg.max_tokens:
                break
    return [[int(t) for t in row if t != PAD_ID] for row in y]
