"""Autoregressive inference: batched greedy decoding of feature windows.

`transcribe_batch` is the one inference path; a single window is a batch
of one. A window holds at most the model's `max_audio_frames` frames, which
`encode_batch` checks; a longer input is the caller's to split. It runs
inside `numerics.no_grad()`, so it records no graph, frees each step's
intermediates and touches no `requires_grad` flag, with the same
arithmetic as with recording on. Each step feeds only the last token to
`decode_batch` with a `DecodeCache`; its logits match a full-prefix
recompute to about 1e-14, not bit for bit (see `model`), and the tokens
of every grid checked were identical. A row leaves the batch after the
step in which it emits EOS (`DecodeCache.keep_rows`), and the logits of
every row still decoding are bit for bit those it would get if no row had
left: each product, norm and attention is computed per row, which also lets
the encoder run over `ENCODE_ROWS` windows at a time with the same output.

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

# Windows encoded at once, one condition of the default test split: the encoder's
# largest temporaries grow with its rows, while a decoder step costs less per row
# in a larger batch, so a batch of many conditions is encoded in parts.
ENCODE_ROWS = 65


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
    hidden behind attention masks. A row leaves the batch once it emits EOS,
    and its tokens go by row index into a PAD-filled array, so the rows still
    decoding get unchanged logits and the batch shrinks as rows finish.
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
    tokens = np.full((len(windows), cfg.max_tokens), PAD_ID, dtype=np.int64)
    tokens[:, 0] = BOS_ID
    live, last = np.arange(len(windows)), tokens[:, :1]  # the rows still decoding
    with nm.no_grad():
        enc = [encode_batch(model, feats[i:i + ENCODE_ROWS], mask[i:i + ENCODE_ROWS], False).values
               for i in range(0, len(windows), ENCODE_ROWS)]
        enc = enc[0] if len(enc) == 1 else np.concatenate(enc)  # the parts are freed here
        cache = DecodeCache()
        for step in range(1, cfg.max_tokens):
            logits = decode_batch(model, nm.Tensor(enc), mask, last, train_mode=False, cache=cache)
            nxt = np.argmax(logits.values[:, -1, :], axis=-1)
            tokens[live, step] = nxt
            going = nxt != EOS_ID
            if not going.all():
                live, enc, mask, nxt = cache.keep_rows(going, live, enc, mask, nxt)
                if not live.size:
                    break
            last = nxt[:, None]
    return [[t for t in row if t != PAD_ID] for row in tokens.tolist()]
