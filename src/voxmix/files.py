"""Atomic file writes: an emitted file appears whole or not at all.

Every file the pipeline emits (corpora, the spec, metrics logs,
checkpoints, transcripts and reports) is written through `atomic_write`,
so a run killed or failing mid-write never leaves a half-written file that
a later stage would trust.
"""

from __future__ import annotations

import os
from contextlib import contextmanager


@contextmanager
def atomic_write(path, partial=None):
    """Open `path` for writing text; it is replaced only when the block completes.

    The block writes to `.<name>.tmp` in the same directory, which is renamed
    over `path` with `os.replace` after the block returns. If the block or
    the rename raises, `path` keeps its previous contents, or stays absent,
    and the temporary file is removed; when `partial` is given it is renamed
    to `partial` instead, so a failed run keeps what it wrote, and a
    completed write removes a `partial` an earlier failure left. Each path has
    one writer, so the fixed temporary name also replaces a stale one that a
    killed process left behind.
    """
    path = os.fspath(path)
    tmp = os.path.join(os.path.dirname(path) or ".", f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
        if partial is not None and os.path.exists(partial):
            os.remove(partial)
    except BaseException:
        if partial is not None and os.path.exists(tmp):
            os.replace(tmp, partial)
        raise
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
