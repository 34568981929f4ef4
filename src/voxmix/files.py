"""Atomic file writes; one refusal frame and one typed reader for the files read back.

Every file the pipeline emits (corpora, the spec, metrics logs, checkpoints,
transcripts and reports) is written through `atomic_write`, so a run killed
mid-write never leaves a half-written file that a later stage would trust.
A refused read names the file in `refusing`, which every reader runs inside,
the field in `read_settings`, and the rule in the settings class's `__post_init__`;
every reader parses with `parse_json`, which refuses a key repeated in one object.
"""

from __future__ import annotations

import dataclasses
import json
import os
import typing
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


@contextmanager
def refusing(path, what: str):
    """Refuse what a reader's body refuses as `<path>: malformed <what> (<Error>: ...)`
    for a parse or shape error and `<path>: <message>` for another ValueError; an
    OSError passes as it is. A frame nested in another's reads `<outer>: <path>: ...`."""
    try:
        yield
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError, IndexError) as err:
        raise ValueError(f"{path}: malformed {what} ({type(err).__name__}: {err})") from err
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from err


def parse_json(text: str):
    """The JSON document `text`, as `json.loads` reads it but for a key repeated in one
    object: `json` keeps its last value, this raises a ValueError naming the key."""
    return _DECODER.decode(text)


def _unique_keys(pairs: list) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [k for k, _ in pairs]
        raise ValueError(f"repeated key {next(k for k in obj if keys.count(k) > 1)!r}")
    return obj


# built once: json.loads(text, object_pairs_hook=...) would build a decoder per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def read_settings(want, value, where: str = ""):
    """`value`, parsed from JSON, read as the type `want`; `where` is its dotted name.

    `want` is a dataclass (an object with each of its fields and no other),
    `list[T]`, `tuple[T1, ...]` of that length, `dict`, `dict[str, T]`, `int`,
    `float` (an int will do) or `str`; no bool is a number. The wrong shape raises
    a TypeError naming the field, as in `gen.word_len[1] must be int, got '3'`; a nested
    dataclass's refusal is prefixed with it, as in `config: hidden_dim 32 not divisible ...`."""
    origin, args = typing.get_origin(want), typing.get_args(want)
    if dataclasses.is_dataclass(want):
        hints, label = typing.get_type_hints(want), where or want.__name__
        _expect(dict, value, label, "an object")
        for what, names in (("unknown", value.keys() - hints), ("missing", hints.keys() - value)):
            if names:
                raise TypeError(f"{what} fields in {label}: {sorted(names)}")
        fields = {k: read_settings(t, value[k], f"{where}.{k}".lstrip(".")) for k, t in hints.items()}
        try:
            return want(**fields)
        except ValueError as err:  # the class states the rule, `where` names the field
            raise ValueError(f"{where}: {err}" if where else str(err)) from err
    if want is dict or origin is dict:  # a bare dict's values are for its owner to check
        _expect(dict, value, where, "an object")
        return {k: read_settings(args[1], v, f"{where}.{k}") if args else v for k, v in value.items()}
    if origin in (list, tuple):
        what = "a list" if origin is list else f"a list of {len(args)}"
        _expect((list, tuple), value, where, what)
        kinds = args * len(value) if origin is list else args
        if len(kinds) != len(value):
            raise TypeError(f"{where} must be {what}, got {value!r}")
        items = [read_settings(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(kinds, value))]
        return items if origin is list else tuple(items)
    _expect((int, float) if want is float else want, value, where, want.__name__)
    return value


def _expect(kind, value, where: str, what: str) -> None:
    if isinstance(value, bool) or not isinstance(value, kind):
        raise TypeError(f"{where} must be {what}, got {value!r}")
