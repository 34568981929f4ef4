"""A damage sweep over the files a grid reads back: a corpus, a full checkpoint,
an adapters checkpoint and the spec, each damaged mechanically and read by its reader.

Each damaged file must be refused with a ValueError that starts with its
path; a checkpoint damaged in its free-form `seed_lineage` alone may instead
read exactly as the undamaged file does. An array whose data does not decode
is refused by its dotted name too, as `<path>: base.enc.0.attn.wq: ...`, and an
adapter entry without its arrays by the adapter's, as `<path>: adapters.<name>: ...`. The
damage: truncation, each key deleted at every depth, each value set to
another JSON type and to true, an array's data cut short or not base64 and
its shape wrong, a setting out of its class's range, a format version as a
float, and a record's `sample_id` set to another sample's. Of the `base` and
`adapters` maps only the first two entries are damaged, to bound the run
time. The spec is damaged by truncation and by each key deleted at every
depth; a key of the free-form `pretrain_gen_overrides` map is optional, so
deleting one must read as the spec without that override. Dropped,
duplicated or reordered entries, and transcripts, are not swept here.
"""

import copy
import json
from dataclasses import replace

import pytest

from voxmix.cli import default_spec, load_spec, save_spec
from voxmix.model import (
    LoraSpec,
    ModelConfig,
    attach_adapters,
    build_model,
    load_checkpoint,
    save_checkpoint,
    share_base,
)
from voxmix.synthdata import GenConfig, build_corpus, load_corpus, write_corpus

# a small model keeps each of the few hundred loads short
CONFIG = ModelConfig(feature_dim=4, hidden_dim=8, num_heads=2, encoder_layers=1, decoder_layers=1,
                     max_audio_frames=8, max_token_len=8)
SAMPLED_MAPS = (("base",), ("adapters",))  # of these, the first two entries stand for the rest
DELETE = object()


def _places(value, path=()):
    """The path and value of every entry of `value`, at every depth."""
    if isinstance(value, dict):
        items = list(value.items())[:2] if path in SAMPLED_MAPS else value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, entry in items:
        yield path + (key,), entry
        yield from _places(entry, path + (key,))


def _with(doc, path, value):
    """A copy of `doc` with the entry at `path` set to `value`, or deleted for DELETE."""
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return doc


def _other_type(value):
    """A JSON value of another type than `value`."""
    if isinstance(value, str):
        return 5
    return [] if isinstance(value, dict) else "5"


def damaged(doc, more=()):
    """(name, damaged copy) of the JSON document `doc` for each kind of damage but
    truncation; `more` holds (path, value) pairs to set besides, such as a setting
    its class refuses."""
    for path, value in _places(doc):
        name = ".".join(map(str, path))
        if isinstance(path[-1], str):
            yield f"{name} deleted", _with(doc, path, DELETE)
        yield f"{name} as {_other_type(value)!r}", _with(doc, path, _other_type(value))
        if value is not True:
            yield f"{name} as true", _with(doc, path, True)
        if isinstance(value, dict) and value.keys() == {"data", "shape"}:
            data, shape = value["data"], value["shape"]
            yield f"{name} data cut short", _with(doc, path + ("data",), data[: len(data) // 2])
            yield f"{name} data not base64", _with(doc, path + ("data",), "not base64")
            yield f"{name} shape with an axis more", _with(doc, path + ("shape",), [*shape, 1])
            yield f"{name} shape too long", _with(doc, path + ("shape",), [shape[0] + 1, *shape[1:]])
    for path, value in more:
        yield f"{'.'.join(path)} as {value!r}", _with(doc, path, value)


def truncated(text):
    for share in (0.1, 0.5, 0.9):
        yield f"truncated at {share:.0%}", text[: int(len(text) * share)]


def failures(cases, path, read, want):
    """Write each (name, text) case to `path` and read it back; the cases not
    refused with a ValueError starting with the path (and, for an array's data,
    the array's name), but for `seed_lineage` cases that read as `want`."""
    bad = []
    for name, text in cases:
        path.write_text(text)
        entry, undecodable, _ = name.partition(" data ")
        prefix = f"{path}: {entry}: " if undecodable else f"{path}: "
        try:
            got = read()
        except Exception as err:  # any other exception is a failure, reported with its case
            if not (isinstance(err, ValueError) and str(err).startswith(prefix)):
                bad.append(f"{name}: {type(err).__name__}: {err}")
            continue
        if not name.startswith("seed_lineage"):
            bad.append(f"{name}: read without refusal")
        elif got != want:
            bad.append(f"{name}: read without refusal, but not as the undamaged file")
    return bad


def _model_state(model):
    """What a loaded model is: its settings and every weight. A checkpoint's seed
    lineage is free-form provenance, returned as stored, so it is not compared."""
    def arrays(tensors):
        return [(t.values.shape, t.values.tobytes()) for t in tensors]

    weights = {name: arrays([t]) for name, t in model.params.items()}
    adapters = {name: arrays([ad.a, ad.b]) for name, ad in model.adapters.items()}
    return model.config, model.lora, weights, adapters


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A full checkpoint, an adapters checkpoint over it and the undamaged texts of both."""
    root = tmp_path_factory.mktemp("ckpt")
    (root / "checkpoints").mkdir()
    (root / "cells" / "c").mkdir(parents=True)
    base_path, cell_path = root / "checkpoints" / "base.json", root / "cells" / "c" / "checkpoint.json"
    save_checkpoint(build_model(CONFIG, seed=3), base_path, {"init_seed": 3})
    base, _ = load_checkpoint(base_path)
    cell = share_base(base)
    attach_adapters(cell, LoraSpec(rank=2), seed=5)
    save_checkpoint(cell, cell_path, {"cell": "c", "seed": 0})
    return base, base_path, cell_path, base_path.read_text(), cell_path.read_text()


# settings out of their class's range, and a format version that is not an int
CHECKPOINT_MORE = [(("config", "num_heads"), 3), (("config", "max_audio_frames"), 0), (("version",), 2.0)]


def test_every_damaged_full_checkpoint_is_refused_by_its_path_or_reads_the_same(saved):
    base, base_path, _, text, _ = saved
    cases = [*truncated(text), *((name, json.dumps(doc)) for name, doc in
                                 damaged(json.loads(text), CHECKPOINT_MORE))]
    bad = failures(cases, base_path, lambda: _model_state(load_checkpoint(base_path)[0]), _model_state(base))
    base_path.write_text(text)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("over", ["its_base", "alone"])
def test_every_damaged_adapters_checkpoint_is_refused_by_its_path_or_reads_the_same(saved, over):
    base, _, cell_path, _, text = saved
    given = base if over == "its_base" else None
    want = _model_state(load_checkpoint(cell_path, base=given)[0])
    more = [*CHECKPOINT_MORE, (("lora", "rank"), 0), (("lora", "dropout"), 1.5)]
    cases = [*truncated(text), *((name, json.dumps(doc)) for name, doc in damaged(json.loads(text), more))]
    bad = failures(cases, cell_path, lambda: _model_state(load_checkpoint(cell_path, base=given)[0]), want)
    cell_path.write_text(text)
    assert not bad, "\n".join(bad)


@pytest.mark.parametrize("place, value", [(("a",), DELETE), (("b",), DELETE), ((), "5"), ((), 5), ((), []), ((), True)],
                         ids=["a deleted", "b deleted", "as '5'", "as 5", "as []", "as true"])
def test_an_adapter_entry_without_its_arrays_is_refused_by_its_name(saved, place, value):
    base, _, cell_path, _, text = saved
    doc = json.loads(text)
    name = next(iter(doc["adapters"]))
    cell_path.write_text(json.dumps(_with(doc, ("adapters", name, *place), value)))
    try:
        with pytest.raises(ValueError) as err:
            load_checkpoint(cell_path, base=base)
    finally:
        cell_path.write_text(text)
    assert str(err.value).startswith(f"{cell_path}: adapters.{name}: malformed adapter (")


def test_an_adapters_checkpoint_over_a_truncated_base_names_both_files(saved):
    _, base_path, cell_path, base_text, _ = saved
    base_path.write_text(base_text[: len(base_text) // 2])
    try:
        with pytest.raises(ValueError) as err:
            load_checkpoint(cell_path)
    finally:
        base_path.write_text(base_text)
    assert str(err.value).startswith(f"{cell_path}: {base_path}: malformed checkpoint (JSONDecodeError: ")


def _corpus_state(loaded):
    cfg, samples = loaded
    return cfg, [(s.sample_id, s.language, s.text, s.tokens, s.seed, s.segment_index, s.gain,
                  s.x_v.tobytes(), s.x_m.tobytes()) for s in samples]


def test_every_damaged_corpus_is_refused_by_its_path_or_reads_the_same(tmp_path):
    path = tmp_path / "train.jsonl"
    write_corpus(path, GenConfig(), build_corpus(GenConfig(), songs_per_language=1, seed_base=0))
    text = path.read_text()
    lines = text.splitlines(keepends=True)
    assert len(lines) >= 3
    header = [(("gen", "jitter"), -1.0), (("gen", "frames_per_token"), 0),
              (("gen", "gain_range"), [1.0, 0.5]), (("version",), 1.0)]
    record = [(("sample_id",), "toyla-0-1")]  # the first record's is toyla-0-0
    cases = list(truncated(text))
    for index, more in ((0, header), (1, record)):  # the header and one record
        for name, doc in damaged(json.loads(lines[index]), more):
            changed = [*lines[:index], json.dumps(doc) + "\n", *lines[index + 1:]]
            cases.append((f"line {index + 1}: {name}", "".join(changed)))
    want = _corpus_state(load_corpus(path))
    bad = failures(cases, path, lambda: _corpus_state(load_corpus(path)), want)
    assert not bad, "\n".join(bad)


def test_every_truncated_spec_or_one_missing_a_key_is_refused_by_its_path(tmp_path):
    path = tmp_path / "spec.json"
    spec = default_spec()
    save_spec(spec, path)
    text = path.read_text()
    doc = json.loads(text)
    cases = list(truncated(text))
    optional = {}  # an override deleted, and the spec it must read as
    for place, _ in _places(doc):
        if isinstance(place[-1], str):
            name = f"{'.'.join(map(str, place))} deleted"
            cases.append((name, json.dumps(_with(doc, place, DELETE))))
            if place[:-1] == ("pretrain_gen_overrides",):
                overrides = {k: v for k, v in spec.pretrain_gen_overrides.items() if k != place[-1]}
                optional[name] = replace(spec, pretrain_gen_overrides=overrides)
    assert len(cases) > 100 and len(optional) == 2
    bad = []
    for name, damaged_text in cases:
        path.write_text(damaged_text)
        try:
            got = load_spec(path)
        except ValueError as err:
            if not str(err).startswith(f"{path}: "):
                bad.append(f"{name}: {err}")
            continue
        except Exception as err:  # any other exception is a failure, reported with its case
            bad.append(f"{name}: {type(err).__name__}: {err}")
            continue
        if got != optional.get(name):
            bad.append(f"{name}: read without refusal")
    assert not bad, "\n".join(bad)
