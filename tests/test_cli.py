import copy
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from voxmix import cli, model, numerics, training

from voxmix.cli import (
    ExperimentSpec,
    LoraSpec,
    PhasePlanSpec,
    StrategyCell,
    all_cells,
    cell_dir,
    cmd_decode,
    cmd_eval,
    cmd_finetune,
    cmd_gen_data,
    cmd_grid,
    cmd_pretrain,
    corpus_path,
    default_spec,
    load_spec,
    main,
    save_spec,
    transcript_path,
)
from voxmix.decoding import DecodeConfig
from voxmix.evaluation import CONDITIONS, aggregate
from voxmix.files import read_settings
from voxmix.losses import LossConfig
from voxmix.model import ModelConfig
from voxmix.synthdata import GenConfig, build_corpus, corpus_digest, load_corpus


def micro_spec(out_dir: str) -> ExperimentSpec:
    """Small enough to run an end-to-end grid in a few seconds."""
    return ExperimentSpec(
        out_dir=out_dir,
        seeds=[0, 1],
        gen=GenConfig(),
        corpus_songs={"pretrain": 10, "train": 10, "dev": 2, "test": 4},
        model=ModelConfig(),
        lora=LoraSpec(),
        pretrain=PhasePlanSpec(peak_lr=3e-3, total_steps=40, batch_size=8, seed=0),
        finetune=PhasePlanSpec(peak_lr=1e-3, total_steps=20, batch_size=8),
        strategies=[
            StrategyCell("voc", LossConfig(strategy="voc")),
            StrategyCell("cns_l2_w1.0", LossConfig(strategy="cns", cns_kind="L2", weight=1.0)),
        ],
        decode=DecodeConfig(max_tokens=24),
    )


# Every file of micro_spec's grid: their count and the digest of _tree_digest.
# A change that alters any output byte on purpose updates these and says so
# in CHANGES.md.
GRID_FILES = 31
GRID_DIGEST = "938ae5da15b32dedf35227e0b8fbefd5b393464e04c1e354ad6900e63d03ed97"
# The same over the files other than the checkpoints, so that a change to the
# checkpoint format alone shows which outputs it left as they were.
OUTPUT_FILES = 26
OUTPUT_DIGEST = "283c1d80da56c3a236d917c8ee4c9472007f67edef957b3f1cc839fb349d7c9f"


def _not_a_checkpoint(rel: str) -> bool:
    return rel != "checkpoints/pretrain.json" and not rel.endswith("/checkpoint.json")


def _tree_digest(root: Path, keep=lambda rel: True) -> tuple[int, str]:
    """SHA-256 over each kept file's relative POSIX path, a NUL byte and its bytes, in path order."""
    files = sorted((p.relative_to(root).as_posix(), p) for p in root.rglob("*") if p.is_file())
    files = [(rel, path) for rel, path in files if keep(rel)]
    h = hashlib.sha256()
    for rel, path in files:
        h.update(rel.encode() + b"\0" + path.read_bytes())
    return len(files), h.hexdigest()


def test_default_spec_matches_reported_grid():
    spec = default_spec()
    ids = [c.cell_id for c in spec.strategies]
    assert ids[:4] == ["voc", "mix", "random", "both"]
    assert len(ids) == 10  # 4 baselines + 2 kinds x 3 weights
    assert len(spec.seeds) == 5
    assert spec.pretrain.total_steps == 2000
    assert spec.finetune.total_steps == 1000


def test_spec_round_trip(tmp_path):
    spec = micro_spec(str(tmp_path / "out"))
    path = tmp_path / "spec.json"
    save_spec(spec, path)
    again = load_spec(path)
    assert again == spec


def test_spec_rejects_unknown_fields(tmp_path):
    # a key off the spec's shape is a TypeError, as for keyword arguments
    doc = asdict(micro_spec("x"))
    doc["gpu"] = True
    with pytest.raises(TypeError, match=r"unknown fields in ExperimentSpec: \['gpu'\]"):
        read_settings(ExperimentSpec, doc)
    doc2 = asdict(micro_spec("x"))
    doc2["model"]["layers"] = 3
    with pytest.raises(TypeError, match=r"unknown fields in model: \['layers'\]"):
        read_settings(ExperimentSpec, doc2)
    doc3 = asdict(micro_spec("x"))
    doc3["finetune"]["momentum"] = 0.9
    with pytest.raises(TypeError, match=r"unknown fields in finetune: \['momentum'\]"):
        read_settings(ExperimentSpec, doc3)
    doc4 = asdict(micro_spec("x"))
    doc4["strategies"][1]["loss"]["temperature"] = 1.0
    with pytest.raises(TypeError, match=r"unknown fields in strategies\[1\].loss: \['temperature'\]"):
        read_settings(ExperimentSpec, doc4)


def test_spec_rejects_duplicate_strategy_ids(tmp_path):
    spec = micro_spec("x")
    with pytest.raises(ValueError, match="duplicate"):
        ExperimentSpec(
            **{
                **{f: getattr(spec, f) for f in spec.__dataclass_fields__},
                "strategies": [spec.strategies[0], spec.strategies[0]],
            }
        )


# one setting per plan field that training cannot use
BAD_PLAN_SETTINGS = [
    ("total_steps", 1),
    ("warmup_frac", 1.0),
    ("batch_size", 0),
    ("peak_lr", -1.0),
    ("seed", -1),
]


@pytest.mark.parametrize("phase", ["pretrain", "finetune"])
@pytest.mark.parametrize("field, value", BAD_PLAN_SETTINGS)
def test_spec_refuses_a_bad_plan_setting(phase, field, value):
    # the plan refuses its own field; the reader names the phase it was read as
    doc = asdict(micro_spec("x"))
    doc[phase][field] = value
    with pytest.raises(ValueError, match=rf"^{phase}: {field} must be .*, got {value!r}$"):
        read_settings(ExperimentSpec, doc)


def test_spec_accepts_plan_settings_at_their_bounds():
    spec = micro_spec("x")
    edge = {"total_steps": 2, "warmup_frac": 0.01, "batch_size": 1, "peak_lr": 1e-12, "seed": 0}
    replace(spec, pretrain=replace(spec.pretrain, **edge), finetune=replace(spec.finetune, **edge))


def test_grid_with_a_bad_finetune_plan_writes_nothing(tmp_path):
    out = tmp_path / "out"
    doc = asdict(micro_spec(str(out)))
    doc["finetune"]["total_steps"] = 1
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        main(["grid", "--spec", str(spec_path)])
    assert str(err.value) == f"{spec_path}: finetune: total_steps must be >= 2, got 1"
    assert not (out / "corpora").exists()
    assert not out.exists()


# spec-document edits whose corpus or decode limit the model cannot take, and the refusal
CORPUS_MISFITS = [
    ({"gen": {"feature_dim": 8}},
     "pretrain corpus: gen.feature_dim 8 differs from model.feature_dim 16"),
    ({"gen": {"segment_max_frames": 90}},
     "pretrain corpus: gen.segment_max_frames 90 makes segments of up to 87 frames, "
     "over model.max_audio_frames 64"),
    ({"model": {"max_audio_frames": 20}},
     "pretrain corpus: gen.segment_max_frames 24 makes segments of up to 21 frames, "
     "over model.max_audio_frames 20"),
    ({"model": {"max_token_len": 7}},
     "pretrain corpus: gen.segment_max_frames 24 makes segments of up to 8 decoder-input "
     "tokens, over model.max_token_len 7"),
    ({"gen": {"gain": 0.0}},
     r"unknown fields in gen: \['gain'\]"),
    ({"decode": {"max_tokens": 50}},
     "decode.max_tokens 50 feeds the decoder 49 positions, over model.max_token_len 48"),
    ({"model": {"vocab_size": 10}},
     "pretrain corpus: model.vocab_size 10 is under the tokenizer's 30 ids"),
]


def _refused_before_anything_is_written(tmp_path, edits, message):
    out = tmp_path / "out"
    doc = asdict(micro_spec(str(out)))
    for section, values in edits.items():
        doc[section].update(values)
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message) as err:
        load_spec(spec_path)
    assert str(err.value).startswith(f"{spec_path}: ")
    with pytest.raises(ValueError, match=message):
        main(["grid", "--spec", str(spec_path)])
    assert not out.exists()


@pytest.mark.parametrize("edits, message", CORPUS_MISFITS)
def test_grid_with_a_corpus_the_model_cannot_take_writes_nothing(tmp_path, edits, message):
    _refused_before_anything_is_written(tmp_path, edits, message)


# spec-document edits that would fail only after some files were written, or
# silently, and the refusal naming the field
LATE_FAILURES = {
    "lora_rank_0": ({"lora": {"rank": 0}}, "lora: rank must be >= 1, got 0"),
    "lora_dropout_1.5": ({"lora": {"dropout": 1.5}}, r"lora: dropout must be in \[0, 1\), got 1.5"),
    "lora_dropout_negative": ({"lora": {"dropout": -0.1}}, r"lora: dropout must be in \[0, 1\), got -0.1"),
    "test_split_empty": ({"corpus_songs": {"test": 0}}, "corpus_songs.test must be >= 1, got 0"),
    "train_split_empty": ({"corpus_songs": {"train": 0}}, "corpus_songs.train must be >= 1, got 0"),
    "unknown_split": ({"corpus_songs": {"valid": 3}},
                      r"corpus_songs must name the splits \['pretrain', 'train', 'dev', 'test'\], "
                      r"got \['dev', 'pretrain', 'test', 'train', 'valid'\]"),
    "adam_constants": ({"pretrain": {"beta1": 0.9, "beta2": 0.999, "eps": 1e-8}},
                       r"unknown fields in pretrain: \['beta1', 'beta2', 'eps'\]"),
    "pretrain_seed_off_the_list": ({"pretrain": {"seed": 3}},
                                   r"pretrain seed 3 is not in the seeds list \[0, 1\]"),
    "language_twice": ({"gen": {"languages": ["toyla", "toybe", "toyla"]}},
                       r"gen: languages must be distinct, got \['toyla', 'toybe', 'toyla'\]"),
    "no_letters": ({"gen": {"word_len": [0, 0]}},
                   r"gen: word_len must be \(low, high\) with 1 <= low <= high, got \(0, 0\)"),
    "line_over_a_segment": ({"gen": {"words_per_line": [1, 3]}},
                            r"gen: segment_max_frames must be >= .* = 36, the longest line, got 24"),
    "too_many_songs": ({"corpus_songs": {"test": 10_001}},
                       "corpus_songs.test must be <= 10000, the song seeds a split has per language, got 10001"),
}


@pytest.mark.parametrize("edits, message", LATE_FAILURES.values(), ids=LATE_FAILURES)
def test_grid_with_a_setting_that_would_fail_later_writes_nothing(tmp_path, edits, message):
    _refused_before_anything_is_written(tmp_path, edits, message)


def _drop_decode(doc):
    del doc["decode"]


def _drop_a_strategy_id(doc):
    del doc["strategies"][0]["cell_id"]


def _hidden_dim_as_text(doc):
    doc["model"]["hidden_dim"] = "32"


def _strategy_as_text(doc):
    doc["strategies"][0] = "voc"


@pytest.mark.parametrize("damage, cause", [
    (None, "JSONDecodeError: "),
    (_drop_decode, "TypeError: missing fields in ExperimentSpec: ['decode'])"),
    (_drop_a_strategy_id, "TypeError: missing fields in strategies[0]: ['cell_id'])"),
    (_hidden_dim_as_text, "TypeError: model.hidden_dim must be int, got '32'"),
    (_strategy_as_text, "TypeError: strategies[0] must be an object, got 'voc')"),
], ids=["truncated", "no_decode", "strategy_without_id", "hidden_dim_as_text", "strategy_as_text"])
def test_malformed_spec_names_the_file_and_the_cause(tmp_path, damage, cause):
    doc = asdict(micro_spec(str(tmp_path / "out")))
    text = json.dumps(doc)
    if damage is None:
        text = text[: len(text) // 2]
    else:
        damage(doc)
        text = json.dumps(doc)
    path = tmp_path / "spec.json"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        load_spec(path)
    assert str(err.value).startswith(f"{path}: malformed spec ({cause}")


# every field a spec document sets, as dotted keys; a strategy's fields are
# under "strategies.*". A setting is added or removed together with this list
# and a line in CHANGES.md.
SPEC_FIELDS = [
    "corpus_songs.dev", "corpus_songs.pretrain", "corpus_songs.test", "corpus_songs.train",
    "decode.max_tokens",
    "finetune.batch_size", "finetune.peak_lr", "finetune.seed", "finetune.total_steps",
    "finetune.warmup_frac",
    "gen.distractor_seed", "gen.embed_seed", "gen.feature_dim", "gen.frames_per_token",
    "gen.gain_range", "gen.jitter", "gen.lang_seed", "gen.languages", "gen.lines_per_song",
    "gen.segment_max_frames", "gen.vowel_stretch_prob", "gen.word_len", "gen.words_per_lang",
    "gen.words_per_line",
    "lora.alpha", "lora.dropout", "lora.rank",
    "model.decoder_layers", "model.encoder_layers", "model.feature_dim", "model.hidden_dim",
    "model.max_audio_frames", "model.max_token_len", "model.num_heads", "model.vocab_size",
    "out_dir",
    "pretrain.batch_size", "pretrain.peak_lr", "pretrain.seed", "pretrain.total_steps",
    "pretrain.warmup_frac",
    "seeds",
    "strategies.*.cell_id", "strategies.*.loss.cns_kind", "strategies.*.loss.strategy",
    "strategies.*.loss.weight",
]


def _dotted_keys(value, prefix: str) -> set[str]:
    if isinstance(value, list) and value and isinstance(value[0], dict):
        return set().union(*(_dotted_keys(entry, f"{prefix}*.") for entry in value))
    if isinstance(value, dict):
        return set().union(*(_dotted_keys(v, f"{prefix}{k}.") for k, v in value.items()))
    return {prefix[:-1]}


def test_the_settable_fields_of_a_spec_are_pinned():
    assert sorted(_dotted_keys(asdict(default_spec()), "")) == SPEC_FIELDS


def _path_of(key: str) -> list[str]:
    """The steps to the leaf a dotted SPEC_FIELDS key names; a strategy's are under entry 0."""
    return key.replace("*", "0").split(".")


def _at(doc, steps: list[str]):
    for step in steps:
        doc = doc[int(step)] if isinstance(doc, list) else doc[step]
    return doc


def _spec_file_with(tmp_path, key: str, value) -> Path:
    """micro_spec's document, writing to tmp_path/out, saved with the leaf at `key` set to `value`."""
    doc = json.loads(json.dumps(asdict(micro_spec(str(tmp_path / "out")))))
    *parents, leaf = _path_of(key)
    _at(doc, parents)[leaf] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return path


def _refused_as_the_wrong_type(path: Path, field: str) -> None:
    with pytest.raises(ValueError) as err:
        load_spec(path)
    assert str(err.value).startswith(f"{path}: malformed spec (TypeError: {field} must be ")


@pytest.mark.parametrize("wrong", ["other_type", "bool"])
@pytest.mark.parametrize("key", SPEC_FIELDS)
def test_load_spec_refuses_a_field_of_the_wrong_type_by_name(tmp_path, key, wrong):
    leaf = _at(asdict(micro_spec("x")), _path_of(key))
    value = True if wrong == "bool" else 5 if isinstance(leaf, str) else "5"
    _refused_as_the_wrong_type(_spec_file_with(tmp_path, key, value), key.replace(".*", "[0]"))


# values of the wrong type that earlier spec readers accepted, or refused
# without naming the field, and the field the refusal names
WRONG_TYPES = {
    "languages_as_text": ("gen.languages", "ab", "gen.languages"),
    "split_size_float": ("corpus_songs.dev", 2.5, "corpus_songs.dev"),
    "split_size_text": ("corpus_songs.dev", "2", "corpus_songs.dev"),
    "seed_float": ("seeds", [0, 1.5], "seeds[1]"),
    "seed_bool": ("seeds", [0, True], "seeds[1]"),
    "seeds_text": ("seeds", "01", "seeds"),
    "out_dir_int": ("out_dir", 5, "out_dir"),
    "word_len_text": ("gen.word_len", [2, "3"], "gen.word_len[1]"),
    "word_len_short": ("gen.word_len", [2], "gen.word_len"),
}


@pytest.mark.parametrize("key, value, field", WRONG_TYPES.values(), ids=WRONG_TYPES)
def test_grid_with_a_value_of_the_wrong_type_writes_nothing(tmp_path, key, value, field):
    path = _spec_file_with(tmp_path, key, value)
    _refused_as_the_wrong_type(path, field)
    with pytest.raises(ValueError, match="malformed spec"):
        main(["grid", "--spec", str(path)])
    assert not (tmp_path / "out").exists()


def test_spec_accepts_a_corpus_at_the_model_limits():
    # the default segments: at most 7 characters, 21 frames and 8 decoder inputs;
    # decoding then stops at 8 tokens
    spec = micro_spec("x")
    replace(spec, model=replace(spec.model, max_audio_frames=21, max_token_len=8),
            decode=DecodeConfig(max_tokens=8))


def test_spec_takes_as_many_songs_per_split_as_it_has_song_seeds():
    # a split's songs per language take the seeds seed_base + language * 10_000 + song
    spec = micro_spec("x")
    replace(spec, corpus_songs={split: 10_000 for split in spec.corpus_songs})
    with pytest.raises(ValueError, match=r"^corpus_songs.pretrain must be <= 10000, .*, got 10001$"):
        replace(spec, corpus_songs={split: 10_001 for split in spec.corpus_songs})


def test_spec_refuses_negative_seeds():
    with pytest.raises(ValueError, match="seeds must be"):
        replace(micro_spec("x"), seeds=[0, -1])


def test_spec_refuses_a_finetune_seed_it_would_ignore(tmp_path):
    spec = micro_spec("x")
    message = r"finetune.seed must be 0, got 7: fine-tune seeds come from seeds \[0, 1\]"
    with pytest.raises(ValueError, match=message):
        replace(spec, finetune=replace(spec.finetune, seed=7))
    doc = asdict(spec)
    doc["finetune"]["seed"] = 7
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_spec(path)


def test_spec_refuses_a_consistency_setting_its_strategy_ignores(tmp_path):
    out = tmp_path / "out"
    doc = asdict(micro_spec(str(out)))
    doc["strategies"][0]["loss"].update(weight=0.5)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    message = "strategy 'voc' takes no weight: it applies to cns only, got weight=0.5"
    with pytest.raises(ValueError, match=message):
        load_spec(path)
    with pytest.raises(ValueError, match=message):
        main(["grid", "--spec", str(path)])
    assert not out.exists()


def test_gen_data_is_deterministic_and_split_disjoint(tmp_path):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    cmd_gen_data(spec, out)
    first = {s: corpus_path(out, s).read_bytes() for s in ("pretrain", "train", "dev", "test")}
    cmd_gen_data(spec, out)
    for split, blob in first.items():
        assert corpus_path(out, split).read_bytes() == blob

    _, train = load_corpus(corpus_path(out, "train"))
    _, test = load_corpus(corpus_path(out, "test"))
    assert not ({s.seed for s in train} & {s.seed for s in test})


def test_gen_data_test_split_has_both_conditions(tmp_path):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    cmd_gen_data(spec, out)
    _, test = load_corpus(corpus_path(out, "test"))
    # voc condition is interference-free by construction; mix carries gain > 0
    assert all(s.gain >= spec.gen.gain_range[0] for s in test)
    assert any(not np.array_equal(s.x_v, s.x_m) for s in test)


def test_finetune_requires_pretrain_checkpoint(tmp_path):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    cmd_gen_data(spec, out)
    with pytest.raises(SystemExit, match="pretrain"):
        cmd_finetune(spec, out, "voc", seed=0)


def test_finetune_rejects_unknown_cell_and_seed(tmp_path):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    with pytest.raises(SystemExit, match="unknown strategy"):
        cmd_finetune(spec, out, "nope", seed=0)
    with pytest.raises(SystemExit, match="seeds list"):
        cmd_finetune(spec, out, "voc", seed=99)


def test_eval_lists_missing_cells(tmp_path):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    cmd_gen_data(spec, out)
    with pytest.raises(SystemExit, match="cns_l2_w1.0_s1"):
        cmd_eval(spec, out)


@pytest.mark.parametrize("seeds", [2, 5])
def test_eval_takes_the_seed_median_as_numpy_would_bit_for_bit(tmp_path, monkeypatch, seeds):
    out = tmp_path / "out"
    spec = micro_spec(str(out))
    spec = replace(spec, seeds=list(range(seeds)), strategies=spec.strategies[:1])
    cmd_gen_data(spec, out)
    _, test = load_corpus(corpus_path(out, "test"))
    rank = {s.sample_id: [t.language for t in test[:i]].count(s.language) for i, s in enumerate(test)}
    for k, cell in enumerate(all_cells(spec)):  # k samples of each language left blank: every WER differs
        for cond in CONDITIONS:
            path = transcript_path(out, cell, cond)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text("".join(json.dumps({"sample_id": s.sample_id, "condition": cond,
                                                "text": "" if rank[s.sample_id] < k else s.text}) + "\n"
                                    for s in test))
    pooled, rows = [], []  # each cell's pooled WERs, and the summary's rows

    def pooling(*args):
        pooled.append(aggregate(*args))
        return pooled[-1]

    monkeypatch.setattr(cli, "aggregate", pooling)
    monkeypatch.setattr(cli, "comparison_markdown", lambda got, subsets: rows.extend(got) or "")
    cmd_eval(spec, out)
    (name, medians), = rows[1:]
    assert name == spec.strategies[0].cell_id
    for key, median in medians.items():
        values = [cell[key].wer for cell in pooled[1:]]
        assert len(set(values)) == seeds
        assert median.hex() == float(np.median(values)).hex(), key


def test_a_grid_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma, 2 MB of resident memory that eval's medians do not need
    spec = micro_spec(str(tmp_path / "out"))
    spec = replace(spec, pretrain=replace(spec.pretrain, total_steps=2),
                   finetune=replace(spec.finetune, total_steps=2))
    save_spec(spec, tmp_path / "spec.json")
    src = str(Path(__file__).resolve().parent.parent / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); from pathlib import Path; "
            f"from voxmix.cli import cmd_grid, load_spec; "
            f"cmd_grid(load_spec({str(tmp_path / 'spec.json')!r}), Path({spec.out_dir!r}), jobs=1); "
            f"print('numpy.ma' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "reports" / "summary.csv").exists()
    assert done.stdout.split() == ["False"]


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """A serial micro grid, with the corpus and checkpoint files it read."""
    out = tmp_path_factory.mktemp("grid") / "out"
    spec = micro_spec(str(out))
    with pytest.MonkeyPatch.context() as mp:
        reads = _record_reads(mp, out)
        cmd_grid(spec, out, jobs=1)
    return spec, out, reads, _tree_digest(out), _tree_digest(out, _not_a_checkpoint)


def _record_reads(mp, out: Path) -> dict[str, list[str]]:
    """Record, relative to `out`, each corpus and checkpoint file read from now on."""
    reads = {"corpus": [], "checkpoint": []}

    def recorded(key, fn):
        def wrapper(path, *args, **kwargs):
            reads[key].append(Path(path).relative_to(out).as_posix())
            return fn(path, *args, **kwargs)

        return wrapper

    mp.setattr(cli, "load_corpus", recorded("corpus", cli.load_corpus))
    mp.setattr(model, "_read_checkpoint", recorded("checkpoint", model._read_checkpoint))
    return reads


@pytest.fixture(scope="module")
def grid_out(grid_run):
    return grid_run[:2]


def test_grid_outputs_are_the_pinned_bytes(grid_run):
    assert grid_run[3] == (GRID_FILES, GRID_DIGEST)


def test_grid_outputs_other_than_checkpoints_are_the_pinned_bytes(grid_run):
    assert grid_run[4] == (OUTPUT_FILES, OUTPUT_DIGEST)


def test_serial_grid_reads_each_split_and_the_base_once_per_command(grid_run):
    spec, _, reads = grid_run[:3]
    # pretrain, train for every cell, test in decode, test in eval
    assert reads["corpus"] == [f"corpora/{s}.jsonl" for s in ("pretrain", "train", "test", "test")]
    # the base once for all cells and decode, then each cell's adapters once
    cells = [f"cells/{c.cell_id}_s{s}/checkpoint.json" for c in spec.strategies for s in spec.seeds]
    assert reads["checkpoint"] == ["checkpoints/pretrain.json"] + cells


def test_cell_checkpoints_hold_only_adapters(grid_out):
    spec, out = grid_out
    base = out / "checkpoints" / "pretrain.json"
    for cell in spec.strategies:
        for seed in spec.seeds:
            path = cell_dir(out, cell.cell_id, seed) / "checkpoint.json"
            doc = json.loads(path.read_text())
            assert doc["kind"] == "voxmix-adapters"
            assert doc["base_ref"]["path"] == "../../checkpoints/pretrain.json"
            assert path.stat().st_size < 0.1 * base.stat().st_size


def test_grid_emits_every_cell(grid_out):
    spec, out = grid_out
    for cell in spec.strategies:
        for seed in spec.seeds:
            d = cell_dir(out, cell.cell_id, seed)
            assert (d / "checkpoint.json").exists()
            assert (d / "metrics.jsonl").exists()
    for cell in all_cells(spec):
        for cond in ("mix", "voc"):
            assert transcript_path(out, cell, cond).exists()
    assert (out / "reports" / "summary.md").exists()


def test_summary_has_one_row_per_strategy_plus_pretrained(grid_out):
    spec, out = grid_out
    lines = (out / "reports" / "summary.md").read_text().strip().split("\n")
    assert len(lines) == 2 + 1 + len(spec.strategies)  # header, rule, pretrained, strategies
    assert lines[2].startswith("| pretrained |")
    csv_lines = (out / "reports" / "summary.csv").read_text().strip().split("\n")
    subsets = len(spec.gen.languages) + 1
    assert len(csv_lines) == 1 + (1 + len(spec.strategies)) * subsets * 2


def test_grid_cell_rerun_is_byte_identical(grid_out):
    spec, out = grid_out
    cell = cell_dir(out, "cns_l2_w1.0", 1)
    before = {
        "ckpt": (cell / "checkpoint.json").read_bytes(),
        "metrics": (cell / "metrics.jsonl").read_bytes(),
        "mix": transcript_path(out, "cns_l2_w1.0_s1", "mix").read_bytes(),
        "summary": (out / "reports" / "summary.md").read_bytes(),
    }
    cmd_finetune(spec, out, "cns_l2_w1.0", seed=1)
    cmd_decode(spec, out, only=["cns_l2_w1.0_s1"])
    cmd_eval(spec, out)
    assert (cell / "checkpoint.json").read_bytes() == before["ckpt"]
    assert (cell / "metrics.jsonl").read_bytes() == before["metrics"]
    assert transcript_path(out, "cns_l2_w1.0_s1", "mix").read_bytes() == before["mix"]
    assert (out / "reports" / "summary.md").read_bytes() == before["summary"]


def test_transcript_schema(grid_out):
    spec, out = grid_out
    path = transcript_path(out, "pretrained", "voc")
    _, test = load_corpus(corpus_path(out, "test"))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == len(test)
    for line in lines:
        rec = json.loads(line)
        assert set(rec) == {"sample_id", "condition", "text"}
        assert rec["condition"] == "voc"


def test_parallel_grid_matches_serial(tmp_path):
    # every file, against the digest of the serial grid_run
    cmd_grid(micro_spec(str(tmp_path)), tmp_path, jobs=2)
    assert _tree_digest(tmp_path) == (GRID_FILES, GRID_DIGEST)


def test_parallel_worker_reads_the_base_and_each_split_once(grid_out, tmp_path, monkeypatch):
    spec, out = grid_out
    copy = _copy_of(grid_out, tmp_path)
    units = [(c.cell_id, seed) for c in spec.strategies for seed in spec.seeds][1:]
    cells = [f"{cell_id}_s{seed}" for cell_id, seed in units]
    outputs = [cell_dir(copy, c, s) / name for c, s in units for name in ("metrics.jsonl", "checkpoint.json")]
    outputs += [transcript_path(copy, cell, cond) for cell in cells for cond in ("mix", "voc")]
    for path in outputs:
        path.unlink()

    reads = _record_reads(monkeypatch, copy)
    monkeypatch.setattr(cli, "_worker", {})
    cli._init_worker(spec, copy)
    for cell_id, seed in units:
        cli._finetune_worker(cell_id, seed)
    for cell in cells:
        cli._decode_worker(cell)
    assert reads["corpus"] == ["corpora/train.jsonl", "corpora/test.jsonl"]
    assert reads["checkpoint"] == ["checkpoints/pretrain.json"] + [
        f"cells/{cell}/checkpoint.json" for cell in cells
    ]
    for path in outputs:
        assert path.read_bytes() == (out / path.relative_to(copy)).read_bytes()


def test_main_cli_round_trip(tmp_path):
    out = tmp_path / "cli_out"
    spec_path = tmp_path / "spec.json"
    save_spec(micro_spec(str(out)), spec_path)
    assert main(["gen-data", "--spec", str(spec_path)]) == 0
    assert main(["pretrain", "--spec", str(spec_path)]) == 0
    assert main(["finetune", "voc", "--seed", "0", "--spec", str(spec_path)]) == 0
    with pytest.raises(SystemExit):
        main(["finetune", "voc", "--seed", "7", "--spec", str(spec_path)])


def _copy_of(grid_out, tmp_path) -> Path:
    _, out = grid_out
    copy = tmp_path / "copy"
    shutil.copytree(out, copy)
    return copy


@pytest.mark.parametrize("damage", ["truncate", "duplicate", "unknown_id", "condition"])
def test_eval_refuses_incomplete_transcripts(grid_out, tmp_path, damage):
    spec = grid_out[0]
    out = _copy_of(grid_out, tmp_path)
    path = transcript_path(out, "pretrained", "voc")
    lines = path.read_text().splitlines(keepends=True)
    expected = len(lines)
    if damage == "truncate":
        lines = lines[:3]
    elif damage == "duplicate":
        lines[1] = lines[0]
    elif damage == "unknown_id":
        lines[0] = json.dumps({**json.loads(lines[0]), "sample_id": "nope-1-0"}) + "\n"
    else:
        lines[0] = json.dumps({**json.loads(lines[0]), "condition": "mix"}) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as err:
        cmd_eval(spec, out)
    assert str(err.value).startswith(f"{path}: incomplete transcripts: ")
    assert f"has {len(lines)} lines" in str(err.value)
    assert f"expected {expected}" in str(err.value)


@pytest.mark.parametrize("line, damage, error", [
    (2, b"not json\n", "JSONDecodeError"),
    (2, b"[1, 2]\n", "TypeError"),
    (1, b'"text"\n', "TypeError"),
    (2, {"text": 5}, "TypeError"),
    (3, b"\xff", "UnicodeDecodeError"),
], ids=["not_json", "list", "string", "text_not_string", "not_utf8"])
def test_eval_refuses_an_unreadable_transcript_line_by_its_number(grid_out, tmp_path, line, damage, error):
    spec = grid_out[0]
    out = _copy_of(grid_out, tmp_path)
    path = transcript_path(out, "pretrained", "voc")
    lines = path.read_bytes().splitlines(keepends=True)
    if isinstance(damage, dict):  # fields of the line's record replaced
        damage = json.dumps({**json.loads(lines[line - 1]), **damage}).encode() + b"\n"
    elif damage == b"\xff":  # a byte that is not UTF-8, inside the line's text
        damage = lines[line - 1].replace(b'"text": "', b'"text": "\xff', 1)
    lines[line - 1] = damage
    path.write_bytes(b"".join(lines))
    with pytest.raises(ValueError) as err:
        cmd_eval(spec, out)
    assert str(err.value).startswith(f"{path}: line {line}: malformed record ({error}: ")


def test_finetune_on_truncated_base_names_the_file(grid_out, tmp_path):
    spec = grid_out[0]
    out = _copy_of(grid_out, tmp_path)
    base = out / "checkpoints" / "pretrain.json"
    base.write_bytes(base.read_bytes()[:1000])
    with pytest.raises(ValueError) as err:
        cmd_finetune(spec, out, "voc", seed=0)
    assert str(err.value).startswith(f"{base}: malformed checkpoint (JSONDecodeError: ")


def test_an_adapters_file_missing_adapters_is_refused(grid_out, tmp_path):
    path = cell_dir(_copy_of(grid_out, tmp_path), "voc", 0) / "checkpoint.json"
    doc = json.loads(path.read_text())
    dropped = sorted(name for name in doc["adapters"] if name.startswith("dec."))
    assert len(dropped) == 8
    for name in dropped:
        del doc["adapters"][name]
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError) as err:
        model.load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: adapters missing")
    assert all(name in str(err.value) for name in dropped)


def test_the_cells_of_a_seed_are_paired(grid_out, tmp_path, monkeypatch):
    # voc, mix and random draw the same samples at every step; both and cns see
    # the same padded rows and draw the same dropout masks, which depend only on
    # shape, rate and RNG state. Paired comparisons between cells rest on this.
    out = _copy_of(grid_out, tmp_path)
    ids = ["voc", "mix", "random", "both", "cns_l1_w10.0"]
    cells = {c.cell_id: c for c in default_spec().strategies}
    spec = replace(grid_out[0], strategies=[cells[i] for i in ids],
                   finetune=replace(grid_out[0].finetune, total_steps=4))
    logs = {}

    def next_batch(state, corpus, batch_size, orig=training.next_batch):
        batch = orig(state, corpus, batch_size)
        log["batches"].append([s.sample_id for s in batch])
        return batch

    def pad_batch(rows, orig=training.pad_batch):
        log["pad"].append(orig(rows))
        return log["pad"][-1]

    def dropout(a, rate, rng, orig=numerics.dropout):
        log["dropout"].append((a.values.shape, rate, copy.deepcopy(rng.bit_generator.state)))
        return orig(a, rate, rng)

    monkeypatch.setattr(training, "next_batch", next_batch)
    monkeypatch.setattr(training, "pad_batch", pad_batch)
    monkeypatch.setattr(numerics, "dropout", dropout)
    base, train = cli._load_base(out), cli._load_split(out, "train")
    for cell_id in ids:
        log = logs[cell_id] = {"batches": [], "pad": [], "dropout": []}
        cmd_finetune(spec, out, cell_id, 1, base=base, train=train)

    assert all(len(logs[i]["batches"]) == 4 for i in ids)
    assert all(logs[i]["batches"] == logs["voc"]["batches"] for i in ids)
    both, cns = logs["both"], logs["cns_l1_w10.0"]
    assert len(both["pad"]) == 4 and len(both["dropout"]) == 4 * 12
    for got, want in zip(cns["pad"], both["pad"], strict=True):
        assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))
    assert cns["dropout"] == both["dropout"]


def test_moved_output_directory_still_decodes(grid_out, tmp_path):
    spec, out = grid_out
    moved = tmp_path / "moved"
    shutil.move(_copy_of(grid_out, tmp_path), moved)
    cell = "cns_l2_w1.0_s1"
    for cond in ("mix", "voc"):
        transcript_path(moved, cell, cond).unlink()
    cmd_decode(spec, moved, only=[cell])
    for cond in ("mix", "voc"):
        assert transcript_path(moved, cell, cond).read_bytes() == transcript_path(out, cell, cond).read_bytes()


# digests of the default spec's splits, as rendered before the per-language
# tables were built once per corpus instead of once per song
SPLIT_DIGESTS = {
    "pretrain": "d8269b48f2835aa98ab5faf4b555b95b87ca07bf5216d443a10e45dc12d105d5",
    "train": "9b79dc0bc0d48883a3fffd833b1b413bbad5e5b03a16573051fcdbb1e0ce262f",
    "dev": "68bfc639e9ab99d03950735069507b2f58f167f68a9f7bc6d82c42fa84f0d71b",
    "test": "b17b0d513f3f6c6fda840f314ec0fd30f83151c68f031c6712122520c93e6500",
}


def test_every_split_renders_unchanged(tmp_path):
    spec = default_spec(str(tmp_path))
    cmd_gen_data(spec, tmp_path)
    for split, digest in SPLIT_DIGESTS.items():
        built = build_corpus(
            cli._split_gen(spec, split), spec.corpus_songs[split], cli._split_seed_base(spec, split)
        )
        _, loaded = load_corpus(corpus_path(tmp_path, split))
        assert corpus_digest(built) == digest, split
        assert corpus_digest(loaded) == digest, split
