"""Experiment driver: spec-file-driven corpus generation, training,
decoding, and WER reporting over a strategy x seed grid.

Subcommands: gen-data, pretrain, finetune, decode, eval, and grid (runs
everything). A single JSON spec file pins every knob so a rerun
reproduces all emitted files byte for byte; grid cells are independent
jobs and may run in parallel worker processes. A spec file holds
`asdict(spec)`, read back through `files.read_settings`. Each setting is checked
when the spec is built, by the class that owns it (`training.PhasePlanSpec`,
`model.LoraSpec`) or against the model and splits by `ExperimentSpec`, so a
setting that would fail later stops a command before it writes anything.
Every refusal of `load_spec` is a ValueError that starts with the file's path
(see files.refusing), then names the field and states the rule, as in
`<path>: pretrain: total_steps must be >= 2, got 1`.
Each phase trains on `TrainPlan(loss, plan)`; the model says what trains, as
`model.attach_adapters` freezes the base. The pretrain split renders the spec's
gen with `PRETRAIN_GEN`, which its corpus header records in full.

An output directory holds corpora/<split>.jsonl, checkpoints/pretrain.json
(the full pretrained model) with its metrics log, one cells/<id>_s<seed>/
directory per strategy cell and seed, transcripts/<model>/<condition>.jsonl
and reports/. A cell directory holds metrics.jsonl, the per-step losses,
and checkpoint.json, the cell's LoRA settings once, adapters and seed
lineage with a reference to ../../checkpoints/pretrain.json and its
base_digest; the pretrained base is not copied into it. Decode and a serial
grid load the base and each corpus once per command and share the frozen
base, read-only, across cells; in a parallel grid each worker loads them
once. Decode transcribes every condition of a model in one
`transcribe_batch` call, a sample's vocal and mixture windows in one batch.
Every file is written atomically (see files.atomic_write); a transcript line
that eval cannot read is refused by its file and line number. Eval's median
over seeds is `statistics.median`: numpy's bit for bit, without `numpy.ma`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from pathlib import Path

import numpy as np

from voxmix.decoding import DecodeConfig, transcribe_batch
from voxmix.evaluation import CONDITIONS, aggregate, comparison_markdown, report_csv, wer
from voxmix.files import atomic_write, parse_json, read_settings, refusing
from voxmix.losses import LossConfig
from voxmix.model import (
    LoraSpec,
    ModelConfig,
    TranscriberModel,
    attach_adapters,
    build_model,
    load_checkpoint,
    share_base,
)
from voxmix.synthdata import (
    SONG_SLOTS,
    VOCAB_SIZE,
    GenConfig,
    PairedSample,
    detokenize,
    load_corpus,
    write_corpus,
)
from voxmix.training import PhasePlanSpec, TrainPlan, run_experiment

SPLITS = ("pretrain", "train", "dev", "test")
PRETRAINED_CELL = "pretrained"
# the pretrain split's recipe over the spec's gen: less jitter, and a mixture that is its vocal
PRETRAIN_GEN = {"jitter": 0.25, "gain_range": (0.0, 0.0)}


@dataclass
class StrategyCell:
    cell_id: str
    loss: LossConfig


@dataclass
class ExperimentSpec:
    out_dir: str
    seeds: list[int]
    gen: GenConfig
    corpus_songs: dict[str, int]
    model: ModelConfig
    lora: LoraSpec
    pretrain: PhasePlanSpec
    finetune: PhasePlanSpec
    strategies: list[StrategyCell]
    decode: DecodeConfig

    def __post_init__(self):
        if self.finetune.seed != 0:
            raise ValueError(f"finetune.seed must be 0, got {self.finetune.seed}: "
                             f"fine-tune seeds come from seeds {self.seeds}")
        ids = [c.cell_id for c in self.strategies]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate strategy ids in spec: {ids}")
        if PRETRAINED_CELL in ids:
            raise ValueError(f"strategy id {PRETRAINED_CELL!r} is reserved")
        if not self.seeds or len(set(self.seeds)) != len(self.seeds) or min(self.seeds) < 0:
            raise ValueError(f"seeds must be a non-empty list of distinct ints >= 0: {self.seeds}")
        if self.pretrain.seed not in self.seeds:
            raise ValueError(
                f"pretrain seed {self.pretrain.seed} is not in the seeds list {self.seeds}"
            )
        if set(self.corpus_songs) != set(SPLITS):
            raise ValueError(f"corpus_songs must name the splits {list(SPLITS)}, "
                             f"got {sorted(self.corpus_songs)}")
        for split in SPLITS:
            if not 1 <= (n := self.corpus_songs[split]) <= SONG_SLOTS:
                want = ">= 1" if n < 1 else f"<= {SONG_SLOTS}, the song seeds a split has per language"
                raise ValueError(f"corpus_songs.{split} must be {want}, got {n!r}")
            _check_corpus_feeds_model(_split_gen(self, split), self.model, split)
        if (n := self.decode.max_tokens) - 1 > self.model.max_token_len:  # last token not fed back
            raise ValueError(f"decode.max_tokens {n} feeds the decoder {n - 1} positions, "
                             f"over model.max_token_len {self.model.max_token_len}")


def _check_corpus_feeds_model(gen: GenConfig, model: ModelConfig, split: str) -> None:
    """Raise a ValueError naming both fields when a split's segments cannot enter the model."""
    # a line costs frames_per_token * (characters + 1): a segment has <= n - 1 characters
    n = gen.segment_max_frames // gen.frames_per_token
    frames = (n - 1) * gen.frames_per_token
    seg = f"gen.segment_max_frames {gen.segment_max_frames} makes segments of up to"
    for bad, message in (
        (model.vocab_size < VOCAB_SIZE,
         f"model.vocab_size {model.vocab_size} is under the tokenizer's {VOCAB_SIZE} ids"),
        (gen.feature_dim != model.feature_dim,
         f"gen.feature_dim {gen.feature_dim} differs from model.feature_dim {model.feature_dim}"),
        (frames > model.max_audio_frames,
         f"{seg} {frames} frames, over model.max_audio_frames {model.max_audio_frames}"),
        (n > model.max_token_len,
         f"{seg} {n} decoder-input tokens, over model.max_token_len {model.max_token_len}"),
    ):
        if bad:
            raise ValueError(f"{split} corpus: {message}")


def default_spec(out_dir: str = "runs/default") -> ExperimentSpec:
    """The paper-shaped strategy grid at toy scale."""
    strategies = [
        StrategyCell("voc", LossConfig(strategy="voc")),
        StrategyCell("mix", LossConfig(strategy="mix")),
        StrategyCell("random", LossConfig(strategy="random")),
        StrategyCell("both", LossConfig(strategy="both")),
    ]
    for kind in ("L1", "L2"):
        for weight in (0.1, 1.0, 10.0):
            strategies.append(
                StrategyCell(
                    f"cns_{kind.lower()}_w{weight}",
                    LossConfig(strategy="cns", cns_kind=kind, weight=weight),
                )
            )
    return ExperimentSpec(
        out_dir=out_dir,
        seeds=[0, 1, 2, 3, 4],
        gen=GenConfig(),
        corpus_songs={"pretrain": 64, "train": 64, "dev": 8, "test": 12},
        model=ModelConfig(),
        lora=LoraSpec(),
        pretrain=PhasePlanSpec(peak_lr=3e-3, total_steps=2000, batch_size=16, seed=0),
        finetune=PhasePlanSpec(peak_lr=1e-3, total_steps=1000, batch_size=8),
        decode=DecodeConfig(max_tokens=24),
        strategies=strategies,
    )


# ---------------------------------------------------------------------------
# spec files: asdict(spec) written, read back through files.read_settings
# ---------------------------------------------------------------------------


def load_spec(path) -> ExperimentSpec:
    """The spec at `path`; a file without a valid spec raises a ValueError starting
    with the path (see files.refusing)."""
    with refusing(path, "spec"), open(path, "r", encoding="utf-8") as fh:
        return read_settings(ExperimentSpec, parse_json(fh.read()))


def save_spec(spec: ExperimentSpec, path) -> None:
    with atomic_write(path) as fh:
        fh.write(json.dumps(asdict(spec), sort_keys=True, indent=2) + "\n")


# ---------------------------------------------------------------------------
# paths and prerequisites
# ---------------------------------------------------------------------------


def corpus_path(out: Path, split: str) -> Path:
    return out / "corpora" / f"{split}.jsonl"


def pretrain_checkpoint_path(out: Path) -> Path:
    return out / "checkpoints" / "pretrain.json"


def cell_name(cell_id: str, seed: int) -> str:
    return f"{cell_id}_s{seed}"


def cell_dir(out: Path, cell_id: str, seed: int) -> Path:
    return out / "cells" / cell_name(cell_id, seed)


def transcript_path(out: Path, cell: str, condition: str) -> Path:
    return out / "transcripts" / cell / f"{condition}.jsonl"


def _require(path: Path, hint: str) -> Path:
    if not path.exists():
        raise SystemExit(f"missing prerequisite: {path} ({hint})")
    return path


def _load_split(out: Path, split: str):
    _, samples = load_corpus(_require(corpus_path(out, split), "run gen-data first"))
    return samples


def _load_base(out: Path) -> TranscriberModel:
    model, _ = load_checkpoint(_require(pretrain_checkpoint_path(out), "run pretrain first"))
    return model


def _split_seed_base(spec: ExperimentSpec, split: str) -> int:
    return SPLITS.index(split) * SONG_SLOTS * len(spec.gen.languages)


def _split_gen(spec: ExperimentSpec, split: str) -> GenConfig:
    return replace(spec.gen, **PRETRAIN_GEN) if split == "pretrain" else spec.gen


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_gen_data(spec: ExperimentSpec, out: Path) -> None:
    (out / "corpora").mkdir(parents=True, exist_ok=True)
    for split in SPLITS:
        write_corpus(corpus_path(out, split), _split_gen(spec, split), spec.corpus_songs[split],
                     _split_seed_base(spec, split))


def cmd_pretrain(spec: ExperimentSpec, out: Path) -> None:
    corpus = _load_split(out, "pretrain")
    (out / "checkpoints").mkdir(parents=True, exist_ok=True)
    model = build_model(spec.model, seed=spec.pretrain.seed)
    run_experiment(
        TrainPlan(LossConfig(strategy="voc"), spec.pretrain),
        corpus,
        model,
        out / "checkpoints" / "pretrain_metrics.jsonl",
        pretrain_checkpoint_path(out),
        seed_lineage={"init_seed": spec.pretrain.seed, "plan_seed": spec.pretrain.seed},
    )


def _cell(spec: ExperimentSpec, cell_id: str) -> StrategyCell:
    for cell in spec.strategies:
        if cell.cell_id == cell_id:
            return cell
    known = [c.cell_id for c in spec.strategies]
    raise SystemExit(f"unknown strategy id {cell_id!r}; spec defines {known}")


def cmd_finetune(
    spec: ExperimentSpec,
    out: Path,
    cell_id: str,
    seed: int,
    base: TranscriberModel | None = None,
    train: list[PairedSample] | None = None,
) -> None:
    """Train one cell's adapters over the pretrained base.

    `base` (the loaded pretrain checkpoint) and `train` (the train split) are
    loaded here unless given; a grid loads them once for all its cells.
    """
    if seed not in spec.seeds:
        raise SystemExit(f"seed {seed} is not in the spec seeds list {spec.seeds}")
    cell = _cell(spec, cell_id)
    corpus = train if train is not None else _load_split(out, "train")
    model = share_base(base if base is not None else _load_base(out))

    adapter_seed = int(np.random.SeedSequence([seed, zlib.crc32(cell_id.encode())]).generate_state(1)[0])
    attach_adapters(model, spec.lora, seed=adapter_seed)
    cdir = cell_dir(out, cell_id, seed)
    cdir.mkdir(parents=True, exist_ok=True)
    run_experiment(
        TrainPlan(cell.loss, replace(spec.finetune, seed=seed)),
        corpus,
        model,
        cdir / "metrics.jsonl",
        cdir / "checkpoint.json",
        seed_lineage={"pretrain_seed": spec.pretrain.seed, "cell": cell_id, "seed": seed,
                      "adapter_seed": adapter_seed},
    )


def _decode_model_to_files(spec: ExperimentSpec, out: Path, cell: str, model, test) -> None:
    tdir = out / "transcripts" / cell
    tdir.mkdir(parents=True, exist_ok=True)
    windows = [s.x_m if condition == "mix" else s.x_v for condition in CONDITIONS for s in test]
    token_rows = transcribe_batch(model, windows, spec.decode)
    for i, condition in enumerate(CONDITIONS):
        with atomic_write(transcript_path(out, cell, condition)) as fh:
            for sample, tokens in zip(test, token_rows[i * len(test):]):
                rec = {"sample_id": sample.sample_id, "condition": condition,
                       "text": detokenize(tokens)}
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def all_cells(spec: ExperimentSpec) -> list[str]:
    return [PRETRAINED_CELL] + [
        cell_name(c.cell_id, seed) for c in spec.strategies for seed in spec.seeds
    ]


def cmd_decode(
    spec: ExperimentSpec,
    out: Path,
    only: list[str] | None = None,
    base: TranscriberModel | None = None,
    test: list[PairedSample] | None = None,
) -> None:
    """Transcribe the test split with each model; the base and the split are
    loaded once here unless given."""
    test = test if test is not None else _load_split(out, "test")
    base = base if base is not None else _load_base(out)
    for cell in only or all_cells(spec):
        if cell == PRETRAINED_CELL:
            model = base
        else:
            cell_id, seed = cell.rsplit("_s", 1)
            ckpt = _require(
                cell_dir(out, cell_id, int(seed)) / "checkpoint.json",
                f"run finetune {cell_id} --seed {seed} first",
            )
            model, _ = load_checkpoint(ckpt, base=base)
        _decode_model_to_files(spec, out, cell, model, test)


def _load_transcripts(out: Path, cell: str, refs: dict[str, str]) -> dict[tuple[str, str], str]:
    """A cell's transcripts, exactly one line per test sample and condition; a line
    that does not parse is refused by its number (`files.refusing`)."""
    hyps = {}
    for condition in CONDITIONS:
        path = transcript_path(out, cell, condition)
        found, bad, lineno = {}, 0, 0
        with refusing(path, "transcripts"), open(path, "rb") as fh:
            for lineno, line in enumerate(fh, start=1):
                with refusing(f"line {lineno}", "record"):
                    rec = parse_json(line.decode("utf-8"))
                    sid, text = rec["sample_id"], rec["text"]
                    if not isinstance(text, str):
                        raise TypeError(f"text must be str, got {text!r}")
                    if rec["condition"] == condition and sid in refs and sid not in found:
                        found[sid] = text
                    else:
                        bad += 1
            if bad or len(found) != len(refs):
                raise ValueError(
                    f"incomplete transcripts: the file has {lineno} lines, {bad} of them with a "
                    f"wrong condition, unknown or duplicate sample id; expected {len(refs)}, "
                    f"one per test sample (run decode again)"
                )
        hyps.update(((sid, condition), text) for sid, text in found.items())
    return hyps


def cmd_eval(spec: ExperimentSpec, out: Path) -> None:
    test = _load_split(out, "test")
    missing = [
        cell
        for cell in all_cells(spec)
        for cond in CONDITIONS
        if not transcript_path(out, cell, cond).exists()
    ]
    if missing:
        raise SystemExit(f"missing transcripts for cells: {sorted(set(missing))}")

    refs = {s.sample_id: s.text for s in test}
    subset_map = {s.sample_id: s.language for s in test}
    subsets = list(dict.fromkeys(s.language for s in test)) + ["overall"]

    rdir = out / "reports"
    rdir.mkdir(parents=True, exist_ok=True)
    pooled_by_cell = {}
    for cell in all_cells(spec):
        hyps = _load_transcripts(out, cell, refs)
        details = {
            (sid, cond): wer(refs[sid], text) for (sid, cond), text in sorted(hyps.items())
        }
        pooled = aggregate(details, subset_map)
        with atomic_write(rdir / f"{cell}.csv") as fh:
            fh.write(report_csv(pooled))
        pooled_by_cell[cell] = {key: d.wer for key, d in pooled.items()}

    rows = [(PRETRAINED_CELL, pooled_by_cell[PRETRAINED_CELL])]
    for cell in spec.strategies:
        per_key: dict[tuple[str, str], float] = {}
        for key in pooled_by_cell[cell_name(cell.cell_id, spec.seeds[0])]:
            values = [pooled_by_cell[cell_name(cell.cell_id, s)][key] for s in spec.seeds]
            per_key[key] = statistics.median(values)
        rows.append((cell.cell_id, per_key))

    with atomic_write(rdir / "summary.md") as fh:
        fh.write(comparison_markdown(rows, subsets))
    lines = ["strategy,subset,condition,wer_median"]
    for name, cells in rows:
        for (subset, condition) in sorted(cells):
            lines.append(f"{name},{subset},{condition},{cells[(subset, condition)]:.6f}")
    with atomic_write(rdir / "summary.csv") as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# grid orchestration
# ---------------------------------------------------------------------------


# A worker process of a parallel grid: the spec and output directory, the
# base that _init_worker loads once, and each split once it is first used.
_worker: dict = {}


def _init_worker(spec: ExperimentSpec, out: Path) -> None:
    _worker.clear()
    _worker.update(spec=spec, out=out, base=_load_base(out), splits={})


def _worker_split(split: str) -> list[PairedSample]:
    splits = _worker["splits"]
    if split not in splits:
        splits[split] = _load_split(_worker["out"], split)
    return splits[split]


def _finetune_worker(cell_id: str, seed: int) -> None:
    cmd_finetune(_worker["spec"], _worker["out"], cell_id, seed,
                 base=_worker["base"], train=_worker_split("train"))


def _decode_worker(cell: str) -> None:
    cmd_decode(_worker["spec"], _worker["out"], only=[cell],
               base=_worker["base"], test=_worker_split("test"))


def cmd_grid(spec: ExperimentSpec, out: Path, jobs: int = 1) -> None:
    """The whole pipeline; with jobs > 1, cells go one at a time to workers
    that each load the base once and each split on first use."""
    cmd_gen_data(spec, out)
    cmd_pretrain(spec, out)
    units = [(c.cell_id, seed) for c in spec.strategies for seed in spec.seeds]
    if jobs <= 1:
        base = _load_base(out)
        train = _load_split(out, "train") if units else []
        for cell_id, seed in units:
            cmd_finetune(spec, out, cell_id, seed, base=base, train=train)
        cmd_decode(spec, out, base=base)
    else:
        with ProcessPoolExecutor(max_workers=jobs, initializer=_init_worker, initargs=(spec, out)) as pool:
            list(pool.map(_finetune_worker, [c for c, _ in units], [s for _, s in units]))
            list(pool.map(_decode_worker, all_cells(spec)))
    cmd_eval(spec, out)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voxmix",
        description="dual-domain LoRA fine-tuning experiments on synthetic paired audio",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--spec", type=Path, default=None, help="experiment spec JSON (default: built-in)")
        p.add_argument("--out", type=Path, default=None, help="output directory (default: spec out_dir)")

    common(sub.add_parser("gen-data", help="generate train/dev/test corpora"))
    common(sub.add_parser("pretrain", help="train the base model"))
    ft = sub.add_parser("finetune", help="fine-tune one strategy cell")
    common(ft)
    ft.add_argument("strategy_id", help="strategy id from the spec grid")
    ft.add_argument("--seed", type=int, required=True, help="fine-tuning seed (from the spec seeds)")
    dec = sub.add_parser("decode", help="transcribe the test split with all available models")
    common(dec)
    common(sub.add_parser("eval", help="compute WER reports and the summary table"))
    grid = sub.add_parser("grid", help="run the full pipeline")
    common(grid)
    grid.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec(args.spec) if args.spec else default_spec()
    out = Path(args.out) if args.out else Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if args.command == "gen-data":
        cmd_gen_data(spec, out)
    elif args.command == "pretrain":
        cmd_pretrain(spec, out)
    elif args.command == "finetune":
        cmd_finetune(spec, out, args.strategy_id, args.seed)
    elif args.command == "decode":
        cmd_decode(spec, out)
    elif args.command == "eval":
        cmd_eval(spec, out)
    elif args.command == "grid":
        cmd_grid(spec, out, jobs=args.jobs)
    return 0


if __name__ == "__main__":
    sys.exit(main())
