"""Benchmark of the voxmix strategy grid.

    python3 benchmark/run.py --workload finetune-grid --seed 0 --seconds 35 --trace 0

Runs one workload in rounds until --seconds have passed. Every round
repeats the same work in a fresh output directory: set-up, then the
measured phase, both through the voxmix.cli command functions, serially
in this process. After the last round the first round's outputs are
checked against values computed apart from the program (see checks.py),
and every later round must have left the same bytes. Metrics are medians
over rounds. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; progress goes to stderr.

With --trace 1 the layers' public functions are wrapped (see layertrace.py);
rounds alternate untraced and traced, the per-layer metrics come from the
traced rounds and trace.overhead_pct compares the two kinds' wall_s.
"""

from __future__ import annotations

import os

# one thread per process for steady timings; must precede the numpy import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import checks
from layertrace import PhaseClock, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".bench_runs"

WORKLOADS = ("finetune-grid", "pretrain", "decode-eval")

# Work per round. Each workload's round lasts about 11-14 s on a 2-CPU
# machine, so that three rounds fit in --seconds 35 (two when the machine
# runs slow); see README.md.
BASE_STEPS = 300  # pretrain steps of the base that finetune-grid and decode-eval build on
FINETUNE_STEPS = 35  # fine-tune steps of each finetune-grid cell
PRETRAIN_STEPS = 700  # steps of the pretrain workload
DECODE_SEEDS = 2  # fine-tune seeds per strategy in decode-eval
DECODE_CELL_STEPS = 2  # fine-tune steps that make each decode-eval cell checkpoint
SINGLE_WINDOWS = 3  # test windows per condition transcribed alone


def import_voxmix():
    """Import voxmix from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import voxmix
        from voxmix import cli, decoding, evaluation, losses, model, numerics, synthdata, training
    except ImportError as err:
        sys.exit(f"cannot import voxmix from {ROOT / 'src'}: {err}")
    if Path(voxmix.__file__).resolve().parent != ROOT / "src" / "voxmix":
        sys.exit(f"voxmix imported from {voxmix.__file__}, not from this checkout")
    return {
        "cli": cli, "decoding": decoding, "evaluation": evaluation, "losses": losses,
        "model": model, "numerics": numerics, "synthdata": synthdata, "training": training,
    }


def make_spec(vx, workload: str, seed: int, out: Path):
    """default_spec() with the workload's sizes; --seed picks features and training seeds.

    The corpus texts, and so the number and length of windows, stay those
    of the default spec, so the work per round does not depend on the seed.
    """
    spec = vx["cli"].default_spec(str(out))
    state = np.random.SeedSequence([seed, 0x62656E6368]).generate_state(3)
    gen = replace(spec.gen, embed_seed=int(state[0]), distractor_seed=int(state[1]))
    first = int(state[2] % 1_000_000)
    if workload == "finetune-grid":
        return replace(
            spec, gen=gen, seeds=[first],
            pretrain=replace(spec.pretrain, seed=first, total_steps=BASE_STEPS),
            finetune=replace(spec.finetune, total_steps=FINETUNE_STEPS),
        )
    if workload == "pretrain":
        return replace(
            spec, gen=gen, seeds=[first], strategies=[],
            pretrain=replace(spec.pretrain, seed=first, total_steps=PRETRAIN_STEPS),
        )
    return replace(
        spec, gen=gen, seeds=[first + i for i in range(DECODE_SEEDS)],
        pretrain=replace(spec.pretrain, seed=first, total_steps=BASE_STEPS),
        finetune=replace(spec.finetune, total_steps=DECODE_CELL_STEPS),
    )


def _test_samples(vx, out: Path):
    _, test = vx["synthdata"].load_corpus(vx["cli"].corpus_path(out, "test"))
    return test


def _transcribe(vx, model, samples, spec, alone: bool = False):
    """(sample, condition, tokens) for each sample and condition, batched or one at a time."""
    for condition in checks.CONDITIONS:
        windows = [s.x_m if condition == "mix" else s.x_v for s in samples]
        if alone:
            rows = [vx["decoding"].transcribe_batch(model, [w], spec.decode)[0] for w in windows]
        else:
            rows = vx["decoding"].transcribe_batch(model, windows, spec.decode)
        yield from ((sample, condition, tokens) for sample, tokens in zip(samples, rows))


def untrained_wer(vx, spec, out: Path) -> dict:
    """Pooled WER of the model pretraining starts from."""
    model = vx["model"].build_model(spec.model, seed=spec.pretrain.seed)
    hyps = {
        (sample.sample_id, condition): vx["synthdata"].detokenize(tokens)
        for sample, condition, tokens in _transcribe(vx, model, _test_samples(vx, out), spec)
    }
    return checks.pooled_wer(checks.reference_records(out), hyps)


def transcribe_alone(vx, spec, out: Path, cell: str) -> dict:
    """Text of a few test windows of one model, each transcribed as a batch of one."""
    cli = vx["cli"]
    if cell == checks.PRETRAINED:
        path = cli.pretrain_checkpoint_path(out)
    else:
        cell_id, seed = cell.rsplit("_s", 1)
        path = cli.cell_dir(out, cell_id, int(seed)) / "checkpoint.json"
    model, _ = vx["model"].load_checkpoint(path)
    test = _test_samples(vx, out)
    picks = [test[i * (len(test) - 1) // (SINGLE_WINDOWS - 1)] for i in range(SINGLE_WINDOWS)]
    return {
        (sample.sample_id, condition): vx["synthdata"].detokenize(tokens)
        for sample, condition, tokens in _transcribe(vx, model, picks, spec, alone=True)
    }


class Bench:
    def __init__(self, vx, workload: str, seed: int, traced: bool):
        self.vx, self.workload, self.seed = vx, workload, seed
        self.clock = PhaseClock()
        self.clock.install(vx["cli"])
        self.tracer = Tracer() if traced else None
        if traced:
            self.tracer.install(vx)
        self.attempted = 0
        self.rounds: list[dict] = []
        self.digests: list[str] = []
        self.peak_rss_mb = 0.0

    # -- one round -----------------------------------------------------------

    def run_round(self, out: Path, traced: bool) -> dict:
        cli = self.vx["cli"]
        spec = make_spec(self.vx, self.workload, self.seed, out)
        marks = {}

        def setup_done(t):
            marks["setup_end"] = t
            if traced:
                self.tracer.recording = True

        t0 = time.perf_counter()
        if self.workload == "decode-eval":
            self.clock.reset(None, None)
            cli.cmd_gen_data(spec, out)
            cli.cmd_pretrain(spec, out)
            for cell in spec.strategies:
                for s in spec.seeds:
                    cli.cmd_finetune(spec, out, cell.cell_id, s)
            setup_done(time.perf_counter())
            cli.cmd_decode(spec, out)
            cli.cmd_eval(spec, out)
        else:
            setup_phase = "pretrain" if self.workload == "finetune-grid" else "gen_data"
            self.clock.reset(setup_phase, setup_done)
            cli.cmd_grid(spec, out, jobs=1)
        end = self.clock.last_end("eval")
        if traced:
            self.tracer.recording = False
            self.tracer.rounds += 1

        clock, setup_end = self.clock, marks["setup_end"]
        cells = cli.all_cells(spec)
        windows = len(checks.reference_records(out))
        if self.workload == "finetune-grid":
            samples = len(spec.strategies) * len(spec.seeds) * spec.finetune.total_steps
            throughput = samples * spec.finetune.batch_size / (clock.first_start("decode") - setup_end)
        elif self.workload == "pretrain":
            samples = spec.pretrain.total_steps * spec.pretrain.batch_size
            throughput = samples / clock.total("pretrain")
        else:
            throughput = len(cells) * len(checks.CONDITIONS) * windows / clock.total("decode")
        record = {
            "traced": traced,
            "round_s": end - t0,
            "setup_s": setup_end - t0,
            "wall_s": end - setup_end,
            "throughput_per_s": throughput,
            "bytes_written": sum(p.stat().st_size for p in out.rglob("*") if p.is_file()),
            "phases": {p: clock.total(p) for p in ("gen_data", "pretrain", "finetune", "decode", "eval")},
        }
        trained = 1 + len(spec.strategies) * len(spec.seeds)
        self.attempted += trained + len(cells)
        self.digests.append(checks.tree_digest(out))
        return record

    # -- output checks -------------------------------------------------------

    def check_outputs(self, spec, out: Path) -> None:
        cli = self.vx["cli"]
        cells = cli.all_cells(spec)

        def check(fn, *args):
            self.attempted += 1
            fn(*args)

        def plan(p):
            return {"total_steps": p.total_steps, "peak_lr": p.peak_lr, "warmup_frac": p.warmup_frac}

        wers = checks.cell_wers(out, cells)
        check(checks.check_transcripts_complete, out, cells)
        check(checks.check_cell_reports, out, wers)
        check(checks.check_summary, out, wers, [c.cell_id for c in spec.strategies], spec.seeds)
        pretrain_log = out / "checkpoints" / "pretrain_metrics.jsonl"
        check(checks.check_training_log, pretrain_log, "voc", 0.0, plan(spec.pretrain))
        for cell in spec.strategies:
            for s in spec.seeds:
                check(checks.check_training_log, cli.cell_dir(out, cell.cell_id, s) / "metrics.jsonl",
                      cell.loss.strategy, cell.loss.weight, plan(spec.finetune))
        check(checks.check_pretrain_lowers_loss, pretrain_log)
        check(checks.check_pretrained_wer, wers[checks.PRETRAINED], untrained_wer(self.vx, spec, out))
        check(checks.check_single_windows, out, cells[-1],
              transcribe_alone(self.vx, spec, out, cells[-1]))

    # -- the run -------------------------------------------------------------

    def run(self, seconds: float) -> dict:
        """Rounds until `seconds` have passed, then the output checks.

        Every round repeats one spec, so the checks run on the first round's
        outputs and the later rounds must match them byte for byte. The
        checks run after the last round, so that the untrained-model decode
        they make does not count toward peak_rss_mb.
        """
        RUNS.mkdir(exist_ok=True)
        run_dir = Path(tempfile.mkdtemp(prefix=f"{self.workload}-{self.seed}-", dir=RUNS))
        first = run_dir / "round0"
        try:
            start = time.perf_counter()
            min_rounds = 2 if self.tracer else 1
            # start another round while at least half of it fits in the time left
            while len(self.rounds) < min_rounds or (
                time.perf_counter() - start
                + 0.5 * statistics.fmean(r["round_s"] for r in self.rounds) < seconds
            ):
                out = run_dir / f"round{len(self.rounds)}"
                traced = self.tracer is not None and len(self.rounds) % 2 == 1
                record = self.run_round(out, traced)
                self.rounds.append(record)
                if out != first:
                    shutil.rmtree(out)
                print(f"round {len(self.rounds)}{' traced' if traced else ''}: "
                      f"setup {record['setup_s']:.3f} s, wall {record['wall_s']:.3f} s, "
                      f"{record['throughput_per_s']:.2f}/s, phases "
                      + ", ".join(f"{k} {v:.3f}" for k, v in record["phases"].items()),
                      file=sys.stderr, flush=True)
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            self.check_outputs(make_spec(self.vx, self.workload, self.seed, first), first)
            self.attempted += 1
            checks.check_reruns_identical(self.digests)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)
        return self.metrics()

    def metrics(self) -> dict:
        plain = [r for r in self.rounds if not r["traced"]]
        med = lambda rows, key: statistics.median(r[key] for r in rows)  # noqa: E731
        if self.tracer is None:
            values = {key: med(plain, key) for key in ("setup_s", "wall_s", "throughput_per_s",
                                                        "bytes_written")}
            values["peak_rss_mb"] = self.peak_rss_mb
            return _with_units(values, "end_to_end")
        traced = [r for r in self.rounds if r["traced"]]
        values = {
            f"cli.{phase}_s": statistics.median(r["phases"][phase] for r in traced)
            for phase in ("gen_data", "pretrain", "finetune", "decode", "eval")
        }
        values.update(self.tracer.metrics())
        values["trace.overhead_pct"] = 100 * (med(traced, "wall_s") / med(plain, "wall_s") - 1)
        wall = med(traced, "wall_s")
        print("trace: seconds per traced round (share of wall_s "
              f"{wall:.3f} s) by wrapped function:", file=sys.stderr)
        for key, total in self.tracer.totals_s().items():
            print(f"  {key}: {total:.4f} s ({100 * total / wall:.1f}%)", file=sys.stderr)
        if self.tracer.absent:
            print(f"trace: absent from the program: {', '.join(self.tracer.absent)}", file=sys.stderr)
        return _with_units(values, "per_layer")


def _with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json lists under `kind`, in its order and units."""
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as fh:
        listed = json.load(fh)[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in listed if m["name"] in values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    vx = import_voxmix()
    bench = Bench(vx, args.workload, args.seed, traced=bool(args.trace))
    try:
        metrics = bench.run(args.seconds)
    except checks.CheckFailed as err:
        print(f"check failed: {err}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": bench.attempted, "failed": 1, "metrics": {}}))
        return 1
    print(json.dumps({"correct": True, "attempted": bench.attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
