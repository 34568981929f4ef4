"""The benchmark's output checks pass on a real grid and fail on each corrupted output.

A toy-size grid runs once per module; each test copies its outputs,
corrupts one kind of file and expects the matching check to fail.
"""

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import run

STRATEGIES = ("voc", "mix", "random", "both", "cns_l1_w1.0")


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    vx = run.import_voxmix()
    out = tmp_path_factory.mktemp("grid") / "out"
    spec = vx["cli"].default_spec(str(out))
    spec = replace(
        spec,
        seeds=[0, 1],
        corpus_songs={"pretrain": 8, "train": 8, "dev": 1, "test": 3},
        strategies=[c for c in spec.strategies if c.cell_id in STRATEGIES],
        pretrain=replace(spec.pretrain, total_steps=30),
        finetune=replace(spec.finetune, total_steps=4),
    )
    vx["cli"].cmd_grid(spec, out, jobs=1)
    return vx, spec, out


@pytest.fixture
def copy(grid, tmp_path):
    vx, spec, out = grid
    dst = tmp_path / "out"
    shutil.copytree(out, dst)
    return vx, spec, dst


def _plan(spec, phase):
    p = getattr(spec, phase)
    return {"total_steps": p.total_steps, "peak_lr": p.peak_lr, "warmup_frac": p.warmup_frac}


def _rewrite_jsonl(path: Path, edit) -> None:
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows = edit(rows)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def _rewrite_csv(path: Path, edit) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    fields = list(rows[0])
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _check_logs(spec, out):
    checks.check_training_log(out / "checkpoints" / "pretrain_metrics.jsonl", "voc", 0.0,
                              _plan(spec, "pretrain"))
    for cell in spec.strategies:
        for s in spec.seeds:
            checks.check_training_log(out / "cells" / f"{cell.cell_id}_s{s}" / "metrics.jsonl",
                                      cell.loss.strategy, cell.loss.weight, _plan(spec, "finetune"))


def _check_wer(vx, spec, out):
    cells = vx["cli"].all_cells(spec)
    checks.check_transcripts_complete(out, cells)
    wers = checks.cell_wers(out, cells)
    checks.check_cell_reports(out, wers)
    checks.check_summary(out, wers, [c.cell_id for c in spec.strategies], spec.seeds)


def test_checks_pass_on_program_outputs(grid):
    vx, spec, out = grid
    _check_wer(vx, spec, out)
    _check_logs(spec, out)
    checks.check_pretrain_lowers_loss(out / "checkpoints" / "pretrain_metrics.jsonl")
    cell = vx["cli"].all_cells(spec)[-1]
    checks.check_single_windows(out, cell, run.transcribe_alone(vx, spec, out, cell))
    checks.check_reruns_identical([checks.tree_digest(out)] * 2)


def test_edit_distance_and_normalisation():
    assert checks.edit_distance("a b c".split(), "a x c d".split()) == 2
    assert checks.edit_distance([], "a b".split()) == 2
    assert checks.edit_distance("a b".split(), []) == 2
    assert checks.words("Hello, World!  ok") == ["hello", "world", "ok"]


@pytest.mark.parametrize("corruption", ["drop", "duplicate", "condition"])
def test_incomplete_transcripts_fail(copy, corruption):
    vx, spec, out = copy
    path = out / "transcripts" / "voc_s1" / "mix.jsonl"
    edits = {
        "drop": lambda rows: rows[1:],
        "duplicate": lambda rows: rows + rows[:1],
        "condition": lambda rows: [{**rows[0], "condition": "voc"}] + rows[1:],
    }
    _rewrite_jsonl(path, edits[corruption])
    with pytest.raises(checks.CheckFailed):
        _check_wer(vx, spec, out)


def test_changed_transcript_text_fails_the_reports(copy):
    vx, spec, out = copy
    refs = {r["sample_id"]: r["text"] for r in checks.reference_records(out)}

    def edit(rows):
        r = rows[0]
        ref = refs[r["sample_id"]]
        # a text at a different edit distance from the reference than before
        return [{**r, "text": ref + " qq" if r["text"] == ref else ref}] + rows[1:]

    _rewrite_jsonl(out / "transcripts" / "both_s0" / "voc.jsonl", edit)
    with pytest.raises(checks.CheckFailed):
        _check_wer(vx, spec, out)


@pytest.mark.parametrize("column", ["wer", "ref_words", "S", "drop"])
def test_corrupted_cell_report_fails(copy, column):
    vx, spec, out = copy

    def edit(rows):
        if column == "drop":
            return rows[1:]
        value = float(rows[0][column]) + 1
        rows[0][column] = f"{value:.6f}" if column == "wer" else str(int(value))
        return rows

    _rewrite_csv(out / "reports" / "mix_s0.csv", edit)
    with pytest.raises(checks.CheckFailed):
        _check_wer(vx, spec, out)


@pytest.mark.parametrize("corruption", ["value", "drop"])
def test_corrupted_summary_fails(copy, corruption):
    vx, spec, out = copy

    def edit(rows):
        if corruption == "drop":
            return rows[:-1]
        row = next(r for r in rows if r["strategy"] == "random")
        row["wer_median"] = f"{float(row['wer_median']) + 0.001:.6f}"
        return rows

    _rewrite_csv(out / "reports" / "summary.csv", edit)
    with pytest.raises(checks.CheckFailed):
        _check_wer(vx, spec, out)


def _bump_total(rows):
    r = rows[1]
    present = [x for x in (r["l_v"], r["l_m"]) if x is not None]
    return [rows[0], {**r, "l_total": max(present) * 1.01 + 0.01}] + rows[2:]


@pytest.mark.parametrize("log", ["pretrain", "voc", "mix", "random", "both", "cns_l1_w1.0"])
def test_loss_off_the_strategy_formula_fails(copy, log):
    _, spec, out = copy
    path = (out / "checkpoints" / "pretrain_metrics.jsonl" if log == "pretrain"
            else out / "cells" / f"{log}_s1" / "metrics.jsonl")
    _rewrite_jsonl(path, _bump_total)
    with pytest.raises(checks.CheckFailed):
        _check_logs(spec, out)


@pytest.mark.parametrize("field", ["l_m", "l_cns"])
def test_extra_or_missing_loss_terms_fail(copy, field):
    _, spec, out = copy
    cell = "voc_s0" if field == "l_m" else "both_s0"
    _rewrite_jsonl(out / "cells" / cell / "metrics.jsonl",
                   lambda rows: [{**rows[0], field: 0.5}] + rows[1:])
    with pytest.raises(checks.CheckFailed):
        _check_logs(spec, out)


def test_negative_consistency_loss_fails(copy):
    _, spec, out = copy

    def edit(rows):
        r = rows[0]
        # a total consistent with the formula, so only the sign can fail
        l_cns = -abs(r["l_cns"]) - 0.1
        return [{**r, "l_cns": l_cns, "l_total": (r["l_v"] + r["l_m"]) / 2 + 1.0 * l_cns}] + rows[1:]

    _rewrite_jsonl(out / "cells" / "cns_l1_w1.0_s0" / "metrics.jsonl", edit)
    with pytest.raises(checks.CheckFailed):
        _check_logs(spec, out)


@pytest.mark.parametrize("corruption", ["lr", "missing_step"])
def test_schedule_and_steps_are_checked(copy, corruption):
    _, spec, out = copy
    edits = {
        "lr": lambda rows: rows[:2] + [{**rows[2], "lr": rows[2]["lr"] * 1.001}] + rows[3:],
        "missing_step": lambda rows: rows[:-1],
    }
    _rewrite_jsonl(out / "cells" / "mix_s0" / "metrics.jsonl", edits[corruption])
    with pytest.raises(checks.CheckFailed):
        _check_logs(spec, out)


def test_schedule_matches_warmup_and_decay():
    lr = [checks.schedule_lr(s, 20, 1.0, 0.1) for s in range(1, 21)]
    assert lr[:2] == [0.5, 1.0]
    assert lr[-1] == 0.0
    assert all(a > b for a, b in zip(lr[1:], lr[2:]))


def test_rising_pretrain_loss_fails(copy):
    _, _, out = copy
    _rewrite_jsonl(out / "checkpoints" / "pretrain_metrics.jsonl",
                   lambda rows: [{**r, "l_total": float(r["step"])} for r in rows])
    with pytest.raises(checks.CheckFailed):
        checks.check_pretrain_lowers_loss(out / "checkpoints" / "pretrain_metrics.jsonl")


@pytest.mark.parametrize(
    "voc, mix, untrained, ok",
    [(27, 73, 150, True), (73, 73, 150, False), (80, 73, 150, False), (27, 73, 27, False)],
)
def test_pretrained_wer_order(voc, mix, untrained, ok):
    pooled = {("overall", "voc"): (voc, 100), ("overall", "mix"): (mix, 100)}
    raw = {("overall", "voc"): (untrained, 100)}
    if ok:
        checks.check_pretrained_wer(pooled, raw)
    else:
        with pytest.raises(checks.CheckFailed):
            checks.check_pretrained_wer(pooled, raw)


def test_batched_row_differing_from_single_window_fails(copy):
    vx, spec, out = copy
    cell = vx["cli"].all_cells(spec)[-1]
    alone = run.transcribe_alone(vx, spec, out, cell)
    sample_id, condition = next(iter(alone))
    _rewrite_jsonl(
        out / "transcripts" / cell / f"{condition}.jsonl",
        lambda rows: [{**r, "text": r["text"] + " zz"} if r["sample_id"] == sample_id else r
                      for r in rows],
    )
    with pytest.raises(checks.CheckFailed):
        checks.check_single_windows(out, cell, alone)


def test_rerun_that_differs_fails(copy):
    _, _, out = copy
    before = checks.tree_digest(out)
    path = out / "reports" / "summary.md"
    path.write_text(path.read_text() + " ")
    after = checks.tree_digest(out)
    assert after != before
    with pytest.raises(checks.CheckFailed):
        checks.check_reruns_identical([before, after, before])
