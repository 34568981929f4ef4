"""Output checks computed apart from the program.

Every check reads the files a grid run leaves in its output directory
and compares them with a value the benchmark computes itself (word edit
distance, WER pooling, medians, the learning-rate schedule) or with a
property of the method (the loss formula of each strategy, pretraining
lowering the loss). None imports voxmix. A failed check raises
CheckFailed; the benchmark then reports the run as incorrect.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import statistics
import unicodedata
from pathlib import Path

CONDITIONS = ("mix", "voc")
PRETRAINED = "pretrained"
# summary.csv and the per-cell reports print WER with six decimals
PRINTED_TOL = 5.01e-7
# losses are logged with repr precision; the formula is recomputed in float64
LOSS_RTOL = 1e-12


class CheckFailed(AssertionError):
    pass


def _fail(msg: str):
    raise CheckFailed(msg)


def _jsonl(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _close(a: float, b: float, rtol: float = LOSS_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# word error rate, computed apart
# ---------------------------------------------------------------------------


def words(text: str) -> list[str]:
    """Lowercase, drop punctuation characters, split on whitespace."""
    kept = "".join(c for c in text.lower() if not unicodedata.category(c).startswith("P"))
    return kept.split()


def edit_distance(ref: list[str], hyp: list[str]) -> int:
    """Minimum word substitutions + deletions + insertions turning ref into hyp."""
    prev = list(range(len(hyp) + 1))
    for i, r in enumerate(ref, 1):
        cur = [i]
        for j, h in enumerate(hyp, 1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (r != h)))
        prev = cur
    return prev[-1]


def reference_records(out: Path) -> list[dict]:
    """Records of the test split: sample_id, language, text."""
    records = _jsonl(out / "corpora" / "test.jsonl")
    if not records or records[0].get("kind") != "voxmix-corpus":
        _fail("test corpus has no voxmix-corpus header")
    return records[1:]


def read_transcripts(out: Path, cell: str) -> dict[tuple[str, str], str]:
    hyps = {}
    for condition in CONDITIONS:
        for rec in _jsonl(out / "transcripts" / cell / f"{condition}.jsonl"):
            key = (rec["sample_id"], rec["condition"])
            if rec["condition"] != condition:
                _fail(f"{cell}/{condition}.jsonl holds a {rec['condition']!r} line")
            if key in hyps:
                _fail(f"{cell}: duplicate transcript for {key}")
            hyps[key] = rec["text"]
    return hyps


def pooled_wer(refs: list[dict], hyps: dict[tuple[str, str], str]) -> dict[tuple[str, str], tuple[int, int]]:
    """(subset, condition) -> (errors, reference words); subsets are languages and 'overall'."""
    sums: dict[tuple[str, str], list[int]] = {}
    for rec in refs:
        ref = words(rec["text"])
        for condition in CONDITIONS:
            errors = edit_distance(ref, words(hyps[(rec["sample_id"], condition)]))
            for subset in (rec["language"], "overall"):
                acc = sums.setdefault((subset, condition), [0, 0])
                acc[0] += errors
                acc[1] += len(ref)
    return {key: (e, n) for key, (e, n) in sums.items()}


def rate(errors: int, ref_words: int) -> float:
    return errors / ref_words if ref_words else float(errors)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_transcripts_complete(out: Path, cells: list[str]) -> None:
    """Every model has exactly one transcript per test sample and condition."""
    want = {(rec["sample_id"], c) for rec in reference_records(out) for c in CONDITIONS}
    for cell in cells:
        got = set(read_transcripts(out, cell))
        if got != want:
            missing, extra = sorted(want - got), sorted(got - want)
            _fail(f"{cell}: transcripts missing {missing[:3]} ({len(missing)}), "
                  f"unexpected {extra[:3]} ({len(extra)})")


def cell_wers(out: Path, cells: list[str]) -> dict[str, dict[tuple[str, str], tuple[int, int]]]:
    refs = reference_records(out)
    return {cell: pooled_wer(refs, read_transcripts(out, cell)) for cell in cells}


def check_cell_reports(out: Path, wers: dict) -> None:
    """reports/<cell>.csv matches the recomputed pooled errors, word counts and WER."""
    for cell, pooled in wers.items():
        with open(out / "reports" / f"{cell}.csv", "r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        seen = set()
        for row in rows:
            key = (row["subset"], row["condition"])
            if key not in pooled:
                _fail(f"{cell}: report row {key} has no test samples")
            errors, ref_words = pooled[key]
            got_errors = int(row["S"]) + int(row["D"]) + int(row["I"])
            if (got_errors, int(row["ref_words"])) != (errors, ref_words):
                _fail(f"{cell} {key}: report has {got_errors} errors over "
                      f"{row['ref_words']} words, recomputed {errors} over {ref_words}")
            if abs(float(row["wer"]) - rate(errors, ref_words)) > PRINTED_TOL:
                _fail(f"{cell} {key}: report WER {row['wer']}, recomputed "
                      f"{rate(errors, ref_words):.6f}")
            seen.add(key)
        if seen != set(pooled):
            _fail(f"{cell}: report rows {sorted(seen)} != expected {sorted(pooled)}")


def check_summary(out: Path, wers: dict, strategies: list[str], seeds: list[int]) -> None:
    """summary.csv holds the pretrained WER and, per strategy, the median over seeds."""
    want = {}
    for key, (e, n) in wers[PRETRAINED].items():
        want[(PRETRAINED,) + key] = rate(e, n)
    for sid in strategies:
        for key in wers[f"{sid}_s{seeds[0]}"]:
            values = [rate(*wers[f"{sid}_s{seed}"][key]) for seed in seeds]
            want[(sid,) + key] = statistics.median(values)
    with open(out / "reports" / "summary.csv", "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    got = {(r["strategy"], r["subset"], r["condition"]): float(r["wer_median"]) for r in rows}
    if len(got) != len(rows) or set(got) != set(want):
        _fail(f"summary rows {sorted(set(got) ^ set(want))[:4]} differ from the grid")
    for key, value in want.items():
        if abs(got[key] - value) > PRINTED_TOL:
            _fail(f"summary {key}: {got[key]:.6f}, recomputed median {value:.6f}")


def schedule_lr(step: int, total_steps: int, peak_lr: float, warmup_frac: float) -> float:
    """Linear warmup to peak_lr over ceil(warmup_frac * T) steps, then linear decay to 0 at T."""
    warmup = math.ceil(warmup_frac * total_steps)
    if step <= warmup:
        return peak_lr * step / warmup
    return peak_lr * (total_steps - step) / (total_steps - warmup)


def check_training_log(path: Path, strategy: str, weight: float, plan: dict) -> None:
    """Each logged step obeys the strategy's loss formula and the lr schedule.

    plan holds total_steps, peak_lr and warmup_frac of the phase.
    """
    rows = _jsonl(path)
    if [r["step"] for r in rows] != list(range(1, plan["total_steps"] + 1)):
        _fail(f"{path}: steps are not 1..{plan['total_steps']}")
    for r in rows:
        where = f"{path.parent.name}/{path.name} step {r['step']}"
        want_lr = schedule_lr(r["step"], plan["total_steps"], plan["peak_lr"], plan["warmup_frac"])
        if not _close(r["lr"], want_lr):
            _fail(f"{where}: lr {r['lr']!r}, schedule gives {want_lr!r}")
        lv, lm, lc, total = r["l_v"], r["l_m"], r["l_cns"], r["l_total"]
        if strategy == "voc":
            ok = lm is None and lc is None and _close(total, lv)
        elif strategy == "mix":
            ok = lv is None and lc is None and _close(total, lm)
        elif strategy == "both":
            ok = lc is None and None not in (lv, lm) and _close(total, (lv + lm) / 2)
        elif strategy == "cns":
            ok = (None not in (lv, lm, lc) and lc >= 0
                  and _close(total, (lv + lm) / 2 + weight * lc))
        elif strategy == "random":
            present = [x for x in (lv, lm) if x is not None]
            ok = (lc is None and present
                  and min(present) * (1 - LOSS_RTOL) <= total <= max(present) * (1 + LOSS_RTOL))
        else:
            _fail(f"unknown strategy {strategy!r}")
        if not ok:
            _fail(f"{where}: losses {lv!r}, {lm!r}, {lc!r}, total {total!r} break the "
                  f"{strategy} formula")


def check_pretrain_lowers_loss(path: Path) -> None:
    """The mean loss of the last tenth of pretraining is below that of the first tenth."""
    totals = [r["l_total"] for r in _jsonl(path)]
    k = max(1, len(totals) // 10)
    first, last = statistics.fmean(totals[:k]), statistics.fmean(totals[-k:])
    if not last < first:
        _fail(f"pretraining did not lower the loss: first {k} steps {first:.4f}, last {last:.4f}")


def check_pretrained_wer(pooled: dict, untrained: dict) -> None:
    """On the overall test split the pretrained model transcribes vocals best.

    Its vocal WER is below its mixture WER and below the untrained model's
    vocal WER.
    """
    voc, mix = rate(*pooled[("overall", "voc")]), rate(*pooled[("overall", "mix")])
    raw = rate(*untrained[("overall", "voc")])
    if not voc < mix:
        _fail(f"pretrained vocal WER {voc:.4f} is not below its mixture WER {mix:.4f}")
    if not voc < raw:
        _fail(f"pretrained vocal WER {voc:.4f} is not below the untrained model's {raw:.4f}")


def check_single_windows(out: Path, cell: str, alone: dict[tuple[str, str], str]) -> None:
    """Windows transcribed one at a time equal their rows of the batched transcripts."""
    batched = read_transcripts(out, cell)
    for key, text in alone.items():
        if batched.get(key) != text:
            _fail(f"{cell} {key}: alone {text!r}, batched {batched.get(key)!r}")


def tree_digest(out: Path) -> str:
    """SHA-256 over relative paths and contents of every file under out."""
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def check_reruns_identical(digests: list[str]) -> None:
    """Rounds of the same spec leave byte-identical output trees."""
    if len(set(digests)) > 1:
        _fail(f"reruns of the same spec differ: {[d[:12] for d in digests]}")
