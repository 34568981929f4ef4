"""Text normalization, word error rate, and pooled per-subset reporting.

WER uses word-level Levenshtein alignment with unit costs. Among minimal
alignments the decomposition preferring substitutions over insert+delete
pairs is chosen, via a lexicographic DP on (cost, deletions+insertions).
Corpus rows pool raw error counts over samples (micro-average) rather
than averaging per-sample rates.
"""

from __future__ import annotations

import unicodedata
from dataclasses import dataclass

CONDITIONS = ("mix", "voc")


def normalize_text(s: str) -> str:
    """Lowercase, strip unicode punctuation, collapse whitespace runs, trim."""
    lowered = s.lower()
    no_punct = "".join(c for c in lowered if not unicodedata.category(c).startswith("P"))
    return " ".join(no_punct.split())


@dataclass
class WerDetail:
    substitutions: int
    deletions: int
    insertions: int
    ref_words: int

    @property
    def errors(self) -> int:
        return self.substitutions + self.deletions + self.insertions

    @property
    def wer(self) -> float:
        # ref_words == 0 is flagged by the field itself; report the raw count
        return self.errors / self.ref_words if self.ref_words > 0 else float(self.errors)


def wer(ref: str, hyp: str) -> WerDetail:
    """Word-level edit distance between reference and hypothesis.

    Both sides are normalized defensively. The DP minimizes
    (total edits, deletions + insertions) lexicographically, which among
    minimal alignments maximizes the substitution count.
    """
    r = normalize_text(ref).split()
    h = normalize_text(hyp).split()
    n, m = len(r), len(h)

    # row[j] = (cost, del+ins) for aligning r[:i] with h[:j]
    row = [(j, j) for j in range(m + 1)]
    for i in range(1, n + 1):
        prev = row
        row = [(i, i)] + [None] * m
        for j in range(1, m + 1):
            diag_cost, diag_di = prev[j - 1]
            if r[i - 1] == h[j - 1]:
                best = (diag_cost, diag_di)
            else:
                best = (diag_cost + 1, diag_di)
            up_cost, up_di = prev[j]  # delete r[i-1]
            if (up_cost + 1, up_di + 1) < best:
                best = (up_cost + 1, up_di + 1)
            left_cost, left_di = row[j - 1]  # insert h[j-1]
            if (left_cost + 1, left_di + 1) < best:
                best = (left_cost + 1, left_di + 1)
            row[j] = best

    cost, d_plus_i = row[m]
    # D - I is fixed by the length difference; D + I comes from the DP
    deletions = (d_plus_i + n - m) // 2
    insertions = d_plus_i - deletions
    substitutions = cost - d_plus_i
    return WerDetail(substitutions, deletions, insertions, n)


def aggregate(details: dict[tuple[str, str], WerDetail], subset_map: dict[str, str]) -> dict:
    """Pool the error counts of (sample id, condition) details per (subset,
    condition); the subsets are the language tags and 'overall'."""
    sums: dict[tuple[str, str], list[int]] = {}
    for (sample_id, condition), d in details.items():
        if condition not in CONDITIONS:
            raise ValueError(f"unknown condition {condition!r}, expected one of {CONDITIONS}")
        if sample_id not in subset_map:
            raise ValueError(f"sample {sample_id!r} missing from the subset map")
        for subset in (subset_map[sample_id], "overall"):
            acc = sums.setdefault((subset, condition), [0, 0, 0, 0])
            acc[0] += d.substitutions
            acc[1] += d.deletions
            acc[2] += d.insertions
            acc[3] += d.ref_words
    return {key: WerDetail(*counts) for key, counts in sums.items()}


def report_csv(pooled: dict[tuple[str, str], WerDetail]) -> str:
    """CSV of the pooled rows: subset, condition, S, D, I, ref_words, wer."""
    lines = ["subset,condition,S,D,I,ref_words,wer"]
    for subset, condition in sorted(pooled):
        d = pooled[(subset, condition)]
        lines.append(
            f"{subset},{condition},{d.substitutions},{d.deletions},"
            f"{d.insertions},{d.ref_words},{d.wer:.6f}"
        )
    return "\n".join(lines) + "\n"


def comparison_markdown(rows: list[tuple[str, dict[tuple[str, str], float]]], subsets: list[str]) -> str:
    """Markdown table of WER per strategy row, with subset x condition columns."""
    header = ["strategy"]
    for subset in subsets:
        for condition in CONDITIONS:
            header.append(f"{subset} {condition.capitalize()}")
    out = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    for name, cells in rows:
        line = [name]
        for subset in subsets:
            for condition in CONDITIONS:
                value = cells.get((subset, condition))
                line.append("-" if value is None else f"{value:.4f}")
        out.append("| " + " | ".join(line) + " |")
    return "\n".join(out) + "\n"
