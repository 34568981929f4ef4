import itertools

import numpy as np
import pytest

from voxmix.evaluation import (
    WerDetail,
    aggregate,
    comparison_markdown,
    normalize_text,
    report_csv,
    wer,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("Hello,  WORLD!", "hello world"),
        ("don't  stop", "dont stop"),
        ("", ""),
        ("  \t lots\n of \r space ", "lots of space"),
        ("semi;colon: and. marks?", "semicolon and marks"),
        ("«quoted» — dash", "quoted dash"),  # guillemets and em dash are punctuation
    ],
)
def test_normalize_examples(raw, expected):
    assert normalize_text(raw) == expected


def test_normalize_idempotent():
    rng = np.random.default_rng(0)
    pool = "aB c,D'e!? éü."
    for _ in range(200):
        s = "".join(pool[i] for i in rng.integers(0, len(pool), size=30))
        once = normalize_text(s)
        assert normalize_text(once) == once


# ---------------------------------------------------------------------------
# wer
# ---------------------------------------------------------------------------


def test_wer_identical_is_zero():
    d = wer("a b c", "a b c")
    assert (d.substitutions, d.deletions, d.insertions, d.wer) == (0, 0, 0, 0.0)


def test_wer_all_deletions():
    d = wer("a b c", "")
    assert d.deletions == 3 and d.substitutions == 0 and d.insertions == 0
    assert d.wer == 1.0


def test_wer_single_substitution():
    d = wer("a b c", "a x c")
    assert d.substitutions == 1 and d.deletions == 0 and d.insertions == 0
    assert d.wer == pytest.approx(1 / 3)


def test_wer_prefers_substitutions_over_insert_delete():
    d = wer("a b", "b a")
    assert (d.substitutions, d.deletions, d.insertions) == (2, 0, 0)


def test_wer_empty_ref_nonempty_hyp_flagged():
    d = wer("", "x y")
    assert d.ref_words == 0
    assert d.insertions == 2
    assert d.wer == 2.0  # raw count when the rate is undefined


def test_wer_counts_consistent():
    rng = np.random.default_rng(1)
    vocab = ["a", "b", "c", "d"]
    for _ in range(200):
        r = " ".join(rng.choice(vocab, size=rng.integers(0, 6)))
        h = " ".join(rng.choice(vocab, size=rng.integers(0, 6)))
        d = wer(r, h)
        n, m = len(r.split()), len(h.split())
        assert d.substitutions + d.deletions <= max(n, 1)
        assert n - d.substitutions - d.deletions == m - d.substitutions - d.insertions  # matches
        assert d.errors == d.substitutions + d.deletions + d.insertions


def test_wer_symmetric_total_with_swapped_roles():
    rng = np.random.default_rng(2)
    vocab = ["x", "y", "z", "w", "v"]
    for _ in range(100):
        r = " ".join(rng.choice(vocab, size=rng.integers(0, 6)))
        h = " ".join(rng.choice(vocab, size=rng.integers(0, 6)))
        a = wer(r, h)
        b = wer(h, r)
        assert a.errors == b.errors
        assert a.deletions == b.insertions and a.insertions == b.deletions


def brute_force_min_edits(r: tuple, h: tuple) -> int:
    """Exhaustive edit-script enumeration; exponential, for tiny inputs only."""
    if not r:
        return len(h)
    if not h:
        return len(r)
    costs = [brute_force_min_edits(r[1:], h[1:]) + (0 if r[0] == h[0] else 1)]
    costs.append(brute_force_min_edits(r[1:], h) + 1)  # delete r[0]
    costs.append(brute_force_min_edits(r, h[1:]) + 1)  # insert h[0]
    return min(costs)


def test_wer_matches_exhaustive_enumeration_on_200_pairs():
    rng = np.random.default_rng(3)
    vocab = ["a", "b", "c"]
    for _ in range(200):
        r = tuple(rng.choice(vocab, size=rng.integers(0, 6)))
        h = tuple(rng.choice(vocab, size=rng.integers(0, 6)))
        expected = brute_force_min_edits(r, h)
        d = wer(" ".join(r), " ".join(h))
        assert d.errors == expected


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------


def test_pooled_wer_is_micro_average():
    details = {
        ("s1", "mix"): WerDetail(1, 0, 0, 4),
        ("s2", "mix"): WerDetail(2, 1, 0, 6),
    }
    pooled = aggregate(details, {"s1": "la", "s2": "la"})
    la = pooled[("la", "mix")]
    assert la.errors == 4 and la.ref_words == 10
    assert la.wer == pytest.approx(0.4)
    assert pooled[("overall", "mix")].wer == pytest.approx(0.4)


def test_single_sample_subset_equals_sample_wer():
    details = {("s1", "voc"): WerDetail(1, 1, 0, 8)}
    pooled = aggregate(details, {"s1": "be"})
    assert pooled[("be", "voc")].wer == details[("s1", "voc")].wer


def test_overall_ref_words_partition():
    rng = np.random.default_rng(4)
    details = {}
    subset_map = {}
    for i in range(20):
        sid = f"s{i}"
        subset_map[sid] = "la" if i % 2 else "be"
        for cond in ("mix", "voc"):
            details[(sid, cond)] = WerDetail(
                int(rng.integers(0, 3)), int(rng.integers(0, 2)), int(rng.integers(0, 2)), 5
            )
    pooled = aggregate(details, subset_map)
    for cond in ("mix", "voc"):
        parts = sum(
            pooled[(s, cond)].ref_words for s in ("la", "be")
        )
        assert pooled[("overall", cond)].ref_words == parts


def test_aggregate_rejects_unknown_condition():
    with pytest.raises(ValueError, match="condition"):
        aggregate({("s1", "vocal"): WerDetail(0, 0, 0, 3)}, {"s1": "la"})


def test_aggregate_rejects_unmapped_sample():
    with pytest.raises(ValueError, match="subset map"):
        aggregate({("s1", "mix"): WerDetail(0, 0, 0, 3)}, {})


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_report_csv_layout():
    details = {("s1", "mix"): WerDetail(1, 0, 1, 5), ("s1", "voc"): WerDetail(0, 0, 0, 5)}
    pooled = aggregate(details, {"s1": "la"})
    text = report_csv(pooled)
    lines = text.strip().split("\n")
    assert lines[0] == "subset,condition,S,D,I,ref_words,wer"
    assert len(lines) == 1 + 4  # (la, overall) x (mix, voc)
    assert "la,mix,1,0,1,5,0.400000" in lines


def test_comparison_markdown_shape():
    rows = [
        ("pretrained", {("overall", "mix"): 0.5, ("overall", "voc"): 0.4}),
        ("voc", {("overall", "mix"): 0.3}),
    ]
    table = comparison_markdown(rows, ["overall"])
    lines = table.strip().split("\n")
    assert lines[0] == "| strategy | overall Mix | overall Voc |"
    assert lines[2].startswith("| pretrained | 0.5000 | 0.4000 |")
    assert lines[3] == "| voc | 0.3000 | - |"
