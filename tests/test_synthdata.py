import json
from dataclasses import asdict

import numpy as np
import pytest

from voxmix.files import read_settings
from voxmix.synthdata import (
    BOS_ID,
    EOS_ID,
    GenConfig,
    build_corpus,
    clean_lyrics,
    corpus_digest,
    detokenize,
    generate_song,
    load_corpus,
    merge_segments,
    tokenize,
    write_corpus,
)


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_empty_string():
    assert tokenize("") == [BOS_ID, EOS_ID]


def test_tokenize_round_trip():
    text = "la la la"
    assert detokenize(tokenize(text)) == text


def test_tokenize_rejects_off_alphabet_with_position():
    with pytest.raises(ValueError, match="position 1"):
        tokenize("héllo")


# ---------------------------------------------------------------------------
# lyric cleaning
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "raw,cleaned",
    [
        ("looooove", "love"),
        ("good", "good"),
        ("naaa naaa", "na na"),
        ("aaa", "a"),
        ("sssss", "sssss"),  # consonant runs untouched
        ("", ""),
    ],
)
def test_clean_lyrics_rules(raw, cleaned):
    assert clean_lyrics(raw) == cleaned


def test_clean_lyrics_idempotent():
    rng = np.random.default_rng(0)
    letters = "abcdeo "
    for _ in range(200):
        s = "".join(letters[i] for i in rng.integers(0, len(letters), size=20))
        once = clean_lyrics(s)
        assert clean_lyrics(once) == once


# ---------------------------------------------------------------------------
# segment merging
# ---------------------------------------------------------------------------


def test_merge_greedy_packing():
    lines = [("a", 10), ("b", 12), ("c", 9)]
    segs = merge_segments(lines, 25)
    assert [[f for _, f in seg] for seg in segs] == [[10, 12], [9]]


def test_merge_single_short_line():
    assert merge_segments([("x", 5)], 25) == [[("x", 5)]]


def test_merge_exact_fit():
    segs = merge_segments([("a", 13), ("b", 12)], 25)
    assert len(segs) == 1
    assert sum(f for _, f in segs[0]) == 25


def test_merge_rejects_oversized_line():
    with pytest.raises(ValueError, match="'way too long'"):
        merge_segments([("ok", 5), ("way too long", 30)], 25)


def test_merge_preserves_order_and_budget():
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(1, 12))
        lines = [(f"l{i}", int(rng.integers(1, 10))) for i in range(n)]
        segs = merge_segments(lines, 12)
        flat = [item for seg in segs for item in seg]
        assert flat == lines
        assert all(sum(f for _, f in seg) <= 12 for seg in segs)


# ---------------------------------------------------------------------------
# paired sample generation
# ---------------------------------------------------------------------------


@pytest.fixture
def cfg():
    return GenConfig()


def test_same_seed_is_bit_identical(cfg):
    a = generate_song(123, cfg, "toyla")[0]
    b = generate_song(123, cfg, "toyla")[0]
    assert a.text == b.text
    assert np.array_equal(a.x_v, b.x_v)
    assert np.array_equal(a.x_m, b.x_m)
    assert a.gain == b.gain


def test_zero_gain_makes_mixture_equal_vocal():
    cfg = GenConfig(gain_range=(0.0, 0.0))
    for seed in range(20):
        s = generate_song(seed, cfg, "toyla")[0]
        assert np.array_equal(s.x_m, s.x_v)


def test_positive_gain_separates_domains(cfg):
    s = generate_song(7, cfg, "toyla")[0]
    assert not np.array_equal(s.x_m, s.x_v)
    assert cfg.gain_range[0] <= s.gain <= cfg.gain_range[1]


def test_sample_shapes_and_tokens(cfg):
    for seed in range(200):
        s = generate_song(seed, cfg, "toyla")[0]
        assert s.x_v.shape == s.x_m.shape
        assert s.x_v.shape == (len(s.text) * cfg.frames_per_token, cfg.feature_dim)
        assert s.tokens[0] == BOS_ID and s.tokens[-1] == EOS_ID
        assert detokenize(s.tokens) == s.text
        assert s.duration_frames <= cfg.segment_max_frames


def test_token_count_within_bounds_for_1000_seeds(cfg):
    max_tokens = cfg.segment_max_frames // cfg.frames_per_token + 2  # chars + BOS/EOS
    for seed in range(1000):
        s = generate_song(seed, cfg, "toyla")[0]
        assert 3 <= len(s.tokens) <= max_tokens


def test_language_tags_give_distinct_word_models(cfg):
    a = [generate_song(s, cfg, "toyla")[0].text for s in range(30)]
    b = [generate_song(s, cfg, "toybe")[0].text for s in range(30)]
    assert a != b


def test_song_segments_share_seed_and_are_indexed(cfg):
    song = generate_song(55, cfg, "toyla")
    assert [s.segment_index for s in song] == list(range(len(song)))
    assert all(s.seed == 55 for s in song)


def test_config_validation():
    with pytest.raises(ValueError, match="g_lo"):
        GenConfig(gain_range=(2.0, 1.0))
    with pytest.raises(ValueError, match="jitter"):
        GenConfig(jitter=-0.1)


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------


def test_corpus_round_trip_and_digest(cfg, tmp_path):
    samples = build_corpus(cfg, songs_per_language=3, seed_base=0)
    path = tmp_path / "train.jsonl"
    write_corpus(path, cfg, samples)
    loaded_cfg, loaded = load_corpus(path)
    assert loaded_cfg == cfg
    assert corpus_digest(loaded) == corpus_digest(samples)
    assert [s.sample_id for s in loaded] == [s.sample_id for s in samples]

    write_corpus(tmp_path / "again.jsonl", cfg, samples)
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


def test_corpus_digest_reproducible_across_builds(cfg):
    a = build_corpus(cfg, songs_per_language=2, seed_base=100)
    b = build_corpus(cfg, songs_per_language=2, seed_base=100)
    assert corpus_digest(a) == corpus_digest(b)


def test_split_seed_ranges_are_disjoint(cfg):
    train = build_corpus(cfg, songs_per_language=4, seed_base=0)
    test = build_corpus(cfg, songs_per_language=4, seed_base=10_000 * len(cfg.languages))
    assert not ({s.seed for s in train} & {s.seed for s in test})


def test_split_config_overrides(cfg):
    # a spec's pretrain overrides arrive from JSON, with lists for tuples, and
    # are read over the spec's gen as one GenConfig
    overrides = {"jitter": 0.1, "gain_range": [0.0, 0.0]}
    pre = read_settings(GenConfig, {**asdict(cfg), **overrides}, "pretrain_gen_overrides")
    assert pre.jitter == 0.1
    assert pre.gain_range == (0.0, 0.0)
    assert pre.languages == cfg.languages
    assert generate_song(3, pre, "toyla")[0].gain == 0.0


def test_load_rejects_foreign_file(tmp_path):
    p = tmp_path / "x.jsonl"
    p.write_text('{"kind": "nope"}\n')
    with pytest.raises(ValueError, match="corpus"):
        load_corpus(p)


def _damage_record(lines):
    lines[3] = lines[3][: len(lines[3]) // 2]


def _changed_text(lines):
    record = json.loads(lines[2])
    lines[2] = json.dumps({**record, "text": record["text"] + "a"}, sort_keys=True)


def _version_2(lines):
    lines[0] = lines[0].replace('"version": 1', '"version": 2')


def _unknown_gen_field(lines):
    lines[0] = lines[0].replace('"gen": {', '"gen": {"tempo": 120, ')


def _set(index, key, value):
    """Set the dotted `key` of the JSON document on line `index` (0 is the header) to `value`."""
    def damage(lines):
        top = doc = json.loads(lines[index])
        *parents, leaf = key.split(".")
        for step in parents:
            doc = doc[step]
        doc[leaf] = value
        lines[index] = json.dumps(top, sort_keys=True)

    return damage


@pytest.mark.parametrize("damage, message", [
    (_damage_record, r": line 4: malformed record \(JSONDecodeError: "),
    (_changed_text, r": line 3: record toyla-0-\d+ does not regenerate: stored '"),
    (_version_2, r": corpus format version 2, expected 1$"),
    (_unknown_gen_field, r": line 1: malformed header \(TypeError: unknown fields in gen: \['tempo'\]\)$"),
    (_set(0, "gen.languages", "ab"),
     r": line 1: malformed header \(TypeError: gen.languages must be a list, got 'ab'\)$"),
    (_set(0, "gen.jitter", -1.0), r": line 1: gen: jitter must be >= 0, got -1.0$"),
    (_set(2, "seed", "x"), r": line 3: malformed record \(TypeError: seed must be int, got 'x'\)$"),
    (_set(2, "language", True), r": line 3: language True is not in gen.languages \['toyla', 'toybe'\]$"),
    (_set(2, "language", "toyce"), r": line 3: language 'toyce' is not in gen.languages \['toyla', 'toybe'\]$"),
    (_set(0, "version", True), r": line 1: malformed header \(TypeError: version must be int, got True\)$"),
    (_set(2, "sample_id", "toyla-0-9"),
     r": line 3: record toyla-0-9 does not regenerate: stored '[a-z ]+', rebuilt toyla-0-\d+ '[a-z ]+'$"),
], ids=["damaged_record", "changed_text", "version_2", "unknown_gen_field", "languages_as_text",
        "jitter_negative", "seed_as_text", "language_as_bool", "language_unknown", "version_as_bool",
        "sample_id_changed"])
def test_load_refuses_a_damaged_corpus_naming_the_file(cfg, tmp_path, damage, message):
    path = tmp_path / "train.jsonl"
    write_corpus(path, cfg, build_corpus(cfg, songs_per_language=2, seed_base=0))
    lines = path.read_text().splitlines()
    damage(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as err:
        load_corpus(path)
    assert str(err.value).startswith(str(path))
