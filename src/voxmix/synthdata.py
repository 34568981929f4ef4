"""Synthetic paired (vocal, mixture, lyrics) corpus generation.

Samples stand in for separated-vocal / original-mixture audio: lyrics from
a seeded toy word model are rendered to feature frames through a fixed
per-character embedding table, and the mixture adds a gain-scaled rendering
of a distractor character stream through a second table (structured
"accompaniment" rather than white noise). Everything is a pure function of
its seed, so a corpus file stores the arguments of the `build_corpus` call
that made it, with one record of id, seed and text per segment, and is
rebuilt from them on load.
"""

from __future__ import annotations

import json
import zlib
from collections.abc import Iterator
from dataclasses import dataclass, field, asdict

import numpy as np

from voxmix.files import atomic_write, parse_json, read_settings, refusing

CORPUS_VERSION = 2  # format version of a corpus file's header
SONG_SLOTS = 10_000  # the song seeds of one language in a split, and so its most songs

ALPHABET = "abcdefghijklmnopqrstuvwxyz "
PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
SPECIALS = 3
VOCAB_SIZE = SPECIALS + len(ALPHABET)

_CHAR_TO_ID = {c: SPECIALS + i for i, c in enumerate(ALPHABET)}
_ID_TO_CHAR = {i: c for c, i in _CHAR_TO_ID.items()}

VOWELS = set("aeiou")


def tokenize(text: str) -> list[int]:
    """Character ids framed as [BOS]...[EOS]; rejects anything off-alphabet."""
    ids = [BOS_ID]
    for pos, ch in enumerate(text):
        if ch not in _CHAR_TO_ID:
            raise ValueError(f"character {ch!r} at position {pos} is outside the toy alphabet")
        ids.append(_CHAR_TO_ID[ch])
    ids.append(EOS_ID)
    return ids


def detokenize(tokens) -> str:
    """Inverse of tokenize; PAD/BOS/EOS are dropped."""
    return "".join(_ID_TO_CHAR[t] for t in tokens if t in _ID_TO_CHAR)


def clean_lyrics(text: str) -> str:
    """Collapse runs of >= 3 identical vowels to one character (musical cues)."""
    out = []
    i = 0
    while i < len(text):
        j = i
        while j < len(text) and text[j] == text[i]:
            j += 1
        run = j - i
        if text[i] in VOWELS and run >= 3:
            out.append(text[i])
        else:
            out.append(text[i] * run)
        i = j
    return "".join(out)


def merge_segments(lines, max_frames: int):
    """Greedy left-to-right packing of (text, frame_count) lines into segments.

    A line is appended to the open segment unless that would exceed
    max_frames; lines are never split and order is preserved.
    """
    segments = []
    current: list = []
    used = 0
    for text, frames in lines:
        if frames > max_frames:
            raise ValueError(
                f"line {text!r} needs {frames} frames, more than max_frames={max_frames}"
            )
        if current and used + frames > max_frames:
            segments.append(current)
            current = []
            used = 0
        current.append((text, frames))
        used += frames
    if current:
        segments.append(current)
    return segments


# ---------------------------------------------------------------------------
# generation
# ---------------------------------------------------------------------------


@dataclass
class GenConfig:
    """Knobs for the synthetic corpus; the interference gain range is the
    explicit domain-gap control (gain 0 makes mixture == vocal)."""

    languages: list[str] = field(default_factory=lambda: ["toyla", "toybe"])
    words_per_lang: int = 30
    word_len: tuple[int, int] = (2, 3)
    words_per_line: tuple[int, int] = (1, 2)
    lines_per_song: tuple[int, int] = (2, 4)
    frames_per_token: int = 3
    segment_max_frames: int = 24
    jitter: float = 0.5
    gain_range: tuple[float, float] = (0.5, 1.5)
    vowel_stretch_prob: float = 0.25
    feature_dim: int = 16
    lang_seed: int = 5
    embed_seed: int = 7
    distractor_seed: int = 11

    def __post_init__(self):
        if self.jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {self.jitter}")
        g_lo, g_hi = self.gain_range
        if not 0 <= g_lo <= g_hi:
            raise ValueError(f"need 0 <= g_lo <= g_hi, got {self.gain_range}")
        if self.frames_per_token < 1:
            raise ValueError("frames_per_token must be >= 1")
        if len(set(self.languages)) < len(self.languages):
            raise ValueError(f"languages must be distinct, got {self.languages}")
        for name in ("word_len", "words_per_line", "lines_per_song"):
            low, high = getattr(self, name)
            if not 1 <= low <= high:
                raise ValueError(f"{name} must be (low, high) with 1 <= low <= high, got {(low, high)}")
        lo, hi = self.word_len
        # over 2**(3 * hi) words have hi letters: only a count of more bits than 3 * hi can exceed them
        if self.words_per_lang < 1 or (self.words_per_lang.bit_length() > 3 * hi and self.words_per_lang
                                       > sum(len(ALPHABET.strip()) ** n for n in range(lo, hi + 1))):
            raise ValueError(f"words_per_lang must be >= 1 and at most the distinct words of word_len "
                             f"{self.word_len}, got {self.words_per_lang}")
        if (line := self.frames_per_token * self.words_per_line[1] * (hi + 1)) > self.segment_max_frames:
            raise ValueError(f"segment_max_frames must be >= frames_per_token * words_per_line[1] * "
                             f"(word_len[1] + 1) = {line}, the longest line, got {self.segment_max_frames}")


@dataclass
class PairedSample:
    """One lyrics segment with paired vocal and mixture feature renderings, both read-only."""

    sample_id: str
    language: str
    text: str
    tokens: list[int]  # [BOS, ..., EOS]
    x_v: np.ndarray  # (T, F) vocal features
    x_m: np.ndarray  # (T, F) mixture features: x_v + gain * distractor; x_v itself at gain 0
    gain: float
    seed: int
    segment_index: int


def _embed_table(seed: int, feature_dim: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.normal(0.0, 1.0, size=(len(ALPHABET), feature_dim))


def _lang_words(cfg: GenConfig, language: str) -> list[str]:
    rng = np.random.default_rng(np.random.SeedSequence([cfg.lang_seed, _tag_key(language)]))
    letters = ALPHABET.strip()
    words = []
    while len(words) < cfg.words_per_lang:
        n = int(rng.integers(cfg.word_len[0], cfg.word_len[1] + 1))
        w = "".join(letters[i] for i in rng.integers(0, len(letters), size=n))
        if w not in words:
            words.append(w)
    return words


def _tag_key(tag: str) -> int:
    return zlib.crc32(tag.encode("utf-8"))


def _render(text: str, table: np.ndarray, frames_per_token: int) -> np.ndarray:
    ids = [_CHAR_TO_ID[c] - SPECIALS for c in text]
    return np.repeat(table[ids], frames_per_token, axis=0)


@dataclass(frozen=True)
class SongTables:
    """What every song of one (config, language) is rendered from."""

    words: list[str]
    vocal: np.ndarray
    distractor: np.ndarray


def song_tables(cfg: GenConfig, language: str) -> SongTables:
    return SongTables(
        words=_lang_words(cfg, language),
        vocal=_embed_table(cfg.embed_seed, cfg.feature_dim),
        distractor=_embed_table(cfg.distractor_seed, cfg.feature_dim),
    )


def generate_song(
    seed: int,
    cfg: GenConfig,
    language: str,
    tables: SongTables | None = None,
) -> list[PairedSample]:
    """All segments of one synthetic song, fully determined by `seed`.

    `tables` must be song_tables(cfg, language); callers rendering many songs
    pass it to build it once.
    """
    if tables is None:
        tables = song_tables(cfg, language)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _tag_key(language)]))
    words = tables.words

    raw_lines = []
    n_lines = int(rng.integers(cfg.lines_per_song[0], cfg.lines_per_song[1] + 1))
    for _ in range(n_lines):
        n_words = int(rng.integers(cfg.words_per_line[0], cfg.words_per_line[1] + 1))
        line = " ".join(words[i] for i in rng.integers(0, len(words), size=n_words))
        if rng.random() < cfg.vowel_stretch_prob:
            line = _stretch_a_vowel(line, rng)
        raw_lines.append(line)

    cleaned = [clean_lyrics(line) for line in raw_lines]
    # line cost includes one joining-space token so packed segments stay in budget
    costed = [(line, cfg.frames_per_token * (len(line) + 1)) for line in cleaned]
    segments = merge_segments(costed, cfg.segment_max_frames)

    out = []
    for seg_idx, seg_lines in enumerate(segments):
        text = " ".join(line for line, _ in seg_lines)
        base = _render(text, tables.vocal, cfg.frames_per_token)
        x_v = base + rng.normal(0.0, cfg.jitter, size=base.shape)
        distractor_ids = rng.integers(0, len(ALPHABET), size=len(text))
        distractor = np.repeat(
            tables.distractor[distractor_ids], cfg.frames_per_token, axis=0
        )
        gain = float(rng.uniform(cfg.gain_range[0], cfg.gain_range[1]))
        # x_v + 0 * d is x_v bit for bit: a sum with normal noise holds no -0.0
        x_m = x_v if gain == 0.0 else x_v + gain * distractor
        x_v.setflags(write=False)
        x_m.setflags(write=False)
        out.append(
            PairedSample(
                sample_id=f"{language}-{seed}-{seg_idx}",
                language=language,
                text=text,
                tokens=tokenize(text),
                x_v=x_v,
                x_m=x_m,
                gain=gain,
                seed=seed,
                segment_index=seg_idx,
            )
        )
    return out


def _stretch_a_vowel(line: str, rng: np.random.Generator) -> str:
    vowel_positions = [i for i, c in enumerate(line) if c in VOWELS]
    if not vowel_positions:
        return line
    pos = vowel_positions[int(rng.integers(0, len(vowel_positions)))]
    extra = int(rng.integers(2, 6))
    return line[:pos] + line[pos] * (1 + extra) + line[pos + 1 :]


def build_corpus(
    cfg: GenConfig, songs_per_language: int, seed_base: int
) -> Iterator[PairedSample]:
    """Segments of `songs_per_language` songs per language tag, rendered as they are drawn.

    Song seeds are seed_base + lang_index * SONG_SLOTS + i, so splits of at most
    SONG_SLOTS songs per language, from bases SONG_SLOTS * len(languages) apart, share no seed.
    """
    for lang_idx, lang in enumerate(cfg.languages):
        tables = song_tables(cfg, lang)
        for i in range(songs_per_language):
            yield from generate_song(seed_base + lang_idx * SONG_SLOTS + i, cfg, lang, tables)


# ---------------------------------------------------------------------------
# corpus files: a build's arguments and its records, rebuilt on load
# ---------------------------------------------------------------------------


def _record(s: PairedSample) -> str:
    return json.dumps({"language": s.language, "sample_id": s.sample_id, "seed": s.seed,
                       "segment_index": s.segment_index, "text": s.text}, sort_keys=True)


def write_corpus(path, cfg: GenConfig, songs_per_language: int, seed_base: int) -> None:
    """Store `build_corpus(cfg, songs_per_language, seed_base)` as JSON lines: a header
    holding the call's arguments, then one record of id, seed and text per segment."""
    with atomic_write(path) as fh:
        header = {"kind": "voxmix-corpus", "version": CORPUS_VERSION, "gen": asdict(cfg),
                  "songs_per_language": songs_per_language, "seed_base": seed_base}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for s in build_corpus(cfg, songs_per_language, seed_base):
            fh.write(_record(s) + "\n")


def load_corpus(path) -> tuple[GenConfig, list[PairedSample]]:
    """A corpus file's gen config and samples, rebuilt from its header's build arguments a
    segment at a time beside the records, so a damaged song count renders at most one song
    beyond them. A damaged file, one of another kind or version, a record that differs from
    the rebuilt one, one the build lacks, or a file that ends before the build does raises
    a ValueError naming the file and line (`files.refusing`)."""
    with refusing(path, "corpus"), open(path, "rb") as fh:
        with refusing("line 1", "header"):
            header = parse_json(fh.readline().decode("utf-8"))
            if not isinstance(header, dict) or header.get("kind") != "voxmix-corpus":
                raise ValueError("not a voxmix corpus file")
            if (version := read_settings(int, header["version"], "version")) != CORPUS_VERSION:
                raise ValueError(f"corpus format version {version}, expected {CORPUS_VERSION}")
            cfg = read_settings(GenConfig, header["gen"], "gen")
            args = [read_settings(int, header[key], key) for key in ("songs_per_language", "seed_base")]
            build = build_corpus(cfg, *args)
        samples, lineno = [], 1
        for lineno, line in enumerate(fh, start=2):
            with refusing(f"line {lineno}", "record"):
                stored = line.decode("utf-8").rstrip("\n")
                sample = next(build, None)
                rebuilt = "nothing: the build has ended" if sample is None else _record(sample)
                if stored != rebuilt:
                    parse_json(stored)  # a line that does not parse is refused as malformed
                    raise ValueError(f"stored record {stored}, rebuilt {rebuilt}")
                samples.append(sample)
        if (sample := next(build, None)) is not None:
            raise ValueError(f"line {lineno + 1}: the file ends where the build has {_record(sample)}")
    return cfg, samples


def corpus_digest(samples: list[PairedSample]) -> str:
    """Stable hash over rendered features and text, for reproducibility checks."""
    import hashlib

    h = hashlib.sha256()
    for s in samples:
        h.update(s.sample_id.encode())
        h.update(s.text.encode())
        h.update(np.ascontiguousarray(s.x_v).astype("<f8").tobytes())
        h.update(np.ascontiguousarray(s.x_m).astype("<f8").tobytes())
    return h.hexdigest()
