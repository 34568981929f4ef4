"""Toy encoder-decoder transcriber with optional low-rank adapters.

Pre-LN transformer blocks at desk scale: an input projection plus
sinusoidal positions feed self-attention encoder blocks; the decoder uses
causal self-attention and cross-attention over the encoder output. LoRA
adapters attach to the `ADAPTED` projections (query and value) of every
attention; `attach_adapters` freezes the base, so they are the only trainable
weights. Each holds its A and B, and `model.lora` their one `LoraSpec`. With
all adapter B matrices at zero the forward pass is bit-identical.

The forward pass has two entry points, `encode_batch` and `decode_batch`.
Both take padded arrays with validity masks, as `pad_frames` lays them
out; a single sample is a batch of one, and `encode_batch` refuses more
than `max_audio_frames` frames. Every projection goes through `_proj`.
An adapted one is one graph node for the base product and the LoRA branch
(`numerics.lora_linear`), after the branch's own dropout node in train
mode; each MLP is one node too (`numerics.mlp`).

With a `DecodeCache`, `decode_batch` runs incrementally: cross-attention
projects the encoder output once, self-attention appends each call's keys
and values. Logits then match a full-prefix call to about 1e-14, not bit
for bit, as BLAS may round a product of fewer rows differently.
`DecodeCache.keep_rows` drops finished rows of the batch from the cache.

Checkpoints come in two kinds, one per kind of model, at `FORMAT_VERSION`.
A full checkpoint (`voxmix-checkpoint`) holds a model without adapters, such
as the pretrained one: its config, seed lineage and every base weight. An
adapted model is saved as adapters only (`voxmix-adapters`): its config,
seed lineage, `lora` once, each adapter's A and B, and `base_ref`, the path
of the full checkpoint its frozen base was loaded from (`share_base`),
relative to the adapter file, with its `base_digest`. It is saved over no
other base. `load_checkpoint` returns the full model for either kind, and
refuses, naming the file, one it cannot read, a format version it does not
know, a setting of the wrong type or out of its class's range, a shape or
adapter set that does not fit, and a base whose config or digest is not the
one referenced.
"""

from __future__ import annotations

import base64
import hashlib
import json
import math
import os
from dataclasses import dataclass, asdict, field

import numpy as np

from voxmix import numerics as nm
from voxmix.files import atomic_write, parse_json, read_settings, refusing
from voxmix.numerics import Tensor
from voxmix.synthdata import VOCAB_SIZE

NEG_MASK = -1e30

ADAPTED = ("wq", "wv")  # the LoRA paper's choice (Hu et al., arXiv 2106.09685)


@dataclass
class ModelConfig:
    feature_dim: int = 16
    hidden_dim: int = 32
    num_heads: int = 2
    encoder_layers: int = 2
    decoder_layers: int = 2
    vocab_size: int = VOCAB_SIZE
    max_audio_frames: int = 64
    max_token_len: int = 48

    def __post_init__(self):
        if self.hidden_dim % self.num_heads != 0:
            raise ValueError(
                f"hidden_dim {self.hidden_dim} not divisible by num_heads {self.num_heads}"
            )
        if self.vocab_size < 4:
            raise ValueError(f"vocab_size must be >= 4, got {self.vocab_size}")
        if self.max_audio_frames < 1:
            raise ValueError("max_audio_frames must be >= 1")


@dataclass
class LoraSpec:
    """Adapter settings, checked here: delta rank, scale alpha / rank, train-mode branch dropout."""

    rank: int = 4
    alpha: float = 4.0
    dropout: float = 0.1

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank!r}")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout!r}")


@dataclass
class LoraAdapter:
    """The factors of a low-rank delta (alpha/rank) * B @ A; the settings are `model.lora`."""

    a: Tensor  # (rank, d_in)
    b: Tensor  # (d_out, rank)


@dataclass(frozen=True)
class BaseFile:
    """A full checkpoint file and the base_digest of the weights loaded from it."""

    path: str  # absolute and normalised
    digest: str


@dataclass
class DecodeCache:
    """Positions decoded so far over one encoding, and each decoder attention's K and V."""

    length: int = 0
    kv: dict[str, tuple[Tensor, Tensor]] = field(default_factory=dict)

    def keep_rows(self, going: np.ndarray, *arrays: np.ndarray) -> list[np.ndarray]:
        """Keep the batch rows where `going` is set in every K and V and in each of
        `arrays`: they move to the front in place, and views of them are kept and
        returned, so that a shrinking batch leaves no new buffers on the heap. For
        inference: the K and V are changed in place and lose their graph."""
        n = int(np.count_nonzero(going))

        def front(a):
            a[:n] = a[going]
            return a[:n]

        for prefix, (k, v) in self.kv.items():
            self.kv[prefix] = (Tensor(front(k.values)), Tensor(front(v.values)))
        return [front(a) for a in arrays]


class TranscriberModel:
    def __init__(self, config: ModelConfig, params: dict[str, Tensor]):
        self.config = config
        self.params = params
        self.adapters: dict[str, LoraAdapter] = {}
        self.lora: LoraSpec | None = None  # the settings of every adapter
        # the full checkpoint this model was loaded from, if any
        self.file: BaseFile | None = None
        # the full checkpoint whose frozen base this model shares (see share_base)
        self.base_file: BaseFile | None = None
        self.enc_pos = _sinusoidal_positions(config.max_audio_frames, config.hidden_dim)

    def adapted_projections(self) -> list[str]:
        """The ADAPTED projections of every attention, in the order adapters attach."""
        prefixes = [f"enc.{i}.attn" for i in range(self.config.encoder_layers)]
        for i in range(self.config.decoder_layers):
            prefixes.extend([f"dec.{i}.self", f"dec.{i}.cross"])
        return [f"{prefix}.{m}" for prefix in prefixes for m in ADAPTED]


def _sinusoidal_positions(length: int, dim: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    idx = np.arange(dim // 2)[None, :]
    angle = pos / (10000.0 ** (2 * idx / dim))
    out = np.zeros((length, dim))
    out[:, 0::2] = np.sin(angle)
    out[:, 1::2] = np.cos(angle)
    return out


def _param_layout(config: ModelConfig) -> dict[str, tuple[str, tuple[int, ...]]]:
    """Base weight name -> (init kind, shape), in initialisation order."""
    h, v = config.hidden_dim, config.vocab_size
    layout: dict[str, tuple[str, tuple[int, ...]]] = {}

    def ln(name):
        layout[f"{name}.g"] = ("ones", (h,))
        layout[f"{name}.b"] = ("zeros", (h,))

    def block(prefix, attentions):  # ln{j} before attention j, then the MLP's ln
        for j, kind in enumerate(attentions, start=1):
            ln(f"{prefix}.ln{j}")
            for m in ("wq", "wk", "wv", "wo"):
                layout[f"{prefix}.{kind}.{m}"] = ("weight", (h, h))
            for m in ("bq", "bk", "bv", "bo"):
                layout[f"{prefix}.{kind}.{m}"] = ("zeros", (h,))
        ln(f"{prefix}.ln{len(attentions) + 1}")
        layout[f"{prefix}.mlp.w1"] = ("weight", (4 * h, h))
        layout[f"{prefix}.mlp.b1"] = ("zeros", (4 * h,))
        layout[f"{prefix}.mlp.w2"] = ("weight", (h, 4 * h))
        layout[f"{prefix}.mlp.b2"] = ("zeros", (h,))

    layout["enc.in.w"] = ("weight", (h, config.feature_dim))
    layout["enc.in.b"] = ("zeros", (h,))
    for i in range(config.encoder_layers):
        block(f"enc.{i}", ["attn"])
    ln("enc.ln_out")
    layout["dec.tok"] = ("weight", (v, h))
    layout["dec.pos"] = ("weight", (config.max_token_len, h))
    for i in range(config.decoder_layers):
        block(f"dec.{i}", ["self", "cross"])
    ln("dec.ln_out")
    layout["dec.out.w"] = ("weight", (v, h))
    layout["dec.out.b"] = ("zeros", (v,))
    return layout


def build_model(config: ModelConfig, seed: int) -> TranscriberModel:
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6D6F64]))
    p: dict[str, Tensor] = {}
    for name, (kind, shape) in _param_layout(config).items():
        if kind == "weight":
            values = rng.normal(0.0, 0.08, size=shape)
        else:
            values = np.zeros(shape) if kind == "zeros" else np.ones(shape)
        p[name] = Tensor(values, requires_grad=True)
    return TranscriberModel(config, p)


def attach_adapters(model: TranscriberModel, lora: LoraSpec, seed: int) -> None:
    """Attach adapters to the ADAPTED projections of every attention; `lora` becomes `model.lora`.

    A is small Gaussian, B starts at zero so the adapted model is initially
    a no-op over the base model; every base weight stops requiring a gradient.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x6C6F7261]))
    h = model.config.hidden_dim
    a_std = 1.0 / math.sqrt(h)
    model.lora = lora
    for p in model.params.values():
        p.requires_grad = False
    for name in model.adapted_projections():
        model.adapters[name] = LoraAdapter(
            a=Tensor(rng.normal(0.0, a_std, size=(lora.rank, h)), requires_grad=True),
            b=Tensor(np.zeros((h, lora.rank)), requires_grad=True),
        )


def _proj(model, prefix, matrix, x, train_mode, rng):
    """x @ wᵀ + b, plus (alpha/rank) * B @ (A @ drop(x)) when this matrix is adapted.

    Dropout applies to the adapter branch only, and only in train mode.
    """
    w = model.params[f"{prefix}.{matrix}"]
    b = model.params[f"{prefix}.b{matrix[1]}"]
    adapter = model.adapters.get(f"{prefix}.{matrix}")
    if adapter is None:
        return nm.linear(x, w, b)
    branch = x
    if train_mode and model.lora.dropout > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with adapter dropout needs an rng")
        branch = nm.dropout(branch, model.lora.dropout, rng)
    return nm.lora_linear(x, branch, w, b, adapter.a, adapter.b, model.lora.alpha / model.lora.rank)


def _attention(model, prefix, x_q, x_kv, add_mask, train_mode, rng, cache=None):
    q = _proj(model, prefix, "wq", x_q, train_mode, rng)
    held = cache.kv.get(prefix) if cache is not None else None
    if held is not None and prefix.endswith(".cross"):  # over the same enc every call
        k, v = held
    else:
        k = _proj(model, prefix, "wk", x_kv, train_mode, rng)
        v = _proj(model, prefix, "wv", x_kv, train_mode, rng)
        if held is not None:
            k, v = nm.concat((held[0], k), axis=1), nm.concat((held[1], v), axis=1)
        if cache is not None:
            cache.kv[prefix] = (k, v)
    ctx = nm.attention_core(q, k, v, model.config.num_heads, add_mask)
    return _proj(model, prefix, "wo", ctx, train_mode, rng)


def _ln(model, name, x):
    return nm.layer_norm(x, model.params[f"{name}.g"], model.params[f"{name}.b"])


def _mlp(model, prefix, x):
    p = model.params
    return nm.mlp(x, *(p[f"{prefix}.mlp.{name}"] for name in ("w1", "b1", "w2", "b2")))


def pad_frames(windows: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Zero-pad (T_i, F) windows into features (B, T, F) and a validity mask (B, T)."""
    x = np.zeros((len(windows), max(w.shape[0] for w in windows), windows[0].shape[1]))
    mask = np.zeros(x.shape[:2], dtype=bool)
    for i, w in enumerate(windows):
        x[i, : w.shape[0]] = w
        mask[i, : w.shape[0]] = True
    return x, mask


def _key_pad_mask(valid: np.ndarray) -> np.ndarray | None:
    """Additive (B, 1, 1, T) mask hiding padded key frames; None when all valid."""
    if valid.all():
        return None
    return np.where(valid, 0.0, NEG_MASK)[:, None, None, :]


def encode_batch(
    model: TranscriberModel,
    x: np.ndarray,
    frame_mask: np.ndarray,
    train_mode: bool,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Encode padded features (B, T, F) with validity mask (B, T) to (B, T, H)."""
    cfg = model.config
    bsz, t_a, f = x.shape
    if t_a > cfg.max_audio_frames:
        raise ValueError(
            f"{t_a} frames exceeds max_audio_frames={cfg.max_audio_frames}; "
            f"split longer inputs into windows of at most {cfg.max_audio_frames} frames"
        )
    if f != cfg.feature_dim:
        raise ValueError(f"feature dim {f} does not match model feature_dim {cfg.feature_dim}")
    if not np.isfinite(x).all():
        raise ValueError("encoder input contains non-finite values")

    mask = _key_pad_mask(frame_mask)
    h = nm.linear(Tensor(x), model.params["enc.in.w"], model.params["enc.in.b"])
    h = nm.add(h, Tensor(model.enc_pos[:t_a]))
    for i in range(cfg.encoder_layers):
        prefix = f"enc.{i}"
        a = _ln(model, f"{prefix}.ln1", h)
        h = nm.add(h, _attention(model, f"{prefix}.attn", a, a, mask, train_mode, rng))
        m = _ln(model, f"{prefix}.ln2", h)
        h = nm.add(h, _mlp(model, prefix, m))
    return _ln(model, "enc.ln_out", h)


def decode_batch(
    model: TranscriberModel,
    enc: Tensor,
    enc_frame_mask: np.ndarray,
    y_in: np.ndarray,
    train_mode: bool,
    rng: np.random.Generator | None = None,
    cache: DecodeCache | None = None,
) -> Tensor:
    """Teacher-forced decoder logits (B, L, V) for padded token ids (B, L).

    With a cache, y_in holds the L positions after the `cache.length` decoded.
    """
    cfg = model.config
    bsz, seq = y_in.shape
    start = cache.length if cache is not None else 0
    if start + seq > cfg.max_token_len:
        what = f"{start} cached + {seq} new tokens" if start else f"{seq} tokens"
        raise ValueError(f"{what} exceeds max_token_len={cfg.max_token_len}")

    h = nm.embedding(model.params["dec.tok"], y_in)
    h = nm.add(h, nm.embedding(model.params["dec.pos"], np.arange(start, start + seq)))

    causal = np.where(np.tri(seq, start + seq, start, dtype=bool), 0.0, NEG_MASK)[None, None]
    cross_mask = _key_pad_mask(enc_frame_mask)
    for i in range(cfg.decoder_layers):
        prefix = f"dec.{i}"
        a = _ln(model, f"{prefix}.ln1", h)
        h = nm.add(h, _attention(model, f"{prefix}.self", a, a, causal, train_mode, rng, cache))
        c = _ln(model, f"{prefix}.ln2", h)
        h = nm.add(h, _attention(model, f"{prefix}.cross", c, enc, cross_mask, train_mode, rng, cache))
        m = _ln(model, f"{prefix}.ln3", h)
        h = nm.add(h, _mlp(model, prefix, m))
    h = _ln(model, "dec.ln_out", h)
    if cache is not None:
        cache.length += seq
    return nm.linear(h, model.params["dec.out.w"], model.params["dec.out.b"])


def trainable_parameters(model: TranscriberModel) -> list[Tensor]:
    """Exactly the adapter A/B tensors when the model has adapters, as LoRA
    fine-tuning of a frozen base trains; every base weight otherwise."""
    if model.adapters:
        return [t for _, ad in sorted(model.adapters.items()) for t in (ad.a, ad.b)]
    return [model.params[name] for name in sorted(model.params)]


def base_digest(model: TranscriberModel) -> str:
    """SHA-256 over all base weights; fine-tuning must never change it."""
    h = hashlib.sha256()
    for name in sorted(model.params):
        h.update(name.encode())
        h.update(np.ascontiguousarray(model.params[name].values).astype("<f8").tobytes())
    return h.hexdigest()


def share_base(base: TranscriberModel) -> TranscriberModel:
    """A model without adapters over `base`'s weight arrays, shared, not copied.

    The arrays are marked read-only, on `base` too, so that an in-place write
    to the frozen base raises instead of leaking into every model sharing it.
    """
    params = {}
    for name, t in base.params.items():
        t.values.flags.writeable = False
        params[name] = Tensor(t.values)
    model = TranscriberModel(base.config, params)
    model.base_file = base.file
    return model


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

FULL_KIND = "voxmix-checkpoint"
ADAPTERS_KIND = "voxmix-adapters"
FORMAT_VERSION = 2


def _encode_array(arr: np.ndarray) -> dict:
    return {
        "shape": list(arr.shape),
        "data": base64.b64encode(np.ascontiguousarray(arr).astype("<f8").tobytes()).decode(),
    }


def _decode_array(obj: dict, where: str) -> np.ndarray:
    with refusing(where, "array"):  # names the entry inside the file's frame
        flat = np.frombuffer(base64.b64decode(obj["data"]), dtype="<f8")
        return flat.reshape(obj["shape"]).astype(np.float64)


def base_reference(model: TranscriberModel, path) -> dict | None:
    """None for a model without adapters, saved in full; else the relative path
    and base_digest of the full checkpoint its unchanged base was loaded from.
    Raises a ValueError naming `path` for an adapted model without one."""
    if not model.adapters:
        return None
    loaded = model.base_file
    if loaded is not None and base_digest(model) == loaded.digest:
        rel = os.path.relpath(loaded.path, os.path.dirname(os.path.abspath(path)))
        return {"path": rel.replace(os.sep, "/"), "base_digest": loaded.digest}
    why = ("its base was not loaded from a full checkpoint" if loaded is None
           else f"its base changed since it was loaded from {loaded.path}")
    raise ValueError(f"{path}: cannot save an adapted model: {why}; adapters are "
                     f"saved over the unchanged base of a loaded full checkpoint (see share_base)")


def save_checkpoint(model: TranscriberModel, path, seed_lineage: dict | None = None) -> None:
    """Write `model` atomically (see files.atomic_write): in full without
    adapters, as its adapters over the base of `base_reference` with them."""
    doc = {"config": asdict(model.config), "seed_lineage": seed_lineage or {},
           "version": FORMAT_VERSION}
    ref = base_reference(model, path)
    if ref is None:
        doc["kind"] = FULL_KIND
        doc["base"] = {name: _encode_array(t.values) for name, t in model.params.items()}
    else:
        doc["kind"] = ADAPTERS_KIND
        doc["base_ref"] = ref
        doc["lora"] = asdict(model.lora)
        doc["adapters"] = {
            name: {"a": _encode_array(ad.a.values), "b": _encode_array(ad.b.values)}
            for name, ad in model.adapters.items()
        }

    with atomic_write(path) as fh:
        fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))


def load_checkpoint(path, base: TranscriberModel | None = None) -> tuple[TranscriberModel, dict]:
    """The full model stored at `path` and its seed lineage.

    For an adapters-only checkpoint the adapters go on a model sharing the
    frozen arrays of `base` (see share_base); without a `base`, the
    referenced full checkpoint is loaded. A full checkpoint ignores `base`.
    Raises a ValueError starting with the path (see files.refusing) for an
    unreadable or foreign file, an unknown format version, a setting its class
    refuses, a shape or a set of adapters that does not fit, or a base whose
    config or base_digest is not the referenced one; a damaged referenced base
    is named after the adapters file, as `<path>: <base path>: ...`, and a
    damaged array or adapter entry by its dotted name, as
    `<path>: adapters.<name>: ...`.
    """
    with refusing(path, "checkpoint"):
        doc = _read_checkpoint(path)
        model = _full_model(path, doc) if doc["kind"] == FULL_KIND else _adapted_model(path, doc, base)
        return model, read_settings(dict, doc["seed_lineage"], "seed_lineage")


def _read_checkpoint(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        doc = parse_json(fh.read())
    kind = doc.get("kind") if isinstance(doc, dict) else None
    if kind not in (FULL_KIND, ADAPTERS_KIND):
        raise ValueError("not a voxmix checkpoint")
    if (version := read_settings(int, doc["version"], "version")) != FORMAT_VERSION:
        raise ValueError(f"unknown {kind} format version {version}; "
                         f"this reader knows version {FORMAT_VERSION}")
    return doc


def _full_model(path, doc: dict) -> TranscriberModel:
    config = read_settings(ModelConfig, doc["config"], "config")
    base = read_settings(dict, doc["base"], "base")
    params = {k: Tensor(_decode_array(obj, f"base.{k}"), requires_grad=True) for k, obj in base.items()}
    want = {name: shape for name, (_, shape) in _param_layout(config).items()}
    got = {name: t.values.shape for name, t in params.items()}
    if got != want:
        bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
        raise ValueError("base weights do not fit its config: "
                         + ", ".join(f"{n} {got.get(n)} (want {want.get(n)})" for n in bad[:4]))
    model = TranscriberModel(config, params)
    model.file = BaseFile(os.path.normpath(os.path.abspath(path)), base_digest(model))
    return model


def _adapted_model(path, doc: dict, base: TranscriberModel | None) -> TranscriberModel:
    ref = doc["base_ref"]
    base_path = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(path)), ref["path"]))
    if base is None:
        if not os.path.exists(base_path):
            raise FileNotFoundError(f"{path}: its base checkpoint {base_path} does not exist")
        with refusing(base_path, "checkpoint"):
            base_doc = _read_checkpoint(base_path)
            if base_doc["kind"] != FULL_KIND:
                raise ValueError(f"a {ADAPTERS_KIND} file, not the full {FULL_KIND} a base must be")
            base = _full_model(base_path, base_doc)
    where = base.file.path if base.file else "the given base"
    config = read_settings(ModelConfig, doc["config"], "config")
    if config != base.config:
        raise ValueError(f"config {config} does not match the config of {where}: {base.config}")
    if (digest := base_digest(base)) != ref["base_digest"]:
        raise ValueError(f"base digest mismatch: the checkpoint refers to base_digest "
                         f"{ref['base_digest']}, {where} has {digest}")
    model = share_base(base)
    model.lora = read_settings(LoraSpec, doc["lora"], "lora")
    h, rank = config.hidden_dim, model.lora.rank
    known = model.adapted_projections()
    for name, obj in read_settings(dict, doc["adapters"], "adapters").items():
        with refusing(f"adapters.{name}", "adapter"):
            arrays = obj["a"], obj["b"]
        a, b = (_decode_array(x, f"adapters.{name}.{k}") for k, x in zip("ab", arrays))
        if name not in known or a.shape != (rank, h) or b.shape != (h, rank):
            raise ValueError(
                f"adapter {name} (A {a.shape}, B {b.shape}) does not fit the model: "
                f"lora.rank is {rank}, hidden_dim is {h} and the adapted projections are {sorted(known)}"
            )
        model.adapters[name] = LoraAdapter(Tensor(a, requires_grad=True), Tensor(b, requires_grad=True))
    if missing := [name for name in known if name not in model.adapters]:
        raise ValueError(f"adapters missing for the adapted projections {missing}")
    return model
