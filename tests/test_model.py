import json
import os
import shutil
from dataclasses import asdict

import numpy as np
import pytest

from voxmix import numerics as nm
from voxmix.model import (
    ADAPTED,
    DecodeCache,
    LoraAdapter,
    LoraSpec,
    ModelConfig,
    TranscriberModel,
    _proj,
    attach_adapters,
    base_digest,
    build_model,
    decode_batch,
    encode_batch,
    load_checkpoint,
    save_checkpoint,
    share_base,
    trainable_parameters,
)
from voxmix.numerics import Tensor, backward, zero_grads
from voxmix.synthdata import BOS_ID, EOS_ID, VOCAB_SIZE


@pytest.fixture
def config():
    return ModelConfig()


@pytest.fixture
def base_model(config):
    return build_model(config, seed=3)


@pytest.fixture
def adapted_model(config):
    model = build_model(config, seed=3)
    attach_adapters(model, LoraSpec(), seed=5)
    return model


def random_features(rng, frames, config):
    return rng.standard_normal((frames, config.feature_dim))


def test_config_validates_head_split():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(hidden_dim=30, num_heads=4)


# base_digest of the seed-0 model with 3 encoder layers and 1 decoder layer. The
# weights draw from one stream in _param_layout's order, so this pins that order
# on a shape the grid's digest does not cover.
SHAPE_3_1_DIGEST = "e93ce2a1cdee0979bf0867648c05c59cff2cc7f44cef14802457b537fdf0d2cf"


def test_initial_weights_of_a_non_default_shape_are_pinned():
    model = build_model(ModelConfig(encoder_layers=3, decoder_layers=1), seed=0)
    assert base_digest(model) == SHAPE_3_1_DIGEST


def encode_one(model, x, train_mode, rng=None):
    """encode_batch over one unpadded sample: (1, T, H)."""
    return encode_batch(model, x[None], np.ones((1, x.shape[0]), dtype=bool), train_mode, rng)


def decode_one(model, enc, y_in, train_mode, rng=None):
    """decode_batch over one token prefix against one encoding: (1, L, V)."""
    mask = np.ones(enc.values.shape[:2], dtype=bool)
    return decode_batch(model, enc, mask, np.asarray([y_in], dtype=np.int64), train_mode, rng)


def test_encode_shape_contract(base_model, config):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 12, config.feature_dim))
    mask = np.ones((3, 12), dtype=bool)
    mask[1, 7:] = False
    out = encode_batch(base_model, x, mask, train_mode=False)
    assert out.values.shape == (3, 12, config.hidden_dim)


def test_encode_deterministic_in_eval_mode(base_model, config):
    rng = np.random.default_rng(1)
    x = random_features(rng, 9, config)
    a = encode_one(base_model, x, train_mode=False).values
    b = encode_one(base_model, x, train_mode=False).values
    assert np.array_equal(a, b)


def test_encode_rejects_too_many_frames(base_model, config):
    rng = np.random.default_rng(2)
    x = random_features(rng, config.max_audio_frames + 1, config)
    with pytest.raises(ValueError, match=f"windows of at most {config.max_audio_frames} frames"):
        encode_one(base_model, x, train_mode=False)


def test_encode_rejects_non_finite(base_model, config):
    x = np.full((4, config.feature_dim), np.nan)
    with pytest.raises(ValueError, match="finite"):
        encode_one(base_model, x, train_mode=False)


def test_zero_init_adapters_are_a_bitwise_noop(base_model, adapted_model, config):
    rng = np.random.default_rng(3)
    x = random_features(rng, 10, config)
    enc_b = encode_one(base_model, x, train_mode=False)
    enc_l = encode_one(adapted_model, x, train_mode=False)
    assert np.array_equal(enc_b.values, enc_l.values)

    y_in = [BOS_ID, 5, 6, 7]
    lb = decode_one(base_model, enc_b, y_in, train_mode=False).values
    ll = decode_one(adapted_model, enc_l, y_in, train_mode=False).values
    assert np.array_equal(lb, ll)


def test_decoder_single_token_shape(base_model, config):
    rng = np.random.default_rng(5)
    enc = encode_one(base_model, random_features(rng, 6, config), train_mode=False)
    logits = decode_one(base_model, enc, [BOS_ID], train_mode=False)
    assert logits.values.shape == (1, 1, config.vocab_size)


def test_decoder_rejects_out_of_vocab(base_model, config):
    rng = np.random.default_rng(6)
    enc = encode_one(base_model, random_features(rng, 6, config), train_mode=False)
    with pytest.raises(IndexError):
        decode_one(base_model, enc, [BOS_ID, config.vocab_size], train_mode=False)


@pytest.mark.parametrize("bad", [-1, VOCAB_SIZE])
def test_decoder_refuses_a_token_id_outside_the_vocabulary_naming_the_range(base_model, config, bad):
    rng = np.random.default_rng(6)
    enc = encode_one(base_model, random_features(rng, 6, config), train_mode=False)
    with pytest.raises(IndexError, match=rf"out of range \[0, {config.vocab_size}\): min={min(bad, 1)}"):
        decode_one(base_model, enc, [BOS_ID, bad], train_mode=False)


def test_decoder_refuses_a_cached_call_past_max_token_len(base_model, config):
    rng = np.random.default_rng(8)
    enc = encode_one(base_model, random_features(rng, 6, config), train_mode=False)
    mask = np.ones((1, 6), dtype=bool)
    limit = config.max_token_len
    with pytest.raises(ValueError, match=f"{limit + 1} tokens exceeds max_token_len={limit}"):
        decode_batch(base_model, enc, mask, np.full((1, limit + 1), BOS_ID), False)
    cache = DecodeCache()
    decode_batch(base_model, enc, mask, np.full((1, limit - 2), BOS_ID), False, cache=cache)
    message = f"{limit - 2} cached \\+ 3 new tokens exceeds max_token_len={limit}"
    with pytest.raises(ValueError, match=message):
        decode_batch(base_model, enc, mask, np.full((1, 3), BOS_ID), False, cache=cache)
    assert cache.length == limit - 2
    decode_batch(base_model, enc, mask, np.full((1, 2), BOS_ID), False, cache=cache)
    assert cache.length == limit


def test_decoder_causality_under_suffix_perturbation(base_model, config):
    rng = np.random.default_rng(7)
    enc = encode_one(base_model, random_features(rng, 8, config), train_mode=False)
    for _ in range(20):
        length = int(rng.integers(2, 10))
        y = [BOS_ID] + list(rng.integers(3, VOCAB_SIZE, size=length - 1))
        t = int(rng.integers(0, length - 1))
        ref = decode_one(base_model, enc, y, train_mode=False).values[0]
        y_pert = list(y)
        y_pert[t + 1] = int(rng.integers(3, VOCAB_SIZE))
        pert = decode_one(base_model, enc, y_pert, train_mode=False).values[0]
        assert np.array_equal(ref[: t + 1], pert[: t + 1])


# ---------------------------------------------------------------------------
# the LoRA branch of _proj
# ---------------------------------------------------------------------------


def make_adapter(rng, d_out, d_in, rank=4, zero_b=False):
    b = np.zeros((d_out, rank)) if zero_b else rng.standard_normal((d_out, rank))
    return LoraAdapter(
        a=Tensor(rng.standard_normal((rank, d_in)), requires_grad=True),
        b=Tensor(b, requires_grad=True),
    )


def one_projection(rng, adapter=None, alpha=4.0, dropout=0.0):
    """A model whose only weights are the projection att.wq (6 x 5) and its bias
    att.bq, with the LoRA settings of a rank-4 `make_adapter`."""
    params = {
        "att.wq": Tensor(rng.standard_normal((6, 5))),
        "att.bq": Tensor(rng.standard_normal(6)),
    }
    model = TranscriberModel(ModelConfig(), params)
    model.lora = LoraSpec(rank=4, alpha=alpha, dropout=dropout)
    if adapter is not None:
        model.adapters["att.wq"] = adapter
    return model


def proj(model, x, train_mode, rng=None):
    return _proj(model, "att", "wq", x, train_mode, rng)


def test_lora_linear_zero_b_is_exactly_base(config):
    rng = np.random.default_rng(8)
    model = one_projection(rng, make_adapter(rng, 6, 5, zero_b=True))
    x = Tensor(rng.standard_normal((3, 5)))
    out = proj(model, x, train_mode=False)
    base = nm.linear(x, model.params["att.wq"], model.params["att.bq"])
    assert np.array_equal(out.values, base.values)


def test_lora_linear_delta_linear_in_alpha():
    rng = np.random.default_rng(9)
    adapter = make_adapter(rng, 6, 5)
    model = one_projection(rng, alpha=4.0)
    x = Tensor(rng.standard_normal((3, 5)))
    base = proj(model, x, train_mode=False).values
    model.adapters["att.wq"] = adapter
    d1 = proj(model, x, train_mode=False).values - base
    model.lora = LoraSpec(rank=4, alpha=8.0, dropout=0.0)
    d2 = proj(model, x, train_mode=False).values - base
    assert np.allclose(d2, 2.0 * d1, atol=1e-12)


def test_lora_merge_equivalence():
    rng = np.random.default_rng(10)
    adapter = make_adapter(rng, 6, 5)
    model = one_projection(rng, adapter)
    w, b = model.params["att.wq"].values, model.params["att.bq"].values
    merged = w + (model.lora.alpha / model.lora.rank) * (adapter.b.values @ adapter.a.values)
    for _ in range(50):
        x = Tensor(rng.standard_normal((4, 5)))
        runtime = proj(model, x, train_mode=False).values
        direct = x.values @ merged.T + b
        assert np.max(np.abs(runtime - direct)) <= 1e-10


def test_lora_dropout_only_in_train_mode():
    rng = np.random.default_rng(11)
    model = one_projection(rng, make_adapter(rng, 6, 5), dropout=0.5)
    x = Tensor(rng.standard_normal((3, 5)))
    eval_a = proj(model, x, train_mode=False).values
    eval_b = proj(model, x, train_mode=False).values
    assert np.array_equal(eval_a, eval_b)
    t1 = proj(model, x, train_mode=True, rng=np.random.default_rng(0)).values
    t2 = proj(model, x, train_mode=True, rng=np.random.default_rng(1)).values
    assert not np.array_equal(t1, t2)
    with pytest.raises(ValueError, match="rng"):
        proj(model, x, train_mode=True)


# ---------------------------------------------------------------------------
# trainable parameters and the frozen base
# ---------------------------------------------------------------------------


def test_trainable_parameter_counts(base_model, adapted_model, config):
    h = config.hidden_dim
    n_attentions = config.encoder_layers + 2 * config.decoder_layers
    expected = n_attentions * 2 * 4 * (h + h)  # rank * (d_in + d_out) per adapted matrix
    # an adapted model trains exactly its adapters: attaching them froze the base
    finetune = trainable_parameters(adapted_model)
    adapters = [t for ad in adapted_model.adapters.values() for t in (ad.a, ad.b)]
    assert sorted(map(id, finetune)) == sorted(map(id, adapters))
    assert sum(p.values.size for p in finetune) == expected
    assert all(t.requires_grad for t in adapters)
    assert not any(p.requires_grad for p in adapted_model.params.values())

    # a plain model trains every base weight
    pretrain = trainable_parameters(base_model)
    assert list(map(id, pretrain)) == [id(base_model.params[name]) for name in sorted(base_model.params)]
    assert all(p.requires_grad for p in pretrain)


def test_adapter_rank_is_the_row_count_of_a(adapted_model, config):
    # the model holds the one LoraSpec it was given; each A has its rank in rows
    lora = LoraSpec(rank=3)
    model = build_model(config, seed=3)
    attach_adapters(model, lora, seed=5)
    for m, rank in ((model, 3), (adapted_model, LoraSpec().rank)):
        assert m.lora.rank == rank
        assert {(ad.a.values.shape[0], ad.b.values.shape[1]) for ad in m.adapters.values()} == {(rank, rank)}
    assert model.lora is lora
    assert build_model(config, seed=3).lora is None


def test_adapters_sit_on_the_adapted_projections_of_every_attention(adapted_model):
    cfg = adapted_model.config
    prefixes = [f"enc.{i}.attn" for i in range(cfg.encoder_layers)]
    prefixes += [f"dec.{i}.{kind}" for i in range(cfg.decoder_layers) for kind in ("self", "cross")]
    assert list(adapted_model.adapters) == [f"{p}.{m}" for p in prefixes for m in ADAPTED]
    assert adapted_model.adapted_projections() == list(adapted_model.adapters)


def test_manual_finetune_update_keeps_base_digest(adapted_model, config):
    rng = np.random.default_rng(12)
    digest_before = base_digest(adapted_model)
    x = random_features(rng, 8, config)
    enc = encode_one(adapted_model, x, train_mode=True, rng=np.random.default_rng(1))
    y = np.array([BOS_ID, 4, 5, EOS_ID])
    logits = decode_one(adapted_model, enc, y[:-1], train_mode=True, rng=np.random.default_rng(2))
    loss = nm.cross_entropy(logits, y[None, 1:], ignore_index=0)
    backward(loss)
    params = trainable_parameters(adapted_model)
    for p in params:
        assert p.grad is not None
        p.values -= 0.05 * p.grad
    zero_grads(params)
    assert base_digest(adapted_model) == digest_before


def test_adapter_gradients_reach_both_factors(adapted_model, config):
    rng = np.random.default_rng(13)
    x = random_features(rng, 6, config)
    # push B off zero so A receives gradient through it
    for ad in adapted_model.adapters.values():
        ad.b.values[:] = 0.01
    enc = encode_one(adapted_model, x, train_mode=False)
    y = np.array([BOS_ID, 4, 5, EOS_ID])
    logits = decode_one(adapted_model, enc, y[:-1], train_mode=False)
    loss = nm.cross_entropy(logits, y[None, 1:], ignore_index=0)
    backward(loss)
    some_a = any(np.abs(ad.a.grad).max() > 0 for ad in adapted_model.adapters.values())
    some_b = any(np.abs(ad.b.grad).max() > 0 for ad in adapted_model.adapters.values())
    assert some_a and some_b


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip_is_bit_exact(base_model, tmp_path):
    path = tmp_path / "model.json"
    lineage = {"init_seed": 3, "plan_seed": 3}
    save_checkpoint(base_model, path, lineage)
    loaded, loaded_lineage = load_checkpoint(path)

    assert loaded_lineage == lineage
    assert loaded.config == base_model.config
    assert loaded.params.keys() == base_model.params.keys()
    for name, t in base_model.params.items():
        assert np.array_equal(loaded.params[name].values, t.values)
    assert loaded.file.digest == base_digest(base_model)
    assert loaded.adapters == {} and loaded.lora is None

    save_checkpoint(loaded, tmp_path / "again.json", lineage)
    assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "other.json"
    path.write_text("{\"kind\": \"something-else\"}")
    with pytest.raises(ValueError, match="checkpoint"):
        load_checkpoint(path)


def _cell_over_saved_base(root, seed=3):
    """A full base checkpoint under root/checkpoints, and a cell model over it
    with trained-looking adapters, saved under root/cells/c."""
    (root / "checkpoints").mkdir(parents=True)
    (root / "cells" / "c").mkdir(parents=True)
    base_path = root / "checkpoints" / "base.json"
    save_checkpoint(build_model(ModelConfig(), seed=seed), base_path)
    base, _ = load_checkpoint(base_path)
    cell = share_base(base)
    attach_adapters(cell, LoraSpec(), seed=5)
    rng = np.random.default_rng(14)
    for ad in cell.adapters.values():
        ad.b.values[:] = rng.standard_normal(ad.b.values.shape)
    cell_path = root / "cells" / "c" / "checkpoint.json"
    save_checkpoint(cell, cell_path, {"adapter_seed": 5})
    return base, cell, cell_path


def _edit(path, change):
    doc = json.loads(path.read_text())
    change(doc)
    path.write_text(json.dumps(doc))


def test_each_checkpoint_kind_holds_only_its_own_keys(tmp_path):
    _, cell, path = _cell_over_saved_base(tmp_path)
    full = json.loads((tmp_path / "checkpoints" / "base.json").read_text())
    assert sorted(full) == ["base", "config", "kind", "seed_lineage", "version"]
    assert (full["kind"], full["version"]) == ("voxmix-checkpoint", 2)
    doc = json.loads(path.read_text())
    assert sorted(doc) == ["adapters", "base_ref", "config", "kind", "lora", "seed_lineage", "version"]
    assert (doc["kind"], doc["version"]) == ("voxmix-adapters", 2)
    assert doc["lora"] == asdict(LoraSpec())
    assert doc["adapters"].keys() == cell.adapters.keys()
    assert {tuple(sorted(entry)) for entry in doc["adapters"].values()} == {("a", "b")}


def test_adapter_checkpoint_round_trip_is_bit_exact(tmp_path):
    base, cell, path = _cell_over_saved_base(tmp_path)
    doc = json.loads(path.read_text())
    assert doc["kind"] == "voxmix-adapters"
    assert "base" not in doc
    assert doc["base_ref"] == {"path": "../../checkpoints/base.json", "base_digest": base_digest(base)}
    assert path.stat().st_size < 0.1 * (tmp_path / "checkpoints" / "base.json").stat().st_size

    x = np.random.default_rng(2).standard_normal((2, 10, cell.config.feature_dim))
    mask = np.ones((2, 10), dtype=bool)
    want = encode_batch(cell, x, mask, train_mode=False).values
    for loaded, lineage in (load_checkpoint(path), load_checkpoint(path, base=base)):
        assert lineage == {"adapter_seed": 5}
        assert loaded.config == cell.config
        assert loaded.lora == cell.lora
        assert base_digest(loaded) == base_digest(base)
        assert loaded.adapters.keys() == cell.adapters.keys()
        for name, ad in cell.adapters.items():
            assert np.array_equal(loaded.adapters[name].a.values, ad.a.values)
            assert np.array_equal(loaded.adapters[name].b.values, ad.b.values)
        assert np.array_equal(encode_batch(loaded, x, mask, train_mode=False).values, want)

    again = tmp_path / "cells" / "c" / "again.json"
    save_checkpoint(load_checkpoint(path)[0], again, {"adapter_seed": 5})
    assert again.read_bytes() == path.read_bytes()


def test_adapter_checkpoint_loads_from_a_moved_directory(tmp_path):
    base, cell, path = _cell_over_saved_base(tmp_path / "out")
    shutil.move(tmp_path / "out", tmp_path / "moved")
    loaded, _ = load_checkpoint(tmp_path / "moved" / "cells" / "c" / "checkpoint.json")
    assert loaded.base_file.path == os.path.abspath(tmp_path / "moved" / "checkpoints" / "base.json")
    assert base_digest(loaded) == base_digest(base)


def test_adapter_checkpoint_refuses_another_base(tmp_path):
    base, _, path = _cell_over_saved_base(tmp_path)
    other = build_model(ModelConfig(), seed=4)
    with pytest.raises(ValueError, match="digest") as err:
        load_checkpoint(path, base=other)
    assert str(path) in str(err.value)
    assert base_digest(base) in str(err.value) and base_digest(other) in str(err.value)

    # the referenced file itself replaced by another base
    save_checkpoint(other, tmp_path / "checkpoints" / "base.json")
    with pytest.raises(ValueError, match=base_digest(other)) as err:
        load_checkpoint(path)
    assert str(path) in str(err.value) and base_digest(base) in str(err.value)


def test_adapter_checkpoint_refuses_another_config(tmp_path):
    _, _, path = _cell_over_saved_base(tmp_path)
    # same weight shapes and values, so the same base_digest, but another head split
    other = build_model(ModelConfig(num_heads=4), seed=3)
    with pytest.raises(ValueError, match="config") as err:
        load_checkpoint(path, base=other)
    assert str(path) in str(err.value)


def test_adapter_checkpoint_refuses_wrong_adapter_shapes(tmp_path):
    _, _, path = _cell_over_saved_base(tmp_path)

    def reshape(doc):
        doc["adapters"]["enc.0.attn.wq"]["a"]["shape"] = [8, 16]

    _edit(path, reshape)
    with pytest.raises(ValueError, match="enc.0.attn.wq") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


def test_adapter_checkpoint_refuses_an_adapter_off_the_adapted_projections(tmp_path):
    _, _, path = _cell_over_saved_base(tmp_path)

    def move(doc):
        doc["adapters"]["enc.0.attn.wk"] = doc["adapters"].pop("enc.0.attn.wq")

    _edit(path, move)
    with pytest.raises(ValueError, match="adapter enc.0.attn.wk .* does not fit") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)
    assert all(f"enc.0.attn.{m}" in str(err.value) for m in ADAPTED)


def _set(doc, dotted, value):
    *parents, leaf = dotted.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


@pytest.mark.parametrize("rel, dotted, value", [
    ("checkpoints/base.json", "config.hidden_dim", 32.0),
    ("cells/c/checkpoint.json", "config.hidden_dim", 32.0),
    ("cells/c/checkpoint.json", "lora.rank", "4"),
    ("checkpoints/base.json", "base", []),
    ("checkpoints/base.json", "base", "x"),
    ("cells/c/checkpoint.json", "adapters", []),
    ("cells/c/checkpoint.json", "adapters", "x"),
], ids=["full_hidden_dim_float", "adapters_hidden_dim_float", "adapters_rank_text",
        "full_base_list", "full_base_text", "adapters_adapters_list", "adapters_adapters_text"])
def test_checkpoint_refuses_a_setting_of_the_wrong_type(tmp_path, rel, dotted, value):
    _cell_over_saved_base(tmp_path)
    path = tmp_path / rel
    _edit(path, lambda doc: _set(doc, dotted, value))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: malformed checkpoint (TypeError: {dotted} must be ")


def test_full_checkpoint_refuses_weights_that_do_not_fit_its_config(base_model, tmp_path):
    path = tmp_path / "full.json"
    save_checkpoint(base_model, path)
    _edit(path, lambda doc: doc["config"].update(hidden_dim=16))
    with pytest.raises(ValueError, match="config") as err:
        load_checkpoint(path)
    assert str(path) in str(err.value)


@pytest.mark.parametrize("field, value, message", [
    ("rank", 0, "lora: rank must be >= 1, got 0"),
    ("dropout", 1.5, "lora: dropout must be in [0, 1), got 1.5"),
], ids=["rank_0", "dropout_1.5"])
def test_adapter_checkpoint_refuses_a_lora_setting_out_of_range(tmp_path, field, value, message):
    _, _, path = _cell_over_saved_base(tmp_path)
    _edit(path, lambda doc: doc["lora"].update({field: value}))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: {message}"


@pytest.mark.parametrize("rel", ["checkpoints/base.json", "cells/c/checkpoint.json"], ids=["full", "adapters"])
def test_checkpoint_refuses_a_config_its_class_refuses(tmp_path, rel):
    _cell_over_saved_base(tmp_path)
    path = tmp_path / rel
    _edit(path, lambda doc: doc["config"].update(num_heads=3))
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value) == f"{path}: config: hidden_dim 32 not divisible by num_heads 3"


@pytest.mark.parametrize("which", ["full", "adapters"])
def test_checkpoint_refuses_unknown_version(which, tmp_path):
    _, _, path = _cell_over_saved_base(tmp_path)
    if which == "full":
        path = tmp_path / "checkpoints" / "base.json"
    for version in (1, 99):  # 1: the format that held per-adapter settings and adapters in full files
        _edit(path, lambda doc: doc.update(version=version))
        kind = "voxmix-checkpoint" if which == "full" else "voxmix-adapters"
        with pytest.raises(ValueError, match=f"unknown {kind} format version {version}; "
                                             f"this reader knows version 2") as err:
            load_checkpoint(path)
        assert str(path) in str(err.value)


def test_truncated_checkpoint_names_the_file(base_model, tmp_path):
    path = tmp_path / "cut.json"
    save_checkpoint(base_model, path)
    path.write_bytes(path.read_bytes()[:1000])
    with pytest.raises(ValueError) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: malformed checkpoint (JSONDecodeError: ")


def test_adapter_checkpoint_with_missing_base_names_the_base(tmp_path):
    _, _, path = _cell_over_saved_base(tmp_path)
    base_path = tmp_path / "checkpoints" / "base.json"
    base_path.unlink()
    with pytest.raises(FileNotFoundError) as err:
        load_checkpoint(path)
    assert str(base_path) in str(err.value)


def test_checkpoint_write_is_atomic(tmp_path, monkeypatch):
    base, cell, cell_path = _cell_over_saved_base(tmp_path)
    for ad in cell.adapters.values():
        ad.b.values[:] = 0.0
    base_path = tmp_path / "checkpoints" / "base.json"
    before = {path: path.read_bytes() for path in (base_path, cell_path)}

    def crash(src, dst):
        raise OSError("killed before the rename")

    monkeypatch.setattr(os, "replace", crash)
    for model, path in ((build_model(ModelConfig(), seed=4), base_path), (cell, cell_path)):
        with pytest.raises(OSError, match="killed"):
            save_checkpoint(model, path)
        assert path.read_bytes() == before[path]
        assert [p.name for p in path.parent.iterdir()] == [path.name]


def test_an_adapted_model_is_saved_only_over_the_unchanged_base_it_loaded(adapted_model, tmp_path):
    path = tmp_path / "cell.json"
    with pytest.raises(ValueError, match="its base was not loaded from a full checkpoint") as err:
        save_checkpoint(adapted_model, path)
    assert str(err.value).startswith(f"{path}: cannot save an adapted model")

    _, cell, _ = _cell_over_saved_base(tmp_path / "out")
    weight = cell.params["enc.in.w"].values
    weight.flags.writeable = True
    weight[0, 0] += 1.0
    with pytest.raises(ValueError, match="its base changed since it was loaded from .*base.json") as err:
        save_checkpoint(cell, path)
    assert str(path) in str(err.value)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


def test_shared_base_is_read_only(base_model):
    cell = share_base(base_model)
    assert cell.params["dec.out.b"].values is base_model.params["dec.out.b"].values
    with pytest.raises(ValueError, match="read-only"):
        cell.params["dec.out.b"].values += 1.0
    with pytest.raises(ValueError, match="read-only"):
        base_model.params["enc.in.w"].values[0, 0] = 0.0
