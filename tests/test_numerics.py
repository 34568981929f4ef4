import math
import zlib

import numpy as np
import pytest

from fdcheck import assert_grads_match
from voxmix.model import DecodeCache
from voxmix.numerics import (
    Tensor,
    add,
    attention_core,
    backward,
    concat,
    cross_entropy,
    dropout,
    embedding,
    gelu,
    layer_norm,
    linear,
    lora_linear,
    matmul,
    mean,
    mlp,
    mul,
    narrow,
    no_grad,
    relu,
    reshape,
    scale,
    softmax,
    sub,
    tensor_abs,
    tensor_sum,
    transpose,
    zero_grads,
)

N_RANDOM = 20


def rand_tensor(rng, shape, requires_grad=True):
    return Tensor(rng.standard_normal(shape), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# forward values on hand examples
# ---------------------------------------------------------------------------


def test_matmul_identity():
    m = Tensor([[2.0, -1.0], [0.5, 3.0]])
    eye = Tensor(np.eye(2))
    out = matmul(eye, m)
    assert np.array_equal(out.values, m.values)


def test_matmul_scalar_case():
    out = matmul(Tensor([[2.0]]), Tensor([[3.0]]))
    assert out.values[0, 0] == 6.0


def test_matmul_hand_product():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[5.0, 6.0], [7.0, 8.0]])
    assert np.array_equal(matmul(a, b).values, [[19.0, 22.0], [43.0, 50.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_uniform():
    out = softmax(Tensor([0.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out.values, 0.25, atol=1e-15)


def test_softmax_analytic():
    out = softmax(Tensor([0.0, math.log(3.0)]))
    assert np.allclose(out.values, [0.25, 0.75], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    for _ in range(10):
        x = rng.standard_normal(7)
        c = float(rng.standard_normal())
        a = softmax(Tensor(x)).values
        b = softmax(Tensor(x + c)).values
        assert np.allclose(a, b, atol=1e-12)


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(N_RANDOM):
        x = Tensor(rng.standard_normal((4, 9)) * 10.0)
        sums = softmax(x).values.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((3, 4)))
    loss = cross_entropy(logits, np.array([0, 2, 3]), ignore_index=-1)
    assert loss.item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_cross_entropy_saturated():
    logits = np.zeros((2, 5))
    logits[0, 1] = 1000.0
    logits[1, 4] = 1000.0
    loss = cross_entropy(Tensor(logits), np.array([1, 4]), ignore_index=-1)
    assert loss.item() < 1e-6


def test_cross_entropy_ignores_padding():
    rng = np.random.default_rng(2)
    logits = rng.standard_normal((4, 6))
    full = cross_entropy(Tensor(logits[:2]), np.array([1, 2]), ignore_index=0)
    padded = cross_entropy(Tensor(logits), np.array([1, 2, 0, 0]), ignore_index=0)
    assert padded.item() == pytest.approx(full.item(), abs=1e-15)


def test_cross_entropy_all_ignored_is_zero_with_zero_grad():
    logits = Tensor(np.ones((3, 4)), requires_grad=True)
    loss = cross_entropy(logits, np.array([9, 9, 9]), ignore_index=9)
    assert loss.item() == 0.0
    backward(loss)
    assert logits.grad is None or np.all(logits.grad == 0.0)


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError, match="out of range"):
        cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 5]), ignore_index=-1)


def test_cross_entropy_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(N_RANDOM):
        logits = Tensor(rng.standard_normal((5, 7)) * 3.0)
        targets = rng.integers(0, 7, size=5)
        assert cross_entropy(logits, targets, ignore_index=-1).item() >= 0.0


# ---------------------------------------------------------------------------
# backward contract
# ---------------------------------------------------------------------------


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    loss = mul(x, x)
    backward(loss)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_backward_constant_leaves_zero_grad():
    x = Tensor(2.0, requires_grad=True)
    loss = Tensor(5.0, requires_grad=True)  # no path to x
    backward(loss)
    assert x.grad is None


def test_backward_rejects_non_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        backward(scale(x, 2.0))


def test_backward_accumulates_until_zeroed():
    x = Tensor(3.0, requires_grad=True)
    loss = mul(x, x)
    backward(loss)
    backward(loss)
    assert x.grad == pytest.approx(12.0, abs=1e-12)
    zero_grads([x])
    backward(loss)
    assert x.grad == pytest.approx(6.0, abs=1e-12)


def test_backward_deterministic_with_zeroing():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (3, 4))
    w = rand_tensor(rng, (5, 4))

    def build():
        return cross_entropy(linear(x, w), np.array([0, 1, 2]), ignore_index=-1)

    loss = build()
    backward(loss)
    first = (x.grad.copy(), w.grad.copy())
    zero_grads([x, w])
    backward(loss)
    assert np.array_equal(first[0], x.grad)
    assert np.array_equal(first[1], w.grad)


def test_backward_composite_graph_matches_fd():
    rng = np.random.default_rng(5)
    x = rand_tensor(rng, (3, 4))
    w = rand_tensor(rng, (4, 4))
    gain = Tensor(np.ones(4), requires_grad=True)
    bias = Tensor(np.zeros(4), requires_grad=True)
    targets = np.array([0, 3, 1])

    def build():
        h = matmul(x, w)
        h = layer_norm(h, gain, bias)
        return cross_entropy(h, targets, ignore_index=-1)

    assert_grads_match(build, [x, w, gain, bias])


# ---------------------------------------------------------------------------
# randomized finite-difference checks, one per differentiable op
# ---------------------------------------------------------------------------


def _fd_case(rng, op_name):
    if op_name == "add":
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        return lambda: mean(add(a, b)), [a, b]
    if op_name == "add_broadcast":
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4,))
        return lambda: mean(add(a, b)), [a, b]
    if op_name == "sub":
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        return lambda: mean(sub(a, b)), [a, b]
    if op_name == "mul":
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (3, 4))
        return lambda: mean(mul(a, b)), [a, b]
    if op_name == "scale":
        a = rand_tensor(rng, (3, 4))
        return lambda: mean(scale(a, 1.7)), [a]
    if op_name == "matmul":
        a, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (4, 2))
        return lambda: mean(matmul(a, b)), [a, b]
    if op_name == "matmul_batched":
        a, b = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (4, 5))
        return lambda: mean(matmul(a, b)), [a, b]
    if op_name == "linear":
        x, w, b = rand_tensor(rng, (3, 4)), rand_tensor(rng, (5, 4)), rand_tensor(rng, (5,))
        return lambda: mean(linear(x, w, b)), [x, w, b]
    if op_name == "lora_linear":
        x, w, b = rand_tensor(rng, (2, 3, 4)), rand_tensor(rng, (5, 4)), rand_tensor(rng, (5,))
        a, b_lora = rand_tensor(rng, (2, 4)), rand_tensor(rng, (5, 2))

        def build():  # the same dropout mask at every call
            d = dropout(x, 0.3, np.random.default_rng(1))
            return mean(lora_linear(x, d, w, b, a, b_lora, 1.5))

        return build, [x, w, b, a, b_lora]
    if op_name == "mlp":
        # small products beside biases of 1 to 2 either way keep each unit off the kink
        x, w1, w2, b2 = (rand_tensor(rng, shape) for shape in ((2, 3, 4), (6, 4), (4, 6), (4,)))
        w1.values *= 0.1
        x.values *= 0.1
        signs = np.where(np.arange(6) % 2, -1.0, 1.0)
        b1 = Tensor(signs * (1.0 + rng.random(6)), requires_grad=True)
        return lambda: mean(mlp(x, w1, b1, w2, b2)), [x, w1, b1, w2, b2]
    if op_name == "transpose":
        a = rand_tensor(rng, (2, 3, 4))
        return lambda: mean(mul(transpose(a), transpose(a))), [a]
    if op_name == "reshape":
        a = rand_tensor(rng, (3, 4))
        return lambda: mean(mul(reshape(a, (2, 6)), reshape(a, (2, 6)))), [a]
    if op_name == "concat":
        a, b = rand_tensor(rng, (2, 3)), rand_tensor(rng, (4, 3))
        return lambda: mean(mul(concat([a, b], axis=0), concat([a, b], axis=0))), [a, b]
    if op_name == "narrow":
        a = rand_tensor(rng, (5, 3))
        return lambda: mean(mul(narrow(a, 1, 4), narrow(a, 1, 4))), [a]
    if op_name == "attention_core":
        q = rand_tensor(rng, (2, 4, 6))
        k = rand_tensor(rng, (2, 5, 6))
        v = rand_tensor(rng, (2, 5, 6))
        w = rand_tensor(rng, (2, 4, 6), requires_grad=False)
        return lambda: mean(mul(attention_core(q, k, v, 2), w)), [q, k, v]
    if op_name == "gelu":
        a = rand_tensor(rng, (3, 4))
        return lambda: mean(gelu(a)), [a]
    if op_name == "relu":
        # keep values away from the kink where central differences are invalid
        a = Tensor(rng.standard_normal((3, 4)) + np.where(rng.random((3, 4)) < 0.5, -0.5, 0.5) * 3.0)
        a.requires_grad = True
        return lambda: mean(relu(a)), [a]
    if op_name == "softmax":
        a = rand_tensor(rng, (3, 5))
        w = rand_tensor(rng, (3, 5), requires_grad=False)
        return lambda: mean(mul(softmax(a), w)), [a]
    if op_name == "layer_norm":
        a = rand_tensor(rng, (3, 6))
        g = Tensor(rng.standard_normal(6) + 1.0, requires_grad=True)
        b = rand_tensor(rng, (6,))
        w = rand_tensor(rng, (3, 6), requires_grad=False)
        return lambda: mean(mul(layer_norm(a, g, b), w)), [a, g, b]
    if op_name == "embedding":
        table = rand_tensor(rng, (7, 4))
        ids = rng.integers(0, 7, size=(2, 3))
        return lambda: mean(embedding(table, ids)), [table]
    if op_name == "mean":
        a = rand_tensor(rng, (3, 4))
        return lambda: mean(mul(a, a)), [a]
    if op_name == "sum":
        a = rand_tensor(rng, (3, 4))
        return lambda: tensor_sum(mul(a, a)), [a]
    if op_name == "abs":
        # keep magnitudes well away from the kink at zero
        signs = np.where(rng.random((3, 4)) < 0.5, -1.0, 1.0)
        a = Tensor(signs * (0.5 + np.abs(rng.standard_normal((3, 4)))), requires_grad=True)
        return lambda: mean(tensor_abs(a)), [a]
    if op_name == "cross_entropy":
        logits = rand_tensor(rng, (3, 5))
        targets = rng.integers(0, 5, size=3)
        return lambda: cross_entropy(logits, targets, ignore_index=-1), [logits]
    raise AssertionError(op_name)


@pytest.mark.parametrize(
    "op_name",
    [
        "add",
        "add_broadcast",
        "sub",
        "mul",
        "scale",
        "matmul",
        "matmul_batched",
        "linear",
        "lora_linear",
        "mlp",
        "transpose",
        "reshape",
        "concat",
        "narrow",
        "attention_core",
        "gelu",
        "relu",
        "softmax",
        "layer_norm",
        "embedding",
        "mean",
        "sum",
        "abs",
        "cross_entropy",
    ],
)
def test_op_gradients_match_finite_differences(op_name):
    rng = np.random.default_rng(zlib.crc32(op_name.encode()))
    for _ in range(N_RANDOM):
        build, leaves = _fd_case(rng, op_name)
        assert_grads_match(build, leaves)


def test_dropout_gradient_uses_forward_mask():
    rng = np.random.default_rng(6)
    a = rand_tensor(rng, (4, 5))
    out = dropout(a, 0.5, np.random.default_rng(99))
    loss = mean(out)
    backward(loss)
    kept = out.values != 0.0
    # kept entries get the inverted-dropout scale, dropped entries get zero
    expected = np.where(kept, 2.0 / a.values.size, 0.0)
    assert np.allclose(a.grad, expected, atol=1e-15)


@pytest.mark.parametrize("rate", [0.1, 0.25, 0.5])
def test_dropout_mask_is_the_bool_mask_divided(rate):
    rng = np.random.default_rng(11)
    a = rand_tensor(rng, (3, 4, 5))
    drawn, ref_rng = np.random.default_rng(12), np.random.default_rng(12)
    out = dropout(a, rate, drawn)
    keep = (ref_rng.random(a.values.shape, dtype=np.float32) >= rate) / (1.0 - rate)
    assert out.values.tobytes() == (a.values * keep).tobytes()
    assert drawn.bit_generator.state == ref_rng.bit_generator.state  # one draw, as before
    g = rng.standard_normal(a.values.shape)
    backward(tensor_sum(mul(out, Tensor(g))))
    assert a.grad.tobytes() == (g * keep).tobytes()


@pytest.mark.parametrize("shape", [(4, 32), (2, 5, 37)])
def test_layer_norm_matches_the_ndarray_mean_expressions(shape):
    rng = np.random.default_rng(13)
    a, gain, bias = rand_tensor(rng, shape), rand_tensor(rng, shape[-1:]), rand_tensor(rng, shape[-1:])
    out = layer_norm(a, gain, bias)
    g = rng.standard_normal(shape)
    backward(tensor_sum(mul(out, Tensor(g))))

    x, eps = a.values, 1e-5
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    assert out.values.tobytes() == (gain.values * xhat + bias.values).tobytes()
    dxhat = g * gain.values
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    assert a.grad.tobytes() == ((dxhat - m1 - xhat * m2) * inv_std).tobytes()
    ggain, gbias = g * xhat, g
    while ggain.ndim > 1:  # summed down one leading axis at a time, as broadcasting is undone
        ggain, gbias = ggain.sum(axis=0), gbias.sum(axis=0)
    assert gain.grad.tobytes() == ggain.tobytes() and bias.grad.tobytes() == gbias.tobytes()


def _attention_masks(rng, bsz, t_q, t_k):
    """No mask, a key-padding mask over (B, 1, 1, Tk) and a causal mask over the
    last Tq of Tk positions, as the decoder's cached steps lay it out."""
    padding = np.where(rng.random((bsz, 1, 1, t_k)) < 0.3, -1e30, 0.0)
    padding[..., 0] = 0.0  # every row keeps a key
    causal = np.where(np.tri(t_q, t_k, t_k - t_q, dtype=bool), 0.0, -1e30)[None, None]
    return {"none": None, "key_padding": padding, "causal": causal}


# (B, Tq, Tk): one of each encoder, decoder-training and cached-decoding step of the grid
ATTENTION_SHAPES = [(130, 48, 48), (65, 64, 64), (16, 21, 21), (130, 1, 48), (65, 1, 3)]


@pytest.mark.parametrize("mask_kind", ["none", "key_padding", "causal"])
def test_attention_core_matches_the_out_of_place_expressions(mask_kind):
    # 1/sqrt(6) rounds, so the order of the scalings shows
    _check_attention(np.random.default_rng(15), 3, 4, 6, 2, 12, mask_kind)
    for i, (bsz, t_q, t_k) in enumerate(ATTENTION_SHAPES):
        _check_attention(np.random.default_rng(16 + i), bsz, t_q, t_k, 2, 32, mask_kind)
    # K and V as a cache keeps them after rows leave: prefix views of larger buffers
    _check_attention(np.random.default_rng(21), 65, 1, 48, 2, 32, mask_kind, kept_rows=True)


def _check_attention(rng, bsz, t_q, t_k, heads, dim, mask_kind, kept_rows=False):
    q, k, v = (rand_tensor(rng, shape) for shape in ((bsz, t_q, dim), (bsz, t_k, dim), (bsz, t_k, dim)))
    if kept_rows:
        going = np.ones(bsz + 7, dtype=bool)
        going[rng.choice(bsz + 7, size=7, replace=False)] = False
        cache = DecodeCache(kv={"x": tuple(rand_tensor(rng, (bsz + 7, t_k, dim)) for _ in "kv")})
        cache.keep_rows(going)
        k, v = (Tensor(t.values, requires_grad=True) for t in cache.kv["x"])
        assert k.values.base is not None and k.values.shape == (bsz, t_k, dim)
    mask = _attention_masks(rng, bsz, t_q, t_k)[mask_kind]
    out = attention_core(q, k, v, heads, mask)
    g = rng.standard_normal(out.values.shape)
    backward(tensor_sum(mul(out, Tensor(g))))

    dh = dim // heads
    inv = 1.0 / np.sqrt(dh)

    def split(x, t):
        return np.ascontiguousarray(x.reshape(bsz, t, heads, dh).transpose(0, 2, 1, 3))

    def merge(x, t):
        return x.transpose(0, 2, 1, 3).reshape(bsz, t, dim)

    qh, kh, vh = split(q.values, t_q), split(k.values, t_k), split(v.values, t_k)
    scores = qh @ kh.swapaxes(-1, -2) * inv
    if mask is not None:
        scores = scores + mask
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    w = e / e.sum(axis=-1, keepdims=True)
    assert out.values.tobytes() == merge(w @ vh, t_q).tobytes()
    gh = g.reshape(bsz, t_q, heads, dh).transpose(0, 2, 1, 3)
    dw = gh @ vh.swapaxes(-1, -2)
    ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * inv
    assert q.grad.tobytes() == merge(ds @ kh, t_q).tobytes()
    assert k.grad.tobytes() == merge(ds.swapaxes(-1, -2) @ qh, t_k).tobytes()
    assert v.grad.tobytes() == merge(w.swapaxes(-1, -2) @ gh, t_k).tobytes()


@pytest.mark.parametrize("masked", [False, True])
def test_attention_core_skips_the_gradient_of_a_key_that_needs_none(masked):
    rng = np.random.default_rng(14)
    q, k, v = (rng.standard_normal(shape) for shape in ((2, 3, 8), (2, 5, 8), (2, 5, 8)))
    mask = np.where(rng.random((2, 1, 1, 5)) < 0.3, -1e30, 0.0) if masked else None
    every = attention_core(Tensor(q, True), Tensor(k, True), Tensor(v, True), 2, mask)
    no_key = attention_core(Tensor(q, True), Tensor(k), Tensor(v, True), 2, mask)
    assert no_key.values.tobytes() == every.values.tobytes()
    g = rng.standard_normal(every.values.shape)
    dq, dk, dv = every._backward(g)
    dq_without, dk_without, dv_without = no_key._backward(g)
    assert dk is not None and dk_without is None
    assert dq_without.tobytes() == dq.tobytes() and dv_without.tobytes() == dv.tobytes()


# ---------------------------------------------------------------------------
# fused nodes against the primitive ops they replace, bit for bit
# ---------------------------------------------------------------------------


def _grads_through(build, arrays, needs):
    """The output of `build(*leaves)` and the gradient of every leaf that needs
    one after a backward of sum(out * g), for leaves made fresh from `arrays`."""
    leaves = [Tensor(a.copy(), requires_grad=bool(n)) for a, n in zip(arrays, needs)]
    out = build(*leaves)
    g = np.random.default_rng(30).standard_normal(out.values.shape)
    backward(tensor_sum(mul(out, Tensor(g))))
    return [out.values.tobytes()] + [t.grad.tobytes() for t in leaves if t.requires_grad]


@pytest.mark.parametrize("rate", [0.0, 0.25])
@pytest.mark.parametrize("x_grad", [True, False])
@pytest.mark.parametrize("base_grad", [True, False])
@pytest.mark.parametrize("c", [1.0, 0.7])
def test_lora_linear_matches_its_composition(rate, x_grad, base_grad, c):
    # x feeds two adapted projections and a plain one, as an attention's input does,
    # so the order in which its gradient's parts are added shows too
    rng = np.random.default_rng(31)
    h, r = 8, 2
    arrays = [rng.standard_normal((2, 5, h))]
    for _ in range(2):
        arrays += [rng.standard_normal((h, h)), rng.standard_normal(h),
                   rng.standard_normal((r, h)), rng.standard_normal((h, r))]
    needs = [x_grad] + [base_grad, base_grad, True, True] * 2

    def branch(x, drop):
        return dropout(x, rate, drop) if rate else x

    def fused(x, *p):
        drop = np.random.default_rng(32)
        q = lora_linear(x, branch(x, drop), p[0], p[1], p[2], p[3], c)
        v = lora_linear(x, branch(x, drop), p[4], p[5], p[6], p[7], c)
        return add(add(q, linear(x, p[0], p[1])), v)

    def composed(x, *p):
        drop = np.random.default_rng(32)

        def proj(w, b, a, b_lora):
            return add(linear(x, w, b), scale(linear(linear(branch(x, drop), a), b_lora), c))

        return add(add(proj(*p[:4]), linear(x, p[0], p[1])), proj(*p[4:]))

    assert _grads_through(fused, arrays, needs) == _grads_through(composed, arrays, needs)


# which of x, w1, b1, w2 and b2 need a gradient
MLP_NEEDS = {"all": (1, 1, 1, 1, 1), "x_only": (1, 0, 0, 0, 0), "weights_only": (0, 1, 1, 1, 1),
             "first_layer_only": (0, 1, 1, 0, 0), "second_layer_only": (0, 0, 0, 1, 1)}


@pytest.mark.parametrize("needs", MLP_NEEDS.values(), ids=MLP_NEEDS.keys())
def test_mlp_matches_its_composition(needs):
    rng = np.random.default_rng(33)
    h = 6
    shapes = ((2, 5, h), (4 * h, h), (4 * h,), (h, 4 * h), (h,))
    x, w1, b1, w2, b2 = arrays = [rng.standard_normal(shape) for shape in shapes]
    w1[3], b1[3] = 0.0, 0.0  # hidden unit 3 is exactly 0 everywhere
    assert not (x @ w1.T + b1)[..., 3].any()

    def composed(x, w1, b1, w2, b2):
        return linear(relu(linear(x, w1, b1)), w2, b2)

    assert _grads_through(mlp, arrays, needs) == _grads_through(composed, arrays, needs)


def test_dropout_zero_rate_is_identity():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    assert dropout(a, 0.0, np.random.default_rng(0)) is a


def test_forward_and_backward_stay_finite():
    rng = np.random.default_rng(7)
    for _ in range(N_RANDOM):
        x = rand_tensor(rng, (4, 6))
        w = rand_tensor(rng, (6, 6))
        g = Tensor(np.ones(6), requires_grad=True)
        b = Tensor(np.zeros(6), requires_grad=True)
        h = layer_norm(matmul(x, w), g, b)
        loss = cross_entropy(h, rng.integers(0, 6, size=4), ignore_index=-1)
        backward(loss)
        for leaf in (x, w, g, b):
            assert np.all(np.isfinite(leaf.grad))
        assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# graph recording
# ---------------------------------------------------------------------------


def _is_unrecorded(t: Tensor) -> bool:
    return not t.requires_grad and t._parents == () and t._backward is None


def test_op_on_inputs_needing_no_gradient_keeps_no_graph():
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, (3, 4), requires_grad=False)
    w = rand_tensor(rng, (4, 4), requires_grad=False)
    out = relu(linear(x, w))
    assert _is_unrecorded(out)

    # one input needing a gradient is enough to record the node
    w.requires_grad = True
    recorded = linear(x, w)
    assert recorded.requires_grad
    assert recorded._parents == (x, w) and recorded._backward is not None


def test_no_grad_records_nothing_even_for_requires_grad_leaves():
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, (3, 4))
    w = rand_tensor(rng, (4, 4))
    with no_grad():
        out = mul(linear(x, w), x)
    assert _is_unrecorded(out)
    assert x.requires_grad and w.requires_grad
    # recording is back after the block, and the values never depended on it
    again = mul(linear(x, w), x)
    assert again.requires_grad and again._backward is not None
    assert np.array_equal(again.values, out.values)


def test_no_grad_restores_the_previous_state_when_the_block_raises():
    rng = np.random.default_rng(10)
    w = rand_tensor(rng, (4, 4))
    with pytest.raises(RuntimeError, match="inside"):
        with no_grad():
            raise RuntimeError("inside")
    assert scale(w, 2.0).requires_grad

    with no_grad():
        with pytest.raises(RuntimeError, match="nested"):
            with no_grad():
                raise RuntimeError("nested")
        # the inner block restored the outer block's state, not recording
        assert _is_unrecorded(scale(w, 2.0))
    assert scale(w, 2.0).requires_grad
