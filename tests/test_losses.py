import math

import numpy as np
import pytest

from fdcheck import assert_grads_match
from voxmix.losses import LossConfig, alt_loss, consistency_loss
from voxmix.numerics import Tensor, backward, cross_entropy
from voxmix.synthdata import PAD_ID


def test_loss_config_validation():
    LossConfig(strategy="cns", cns_kind="L1", weight=0.1)
    with pytest.raises(ValueError, match="strategy"):
        LossConfig(strategy="dual")
    with pytest.raises(ValueError, match="L1 or L2"):
        LossConfig(strategy="cns", cns_kind="l2")
    with pytest.raises(ValueError, match=">= 0"):
        LossConfig(strategy="cns", weight=-1.0)
    # the consistency settings of a strategy without the consistency term
    for strategy in ("voc", "mix", "random", "both"):
        LossConfig(strategy=strategy, cns_kind="L2", weight=1.0)
        with pytest.raises(ValueError, match=f"strategy '{strategy}' takes no weight: .* got weight=0.5"):
            LossConfig(strategy=strategy, weight=0.5)
        with pytest.raises(ValueError, match=f"strategy '{strategy}' takes no cns_kind: .* got cns_kind='L1'"):
            LossConfig(strategy=strategy, cns_kind="L1")


def test_alt_loss_uniform_logits():
    logits = Tensor(np.zeros((5, 4)))
    y = np.array([1, 2, 3, 1, 2])
    assert alt_loss(logits, y).item() == pytest.approx(math.log(4.0), abs=1e-12)


def test_alt_loss_all_pad_is_zero_with_zero_grad():
    logits = Tensor(np.random.default_rng(0).standard_normal((4, 6)), requires_grad=True)
    loss = alt_loss(logits, np.full(4, PAD_ID))
    assert loss.item() == 0.0
    backward(loss)
    assert logits.grad is None or np.all(logits.grad == 0.0)


def test_alt_loss_is_cross_entropy_with_pad_ignored():
    rng = np.random.default_rng(1)
    logits = Tensor(rng.standard_normal((6, 8)))
    y = np.array([3, 4, PAD_ID, 5, PAD_ID, 6])
    assert alt_loss(logits, y).item() == cross_entropy(logits, y, ignore_index=PAD_ID).item()


# ---------------------------------------------------------------------------
# consistency loss
# ---------------------------------------------------------------------------


def full_mask(e):
    return np.ones(e.values.shape[:-1], dtype=bool)


def test_consistency_zero_on_identical_inputs():
    rng = np.random.default_rng(2)
    e = rng.standard_normal((5, 3))
    for kind in ("L1", "L2"):
        loss = consistency_loss(Tensor(e), Tensor(e.copy()), kind, np.ones(5, dtype=bool))
        assert loss.item() == 0.0


def test_consistency_hand_values():
    e_v = Tensor(np.array([[1.0], [2.0]]))
    e_m = Tensor(np.array([[2.0], [4.0]]))
    mask = np.ones(2, dtype=bool)
    assert consistency_loss(e_v, e_m, "L1", mask).item() == pytest.approx(1.5, abs=1e-15)
    assert consistency_loss(e_v, e_m, "L2", mask).item() == pytest.approx(2.5, abs=1e-15)


def test_consistency_symmetric():
    rng = np.random.default_rng(3)
    a = Tensor(rng.standard_normal((4, 6)))
    b = Tensor(rng.standard_normal((4, 6)))
    mask = rng.random(4) < 0.8
    mask[0] = True
    for kind in ("L1", "L2"):
        ab = consistency_loss(a, b, kind, mask).item()
        ba = consistency_loss(b, a, kind, mask).item()
        assert ab == pytest.approx(ba, abs=1e-15)


def test_consistency_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="disagree"):
        consistency_loss(Tensor(np.zeros((3, 2))), Tensor(np.zeros((4, 2))), "L1", np.ones(3, bool))


def test_consistency_empty_mask_is_zero_with_zero_grad():
    rng = np.random.default_rng(4)
    a = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    loss = consistency_loss(a, b, "L2", np.zeros(3, dtype=bool))
    assert loss.item() == 0.0
    backward(loss)
    assert a.grad is None and b.grad is None


def test_consistency_masked_frames_do_not_contribute():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((4, 3))
    mask = np.array([True, True, False, False])
    got = consistency_loss(Tensor(a), Tensor(b), "L2", mask).item()
    want = float(((a[:2] - b[:2]) ** 2).mean())
    assert got == pytest.approx(want, abs=1e-15)


def test_consistency_nonnegative_and_zero_iff_equal_on_mask():
    rng = np.random.default_rng(6)
    for _ in range(20):
        a = rng.standard_normal((5, 4))
        b = a.copy()
        mask = rng.random(5) < 0.7
        b[~mask] += rng.standard_normal((int((~mask).sum()), 4))  # differ only off-mask
        for kind in ("L1", "L2"):
            assert consistency_loss(Tensor(a), Tensor(b), kind, mask).item() == 0.0
            perturbed = b.copy()
            if mask.any():
                perturbed[mask] += 0.1
                val = consistency_loss(Tensor(a), Tensor(perturbed), kind, mask).item()
                assert val > 0.0


def test_consistency_scaling_property():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 5))
    b = rng.standard_normal((4, 5))
    mask = np.ones(4, dtype=bool)
    c = -2.5
    l1 = consistency_loss(Tensor(a), Tensor(b), "L1", mask).item()
    l2 = consistency_loss(Tensor(a), Tensor(b), "L2", mask).item()
    l1_scaled = consistency_loss(Tensor(c * a), Tensor(c * b), "L1", mask).item()
    l2_scaled = consistency_loss(Tensor(c * a), Tensor(c * b), "L2", mask).item()
    assert l1_scaled == pytest.approx(abs(c) * l1, rel=1e-12)
    assert l2_scaled == pytest.approx(c * c * l2, rel=1e-12)


def test_consistency_gradient_flows_into_both_inputs():
    rng = np.random.default_rng(8)
    a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    b = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
    mask = np.array([True, True, False])
    loss = consistency_loss(a, b, "L2", mask)
    backward(loss)
    assert np.any(a.grad != 0.0) and np.any(b.grad != 0.0)
    # analytic gradient: 2 (a - b) / count on valid frames, zero elsewhere
    count = 2 * 4
    expected = np.zeros_like(a.values)
    expected[:2] = 2.0 * (a.values[:2] - b.values[:2]) / count
    assert np.allclose(a.grad, expected, atol=1e-12)
    assert np.allclose(b.grad, -expected, atol=1e-12)


@pytest.mark.parametrize("kind", ["L1", "L2"])
def test_consistency_matches_finite_differences(kind):
    rng = np.random.default_rng(9)
    for _ in range(10):
        a = Tensor(rng.standard_normal((4, 3)) + 2.0, requires_grad=True)
        b = Tensor(rng.standard_normal((4, 3)) - 2.0, requires_grad=True)
        mask = rng.random(4) < 0.75
        mask[0] = True
        assert_grads_match(lambda: consistency_loss(a, b, kind, mask), [a, b])
