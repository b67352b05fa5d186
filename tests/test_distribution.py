import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segloss import (
    LossConfig,
    ValidationError,
    boundary_penalty_map,
    ce,
    dpce,
    focal,
    one_hot,
    prepare_frozen,
    topk,
    wce,
)
from segloss.distribution import topk_keep_set

from conftest import random_simplex


class TestCrossEntropy:
    def test_reference_value(self, f1):
        g, s = f1
        assert ce(g, s).value == 0.22708064055624455

    def test_matches_manual_mean_log(self, f1):
        g, s = f1
        true_probs = np.array([0.8, 0.8, 0.7, 0.9])
        assert ce(g, s).value == pytest.approx(-np.log(true_probs).mean(), abs=1e-15)

    def test_grad_nonzero_only_on_true_class(self, f1):
        g, s = f1
        grad = ce(g, s).grad
        assert (grad[g == 0.0] == 0.0).all()
        assert (grad[g == 1.0] < 0.0).all()

    def test_log_clamp_keeps_zero_probs_finite(self):
        g = one_hot(np.array([0, 1]), 2)
        s = np.array([[0.0, 1.0], [1.0, 0.0]])  # exactly wrong
        res = ce(g, s)
        assert np.isfinite(res.value)

    def test_background_can_be_excluded(self, f1):
        g, s = f1
        cfg = LossConfig(include_background=False)
        # only the two foreground pixels contribute, still divided by N
        want = -(np.log(0.8) + np.log(0.9)) / 4.0
        assert ce(g, s, cfg).value == pytest.approx(want, abs=1e-15)


class TestWeightedCrossEntropy:
    def test_reference_value(self, f1):
        g, s = f1
        w = np.array([0.75, 0.25])
        assert wce(g, s, w).value == 0.12924747204567891

    def test_unit_weights_reduce_to_ce(self, f1):
        g, s = f1
        assert wce(g, s, np.ones(2)).value == ce(g, s).value
        assert wce(g, s).value == ce(g, s).value  # the default weights

    def test_linear_in_weights(self, f1):
        g, s = f1
        w = np.array([0.6, 1.4])
        assert wce(g, s, 2.0 * w).value == pytest.approx(2.0 * wce(g, s, w).value, rel=1e-15)

    def test_rejects_bad_weights(self, f1):
        g, s = f1
        with pytest.raises(ValidationError):
            wce(g, s, np.array([1.0]))  # wrong length
        with pytest.raises(ValidationError):
            wce(g, s, np.array([-1.0, 1.0]))  # negative
        with pytest.raises(ValidationError):
            wce(g, s, np.zeros(2))  # nothing positive


class TestTopK:
    def test_reference_value(self, f1):
        g, s = f1
        assert topk(g, s, t=0.85).value == 0.26765401552238394

    def test_keeps_only_hard_pixels(self, f1):
        g, s = f1
        # true-class probs are [.8,.8,.7,.9]; t=0.85 keeps the first three
        keep = topk_keep_set(g, s, 0.85)
        np.testing.assert_array_equal(keep, [True, True, True, False])

    def test_empty_keep_set_is_flagged_zero(self, f1):
        g, s = f1
        res = topk(g, s, 0.5)  # every pixel is confident enough
        assert res.value == 0.0
        assert (res.grad == 0.0).all()
        assert "empty-keep-set" in res.flags

    def test_threshold_one_reduces_to_ce(self, f1):
        g, s = f1
        assert topk(g, s, 1.0).value == pytest.approx(ce(g, s).value, abs=1e-15)

    def test_rejects_bad_threshold(self, f1):
        g, s = f1
        for t in (0.0, -0.2, 1.5):
            with pytest.raises(ValidationError):
                topk(g, s, t)

    def test_frozen_evaluator_pins_selection(self, f1):
        g, s = f1
        frozen = prepare_frozen("topk", g, s, params={"t": 0.85})
        # nudge the easiest kept pixel above the threshold: a fresh
        # evaluation would drop it, the frozen one must not
        s2 = s.copy()
        s2[0] = [0.1, 0.9]
        live = topk(g, s2, 0.85)
        pinned = frozen(s2)
        assert pinned.value != pytest.approx(live.value)


class TestFocal:
    def test_reference_value(self, f1):
        g, s = f1
        assert focal(g, s, 2.0).value == 0.01275145855405024

    def test_gamma_zero_is_ce(self, f1):
        g, s = f1
        res = focal(g, s, 0.0)
        ref = ce(g, s)
        assert res.value == pytest.approx(ref.value, abs=1e-15)
        np.testing.assert_allclose(res.grad, ref.grad, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.floats(0.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_never_exceeds_ce(self, seed, gamma):
        rng = np.random.default_rng(seed)
        num_classes = int(rng.integers(2, 5))
        n = int(rng.integers(num_classes, 32))
        labels = rng.integers(0, num_classes, size=n)
        g = one_hot(labels, num_classes)
        s = random_simplex(rng, (n,), num_classes)
        assert focal(g, s, gamma).value <= ce(g, s).value + 1e-12

    def test_confident_pixels_are_downweighted(self, f1):
        g, s = f1
        assert focal(g, s, 2.0).value < focal(g, s, 1.0).value < ce(g, s).value

    def test_rejects_negative_gamma(self, f1):
        g, s = f1
        with pytest.raises(ValidationError):
            focal(g, s, -0.5)


class TestDistancePenalizedCE:
    def test_reference_value(self):
        g = one_hot(np.array([0, 0, 1, 1, 0]), 2)
        s = np.full_like(g, 0.5)
        pen = boundary_penalty_map(g)
        res = dpce(g, s, pen)
        assert res.value == 0.97040605278392333
        assert res.value == pytest.approx(1.4 * np.log(2.0), abs=1e-15)

    def test_zero_penalty_reduces_to_ce(self, f1):
        g, s = f1
        res = dpce(g, s, np.zeros_like(g))
        ref = ce(g, s)
        assert res.value == ref.value
        np.testing.assert_array_equal(res.grad, ref.grad)

    def test_penalty_raises_loss_near_boundary(self):
        g = one_hot(np.array([0, 0, 1, 1, 0]), 2)
        s = np.full_like(g, 0.5)
        pen = boundary_penalty_map(g)
        assert dpce(g, s, pen).value > ce(g, s).value

    def test_rejects_bad_penalty(self, f1):
        g, s = f1
        with pytest.raises(ValidationError):
            dpce(g, s, np.zeros((2, 2)))  # wrong shape
        with pytest.raises(ValidationError):
            dpce(g, s, -np.ones_like(g))  # negative
        bad = np.zeros_like(g)
        bad[0, 0] = np.nan
        with pytest.raises(ValidationError):
            dpce(g, s, bad)
