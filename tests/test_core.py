import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segloss import (
    LossConfig,
    LossResult,
    ValidationError,
    one_hot,
    softmax,
    softmax_vjp,
    validate_labels,
    validate_prob,
)


class TestValidateLabels:
    def test_accepts_valid(self):
        out = validate_labels(np.array([[0, 1], [2, 0]]), 3)
        assert out.dtype.kind == "i" or out.dtype.kind == "u"

    def test_rejects_float_dtype(self):
        with pytest.raises(ValidationError, match="integer"):
            validate_labels(np.array([0.0, 1.0]), 2)

    def test_rejects_rank_0_and_4(self):
        with pytest.raises(ValidationError, match="rank"):
            validate_labels(np.array(1), 2)
        with pytest.raises(ValidationError, match="rank"):
            validate_labels(np.zeros((2, 2, 2, 2), dtype=int), 2)

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            validate_labels(np.zeros((0,), dtype=int), 2)

    def test_rejects_out_of_range_and_names_index(self):
        with pytest.raises(ValidationError, match=r"\(2,\)|index"):
            validate_labels(np.array([0, 1, 5]), 2)
        with pytest.raises(ValidationError):
            validate_labels(np.array([0, -1]), 2)

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            validate_labels(np.array([0, 0]), 1)


class TestOneHot:
    def test_basic(self):
        g = one_hot(np.array([1, 0, 2]), 3)
        assert g.shape == (3, 3)
        assert g.dtype == np.float64
        np.testing.assert_array_equal(g.argmax(-1), [1, 0, 2])
        np.testing.assert_array_equal(g.sum(-1), 1.0)

    @given(
        st.lists(st.integers(0, 3), min_size=1, max_size=30),
        st.integers(4, 6),
    )
    def test_round_trips_labels(self, labels, num_classes):
        labels = np.asarray(labels)
        g = one_hot(labels, num_classes)
        np.testing.assert_array_equal(g.argmax(-1), labels)
        assert set(np.unique(g)) <= {0.0, 1.0}


class TestValidateProb:
    def test_accepts_valid(self, f1):
        _, s = f1
        out = validate_prob(s)
        assert out.dtype == np.float64

    def test_rejects_rank_1(self):
        with pytest.raises(ValidationError):
            validate_prob(np.array([0.5, 0.5]))

    def test_rejects_single_class(self):
        with pytest.raises(ValidationError):
            validate_prob(np.ones((4, 1)))

    def test_rejects_negative_and_above_one(self):
        s = np.array([[1.2, -0.2]])
        with pytest.raises(ValidationError):
            validate_prob(s)

    def test_rejects_nan(self):
        s = np.array([[np.nan, 1.0]])
        with pytest.raises(ValidationError):
            validate_prob(s)

    def test_rejects_bad_row_sum_and_names_pixel(self):
        s = np.array([[0.5, 0.5], [0.4, 0.3]])
        with pytest.raises(ValidationError, match=r"\(1,\)|pixel"):
            validate_prob(s)

    def test_tolerance_is_configurable(self):
        s = np.array([[0.5, 0.5 + 5e-7]])
        with pytest.raises(ValidationError):
            validate_prob(s, tol=1e-9)
        validate_prob(s, tol=1e-6)


class TestSoftmax:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30)
    def test_output_is_on_simplex(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(scale=10.0, size=(5, 3))
        s = softmax(z)
        validate_prob(s)

    def test_shift_invariance(self):
        z = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(softmax(z), softmax(z + 100.0), atol=1e-15)

    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            softmax(np.array([[np.inf, 0.0]]))

    def test_rejects_a_missing_or_empty_class_axis(self):
        for shape in [(3,), (3, 0), (2, 2, 0)]:
            with pytest.raises(ValidationError, match="class axis"):
                softmax(np.zeros(shape))

    def test_one_class_gives_ones(self):
        s = softmax(np.random.default_rng(0).standard_normal((4, 3, 1)) * 100.0)
        np.testing.assert_array_equal(s, np.ones((4, 3, 1)))

    def test_vjp_matches_directional_derivative(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(6, 3))
        grad_s = rng.normal(size=(6, 3))
        dz = rng.normal(size=(6, 3))
        s = softmax(z)
        pullback = softmax_vjp(s, grad_s)
        h = 1e-7
        jvp = ((softmax(z + h * dz) - softmax(z - h * dz)) / (2 * h) * grad_s).sum()
        np.testing.assert_allclose((pullback * dz).sum(), jvp, rtol=1e-6)


class TestLossResult:
    def test_rejects_non_finite_value(self):
        with pytest.raises(ValidationError):
            LossResult(np.nan, np.zeros((2, 2)))

    def test_rejects_non_finite_grad(self):
        grad = np.zeros((2, 2))
        grad[0, 0] = np.inf
        with pytest.raises(ValidationError):
            LossResult(0.0, grad)

    def test_flags_default_empty(self):
        res = LossResult(0.0, np.zeros((2, 2)))
        assert res.flags == ()


class TestLossConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"log_clamp": 2.0},
            {"log_clamp": 1.0},
            {"log_clamp": 0.0},
            {"log_clamp": float("nan")},
            {"epsilon": float("inf")},
            {"epsilon": float("nan")},
            {"epsilon": -1e-6},
            {"epsilon": True},
            {"epsilon": "1e-6"},
            {"include_background": "no"},
            {"include_background": 1},
            {"include_background": None},
        ],
    )
    def test_rejects_out_of_bounds(self, kwargs):
        with pytest.raises(ValidationError, match=f"{next(iter(kwargs))} must be"):
            LossConfig(**kwargs)

    def test_any_real_number_is_stored_as_a_float(self):
        cfg = LossConfig(epsilon=1, log_clamp=np.float32(0.5))
        assert type(cfg.epsilon) is float and cfg.epsilon == 1.0
        assert type(cfg.log_clamp) is float and cfg.log_clamp == 0.5


def test_every_public_name_resolves():
    import segloss

    assert len(segloss.__all__) == len(set(segloss.__all__)) == 66
    missing = [name for name in segloss.__all__ if not hasattr(segloss, name)]
    assert missing == []
