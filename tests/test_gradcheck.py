import sys

import numpy as np
import pytest

from segloss import (
    LossConfig,
    LossResult,
    ValidationError,
    finite_diff_grad,
    gradcheck,
    loss_entry,
    loss_names,
    one_hot,
    prepare_frozen,
    run_suite,
)
from segloss.gradcheck import (
    PROBE_STACK_VALUES,
    compare_grads,
    finite_diff,
    random_instance,
    random_params,
    stacked_finite_diff,
)

from conftest import random_simplex


class TestFiniteDiff:
    def test_matches_known_quadratic(self):
        def quad(s):
            return LossResult(float((s**2).sum()), 2.0 * s)

        s = random_simplex(np.random.default_rng(0), (2,), 2)
        numeric = finite_diff(quad, s, h=1e-6)
        np.testing.assert_allclose(numeric, 2.0 * s, atol=1e-9)

    def test_rejects_nonpositive_step(self, f1):
        g, s = f1
        with pytest.raises(ValidationError):
            finite_diff(lambda x: LossResult(0.0, np.zeros_like(x)), s, h=0.0)

    def test_rejects_entries_too_close_to_the_edge(self):
        s = np.array([[1.0, 0.0]])
        with pytest.raises(ValidationError, match="probe"):
            finite_diff(lambda x: LossResult(0.0, np.zeros_like(x)), s, h=1e-6)
        with pytest.raises(ValidationError, match="probe"):
            stacked_finite_diff(lambda x: LossResult(np.zeros(len(x)), np.zeros_like(x)), s)

    @pytest.mark.parametrize("h", [np.nan, np.inf, -np.inf, -1e-6])
    def test_rejects_a_step_that_is_not_finite_and_positive(self, f1, h):
        g, s = f1
        zero = lambda x: LossResult(0.0, np.zeros_like(x))  # noqa: E731
        for diff in (finite_diff, stacked_finite_diff):
            with pytest.raises(ValidationError, match="step h"):
                diff(zero, s, h=h)
        with pytest.raises(ValidationError, match="step h"):
            gradcheck("dice", g, s, h=h)


def _stack_instance(rng, name, shape, background=True):
    """A ground truth covering every class and an interior prediction."""
    num_classes = shape[-1]
    labels = rng.integers(0, num_classes, size=shape[:-1])
    labels.flat[:num_classes] = np.arange(num_classes)
    cfg = LossConfig(include_background=background)
    g = one_hot(labels, num_classes)
    s = random_simplex(rng, shape[:-1], num_classes)
    return g, s, cfg, random_params(rng, name, num_classes)


class TestStackedFiniteDiff:
    """The stacked probes give the same floats as the one-at-a-time loop."""

    @pytest.mark.parametrize("name", loss_names())
    @pytest.mark.parametrize("background", [True, False])
    def test_matches_the_loop_on_every_loss(self, name, background):
        rng = np.random.default_rng(sorted(loss_names()).index(name))
        grid = loss_entry(name).family == "boundary" or name == "dpce"
        num_classes = 2 if loss_entry(name).binary_only else 3
        shape = ((4, 5) if grid else (9,)) + (num_classes,)
        g, s, cfg, params = _stack_instance(rng, name, shape, background)
        f = prepare_frozen(name, g, s, cfg, params)
        assert np.array_equal(stacked_finite_diff(f, s), finite_diff(f, s))
        assert np.array_equal(finite_diff_grad(name, g, s, cfg=cfg, params=params),
                              finite_diff(f, s))

    @pytest.mark.parametrize(
        "name, shape, stacks",
        [
            ("ell", (64, 4), [128, 128, 128, 128]),  # 256 values: four full stacks
            ("dice", (85, 3), [128, 128, 128, 126]),  # 255 values: a ragged last stack
            ("hd", (8, 8, 4), [128, 128, 128, 128]),
            ("topk", (51, 5), [128, 128, 128, 126]),
        ],
    )
    def test_probes_span_several_stacks(self, name, shape, stacks):
        rng = np.random.default_rng(5)
        g, s, cfg, params = _stack_instance(rng, name, shape, background=name != "ell")
        f = prepare_frozen(name, g, s, cfg, params)
        sizes = []

        def counted(x):
            sizes.append(x.shape[0] if x.ndim > s.ndim else None)
            return f(x)

        numeric = stacked_finite_diff(counted, s)
        assert sizes == stacks
        assert s.size * max(stacks) <= PROBE_STACK_VALUES
        assert np.array_equal(numeric, finite_diff(f, s))

    def test_a_prediction_larger_than_a_stack_is_probed_one_at_a_time(self, monkeypatch):
        rng = np.random.default_rng(2)
        g, s, cfg, params = _stack_instance(rng, "ce", (6, 2))
        # the package's ``gradcheck`` attribute is the function, not the module
        monkeypatch.setattr(sys.modules["segloss.gradcheck"], "PROBE_STACK_VALUES", 5)
        f = prepare_frozen("ce", g, s, cfg, params)
        sizes = []

        def counted(x):
            sizes.append(x.shape[0])
            return f(x)

        assert np.array_equal(stacked_finite_diff(counted, s), finite_diff(f, s))
        assert sizes == [1] * 24


class TestGradcheckHarness:
    def test_detects_a_planted_gradient_fault(self, f1):
        g, s = f1
        clean = prepare_frozen("dice", g, s)

        def corrupted(x):
            res = clean(x)
            grad = res.grad.copy()
            grad[2, 1] += 0.5  # plant a fault at pixel 2, class 1
            return LossResult(res.value, grad, res.flags)

        report = gradcheck(corrupted, g, s)
        assert not report.passed
        assert report.worst_index == (2, 1)

    def test_clean_loss_passes(self, f1):
        g, s = f1
        assert gradcheck("dice", g, s).passed

    def test_truncation_error_shrinks_quadratically(self, f1):
        g, s = f1
        # in the truncation-dominated regime halving h cuts the central
        # difference error by about 4x
        analytic = prepare_frozen("focal", g, s)(s).grad
        err = {}
        for h in (1e-3, 5e-4):
            numeric = finite_diff_grad("focal", g, s, h=h)
            err[h] = np.abs(numeric - analytic).max()
        ratio = err[1e-3] / err[5e-4]
        assert 3.0 < ratio < 5.0

    def test_linear_loss_is_exact_to_roundoff(self):
        g = one_hot(np.array([[0, 1], [1, 0]]), 2)
        s = random_simplex(np.random.default_rng(1), (2, 2), 2)
        report = gradcheck("boundary", g, s)
        assert report.max_abs_err <= 1e-8

    def test_compare_grads_floors_small_denominators(self):
        a = np.array([[0.0, 1e-9]])
        b = np.array([[0.0, 0.0]])
        rel, abs_err, _ = compare_grads(a, b)
        assert abs_err == pytest.approx(1e-9)
        assert rel == pytest.approx(1e-6)  # floored at 1e-3


class TestRunSuite:
    def test_subset_passes(self):
        reports = run_suite(names=["ce", "iou", "tversky", "hd", "ell"], trials=6, seed=3)
        assert [r.loss_name for r in reports] == ["ce", "iou", "tversky", "hd", "ell"]
        for rep in reports:
            assert rep.passed, (rep.loss_name, rep.max_rel_err, rep.worst_index)

    def test_reports_carry_tolerance(self):
        (rep,) = run_suite(names=["ce"], trials=2, tol=1e-4)
        assert rep.tolerance == 1e-4
        assert rep.passed == (rep.max_rel_err <= rep.tolerance)

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_a_suite_that_checks_nothing(self, trials):
        with pytest.raises(ValidationError, match="trials"):
            run_suite(names=["ce"], trials=trials)

    @pytest.mark.parametrize(
        "kwargs, match",
        [({"tol": np.nan}, "tolerance"), ({"tol": np.inf}, "tolerance"),
         ({"tol": -1e-5}, "tolerance"), ({"h": np.nan}, "step h"), ({"h": np.inf}, "step h")],
    )
    def test_rejects_a_step_or_tolerance_that_is_not_finite(self, kwargs, match):
        with pytest.raises(ValidationError, match=match):
            run_suite(names=["ce"], trials=1, **kwargs)


class TestRandomInstance:
    def test_every_class_present(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            g, s = random_instance(rng)
            assert g.shape == s.shape
            assert (g.sum(axis=0) > 0).all()
            np.testing.assert_allclose(s.sum(-1), 1.0, atol=1e-12)

    def test_binary_and_grid_modes(self):
        rng = np.random.default_rng(1)
        g, s = random_instance(rng, binary=True)
        assert g.shape[-1] == 2
        g, s = random_instance(rng, grid=True)
        assert g.ndim == 3  # two spatial axes plus classes
