"""Loss kernels on a stack of predictions, shape (K,) + g.shape: each entry
of the result is bit-identical to the kernel run on that prediction alone."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from segloss import (
    DegenerateInputError,
    LossConfig,
    LossResult,
    ValidationError,
    focal_tversky_loss,
    hd_loss,
    loss_entry,
    loss_names,
    one_hot,
    prepare,
    prepare_frozen,
    topk,
    tversky_index,
)
from segloss.boundary import foreground_boundary_distances
from segloss.core import check_pair
from segloss.gradcheck import random_instance, random_params

from conftest import random_simplex


def instance(rng, name, ndim):
    """A one-hot ground truth with every class present, and an interior
    prediction, on a random grid of rank ``ndim``."""
    num_classes = 2 if loss_entry(name).binary_only else int(rng.integers(2, 5))
    shape = tuple(int(n) for n in rng.integers(num_classes, 6, size=ndim))
    labels = rng.integers(0, num_classes, size=shape)
    labels.flat[:num_classes] = np.arange(num_classes)
    return one_hot(labels, num_classes), random_simplex(rng, shape, num_classes)


@pytest.mark.parametrize("name", loss_names())
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 6), st.booleans())
@settings(max_examples=15, deadline=None)
def test_stack_matches_single_calls(name, seed, ndim, k, background):
    rng = np.random.default_rng(seed)
    g, s = instance(rng, name, ndim)
    cfg = LossConfig(include_background=background)
    f = prepare_frozen(name, g, s, cfg, random_params(rng, name, g.shape[-1]))
    stack = np.clip(s + rng.uniform(-0.02, 0.02, size=(k,) + s.shape), 1e-3, 1.0)
    stack[0] = s
    got = f(stack)
    assert got.value.shape == (k,)
    assert got.grad.shape == stack.shape
    singles = [f(x) for x in stack]
    assert all(isinstance(r.value, float) for r in singles)
    assert np.array_equal(got.value, [r.value for r in singles])
    assert np.array_equal(got.grad, np.stack([r.grad for r in singles]))
    assert got.flags == singles[0].flags


@pytest.mark.parametrize("gamma", [1.0, 2.0])
def test_focal_tversky_perfect_and_imperfect_in_one_stack(f1, gamma):
    g, s = f1
    stack = np.stack([g, s, g])
    got = focal_tversky_loss(g, stack, gamma=gamma)
    singles = [focal_tversky_loss(g, x, gamma=gamma) for x in stack]
    assert got.value[0] == 0.0 and got.value[1] > 0.0
    assert np.array_equal(got.value, [r.value for r in singles])
    assert np.array_equal(got.grad, np.stack([r.grad for r in singles]))
    assert (got.grad[0] != 0.0).any() == (gamma == 1.0)


def test_focal_tversky_takes_pythons_pow_on_single_and_stacked_calls():
    # numpy's vectorized power differs from Python's in the last bit on
    # some of these bases (about 1 in 15 on an AVX-512 machine)
    rng = np.random.default_rng(0)
    for _ in range(60):
        g, s = random_instance(rng)
        gamma = float(rng.uniform(1.0, 3.0))
        want = (1.0 - tversky_index(g, s).value) ** (1.0 / gamma)
        assert focal_tversky_loss(g, s, gamma=gamma).value == want
        assert focal_tversky_loss(g, np.stack([s, s]), gamma=gamma).value.tolist() == [want] * 2


def test_single_prediction_still_gives_a_float(f1):
    g, s = f1
    for name in loss_names():
        assert type(prepare(name, g)(s).value) is float, name


class TestUnpinnedSelection:
    def test_topk_stack_needs_a_keep_set(self, f1):
        g, s = f1
        with pytest.raises(ValidationError, match="keep"):
            topk(g, np.stack([s, s]))
        with pytest.raises(ValidationError, match="keep"):
            prepare("topk", g)(np.stack([s, s]))

    def test_hd_stack_needs_pinned_prediction_maps(self, f1):
        g, s = f1
        with pytest.raises(ValidationError, match="pred_dist"):
            hd_loss(g, np.stack([s, s]))
        with pytest.raises(ValidationError, match="pred_dist"):
            prepare("hd", g)(np.stack([s, s]))

    def test_pinned_selection_takes_a_stack(self, f1):
        g, s = f1
        keep = np.array([True, False, True, True])
        assert topk(g, np.stack([s, s]), keep=keep).value.shape == (2,)
        pinned = foreground_boundary_distances(s)
        assert hd_loss(g, np.stack([s, s]), pred_dist=pinned).value.shape == (2,)


def test_hd_stack_raises_where_one_prediction_would():
    # class 2 is absent from the ground truth; the first prediction marks it
    # at pixel 0, the second nowhere, which a single call rejects
    g = one_hot(np.array([0, 1, 1, 0]), 3)
    s = np.full((4, 3), 0.2)
    s[:, 0] = 0.6
    s[0] = [0.2, 0.2, 0.6]
    f = prepare_frozen("hd", g, s)
    f(s)
    with pytest.raises(DegenerateInputError, match="class 2"):
        f(g * 0.6 + 0.2)
    with pytest.raises(DegenerateInputError, match="class 2"):
        f(np.stack([s, g * 0.6 + 0.2]))
    assert f(np.stack([s, s])).value.shape == (2,)


class TestMalformedStacks:
    @pytest.mark.parametrize(
        "shape",
        [(2, 3, 4, 2), (3, 5, 2), (3, 4, 3), (0, 4, 2), (2,), (8,)],
        ids=["two-stack-axes", "wrong-grid", "wrong-classes", "empty", "rank-1", "flat"],
    )
    def test_every_loss_rejects(self, f1, shape):
        g, s = f1
        bad = np.full(shape, 0.5)
        with pytest.raises(ValidationError):
            check_pair(g, bad)
        for name in loss_names():
            f = prepare_frozen(name, g, s)
            with pytest.raises(ValidationError):
                f(bad)

    def test_non_finite_stack_entry_is_rejected(self):
        with pytest.raises(ValidationError, match="not finite"):
            LossResult(np.array([0.5, np.inf]), np.zeros((2, 4, 2)))
        with pytest.raises(ValidationError, match="gradient"):
            LossResult(np.array([0.5, 0.5]), np.array([[0.0], [np.nan]]))
