"""Reductions over the trailing class axis keep numpy's results bit for bit.

``core.over_classes`` folds class slices left to right in place of numpy's
reduce over a short trailing axis. These tests compare it, and the code
that calls it, against the numpy reductions it replaced: by bit pattern
where numpy defines the bits, and by value only for the sign of a zero
maximum, which numpy's own SIMD kernels do not agree on. At the end:
``prepare`` refuses a ground truth without a class axis up front.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from segloss import (
    ValidationError,
    hausdorff_exact,
    loss_names,
    one_hot,
    optimize,
    prepare,
    prepare_frozen,
    read_tensor,
    sentinel_value,
    softmax,
    softmax_vjp,
    validate_prob,
    write_tensor,
)
from segloss.boundary import dice_coefficient
from segloss.config import LossConfig
from segloss.core import over_classes
from segloss.distribution import topk_keep_set


def bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(bits(got), bits(want))


# -- the helper -------------------------------------------------------------

SIGNED_ZEROS = st.sampled_from([0.0, -0.0])
MIXED = st.one_of(
    SIGNED_ZEROS,
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
    st.floats(-1e-300, 1e-300, allow_nan=False),
    st.floats(-10.0, 10.0, allow_nan=False, allow_infinity=False),
)
WITH_INF = st.one_of(MIXED, st.sampled_from([np.inf, -np.inf]))
LAYOUTS = ("contiguous", "class-strided", "class-reversed", "class-major", "fortran")


@st.composite
def class_arrays(draw, elements):
    """``[K,] + dims + (C,)``: C in 1..12, spatial rank 0..3 (rank 1..3 plus
    a bare class row), an optional stack axis, in contiguous and strided
    layouts."""
    c = draw(st.integers(1, 12))
    dims = draw(hnp.array_shapes(min_dims=0, max_dims=3, min_side=1, max_side=4))
    stack = draw(st.sampled_from([(), (1,), (3,)]))
    shape = stack + dims + (c,)
    layout = draw(st.sampled_from(LAYOUTS))
    if layout == "class-strided":
        wide = draw(hnp.arrays(np.float64, shape[:-1] + (2 * c,), elements=elements))
        return wide[..., ::2]
    x = draw(hnp.arrays(np.float64, shape, elements=elements))
    if layout == "class-reversed":
        return x[..., ::-1]
    if layout == "class-major":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -1, 0)), 0, -1)
    if layout == "fortran":
        return np.asfortranarray(x)
    return x


@settings(max_examples=300, deadline=None)
@given(class_arrays(MIXED))
def test_sum_matches_numpy_bit_for_bit(x):
    assert_same_bits(over_classes(np.add, x), np.add.reduce(x, axis=-1, keepdims=True))


@settings(max_examples=300, deadline=None)
@given(class_arrays(WITH_INF))
def test_max_matches_numpy_up_to_the_sign_of_a_zero(x):
    got = over_classes(np.maximum, x)
    want = np.maximum.reduce(x, axis=-1, keepdims=True)
    np.testing.assert_array_equal(got, want)
    # adding 0.0 maps -0.0 to 0.0 and leaves every other value as it is
    assert_same_bits(got + 0.0, want + 0.0)


@pytest.mark.parametrize("c", range(1, 13))
def test_all_negative_zero_rows_sum_to_positive_zero(c):
    x = np.full((5, c), -0.0)
    assert_same_bits(over_classes(np.add, x), np.add.reduce(x, axis=-1, keepdims=True))
    assert not np.signbit(over_classes(np.add, x)).any()


@pytest.mark.parametrize("c", range(1, 13))
def test_every_class_count_on_a_large_grid(c):
    """Both sides of the switch to numpy's pairwise sum at 8 classes."""
    rng = np.random.default_rng(c)
    x = rng.standard_normal((64, 64, c)) * 10.0 ** rng.integers(-9, 10, size=(64, 64, c))
    assert_same_bits(over_classes(np.add, x), x.sum(axis=-1, keepdims=True))
    assert_same_bits(over_classes(np.maximum, x), x.max(axis=-1, keepdims=True))


def test_result_is_a_new_array():
    x = np.arange(6.0).reshape(3, 2)[:, :1]  # one class
    for ufunc in (np.add, np.maximum):
        out = over_classes(ufunc, x)
        out += 1.0
        np.testing.assert_array_equal(x, [[0.0], [2.0], [4.0]])


def test_empty_class_axis_hands_over_to_numpy():
    assert over_classes(np.add, np.zeros((3, 0))).tolist() == [[0.0]] * 3
    with pytest.raises(ValueError):
        over_classes(np.maximum, np.zeros((3, 0)))


# -- softmax and its VJP ------------------------------------------------------


def softmax_ref(z):
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def softmax_vjp_ref(s, grad_s):
    inner = (s * grad_s).sum(axis=-1, keepdims=True)
    return s * (grad_s - inner)


@pytest.mark.parametrize("c", range(1, 13))
@pytest.mark.parametrize("shape", [(), (7,), (6, 5), (3, 4, 5), (2, 3, 4, 5)])
def test_softmax_and_vjp_match_the_numpy_reductions(shape, c):
    rng = np.random.default_rng(len(shape) * 100 + c)
    z = rng.standard_normal(shape + (c,)) * rng.choice([0.1, 3.0, 40.0])
    z[rng.random(z.shape) < 0.1] = -0.0
    z[rng.random(z.shape) < 0.1] = 0.0
    if not shape:
        z = z[None]
    s = softmax(z)
    assert_same_bits(s, softmax_ref(z))
    grad_s = rng.standard_normal(z.shape)
    assert_same_bits(softmax_vjp(s, grad_s), softmax_vjp_ref(s, grad_s))


@settings(max_examples=100, deadline=None)
@given(class_arrays(st.floats(-50.0, 50.0, allow_nan=False)))
def test_softmax_matches_on_strided_logits(z):
    if z.ndim < 2:
        z = z[None]
    assert_same_bits(softmax(z), softmax_ref(z))


# -- other callers ------------------------------------------------------------


def test_validate_prob_reports_numpys_pixel_sum():
    s = np.array([[0.25, 0.25, 0.5], [0.1, 0.2, 0.3]])
    with pytest.raises(ValidationError) as exc:
        validate_prob(s)
    assert f"sums to {s.sum(axis=-1)[1]!r}" in str(exc.value)


@pytest.mark.parametrize("c", [2, 3, 7, 8, 9])
def test_float32_renormalisation_matches_numpy(tmp_path, c):
    rng = np.random.default_rng(c)
    u = rng.uniform(0.05, 1.0, size=(9, 11, c))
    s32 = (u / u.sum(axis=-1, keepdims=True)).astype(np.float32)
    write_tensor(tmp_path / "p.ntf", s32)
    s = s32.astype(np.float64)
    assert_same_bits(read_tensor(tmp_path / "p.ntf", expect="probs"), s / s.sum(axis=-1, keepdims=True))


@pytest.mark.parametrize("include_background", [True, False])
@pytest.mark.parametrize("c", [2, 3, 9])
def test_topk_keep_set_matches_numpy(c, include_background):
    rng = np.random.default_rng(c)
    labels = rng.integers(0, c, size=(12, 10))
    g = one_hot(labels, c)
    u = rng.uniform(0.05, 1.0, size=g.shape)
    s = u / u.sum(axis=-1, keepdims=True)
    cfg = LossConfig(include_background=include_background)
    sl = slice(cfg.first_class(), None)
    gi = g[..., sl]
    want = (gi.sum(axis=-1) > 0) & ((gi * s[..., sl]).sum(axis=-1) < 0.5)
    np.testing.assert_array_equal(topk_keep_set(g, s, 0.5, cfg), want)


# -- optimize -----------------------------------------------------------------


def descent_ref(loss, labels, steps, lr, seed):
    """optimize's loop, written with numpy's reductions: softmax, its VJP
    and the foreground mask ``argmax > 0``."""
    c = int(labels.max()) + 1
    evaluator = prepare(loss, one_hot(labels, c))
    z = np.random.default_rng(seed).standard_normal(labels.shape + (c,))
    gt_fg = labels > 0
    rows = []
    for _ in range(steps + 1):
        s = softmax_ref(z)
        res = evaluator(s)
        pred_fg = s.argmax(axis=-1) > 0
        hd = hausdorff_exact(gt_fg, pred_fg) if pred_fg.any() else sentinel_value(labels.shape)
        rows.append((res.value, dice_coefficient(gt_fg, pred_fg), hd))
        z = z - lr * softmax_vjp_ref(s, res.grad)
    return np.asarray(rows)


@pytest.mark.parametrize("c", [3, 5])
def test_multiclass_dice_descent_matches_numpy_reductions(c):
    labels = np.zeros((12, 12), dtype=int)
    for k in range(1, c):
        labels[k : k + 5, 2 * k - 1 : 2 * k + 3] = k
    traj = optimize("dice", labels, steps=60, lr=2.0, seed=c)
    want = descent_ref("dice", labels, 60, 2.0, c)
    np.testing.assert_array_equal(traj.loss, want[:, 0])
    np.testing.assert_array_equal(traj.dice, want[:, 1])
    np.testing.assert_array_equal(traj.hausdorff, want[:, 2])
    assert len(np.unique(traj.dice)) > 1  # the mask moves during the run


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 4), st.data())
def test_measure_mask_is_argmax_above_zero_with_ties(c, data):
    """Logits drawn from three levels tie often, between class 0 and another
    class too; argmax then takes class 0, and so must optimize's mask."""
    shape = (5, 6)
    labels = data.draw(hnp.arrays(np.int64, shape, elements=st.integers(0, c - 1)))
    if not (labels > 0).any():
        labels[0, 0] = 1
    z = data.draw(hnp.arrays(np.float64, shape + (c,), elements=st.sampled_from([0.0, 1.0, 2.0])))
    traj = optimize("dice", labels, steps=1, lr=1e-3, num_classes=c, init_logits=z)
    pred_fg = softmax_ref(z).argmax(axis=-1) > 0
    gt_fg = labels > 0
    assert traj.dice[0] == dice_coefficient(gt_fg, pred_fg)
    hd = hausdorff_exact(gt_fg, pred_fg) if pred_fg.any() else sentinel_value(shape)
    assert traj.hausdorff[0] == hd


def test_measure_counts_a_tie_with_class_zero_as_background():
    labels = np.ones((1, 4), dtype=int)
    z = np.array([[[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [2.0, 2.0]]])
    traj = optimize("dice", labels, steps=1, lr=1e-3, init_logits=z)
    assert traj.dice[0] == dice_coefficient(labels > 0, np.array([[False, False, True, False]]))


# -- prepare on a ground truth without a class axis ---------------------------


@pytest.mark.parametrize("name", loss_names())
@pytest.mark.parametrize("shape", [(), (3,), (4, 1)])
def test_prepare_rejects_a_ground_truth_without_classes(name, shape):
    g = np.zeros(shape)
    with pytest.raises(ValidationError, match=r"expected dims \+ \(C>=2,\)"):
        prepare(name, g)
    with pytest.raises(ValidationError, match=r"expected dims \+ \(C>=2,\)"):
        prepare_frozen(name, g, g)


def test_binary_only_message_still_names_the_class_count():
    with pytest.raises(ValidationError, match="binary-only, got 3 classes"):
        prepare("combo", one_hot(np.array([0, 1, 2]), 3))
