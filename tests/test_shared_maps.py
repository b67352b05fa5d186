"""Each distance map of an operation is computed once.

The ground truth's maps come from one BoundaryContext, which ``segloss
eval`` shares across its losses; the hd evaluator and the optimizer's
per-step metrics keep the last prediction mask and its maps. These tests
count EDT calls per operation, and check the shared maps against the
per-class loops they replaced.
"""

import json
import sys

import numpy as np
import pytest

from segloss import (
    LossConfig,
    boundary_context,
    boundary_penalty_map,
    evaluate,
    foreground_boundary_distances,
    hd_loss,
    level_set,
    one_hot,
    optimize,
    prepare,
    sentinel_value,
    unsigned_boundary_distance,
    write_tensor,
)
from segloss.cli import main


@pytest.fixture
def edt_calls(monkeypatch):
    """Record (mask bytes, shape, spacing) of every EDT call.

    ``edt`` is patched in every module that looks it up. The modules are
    taken from sys.modules: the package binds the functions ``optimize``
    and ``gradcheck`` over the attributes naming their modules.
    """
    calls = []
    original = sys.modules["segloss.distance"].edt

    def recording(source, spacing=None):
        m = np.asarray(source)
        calls.append((m.tobytes(), m.shape, None if spacing is None else tuple(spacing)))
        return original(source, spacing)

    for name in ("segloss.distance", "segloss.optimize", "segloss.cli"):
        monkeypatch.setattr(sys.modules[name], "edt", recording)
    return calls


def four_class_pair():
    """A 24x20 label map with three foreground shapes, and a prediction whose
    thresholded channels are shifted copies of them (no class degenerate)."""
    labels = np.zeros((24, 20), dtype=np.uint8)
    labels[3:10, 2:9] = 1
    labels[12:21, 4:11] = 2
    labels[5:18, 13:18] = 3
    guess = np.roll(labels, (1, -1), axis=(0, 1))
    probs = 0.6 * one_hot(guess, 4) + 0.1
    return labels, probs


@pytest.fixture
def four_class_files(tmp_path):
    labels, probs = four_class_pair()
    write_tensor(tmp_path / "gt.ntf", labels)
    write_tensor(tmp_path / "pred.ntf", probs)
    return tmp_path / "gt.ntf", tmp_path / "pred.ntf"


def eval_report(gt, pred, capsys, config=None):
    argv = ["eval", "--gt", str(gt), "--pred", str(pred), "--loss", "all"]
    assert main(argv + (["--config", str(config)] if config else [])) == 0
    return json.loads(capsys.readouterr().out)


class TestEdtCounts:
    def test_eval_transforms_each_mask_once(self, four_class_files, edt_calls, capsys):
        eval_report(*four_class_files, capsys)
        # 2C for the ground truth's signed maps, 2(C-1) for hd's prediction side
        assert len(edt_calls) == 2 * 4 + 2 * 3
        assert len(set(edt_calls)) == len(edt_calls)

    def test_criterion_5_runs(self, edt_calls):
        gt = np.zeros((32, 32), dtype=int)
        gt[12:20, 12:20] = 1
        optimize("dice", gt, steps=2000, lr=1.0, seed=7)
        # the ground truth once, then each of the 300 argmax masks that
        # differ from the step before
        assert len(edt_calls) == 301
        edt_calls.clear()
        dilated = np.zeros((32, 32), dtype=bool)
        dilated[11:21, 11:21] = True
        init = np.stack([np.where(dilated, -2.0, 2.0), np.where(dilated, 2.0, -2.0)], axis=-1)
        optimize("hd", gt, steps=200, lr=50.0, init_logits=init)
        # ground truth: 2 for hd's class 1, 1 for the Hausdorff metric; then
        # 3 for each of the 3 prediction masks the run passes through
        assert len(edt_calls) == 3 + 3 * 3

    def test_gradient_audit_is_unchanged(self, edt_calls, capsys):
        assert main(["gradcheck", "--loss", "all", "--trials", "50"]) == 0
        assert len(edt_calls) == 936


def penalty_loop(g, spacing=None):
    """boundary_penalty_map as a loop over classes, each with its own EDTs."""
    out = np.zeros_like(g)
    for c in range(g.shape[-1]):
        mask = g[..., c] >= 0.5
        if mask.all() or not mask.any():
            continue
        dt = unsigned_boundary_distance(mask, spacing)
        out[..., c] = 1.0 - dt / dt.max()
    return out


def foreground_loop(x, spacing=None, tag="gt"):
    """foreground_boundary_distances as a loop over foreground classes."""
    out = np.empty(x.shape[:-1] + (x.shape[-1] - 1,))
    flags = []
    for c in range(1, x.shape[-1]):
        mask = x[..., c] >= 0.5
        if mask.all() or not mask.any():
            out[..., c - 1] = sentinel_value(mask.shape, spacing)
            flags.append(f"degenerate-{tag}-class-{c}")
        else:
            out[..., c - 1] = unsigned_boundary_distance(mask, spacing)
    return out, tuple(flags)


SHAPES = {1: (11,), 2: (7, 6), 3: (5, 4, 3)}
SPACINGS = {1: (1.7,), 2: (0.6, 2.3), 3: (0.5, 1.0, 2.5)}


def labels_of(kind, shape, rng):
    if kind == "full":  # class 0 covers the grid, every other class is empty
        return np.zeros(shape, dtype=int)
    labels = rng.integers(0, 4, size=shape)
    if kind == "empty":
        labels[labels == 2] = 1
    return labels


class TestSharedMapsMatchTheLoops:
    @pytest.mark.parametrize("kind", ["mixed", "empty", "full"])
    @pytest.mark.parametrize("anisotropic", [False, True])
    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_context_maps_equal_the_per_class_loops(self, rank, anisotropic, kind):
        rng = np.random.default_rng(rank)
        g = one_hot(labels_of(kind, SHAPES[rank], rng), 4)
        spacing = SPACINGS[rank] if anisotropic else None
        ctx = boundary_context(g, spacing)
        for c in range(4):
            np.testing.assert_array_equal(ctx.phi[..., c], level_set(g[..., c] >= 0.5, spacing))
        want = penalty_loop(g, spacing)
        np.testing.assert_array_equal(ctx.penalty_map(), want)
        np.testing.assert_array_equal(boundary_penalty_map(g, spacing), want)
        d, flags = ctx.foreground_distances()
        want_d, want_flags = foreground_loop(g, spacing)
        np.testing.assert_array_equal(d, want_d)
        assert flags == want_flags
        d, flags = foreground_boundary_distances(g, spacing, tag="pred")
        np.testing.assert_array_equal(d, want_d)
        assert flags == foreground_loop(g, spacing, tag="pred")[1]

    def test_class_0_is_not_transformed_for_hd(self, edt_calls):
        g = one_hot(four_class_pair()[0], 4)
        boundary_context(g).foreground_distances()
        assert len(edt_calls) == 2 * 3


class TestHdEvaluatorReuse:
    def test_masks_a_b_a_match_fresh_calls(self, edt_calls):
        labels, a = four_class_pair()
        g = one_hot(labels, 4)
        b = a.copy()
        b[..., 0] += b[..., 2] - 0.05
        b[..., 2] = 0.05  # class 2 is empty in b's thresholded channels
        spacing = (0.8, 1.7)
        f = prepare("hd", g, spacing=spacing)
        for s in (a, b, a):
            got, want = f(s), hd_loss(g, s, spacing=spacing)
            np.testing.assert_array_equal(got.value, want.value)
            np.testing.assert_array_equal(got.grad, want.grad)
            assert got.flags == want.flags
        assert "degenerate-pred-class-2" in f(b).flags
        edt_calls.clear()
        f(b)
        f(b + 0.0)
        assert edt_calls == []


class TestEvalSharesOneContext:
    def test_background_excluded_anisotropic_report(self, four_class_files, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"include_background": False, "spacing": [0.8, 1.7]}))
        report = eval_report(*four_class_files, capsys, config)
        labels, probs = four_class_pair()
        g = one_hot(labels, 4)
        cfg = LossConfig(include_background=False)
        for row in report["losses"]:
            if "value" not in row:
                continue
            fresh = evaluate(row["name"], g, probs, cfg, row["params"], [0.8, 1.7])
            assert row["value"] == fresh.value, row["name"]
            assert row["flags"] == list(fresh.flags), row["name"]
        values = {row["name"]: row.get("value") for row in report["losses"]}
        # the values the per-loss maps gave before one context was shared
        assert values["dpce"] == 0.6041562273859765
        assert values["boundary"] == 1.9408395348393532
        assert values["hd"] == 6.6039979166666685
