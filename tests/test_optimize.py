import numpy as np
import pytest

from segloss import (
    GENERATOR_ID,
    OptTrajectory,
    SeglossError,
    ValidationError,
    optimize,
    prepare,
    softmax,
)


def square_gt(side=8, lo=2, hi=6):
    gt = np.zeros((side, side), dtype=int)
    gt[lo:hi, lo:hi] = 1
    return gt


class TestTrajectoryShape:
    def test_records_step_zero_and_every_step(self):
        traj = optimize("dice", np.array([1, 0, 0, 1]), steps=7, lr=0.5, seed=1)
        np.testing.assert_array_equal(traj.steps, np.arange(8))
        assert traj.loss.shape == traj.dice.shape == traj.hausdorff.shape == (8,)

    def test_step_zero_is_the_untouched_init(self):
        gt = np.array([1, 0, 0, 1])
        traj = optimize("dice", gt, steps=3, lr=0.5, seed=11)
        rng = np.random.default_rng(11)
        z0 = rng.standard_normal(gt.shape + (2,))
        s0 = softmax(z0)
        from segloss import one_hot

        want = prepare("dice", one_hot(gt, 2))(s0).value
        assert traj.loss[0] == want

    def test_metadata_documents_the_run(self):
        traj = optimize("tversky", np.array([1, 0, 1]), steps=2, lr=0.1, seed=5)
        md = traj.metadata
        assert md["loss"] == "tversky"
        assert md["params"] == {"alpha": 0.3, "beta": 0.7}
        assert md["lr"] == 0.1 and md["steps"] == 2 and md["seed"] == 5
        assert md["generator"] == GENERATOR_ID
        assert md["init"] == "seeded-normal"


class TestDeterminism:
    def test_same_seed_bit_exact(self):
        a = optimize("dice", square_gt(), steps=20, lr=1.0, seed=42)
        b = optimize("dice", square_gt(), steps=20, lr=1.0, seed=42)
        np.testing.assert_array_equal(a.loss, b.loss)
        np.testing.assert_array_equal(a.dice, b.dice)
        np.testing.assert_array_equal(a.hausdorff, b.hausdorff)

    def test_different_seed_differs(self):
        a = optimize("dice", square_gt(), steps=5, lr=1.0, seed=0)
        b = optimize("dice", square_gt(), steps=5, lr=1.0, seed=1)
        assert (a.loss != b.loss).any()


class TestConvergence:
    def test_dice_descent_solves_a_small_instance(self):
        traj = optimize("dice", np.array([1, 0, 0, 1]), steps=100, lr=1.0, seed=0)
        assert traj.dice[-1] == 1.0
        assert traj.loss[-1] < traj.loss[0]

    def test_hd_warm_start_never_ends_worse(self):
        gt = square_gt()
        dilated = np.zeros((8, 8), dtype=bool)
        dilated[1:7, 1:7] = True
        init = np.stack(
            [np.where(dilated, -2.0, 2.0), np.where(dilated, 2.0, -2.0)], axis=-1
        )
        traj = optimize("hd", gt, steps=200, lr=50.0, init_logits=init)
        assert traj.metadata["init"] == "warm-start"
        assert traj.hausdorff[-1] <= traj.hausdorff[0]
        assert traj.hausdorff[-1] == 0.0
        assert traj.dice[-1] == 1.0


class TestValidation:
    def test_rejects_bad_steps_and_lr(self):
        gt = np.array([1, 0])
        with pytest.raises(ValidationError):
            optimize("dice", gt, steps=0, lr=1.0)
        with pytest.raises(ValidationError):
            optimize("dice", gt, steps=3, lr=0.0)
        with pytest.raises(ValidationError):
            optimize("dice", gt, steps=3, lr=np.inf)

    @pytest.mark.parametrize("steps, lr", [(True, 1.0), (3, True), (False, 1.0), (3.0, 1.0)])
    def test_rejects_bool_and_float_steps_and_bool_lr(self, steps, lr):
        with pytest.raises(ValidationError):
            optimize("dice", np.array([1, 0, 0, 1]), steps=steps, lr=lr)

    def test_accepts_any_integer_steps(self):
        traj = optimize("dice", np.array([1, 0, 0, 1]), steps=np.int64(3), lr=0.5, seed=1)
        np.testing.assert_array_equal(traj.steps, np.arange(4))
        assert type(traj.metadata["steps"]) is int

    def test_rejects_unknown_loss(self):
        with pytest.raises(ValidationError, match="available"):
            optimize("nope", np.array([1, 0]), steps=1, lr=1.0)

    def test_rejects_bad_warm_start_shape(self):
        with pytest.raises(ValidationError):
            optimize(
                "dice", np.array([1, 0]), steps=1, lr=1.0, init_logits=np.zeros((3, 2))
            )

    def test_divergence_is_a_plain_segloss_error_naming_the_step(self):
        # the first update overflows the logits; softmax's own finiteness
        # check finds it, and optimize reports it as divergence
        with np.errstate(over="ignore"), pytest.raises(SeglossError) as info:
            optimize("ce", np.array([1, 0]), steps=3, lr=1.7e308,
                     init_logits=np.full((2, 2), 1.5e308))
        assert type(info.value) is SeglossError
        assert str(info.value) == "optimization diverged: non-finite logits after step 0"

    def test_num_classes_widens_the_simplex(self):
        traj = optimize("ce", np.array([1, 0, 1]), steps=1, lr=0.1, num_classes=4)
        assert traj.metadata["num_classes"] == 4

    def test_trajectory_rejects_ragged_records(self):
        with pytest.raises(ValidationError):
            OptTrajectory(
                loss_name="dice",
                steps=np.array([0, 1]),
                loss=np.array([1.0]),
                dice=np.array([0.5, 0.6]),
                hausdorff=np.array([1.0, 0.5]),
                metadata={},
            )

    def test_trajectory_rejects_unsorted_steps(self):
        with pytest.raises(ValidationError):
            OptTrajectory(
                loss_name="dice",
                steps=np.array([1, 0]),
                loss=np.array([1.0, 0.9]),
                dice=np.array([0.5, 0.6]),
                hausdorff=np.array([1.0, 0.5]),
                metadata={},
            )
