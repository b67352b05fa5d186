import json
import subprocess
import sys

import numpy as np
import pytest

from segloss import read_tensor, write_tensor
from segloss.cli import main


@pytest.fixture
def fixture_files(tmp_path):
    labels = np.array([1, 0, 0, 1], dtype=np.uint8)
    s1 = np.array([0.8, 0.2, 0.3, 0.9])
    probs = np.stack([1.0 - s1, s1], axis=-1)
    gt = tmp_path / "gt.ntf"
    pred = tmp_path / "pred.ntf"
    write_tensor(gt, labels)
    write_tensor(pred, probs)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "params": {
                    "wce": {"weights": [0.75, 0.25]},
                    "topk": {"t": 0.85},
                    "combo": {"beta": 0.4},
                }
            }
        )
    )
    return gt, pred, cfg


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestEval:
    def test_json_report_reproduces_reference_values(self, fixture_files, capsys):
        gt, pred, cfg = fixture_files
        code = run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "all", "--config", cfg)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema"] == "segloss-eval/1"
        assert len(report["inputs"]["gt"]["sha256"]) == 64
        values = {row["name"]: row.get("value") for row in report["losses"]}
        assert values["ce"] == 0.22708064055624455
        assert values["wce"] == 0.12924747204567891
        assert values["topk"] == 0.26765401552238394
        assert values["dice"] == 0.053254429991948182
        assert values["combo"] == -0.3448503369450639
        assert values["ell"] == 0.63634421174404898
        assert len(report["losses"]) == 17

    def test_csv_format(self, fixture_files, capsys):
        gt, pred, _ = fixture_files
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "ce,dice",
                       "--format", "csv") == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "name,value,flags"
        assert lines[1].startswith("ce,0.22708064055624455")

    def test_out_file(self, fixture_files, tmp_path):
        gt, pred, _ = fixture_files
        out = tmp_path / "report.json"
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "ce", "--out", out) == 0
        assert json.loads(out.read_text())["losses"][0]["value"] == 0.22708064055624455

    def test_values_round_trip_through_json(self, fixture_files, capsys):
        gt, pred, _ = fixture_files
        run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "generalized_dice")
        text = capsys.readouterr().out
        assert json.loads(text)["losses"][0]["value"] == 0.19999990000005008

    def test_unknown_loss_lists_available(self, fixture_files, capsys):
        gt, pred, _ = fixture_files
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "dicey") == 2
        err = capsys.readouterr().err
        assert "available" in err and "tversky" in err

    def test_unknown_config_key_rejected(self, fixture_files, tmp_path, capsys):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"epsilonn": 1}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "ce",
                       "--config", bad) == 2
        assert "unknown config keys" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, loss",
        [('{"spacing": [1, true]}', "ce"), ('{"spacing": [true]}', "boundary"),
         ('{"spacing": ["1"]}', "boundary")],
    )
    def test_non_number_spacing_rejected(self, fixture_files, tmp_path, capsys, config, loss):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(config)
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", loss,
                       "--config", bad) == 2
        assert "spacing must be a non-empty list of numbers" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spacing", [[-1.0], [0.0], [-1.0, 0.0, 5.0], [1.0, 2.0], [], [1e400]]
    )
    @pytest.mark.parametrize("command", ["eval", "optimize"])
    def test_bad_spacing_is_exit_2_for_every_loss(self, fixture_files, tmp_path, capsys,
                                                 spacing, command):
        # ce and dice take no distance map; the spacing is checked all the same
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"spacing": spacing}))
        if command == "eval":
            args = ["--pred", pred, "--loss", "ce"]
        else:
            args = ["--loss", "dice", "--steps", 1, "--lr", 1.0]
        assert run_cli(command, "--gt", gt, "--config", bad, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: spacing " in captured.err

    def test_spacing_checked_against_the_grid_rank(self, tmp_path, capsys):
        gt = tmp_path / "gt.ntf"
        pred = tmp_path / "pred.ntf"
        write_tensor(gt, np.array([[1, 0], [0, 0]], dtype=np.uint8))
        write_tensor(pred, np.full((2, 2, 2), 0.5))
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"spacing": [0.5]}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "ce", "--config", cfg) == 2
        assert "spacing has 1 entries for a rank-2 grid" in capsys.readouterr().err
        cfg.write_text('{"spacing": [0.5, 2]}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "ce", "--config", cfg) == 0
        assert json.loads(capsys.readouterr().out)["config"]["spacing"] == [0.5, 2.0]

    def test_bad_tensor_reported_before_bad_config(self, fixture_files, tmp_path, capsys):
        gt, _, _ = fixture_files
        bad_pred = tmp_path / "bad.ntf"
        bad_pred.write_bytes(b"NTF1garbage")
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text('{"spacing": [true]}')
        assert run_cli("eval", "--gt", gt, "--pred", bad_pred, "--loss", "ce",
                       "--config", bad_cfg) == 2
        err = capsys.readouterr().err
        assert str(bad_pred) in err and str(bad_cfg) not in err

    def test_unknown_loss_param_rejected(self, fixture_files, tmp_path, capsys):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": {"dice": {"gamma": 2}}}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "dice",
                       "--config", bad) == 2
        assert f"error: {bad}: loss 'dice' takes no parameter" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "params",
        [
            {"topk": {"t": "x"}},
            {"focal": {"gamma": "2"}},
            {"focal": {"gamma": True}},
            {"tversky": {"alpha": None}},
            {"ss": {"w": [1]}},
            {"penalty_gd": {"k": "a"}},
            {"wce": {"weights": "ab"}},
            {"wce": {"weights": [1, "a"]}},
            {"wce": {"weights": [[1, 2]]}},
            {"ell": {"class_weights": "x"}},
        ],
    )
    @pytest.mark.parametrize("command", ["eval", "optimize"])
    def test_malformed_loss_param_is_exit_2(self, fixture_files, tmp_path, capsys, params,
                                             command):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"params": params}))
        name = next(iter(params))
        args = ["--pred", pred] if command == "eval" else ["--steps", 1, "--lr", 1.0]
        assert run_cli(command, "--gt", gt, "--loss", name, "--config", bad, *args) == 2
        err = capsys.readouterr().err
        assert f"error: {bad}: loss {name!r} parameter" in err and "must be" in err

    @pytest.mark.parametrize("command", ["eval", "optimize"])
    def test_unknown_loss_in_params_names_the_config_file(self, fixture_files, tmp_path,
                                                          capsys, command):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text('{"params": {"focall": {}}}')
        args = ["--pred", pred] if command == "eval" else ["--steps", 1, "--lr", 1.0]
        assert run_cli(command, "--gt", gt, "--loss", "focal", "--config", bad, *args) == 2
        assert f"error: {bad}: unknown loss 'focall'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config",
        ['{"log_clamp": 2}', '{"log_clamp": 1}', '{"epsilon": Infinity}', '{"epsilon": NaN}',
         '{"epsilon": 0}', '{"epsilon": true}', '{"include_background": "no"}',
         '{"include_background": 0}'],
    )
    @pytest.mark.parametrize("command", ["eval", "optimize"])
    def test_config_out_of_bounds_is_exit_2_naming_the_file(self, fixture_files, tmp_path,
                                                            capsys, config, command):
        gt, pred, _ = fixture_files
        bad = tmp_path / "bad.json"
        bad.write_text(config)
        if command == "eval":
            args = ["--pred", pred, "--loss", "ce,focal"]
        else:
            args = ["--loss", "ce", "--steps", 1, "--lr", 1.0]
        assert run_cli(command, "--gt", gt, "--config", bad, *args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {bad}: " in captured.err and "must be" in captured.err

    def test_integer_config_numbers_echo_as_floats(self, fixture_files, tmp_path, capsys):
        gt, pred, _ = fixture_files
        good = tmp_path / "good.json"
        good.write_text('{"epsilon": 1, "include_background": false}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "dice",
                       "--config", good) == 0
        text = capsys.readouterr().out
        assert '"epsilon": 1.0,' in text
        assert json.loads(text)["config"]["include_background"] is False

    def test_loss_params_of_the_right_kind_are_taken(self, fixture_files, tmp_path, capsys):
        gt, pred, _ = fixture_files
        good = tmp_path / "good.json"
        good.write_text('{"params": {"focal": {"gamma": 2}, "wce": {"weights": null},'
                        ' "ell": {"class_weights": [1, 0.5]}}}')
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "focal,wce,ell",
                       "--config", good) == 0
        rows = json.loads(capsys.readouterr().out)["losses"]
        assert [row["params"] for row in rows] == [
            {"gamma": 2}, {"weights": None},
            {"w_dice": 0.8, "w_ce": 0.2, "gamma_dice": 0.3, "gamma_ce": 0.3,
             "class_weights": [1, 0.5]},
        ]

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert run_cli("eval", "--gt", tmp_path / "no.ntf", "--pred", tmp_path / "no2.ntf",
                       "--loss", "ce") == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_tensor_is_exit_2(self, fixture_files, tmp_path, capsys):
        gt, _, _ = fixture_files
        bad = tmp_path / "bad.ntf"
        bad.write_bytes(b"NTF1garbage")
        assert run_cli("eval", "--gt", gt, "--pred", bad, "--loss", "ce") == 2

    def test_shape_mismatch_is_exit_2(self, fixture_files, tmp_path, capsys):
        _, pred, _ = fixture_files
        gt3 = tmp_path / "gt3.ntf"
        write_tensor(gt3, np.array([1, 0, 1], dtype=np.uint8))
        assert run_cli("eval", "--gt", gt3, "--pred", pred, "--loss", "ce") == 2

    def test_explicit_binary_only_loss_on_multiclass_is_exit_2(self, tmp_path, capsys):
        gt = tmp_path / "gt.ntf"
        pred = tmp_path / "pred.ntf"
        write_tensor(gt, np.array([0, 1, 2], dtype=np.uint8))
        write_tensor(pred, np.full((3, 3), 1.0 / 3.0))
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "combo") == 2
        assert "binary-only" in capsys.readouterr().err

    def test_all_on_multiclass_skips_binary_only(self, tmp_path, capsys):
        gt = tmp_path / "gt.ntf"
        pred = tmp_path / "pred.ntf"
        write_tensor(gt, np.array([[0, 1], [2, 0]], dtype=np.uint8))
        write_tensor(pred, np.full((2, 2, 3), 1.0 / 3.0))
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "all") == 0
        report = json.loads(capsys.readouterr().out)
        combo_row = next(r for r in report["losses"] if r["name"] == "combo")
        assert "skipped" in combo_row

    def test_degenerate_input_is_exit_3(self, tmp_path, capsys):
        gt = tmp_path / "gt.ntf"
        pred = tmp_path / "pred.ntf"
        write_tensor(gt, np.zeros(4, dtype=np.uint8))  # no foreground anywhere
        write_tensor(pred, np.full((4, 2), 0.5))
        assert run_cli("eval", "--gt", gt, "--pred", pred, "--loss", "boundary,ce") == 3
        report = json.loads(capsys.readouterr().out)
        rows = {r["name"]: r for r in report["losses"]}
        assert rows["boundary"]["degenerate"] is True
        assert "value" in rows["ce"]  # the healthy loss still evaluated


class TestDt:
    def test_unsigned_transform(self, tmp_path, capsys):
        mask = tmp_path / "m.ntf"
        out = tmp_path / "d.ntf"
        write_tensor(mask, np.array([0, 0, 1, 0], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", out) == 0
        np.testing.assert_array_equal(read_tensor(out), [2, 1, 0, 1])

    def test_signed_transform(self, tmp_path):
        mask = tmp_path / "m.ntf"
        out = tmp_path / "d.ntf"
        write_tensor(mask, np.array([0, 0, 1, 1, 0], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", out, "--signed") == 0
        np.testing.assert_array_equal(read_tensor(out), [2, 1, -1, -1, 1])

    def test_spacing(self, tmp_path):
        mask = tmp_path / "m.ntf"
        out = tmp_path / "d.ntf"
        write_tensor(mask, np.array([1, 0, 0], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", out, "--spacing", "2.5") == 0
        np.testing.assert_allclose(read_tensor(out), [0.0, 2.5, 5.0])

    def test_pgm_input(self, tmp_path):
        pgm = tmp_path / "m.pgm"
        out = tmp_path / "d.ntf"
        pgm.write_bytes(b"P5\n4 1\n255\n" + bytes([0, 0, 255, 0]))
        assert run_cli("dt", "--mask", pgm, "--out", out) == 0
        np.testing.assert_array_equal(read_tensor(out), [[2, 1, 0, 1]])

    def test_empty_mask_writes_sentinel_with_note(self, tmp_path, capsys):
        mask = tmp_path / "m.ntf"
        out = tmp_path / "d.ntf"
        write_tensor(mask, np.zeros(4, dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", out) == 0
        assert "note:" in capsys.readouterr().err
        np.testing.assert_array_equal(read_tensor(out), 4.0)

    def test_mask_with_stray_values_is_exit_2(self, tmp_path, capsys):
        mask = tmp_path / "m.ntf"
        write_tensor(mask, np.array([0, 3], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", tmp_path / "d.ntf") == 2

    def test_bad_spacing_is_exit_2(self, tmp_path, capsys):
        mask = tmp_path / "m.ntf"
        write_tensor(mask, np.array([0, 1], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", tmp_path / "d.ntf",
                       "--spacing", "one") == 2

    def test_empty_spacing_gets_the_rank_message(self, tmp_path, capsys):
        mask = tmp_path / "m.ntf"
        write_tensor(mask, np.array([0, 1], dtype=np.uint8))
        assert run_cli("dt", "--mask", mask, "--out", tmp_path / "d.ntf",
                       "--spacing", ",") == 2
        assert "spacing has 0 entries for a rank-1 grid" in capsys.readouterr().err


class TestOptimize:
    def test_csv_trajectory(self, fixture_files, tmp_path, capsys):
        gt, _, _ = fixture_files
        out = tmp_path / "traj.csv"
        assert run_cli("optimize", "--loss", "dice", "--gt", gt, "--steps", "5",
                       "--lr", "1.0", "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,loss,dice_coefficient,hausdorff"
        assert len(lines) == 7  # header + steps 0..5
        assert "final:" in capsys.readouterr().err

    def test_deterministic_across_runs(self, fixture_files, tmp_path):
        gt, _, _ = fixture_files
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("optimize", "--loss", "dice", "--gt", gt, "--steps", "4", "--lr", "0.5",
                "--seed", "9", "--out", a)
        run_cli("optimize", "--loss", "dice", "--gt", gt, "--steps", "4", "--lr", "0.5",
                "--seed", "9", "--out", b)
        assert a.read_text() == b.read_text()

    def test_unknown_loss_is_exit_2(self, fixture_files, capsys):
        gt, _, _ = fixture_files
        assert run_cli("optimize", "--loss", "nope", "--gt", gt, "--steps", "1",
                       "--lr", "1.0") == 2

    def test_divergence_is_exit_2(self, tmp_path, capsys):
        # from the seed-0 start, hd's first update overflows these logits
        gt = tmp_path / "gt.ntf"
        write_tensor(gt, np.array([0, 1, 1, 0, 0, 0, 0, 0], dtype=np.uint8))
        with np.errstate(over="ignore"):
            code = run_cli("optimize", "--loss", "hd", "--gt", gt, "--steps", "3",
                           "--lr", "1.7e308")
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: optimization diverged: non-finite logits after step 0\n"


class TestCheckCommands:
    def test_gradcheck_subset(self, capsys):
        assert run_cli("gradcheck", "--loss", "ce,dice", "--trials", "3") == 0
        out = capsys.readouterr().out
        assert "ce: PASS" in out and "dice: PASS" in out

    def test_relations(self, capsys):
        assert run_cli("relations", "--trials", "5") == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    @pytest.mark.parametrize("command", ["gradcheck", "relations"])
    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_an_audit_of_no_trials_is_exit_2(self, command, trials, capsys):
        assert run_cli(command, "--trials", trials) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trials must be >= 1" in captured.err

    @pytest.mark.parametrize(
        "flag, value, match",
        [("--h", "nan", "step h"), ("--h", "inf", "step h"), ("--h", "-1e-6", "step h"),
         ("--tol", "nan", "tolerance"), ("--tol", "inf", "tolerance")],
    )
    def test_gradcheck_step_or_tolerance_not_finite_is_exit_2(self, flag, value, match, capsys):
        assert run_cli("gradcheck", "--loss", "ce", "--trials", "1", f"{flag}={value}") == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert match in captured.err


class TestEntryPoint:
    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc_info:
            main([])
        assert exc_info.value.code == 2

    def test_console_script_runs(self, fixture_files, tmp_path):
        gt, pred, _ = fixture_files
        proc = subprocess.run(
            [sys.executable, "-m", "segloss", "eval", "--gt", str(gt),
             "--pred", str(pred), "--loss", "ce"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["losses"][0]["value"] == 0.22708064055624455
