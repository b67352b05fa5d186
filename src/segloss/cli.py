"""Command-line front end.

Subcommands: eval (score predictions against a ground truth), gradcheck
(finite-difference audit), relations (identity/reduction checks), optimize
(gradient-descent demo on logits), dt (distance transform of a mask file).

Exit codes: 0 success, 1 a check command found failures, 2 invalid input
(bad file, bad config, unknown loss), 3 inputs valid but degenerate for the
requested computation.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

from .config import DEFAULT_CONFIG, LossConfig
from .core import one_hot
from .distance import BoundaryContext, as_spacing, edt, level_set
from .errors import DegenerateInputError, SeglossError, TensorFileError, ValidationError
from .gradcheck import run_suite
from .optimize import optimize
from .registry import loss_entry, loss_names, prepare, resolve_params
from .relations import run_connection_checks, run_identity_checks
from .tensorio import file_digest, read_pgm, read_tensor, write_tensor

_CONFIG_KEYS = ("epsilon", "log_clamp", "include_background", "spacing", "params")


def _load_run_config(path, ndim: int) -> tuple[LossConfig, tuple[float, ...] | None, dict]:
    """Parse the optional JSON run config into (LossConfig, spacing, params),
    for inputs on a rank-``ndim`` grid.

    ``params`` maps loss name -> parameter overrides for that loss.
    """
    if path is None:
        return DEFAULT_CONFIG, None, {}
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: config must be a JSON object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ValidationError(
            f"{path}: unknown config keys: {', '.join(unknown)}; "
            f"allowed: {', '.join(_CONFIG_KEYS)}"
        )
    try:
        cfg = LossConfig(**{k: v for k, v in data.items() if k not in ("spacing", "params")})
        spacing = None if data.get("spacing") is None else as_spacing(data["spacing"], ndim)
        params = data.get("params", {})
        if not isinstance(params, dict):
            raise ValidationError("params must be an object keyed by loss name")
        for name, overrides in params.items():
            loss_entry(name)
            if not isinstance(overrides, dict):
                raise ValidationError(f"params for {name!r} must be an object")
            resolve_params(name, overrides)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc
    return cfg, spacing, params


def _parse_losses(spec: str) -> tuple[list[str], bool]:
    """Comma-separated loss names, or "all". Returns (names, was_all)."""
    names = [t.strip() for t in spec.split(",") if t.strip()]
    if not names:
        raise ValidationError("no loss names given")
    if "all" in names:
        if len(names) > 1:
            raise ValidationError("'all' cannot be combined with other loss names")
        return loss_names(), True
    for name in names:
        loss_entry(name)
    return list(dict.fromkeys(names)), False


def _parse_spacing(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise ValidationError(f"bad spacing {text!r}; expected comma-separated numbers") from None


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _cmd_eval(args) -> int:
    names, was_all = _parse_losses(args.loss)
    pred = read_tensor(args.pred, expect="probs")
    num_classes = pred.shape[-1]
    gt_labels = read_tensor(args.gt, expect="labels", num_classes=num_classes)
    if gt_labels.shape != pred.shape[:-1]:
        raise ValidationError(
            f"ground truth shape {gt_labels.shape} does not match "
            f"prediction grid {pred.shape[:-1]}"
        )
    cfg, spacing, params_over = _load_run_config(args.config, gt_labels.ndim)
    g = one_hot(gt_labels, num_classes)

    rows = []
    any_degenerate = False
    ctx = None  # the distance maps of g, shared by every loss that takes them
    for name in names:
        entry = loss_entry(name)
        params = resolve_params(name, params_over.get(name))
        if was_all and entry.binary_only and num_classes != 2:
            rows.append(
                {
                    "name": name,
                    "params": params,
                    "skipped": f"binary-only loss skipped for {num_classes} classes",
                }
            )
            continue
        if entry.maps and ctx is None:
            ctx = BoundaryContext(g, spacing)
        try:
            result = prepare(name, g, cfg, params, spacing, context=ctx)(pred)
        except DegenerateInputError as exc:
            rows.append({"name": name, "params": params, "error": str(exc), "degenerate": True})
            any_degenerate = True
            continue
        rows.append(
            {"name": name, "params": params, "value": result.value, "flags": list(result.flags)}
        )

    if args.format == "json":
        report = {
            "schema": "segloss-eval/1",
            "inputs": {
                "gt": {"path": str(args.gt), "sha256": file_digest(args.gt)},
                "pred": {"path": str(args.pred), "sha256": file_digest(args.pred)},
            },
            "config": {
                "epsilon": cfg.epsilon,
                "log_clamp": cfg.log_clamp,
                "include_background": cfg.include_background,
                "spacing": spacing,
            },
            "losses": rows,
        }
        _emit(json.dumps(report, indent=2), args.out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "value", "flags"])
        for row in rows:
            if "value" in row:
                writer.writerow([row["name"], repr(row["value"]), ";".join(row["flags"])])
            elif "skipped" in row:
                writer.writerow([row["name"], "", f"skipped: {row['skipped']}"])
            else:
                writer.writerow([row["name"], "", f"error: {row['error']}"])
        _emit(buf.getvalue(), args.out)
    return 3 if any_degenerate else 0


def _report_checks(rows: list[tuple[str, bool, str]], noun: str) -> int:
    """Print "name: PASS|FAIL detail" for each (name, passed, detail) row.
    Returns exit code 1, after counting the failures on stderr, if any failed."""
    failures = 0
    for name, passed, detail in rows:
        print(f"{name}: {'PASS' if passed else 'FAIL'} {detail}")
        failures += 0 if passed else 1
    if failures:
        print(f"{failures} of {len(rows)} {noun} failed", file=sys.stderr)
        return 1
    return 0


def _cmd_gradcheck(args) -> int:
    names = None if args.loss == "all" else _parse_losses(args.loss)[0]
    reports = run_suite(names=names, trials=args.trials, tol=args.tol, h=args.h, seed=args.seed)
    rows = [
        (rep.loss_name, rep.passed, f"max_rel_err={rep.max_rel_err:.3e} "
         f"(tol {rep.tolerance:g}, worst index {rep.worst_index})")
        for rep in reports
    ]
    return _report_checks(rows, "losses")


def _cmd_relations(args) -> int:
    checks = run_identity_checks(trials=args.trials, seed=args.seed)
    checks += run_connection_checks()
    rows = [
        (chk.name, chk.passed, f"max_abs_err={chk.max_abs_err:.3e} "
         f"(tol {chk.tolerance:g}, {chk.cases} cases)")
        for chk in checks
    ]
    return _report_checks(rows, "relation checks")


def _cmd_optimize(args) -> int:
    loss_entry(args.loss)
    gt_labels = read_tensor(args.gt, expect="labels")
    cfg, spacing, params_over = _load_run_config(args.config, gt_labels.ndim)
    traj = optimize(
        args.loss,
        gt_labels,
        steps=args.steps,
        lr=args.lr,
        seed=args.seed,
        cfg=cfg,
        params=params_over.get(args.loss),
        spacing=spacing,
    )
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["step", "loss", "dice_coefficient", "hausdorff"])
    for step, value, dice, hd in zip(traj.steps, traj.loss, traj.dice, traj.hausdorff):
        writer.writerow([int(step), repr(float(value)), repr(float(dice)), repr(float(hd))])
    _emit(buf.getvalue(), args.out)
    print(
        f"final: step={traj.steps[-1]} loss={traj.loss[-1]:.6g} "
        f"dice={traj.dice[-1]:.6g} hausdorff={traj.hausdorff[-1]:.6g}",
        file=sys.stderr,
    )
    return 0


def _cmd_dt(args) -> int:
    with open(args.mask, "rb") as fh:
        head = fh.read(2)
    if head in (b"P5", b"P2"):
        mask = read_pgm(args.mask)
    else:
        mask = read_tensor(args.mask, expect="mask")
    spacing = _parse_spacing(args.spacing)
    if args.signed:
        out = level_set(mask, spacing)
        if mask.all() or not mask.any():
            side = "all foreground" if mask.all() else "all background"
            print(
                f"note: mask is degenerate ({side}); writing sentinel distances",
                file=sys.stderr,
            )
    else:
        out = edt(mask, spacing)
        if not mask.any():
            print(
                "note: mask has no foreground; writing sentinel distances",
                file=sys.stderr,
            )
    write_tensor(args.out, out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="segloss",
        description="Segmentation loss toolbox: evaluation, gradient audits, "
        "identity checks, logit-descent demos, and distance transforms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="score a prediction file against a ground truth")
    p_eval.add_argument("--gt", required=True, help="label map (.ntf, uint8)")
    p_eval.add_argument("--pred", required=True, help="probability map (.ntf, float)")
    p_eval.add_argument(
        "--loss", required=True, help="comma-separated loss names, or 'all'"
    )
    p_eval.add_argument("--config", help="JSON run config (epsilon, spacing, params, ...)")
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.add_argument("--out", help="write the report here instead of stdout")
    p_eval.set_defaults(func=_cmd_eval)

    p_grad = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    p_grad.add_argument("--loss", default="all", help="comma-separated loss names, or 'all'")
    p_grad.add_argument("--trials", type=int, default=50)
    p_grad.add_argument("--tol", type=float, default=1e-5)
    p_grad.add_argument("--h", type=float, default=1e-6)
    p_grad.add_argument("--seed", type=int, default=0)
    p_grad.set_defaults(func=_cmd_gradcheck)

    p_rel = sub.add_parser("relations", help="check cross-loss identities and reductions")
    p_rel.add_argument("--trials", type=int, default=100)
    p_rel.add_argument("--seed", type=int, default=0)
    p_rel.set_defaults(func=_cmd_relations)

    p_opt = sub.add_parser("optimize", help="gradient descent on logits toward a ground truth")
    p_opt.add_argument("--loss", required=True)
    p_opt.add_argument("--gt", required=True, help="label map (.ntf, uint8)")
    p_opt.add_argument("--steps", type=int, required=True)
    p_opt.add_argument("--lr", type=float, required=True)
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.add_argument("--config", help="JSON run config")
    p_opt.add_argument("--out", help="write the CSV trajectory here instead of stdout")
    p_opt.set_defaults(func=_cmd_optimize)

    p_dt = sub.add_parser("dt", help="distance transform of a mask file")
    p_dt.add_argument("--mask", required=True, help="mask file (.ntf uint8 or binary PGM)")
    p_dt.add_argument("--out", required=True, help="output tensor (.ntf, float64)")
    p_dt.add_argument(
        "--signed", action="store_true", help="signed map (negative inside the mask)"
    )
    p_dt.add_argument("--spacing", help="comma-separated per-axis pixel spacing")
    p_dt.set_defaults(func=_cmd_dt)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegenerateInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TensorFileError, ValidationError, SeglossError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
