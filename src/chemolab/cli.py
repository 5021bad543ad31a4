"""Command-line entry points: scenario runs with bit-stable outputs,
threshold reports, weight-function tables and refinement studies.

Exit codes for ``run``: 0 completed with all checks passing, 2 completed
with a failed check, 3 the run ended early (blow-up, positivity loss or a
stalled step; the manifest holds the failure under the outcome's name),
1 configuration or I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import config_digest, parse_config
from .convergence import refinement_study
from .diagnostics import COLUMNS, TABLE_DTYPE, verify_run
from .model import threshold_check, write_field_raw
from .solver import RunResult, SolverError, run, threshold_weight
from .weight import make_weight

__all__ = ["main", "read_diagnostics_csv", "write_diagnostics_csv"]


def write_diagnostics_csv(records, path) -> None:
    """One header row, one row per sample, columns in :data:`COLUMNS` order.

    Values are Python floats in full-precision decimal form (``repr``
    round-trips them exactly); a NaN is an empty cell.  Rows go to the file
    one at a time and the text is never held whole: a run holds only its
    table (120 bytes per sample) and one block of samples.
    """
    with Path(path).open("w") as f:
        f.write(",".join(COLUMNS) + "\n")
        f.writelines(  # each row's floats from a 2-D view, one row at a time
            ",".join(["" if math.isnan(x) else repr(x) for x in row.tolist()]) + "\n"
            for row in records.view(float).reshape(len(records), len(COLUMNS))
        )


def read_diagnostics_csv(path) -> np.ndarray:
    """Inverse of :func:`write_diagnostics_csv` (round-trip exact), read one
    line at a time into a table of :data:`TABLE_DTYPE`; a row with the wrong
    number of cells, a cell that is not a float, or a NaN written out as a
    value raises ``ValueError`` naming the file and its line."""
    with Path(path).open() as f:
        if f.readline().rstrip("\n").split(",") != list(COLUMNS):
            raise ValueError(f"{path} is not a diagnostics CSV")
        rows = []
        for lineno, line in enumerate(f, start=2):
            cells = line.rstrip("\n").split(",")
            try:
                if len(cells) != len(COLUMNS):
                    raise ValueError(f"{len(cells)} cells, expected {len(COLUMNS)}")
                rows.append(tuple(float(c) if c else math.nan for c in cells))
                if sum(map(math.isnan, rows[-1])) > cells.count(""):
                    raise ValueError("a NaN cell; the format writes NaN as an empty cell")
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: {exc}") from None
    return np.array(rows, TABLE_DTYPE)


def _write_json(obj, path) -> None:
    """Strict JSON: a non-finite float is written as null, not as a bare NaN
    or Infinity token, which strict readers refuse."""
    plain = json.loads(json.dumps(obj), parse_constant=lambda token: None)
    Path(path).write_text(json.dumps(plain, indent=2, allow_nan=False) + "\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _write_snapshot(result: RunResult, outdir: Path) -> list[str]:
    """Final fields in the raw format plus a grid-metadata sidecar, so a
    later config can restart from them via file initializers."""
    state, ctx = result.final_state, result.context
    fields = {name: f"final_{name}.raw" for name in ("u", "v", "w")}
    for name, fname in fields.items():
        write_field_raw(getattr(state, name), outdir / fname)
    sidecar = {
        "t": state.t,
        "grid": asdict(ctx.grid),
        "params": asdict(ctx.params),
        "fields": fields,
    }
    _write_json(sidecar, outdir / "final_state.json")
    return [*fields.values(), "final_state.json"]


def cmd_run(args) -> int:
    """Write every output file first and print afterwards, so a closed
    stdout cannot cost the run its outputs."""
    config = parse_config(args.config)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    started = _now()

    result = run(config)
    advisory = threshold_check(config.params, result.context.w0_max, config.grid.dim)
    lines = [
        f"threshold advisory: max(m1, m2) = {max(advisory.m1, advisory.m2):.6g} "
        f"vs bound {advisory.bound:.6g} -> "
        f"{'within' if advisory.within else 'ABOVE (run proceeds anyway)'}"
    ]
    if result.context.weight_note:
        lines.append(f"weight note: {result.context.weight_note}")

    write_diagnostics_csv(result.records, outdir / "diagnostics.csv")
    files = ["diagnostics.csv", *_write_snapshot(result, outdir)]

    # which verdicts rest on the paper's theorem, and why a weight is missing
    about = {"threshold": asdict(advisory), "weight_note": result.context.weight_note}
    manifest = {
        "config_digest": config_digest(config),
        "tool_version": __version__,
        "started": started,
        "outcome": result.outcome,
        "steps": result.steps,
        **about,
        "files": files,
    }
    if result.failure is None:
        report = verify_run(result.records, result.context)
        _write_json(report.to_dict() | about, outdir / "verification.json")
        files.append("verification.json")
        manifest["checks_passed"] = report.passed
        for check in report:
            lines.append(
                f"check {check.name}: {'pass' if check.passed else 'FAIL'} "
                f"(value {check.value:.6g}, threshold {check.threshold:.6g})"
            )
        code = 0 if report.passed else 2
    else:  # an earlier run's report in this directory would contradict the outcome
        (outdir / "verification.json").unlink(missing_ok=True)
        manifest[result.outcome] = result.failure.to_dict()
        lines.append(f"run ended early ({result.outcome}): {result.failure}")
        code = 3
    manifest["finished"] = _now()
    _write_json(manifest, outdir / "manifest.json")
    lines.append(f"outputs in {outdir}")
    if not args.quiet:
        print("\n".join(lines))
    return code


def cmd_threshold(args) -> int:
    from .model import ModelParams

    for flag, chi in (("--chi1", args.chi1), ("--chi2", args.chi2)):
        if not (chi > 0.0 and math.isfinite(chi)):
            raise ValueError(f"{flag} must be a positive real, got {chi}")
    params = ModelParams(chi1=args.chi1, chi2=args.chi2, alpha=1.0, beta=1.0)
    report = threshold_check(params, args.w0max, args.n)
    m = max(report.m1, report.m2)
    rows = [
        ("n", str(args.n)),
        ("chi1, chi2", f"{args.chi1:.12g}, {args.chi2:.12g}"),
        ("||w0||_inf", f"{args.w0max:.12g}"),
        ("m1 = chi1*||w0||_inf", f"{report.m1:.12g}"),
        ("m2 = chi2*||w0||_inf", f"{report.m2:.12g}"),
        ("bound sqrt(2/n)*pi", f"{report.bound:.12g}"),
        ("within", "yes" if report.within else "no"),
    ]
    if not report.within:
        rows.append(("construction", "n/a (above threshold)"))
    else:  # the weight a run with this amplitude uses, or its note
        weight, note = threshold_weight(m, args.n)
        if weight is not None:
            rows.append(("eps", f"{weight.eps:.12g}"))
            rows.append(("p", f"{weight.p:.12g}"))
            rows.append(("p > n/2", "yes" if weight.p > args.n / 2.0 else "no"))
        if note:
            rows.append(("weight note", note))
    width = max(len(label) for label, _ in rows)
    for label, value in rows:
        print(f"{label:<{width}} : {value}")
    return 0


def cmd_analyze_weight(args) -> int:
    if args.samples < 1:
        raise ValueError(f"--samples must be at least 1, got {args.samples}")
    wf = make_weight(args.p, args.eps, args.m)
    s = np.linspace(0.0, wf.m, args.samples)
    phi = wf.phi(s)
    dphi = wf.phi_prime(s)
    ddphi = wf.phi_second(s)
    res = wf.identity_residual(s)
    print(f"{'s':>24} {'phi':>24} {'phi_prime':>24} {'phi_second':>24} {'residual':>13}")
    for row in zip(s, phi, dphi, ddphi, res):
        print(
            f"{row[0]:>24.16e} {row[1]:>24.16e} {row[2]:>24.16e} "
            f"{row[3]:>24.16e} {row[4]:>13.3e}"
        )
    max_res = float(np.max(np.abs(res)))
    phi_m = float(wf.phi(wf.m))
    print(
        f"max |residual| = {max_res:.3e} over {args.samples} samples "
        f"(scale max(1, phi(m)) = {max(1.0, phi_m):.6g})"
    )
    return 0


def cmd_convergence(args) -> int:
    if args.levels < 3:
        raise ValueError(f"--levels must be at least 3 for an order, got {args.levels}")
    config = parse_config(args.config)
    study = refinement_study(config, levels=args.levels)
    header = f"{'cells':>14}"
    for name in ("u", "v", "w"):
        header += f" {'err_' + name:>12} {'ord_' + name:>8}"
    print(header)
    for i, cells in enumerate(study.cells):
        row = f"{'x'.join(str(m) for m in cells):>14}"
        for name in ("u", "v", "w"):
            err = f"{study.errors[i][name]:.4e}" if i < len(study.errors) else "-"
            order = f"{study.orders[i][name]:.3f}" if i < len(study.orders) else "-"
            row += f" {err:>12} {order:>8}"
        print(row)
    print(f"observed order (u) = {study.observed_order('u'):.3f}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chemolab",
        description=(
            "Finite-volume simulator and analysis toolkit for two-species "
            "chemotaxis with signal absorption"
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a scenario and emit diagnostics")
    p_run.add_argument("--config", required=True, help="scenario config JSON")
    p_run.add_argument("--out", default=".", help="output directory")
    p_run.add_argument("--quiet", action="store_true", help="suppress progress messages")
    p_run.set_defaults(func=cmd_run)

    p_thr = sub.add_parser("threshold", help="boundedness threshold report")
    p_thr.add_argument("--n", type=int, required=True, help="spatial dimension")
    p_thr.add_argument("--chi1", type=float, required=True)
    p_thr.add_argument("--chi2", type=float, required=True)
    p_thr.add_argument("--w0max", type=float, required=True, help="||w0||_inf")
    p_thr.set_defaults(func=cmd_threshold)

    p_aw = sub.add_parser("analyze-weight", help="weight function sample table")
    p_aw.add_argument("--p", type=float, required=True)
    p_aw.add_argument("--eps", type=float, required=True)
    p_aw.add_argument("--m", type=float, required=True, help="signal amplitude bound")
    p_aw.add_argument("--samples", type=int, default=1000)
    p_aw.set_defaults(func=cmd_analyze_weight)

    p_cv = sub.add_parser("convergence", help="grid-refinement order study")
    p_cv.add_argument("--config", required=True, help="base scenario config JSON")
    p_cv.add_argument("--levels", type=int, default=3)
    p_cv.set_defaults(func=cmd_convergence)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # here, not at exit, where a closed pipe is exit 120
        return code
    except (SolverError, ValueError) as exc:  # a ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a grid or table beyond any address space
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # send what is still buffered nowhere
            with contextlib.suppress(AttributeError, OSError):  # stdout has no descriptor
                stdout = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), stdout)
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
