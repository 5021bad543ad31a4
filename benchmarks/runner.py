"""Child process that runs one workload through ``chemolab.cli.main``.

Started by ``run.py`` in a fresh interpreter, so its peak resident memory
belongs to the workload alone.  It repeats ``chemolab run`` on the generated
config until the next run would end past ``--seconds``, then writes one JSON
result.  With ``--trace 1`` it first times the continuity probe, then
alternates untraced runs (the base for the tracing overhead) with traced
runs, whose spans it writes to ``--spans`` when it exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from chemolab import cli, model  # noqa: E402

import tracing  # noqa: E402


def run_once(config: Path, out: Path) -> dict:
    argv = ["run", "--config", str(config), "--out", str(out), "--quiet"]
    started = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception as exc:  # a crash is a failed run, not a failed benchmark
        traceback.print_exc()
        code = f"raised {type(exc).__name__}"
    wall = time.perf_counter() - started
    return {"wall_s": wall, "exit": code, "out": str(out)}


def read_back(out: Path, grid) -> None:
    """Read the final snapshot back through the public raw reader, as a
    restart would."""
    for name in ("u", "v", "w"):
        model.read_field_raw(out / f"final_{name}.raw", grid)


def _per_call(fn, reps: int) -> float:
    times = []
    for _ in range(reps):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


def continuity_probe() -> dict:
    """Per-call times of rhs, stable_dt, step and record on the reference
    scenario's initial state at 64^2 and 256^2 (the ROADMAP baseline sizes)."""
    from chemolab import diagnostics, solver, weight

    out = {}
    for cells, reps, scale, unit in ((64, 200, 1e6, "us"), (256, 40, 1e3, "ms")):
        grid = model.Grid(lengths=(1.0, 1.0), cells=(cells, cells))
        spec = model.InitialSpec(
            u=model.CosineBumpInit(base=1.0, amplitude=0.5, modes=(1, 1)),
            v=model.CosineBumpInit(base=1.0, amplitude=0.25, modes=(1, 0)),
            w=model.CosineBumpInit(base=0.25, amplitude=0.25, modes=(1, 0)),
        )
        init = model.validate_initial_data(*spec.build(grid), grid)
        params = model.ModelParams(chi1=1.0, chi2=1.0, alpha=1.0, beta=1.0)
        opts = solver.SchemeOptions(advection="central")
        m = init.w0_max
        eps = weight.epsilon_for_threshold(m, 2)
        ctx = diagnostics.RunContext(
            grid=grid, params=params, ubar0=init.ubar0, vbar0=init.vbar0,
            w0_max=m, int_w0_sq=float((init.w**2).sum()) * grid.volume_element,
            weight=weight.make_weight(weight.p_for_equality(m, eps), eps, m),
        )
        state = model.State(t=0.0, u=init.u, v=init.v, w=init.w)
        dt = solver.stable_dt(state, params, grid, opts)
        first = diagnostics.record(state, ctx, None)
        calls = {
            "rhs": lambda: solver.rhs(state, params, grid, opts),
            "stable_dt": lambda: solver.stable_dt(state, params, grid, opts),
            "step": lambda: solver.step(state, dt, params, grid, opts),
            "record": lambda: diagnostics.record(state, ctx, first),
        }
        for name, fn in calls.items():
            out[f"probe.{name}_{unit}_{cells}"] = _per_call(fn, reps) * scale
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--runs-dir", type=Path, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"chemolab imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 3

    started = time.perf_counter()
    result = {"runs": [], "probe": {}}
    traced_spans = []
    if args.trace:
        result["probe"] = continuity_probe()
        grid = cli.parse_config(args.config).grid
    runs = result["runs"]
    while True:
        # A traced pass alternates untraced and traced runs, so that the
        # tracing overhead compares runs made under the same host load.
        traced = bool(args.trace) and len(runs) % 2 == 1
        out = args.runs_dir / f"run_{len(runs):03d}"
        if traced:
            tracer = tracing.Tracer()
            tracing.install(tracer)
            try:
                run = run_once(args.config, out)
                if (out / "final_u.raw").is_file():
                    read_back(out, grid)
            finally:
                tracer.restore()
            traced_spans.append(tracer.spans)
        else:
            run = run_once(args.config, out)
        run["traced"] = traced
        runs.append(run)
        walls = [r["wall_s"] for r in runs if r["traced"] == traced]
        elapsed = time.perf_counter() - started
        if args.trace and not any(r["traced"] for r in runs):
            continue  # a traced pass needs at least one traced run
        if elapsed + statistics.median(walls) > args.seconds:
            break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.result.write_text(json.dumps(result))
    if args.spans is not None:
        args.spans.write_text(json.dumps(traced_spans))
    return 0


if __name__ == "__main__":
    sys.exit(main())
