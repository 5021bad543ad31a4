"""chemolab benchmark: time to a verified ``chemolab run`` on three workloads.

    python3 benchmarks/run.py --workload ref2d_32 --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout.  The benchmark writes the
workload's inputs from ``--seed`` into ``.bench_work/<workload>/``, times
``setup_probe.py`` in fresh interpreters, lets ``runner.py`` repeat the run
for ``--seconds``, checks every run's outputs, and prints a summary followed
by one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics from spans recorded around the package's public
functions.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing
import workloads
from tracing import END, NAME, NOTE, PARENT, START

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference" / "ref2d_32.json"
SETUP_PROBES = 11  # fresh interpreters timed per run, after one warm-up
DEADLINE_S = 170.0
# Floor for the reference-row tolerance, relative to each column's scale over
# the run: the mass drift verify_run itself accepts.  Columns that sit at
# rounding level at t = 5 (masses, deviations, Dirichlet energies) would
# otherwise get a tolerance no reordering of the arithmetic could meet.
ROUNDING_FLOOR = 1e-10


def declared_units(kind: str) -> dict:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    return {m["name"]: m["unit"] for m in json.loads(SPEC.read_text())[kind]}


# ---------------------------------------------------------------- environment


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cache_sizes() -> dict:
    """CPU 0's caches as the kernel lists them, e.g. ``{"L1d": "48K"}``."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        out[f"L{level}" + {"Data": "d", "Instruction": "i"}.get(kind, "")] = size
    return out


def environment() -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "caches": cache_sizes(),
        "blas_threads": nproc(),
    }


def child_env(env_info: dict) -> dict:
    env = dict(os.environ)
    env.pop("CHEMOLAB_OUT", None)  # would redirect every run's outputs
    env.pop("PYTHONPATH", None)
    cap = str(env_info["blas_threads"])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = cap
    return env


# ---------------------------------------------------------------- verdict


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def reference_target(reference: dict) -> tuple[dict, dict]:
    """(target, tolerance) for the last diagnostics row of ``ref2d_32``.

    The stored runs are forward Euler, first order in dt, at cfl 0.5 and
    0.25 on 32^2 and 64^2.  Extrapolating each grid to dt -> 0 separates the
    two errors: the target is the 32^2 row without time error, and the
    tolerance is the 32 -> 64 difference of the extrapolated rows (the
    spatial error) plus the time error of the default 32^2 run.  A run whose
    time error is at most the current one passes; a sloppier one fails.
    """
    rows = reference["last_rows"]

    def dt_to_zero(cells):
        coarse, fine = rows[f"{cells}_cfl0.5"], rows[f"{cells}_cfl0.25"]
        return {k: 2.0 * fine[k] - coarse[k] for k in coarse}

    r32, r64 = dt_to_zero(32), dt_to_zero(64)
    current, scale = rows["32_cfl0.5"], reference["scale_32"]
    tolerance = {
        k: max(abs(r64[k] - r32[k]) + abs(current[k] - r32[k]), ROUNDING_FLOOR * scale[k])
        for k in r32
    }
    return r32, tolerance


def verdict(run: dict, wl: workloads.Workload, config: dict, reference) -> list[str]:
    """Problems with one run's outputs; an empty list means it is correct."""
    out = Path(run["out"])
    allowed = (0,) if wl.fully_verified else (0, 2)
    if run["exit"] not in allowed:
        return [f"exit code {run['exit']} not in {allowed}"]
    problems = []
    manifest = json.loads((out / "manifest.json").read_text())
    if manifest["outcome"] != "completed":
        problems.append(f"outcome {manifest['outcome']}")
    checks = {
        c["name"]: c["passed"]
        for c in json.loads((out / "verification.json").read_text())["checks"]
    }
    for name in workloads.CORE_CHECKS:
        if not checks.get(name, False):
            problems.append(f"check {name} failed")
    if wl.fully_verified and not (len(checks) >= 8 and all(checks.values())):
        problems.append("not every check passed")

    rows = read_rows(out / "diagnostics.csv")
    t_end = config["time"]["t_end"]
    every = config["output"]["every"] if "output" in config else t_end / 200.0
    expected = math.ceil(t_end / every - 1e-9) + 1
    if len(rows) != expected:
        problems.append(f"{len(rows)} diagnostics rows, expected {expected}")
    last = {k: float(v) for k, v in rows[-1].items()}
    if last["t"] != t_end:
        problems.append(f"last sample at t={last['t']}, expected {t_end}")

    cells = config["grid"]["cells"]
    dv = math.prod(L / m for L, m in zip(config["grid"]["lengths"], cells))
    for name in ("u", "v", "w"):
        arr = np.fromfile(out / f"final_{name}.raw", dtype="<f8")
        if arr.size != math.prod(cells) or not np.all(np.isfinite(arr)):
            problems.append(f"final_{name}.raw is malformed")
            continue
        if name in ("u", "v"):
            if not arr.min() > 0.0:
                problems.append(f"final {name} is not positive")
            mass = dv * float(np.sum(arr))
            if abs(mass - last[f"mass_{name}"]) > 1e-12 * abs(mass):
                problems.append(f"final {name} mass disagrees with the last row")
        elif arr.min() < 0.0:
            problems.append("final w is negative")

    if reference is not None:
        target, tol = reference_target(reference)
        for k, ref in target.items():
            if not abs(last[k] - ref) <= tol[k]:
                problems.append(
                    f"{k} = {last[k]!r} is off the reference {ref!r} by more than {tol[k]:.3g}"
                )
    return problems


# ---------------------------------------------------------------- per-layer


def layer_metrics(traced: list[dict], spans_per_run: list[list], cells: int,
                  untraced_walls: list[float]) -> dict:
    """Per-layer metrics from the spans of every traced run."""
    durations: dict[str, list[float]] = {}
    per_run: dict[str, list[float]] = {}

    def add_run(key, value):
        per_run.setdefault(key, []).append(value)

    step_self = []
    landed = steps = 0
    for run, spans in zip(traced, spans_per_run):
        selfs = tracing.self_times(spans)
        wall = run["wall_s"]
        totals: dict[str, float] = {}
        counts: dict[str, int] = {}
        layer_self: dict[str, float] = {}
        tree_self = 0.0
        root = next(i for i, s in enumerate(spans) if s[NAME] == "cli.main")
        in_tree = [False] * len(spans)
        for i, span in enumerate(spans):
            name = span[NAME]
            d = span[END] - span[START]
            durations.setdefault(name, []).append(d)
            totals[name] = totals.get(name, 0.0) + d
            counts[name] = counts.get(name, 0) + 1
            in_tree[i] = i == root or (span[PARENT] >= 0 and in_tree[span[PARENT]])
            if in_tree[i]:
                layer = tracing.layer_of(name)
                layer_self[layer] = layer_self.get(layer, 0.0) + selfs[i]
                tree_self += selfs[i]
            if name == "solver.step":
                step_self.append(selfs[i])
        run_landed, run_steps = tracing.landed_steps(spans)
        landed += run_landed
        steps += run_steps
        step_bytes = sum(s[NOTE][1] for s in spans if s[NAME] == "solver.step" and isinstance(s[NOTE], list))
        step_bytes += sum(s[NOTE] for s in spans if s[NAME] == "solver.rhs" and isinstance(s[NOTE], int))
        errors = [s[NOTE] for s in spans if s[NAME] == "solver.step"]
        run_idx = next(i for i, s in enumerate(spans) if s[NAME] == "solver.run")

        add_run("solver.steps", run_steps)
        add_run("solver.loop_self_s", selfs[run_idx])
        add_run("solver.cell_steps_per_s", cells * run_steps / (spans[run_idx][END] - spans[run_idx][START]))
        add_run("solver.step_bytes_computed", step_bytes / max(run_steps, 1))
        add_run("solver.positivity_errors", errors.count("PositivityError"))
        add_run("solver.blowups", errors.count("BlowUpDetected"))
        add_run("diagnostics.records", counts.get("diagnostics.record", 0))
        add_run("diagnostics.verify_run_ms", 1e3 * totals.get("diagnostics.verify_run", 0.0))
        add_run("weight.construct_ms", 1e3 * sum(
            totals.get(n, 0.0) for n in
            ("weight.make_weight", "weight.epsilon_for_threshold", "weight.p_for_equality")))
        add_run("model.build_ms", 1e3 * totals.get("model.InitialSpec.build", 0.0))
        add_run("model.validate_ms", 1e3 * totals.get("model.validate_initial_data", 0.0))
        add_run("config.parse_ms", 1e3 * totals.get("config.parse_config", 0.0))
        add_run("config.digest_ms", 1e3 * totals.get("config.config_digest", 0.0))
        add_run("cli.write_csv_ms", 1e3 * totals.get("cli.write_diagnostics_csv", 0.0))
        add_run("cli.csv_bytes", (Path(run["out"]) / "diagnostics.csv").stat().st_size)
        add_run("cli.snapshot_ms", 1e3 * totals.get("cli.write_snapshot", 0.0))
        add_run("cli.self_ms", 1e3 * selfs[root])
        for layer in ("cli", "config", "model", "solver", "diagnostics", "weight"):
            add_run(f"{layer}.busy_share", layer_self.get(layer, 0.0) / wall)
        add_run("trace.unaccounted_share", (wall - tree_self) / wall)
        # The stepping share is solver.busy_share: step, rhs, stable_dt and
        # the loop's own time are the whole solver layer.
        diag_output = sum(totals.get(n, 0.0) for n in (
            "diagnostics.record", "diagnostics.verify_run",
            "cli.write_diagnostics_csv", "cli.write_snapshot"))
        add_run("run.diag_output_share", diag_output / wall)

    metrics = {k: tracing.median(v) for k, v in per_run.items()}

    def per_call(key, name, scale=1e6, q=50):
        # A layer that never ran (say, after a failed run) reads 0.
        metrics[key] = tracing.percentile(durations.get(name) or [0.0], q) * scale

    per_call("solver.step_us_p50", "solver.step")
    per_call("solver.step_us_p99", "solver.step", q=99)
    per_call("solver.rhs_us_p50", "solver.rhs")
    per_call("solver.stable_dt_us_p50", "solver.stable_dt")
    metrics["solver.step_self_us_p50"] = tracing.percentile(step_self or [0.0], 50) * 1e6
    metrics["solver.landed_frac"] = landed / max(steps, 1)
    per_call("diagnostics.record_us_p50", "diagnostics.record")
    per_call("diagnostics.lyapunov_us_p50", "diagnostics.lyapunov")
    per_call("diagnostics.dirichlet_energy_us_p50", "diagnostics.dirichlet_energy")
    per_call("weight.phi_us_p50", "weight.phi")
    per_call("model.read_field_raw_ms", "model.read_field_raw", scale=1e3)
    per_call("model.write_field_raw_ms", "model.write_field_raw", scale=1e3)
    traced_walls = [r["wall_s"] for r in traced]
    metrics["trace.overhead_s"] = tracing.median(traced_walls) - tracing.median(untraced_walls)
    return metrics


# ---------------------------------------------------------------- command line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "chemolab" / "__init__.py").is_file():
        print(f"error: no chemolab source tree under {root}/src", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    work = root / ".bench_work" / wl.name
    shutil.rmtree(work, ignore_errors=True)
    config_path = workloads.generate(wl.name, args.seed, work / "inputs")
    config = json.loads(config_path.read_text())
    reference = json.loads(REFERENCE.read_text()) if wl.fully_verified else None

    env_info = environment()
    env = child_env(env_info)
    py = sys.executable

    def remaining() -> float:
        return DEADLINE_S - (time.perf_counter() - started)

    setup = []
    for i in range(SETUP_PROBES + 1):
        probe = subprocess.run(
            [py, str(HERE / "setup_probe.py"), str(config_path)],
            env=env, capture_output=True, text=True, timeout=remaining(), check=True,
        )
        if i:  # the first probe warms the bytecode and file caches
            setup.append(json.loads(probe.stdout)["setup_s"])

    result_path = work / "runner.json"
    spans_path = work / "spans.json"
    cmd = [py, str(HERE / "runner.py"), "--config", str(config_path),
           "--runs-dir", str(work / "runs"), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--result", str(result_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    child = subprocess.run(cmd, env=env, timeout=remaining())
    if child.returncode != 0:
        print(f"error: runner exited {child.returncode}", file=sys.stderr)
        return 1
    runner = json.loads(result_path.read_text())
    runs = runner["runs"]

    failed = 0
    for i, run in enumerate(runs):
        try:
            problems = verdict(run, wl, config, reference)
        except (OSError, ValueError, KeyError) as exc:
            problems = [f"unreadable outputs: {exc!r}"]
        if problems:
            failed += 1
            print(f"run {i} FAILED: " + "; ".join(problems))
    first_csv = Path(runs[0]["out"]) / "diagnostics.csv"
    if reference is not None and first_csv.is_file():
        digest = hashlib.sha256(first_csv.read_bytes()).hexdigest()
        same = digest == reference["diagnostics_sha256_32"]
        print(f"diagnostics.csv byte-identical to the stored 32^2 run: {'yes' if same else 'no'}")
    attempted = len(runs)
    untraced = [r["wall_s"] for r in runs if not r["traced"]]
    q1, wall, q3 = tracing.quartiles(untraced)

    print(f"env: {json.dumps(env_info)}")
    print(
        f"{wl.name} seed {args.seed} trace {args.trace}: "
        f"run_wall_s {wall:.4f} s (median of {len(untraced)}, q1 {q1:.4f}, q3 {q3:.4f}); "
        f"setup_s {tracing.median(setup):.4f} s (median of {len(setup)}); "
        f"peak_rss_mb {runner['peak_rss_mb']:.1f} MB; "
        f"run_fail_frac {failed / attempted:.3f} ({failed}/{attempted})"
    )

    if args.trace:
        traced = [r for r in runs if r["traced"]]
        spans = json.loads(spans_path.read_text())
        values = layer_metrics(traced, spans, math.prod(config["grid"]["cells"]), untraced)
        values.update(runner["probe"])
        units = declared_units("per_layer")
    else:
        values = {
            "run_wall_s": wall,
            "setup_s": tracing.median(setup),
            "peak_rss_mb": runner["peak_rss_mb"],
        }
        units = declared_units("end_to_end")
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}")
    if args.trace:
        for key, unit in units.items():
            print(f"  {key} = {values[key]:.6g} {unit}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
