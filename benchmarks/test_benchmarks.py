"""Self-tests of the benchmark's own arithmetic and input generator.

    python3 -m pytest -q benchmarks/test_benchmarks.py
"""

import json
import math
import statistics

import numpy as np
import pytest

import run
import tracing
import workloads
from tracing import NOTE


def test_median_and_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 6.0, 8.0, 10.0]
    q1, q2, q3 = tracing.quartiles(values)
    assert [q1, q2, q3] == statistics.quantiles(values, n=4)
    assert q2 == tracing.median(values) == 5.5
    assert tracing.quartiles([2.5]) == (2.5, 2.5, 2.5)


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert tracing.percentile(values, 50) == 50
    assert tracing.percentile(values, 99) == 99
    assert tracing.percentile(values, 100) == 100
    assert tracing.percentile([3.0], 99) == 3.0
    # With 20 samples the median is the highest percentile that leaves ten
    # samples beyond it.
    twenty = list(range(20))
    assert sum(v > tracing.percentile(twenty, 50) for v in twenty) == 10


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_under_nested_spans():
    # Ticks in call order: main, step, rhs, rhs end, rhs, rhs end, step end,
    # main end -> main [0, 10], step [1, 7], rhs [2, 3] and [4, 6].
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 10.0]))
    leaf = tracer.wrap("solver.rhs", lambda: None)

    def middle():
        leaf()
        leaf()

    tracer.wrap("cli.main", tracer.wrap("solver.step", middle))()
    assert [s[tracing.NAME] for s in tracer.spans] == [
        "cli.main", "solver.step", "solver.rhs", "solver.rhs"]
    assert [s[tracing.PARENT] for s in tracer.spans] == [-1, 0, 1, 1]
    assert tracing.self_times(tracer.spans) == [4.0, 3.0, 1.0, 2.0]


def test_wrapped_exception_is_noted_and_stack_unwinds():
    tracer = tracing.Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("solver.step", boom)()
    assert tracer.spans[0][NOTE] == "ValueError"
    tracer.wrap("solver.rhs", lambda: None)()
    assert tracer.spans[1][tracing.PARENT] == -1


def test_patch_and_restore():
    class Owner:
        def f(self, x):
            return 2 * x

    original = Owner.f
    tracer = tracing.Tracer()
    tracer.patch(Owner, "f", "model.f")
    assert Owner().f(3) == 6
    assert len(tracer.spans) == 1
    tracer.restore()
    assert Owner.f is original


def test_landed_step_classification():
    def stable(dt):
        return ["solver.stable_dt", 0.0, 0.0, 0, dt]

    def step(dt):
        return ["solver.step", 0.0, 0.0, 0, [dt, 0]]

    spans = [
        stable(1.0), step(1.0),      # full step
        stable(1.0), step(0.5),      # shortened to land on an output time
        stable(0.25), step(0.25),    # full step at a smaller bound
        stable(1.0), ["solver.step", 0.0, 0.0, 0, "PositivityError"],
    ]
    assert tracing.landed_steps(spans) == (1, 3)


def test_reference_target_separates_time_and_space_errors():
    def rows(a, b):
        return {"a": a, "b": b}

    reference = {
        "last_rows": {
            "32_cfl0.5": rows(1.0, 2.0),
            "32_cfl0.25": rows(1.1, 2.0),
            "64_cfl0.5": rows(1.3, 2.0),
            "64_cfl0.25": rows(1.35, 2.0),
        },
        "scale_32": rows(1.0, 4.0),
    }
    target, tol = run.reference_target(reference)
    # dt -> 0: 32^2 gives 1.2, 64^2 gives 1.4; the default run's time error
    # is 0.2 and the spatial difference 0.2.
    assert target["a"] == pytest.approx(1.2)
    assert tol["a"] == pytest.approx(0.4)
    assert target["b"] == 2.0
    assert tol["b"] == run.ROUNDING_FLOOR * 4.0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_seeded_and_keeps_hypotheses(name, tmp_path):
    wl = workloads.WORKLOADS[name]
    for seed in range(20):
        a = workloads.generate(name, seed, tmp_path / f"a{seed}")
        b = workloads.generate(name, seed, tmp_path / f"b{seed}")
        files = sorted(p.name for p in a.parent.iterdir())
        for fname in files:
            assert (a.parent / fname).read_bytes() == (b.parent / fname).read_bytes()
        config = json.loads(a.read_text())
        assert config["grid"]["cells"] == list(wl.cells)
        for field in ("u", "v", "w"):
            spec = config["initial"][field]
            if spec["kind"] == "file":
                arr = np.fromfile(a.parent / spec["path"], dtype="<f8")
                assert arr.size == math.prod(wl.cells)
                assert arr.min() > 0.0
                if field == "w":
                    assert arr.max() < workloads.threshold(len(wl.cells))


def test_benchmark_json_declares_what_run_reports():
    spec = json.loads(run.SPEC.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(run.declared_units("end_to_end")) == {"run_wall_s", "setup_s", "peak_rss_mb"}
    per_layer = run.declared_units("per_layer")
    assert per_layer["solver.steps"] == "count"
    assert {f"probe.{f}_us_64" for f in ("rhs", "stable_dt", "step", "record")} <= set(per_layer)
