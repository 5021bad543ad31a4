"""Spans recorded from outside the package, and the arithmetic over them.

The tracer replaces public functions at the place they are looked up: the
names ``cli`` and ``solver`` import from other modules, the module globals
``step`` and ``record`` call, and two methods on their classes.  Each call
becomes a span ``[name, start, end, parent, note]`` kept in memory; the
runner writes them out when it exits.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import functools
from array import array
import math
import statistics
import time

# ---------------------------------------------------------------- statistics


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """(Q1, median, Q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


# ---------------------------------------------------------------- recording

NAME, START, END, PARENT, NOTE = range(5)


class Tracer:
    """In-memory span recorder; one per traced run.

    Spans live in flat arrays rather than one object per span, so that a
    run of a hundred thousand spans does not wake the garbage collector.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.notes: dict[int, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @property
    def spans(self) -> list[list]:
        """Every span as ``[name, start, end, parent, note]``."""
        return [
            [name, s, e, p, self.notes.get(i)]
            for i, (name, s, e, p) in enumerate(
                zip(self.names, self.starts, self.ends, self.parents)
            )
        ]

    def wrap(self, name: str, fn, note=None):
        """Return ``fn`` recording one span per call.

        ``note(args, kwargs, result)`` may attach a value to the span; a
        call that raises is noted with the exception's class name.
        """
        names, starts, ends, parents = self.names, self.starts, self.ends, self.parents
        notes, stack, clock = self.notes, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                ends[idx] = clock()
                notes[idx] = type(exc).__name__
                raise
            finally:
                stack.pop()
            ends[idx] = clock()
            if note is not None:
                notes[idx] = note(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, note=None) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, note))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def _stable_dt_note(args, kwargs, result):
    return result


def _step_note(args, kwargs, result):
    """(dt, bytes of the state read and the state written)."""
    state = args[0]
    dt = args[1] if len(args) > 1 else kwargs["dt"]
    moved = sum(a.nbytes for a in (state.u, state.v, state.w, result.u, result.v, result.w))
    return (dt, moved)


def _rhs_note(args, kwargs, result):
    return sum(a.nbytes for a in result)


def install(tracer: Tracer) -> None:
    """Wrap every traced boundary of the chemolab modules."""
    from chemolab import cli, diagnostics, model, solver, weight

    for attr, name in (
        ("main", "cli.main"),
        ("parse_config", "config.parse_config"),
        ("config_digest", "config.config_digest"),
        ("threshold_check", "model.threshold_check"),
        ("write_field_raw", "model.write_field_raw"),
        ("run", "solver.run"),
        ("verify_run", "diagnostics.verify_run"),
        ("write_diagnostics_csv", "cli.write_diagnostics_csv"),
        ("_write_snapshot", "cli.write_snapshot"),
    ):
        tracer.patch(cli, attr, name)
    for attr, name in (
        ("validate_initial_data", "model.validate_initial_data"),
        ("make_weight", "weight.make_weight"),
        ("epsilon_for_threshold", "weight.epsilon_for_threshold"),
        ("p_for_equality", "weight.p_for_equality"),
        ("record", "diagnostics.record"),
    ):
        tracer.patch(solver, attr, name)
    tracer.patch(solver, "stable_dt", "solver.stable_dt", _stable_dt_note)
    tracer.patch(solver, "step", "solver.step", _step_note)
    tracer.patch(solver, "rhs", "solver.rhs", _rhs_note)
    tracer.patch(diagnostics, "lyapunov", "diagnostics.lyapunov")
    tracer.patch(diagnostics, "dirichlet_energy", "diagnostics.dirichlet_energy")
    tracer.patch(model, "read_field_raw", "model.read_field_raw")
    tracer.patch(model.InitialSpec, "build", "model.InitialSpec.build")
    tracer.patch(weight.WeightFunction, "phi", "weight.phi")


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest strictly, so the children of a span
    never overlap and their durations add up to the time they cover.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, covered)]


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def landed_steps(spans) -> tuple[int, int]:
    """(landed, total) steps.  A step is landed when its dt is below the
    value ``stable_dt`` returned just before it, i.e. it was shortened to
    hit an output time."""
    landed = total = 0
    last_stable = math.inf
    for span in spans:
        if span[NAME] == "solver.stable_dt" and isinstance(span[NOTE], float):
            last_stable = span[NOTE]
        elif span[NAME] == "solver.step" and isinstance(span[NOTE], (list, tuple)):
            total += 1
            if span[NOTE][0] < last_stable:
                landed += 1
    return landed, total
