"""Grid-refinement and time-step self-convergence studies.

Both studies run a list of configs to the same t_end, restrict every final
state onto the base grid and take per-field L2 distances between
consecutive runs.  Cell averages nest exactly under 2x refinement of a box
mesh, so a finer solution restricts onto the base grid by block averaging,
and observed orders come out of successive distances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Grid, ScenarioConfig, _integrals
from .solver import run

__all__ = ["RefinementStudy", "self_differences", "refinement_study", "time_order_study"]

FIELDS = ("u", "v", "w")


def _restrict(field: np.ndarray, factor: int) -> np.ndarray:
    """Block-average a fine cell field onto the coarser grid."""
    if factor == 1:
        return field
    out = field
    for axis in range(field.ndim):
        m = out.shape[axis] // factor
        shape = out.shape[:axis] + (m, factor) + out.shape[axis + 1 :]
        out = out.reshape(shape).mean(axis=axis + 1)
    return out


def self_differences(
    runs: list[tuple[str, ScenarioConfig]], base: Grid
) -> list[dict[str, float]]:
    """Per-field L2 distances on ``base`` between the final states of
    consecutive runs.

    Each labelled config runs as given, and its final state is restricted
    onto ``base`` by the ratio of the two grids' cell counts.  A run that
    ends early raises its own :class:`~chemolab.solver.SolverError`, with
    its type, outcome and facts, its message prefixed by the label and the
    outcome.
    """
    finals = []
    for label, config in runs:
        result = run(config)
        failure = result.failure
        if failure is not None:
            failure.args = (f"{label} ended early ({result.outcome}): {failure}",)
            raise failure
        factor = config.grid.cells[0] // base.cells[0]
        fs = result.final_state
        finals.append([_restrict(f, factor) for f in (fs.u, fs.v, fs.w)])

    def l2(diff: np.ndarray) -> float:
        return math.sqrt(_integrals(diff * diff, base))

    return [
        {name: l2(a - b) for name, a, b in zip(FIELDS, earlier, later)}
        for earlier, later in zip(finals, finals[1:])
    ]


@dataclass(frozen=True)
class RefinementStudy:
    cells: tuple[tuple[int, ...], ...]  # per level, coarsest first
    errors: tuple[dict[str, float], ...]  # per field, level i against level i+1
    orders: tuple[dict[str, float], ...]  # per field, log2 of errors[i] / errors[i+1]

    def observed_order(self, field: str = "u") -> float:
        """Smallest per-level order for one field; u is the headline field
        since its transport carries the scheme under study."""
        return min(order[field] for order in self.orders)


def refinement_study(config: ScenarioConfig, levels: int = 3) -> RefinementStudy:
    """Self-convergence under spatial refinement at fixed t_end.

    Runs the scenario on the config grid and on (levels-1) successive 2x
    refinements and reports the per-field distances between consecutive
    levels and their observed orders.  An order needs three levels and
    distances above 0; ``ValueError`` otherwise.
    """
    if levels < 3:
        raise ValueError(f"need at least 3 refinement levels for an order, got {levels}")
    base = config.grid
    cells = tuple(tuple(m * 2**k for m in base.cells) for k in range(levels))
    runs = [  # sampled at the endpoints only: no diagnostics are needed
        (f"refinement level {level}",
         replace(config, grid=Grid(base.lengths, level), output_every=config.t_end))
        for level in cells
    ]
    errors = self_differences(runs, base)
    zero = [(name, k) for k, dist in enumerate(errors) for name in FIELDS if dist[name] == 0.0]
    if zero:  # a distance of 0 has no log
        name, k = zero[0]
        raise ValueError(f"the {name} distance between refinement levels {cells[k]} and "
                         f"{cells[k + 1]} is 0, which gives no order")
    orders = [
        {name: math.log2(coarse[name] / fine[name]) for name in FIELDS}
        for coarse, fine in zip(errors, errors[1:])
    ]
    return RefinementStudy(cells, tuple(errors), tuple(orders))


def time_order_study(config: ScenarioConfig, dt0: float) -> tuple[list[float], float]:
    """Richardson check of the time integrator's order on a fixed grid.

    Runs the scenario with fixed steps dt0, dt0/2, dt0/4 (dt0 must sit below
    :func:`~chemolab.solver.stable_dt` so the cap binds every step) and
    returns the two successive solution differences plus the observed
    order, which is 2 for the Strang-split step.
    """
    runs = []
    for divisor in (1, 2, 4):
        options = replace(config.options, dt_max=dt0 / divisor)
        runs.append((f"time-order run at dt {options.dt_max}",
                     replace(config, options=options, output_every=config.t_end)))
    diffs = [
        math.sqrt(sum(d**2 for d in dist.values()))
        for dist in self_differences(runs, config.grid)
    ]
    return diffs, math.log2(diffs[0] / diffs[1])
