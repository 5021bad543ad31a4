"""Grid-refinement and time-step self-convergence studies.

Cell averages nest exactly under 2x refinement of a box mesh, so solutions
on finer grids restrict onto the base grid by block averaging and observed
orders come out of successive restricted differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .model import Grid, ScenarioConfig
from .solver import SolverError, run

__all__ = ["RefinementLevel", "RefinementStudy", "refinement_study", "time_order_study"]


def _refined(grid: Grid, factor: int) -> Grid:
    return Grid(lengths=grid.lengths, cells=tuple(m * factor for m in grid.cells))


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


FIELDS = ("u", "v", "w")


def _l2(diff: np.ndarray, grid: Grid) -> float:
    return math.sqrt(grid.volume_element * float(np.sum(diff * diff)))


def _final_fields(config: ScenarioConfig, what: str) -> tuple[np.ndarray, ...]:
    """(u, v, w) at t_end; raises :class:`SolverError` naming ``what`` and
    the outcome when the run ends early."""
    result = run(config)
    if result.failure is not None:
        raise SolverError(f"{what} ended early ({result.outcome}): {result.failure}")
    fs = result.final_state
    return fs.u, fs.v, fs.w


@dataclass(frozen=True)
class RefinementLevel:
    cells: tuple[int, ...]
    errors: dict[str, float] | None  # per-field L2 distance to the next finer level
    orders: dict[str, float] | None  # per-field log2 ratio of successive errors


@dataclass(frozen=True)
class RefinementStudy:
    levels: tuple[RefinementLevel, ...]

    def observed_order(self, field: str = "u") -> float:
        """Smallest per-level order for one field; u is the headline field
        since its transport carries the scheme under study."""
        orders = [lv.orders[field] for lv in self.levels if lv.orders is not None]
        if not orders:
            raise ValueError("need at least 3 refinement levels for an order")
        return min(orders)


def refinement_study(config: ScenarioConfig, levels: int = 3) -> RefinementStudy:
    """Self-convergence under spatial refinement at fixed t_end.

    Runs the scenario on the config grid and on (levels-1) successive 2x
    refinements, restricts every final state onto the base grid and reports
    per-field distances between consecutive levels and their observed
    orders.
    """
    if levels < 2:
        raise ValueError("need at least 2 refinement levels")
    base = config.grid
    restricted = []
    cells_per_level = []
    for lvl in range(levels):
        factor = 2**lvl
        cfg = replace(
            config,
            grid=_refined(base, factor),
            output_every=config.t_end,  # endpoints only; diagnostics not needed
        )
        finals = _final_fields(cfg, f"refinement level {cfg.grid.cells}")
        restricted.append(tuple(_restrict(f, factor) for f in finals))
        cells_per_level.append(cfg.grid.cells)

    errors = [
        {
            name: _l2(restricted[i][k] - restricted[i + 1][k], base)
            for k, name in enumerate(FIELDS)
        }
        for i in range(levels - 1)
    ]
    rows = []
    for i in range(levels):
        errs = errors[i] if i < levels - 1 else None
        orders = (
            {
                name: math.log2(errors[i][name] / errors[i + 1][name])
                for name in FIELDS
            }
            if i < levels - 2
            else None
        )
        rows.append(
            RefinementLevel(cells=cells_per_level[i], errors=errs, orders=orders)
        )
    return RefinementStudy(levels=tuple(rows))


def time_order_study(config: ScenarioConfig, dt0: float) -> tuple[list[float], float]:
    """Richardson check of the time integrator's order on a fixed grid.

    Runs the scenario with fixed steps dt0, dt0/2, dt0/4 (dt0 must sit below
    :func:`~chemolab.solver.stable_dt` so the cap binds every step) and
    returns the two successive solution differences plus the observed
    order, which is 2 for the Strang-split step.
    """
    finals = []
    for divisor in (1, 2, 4):
        options = replace(config.options, dt_max=dt0 / divisor)
        cfg = replace(config, options=options, output_every=config.t_end)
        finals.append(_final_fields(cfg, f"time-order run at dt {cfg.options.dt_max}"))

    def state_diff(a, b):
        return math.sqrt(
            sum(_l2(fa - fb, config.grid) ** 2 for fa, fb in zip(a, b))
        )

    diffs = [state_diff(finals[0], finals[1]), state_diff(finals[1], finals[2])]
    return diffs, math.log2(diffs[0] / diffs[1])
