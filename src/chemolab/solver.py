"""Conservative finite-volume discretization and explicit time integration.

The spatial operator is a cell-centered finite volume scheme on a uniform
box: diffusion by two-point face fluxes, chemotaxis as an advective face
flux with velocity chi * grad(w), absorption pointwise.  Zero-flux boundary
faces enforce the no-flux condition exactly inside the discrete conservation
law, so the discrete integrals of u and v telescope to constants.

Time integration is forward Euler with an adaptive step bounded by
diffusive, advective and absorption stability limits.  rhs and step are pure
functions producing fresh states; distinct runs share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .diagnostics import DiagnosticsRecord, RunContext, record
from .model import (
    Grid,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
    State,
    _first_bad_cell,
    _hi,
    _lo,
    validate_initial_data,
)
from .weight import (
    WeightFunction,
    epsilon_for_threshold,
    make_weight,
    p_for_equality,
)

__all__ = [
    "SchemeOptions",
    "SolverError",
    "PositivityError",
    "BlowUpDetected",
    "BlowUpInfo",
    "RunResult",
    "grad_w_faces",
    "species_flux",
    "divergence",
    "rhs",
    "stable_dt",
    "step",
    "run",
]

_DT_FLOOR = 1e-15
_NEGATIVITY_TOL = -1e-12


class SolverError(RuntimeError):
    pass


class PositivityError(SolverError):
    pass


class BlowUpDetected(SolverError):
    def __init__(self, time: float, field: str, cell: tuple[int, ...], value: float):
        super().__init__(
            f"divergence in {field} at t={time}: value {value} at cell {cell}"
        )
        self.time = time
        self.field = field
        self.cell = cell
        self.value = value


def _interior_gradients(w: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Per-axis (w_right - w_left)/h on interior faces only."""
    out = []
    for axis, h in enumerate(grid.spacing):
        out.append((w[_hi(axis, grid.dim)] - w[_lo(axis, grid.dim)]) / h)
    return out


def _face_flux(
    density: np.ndarray, vel: np.ndarray, axis: int, scheme: str, grid: Grid
) -> np.ndarray:
    """Flux -grad(density) + vel * density_at_face on the interior faces.

    The face density is, for
    central: the arithmetic average of the two adjacent cells;
    upwind:  the cell the velocity points away from; an exactly-zero face
             velocity falls back to the average so reflection symmetry of
             the data survives in the scheme.
    """
    d_lo = density[_lo(axis, grid.dim)]
    d_hi = density[_hi(axis, grid.dim)]
    flux = 0.5 * (d_lo + d_hi)
    if scheme == "upwind":
        flux = np.where(vel > 0.0, d_lo, np.where(vel < 0.0, d_hi, flux))
    # in place: one face-sized temporary fewer per call, which shows on 3-D grids
    flux *= vel
    flux -= (d_hi - d_lo) / grid.spacing[axis]
    return flux


def _with_boundary_faces(interior: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """Full face array along ``axis``: the zero-flux boundary faces carry 0."""
    return np.pad(interior, [(1, 1) if k == axis else (0, 0) for k in range(grid.dim)])


def grad_w_faces(w: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Centered two-point signal gradient on faces, one array per axis.

    Face arrays include the boundary faces, which carry exactly zero.
    """
    return [
        _with_boundary_faces(g, axis, grid)
        for axis, g in enumerate(_interior_gradients(np.asarray(w, float), grid))
    ]


def species_flux(
    density: np.ndarray,
    chi: float,
    gw: np.ndarray,
    scheme: str,
    grid: Grid,
    axis: int,
) -> np.ndarray:
    """Face flux F = -grad(density) + chi * density_at_face * grad(w).

    ``gw`` is the full face array for this axis (as from
    :func:`grad_w_faces`); boundary faces of the result are exactly zero.
    """
    vel = chi * gw[_hi(axis, grid.dim)][_lo(axis, grid.dim)]  # interior faces
    interior = _face_flux(np.asarray(density, float), vel, axis, scheme, grid)
    return _with_boundary_faces(interior, axis, grid)


def divergence(fluxes: list[np.ndarray], grid: Grid) -> np.ndarray:
    """Conservative face-difference divergence of per-axis face fluxes."""
    out = np.zeros(grid.shape)
    for axis, (flux, h) in enumerate(zip(fluxes, grid.spacing)):
        out += (flux[_hi(axis, grid.dim)] - flux[_lo(axis, grid.dim)]) / h
    return out


def rhs(
    state: State,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
    _gw: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (du, dv, dw).

    du and dv are divergence-form, so their sums over all cells telescope
    to zero; dw adds the pointwise absorption sink -(alpha u + beta v) w.
    """
    u, v, w = state.u, state.v, state.w
    gw = _interior_gradients(w, grid) if _gw is None else _gw
    du = np.zeros(grid.shape)
    dv = np.zeros(grid.shape)
    dw = np.zeros(grid.shape)
    advection = scheme.advection
    for axis, h in enumerate(grid.spacing):
        lo = _lo(axis, grid.dim)
        hi = _hi(axis, grid.dim)
        g = gw[axis]
        for dens, chi, acc in ((u, params.chi1, du), (v, params.chi2, dv)):
            flux = _face_flux(dens, chi * g, axis, advection, grid)
            flux /= h
            acc[lo] -= flux
            acc[hi] += flux
        # pure diffusive flux for w: F = -grad(w) = -g
        dw[lo] += g / h
        dw[hi] -= g / h
    dw -= (params.alpha * u + params.beta * v) * w
    return du, dv, dw


def stable_dt(
    state: State,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
    _gw: list[np.ndarray] | None = None,
) -> float:
    """Largest explicit step: cfl_safety times the tightest of the
    diffusive, advective and absorption limits, capped by dt_max."""
    tiny = np.finfo(float).tiny
    h_min = min(grid.spacing)
    limit = h_min * h_min / (2.0 * grid.dim)
    gw = _interior_gradients(state.w, grid) if _gw is None else _gw
    g_max = max(float(np.abs(g).max()) for g in gw)
    chi_max = max(params.chi1, params.chi2)
    limit = min(limit, h_min / max(chi_max * g_max, tiny))
    absorb = float((params.alpha * state.u + params.beta * state.v).max())
    limit = min(limit, 1.0 / max(absorb, tiny))
    return min(scheme.cfl_safety * limit, scheme.dt_max)


def step(
    state: State,
    dt: float,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
    _gw: list[np.ndarray] | None = None,
) -> State:
    """One forward-Euler step of length dt.

    Masses of u and v are preserved structurally (telescoping fluxes).
    Raises :class:`PositivityError` when a density or the signal falls
    below rounding tolerance, and :class:`BlowUpDetected` on NaN or when a
    density norm crosses the divergence sentinel.  Rounding-level negative
    signal values are clipped to zero, which the signal's maximum principle
    justifies.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    du, dv, dw = rhs(state, params, grid, scheme, _gw=_gw)
    t_new = state.t + dt
    u = state.u + dt * du
    v = state.v + dt * dv
    w = state.w + dt * dw
    for name, arr in (("u", u), ("v", v), ("w", w)):
        mn = float(arr.min())
        if math.isnan(mn):
            raise BlowUpDetected(t_new, name, _first_bad_cell(np.isnan(arr)), mn)
        if mn < _NEGATIVITY_TOL:
            raise PositivityError(
                f"positivity violation in {name} at t={t_new}: min {mn} at cell "
                f"{_first_bad_cell(arr == arr.min())} "
                "(reduce dt or switch to upwind)"
            )
        if name == "w" and mn < 0.0:
            w = np.maximum(w, 0.0)
    for name, arr in (("u", u), ("v", v)):
        mx = float(arr.max())
        if mx > scheme.blowup_linf:
            raise BlowUpDetected(t_new, name, _first_bad_cell(arr == arr.max()), mx)
    return State(t=t_new, u=u, v=v, w=w)


@dataclass(frozen=True)
class BlowUpInfo:
    time: float
    field: str
    cell: tuple[int, ...]
    value: float

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "field": self.field,
            "cell": list(self.cell),
            "value": self.value,
        }


@dataclass(frozen=True)
class RunResult:
    outcome: str  # "completed" or "blowup"
    final_state: State
    records: tuple[DiagnosticsRecord, ...]
    context: RunContext
    blowup: BlowUpInfo | None = None


def _resolve_weight(
    config: ScenarioConfig, params: ModelParams, w0_max: float
) -> tuple[WeightFunction | None, str]:
    """Pick the weight used for the tracked L^p value.

    The amplitude bound is max(chi1, chi2) * ||w0||_inf.  Explicit (p, eps)
    from the config win; otherwise the threshold construction chooses them
    when the amplitude allows it.
    """
    m = max(params.chi1, params.chi2) * w0_max
    if config.weight_p is not None or config.weight_eps is not None:
        if config.weight_p is None or config.weight_eps is None:
            return None, "weight.p and weight.eps must be given together"
        try:
            return make_weight(config.weight_p, config.weight_eps, m), ""
        except ValueError as exc:
            return None, f"weight construction failed: {exc}"
    if m == 0.0:
        return make_weight(2.0, 0.5, 0.0), "degenerate zero-signal weight (p=2)"
    try:
        eps = epsilon_for_threshold(m, config.grid.dim)
        p = p_for_equality(m, eps)
        return make_weight(p, eps, m), ""
    except ValueError as exc:
        return None, f"weight construction unavailable: {exc}"


def run(config: ScenarioConfig) -> RunResult:
    """Integrate a scenario to t_end with adaptive steps.

    Diagnostics are sampled at multiples of output_every and at t_end.
    Divergence (sentinel or NaN) ends the run early with a blow-up report
    instead of raising.
    """
    grid, params = config.grid, config.params
    init = validate_initial_data(*config.initial.build(grid), grid)
    opts = config.options
    weight, weight_note = _resolve_weight(config, params, init.w0_max)
    w0sq = grid.volume_element * float(np.sum(init.w * init.w))
    ctx = RunContext(
        grid=grid,
        params=params,
        ubar0=init.ubar0,
        vbar0=init.vbar0,
        w0_max=init.w0_max,
        int_w0_sq=w0sq,
        weight=weight,
        weight_note=weight_note,
    )
    state = State(t=0.0, u=init.u, v=init.v, w=init.w)
    records = [record(state, ctx, None)]
    t_end = config.t_end
    k = 1
    while state.t < t_end:
        target = k * config.output_every
        if target >= t_end or (t_end - target) < 1e-12 * t_end:
            target = t_end
        while state.t < target:
            gw = _interior_gradients(state.w, grid)
            dt_stable = stable_dt(state, params, grid, opts, _gw=gw)
            if dt_stable < _DT_FLOOR:
                raise SolverError(
                    f"stability requires dt < {_DT_FLOOR} at t={state.t}; giving up"
                )
            remaining = target - state.t
            landed = dt_stable >= remaining
            dt = remaining if landed else dt_stable
            try:
                state = step(state, dt, params, grid, opts, _gw=gw)
            except BlowUpDetected as exc:
                return RunResult(
                    outcome="blowup",
                    final_state=state,
                    records=tuple(records),
                    context=ctx,
                    blowup=BlowUpInfo(exc.time, exc.field, exc.cell, exc.value),
                )
            if landed:
                state = replace(state, t=target)
        records.append(record(state, ctx, records[-1]))
        k += 1
    return RunResult(
        outcome="completed",
        final_state=state,
        records=tuple(records),
        context=ctx,
    )
