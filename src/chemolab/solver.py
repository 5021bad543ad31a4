"""Conservative finite-volume discretization and split time integration.

The spatial operator is a cell-centered finite volume scheme on a uniform
box: diffusion by two-point face fluxes, chemotaxis as an advective face
flux with velocity chi * grad(w), absorption pointwise.  Zero-flux boundary
faces enforce the no-flux condition exactly inside the discrete conservation
law, so the discrete integrals of u and v telescope to constants.
:func:`rhs` is that semi-discrete operator, built from the stepper's own
kernels at unit time scale.  :func:`grad_w_faces`, :func:`species_flux` and
:func:`divergence` assemble the same operator face by face, independently;
they are the reference rhs is tested against.

:func:`step` advances it by Strang splitting, D(dt/2) R(dt/2) A(dt) R(dt/2)
D(dt/2), second order in dt:

* D, diffusion of u, v and w, is solved exactly.  The zero-flux Laplacian
  of a uniform box is diagonalised by the orthonormal DCT-II along each
  axis, so D transforms, multiplies by exp(tau * eigenvalue) and transforms
  back.
* R, absorption, is solved exactly: w <- w * exp(-tau (alpha u + beta v)).
* A, chemotaxis with w frozen, is Heun's SSP-RK2 on the advective face
  fluxes of :func:`rhs`.

Only A limits the step: :func:`stable_dt` bounds it by each cell's total
advective face rate plus its absorption rate, which keeps every upwind
stage a convex combination; A splits itself when D and R steepened w past
that bound.  rhs and step are pure functions producing fresh states;
distinct runs share no mutable state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

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
_TINY = np.finfo(float).tiny


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


# ------------------------------------------------------------- face fluxes


def _face_density(
    d_lo: np.ndarray, d_hi: np.ndarray, vel: np.ndarray, scheme: str
) -> np.ndarray:
    """Density carried by the faces between the ``d_lo`` and ``d_hi`` cells;
    the one face-value rule of the stepper, :func:`rhs` and the
    :func:`species_flux` reference.

    central: the arithmetic average of the two adjacent cells;
    upwind:  the cell the velocity points away from (a face with zero
             velocity carries no advective flux either way).
    """
    if scheme == "upwind":
        return np.where(vel > 0.0, d_lo, d_hi)
    out = d_lo + d_hi
    out *= 0.5
    return out


def _with_boundary_faces(interior: np.ndarray, axis: int, grid: Grid) -> np.ndarray:
    """Full face array along ``axis``: the zero-flux boundary faces carry 0."""
    return np.pad(interior, [(1, 1) if k == axis else (0, 0) for k in range(grid.dim)])


def grad_w_faces(w: np.ndarray, grid: Grid) -> list[np.ndarray]:
    """Centered two-point signal gradient on faces, one array per axis.

    Face arrays include the boundary faces, which carry exactly zero.
    """
    w = np.asarray(w, float)
    faces = []
    for axis, h in enumerate(grid.spacing):
        interior = (w[_hi(axis, grid.dim)] - w[_lo(axis, grid.dim)]) / h
        faces.append(_with_boundary_faces(interior, axis, grid))
    return faces


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
    density = np.asarray(density, float)
    lo, hi = _lo(axis, grid.dim), _hi(axis, grid.dim)
    d_lo, d_hi = density[lo], density[hi]
    vel = chi * gw[hi][lo]  # interior faces
    flux = _face_density(d_lo, d_hi, vel, scheme) * vel
    flux -= (d_hi - d_lo) / grid.spacing[axis]
    return _with_boundary_faces(flux, axis, grid)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (du, dv, dw).

    The flux-form Laplacian of u, v and w, plus :func:`_transport`'s
    chemotaxis of u and v, plus the absorption sink -(alpha u + beta v) w
    on w.  du and dv are divergence-form, so their sums over all cells
    telescope to zero.
    """
    fields = np.concatenate((state.u, state.v, state.w)).reshape((3,) + grid.shape)
    out = np.zeros_like(fields)
    dim = grid.dim
    for axis, h in enumerate(grid.spacing):
        lo, hi = _lo(axis + 1, dim + 1), _hi(axis + 1, dim + 1)
        flux = fields[hi] - fields[lo]
        flux /= h * h
        out[lo] += flux
        out[hi] -= flux
    chi = np.array([params.chi1, params.chi2]).reshape((2,) + (1,) * dim)
    scales = [chi / (h * h) for h in grid.spacing]
    _transport(fields[:2], fields[2], scales, grid, scheme.advection, out=out[:2])
    out[2] -= (params.alpha * state.u + params.beta * state.v) * state.w
    return out[0], out[1], out[2]


# ------------------------------------------------------- split operators
#
# The stepper works in place on one (3, *grid.shape) array holding u, v, w.


@lru_cache(maxsize=32)
def _axis_basis(m: int, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orthonormal DCT-II of one axis of m cells of width h, split by parity.

    Even modes are symmetric under the reflection i -> m-1-i and odd modes
    antisymmetric.  With q = ceil(m/2) and r = floor(m/2), the even
    coefficients are ``even @ s`` for the pair sums s_i = x_i + x_{m-1-i}
    (i < r, then the middle cell when m is odd) and the odd ones ``odd @ d``
    for the pair differences; the inverse rebuilds x_i and x_{m-1-i} as the
    sum and the difference of ``even.T @ E`` and ``odd.T @ O``.  A field
    symmetric under the reflection thus has exactly zero odd coefficients
    and comes back exactly symmetric.

    Returns (even, odd, eig): the q x q and r x r matrices (``odd`` is
    symmetric), and the eigenvalues -(4/h^2) sin^2(pi k / (2m)) of the
    zero-flux Laplacian in the spectral layout along the axis, even modes
    first.
    """
    q, r = (m + 1) // 2, m // 2
    modes = np.concatenate([np.arange(0, m, 2), np.arange(1, m, 2)])
    # cos(pi k (2i+1) / (2m)), the angle reduced exactly (whole floats)
    basis = np.multiply.outer(modes, 2 * np.arange(q) + 1, dtype=float)
    np.remainder(basis, 4 * m, out=basis)
    basis *= np.pi / (2 * m)
    np.cos(basis, out=basis)
    basis *= math.sqrt(2.0 / m)
    basis[0] *= math.sqrt(0.5)
    even, odd = basis[:q].copy(), basis[q:, :r].copy()
    eig = -(4.0 / (h * h)) * np.sin(modes * (np.pi / (2 * m))) ** 2
    for arr in (even, odd, eig):
        arr.flags.writeable = False
    return even, odd, eig


@lru_cache(maxsize=8)
def _spectral_plan(grid: Grid) -> tuple[np.ndarray, tuple]:
    """(eig, axes) for :func:`_diffuse` on ``grid``.

    ``eig`` is the zero-flux Laplacian's eigenvalue of every mode, the sum
    of the per-axis ones.  ``axes`` holds per axis the view that makes the
    axis the second one, q, r, the slice of the mirror cells, whether the
    axis is the last one (which is transformed by a right product, the
    others by a left product broadcast over the axes before them) and the
    forward and inverse matrices.
    """
    eig = np.zeros(grid.shape)
    axes = []
    for axis, (m, h) in enumerate(zip(grid.cells, grid.spacing)):
        even, odd, axis_eig = _axis_basis(m, h)
        shape = [1] * grid.dim
        shape[axis] = m
        eig = eig + axis_eig.reshape(shape)
        post = math.prod(grid.cells[axis + 1 :])
        if post == 1:  # x @ mat.T, which BLAS reads fastest as a transposed view
            view = (-1, m)
            forward = (even.T, odd.T)
            inverse = (even.T.copy().T, odd.T)
        else:
            view = (-1, m, post)
            forward, inverse = (even, odd), (even.T, odd.T)
        q, r = (m + 1) // 2, m // 2
        mirror = slice(m - 1, q - 1, -1)  # cells m-1 .. m-r, partners of 0 .. r-1
        axes.append((view, q, r, mirror, post == 1, forward, inverse))
    eig.flags.writeable = False
    return eig, tuple(axes)


def _dct(fields: np.ndarray, scratch: np.ndarray, plan: tuple, inverse: bool) -> None:
    """DCT-II of the stacked ``fields`` along one axis of ``plan``, or its
    inverse, in place; ``scratch`` has the shape of ``fields``."""
    view, q, r, mirror, right, forward, backward = plan
    x, y = fields.reshape(view), scratch.reshape(view)
    lo, hi = x[:, :r], x[:, mirror]
    src, dst = (x, y) if inverse else (y, x)
    if not inverse:
        np.add(lo, hi, out=y[:, :r])
        np.subtract(lo, hi, out=y[:, q:])
        if q > r:
            y[:, r] = x[:, r]  # the middle cell pairs with itself
    even, odd = backward if inverse else forward
    if right:
        np.matmul(src[:, :q], even, out=dst[:, :q])
        np.matmul(src[:, q:], odd, out=dst[:, q:])
    else:
        np.matmul(even, src[:, :q], out=dst[:, :q])
        np.matmul(odd, src[:, q:], out=dst[:, q:])
    if inverse:
        np.add(y[:, :r], y[:, q:], out=lo)
        np.subtract(y[:, :r], y[:, q:], out=hi)
        if q > r:
            x[:, r] = y[:, r]


def _diffuse(fields: np.ndarray, decay: np.ndarray, grid: Grid) -> None:
    """D: exact diffusion in place; ``decay`` is exp(tau * eig) for the
    eigenvalues of :func:`_spectral_plan`.

    Acts on each field's zero-mean part and adds the mean back, so a
    constant field stays exactly constant.
    """
    flat = fields.reshape(len(fields), -1)
    mean = np.add.reduce(flat, axis=1, keepdims=True)
    mean /= flat.shape[1]
    flat -= mean
    scratch = np.empty_like(fields)
    axes = _spectral_plan(grid)[1]
    for plan in axes:
        _dct(fields, scratch, plan, inverse=False)
    fields *= decay
    for plan in axes:
        _dct(fields, scratch, plan, inverse=True)
    flat += mean


def _absorb(fields: np.ndarray, tau: float, params: ModelParams) -> None:
    """R: exact absorption in place, w <- w * exp(-tau (alpha u + beta v))."""
    decay = (-tau * params.alpha) * fields[0]
    decay += (-tau * params.beta) * fields[1]
    np.exp(decay, out=decay)
    fields[2] *= decay


def _transport(
    dens: np.ndarray,
    w: np.ndarray,
    scales: list[np.ndarray],
    grid: Grid,
    scheme: str,
    out: np.ndarray,
) -> None:
    """Add dt times the chemotaxis term -div(chi d grad w) of the stacked
    densities ``dens`` (species first) to ``out``; ``scales`` holds per
    axis the sensitivity of each species times dt / h^2 (dt = 1 in
    :func:`rhs`)."""
    dim = grid.dim
    for axis, scale in enumerate(scales):
        lo, hi = _lo(axis + 1, dim + 1), _hi(axis + 1, dim + 1)
        dw = w[_hi(axis, dim)] - w[_lo(axis, dim)]
        flux = _face_density(dens[lo], dens[hi], dw, scheme)
        flux *= dw
        flux *= scale
        out[lo] -= flux
        out[hi] += flux
        del dw, flux  # freed before the next axis allocates its own


def _face_rate(w: np.ndarray, chi: float, grid: Grid, out: np.ndarray) -> np.ndarray:
    """Add each cell's advective face rate, chi |grad w| / h summed over the
    cell's faces, to ``out`` and return it: the one bound behind
    :func:`stable_dt` and the chemotaxis substeps."""
    for axis, h in enumerate(grid.spacing):
        lo, hi = _lo(axis, grid.dim), _hi(axis, grid.dim)
        rate = np.abs(w[hi] - w[lo])
        rate *= chi / (h * h)
        out[lo] += rate
        out[hi] += rate
        del rate  # freed before the next axis allocates its own
    return out


def _advect(
    fields: np.ndarray,
    dt: float,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
) -> None:
    """A: chemotaxis of u and v with w frozen, by Heun's SSP-RK2, in place.

    Each Heun step is two forward-Euler stages and ends on their average.
    For upwind, a stage is a convex combination of cell values while its
    length times :func:`_face_rate` stays at most 1 in every cell.
    :func:`stable_dt` sees w before D and R, which can steepen it, so A
    takes the fewest equal Heun steps that keep that bound: one, unless the
    signal steepened.
    """
    dens, w = fields[:2], fields[2]
    chi_max = max(params.chi1, params.chi2)
    rate = _face_rate(w, chi_max, grid, np.zeros(grid.shape))
    needed = dt * float(np.maximum.reduce(rate, axis=None))
    substeps = math.ceil(needed) if 1.0 < needed < math.inf else 1  # NaN -> 1
    chi = np.array([params.chi1, params.chi2]).reshape((2,) + (1,) * grid.dim)
    scales = [chi * (dt / substeps / (h * h)) for h in grid.spacing]
    for _ in range(substeps):
        stage = dens.copy()
        _transport(dens, w, scales, grid, scheme.advection, out=stage)
        dens += stage
        _transport(stage, w, scales, grid, scheme.advection, out=dens)
        dens *= 0.5


def stable_dt(
    state: State,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
) -> float:
    """cfl_safety / max over cells of (the sum over the cell's faces of
    chi |grad w| / h, plus alpha u + beta v), capped by dt_max.

    chi is max(chi1, chi2).  Diffusion and absorption are solved exactly
    and set no limit of their own, so a flat signal gets the same step on
    every grid; the absorption rate stays in the bound because the
    splitting error grows with it.
    """
    rate = params.alpha * state.u + params.beta * state.v
    _face_rate(state.w, max(params.chi1, params.chi2), grid, out=rate)
    worst = max(float(np.maximum.reduce(rate, axis=None)), _TINY)
    return min(scheme.cfl_safety / worst, scheme.dt_max)


def step(
    state: State,
    dt: float,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
) -> State:
    """One Strang step D(dt/2) R(dt/2) A(dt) R(dt/2) D(dt/2) of length dt.

    Masses of u and v are preserved up to rounding: D keeps each field's
    mean and A is in divergence form.  Raises :class:`PositivityError` when
    a density or the signal falls below rounding tolerance, and
    :class:`BlowUpDetected` on NaN or when a density norm crosses the
    divergence sentinel.  Rounding-level negative signal values are
    clipped to zero, which the signal's maximum principle justifies.
    """
    if not dt > 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    fields = np.concatenate((state.u, state.v, state.w)).reshape((3,) + grid.shape)
    decay = np.multiply(_spectral_plan(grid)[0], 0.5 * dt)
    np.exp(decay, out=decay)
    _diffuse(fields, decay, grid)
    _absorb(fields, 0.5 * dt, params)
    _advect(fields, dt, params, grid, scheme)
    _absorb(fields, 0.5 * dt, params)
    _diffuse(fields, decay, grid)
    t_new = state.t + dt
    flat = fields.reshape(3, -1)
    lows = np.minimum.reduce(flat, axis=1)
    for name, arr, mn in zip("uvw", fields, lows.tolist()):
        if math.isnan(mn):
            raise BlowUpDetected(t_new, name, _first_bad_cell(np.isnan(arr)), mn)
        if mn < _NEGATIVITY_TOL:
            raise PositivityError(
                f"positivity violation in {name} at t={t_new}: min {mn} at cell "
                f"{_first_bad_cell(arr == mn)} "
                "(reduce dt or switch to upwind)"
            )
    if lows[2] < 0.0:
        np.maximum(fields[2], 0.0, out=fields[2])
    highs = np.maximum.reduce(flat[:2], axis=1).tolist()
    for name, arr, mx in zip("uv", fields, highs):
        if mx > scheme.blowup_linf:
            raise BlowUpDetected(t_new, name, _first_bad_cell(arr == mx), mx)
    return State(t=t_new, u=fields[0], v=fields[1], w=fields[2])


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
    steps: int = 0  # completed steps; a blow-up's failed step is not counted
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
    if config.weight_p is not None:  # ScenarioConfig holds both or neither
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
    steps = 0
    while state.t < t_end:
        target = k * config.output_every
        if target >= t_end or (t_end - target) < 1e-12 * t_end:
            target = t_end
        while state.t < target:
            dt_stable = stable_dt(state, params, grid, opts)
            if dt_stable < _DT_FLOOR:
                raise SolverError(
                    f"stability requires dt < {_DT_FLOOR} at t={state.t}; giving up"
                )
            remaining = target - state.t
            landed = dt_stable >= remaining
            dt = remaining if landed else dt_stable
            try:
                state = step(state, dt, params, grid, opts)
            except BlowUpDetected as exc:
                return RunResult(
                    outcome="blowup",
                    final_state=state,
                    records=tuple(records),
                    context=ctx,
                    steps=steps,
                    blowup=BlowUpInfo(exc.time, exc.field, exc.cell, exc.value),
                )
            steps += 1
            if landed and state.t != target:
                state = replace(state, t=target)
        records.append(record(state, ctx, records[-1]))
        k += 1
    return RunResult(
        outcome="completed",
        final_state=state,
        records=tuple(records),
        context=ctx,
        steps=steps,
    )
