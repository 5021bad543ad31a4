"""Conservative finite-volume discretization and split time integration.

The spatial operator is a cell-centered finite volume scheme on a uniform
box: diffusion by two-point face fluxes, chemotaxis as an advective face
flux with velocity chi * grad(w), absorption pointwise.  Zero-flux boundary
faces enforce the no-flux condition exactly inside the discrete conservation
law, so the discrete integrals of u and v telescope to constants.
:func:`rhs` is that semi-discrete operator, built from the stepper's own
kernels at unit time scale.  The test suite checks it against an
independent face-by-face assembly of the same operator
(``tests/reference_fv.py``), which shares no code with this module.

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
that bound.

:func:`run` steps with one :class:`_Workspace`, the run's stepper: it holds
the run's parameters and scheme options and what every step would
otherwise rebuild (the DCT scratch and plans, the chemotaxis stage and rate
buffers, one set of face buffers and the decay factors), and the operators
work in place in it.  The public rhs, stable_dt and step each build a
throwaway one, so they act as pure functions: their input is only read,
and the arrays they return are fresh and never written again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

# record is not called here; benchmarks/tracing.py wraps solver.record
from .diagnostics import DiagnosticsRecord, RunContext, record, record_block
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
    "RunResult",
    "rhs",
    "stable_dt",
    "step",
    "run",
    "threshold_weight",
]

_DT_FLOOR = 1e-15
_BLOCK_BYTES = 1 << 18  # at most this much of stacked sample fields awaits record_block
_NEGATIVITY_TOL = -1e-12
_TINY = np.finfo(float).tiny


class SolverError(RuntimeError):
    """A run that cannot go on: where and when it failed.

    ``outcome`` names the failure in :class:`RunResult` and in a run's
    manifest.  This base class is the stalled step loop, where ``value`` is
    the step it needed (NaN when the bound is not a number) and ``field``
    and ``cell`` are None.
    """

    outcome = "stalled"

    def __init__(
        self,
        message: str,
        time: float | None = None,
        field: str | None = None,
        cell: tuple[int, ...] | None = None,
        value: float | None = None,
    ):
        super().__init__(message)
        self.time, self.field, self.cell, self.value = time, field, cell, value

    def to_dict(self) -> dict:
        cell = None if self.cell is None else list(self.cell)
        return {"time": self.time, "field": self.field, "cell": cell, "value": self.value}


class PositivityError(SolverError):
    outcome = "positivity"


class BlowUpDetected(SolverError):
    outcome = "blowup"

    def __init__(self, time: float, field: str, cell: tuple[int, ...], value: float):
        message = f"divergence in {field} at t={time}: value {value} at cell {cell}"
        super().__init__(message, time, field, cell, value)


# ------------------------------------------------------------- face fluxes


def _face_density(
    d_lo: np.ndarray,
    d_hi: np.ndarray,
    up: np.ndarray | None,
    scheme: str,
    out: np.ndarray,
) -> np.ndarray:
    """Density carried by the faces between the ``d_lo`` and ``d_hi`` cells,
    written to ``out`` and returned; the one face-value rule of the stepper
    and :func:`rhs`.

    central: the arithmetic average of the two adjacent cells;
    upwind:  the cell the velocity points away from, ``d_lo`` where ``up``
             (velocity > 0) holds (a face with zero velocity carries no
             advective flux either way).
    """
    if scheme == "upwind":
        np.copyto(out, d_hi)
        np.copyto(out, d_lo, where=up)
    else:
        np.add(d_lo, d_hi, out=out)
        out *= 0.5
    return out


# ------------------------------------------------------- split operators


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
    return even, odd, eig


class _Face:
    """One axis's face geometry and its share of the workspace's face
    buffers; ``dw``, ``up`` and ``flux`` alias those of every other axis."""

    __slots__ = ("lo", "hi", "lo2", "hi2", "h2", "dw", "up", "flux", "rate_lo", "rate_hi")


class _Workspace:
    """The stepper of a run: its grid, parameters and scheme options, and
    everything a step needs besides its state, built once.

    * ``scratch``, three fields: the DCT's second buffer in D, the two
      exponents of R, and A's Heun stage (``stage``, u and v) and face
      rate (``rate``, w's row);
    * ``decay``, exp(tau * eigenvalue) for the tau of :meth:`decay_for`'s
      last call;
    * per axis, the DCT plan with the views of ``scratch`` it uses, the
      zero-flux Laplacian's eigenvalues along the axis (``eigs``), and a
      :class:`_Face`: the face slices, the views of ``rate`` and the
      face buffers;
    * one set of face buffers, sized for the axis with the most faces and
      shared by all axes: the signal difference ``dw`` (|dw| in
      :meth:`face_rate`), the upwind mask ``up`` (dw > 0) and the flux of
      both species.  A method that reads them fills them first, so no call
      depends on what an earlier one left.

    The operators work in place on a stacked (3, *grid.shape) array of u,
    v and w.  :meth:`step` makes that array fresh every step, because it is
    the step's output.
    """

    def __init__(self, grid: Grid, params: ModelParams, scheme: SchemeOptions):
        self.params, self.scheme = params, scheme
        self.chi = max(params.chi1, params.chi2)
        self.stacked = (3,) + grid.shape
        self.scratch = np.empty(self.stacked)
        self.stage, self.rate = self.scratch[:2], self.scratch[2]
        self.rows = tuple(self.scratch)
        self.mean = np.empty((3, 1))
        self.decay, self.tau = np.empty(grid.shape), None
        self.eigs, self.plans = [], []
        for axis, (m, h) in enumerate(zip(grid.cells, grid.spacing)):
            even, odd, eig = _axis_basis(m, h)
            self.eigs.append(eig.reshape((m,) + (1,) * (grid.dim - 1 - axis)))
            post = math.prod(grid.cells[axis + 1 :])
            right = post == 1  # transformed by a right product, x @ mat.T
            if right:  # which BLAS reads fastest as a transposed view
                view, forward, inverse = (-1, m), (even.T, odd.T), (even.T.copy().T, odd.T)
            else:  # a left product broadcast over the axes before it
                view, forward, inverse = (-1, m, post), (even, odd), (even.T, odd.T)
            q, r = (m + 1) // 2, m // 2
            mirror = slice(m - 1, q - 1, -1)  # cells m-1 .. m-r, partners of 0 .. r-1
            y = self.scratch.reshape(view)
            middle = y[:, r] if q > r else None  # the middle cell pairs with itself
            self.plans.append((view, q, r, mirror, right, forward, inverse,
                               y[:, :q], y[:, q:], y[:, :r], middle))
        dim = grid.dim
        shapes = [tuple(m - (k == axis) for k, m in enumerate(grid.cells))
                  for axis in range(dim)]
        most = max(math.prod(shape) for shape in shapes)
        dw, up, flux = np.empty(most), np.empty(most, bool), np.empty(2 * most)
        self.faces = []
        for axis, (shape, h) in enumerate(zip(shapes, grid.spacing)):
            face, n = _Face(), math.prod(shape)
            face.lo, face.hi = _lo(axis, dim), _hi(axis, dim)
            face.lo2, face.hi2 = _lo(axis + 1, dim + 1), _hi(axis + 1, dim + 1)
            face.h2 = h * h
            face.dw, face.up = dw[:n].reshape(shape), up[:n].reshape(shape)
            face.flux = flux[: 2 * n].reshape((2,) + shape)
            face.rate_lo, face.rate_hi = self.rate[face.lo], self.rate[face.hi]
            self.faces.append(face)

    def decay_for(self, tau: float) -> np.ndarray:
        """exp(tau * eigenvalue), a mode's eigenvalue the sum of its per-axis
        ones in axis order; recomputed only when tau changed."""
        if tau != self.tau:
            decay = self.decay
            decay.fill(0.0)
            for eig in self.eigs:
                decay += eig
            decay *= tau
            np.exp(decay, out=decay)
            self.tau = tau
        return self.decay

    def _dct(self, fields: np.ndarray, inverse: bool) -> None:
        """DCT-II of the stacked ``fields`` along each axis in turn, or its
        inverse, in place."""
        for view, q, r, mirror, right, forward, backward, y_even, y_odd, y_lo, y_mid in (
            self.plans
        ):
            x = fields.reshape(view)
            lo, hi, x_even, x_odd = x[:, :r], x[:, mirror], x[:, :q], x[:, q:]
            if inverse:
                even, odd = backward
                if right:
                    np.matmul(x_even, even, out=y_even)
                    np.matmul(x_odd, odd, out=y_odd)
                else:
                    np.matmul(even, x_even, out=y_even)
                    np.matmul(odd, x_odd, out=y_odd)
                np.add(y_lo, y_odd, out=lo)
                np.subtract(y_lo, y_odd, out=hi)
                if y_mid is not None:
                    x[:, r] = y_mid
            else:
                np.add(lo, hi, out=y_lo)
                np.subtract(lo, hi, out=y_odd)
                if y_mid is not None:
                    y_mid[...] = x[:, r]
                even, odd = forward
                if right:
                    np.matmul(y_even, even, out=x_even)
                    np.matmul(y_odd, odd, out=x_odd)
                else:
                    np.matmul(even, y_even, out=x_even)
                    np.matmul(odd, y_odd, out=x_odd)

    def diffuse(self, fields: np.ndarray, decay: np.ndarray) -> None:
        """D: exact diffusion in place; ``decay`` is exp(tau * eigenvalue)
        (:meth:`decay_for`).

        Acts on each field's zero-mean part and adds the mean back, so a
        constant field stays exactly constant.
        """
        flat, mean = fields.reshape(3, -1), self.mean
        np.add.reduce(flat, axis=1, keepdims=True, out=mean)
        mean /= flat.shape[1]
        flat -= mean
        self._dct(fields, inverse=False)
        fields *= decay
        self._dct(fields, inverse=True)
        flat += mean

    def absorb(self, fields: np.ndarray, tau: float) -> None:
        """R: exact absorption in place, w <- w * exp(-tau (alpha u + beta v))."""
        exponent, other = self.rows[0], self.rows[1]
        np.multiply(fields[0], -tau * self.params.alpha, out=exponent)
        np.multiply(fields[1], -tau * self.params.beta, out=other)
        exponent += other
        np.exp(exponent, out=exponent)
        fields[2] *= exponent

    def face_rate(self, w: np.ndarray) -> np.ndarray:
        """Add each cell's advective face rate, chi |grad w| / h summed over
        the cell's faces with chi = max(chi1, chi2), to ``rate`` and return
        it: the one bound behind :meth:`stable_dt` and the chemotaxis
        substeps."""
        for face in self.faces:
            scale = self.chi / face.h2
            if scale == math.inf:  # no number bounds the step; skip 0 * inf's warning
                self.rate.fill(math.nan)
                break
            rate = face.dw
            np.subtract(w[face.hi], w[face.lo], out=rate)
            np.abs(rate, out=rate)
            rate *= scale
            face.rate_lo += rate
            face.rate_hi += rate
        return self.rate

    def transport(self, dens: np.ndarray, w: np.ndarray, out: np.ndarray, dt: float) -> None:
        """Add dt times the chemotaxis term -div(chi d grad w) of the stacked
        densities ``dens`` (species first) to ``out`` (dt = 1 in :meth:`rhs`)."""
        params, scheme = self.params, self.scheme.advection
        upwind = scheme == "upwind"
        for face in self.faces:
            tau = dt / face.h2
            np.subtract(w[face.hi], w[face.lo], out=face.dw)
            if upwind:
                np.greater(face.dw, 0.0, out=face.up)
            lo, hi = face.lo2, face.hi2
            flux = _face_density(dens[lo], dens[hi], face.up, scheme, face.flux)
            flux *= face.dw
            flux[0] *= params.chi1 * tau
            flux[1] *= params.chi2 * tau
            out_lo, out_hi = out[lo], out[hi]
            out_lo -= flux
            out_hi += flux

    def advect(self, fields: np.ndarray, dt: float) -> None:
        """A: chemotaxis of u and v with w frozen, by Heun's SSP-RK2, in place.

        Each Heun step is two forward-Euler stages and ends on their average.
        For upwind, a stage is a convex combination of cell values while its
        length times :meth:`face_rate` stays at most 1 in every cell.
        :meth:`stable_dt` sees w before D and R, which can steepen it, so A
        takes the fewest equal Heun steps that keep that bound: one, unless
        the signal steepened.
        """
        dens, w, stage = fields[:2], fields[2], self.stage
        self.rate.fill(0.0)
        rate = self.face_rate(w)
        needed = dt * float(np.maximum.reduce(rate, axis=None))
        substeps = math.ceil(needed) if 1.0 < needed < math.inf else 1  # NaN -> 1
        tau = dt / substeps
        for _ in range(substeps):
            np.copyto(stage, dens)
            self.transport(dens, w, stage, tau)
            dens += stage
            self.transport(stage, w, dens, tau)
            dens *= 0.5

    def rhs(self, state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`rhs` of ``state``."""
        params = self.params
        fields = np.concatenate((state.u, state.v, state.w)).reshape(self.stacked)
        out = np.zeros_like(fields)
        for face in self.faces:
            flux = fields[face.hi2] - fields[face.lo2]
            flux /= face.h2
            out[face.lo2] += flux
            out[face.hi2] -= flux
        self.transport(fields[:2], fields[2], out[:2], 1.0)
        out[2] -= (params.alpha * state.u + params.beta * state.v) * state.w
        return out[0], out[1], out[2]

    def stable_dt(self, state: State) -> float:
        """:func:`stable_dt` of ``state``."""
        params, scheme = self.params, self.scheme
        with np.errstate(over="ignore"):  # a rate beyond float range stalls the run
            rate = np.multiply(state.u, params.alpha, out=self.rate)
            rate += np.multiply(state.v, params.beta, out=self.rows[0])
        self.face_rate(state.w)
        worst = max(float(np.maximum.reduce(rate, axis=None)), _TINY)
        return min(scheme.cfl_safety / worst, scheme.dt_max)

    def step(self, state: State, dt: float) -> State:
        """:func:`step` of ``state`` by ``dt``."""
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        fields = np.concatenate((state.u, state.v, state.w)).reshape(self.stacked)
        decay = self.decay_for(0.5 * dt)
        self.diffuse(fields, decay)
        self.absorb(fields, 0.5 * dt)
        self.advect(fields, dt)
        self.absorb(fields, 0.5 * dt)
        self.diffuse(fields, decay)
        t_new = state.t + dt
        flat = fields.reshape(3, -1)
        lows = np.minimum.reduce(flat, axis=1).tolist()
        if not all(mn >= _NEGATIVITY_TOL for mn in lows):  # NaN fails it too
            for name, arr, mn in zip("uvw", fields, lows):
                if math.isnan(mn):
                    raise BlowUpDetected(t_new, name, _first_bad_cell(np.isnan(arr)), mn)
                if mn < _NEGATIVITY_TOL:
                    cell = _first_bad_cell(arr == mn)
                    raise PositivityError(
                        f"positivity violation in {name} at t={t_new}: min {mn} at cell "
                        f"{cell} (reduce dt or switch to upwind)",
                        t_new, name, cell, mn,
                    )
        u, v, w = fields
        if lows[2] < 0.0:
            np.maximum(w, 0.0, out=w)
        highs = np.maximum.reduce(flat[:2], axis=1).tolist()
        for name, arr, mx in zip("uv", fields, highs):
            if mx > self.scheme.blowup_linf:
                raise BlowUpDetected(t_new, name, _first_bad_cell(arr == mx), mx)
        return State(t=t_new, u=u, v=v, w=w)


def rhs(
    state: State,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (du, dv, dw).

    The flux-form Laplacian of u, v and w, plus the stepper's chemotaxis
    kernel (:meth:`_Workspace.transport`) at unit time scale, plus the
    absorption sink -(alpha u + beta v) w on w.  du and dv are
    divergence-form, so their sums over all cells telescope to zero.
    """
    return _Workspace(grid, params, scheme).rhs(state)


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
    return _Workspace(grid, params, scheme).stable_dt(state)


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

    Works in a throwaway :class:`_Workspace`; ``state`` is only read, and
    the returned arrays are fresh and never written again.
    """
    return _Workspace(grid, params, scheme).step(state, dt)


@dataclass(frozen=True)
class RunResult:
    final_state: State  # the last good state
    records: tuple[DiagnosticsRecord, ...]
    context: RunContext
    steps: int = 0  # completed steps; a failed step is not counted
    failure: SolverError | None = None  # what ended the run early

    @property
    def outcome(self) -> str:
        """Either "completed" or the failure's outcome: "blowup",
        "positivity" or "stalled"."""
        return "completed" if self.failure is None else self.failure.outcome


def _resolve_weight(
    config: ScenarioConfig, params: ModelParams, w0_max: float
) -> tuple[WeightFunction | None, str]:
    """Pick the weight used for the tracked L^p value.

    The weight must cover the amplitude max(chi1, chi2) * ||w0||_inf.
    Explicit (p, eps) from the config win, and raise ``ValueError`` when
    they cannot cover it; otherwise the threshold construction chooses them
    when the amplitude allows it.
    """
    m = max(params.chi1, params.chi2) * w0_max
    if config.weight_p is not None:  # ScenarioConfig holds both or neither
        try:
            return make_weight(config.weight_p, config.weight_eps, m), ""
        except ValueError as exc:
            raise ValueError(
                f"weight.p = {config.weight_p} and weight.eps = {config.weight_eps} "
                f"cannot cover the signal amplitude max(chi1, chi2) * ||w0||_inf: {exc}"
            ) from None
    return threshold_weight(m, config.grid.dim)


def threshold_weight(m: float, n: int) -> tuple[WeightFunction | None, str]:
    """The threshold construction's weight for amplitude m in n dimensions,
    and a note for the reader: the degenerate p = 2 weight at m = 0, or
    None and why when no (eps, p) can be built."""
    if m == 0.0:
        return make_weight(2.0, 0.5, 0.0), "degenerate zero-signal weight (p=2)"
    try:
        eps = epsilon_for_threshold(m, n)
        p = p_for_equality(m, eps)
        return make_weight(p, eps, m), ""
    except ValueError as exc:
        return None, f"weight construction unavailable: {exc}"


def run(config: ScenarioConfig) -> RunResult:
    """Integrate a scenario to t_end with adaptive steps.

    Diagnostics are sampled at multiples of output_every and at t_end.  A
    :class:`SolverError` of the step loop ends the run early instead of
    raising: it becomes the result's ``failure``, next to the last good
    state and the records sampled so far.

    The samples' records are computed a block at a time by
    :func:`~chemolab.diagnostics.record_block`, which takes as many
    consecutive samples as fit ``_BLOCK_BYTES`` stacked (at least one).  The
    run steps with one :class:`_Workspace` of its own.
    """
    grid, params = config.grid, config.params
    init = validate_initial_data(*config.initial.build(grid), grid)
    weight, weight_note = _resolve_weight(config, params, init.w0_max)
    ctx = RunContext(
        grid=grid,
        params=params,
        ubar0=init.ubar0,
        vbar0=init.vbar0,
        w0_max=init.w0_max,
        int_w0_sq=init.int_w0_sq,
        weight=weight,
        weight_note=weight_note,
    )
    state = State(t=0.0, u=init.u, v=init.v, w=init.w)
    del init  # the first state holds the initial fields; nothing else needs them
    block = max(1, _BLOCK_BYTES // (24 * math.prod(grid.cells)))
    pending = [state]  # samples whose records are not computed yet
    records: list[DiagnosticsRecord] = []

    def flush() -> None:
        records.extend(record_block(pending, ctx, records[-1] if records else None))
        pending.clear()

    t_end = config.t_end
    k = 1
    steps = 0
    failure = None
    ws = _Workspace(grid, params, config.options)
    try:
        while state.t < t_end:
            if len(pending) == block:
                flush()
            target = k * config.output_every
            if target >= t_end or (t_end - target) < 1e-12 * t_end:
                target = t_end
            while state.t < target:
                dt_stable = ws.stable_dt(state)
                if not dt_stable >= _DT_FLOOR:  # NaN: a face rate beyond float range
                    why = ("the step bound is not a number" if math.isnan(dt_stable)
                           else f"stability requires dt < {_DT_FLOOR}")
                    raise SolverError(
                        f"{why} at t={state.t}; giving up", state.t, value=dt_stable
                    )
                remaining = target - state.t
                landed = dt_stable >= remaining
                dt = remaining if landed else dt_stable
                state = ws.step(state, dt)
                steps += 1
                if landed and state.t != target:
                    state = replace(state, t=target)
            pending.append(state)
            k += 1
    except SolverError as exc:
        failure = exc.with_traceback(None)  # whose frames hold the last step's arrays
    if pending:
        flush()
    return RunResult(state, tuple(records), ctx, steps, failure)
