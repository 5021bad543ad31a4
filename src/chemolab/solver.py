"""Conservative finite-volume discretization and split time integration.

The spatial operator is a cell-centered finite volume scheme on a uniform
box: diffusion by two-point face fluxes, chemotaxis as an advective face
flux with velocity chi * grad(w), absorption pointwise.  Zero-flux boundary
faces enforce the no-flux condition exactly inside the discrete conservation
law, so the discrete integrals of u and v telescope to constants.
:func:`rhs` is that operator, the sum of the generators of the split
flows below.  The test suite checks it against an independent face-by-face
assembly of the same operator (``tests/reference_fv.py``), which shares no
code with this module.

:func:`step` advances it by Strang splitting, D(dt/2) R(dt/2) A(dt) R(dt/2)
D(dt/2), second order in dt:

* D, diffusion of u, v and w, is solved exactly.  The zero-flux Laplacian
  of a uniform box is diagonalised by the orthonormal DCT-II along each
  axis, so D transforms, multiplies by exp(tau * eigenvalue) and transforms
  back.  Each axis takes one product with its whole DCT matrix where the
  grid gives it at least as many lines as it has cells, and a parity split
  into two half-size products otherwise (:func:`_full_plan`).
* R, absorption, is solved exactly: w <- w * exp(-tau (alpha u + beta v)).
* A, chemotaxis with w frozen, is Heun's SSP-RK2 on the advective face
  fluxes of :meth:`_Workspace.transport`.

Only A limits the step: :func:`stable_dt` bounds it by each cell's total
advective face rate plus its absorption rate, which keeps every upwind
stage a convex combination; A splits itself when D and R steepened w past
that bound.

:func:`run` steps with one :class:`_Workspace`, the run's stepper: it holds
the run's parameters and scheme options and what every step would
otherwise rebuild, and the operators work in place in it.  It keeps the
spectrum of the state it last returned, so in a run one step's closing D
and the next step's opening D cost one forward transform and two inverses:
3 transforms a step, not 4.  The public rhs, stable_dt and step each build
a throwaway one, so they act as pure functions: their input is only read,
and the arrays they return are fresh and never written again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# record is not called here; benchmarks/tracing.py wraps solver.record
from .diagnostics import RunContext, record, record_block
from .model import (
    _NORMAL,
    Grid,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
    State,
    _first_bad_cell,
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
_DECAY_FLOOR = 2.0**-100  # a smaller decay factor is 0: see _Workspace.decay_for


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

    def __init__(self, time: float, field: str, cell: tuple[int, ...], value: float):
        message = (f"positivity violation in {field} at t={time}: min {value} at cell "
                   f"{cell} (reduce dt or switch to upwind)")
        super().__init__(message, time, field, cell, value)


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


def _full_plan(m: int, cells: int) -> bool:
    """Whether the axis of m cells, in a grid of ``cells`` cells, takes one
    product with its whole DCT-II matrix: where the 3 stacked fields give
    it at least as many lines (3 cells / m) as it has cells.  With fewer,
    longer lines the m x m matrix outweighs the data, and the parity split
    of :class:`_Axis`, with matrices of half the size, is faster."""
    return 3 * cells >= m * m


class _Axis:
    """One axis of a :class:`_Workspace`, m cells of width h: its DCT plan
    and its views of the DCT's buffers (:meth:`views`), the zero-flux
    Laplacian's eigenvalues along it (``eig``), h^2, and its face views.

    The plan applies the orthonormal DCT-II of the axis, C[k, i] =
    s_k cos(pi k (2i+1) / (2m)), to every line of the stacked fields along
    it; :func:`_full_plan` picks one of two forms once, from the grid's
    shape.  ``full``: one product with C, or with C.T for the inverse, and
    ``eig`` in natural mode order.  Otherwise the product is split by
    parity.  Even modes are symmetric under the reflection i -> m-1-i and
    odd modes antisymmetric.  With q = ceil(m/2) and r = floor(m/2), the
    even coefficients are ``even @ s`` for the pair sums s_i = x_i +
    x_{m-1-i} (i < r, then the middle cell when m is odd) and the odd ones
    ``odd @ d`` for the pair differences; the inverse rebuilds x_i and
    x_{m-1-i} as the sum and the difference of ``even.T @ E`` and
    ``odd.T @ O``.  ``even`` is q x q, ``odd`` is r x r and symmetric, and
    ``eig`` lists the even modes first.  ``eig`` holds -(4/h^2)
    sin^2(pi k / (2m)) in the axis's spectral layout.

    Faces are kept in flat cell order.  With ``post`` the product of the
    cell counts after the axis, slot i joins cell i to cell i + post, for
    the first ``n`` = cells - post cells, so a field's low sides are
    ``flat[..., :n]`` and its high sides ``flat[..., post:]``, both
    contiguous.  A slot whose low cell is the last of its line along the
    axis is a wrap slot: it joins two different lines (only on axes after
    the first).  Every difference zeroes its wrap slots right after it is
    taken, through ``wrap`` or ``diff_wrap``; a zero difference carries a
    zero flux and rate, so the wrap slots leave every cell as it was.

    The face views: ``dw``, w's differences during A, in the axis's row of
    the workspace's ``spectrum``; ``up``, A's upwind mask (dw > 0), one row
    of the workspace's masks; ``diff`` in ``scratch[1]``, the differences
    :meth:`_Workspace.stable_dt` takes and A's scaled |dw|; ``flux``, both
    species' flux, in the buffer the axes share; ``coef``, chi1 and chi2
    times A's stage length / h^2 as a (2, 1) column; the low and high
    sides of the workspace's ``rate``, and ``rate_scale``, max(chi1, chi2)
    / h^2, which the workspace sets.
    """

    __slots__ = ("full", "q", "r", "view", "mirror", "cache", "right", "forward",
                 "backward", "eig", "h2", "post", "n", "dw", "wrap", "up", "diff",
                 "diff_wrap", "flux", "coef", "rate_lo", "rate_hi", "rate_scale")

    def __init__(self, axis: int, grid: Grid, spectrum: np.ndarray, scratch: np.ndarray,
                 up: np.ndarray, flux: np.ndarray):
        m, h, dim = grid.cells[axis], grid.spacing[axis], grid.dim
        cells = math.prod(grid.cells)
        self.full = _full_plan(m, cells)
        self.q, self.r = q, r = (m + 1) // 2, m // 2
        self.h2 = h * h
        k = np.arange(m)
        # cos(pi k (2i+1) / (2m)), the angle reduced exactly (whole floats)
        basis = np.multiply.outer(k, 2 * k + 1, dtype=float)
        np.remainder(basis, 4 * m, out=basis)
        basis *= np.pi / (2 * m)
        np.cos(basis, out=basis)
        basis *= math.sqrt(2.0 / m)
        basis[0] *= math.sqrt(0.5)
        modes = k if self.full else np.concatenate([k[0::2], k[1::2]])
        eig = -(4.0 / self.h2) * np.sin(modes * (np.pi / (2 * m))) ** 2
        self.eig = eig.reshape((m,) + (1,) * (dim - 1 - axis))
        post = math.prod(grid.cells[axis + 1 :])
        self.right = post == 1  # transformed by a right product, x @ mat
        self.view = (-1, m) if self.right else (-1, m, post)
        # in the right layout, the operand order BLAS reads fastest: C order
        # for the many lines of a full plan, F order for the few of a split
        if self.full and self.right:
            self.forward, self.backward = basis.T.copy(), basis
        elif self.full:
            self.forward, self.backward = basis, basis.T
        else:
            even, odd = basis[0::2, :q].copy(), basis[1::2, :r].copy()
            if self.right:
                self.forward, self.backward = (even.T, odd.T), (even.T.copy().T, odd.T)
            else:  # a left product broadcast over the axes before it
                self.forward, self.backward = (even, odd), (even.T, odd.T)
        self.mirror = slice(m - 1, q - 1, -1)  # cells m-1 .. m-r, partners of 0 .. r-1
        self.cache = {}
        for buf in spectrum, scratch:
            self.cache[id(buf)] = self.views(buf)
        n = cells - post
        self.post, self.n = post, n
        self.dw = spectrum[axis].reshape(-1)[:n]
        self.diff = scratch[1].reshape(-1)[:n]
        # the first axis's faces end where its last line starts: no wrap slot
        self.wrap = self.dw.reshape(-1, post)[m - 1 :: m] if axis else None
        self.diff_wrap = self.diff.reshape(-1, post)[m - 1 :: m] if axis else None
        self.up = up[axis, :n]
        self.flux = flux[: 2 * n].reshape(2, n)
        self.coef = np.empty((2, 1))
        rate = scratch[2].reshape(-1)
        self.rate_lo, self.rate_hi = rate[:n], rate[post:]

    def views(self, buf: np.ndarray) -> tuple:
        """The stacked ``buf`` along the axis: whole, its first q and last r
        cells (modes), its first r cells, their mirror partners, and its
        middle cell (None when m is even); cached for the ``buffers`` the
        workspace keeps."""
        got = self.cache.get(id(buf))
        if got is None:
            x, q, r = buf.reshape(self.view), self.q, self.r
            middle = x[:, r] if q > r else None
            got = x, x[:, :q], x[:, q:], x[:, :r], x[:, self.mirror], middle
        return got

    def product(self, mat: np.ndarray, x: np.ndarray, out: np.ndarray) -> None:
        """``x @ mat`` into ``out`` in the right layout, ``mat @ x`` in the left."""
        a, b = (x, mat) if self.right else (mat, x)
        np.matmul(a, b, out=out)


class _Workspace:
    """The stepper of a run: its grid, parameters and scheme options, and
    everything a step needs besides its state, built once.

    * ``scratch``, three fields: the second buffer of every DCT, the two
      exponents of R (rows 0 and 1), :meth:`rhs`'s eigenvalues and
      :meth:`stable_dt`'s v term (row 0) and signal differences (row 1), and
      A's Heun stage (``stage``, u and v) and face rate (``rate``, w's row);
    * ``spectrum`` and ``mean``, what D leaves behind: the DCT-II of each
      field's zero-mean part and each field's mean, of D's last result.
      Between the opening D's inverse transform and the closing D's forward
      transform ``spectrum`` holds nothing live, so A borrows it: row k
      holds w's face differences along axis k (``_Axis.dw``), taken once
      per A call, since w is frozen in A;
    * ``kept``, the state :meth:`step` last returned when ``spectrum`` and
      ``mean`` still describe it (None when the step clipped w), so that
      the next step's opening D starts from them.  A method that writes
      ``spectrum`` outside :meth:`step` sets it to None first;
      :meth:`stable_dt` runs between steps and writes only ``scratch``;
    * ``decay``, exp(tau * eigenvalue) for the tau of :meth:`decay_for`'s
      last call;
    * one upwind mask per axis, and one flux buffer for both species,
      two fields long and shared by all axes.  A
      method that reads the face views of :class:`_Axis` fills them first,
      so no call depends on what an earlier one left;
    * ``axes``, one :class:`_Axis` per axis, in axis order, and ``full``,
      how many of them take the one-matrix plan.

    The operators work in place on a stacked (3, *grid.shape) array of u,
    v and w.  :meth:`step` makes that array fresh every step, because it is
    the step's output.
    """

    def __init__(self, grid: Grid, params: ModelParams, scheme: SchemeOptions):
        self.params, self.scheme = params, scheme
        self.chi = max(params.chi1, params.chi2)
        self.upwind = scheme.advection == "upwind"
        self.scratch = np.empty((3,) + grid.shape)
        self.stage, self.rate = self.scratch[:2], self.scratch[2]
        self.spectrum, self.mean = np.empty((3,) + grid.shape), np.empty((3, 1))
        self.kept = None
        self.decay, self.tau = np.empty(grid.shape), None
        cells = math.prod(grid.cells)
        up, flux = np.empty((grid.dim, cells), bool), np.empty(2 * cells)
        self.axes = [_Axis(axis, grid, self.spectrum, self.scratch, up, flux)
                     for axis in range(grid.dim)]
        self.full = sum(axis.full for axis in self.axes)
        for axis in self.axes:
            axis.rate_scale = self.chi / axis.h2
        self.stage_faces = self.faces(self.stage.reshape(2, -1))

    def eigenvalues(self, out: np.ndarray) -> np.ndarray:
        """``out`` filled with each mode's zero-flux Laplacian eigenvalue,
        the sum of its per-axis ones in axis order."""
        out.fill(0.0)
        for axis in self.axes:
            out += axis.eig
        return out

    def decay_for(self, tau: float) -> np.ndarray:
        """exp(tau * :meth:`eigenvalues`), recomputed only when tau changed.

        A factor below ``_DECAY_FLOOR`` is 0: that mode is gone far below
        rounding, and a coefficient decayed twice (a kept spectrum) cannot
        land among the subnormal numbers, which slow every product that
        reads them many times over.
        """
        if tau != self.tau:
            decay = self.eigenvalues(self.decay)
            decay *= tau
            np.exp(decay, out=decay)
            decay[decay < _DECAY_FLOOR] = 0.0
            self.tau = tau
        return self.decay

    def _dct(self, src: np.ndarray, dst: np.ndarray, inverse: bool) -> None:
        """DCT-II of the stacked fields in ``src`` along each axis in turn,
        or its inverse, into ``dst``, with ``scratch`` as the other buffer.

        A full-plan axis writes the buffer it does not read, and a split
        one transforms in place through the other, so each axis writes
        ``dst`` when an even number of full-plan axes follow it.  ``src``
        is only read, unless it is the buffer the first axis writes.
        """
        after = self.full
        for axis in self.axes:
            after -= axis.full
            out = dst if after % 2 == 0 else self.scratch
            x, x_even, x_odd, x_lo, x_hi, x_mid = axis.views(src)
            y, y_even, y_odd, y_lo, y_hi, y_mid = axis.views(out)
            src = out
            if axis.full:
                axis.product(axis.backward if inverse else axis.forward, x, y)
                continue
            _, t_even, t_odd, t_lo, _, t_mid = axis.views(self.scratch if out is dst else dst)
            if inverse:
                even, odd = axis.backward
                axis.product(even, x_even, t_even)
                axis.product(odd, x_odd, t_odd)
                np.add(t_lo, t_odd, out=y_lo)
                np.subtract(t_lo, t_odd, out=y_hi)
                if y_mid is not None:  # the middle cell pairs with itself
                    y_mid[...] = t_mid
            else:
                np.add(x_lo, x_hi, out=t_lo)
                np.subtract(x_lo, x_hi, out=t_odd)
                if x_mid is not None:
                    t_mid[...] = x_mid
                even, odd = axis.forward
                axis.product(even, t_even, y_even)
                axis.product(odd, t_odd, y_odd)

    def transform(self, fields: np.ndarray) -> None:
        """D's forward transform: each field's mean into ``mean``, and the
        DCT-II of its zero-mean part into ``spectrum``."""
        flat, mean = fields.reshape(3, -1), self.mean
        np.add.reduce(flat, axis=1, keepdims=True, out=mean)
        mean /= flat.shape[1]
        start = self.spectrum if self.full % 2 == 0 else self.scratch  # see _dct
        np.subtract(flat, mean, out=start.reshape(3, -1))
        self._dct(start, self.spectrum, inverse=False)

    def diffuse(self, fields: np.ndarray, decay: np.ndarray, kept: bool = False) -> None:
        """D: exact diffusion in place; ``decay`` is exp(tau * eigenvalue)
        (:meth:`decay_for`).

        Acts on each field's zero-mean part and adds the mean back, so a
        constant field stays exactly constant.  Leaves the result's
        ``spectrum`` and ``mean``.  With ``kept``, they already hold those
        of ``fields``, and D skips the forward transform.
        """
        if not kept:
            self.transform(fields)
        spectrum, flat = self.spectrum, fields.reshape(3, -1)
        spectrum *= decay
        self._dct(spectrum, fields, inverse=True)
        flat += self.mean

    def absorb(self, fields: np.ndarray, tau: float) -> None:
        """R: exact absorption in place, w <- w * exp(-tau (alpha u + beta v))."""
        exponent, other = self.scratch[0], self.scratch[1]
        np.multiply(fields[0], -tau * self.params.alpha, out=exponent)
        np.multiply(fields[1], -tau * self.params.beta, out=other)
        exponent += other
        np.exp(exponent, out=exponent)
        fields[2] *= exponent

    def faces(self, flat: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Each axis's low and high face sides of the flattened ``flat``."""
        return [(flat[..., : axis.n], flat[..., axis.post :]) for axis in self.axes]

    def signal_faces(self, w: np.ndarray) -> None:
        """Fill each axis's ``dw`` with the flattened signal ``w``'s face
        differences, and for upwind its ``up`` mask: the face data of w
        that A and :meth:`rhs` read.  Writes ``spectrum``."""
        for axis in self.axes:
            np.subtract(w[axis.post :], w[: axis.n], out=axis.dw)
            if axis.wrap is not None:
                axis.wrap.fill(0.0)
            if self.upwind:
                np.greater(axis.dw, 0.0, out=axis.up)

    def face_rate(self, w: np.ndarray | None = None) -> np.ndarray:
        """Add each cell's advective face rate, chi |grad w| / h summed over
        the cell's faces with chi = max(chi1, chi2), to ``rate`` and return
        it: the one bound behind :meth:`stable_dt` and the chemotaxis
        substeps.  Reads the ``dw`` of :meth:`signal_faces`, or with the
        flattened signal ``w`` takes its differences in ``scratch[1]``."""
        for axis in self.axes:
            scale = axis.rate_scale
            if scale == math.inf:  # no number bounds the step; skip 0 * inf's warning
                self.rate.fill(math.nan)
                break
            rate = axis.diff
            if w is None:
                np.abs(axis.dw, out=rate)
            else:
                np.subtract(w[axis.post :], w[: axis.n], out=rate)
                if axis.diff_wrap is not None:
                    axis.diff_wrap.fill(0.0)
                np.abs(rate, out=rate)
            rate *= scale
            axis.rate_lo += rate
            axis.rate_hi += rate
        return self.rate

    def scale_fluxes(self, dt: float) -> None:
        """Set each axis's ``coef`` for stages of length ``dt``."""
        chi1, chi2 = self.params.chi1, self.params.chi2
        for axis in self.axes:
            tau = dt / axis.h2
            axis.coef[0, 0], axis.coef[1, 0] = chi1 * tau, chi2 * tau

    def transport(self, dens: list, out: list) -> None:
        """Add the stage length times the chemotaxis term -div(chi d grad w)
        of the stacked densities (species first) to the target: ``dens``
        and ``out`` hold each axis's low and high face sides of both
        (:meth:`faces`).  Reads the face data of :meth:`signal_faces` and
        :meth:`scale_fluxes` (a stage of length 1 in :meth:`rhs`)."""
        scheme = self.scheme.advection
        for axis, (d_lo, d_hi), (out_lo, out_hi) in zip(self.axes, dens, out):
            flux = _face_density(d_lo, d_hi, axis.up, scheme, axis.flux)
            flux *= axis.dw
            flux *= axis.coef
            out_lo -= flux
            out_hi += flux

    def advect(self, fields: np.ndarray, dt: float) -> None:
        """A: chemotaxis of u and v with w frozen, by Heun's SSP-RK2, in place.

        Each Heun step is two forward-Euler stages and ends on their average.
        For upwind, a stage is a convex combination of cell values while its
        length times :meth:`face_rate` stays at most 1 in every cell.
        :meth:`stable_dt` sees w before D and R, which can steepen it, so A
        takes the fewest equal Heun steps that keep that bound: one, unless
        the signal steepened.  w's face data is built once, for every stage.
        """
        flat, dens, stage = fields.reshape(3, -1), fields[:2], self.stage
        self.signal_faces(flat[2])
        self.rate.fill(0.0)
        rate = self.face_rate()
        needed = dt * float(np.maximum.reduce(rate, axis=None))
        substeps = math.ceil(needed) if 1.0 < needed < math.inf else 1  # NaN -> 1
        self.scale_fluxes(dt / substeps)
        dens_faces, stage_faces = self.faces(flat[:2]), self.stage_faces
        for _ in range(substeps):
            np.copyto(stage, dens)
            self.transport(dens_faces, stage_faces)
            dens += stage
            self.transport(stage_faces, dens_faces)
            dens *= 0.5

    def rhs(self, state: State) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:func:`rhs` of ``state``, with D's eigenvalues in ``scratch[0]``."""
        self.kept = None  # the transforms and signal_faces write spectrum
        fields = np.array((state.u, state.v, state.w))
        out = np.empty_like(fields)
        self.transform(fields)
        self.spectrum *= self.eigenvalues(self.scratch[0])
        self._dct(self.spectrum, out, inverse=True)
        flat, out_flat = fields.reshape(3, -1), out.reshape(3, -1)
        self.signal_faces(flat[2])
        self.scale_fluxes(1.0)
        self.transport(self.faces(flat[:2]), self.faces(out_flat[:2]))
        out[2] -= (self.params.alpha * state.u + self.params.beta * state.v) * state.w
        return out[0], out[1], out[2]

    def stable_dt(self, state: State) -> float:
        """:func:`stable_dt` of ``state``."""
        params, scheme = self.params, self.scheme
        with np.errstate(over="ignore"):  # a rate beyond float range stalls the run
            rate = np.multiply(state.u, params.alpha, out=self.rate)
            rate += np.multiply(state.v, params.beta, out=self.scratch[0])
        self.face_rate(state.w.ravel())
        worst = max(float(np.maximum.reduce(rate, axis=None)), _NORMAL)
        return min(scheme.cfl_safety / worst, scheme.dt_max)

    def step(self, state: State, dt: float, t_new: float) -> State:
        """:func:`step` of ``state`` by ``dt``, ending at time ``t_new``.

        When ``state`` is the one this workspace last returned, D's
        spectrum still describes it, and the opening D starts from there:
        Strang's closing half-step of one step and opening half-step of
        the next cost one forward transform and two inverses.
        """
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        kept, self.kept = state is self.kept, None
        fields = np.array((state.u, state.v, state.w))
        decay = self.decay_for(0.5 * dt)
        self.diffuse(fields, decay, kept)
        self.absorb(fields, 0.5 * dt)
        self.advect(fields, dt)
        self.absorb(fields, 0.5 * dt)
        self.diffuse(fields, decay)
        flat = fields.reshape(3, -1)
        lows = np.minimum.reduce(flat, axis=1).tolist()
        if not all(mn >= _NEGATIVITY_TOL for mn in lows):  # NaN fails it too
            for name, arr, mn in zip("uvw", fields, lows):
                if math.isnan(mn):
                    raise BlowUpDetected(t_new, name, _first_bad_cell(np.isnan(arr)), mn)
                if mn < _NEGATIVITY_TOL:
                    raise PositivityError(t_new, name, _first_bad_cell(arr == mn), mn)
        u, v, w = fields
        if lows[2] < 0.0:
            np.maximum(w, 0.0, out=w)
        highs = np.maximum.reduce(flat[:2], axis=1).tolist()
        for name, arr, mx in zip("uv", fields, highs):
            if mx > self.scheme.blowup_linf:
                raise BlowUpDetected(t_new, name, _first_bad_cell(arr == mx), mx)
        result = State(t=t_new, u=u, v=v, w=w)
        self.kept = result if lows[2] >= 0.0 else None  # a clipped w is not D's result
        return result


def rhs(
    state: State,
    params: ModelParams,
    grid: Grid,
    scheme: SchemeOptions,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Semi-discrete right-hand side (du, dv, dw): the sum of the
    generators of :func:`step`'s D, R and A, each from the stepper's kernel.

    D's is the DCT-II of each field's zero-mean part times its Laplacian
    eigenvalues, transformed back; R's the sink -(alpha u + beta v) w on w;
    A's the chemotaxis kernel (:meth:`_Workspace.transport`) at unit time
    scale.  du and dv are divergence-form: their sums telescope to zero.
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
    return _Workspace(grid, params, scheme).step(state, dt, state.t + dt)


@dataclass(frozen=True)
class RunResult:
    final_state: State  # the last good state
    records: np.ndarray  # the diagnostics table, read-only (diagnostics.COLUMNS)
    context: RunContext
    steps: int = 0  # completed steps; a failed step is not counted
    failure: SolverError | None = None  # what ended the run early

    @property
    def outcome(self) -> str:
        """Either "completed" or the failure's outcome: "blowup",
        "positivity" or "stalled"."""
        return "completed" if self.failure is None else self.failure.outcome


def _resolve_weight(
    config: ScenarioConfig, w0_max: float
) -> tuple[WeightFunction | None, str]:
    """Pick the weight used for the tracked L^p value.

    The weight must cover the amplitude max(chi1, chi2) * ||w0||_inf.
    Explicit (p, eps) from the config win, and raise ``ValueError`` when
    they cannot cover it; otherwise the threshold construction chooses them
    when the amplitude allows it.
    """
    m = max(config.params.chi1, config.params.chi2) * w0_max
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
    state and the rows sampled so far.

    The diagnostics table's rows are computed a block at a time by
    :func:`~chemolab.diagnostics.record_block`, which takes as many
    consecutive samples as fit ``_BLOCK_BYTES`` stacked (at least one), and
    joined into one read-only table.  The run steps with one
    :class:`_Workspace` of its own.
    """
    grid, params = config.grid, config.params
    init = validate_initial_data(*config.initial.build(grid), grid)
    weight, weight_note = _resolve_weight(config, init.w0_max)
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
    ws = _Workspace(grid, params, config.options)
    block = max(1, _BLOCK_BYTES // ws.scratch.nbytes)  # scratch is one sample's u, v, w
    pending = [state]  # samples whose rows are not computed yet
    blocks: list[np.ndarray] = []

    def flush() -> None:
        blocks.append(record_block(pending, ctx, blocks[-1][-1] if blocks else None))
        pending.clear()

    t_end = config.t_end
    k = 1
    steps = 0
    failure = None
    try:
        while state.t < t_end:
            if len(pending) == block:
                flush()
            target = k * config.output_every
            if target >= t_end or (t_end - target) < 1e-12 * t_end:
                target = t_end
            while state.t < target:
                dt_stable = ws.stable_dt(state)
                remaining = target - state.t
                landed = dt_stable >= remaining
                if not (landed or dt_stable >= _DT_FLOOR):  # a landing step needs no floor
                    if math.isnan(dt_stable):  # a face rate beyond float range
                        why = "the step bound is not a number"
                    elif dt_stable == ws.scheme.dt_max:
                        why = f"time.dt_max = {dt_stable} is below the step floor {_DT_FLOOR}"
                    else:
                        why = f"stability requires dt < {_DT_FLOOR}"
                    raise SolverError(
                        f"{why} at t={state.t}; giving up", state.t, value=dt_stable
                    )
                dt = remaining if landed else dt_stable
                state = ws.step(state, dt, target if landed else state.t + dt)
                steps += 1
            pending.append(state)
            k += 1
    except SolverError as exc:
        failure = exc.with_traceback(None)  # whose frames hold the last step's arrays
    if pending:
        flush()
    records = np.concatenate(blocks)
    records.flags.writeable = False
    return RunResult(state, records, ctx, steps, failure)
