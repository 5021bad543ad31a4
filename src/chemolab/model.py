"""Domain types: model parameters, rectangular grids, states, scenarios.

All types are immutable value objects after construction (field arrays are
marked read-only), so they can be shared across threads without coordination.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

from .weight import _check_p_eps

__all__ = [
    "ModelParams",
    "Grid",
    "State",
    "ConstantInit",
    "CosineBumpInit",
    "GaussianInit",
    "FileInit",
    "InitialSpec",
    "InitialField",
    "ValidatedInitialData",
    "SchemeOptions",
    "ScenarioConfig",
    "ThresholdReport",
    "validate_initial_data",
    "threshold_check",
    "read_field_raw",
    "write_field_raw",
]

_NORMAL = np.finfo(float).tiny  # the smallest normal float


@dataclass(frozen=True)
class ModelParams:
    """The four positive constants of the system.

    chi1/chi2 are the chemotactic sensitivities of the two populations,
    alpha/beta their signal consumption rates.
    """

    chi1: float
    chi2: float
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        for name in ("chi1", "chi2", "alpha", "beta"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"params.{name} must be a positive real, got {value}")


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered mesh on an axis-aligned box in 1, 2 or 3 dims.

    Boxes admit exact conservative stencils and exact zero-flux boundary
    faces, which is why the domain is restricted to them.
    """

    lengths: tuple[float, ...]
    cells: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "lengths", tuple(float(L) for L in self.lengths))
        for m in self.cells:
            try:
                whole = not isinstance(m, bool) and float(m).is_integer()
            except OverflowError:
                raise ValueError("grid.cells entry is too large for a float") from None
            if not whole:
                raise ValueError(f"grid.cells must be whole numbers, got {m!r}")
        object.__setattr__(self, "cells", tuple(int(m) for m in self.cells))
        if not 1 <= len(self.lengths) <= 3:
            raise ValueError("grid dimension must be 1, 2 or 3")
        if len(self.cells) != len(self.lengths):
            raise ValueError("grid.lengths and grid.cells must have equal length")
        for L in self.lengths:
            if not (L > 0.0 and math.isfinite(L)):
                raise ValueError(f"grid side length must be positive, got {L}")
        for m in self.cells:
            if m < 2:
                raise ValueError(f"need at least 2 cells per axis, got {m}")
        # the stepper divides by h^2 and the diagnostics by cell and box volumes
        if min(h * h for h in self.spacing) < _NORMAL or self.volume_element < _NORMAL:
            raise ValueError(
                f"grid.lengths {self.lengths}: h*h or the cell volume is below the "
                "smallest normal float"
            )
        if not math.isfinite(self.volume):
            raise ValueError(f"grid.lengths {self.lengths}: the box volume overflows")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @cached_property  # read on every face-flux evaluation
    def spacing(self) -> tuple[float, ...]:
        return tuple(L / m for L, m in zip(self.lengths, self.cells))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.cells

    @property
    def volume_element(self) -> float:
        return math.prod(self.spacing)

    @property
    def volume(self) -> float:
        return math.prod(self.lengths)

    def cell_centers(self, axis: int) -> np.ndarray:
        h = self.spacing[axis]
        return (np.arange(self.cells[axis]) + 0.5) * h

    def center_mesh(self) -> tuple[np.ndarray, ...]:
        """Cell-center coordinate arrays broadcast to the grid shape."""
        axes = [self.cell_centers(k) for k in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


@lru_cache(maxsize=None)
def _lo(axis: int, dim: int) -> tuple[slice, ...]:
    """All but the last entry along ``axis``: the low side of each interior
    face of a cell array, or every face but the last of a face array."""
    return tuple(slice(None, -1) if k == axis else slice(None) for k in range(dim))


@lru_cache(maxsize=None)
def _hi(axis: int, dim: int) -> tuple[slice, ...]:
    """All but the first entry along ``axis``; the counterpart of :func:`_lo`."""
    return tuple(slice(1, None) if k == axis else slice(None) for k in range(dim))


@dataclass(frozen=True)
class State:
    """Cell-averaged fields u, v (densities) and w (signal) at time t.

    Arrays are marked read-only on construction; stepping produces fresh
    states instead of mutating.
    """

    t: float
    u: np.ndarray
    v: np.ndarray
    w: np.ndarray

    def __post_init__(self) -> None:
        if not (self.t >= 0.0 and math.isfinite(self.t)):
            raise ValueError(f"state time must be a finite real >= 0, got {self.t}")
        for name in ("u", "v", "w"):
            arr = np.asarray(getattr(self, name), dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if not (self.u.shape == self.v.shape == self.w.shape):
            raise ValueError("state fields must share one shape")


@dataclass(frozen=True)
class ConstantInit:
    value: float

    def sample(self, grid: Grid) -> np.ndarray:
        return np.full(grid.shape, float(self.value))


@dataclass(frozen=True)
class CosineBumpInit:
    """base + amplitude * prod_k cos(modes[k] * pi * x_k / L_k)."""

    base: float
    amplitude: float
    modes: tuple[int, ...] = ()

    def sample(self, grid: Grid) -> np.ndarray:
        modes = self.modes if self.modes else (1,) * grid.dim
        if len(modes) != grid.dim:
            raise ValueError("cosine_bump modes must give one integer per axis")
        out = np.full(grid.shape, float(self.base))
        bump = np.ones(grid.shape)
        for k, (x, mode) in enumerate(zip(grid.center_mesh(), modes)):
            if mode:
                bump = bump * np.cos(mode * np.pi * x / grid.lengths[k])
        return out + self.amplitude * bump


@dataclass(frozen=True)
class GaussianInit:
    """floor + amplitude * exp(-|x - center|^2 / (2 width^2))."""

    center: tuple[float, ...]
    width: float
    amplitude: float
    floor: float = 0.0

    def sample(self, grid: Grid) -> np.ndarray:
        if len(self.center) != grid.dim:
            raise ValueError("gaussian center must give one coordinate per axis")
        if not self.width > 0.0:
            raise ValueError("gaussian width must be positive")
        try:
            spread = 2.0 * self.width**2
        except OverflowError:  # the limit exp(-sq / inf) = 1
            spread = math.inf
        sq = np.zeros(grid.shape)
        for x, c in zip(grid.center_mesh(), self.center):
            sq = sq + (x - c) ** 2
        return self.floor + self.amplitude * np.exp(-sq / spread)


@dataclass(frozen=True)
class FileInit:
    """Raw little-endian float64 cell array, row-major with x fastest."""

    path: str

    def sample(self, grid: Grid) -> np.ndarray:
        return read_field_raw(self.path, grid)


InitialField = Union[ConstantInit, CosineBumpInit, GaussianInit, FileInit]


@dataclass(frozen=True)
class InitialSpec:
    u: InitialField
    v: InitialField
    w: InitialField

    def build(self, grid: Grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Sample all three fields at cell centers (second-order accurate
        stand-in for exact cell averages)."""
        return self.u.sample(grid), self.v.sample(grid), self.w.sample(grid)


def read_field_raw(path, grid: Grid) -> np.ndarray:
    data = np.fromfile(path, dtype="<f8")
    expected = math.prod(grid.cells)
    if data.size != expected:
        raise ValueError(
            f"raw field {path!s} holds {data.size} values, grid needs {expected}"
        )
    return data.reshape(grid.cells, order="F")


def write_field_raw(arr: np.ndarray, path) -> None:
    with open(path, "wb") as fh:
        fh.write(np.asarray(arr, dtype="<f8").tobytes(order="F"))


@dataclass(frozen=True)
class ValidatedInitialData:
    """Initial fields that passed the positivity hypotheses, plus the
    scalars every later diagnostic refers back to."""

    u: np.ndarray
    v: np.ndarray
    w: np.ndarray
    ubar0: float  # mean of u over the box
    vbar0: float
    w0_max: float


def _first_bad_cell(mask: np.ndarray) -> tuple[int, ...]:
    return tuple(int(i) for i in np.argwhere(mask)[0])


def validate_initial_data(u0, v0, w0, grid: Grid) -> ValidatedInitialData:
    """Check initial fields against the positivity hypotheses.

    u0 and v0 must be strictly positive, w0 nonnegative, all finite and
    sized to the grid.  Returns the triple unchanged together with the
    recorded means and the sup of w0.  Idempotent.
    """
    fields = {}
    for name, raw in (("u0", u0), ("v0", v0), ("w0", w0)):
        arr = np.asarray(raw, dtype=float)
        if arr.shape != grid.shape:
            raise ValueError(
                f"{name} has shape {arr.shape}, grid expects {grid.shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(
                f"{name} has a non-finite entry at cell "
                f"{_first_bad_cell(~np.isfinite(arr))}"
            )
        fields[name] = arr
    for name in ("u0", "v0"):
        arr = fields[name]
        if np.any(arr <= 0.0):
            raise ValueError(
                f"non-positive initial density: {name} at cell "
                f"{_first_bad_cell(arr <= 0.0)}"
            )
    if np.any(fields["w0"] < 0.0):
        raise ValueError(
            f"negative initial signal: w0 at cell "
            f"{_first_bad_cell(fields['w0'] < 0.0)}"
        )
    u, v, w = (fields[n].copy() for n in ("u0", "v0", "w0"))
    for arr in (u, v, w):
        arr.flags.writeable = False
    return ValidatedInitialData(
        u=u,
        v=v,
        w=w,
        ubar0=float(u.mean()),
        vbar0=float(v.mean()),
        w0_max=float(w.max()),
    )


@dataclass(frozen=True)
class ThresholdReport:
    """Advisory check of the boundedness threshold; the solver runs either
    way."""

    m1: float  # chi1 * ||w0||_inf
    m2: float  # chi2 * ||w0||_inf
    bound: float  # sqrt(2/n) * pi
    within: bool


def threshold_check(params: ModelParams, w0_max: float, n: int) -> ThresholdReport:
    if not (w0_max >= 0.0 and math.isfinite(w0_max)):
        raise ValueError(f"w0_max must be finite and >= 0, got {w0_max}")
    if n < 1:
        raise ValueError(f"dimension n must be >= 1, got {n}")
    m1 = params.chi1 * w0_max
    m2 = params.chi2 * w0_max
    bound = math.sqrt(2.0 / n) * math.pi
    return ThresholdReport(m1=m1, m2=m2, bound=bound, within=max(m1, m2) < bound)


@dataclass(frozen=True)
class SchemeOptions:
    """Numerical options of the solver; the one place they are validated.

    Error messages name the config key each option is read from.
    """

    advection: str = "central"
    dt_max: float = math.inf
    cfl_safety: float = 0.5
    blowup_linf: float = 1e8  # divergence sentinel

    def __post_init__(self) -> None:
        if self.advection not in ("central", "upwind"):
            raise ValueError(
                f"scheme.advection must be 'central' or 'upwind', got {self.advection!r}"
            )
        if not self.dt_max > 0.0:
            raise ValueError(f"time.dt_max must be positive, got {self.dt_max}")
        if not 0.0 < self.cfl_safety <= 1.0:
            raise ValueError(
                f"time.cfl_safety must lie in (0, 1], got {self.cfl_safety}"
            )
        if not self.blowup_linf > 0.0:
            raise ValueError(
                f"scheme.blowup_linf must be positive, got {self.blowup_linf}"
            )


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a simulation run needs, fully resolved.

    An ``options.dt_max`` above ``t_end`` is lowered to ``t_end``: no step of
    a run is longer.
    """

    params: ModelParams
    grid: Grid
    initial: InitialSpec
    t_end: float
    output_every: float | None = None
    options: SchemeOptions = SchemeOptions()
    weight_p: float | None = None
    weight_eps: float | None = None

    def __post_init__(self) -> None:
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise ValueError(f"time.t_end must be a positive real, got {self.t_end}")
        if self.options.dt_max > self.t_end:
            object.__setattr__(self, "options", replace(self.options, dt_max=self.t_end))
        if self.output_every is None:
            object.__setattr__(self, "output_every", self.t_end / 200.0)
        if not (0.0 < self.output_every and math.isfinite(self.output_every)):
            raise ValueError(
                f"output.every must be a positive real, got {self.output_every}"
            )
        if (self.weight_p is None) != (self.weight_eps is None):
            raise ValueError("weight.p and weight.eps must be given together")
        if self.weight_p is not None:
            _check_p_eps(self.weight_p, self.weight_eps, "weight.")
