"""Scalar diagnostics: masses, norms, energies, the weighted L^p value,
decay-rate fits and the end-of-run property checks.

Everything here is a pure computation over immutable snapshots.  A run's
diagnostics are one table: a NumPy array of :data:`TABLE_DTYPE`, one row per
sample, indexed by the names in :data:`COLUMNS`.  The rows of consecutive
samples are computed together (:func:`record_block`): each of u, v and w is
stacked once over them, and each column is one array operation over a
stack.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Iterable, Sequence

import numpy as np

from .model import _NORMAL, Grid, ModelParams, State, _integrals
from .weight import WeightFunction

__all__ = [
    "COLUMNS",
    "TABLE_DTYPE",
    "DecayFit",
    "DecayFitError",
    "RunContext",
    "CheckResult",
    "VerificationReport",
    "mass",
    "dirichlet_energy",
    "lyapunov",
    "record",
    "record_block",
    "fit_decay",
    "verify_run",
]

# verify_run's thresholds
_MASS_TOL = 1e-10  # relative drift of the integrals of u and v
_WEIGHTED_LP_TOL = 1e-10  # relative rise of the weighted L^p value of u
_ENVELOPE_TOL = 1e-12  # excess of max w over ||w0||_inf, and its growth per sample
_ENERGY_BUDGET_TOL = 1e-8  # excess of int int |grad w|^2 over half int w0^2
_TAIL_FRACTION = 0.25  # trailing share of the run for the Dirichlet increments
_TAIL_INCREMENT_TOL = 0.01  # their allowed share of the whole integral
_END_STATE_TOL = 1e-3  # distance of u, v and w from their limits at t_end
_DECAY_WINDOW_FRACTION = 0.5  # trailing share of the samples fit_decay uses


COLUMNS = (  # the diagnostics table's columns, in CSV order
    "t",
    "mass_u",
    "mass_v",
    "linf_u",
    "linf_v",
    "linf_w",
    "dev_u",  # ||u - ubar0||_inf
    "dev_v",
    "lyapunov",  # (1/p) int u^p phi(chi1 w); NaN: no weight, not finite,
    # or chi1 max w beyond m + chi1 * _ENVELOPE_TOL (record_block)
    "dirichlet_u",  # int |grad u|^2 at time t
    "dirichlet_v",
    "dirichlet_w",
    "cum_dirichlet_u",  # int_0^t int |grad u|^2, by the trapezoid rule
    "cum_dirichlet_v",
    "cum_dirichlet_w",
)
TABLE_DTYPE = np.dtype([(name, float) for name in COLUMNS])  # one row per sample


@dataclass(frozen=True)
class RunContext:
    """Reference scalars fixed at t = 0 that diagnostics refer back to."""

    grid: Grid
    params: ModelParams
    ubar0: float
    vbar0: float
    w0_max: float
    int_w0_sq: float  # int w0^2 over the box
    weight: WeightFunction | None = None
    weight_note: str = ""

    @property
    def reference_rate(self) -> float:
        """alpha*ubar0 + beta*vbar0, the homogeneous signal decay rate."""
        return self.params.alpha * self.ubar0 + self.params.beta * self.vbar0


def _dirichlet_energies(fields: np.ndarray, grid: Grid) -> np.ndarray:
    """Discrete int |grad f|^2 of the fields stacked along the leading axes."""
    lead = fields.ndim - grid.dim
    total = np.zeros(fields.shape[:lead])
    for axis, h in enumerate(grid.spacing):
        diff = np.diff(fields, axis=lead + axis)
        with np.errstate(over="ignore"):  # a gradient beyond float range: inf
            diff /= h
            diff *= diff
        total += _integrals(diff, grid)
        del diff  # freed before the next axis allocates its own
    return total


def mass(field: np.ndarray, grid: Grid) -> float:
    """Discrete integral of a cell field over the box."""
    return float(_integrals(np.asarray(field, float)[None], grid)[0])


def dirichlet_energy(field: np.ndarray, grid: Grid) -> float:
    """Discrete int |grad f|^2 from face gradients.

    Sums (difference/h)^2 times the face dual volume over interior faces,
    the same face-based gradient the solver's fluxes use; boundary faces
    carry zero gradient, matching the zero-flux condition.
    """
    return float(_dirichlet_energies(np.asarray(field, float)[None], grid)[0])


def _weighted_lp(
    u: np.ndarray, s: np.ndarray, wf: WeightFunction, grid: Grid
) -> np.ndarray:
    """(1/p) int u^p phi(s) of each sample stacked along the first axis of u
    and of the weight's argument s; inf beyond float range.

    Raises ``ValueError`` when s leaves the weight's domain [0, m].
    """
    phi = wf.phi(s)
    with np.errstate(over="ignore", invalid="ignore"):  # u**p beyond float range
        integrand = u**wf.p
        integrand *= phi
        integral = np.add.reduce(integrand.reshape(len(u), -1), axis=1)
    # not _integrals: (1/p) h^n comes first, and reordering would move the bytes
    return ((1.0 / wf.p) * grid.volume_element) * integral


def lyapunov(state: State, wf: WeightFunction, chi: float, grid: Grid) -> float:
    """Weighted L^p value (1/p) int u^p phi(chi * w); inf beyond float range.

    Raises ``ValueError`` when chi * w leaves the weight's domain [0, m],
    by any margin: unlike :func:`record_block`, it grants no tolerance.
    """
    return float(_weighted_lp(state.u[None], chi * state.w[None], wf, grid)[0])


def _stacked(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays stacked along a new first axis; a view for one array."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def record_block(
    states: Sequence[State], ctx: RunContext, prev: np.void | None
) -> np.ndarray:
    """The table rows of consecutive samples; ``prev`` is the row of the
    sample before the first of them, None at t = 0.

    Each of u, v and w is stacked once over the samples (a view when there
    is one), and every column is computed from these three stacks, one
    array operation per field.  Each sum runs along one field of one
    sample, as it would for that sample alone, and the cumulative columns
    add the trapezoid increments in sample order, from ``prev``'s value or
    from 0: the rows equal those of :func:`record`, sample by sample, bit
    for bit.  The weighted L^p value uses phi(min(chi1 w, m)) and is kept
    where it is finite and chi1 * max w <= m + chi1 * ``_ENVELOPE_TOL``, the
    rounding ``signal_envelope`` grants w; elsewhere it is NaN, so a block
    never raises.
    """
    grid, n = ctx.grid, len(states)
    u, v, w = (_stacked([getattr(s, name) for s in states]) for name in "uvw")
    highs = [np.maximum.reduce(f.reshape(n, -1), axis=1) for f in (u, v, w)]
    lows = [np.minimum.reduce(f.reshape(n, -1), axis=1) for f in (u, v, w)]
    out = np.empty(n, TABLE_DTYPE)
    out["t"] = [s.t for s in states]
    out["mass_u"], out["mass_v"] = _integrals(u, grid), _integrals(v, grid)
    # max |f - c| is max(max f - c, c - min f): rounding is monotone, so this
    # is the same float without a field-sized temporary
    for name, hi, lo in zip("uvw", highs, lows):
        out[f"linf_{name}"] = np.maximum(hi, -lo)
    for name, hi, lo, c in zip("uv", highs, lows, (ctx.ubar0, ctx.vbar0)):
        out[f"dev_{name}"] = np.maximum(hi - c, c - lo)
    wf, chi = ctx.weight, ctx.params.chi1
    if wf is None:
        out["lyapunov"] = math.nan
    else:
        s = chi * w
        values = _weighted_lp(u, np.minimum(s, wf.m, out=s), wf, grid)
        kept = (chi * highs[2] <= wf.m + chi * _ENVELOPE_TOL) & np.isfinite(values)
        out["lyapunov"] = np.where(kept, values, math.nan)
    for name, f in zip("uvw", (u, v, w)):
        out[f"dirichlet_{name}"] = _dirichlet_energies(f, grid)
    t = out["t"]
    half_dt = 0.5 * np.diff(t)
    with np.errstate(over="ignore"):  # an energy beyond float range: inf
        for name in "uvw":
            d, cum = out[f"dirichlet_{name}"], out[f"cum_dirichlet_{name}"]
            cum[1:] = half_dt * (d[:-1] + d[1:])  # the trapezoid steps, then their sums
            cum[0] = 0.0 if prev is None else prev[f"cum_dirichlet_{name}"] + (
                0.5 * (t[0] - prev["t"]) * (prev[f"dirichlet_{name}"] + d[0])
            )
            np.add.accumulate(cum, out=cum)
    return out


def record(state: State, ctx: RunContext, prev: np.void | None) -> np.void:
    """One sample's table row; pass prev=None for the first.

    The one-sample case of :func:`record_block`.
    """
    return record_block((state,), ctx, prev)[0]


class DecayFitError(ValueError):
    """Raised when an exponential fit is declined; the message says why."""


@dataclass(frozen=True)
class DecayFit:
    t_start: float  # first time in the fit window
    rate: float  # fitted exponential decay rate of linf_w
    r_squared: float

    def __post_init__(self) -> None:
        if not -1e-12 <= self.r_squared <= 1.0 + 1e-12:
            raise ValueError(f"r_squared out of [0, 1]: {self.r_squared}")


def fit_decay(series: Iterable[tuple[float, float]]) -> DecayFit:
    """Least-squares exponential rate of linf_w over the trailing window.

    Fits -ln(linf_w) against t on the trailing half of the samples
    (``_DECAY_WINDOW_FRACTION``), because the guaranteed rate only applies
    once the densities sit near their means.  Samples below the smallest
    normal float, where an underflowing signal stalls, are left out first.
    """
    pairs = [(float(t), float(w)) for t, w in series]
    pairs = [(t, w) for t, w in pairs if not 0.0 < w < _NORMAL]
    n_window = max(int(round(_DECAY_WINDOW_FRACTION * len(pairs))), 3)
    window = pairs[-n_window:]
    if len(window) < 3:
        raise DecayFitError(
            f"fit declined: need at least 3 samples in the window, have {len(window)}"
        )
    if any(w <= 0.0 for _, w in window):
        raise DecayFitError(
            "fit declined: window contains nonpositive linf_w values"
        )
    t = np.array([p[0] for p in window])
    y = -np.log([p[1] for p in window])
    t_mean = t.mean()
    y_mean = y.mean()
    tt = t - t_mean
    ss_t = float(np.sum(tt * tt))
    if ss_t == 0.0:
        raise DecayFitError("fit declined: degenerate time window")
    rate = float(np.sum(tt * (y - y_mean)) / ss_t)
    resid = y - (y_mean + rate * tt)
    ss_res = float(np.sum(resid * resid))
    ss_tot = float(np.sum((y - y_mean) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else max(0.0, min(1.0, 1.0 - ss_res / ss_tot))
    return DecayFit(t_start=float(t[0]), rate=rate, r_squared=r2)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [asdict(c) for c in self.checks]}

    def __iter__(self):
        return iter(self.checks)


def verify_run(records: np.ndarray, ctx: RunContext) -> VerificationReport:
    """Check a completed run's diagnostics table against the provable
    solution properties.

    Each check is independent: mass conservation, the signal maximum
    principle, the signal energy budget, finiteness of the density energy
    integrals, end-state stabilization, the guaranteed signal decay rate,
    and the paper's weighted L^p estimate for u, which is left out when the
    first row has no weighted value.  A failed check is a verdict in the
    returned report, not an exception; only a table of fewer than two rows
    raises ``ValueError``.
    """
    if len(records) < 2:
        raise ValueError("verify_run needs at least two records")
    checks: list[CheckResult] = []

    def check(name, value, threshold, detail, passed=None):
        """Append a check; it passes when value <= threshold unless told."""
        if passed is None:
            passed = value <= threshold
        checks.append(CheckResult(name, passed, value, threshold, detail))

    for name in ("u", "v"):
        m = records[f"mass_{name}"]
        drift = float(np.abs(m - m[0]).max()) / float(m[0])
        check(
            f"mass_conservation_{name}", drift, _MASS_TOL,
            f"max relative drift of the discrete integral of {name}",
        )

    t, linf_w = records["t"], records["linf_w"]
    env_excess = float(linf_w.max()) - ctx.w0_max
    growth = float(np.diff(linf_w).max())
    check(
        "signal_envelope", max(env_excess, growth), _ENVELOPE_TOL,
        "max w stays below its initial sup and is nonincreasing; "
        "nonnegativity is enforced by the stepper at every step",
        passed=env_excess <= _ENVELOPE_TOL and growth <= _ENVELOPE_TOL,
    )

    excess = float(records["cum_dirichlet_w"].max()) - 0.5 * ctx.int_w0_sq
    check(
        "signal_energy_budget", excess, _ENERGY_BUDGET_TOL,
        "cumulative int int |grad w|^2 minus half int w0^2, at every sample",
    )

    tail_idx = np.argmax(t >= (1.0 - _TAIL_FRACTION) * t[-1])
    for name in ("u", "v"):
        cum = records[f"cum_dirichlet_{name}"]
        total = float(cum[-1])
        check(
            f"dirichlet_convergence_{name}", total - float(cum[tail_idx]),
            _TAIL_INCREMENT_TOL * total + 1e-30,
            f"trailing-{_TAIL_FRACTION:.0%} increment of the cumulative "
            f"int int |grad {name}|^2 (finiteness of the energy integral)",
        )

    last = records[-1]
    check(
        "end_state", float(max(last["dev_u"], last["dev_v"], last["linf_w"])),
        _END_STATE_TOL,
        "max of ||u-ubar0||_inf, ||v-vbar0||_inf, ||w||_inf at t_end "
        "(engineering tolerance; no quantitative rate is guaranteed "
        "for the densities)",
    )

    guaranteed = 0.5 * ctx.reference_rate
    try:
        if linf_w.max() == 0.0:
            rate, detail = math.inf, "the signal is identically zero: nothing to decay"
        else:
            fit = fit_decay(zip(t.tolist(), linf_w.tolist()))
            rate, detail = fit.rate, (
                f"fitted exponential rate of ||w||_inf over the trailing "
                f"{_DECAY_WINDOW_FRACTION:.0%} (r^2 = {fit.r_squared:.6f}); "
                f"guaranteed rate is half of {ctx.reference_rate:.6g}"
            )
    except DecayFitError as exc:
        check("decay_rate", math.nan, 0.0, str(exc), passed=False)
    else:
        check("decay_rate", rate, guaranteed, detail, passed=rate >= guaranteed)

    lyap = records["lyapunov"]
    if not math.isnan(lyap[0]):
        first, top = float(lyap[0]), float(lyap.max())
        if np.isnan(lyap).any():  # the signal left the weight's domain, or float range
            rise = math.inf
        elif first > 0.0:
            rise = top / first - 1.0
        else:  # u^p underflows at t = 0: any positive value is a rise
            rise = 0.0 if top == 0.0 else math.inf
        check(
            "weighted_lp_u", rise, _WEIGHTED_LP_TOL,
            "max over the samples of (1/p) int u^p phi(chi1 w), relative to "
            "its initial value, minus 1; an empty value after the first fails",
        )

    return VerificationReport(checks=tuple(checks))
