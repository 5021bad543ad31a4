import numpy as np
import pytest

from chemolab import solver
from chemolab.diagnostics import (
    DecayFitError,
    DiagnosticsRecord,
    RunContext,
    dirichlet_energy,
    fit_decay,
    lyapunov,
    mass,
    record,
    verify_run,
)
from chemolab.model import Grid, ModelParams, State, _hi, _lo
from chemolab.solver import run, stable_dt, step
from chemolab.weight import make_weight
from tests.conftest import reference_scenario

PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0)


# --------------------------------------------------------------------- mass


def test_mass_examples():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    assert mass(np.ones((8, 8)), g) == pytest.approx(1.0, rel=1e-15)
    g_half = Grid(lengths=(1.0, 0.5), cells=(8, 8))
    assert mass(np.full((8, 8), 2.0), g_half) == pytest.approx(1.0, rel=1e-15)
    g1 = Grid(lengths=(1.0,), cells=(64,))
    u = 1.0 + 0.5 * np.cos(np.pi * g1.cell_centers(0))
    assert mass(u, g1) == pytest.approx(1.0, abs=1e-12)


def test_mass_is_linear():
    rng = np.random.default_rng(1)
    g = Grid(lengths=(2.0,), cells=(32,))
    f, h = rng.random(32), rng.random(32)
    assert mass(3.0 * f + h, g) == pytest.approx(
        3.0 * mass(f, g) + mass(h, g), rel=1e-13
    )


# ---------------------------------------------------------------- dirichlet


def test_dirichlet_energy_constant_is_zero():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    assert dirichlet_energy(np.full((8, 8), 4.2), g) == 0.0


def test_dirichlet_energy_linear_field():
    # Unit slope on (0,1): every interior face carries gradient 1, the two
    # zero-flux boundary faces carry 0, so the sum is (m-1)/m (tends to the
    # exact integral 1 as the mesh refines).
    for m in (16, 64, 256):
        g = Grid(lengths=(1.0,), cells=(m,))
        e = dirichlet_energy(g.cell_centers(0), g)
        assert e == pytest.approx((m - 1) / m, rel=1e-13)


def test_dirichlet_energy_cosine():
    g = Grid(lengths=(1.0,), cells=(128,))
    e = dirichlet_energy(np.cos(np.pi * g.cell_centers(0)), g)
    assert e == pytest.approx(np.pi**2 / 2.0, rel=0.02)


def test_dirichlet_energy_shift_invariant():
    rng = np.random.default_rng(2)
    g = Grid(lengths=(1.0, 1.0), cells=(12, 12))
    f = rng.random((12, 12))
    assert dirichlet_energy(f + 7.5, g) == pytest.approx(
        dirichlet_energy(f, g), rel=1e-12
    )


# ----------------------------------------------------------------- lyapunov


def test_lyapunov_zero_signal():
    g = Grid(lengths=(1.0,), cells=(32,))
    rng = np.random.default_rng(3)
    u = 1.0 + rng.random(32)
    st = State(0.0, u, np.ones(32), np.zeros(32))
    wf = make_weight(2.0, 0.3, 0.5)
    # phi(0) = 1, so the value is (1/p) int u^p
    expected = 0.5 * g.volume_element * np.sum(u**2)
    assert lyapunov(st, wf, 1.0, g) == pytest.approx(expected, rel=1e-14)


def test_lyapunov_uniform_fields():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    wf = make_weight(2.0, 0.3, 0.5)
    st = State(0.0, np.ones((8, 8)), np.ones((8, 8)), np.full((8, 8), 0.4))
    expected = (1.0 / 2.0) * g.volume * wf.phi(0.4)
    assert lyapunov(st, wf, 1.0, g) == pytest.approx(expected, rel=1e-13)


def test_lyapunov_domain_guard():
    g = Grid(lengths=(1.0,), cells=(8,))
    wf = make_weight(2.0, 0.3, 0.5)
    st = State(0.0, np.ones(8), np.ones(8), np.full(8, 0.6))
    with pytest.raises(ValueError, match="weight domain exceeded"):
        lyapunov(st, wf, 1.0, g)


def test_lyapunov_monotone_in_u():
    g = Grid(lengths=(1.0,), cells=(16,))
    wf = make_weight(2.0, 0.3, 0.5)
    u = np.ones(16)
    st = State(0.0, u, np.ones(16), np.full(16, 0.2))
    base = lyapunov(st, wf, 1.0, g)
    u2 = u.copy()
    u2[5] += 0.5
    assert lyapunov(State(0.0, u2, st.v, st.w), wf, 1.0, g) > base


# ------------------------------------------------------------------ record


def _ctx(grid, weight=None):
    return RunContext(
        grid=grid,
        params=PARAMS,
        ubar0=1.0,
        vbar0=1.0,
        w0_max=0.5,
        int_w0_sq=0.25 * grid.volume,
        weight=weight,
    )


def test_record_first_sample_has_zero_cumulatives():
    g = Grid(lengths=(1.0,), cells=(16,))
    st = State(0.0, np.ones(16), np.ones(16), np.full(16, 0.5))
    rec = record(st, _ctx(g), None)
    assert rec.cum_dirichlet_u == 0.0
    assert rec.cum_dirichlet_w == 0.0
    assert rec.mass_u == pytest.approx(1.0, rel=1e-15)
    assert rec.dev_u == 0.0
    assert rec.lyapunov is None


def test_record_homogeneous_has_no_gradients():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    st = State(0.3, np.ones((8, 8)), np.ones((8, 8)), np.full((8, 8), 0.2))
    rec = record(st, _ctx(g), None)
    assert rec.dirichlet_u == 0.0 and rec.dirichlet_v == 0.0 and rec.dirichlet_w == 0.0
    assert rec.dev_u == 0.0 and rec.dev_v == 0.0


def test_record_trapezoid_increment():
    # constant integrand q over a step dt accumulates exactly q*dt
    g = Grid(lengths=(1.0,), cells=(16,))
    x = g.cell_centers(0)
    st0 = State(0.0, np.ones(16), np.ones(16), x.copy())
    rec0 = record(st0, _ctx(g), None)
    st1 = State(0.5, np.ones(16), np.ones(16), x + 1.0)  # same gradients
    rec1 = record(st1, _ctx(g), rec0)
    assert rec1.dirichlet_w == rec0.dirichlet_w
    assert rec1.cum_dirichlet_w == pytest.approx(0.5 * rec0.dirichlet_w, rel=1e-14)


def _record_one_field_at_a_time(state, ctx, prev):
    """record as it was written before it stacked the fields: one NumPy
    pass per field and quantity.  The reference for bit-identity."""
    grid = ctx.grid

    def integral(f):
        return grid.volume_element * float(np.sum(f))

    def energy(f):
        total = 0.0
        for axis, h in enumerate(grid.spacing):
            diff = (f[_hi(axis, grid.dim)] - f[_lo(axis, grid.dim)]) / h
            total += integral(diff * diff)
        return total

    du, dv, dw = energy(state.u), energy(state.v), energy(state.w)
    if prev is None:
        cums = (0.0, 0.0, 0.0)
    else:
        half_dt = 0.5 * (state.t - prev.t)
        cums = (
            prev.cum_dirichlet_u + half_dt * (prev.dirichlet_u + du),
            prev.cum_dirichlet_v + half_dt * (prev.dirichlet_v + dv),
            prev.cum_dirichlet_w + half_dt * (prev.dirichlet_w + dw),
        )
    wf = ctx.weight
    phi = wf.phi(ctx.params.chi1 * state.w)
    lyap = (1.0 / wf.p) * integral(state.u**wf.p * phi)
    return DiagnosticsRecord(
        t=float(state.t),
        mass_u=integral(state.u),
        mass_v=integral(state.v),
        linf_u=float(np.abs(state.u).max()),
        linf_v=float(np.abs(state.v).max()),
        linf_w=float(np.abs(state.w).max()),
        dev_u=float(np.abs(state.u - ctx.ubar0).max()),
        dev_v=float(np.abs(state.v - ctx.vbar0).max()),
        lyapunov=lyap,
        dirichlet_u=du,
        dirichlet_v=dv,
        dirichlet_w=dw,
        cum_dirichlet_u=cums[0],
        cum_dirichlet_v=cums[1],
        cum_dirichlet_w=cums[2],
    )


@pytest.mark.parametrize("cells", [(256,), (32, 32), (12, 10, 8)])
def test_record_is_bit_identical_to_one_field_at_a_time(cells):
    config = reference_scenario(cells=cells, scheme="upwind")
    grid, params = config.grid, config.params
    u, v, w = config.initial.build(grid)
    ctx = RunContext(
        grid=grid, params=params, ubar0=float(u.mean()), vbar0=float(v.mean()),
        w0_max=float(w.max()), int_w0_sq=mass(w * w, grid),
        weight=make_weight(2.0, 0.3, float(w.max())),
    )
    state, new, old = State(0.0, u, v, w), None, None
    for _ in range(4):
        new, old = record(state, ctx, new), _record_one_field_at_a_time(state, ctx, old)
        assert new == old
        dt = stable_dt(state, params, grid, config.options)
        state = step(state, dt, params, grid, config.options)


# --------------------------------------------------------------- fit_decay


def test_fit_decay_recovers_exact_exponential():
    t = np.linspace(0.0, 5.0, 60)
    fit = fit_decay(zip(t, np.exp(-2.0 * t)))
    assert fit.rate == pytest.approx(2.0, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.t_start >= 2.4  # trailing half


def test_fit_decay_intercept_absorbed():
    t = np.linspace(0.0, 8.0, 40)
    fit = fit_decay(zip(t, 3.0 * np.exp(-0.7 * t)))
    assert fit.rate == pytest.approx(0.7, abs=1e-10)


def test_fit_decay_declines_bad_windows():
    with pytest.raises(DecayFitError, match="at least 3"):
        fit_decay([(0.0, 1.0), (1.0, 0.5)])
    t = np.linspace(0.0, 1.0, 10)
    w = np.exp(-t)
    w[-2] = 0.0
    with pytest.raises(DecayFitError, match="nonpositive"):
        fit_decay(zip(t, w))


def test_fit_decay_on_homogeneous_run(homogeneous_run):
    series = [(r.t, r.linf_w) for r in homogeneous_run.records]
    fit = fit_decay(series)
    assert homogeneous_run.context.reference_rate == pytest.approx(2.0, rel=1e-12)
    assert fit.rate == pytest.approx(2.0, rel=0.01)
    assert fit.r_squared > 0.999999


# --------------------------------------------------------------- verify_run


def test_verify_homogeneous_run_all_pass():
    # long enough for w = 0.5 exp(-2t) to fall below the end-state tolerance;
    # homogeneous dynamics are grid-independent, so a coarse mesh suffices
    from chemolab.model import ConstantInit, InitialSpec, ScenarioConfig

    cfg = ScenarioConfig(
        params=PARAMS,
        grid=Grid(lengths=(1.0, 1.0), cells=(8, 8)),
        initial=InitialSpec(ConstantInit(1.0), ConstantInit(1.0), ConstantInit(0.5)),
        t_end=4.0,
        dt_max=4.0,
    )
    res = run(cfg)
    report = verify_run(res.records, res.context)
    assert report.passed, [c.name for c in report if not c.passed]
    by_name = {c.name: c for c in report}
    # with no gradients the energy budget holds with the full slack
    assert by_name["signal_energy_budget"].value == pytest.approx(
        -0.5 * res.context.int_w0_sq
    )


def test_verify_truncated_run_fails_only_end_state():
    res = run(reference_scenario(cells=(32, 32), t_end=0.5))
    report = verify_run(res.records, res.context)
    failed = [c.name for c in report if not c.passed]
    assert failed == ["end_state"]


def test_verify_report_serializes():
    res = run(reference_scenario(cells=(32, 32), t_end=0.5))
    d = verify_run(res.records, res.context).to_dict()
    assert set(d) == {"passed", "checks"}
    assert all({"name", "passed", "value", "threshold", "detail"} <= set(c) for c in d["checks"])


def test_verify_run_thresholds_are_pinned():
    # every threshold and window verify_run applies, written out as literals
    res = run(reference_scenario(cells=(32, 32), t_end=0.5))
    records, ctx = res.records, res.context
    by_name = {c.name: c for c in verify_run(records, ctx)}
    assert len(by_name) == 8
    for name, threshold in (
        ("mass_conservation_u", 1e-10),
        ("mass_conservation_v", 1e-10),
        ("signal_envelope", 1e-12),
        ("signal_energy_budget", 1e-8),
        ("end_state", 1e-3),
    ):
        assert by_name[name].threshold == threshold, name
    tail = next(r for r in records if r.t >= 0.75 * records[-1].t)
    for name in ("u", "v"):
        check = by_name[f"dirichlet_convergence_{name}"]
        total = getattr(records[-1], f"cum_dirichlet_{name}")
        assert check.threshold == 0.01 * total + 1e-30
        assert check.value == total - getattr(tail, f"cum_dirichlet_{name}")
        assert "trailing-25%" in check.detail
    decay = by_name["decay_rate"]
    assert decay.threshold == 0.5 * ctx.reference_rate
    assert "trailing 50%" in decay.detail
    fit = fit_decay((r.t, r.linf_w) for r in records)
    assert fit.rate == decay.value
    assert fit.t_start == records[-round(0.5 * len(records))].t


# Deliberately broken solvers: each wraps one split operator of the
# stepper.  verify_run must notice every one of them, and no check may be
# beyond the reach of all of them.
_DIFFUSE, _ABSORB = solver._diffuse, solver._absorb


def _leaky_diffuse(fields, decay, grid):
    # loses a billionth of u and v per half step
    _DIFFUSE(fields, decay, grid)
    fields[:2] *= 1.0 - 1e-9


def _frozen_density_diffuse(fields, decay, grid):
    # u and v do not diffuse
    densities = fields[:2].copy()
    _DIFFUSE(fields, decay, grid)
    fields[:2] = densities


def _frozen_signal_diffuse(fields, decay, grid):
    # w does not diffuse, so only absorption dissipates its gradient
    signal = fields[2].copy()
    _DIFFUSE(fields, decay, grid)
    fields[2] = signal


def _no_absorb(fields, tau, params):
    pass


def _signal_source_absorb(fields, tau, params):
    # a source 2.1 w, just above the mean absorption rate alpha u + beta v = 2:
    # once diffusion has flattened w, its maximum grows again
    _ABSORB(fields, tau, params)
    fields[2] *= np.exp(2.1 * tau)


_MUTATIONS = {
    "leaky_diffuse": (
        "_diffuse", _leaky_diffuse, {"mass_conservation_u", "mass_conservation_v"}
    ),
    "frozen_density_diffuse": (
        "_diffuse",
        _frozen_density_diffuse,
        {"dirichlet_convergence_u", "dirichlet_convergence_v", "end_state"},
    ),
    "frozen_signal_diffuse": (
        "_diffuse", _frozen_signal_diffuse, {"signal_energy_budget"}
    ),
    "no_absorb": ("_absorb", _no_absorb, {"end_state", "decay_rate"}),
    "signal_source_absorb": (
        "_absorb", _signal_source_absorb, {"signal_envelope", "end_state", "decay_rate"}
    ),
}


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_verify_run_fails_on_broken_solver(mutation, monkeypatch):
    attr, broken, expected = _MUTATIONS[mutation]
    monkeypatch.setattr(solver, attr, broken)
    res = run(reference_scenario((64,), scheme="upwind"))
    assert res.outcome == "completed"
    report = verify_run(res.records, res.context)
    assert {c.name for c in report if not c.passed} == expected


def test_verify_run_every_check_has_a_breaking_mutation():
    res = run(reference_scenario((64,), scheme="upwind"))
    report = verify_run(res.records, res.context)
    assert report.passed  # the unbroken solver passes every check
    caught = set().union(*(expected for _, _, expected in _MUTATIONS.values()))
    assert caught == {c.name for c in report}


def test_verify_needs_two_records():
    g = Grid(lengths=(1.0,), cells=(8,))
    st = State(0.0, np.ones(8), np.ones(8), np.zeros(8))
    rec = record(st, _ctx(g), None)
    with pytest.raises(ValueError):
        verify_run([rec], _ctx(g))
