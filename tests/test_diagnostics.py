import gc
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from chemolab import solver
from chemolab.diagnostics import (
    COLUMNS,
    TABLE_DTYPE,
    DecayFitError,
    RunContext,
    dirichlet_energy,
    fit_decay,
    lyapunov,
    mass,
    record,
    record_block,
    verify_run,
)
from chemolab.model import (
    ConstantInit,
    CosineBumpInit,
    Grid,
    InitialSpec,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
    State,
)
from chemolab.solver import run, stable_dt, step
from chemolab.weight import make_weight
from tests.conftest import reference_scenario
from tests.reference_fv import hi, lo

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


@pytest.mark.parametrize("chi1, chi2", [(0.5, 1.5), (1.5, 0.5)])
def test_run_lyapunov_column_weights_u_with_chi1(chi1, chi2):
    # the column is (1/p) h^n sum u^p phi(chi1 w), whichever chi is larger;
    # with chi1 = chi2 a run cannot tell the two apart
    config = replace(
        reference_scenario((64,), t_end=0.2, scheme="upwind"),
        params=ModelParams(chi1=chi1, chi2=chi2, alpha=1.0, beta=1.0),
    )
    res = run(config)
    assert res.outcome == "completed"
    grid, wf = config.grid, res.context.weight
    first = State(0.0, *config.initial.build(grid))
    for rec, state in ((res.records[0], first), (res.records[-1], res.final_state)):
        weighted = [
            grid.volume_element / wf.p * float(np.sum(state.u**wf.p * wf.phi(chi * state.w)))
            for chi in (chi1, chi2)
        ]
        assert rec["lyapunov"] == pytest.approx(weighted[0], rel=1e-12)
        assert abs(weighted[1] - weighted[0]) > 1e-6 * weighted[0]


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
    assert rec["cum_dirichlet_u"] == 0.0
    assert rec["cum_dirichlet_w"] == 0.0
    assert rec["mass_u"] == pytest.approx(1.0, rel=1e-15)
    assert rec["dev_u"] == 0.0
    assert math.isnan(rec["lyapunov"])


def test_record_homogeneous_has_no_gradients():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    st = State(0.3, np.ones((8, 8)), np.ones((8, 8)), np.full((8, 8), 0.2))
    rec = record(st, _ctx(g), None)
    assert rec["dirichlet_u"] == 0.0 and rec["dirichlet_v"] == 0.0
    assert rec["dirichlet_w"] == 0.0
    assert rec["dev_u"] == 0.0 and rec["dev_v"] == 0.0


def test_record_trapezoid_increment():
    # constant integrand q over a step dt accumulates exactly q*dt
    g = Grid(lengths=(1.0,), cells=(16,))
    x = g.cell_centers(0)
    st0 = State(0.0, np.ones(16), np.ones(16), x.copy())
    rec0 = record(st0, _ctx(g), None)
    st1 = State(0.5, np.ones(16), np.ones(16), x + 1.0)  # same gradients
    rec1 = record(st1, _ctx(g), rec0)
    assert rec1["dirichlet_w"] == rec0["dirichlet_w"]
    assert rec1["cum_dirichlet_w"] == pytest.approx(0.5 * rec0["dirichlet_w"], rel=1e-14)


def _record_one_field_at_a_time(state, ctx, prev):
    """record as it was written before it stacked the fields: one NumPy
    pass per field and quantity, and the trapezoid advanced from the
    previous row in Python floats.  The reference for bit-identity."""
    grid = ctx.grid

    def integral(f):
        return grid.volume_element * float(np.sum(f))

    def energy(f):
        total = 0.0
        for axis, h in enumerate(grid.spacing):
            diff = (f[hi(axis, grid.dim)] - f[lo(axis, grid.dim)]) / h
            total += integral(diff * diff)
        return total

    du, dv, dw = energy(state.u), energy(state.v), energy(state.w)
    if prev is None:
        cums = (0.0, 0.0, 0.0)
    else:
        last = dict(zip(COLUMNS, prev.item()))
        half_dt = 0.5 * (state.t - last["t"])
        cums = (
            last["cum_dirichlet_u"] + half_dt * (last["dirichlet_u"] + du),
            last["cum_dirichlet_v"] + half_dt * (last["dirichlet_v"] + dv),
            last["cum_dirichlet_w"] + half_dt * (last["dirichlet_w"] + dw),
        )
    wf = ctx.weight
    phi = wf.phi(ctx.params.chi1 * state.w)
    lyap = (1.0 / wf.p) * integral(state.u**wf.p * phi)
    row = np.zeros((), TABLE_DTYPE)
    row["t"] = float(state.t)
    row["mass_u"] = integral(state.u)
    row["mass_v"] = integral(state.v)
    row["linf_u"] = float(np.abs(state.u).max())
    row["linf_v"] = float(np.abs(state.v).max())
    row["linf_w"] = float(np.abs(state.w).max())
    row["dev_u"] = float(np.abs(state.u - ctx.ubar0).max())
    row["dev_v"] = float(np.abs(state.v - ctx.vbar0).max())
    row["lyapunov"] = lyap
    row["dirichlet_u"] = du
    row["dirichlet_v"] = dv
    row["dirichlet_w"] = dw
    row["cum_dirichlet_u"] = cums[0]
    row["cum_dirichlet_v"] = cums[1]
    row["cum_dirichlet_w"] = cums[2]
    return row[()]


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
        assert new.item() == old.item()
        dt = stable_dt(state, params, grid, config.options)
        state = step(state, dt, params, grid, config.options)


# ------------------------------------------------------------ record_block


def _samples(cells, n):
    """The reference scenario's first n states, a stable upwind step apart,
    and a context for them."""
    config = reference_scenario(cells=cells, scheme="upwind")
    grid, params, opts = config.grid, config.params, config.options
    state = State(0.0, *config.initial.build(grid))
    states = [state]
    for _ in range(n - 1):
        state = step(state, stable_dt(state, params, grid, opts), params, grid, opts)
        states.append(state)
    return states, grid, params


@pytest.mark.parametrize("weighted", [True, False], ids=["weight", "no_weight"])
@pytest.mark.parametrize(
    "cells", [(255,), (256,), (33, 32), (12, 9), (7, 6, 5), (8, 8, 8)]
)
def test_record_block_is_record_sample_by_sample_bit_for_bit(cells, weighted):
    states, grid, params = _samples(cells, 10)
    u, v, w = states[0].u, states[0].v, states[0].w
    ctx = RunContext(
        grid=grid, params=params, ubar0=float(u.mean()), vbar0=float(v.mean()),
        w0_max=float(w.max()), int_w0_sq=mass(w * w, grid),
        weight=make_weight(2.0, 0.3, float(w.max())) if weighted else None,
    )
    one_by_one, prev = [], None
    for state in states:
        prev = record(state, ctx, prev)
        one_by_one.append(prev)
    assert all((not math.isnan(r["lyapunov"])) == weighted for r in one_by_one)
    expected = repr([r.item() for r in one_by_one])
    # repr tells every float apart, -0.0 from 0.0 included
    assert repr(record_block(states, ctx, None).tolist()) == expected
    blocks, prev, start = [], None, 0
    for size in (1, 3, 4, 2):  # block boundaries in the middle of the run
        block = record_block(states[start : start + size], ctx, prev)
        blocks += block.tolist()
        prev, start = block[-1], start + size
    assert repr(blocks) == expected


@pytest.mark.parametrize(
    "chi1, chi2, excess, kept",
    [
        (1.0, 1.0, 4 * 2.0**-54, True),  # 4 ulps above ||w0||_inf = m
        (1.0, 1.0, 0.9e-12, True),  # within the envelope's tolerance
        (1.0, 1.0, 2e-12, False),  # beyond m + chi1 * 1e-12
        (0.5, 1.0, 0.1, True),  # chi1 max w <= m = chi2 ||w0||_inf < chi2 max w
    ],
    ids=["ulps", "tolerance", "beyond", "chi1_below_chi2"],
)
def test_record_block_weighs_a_signal_up_to_the_envelope_tolerance(
    chi1, chi2, excess, kept
):
    grid = Grid(lengths=(1.0,), cells=(16,))
    params = ModelParams(chi1=chi1, chi2=chi2, alpha=1.0, beta=1.0)
    ones, w0 = np.ones(16), 0.25 + 0.25 * np.cos(np.pi * grid.cell_centers(0))
    w0_max = float(w0.max())
    ctx = RunContext(
        grid=grid, params=params, ubar0=1.0, vbar0=1.0, w0_max=w0_max,
        int_w0_sq=mass(w0 * w0, grid), weight=make_weight(2.0, 0.3, chi2 * w0_max),
    )
    w = w0.copy()
    w[0] += excess  # cell 0 holds the maximum
    later = State(1e-3, ones, ones, w)
    records = record_block([State(0.0, ones, ones, w0), later], ctx, None)
    assert not math.isnan(records[0]["lyapunov"])
    assert (not math.isnan(records[1]["lyapunov"])) == kept
    m = ctx.weight.m
    if kept:  # weighted as if chi1 w were clipped to m
        clipped = replace(later, w=np.minimum(w, m / chi1))
        assert records[1]["lyapunov"] == lyapunov(clipped, ctx.weight, chi1, grid)
    assert (chi1 * w.max() > m) == (chi1 == chi2)
    if chi1 == chi2:
        with pytest.raises(ValueError, match="weight domain exceeded"):
            lyapunov(later, ctx.weight, chi1, grid)  # lyapunov grants no tolerance
        failed = {c.name for c in verify_run(records, ctx) if not c.passed}
        beyond = {"signal_envelope", "weighted_lp_u"}
        assert failed & beyond == (set() if kept else beyond)


@pytest.mark.parametrize("cells", [(64,), (12, 9), (6, 5, 4)])
def test_run_records_do_not_depend_on_the_block_length(cells, monkeypatch):
    config = reference_scenario(cells=cells, t_end=0.05, scheme="upwind")
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 1)  # one sample per block
    by_one = run(config)
    # seven samples per block: the 201 samples end on a partial block
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 7 * 24 * math.prod(cells))
    by_seven = run(config)
    assert len(by_one.records) == 201
    assert repr(by_seven.records.tolist()) == repr(by_one.records.tolist())


def test_record_copies_no_field_of_a_lone_sample():
    # 32^3 upwind: a lone sample's stacks are views of its fields, so what
    # record allocates is its temporaries: one face difference at a time,
    # and the weighted value's chi*w, phi and u^p.
    config = replace(
        reference_scenario((32, 32, 32), t_end=0.005, scheme="upwind"),
        output_every=5e-4,
    )
    result = run(config)
    state, ctx = result.final_state, result.context
    assert ctx.weight is not None
    for context, bound in ((ctx, 3.5), (replace(ctx, weight=None), 2.0)):
        record(state, context, None)  # warm-up
        gc.collect()
        tracemalloc.start()
        try:
            record(state, context, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * state.u.nbytes


def test_run_ending_early_mid_block_keeps_every_good_sample(monkeypatch):
    # chi1 = 30 concentrates u past the sentinel 3 near t = 0.009, after
    # some 18 samples
    config = ScenarioConfig(
        params=ModelParams(chi1=30.0, chi2=1.0, alpha=1.0, beta=1.0),
        grid=Grid(lengths=(1.0,), cells=(32,)),
        initial=InitialSpec(
            u=ConstantInit(1.0),
            v=ConstantInit(1.0),
            w=CosineBumpInit(base=0.5, amplitude=0.5, modes=(1,)),
        ),
        t_end=2.0,
        output_every=5e-4,
        options=SchemeOptions(advection="upwind", blowup_linf=3.0),
    )
    monkeypatch.setattr(solver, "_BLOCK_BYTES", 1)  # a record per sample
    by_one = run(config)
    assert by_one.outcome == "blowup"
    n = len(by_one.records)
    assert n > 10
    block = next(k for k in range(3, n) if n % k)  # the failure splits a block
    monkeypatch.setattr(solver, "_BLOCK_BYTES", block * 24 * 32)
    blocked = run(config)
    assert blocked.outcome == "blowup"
    assert repr(blocked.records.tolist()) == repr(by_one.records.tolist())
    assert blocked.records[-1]["t"] <= blocked.final_state.t < blocked.failure.time


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


def test_fit_decay_leaves_out_underflowed_samples():
    # a signal that stalls at a subnormal floor still decays at its rate
    t = np.linspace(0.0, 800.0, 201)
    w = np.maximum(np.exp(-2.0 * t), 1e-323)
    assert np.count_nonzero(w < np.finfo(float).tiny) > 100
    fit = fit_decay(zip(t, w))
    assert fit.rate == pytest.approx(2.0, rel=1e-9)


def test_fit_decay_on_homogeneous_run(homogeneous_run):
    series = [(r["t"], r["linf_w"]) for r in homogeneous_run.records]
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
    assert len(by_name) == 9
    for name, threshold in (
        ("mass_conservation_u", 1e-10),
        ("mass_conservation_v", 1e-10),
        ("weighted_lp_u", 1e-10),
        ("signal_envelope", 1e-12),
        ("signal_energy_budget", 1e-8),
        ("end_state", 1e-3),
    ):
        assert by_name[name].threshold == threshold, name
    tail = next(r for r in records if r["t"] >= 0.75 * records[-1]["t"])
    for name in ("u", "v"):
        check = by_name[f"dirichlet_convergence_{name}"]
        total = records[-1][f"cum_dirichlet_{name}"]
        assert check.threshold == 0.01 * total + 1e-30
        assert check.value == total - tail[f"cum_dirichlet_{name}"]
        assert "trailing-25%" in check.detail
    decay = by_name["decay_rate"]
    assert decay.threshold == 0.5 * ctx.reference_rate
    assert "trailing 50%" in decay.detail
    fit = fit_decay((r["t"], r["linf_w"]) for r in records)
    assert fit.rate == decay.value
    assert fit.t_start == records[-round(0.5 * len(records))]["t"]


def test_weighted_lp_u_fails_on_a_rise_or_a_later_empty_value():
    res = run(reference_scenario(cells=(16, 16), t_end=0.5))
    records, n = res.records, len(res.records)

    def verdict(values):
        rows = records.copy()
        rows["lyapunov"] = values
        return {c.name: c for c in verify_run(rows, res.context)}.get("weighted_lp_u")

    assert verdict([1.0] * n).passed and verdict([1.0] * n).value == 0.0
    assert not verdict([1.0, 1.0 + 1e-9] + [1.0] * (n - 2)).passed
    empty = verdict([1.0] * (n - 1) + [math.nan])  # the signal left the weight's domain
    assert not empty.passed and empty.value == math.inf
    assert verdict([math.nan] * n) is None  # no weighted value at t = 0: no check
    assert verdict([0.0] * n).passed  # u^p underflows at every sample
    assert not verdict([0.0] * (n - 1) + [1e-300]).passed


# Deliberately broken solvers: each wraps one split operator of the
# stepper, a method of its workspace.  verify_run must notice every one of
# them, and no check may be beyond the reach of all of them.
_DIFFUSE, _ABSORB = solver._Workspace.diffuse, solver._Workspace.absorb


def _leaky_diffuse(ws, fields, decay, kept=False):
    # loses a billionth of u and v per D call
    _DIFFUSE(ws, fields, decay, kept)
    fields[:2] *= 1.0 - 1e-9


def _frozen_density_diffuse(ws, fields, decay, kept=False):
    # u and v do not diffuse
    densities = fields[:2].copy()
    _DIFFUSE(ws, fields, decay, kept)
    fields[:2] = densities


def _frozen_signal_diffuse(ws, fields, decay, kept=False):
    # w does not diffuse, so only absorption dissipates its gradient
    signal = fields[2].copy()
    _DIFFUSE(ws, fields, decay, kept)
    fields[2] = signal


def _no_absorb(ws, fields, tau):
    pass


def _signal_source_absorb(ws, fields, tau):
    # a source 2.1 w, just above the mean absorption rate alpha u + beta v = 2:
    # once diffusion has flattened w, its maximum grows again
    _ABSORB(ws, fields, tau)
    fields[2] *= np.exp(2.1 * tau)


def _growing_signal_absorb(ws, fields, tau):
    # a source 2.5 w after absorbing: max w soon leaves the weight's domain
    _ABSORB(ws, fields, tau)
    fields[2] *= np.exp(2.5 * tau)


_MUTATIONS = {
    "leaky_diffuse": (
        "diffuse", _leaky_diffuse, {"mass_conservation_u", "mass_conservation_v"}
    ),
    "frozen_density_diffuse": (
        "diffuse",
        _frozen_density_diffuse,
        {"dirichlet_convergence_u", "dirichlet_convergence_v", "end_state"},
    ),
    "frozen_signal_diffuse": (
        "diffuse", _frozen_signal_diffuse, {"signal_energy_budget"}
    ),
    "no_absorb": ("absorb", _no_absorb, {"end_state", "decay_rate"}),
    "signal_source_absorb": (
        "absorb", _signal_source_absorb, {"signal_envelope", "end_state", "decay_rate"}
    ),
    "growing_signal_absorb": (
        "absorb",
        _growing_signal_absorb,
        {"signal_envelope", "end_state", "decay_rate", "weighted_lp_u"},
    ),
}


def test_signal_outside_the_weight_domain_is_an_empty_lyapunov_cell(monkeypatch):
    monkeypatch.setattr(solver._Workspace, "absorb", _growing_signal_absorb)
    res = run(reference_scenario((64,), scheme="upwind"))
    assert res.outcome == "completed"
    ctx = res.context
    outside = [ctx.params.chi1 * r["linf_w"] > ctx.weight.m for r in res.records]
    first = outside.index(True)
    assert 0 < first and all(outside[first:])
    empty = [math.isnan(r["lyapunov"]) for r in res.records]
    assert empty == [i >= first for i in range(len(empty))]
    failed = {c.name for c in verify_run(res.records, ctx) if not c.passed}
    assert "signal_envelope" in failed


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_verify_run_fails_on_broken_solver(mutation, monkeypatch):
    attr, broken, expected = _MUTATIONS[mutation]
    monkeypatch.setattr(solver._Workspace, attr, broken)
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
    with pytest.raises(ValueError):
        verify_run(record_block([st], _ctx(g), None), _ctx(g))
