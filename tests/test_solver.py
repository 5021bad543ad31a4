import gc
import itertools
import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from scipy.integrate import solve_ivp

from chemolab import solver
from chemolab.convergence import refinement_study
from chemolab.diagnostics import COLUMNS
from chemolab.model import (
    ConstantInit,
    CosineBumpInit,
    FileInit,
    Grid,
    InitialSpec,
    ModelParams,
    ScenarioConfig,
    State,
    write_field_raw,
)
from chemolab.solver import (
    BlowUpDetected,
    PositivityError,
    SchemeOptions,
    SolverError,
    rhs,
    run,
    stable_dt,
    step,
)
from tests.conftest import homogeneous_scenario, reference_scenario
from tests.reference_fv import divergence, grad_w_faces, hi, lo, species_flux

PARAMS = ModelParams(1.0, 1.0, 1.0, 1.0)
CENTRAL = SchemeOptions(advection="central")
UPWIND = SchemeOptions(advection="upwind")


def grid1d(m, L=1.0):
    return Grid(lengths=(L,), cells=(m,))


# ---------------------------------------------------------------- gradients


def test_grad_faces_constant_field():
    g = grid1d(16)
    (gw,) = grad_w_faces(np.full(16, 3.7), g)
    assert gw.shape == (17,)
    assert np.all(gw == 0.0)


def test_grad_faces_linear_field():
    g = grid1d(16)
    (gw,) = grad_w_faces(g.cell_centers(0), g)
    assert np.allclose(gw[1:-1], 1.0, rtol=1e-13)
    assert gw[0] == 0.0 and gw[-1] == 0.0


def test_grad_faces_cosine_second_order():
    errs = []
    for m in (128, 256, 512):
        g = grid1d(m)
        (gw,) = grad_w_faces(np.cos(np.pi * g.cell_centers(0)), g)
        x_face = np.arange(1, m) * g.spacing[0]
        errs.append(np.abs(gw[1:-1] + np.pi * np.sin(np.pi * x_face)).max())
    assert math.log2(errs[0] / errs[1]) >= 1.9
    assert math.log2(errs[1] / errs[2]) >= 1.9


# ------------------------------------------------------------------- fluxes


def test_flux_pure_diffusion_reproduces_laplacian():
    g = grid1d(32)
    rng = np.random.default_rng(0)
    u = 1.0 + rng.random(32)
    (gw,) = grad_w_faces(np.zeros(32), g)
    flux = species_flux(u, chi=0.0, gw=gw, scheme="central", grid=g, axis=0)
    lap = -divergence([flux], g)
    h = g.spacing[0]
    interior = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    assert np.allclose(lap[1:-1], interior, rtol=1e-12)
    # zero-flux ends: one-sided stencil
    assert lap[0] == pytest.approx((u[1] - u[0]) / (h * h), rel=1e-12)


def test_flux_constant_fields_vanish():
    g = grid1d(16)
    (gw,) = grad_w_faces(np.full(16, 0.3), g)
    for scheme in ("central", "upwind"):
        flux = species_flux(np.full(16, 2.0), 1.5, gw, scheme, g, 0)
        assert np.all(flux == 0.0)


def test_flux_uniform_density_linear_signal():
    # u = 1, w = x: interior flux equals chi for both schemes
    g = grid1d(20)
    (gw,) = grad_w_faces(g.cell_centers(0), g)
    for scheme in ("central", "upwind"):
        flux = species_flux(np.ones(20), 2.5, gw, scheme, g, 0)
        assert np.allclose(flux[1:-1], 2.5, rtol=1e-13)
        assert flux[0] == 0.0 and flux[-1] == 0.0


def test_upwind_selects_upstream_cell():
    # h = 1/4 and u steps by 1 per cell, so every face's diffusive flux is -4
    g = grid1d(4)
    u = np.array([1.0, 2.0, 3.0, 4.0])
    x = g.cell_centers(0)
    cases = [
        # w = x: velocity +1, the face carries the left cell u_i
        ("upwind", x, [-3.0, -2.0, -1.0]),
        # w = -x: velocity -1, the face carries the right cell u_{i+1}
        ("upwind", -x, [-6.0, -7.0, -8.0]),
        # central: the face carries the average of its two cells
        ("central", x, [-2.5, -1.5, -0.5]),
        # velocities 0, +1, 0: a face with exactly zero velocity carries no
        # advective flux, whichever cell it reads: pure diffusion
        ("upwind", np.array([0.5, 0.5, 0.75, 0.75]), [-4.0, -2.0, -4.0]),
    ]
    for scheme, w, expected in cases:
        (gw,) = grad_w_faces(w, g)
        flux = species_flux(u, 1.0, gw, scheme, g, 0)
        assert flux[1:-1].tolist() == expected, (scheme, w)
        assert flux[0] == 0.0 and flux[-1] == 0.0


def test_species_flux_boundary_faces_are_zero():
    rng = np.random.default_rng(6)
    g = Grid(lengths=(1.0, 1.0), cells=(6, 5))
    u = 1.0 + rng.random((6, 5))
    gw = grad_w_faces(rng.random((6, 5)), g)
    for scheme, chi, axis in itertools.product(("central", "upwind"), (1.3, 0.0), (0, 1)):
        flux = species_flux(u, chi, gw[axis], scheme, g, axis)
        assert flux.shape == tuple(m + (k == axis) for k, m in enumerate(g.cells))
        first = tuple(0 if k == axis else slice(None) for k in range(g.dim))
        last = tuple(-1 if k == axis else slice(None) for k in range(g.dim))
        assert np.all(flux[first] == 0.0)
        assert np.all(flux[last] == 0.0)
        assert np.all(gw[axis][first] == 0.0)
        assert np.all(gw[axis][last] == 0.0)


# --------------------------------------------------------------------- rhs


def test_rhs_homogeneous_state_reduces_to_ode():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    st = State(0.0, np.full((8, 8), 2.0), np.full((8, 8), 3.0), np.full((8, 8), 0.4))
    params = ModelParams(1.0, 2.0, 0.7, 0.3)
    du, dv, dw = rhs(st, params, g, CENTRAL)
    assert np.all(du == 0.0)
    assert np.all(dv == 0.0)
    assert np.allclose(dw, -(0.7 * 2.0 + 0.3 * 3.0) * 0.4, rtol=1e-14)


def test_rhs_zero_density_is_absorbing():
    g = grid1d(16)
    w = 0.2 + 0.1 * np.cos(np.pi * g.cell_centers(0))
    st = State(0.0, np.zeros(16), np.ones(16), w)
    du, _, _ = rhs(st, PARAMS, g, CENTRAL)
    assert np.all(du == 0.0)


def test_rhs_telescopes_to_zero_total():
    rng = np.random.default_rng(3)
    g = Grid(lengths=(1.0, 0.7), cells=(12, 9))
    st = State(
        0.0,
        1.0 + rng.random((12, 9)),
        1.0 + rng.random((12, 9)),
        rng.random((12, 9)),
    )
    for opts in (CENTRAL, UPWIND):
        du, dv, _ = rhs(st, PARAMS, g, opts)
        scale = np.abs(du).sum()
        assert abs(du.sum()) <= 1e-13 * scale
        assert abs(dv.sum()) <= 1e-13 * scale


def _composed_rhs(state, params, g, scheme):
    """(du, dv, dw) assembled face by face from tests/reference_fv.py."""
    gw = grad_w_faces(state.w, g)
    flux = [
        [species_flux(d, chi, gw[k], scheme, g, k) for k in range(g.dim)]
        for d, chi in ((state.u, params.chi1), (state.v, params.chi2), (state.w, 0.0))
    ]
    du, dv, dw = (-divergence(f, g) for f in flux)
    return du, dv, dw - (params.alpha * state.u + params.beta * state.v) * state.w


# odd and even cell counts and unequal sides in 1-D, 2-D and 3-D: every axis
# after the first has faces that wrap from one line to the next in the
# solver's flat face layout, and none of them may carry a flux or a rate
COMPOSITION_CELLS = pytest.mark.parametrize(
    "cells", [(7,), (10, 11), (4, 3, 5)], ids=["1d", "2d", "3d"]
)


def _composition_grid(cells):
    return Grid(lengths=(1.0, 0.8, 1.3)[: len(cells)], cells=cells)


def _composition_case(cells=(10, 11)):
    rng = np.random.default_rng(4)
    g = _composition_grid(cells)
    u = 1.0 + rng.random(g.shape)
    v = 1.0 + rng.random(g.shape)
    return g, State(0.0, u, v, rng.random(g.shape)), ModelParams(1.3, 0.8, 0.9, 1.1)


@COMPOSITION_CELLS
def test_rhs_matches_flux_divergence_composition(cells, monkeypatch):
    # rhs's Laplacian is D's: its eigenvalues and both DCT plans must match
    # the two-point face fluxes
    g, st, params = _composition_case(cells)
    for full in (True, False):
        monkeypatch.setattr(solver, "_full_plan", lambda m, n, full=full: full)
        for opts in (CENTRAL, UPWIND):
            expected = _composed_rhs(st, params, g, opts.advection)
            for got, want in zip(rhs(st, params, g, opts), expected):
                assert np.allclose(got, want, rtol=1e-12, atol=1e-10)


def test_composition_catches_a_swapped_upwind_cell(monkeypatch):
    # the reference has its own face rule: rhs built on a face rule that
    # takes the downwind cell must stop matching it
    def downwind(d_lo, d_hi, up, scheme, out):
        np.copyto(out, d_lo)
        np.copyto(out, d_hi, where=up)
        return out

    g, st, params = _composition_case()
    monkeypatch.setattr(solver, "_face_density", downwind)
    du, dv, _ = rhs(st, params, g, UPWIND)
    ref_du, ref_dv, _ = _composed_rhs(st, params, g, "upwind")
    assert not np.allclose(du, ref_du, rtol=1e-12, atol=1e-10)
    assert not np.allclose(dv, ref_dv, rtol=1e-12, atol=1e-10)


def _manufactured_1d(m):
    """Smooth 1D fields compatible with the zero-flux boundary, plus the
    analytic right-hand side they induce (chi1=1, chi2=0.5, alpha=beta=1)."""
    g = grid1d(m)
    x = g.cell_centers(0)
    pi = np.pi
    u = 2.0 + np.cos(pi * x)
    v = 2.0 + 0.5 * np.cos(2.0 * pi * x)
    w = 0.3 + 0.3 * np.cos(pi * x)
    du = -(pi**2) * np.cos(pi * x) + 0.3 * pi**2 * (
        np.cos(2.0 * pi * x) + 2.0 * np.cos(pi * x)
    )
    dv = -2.0 * pi**2 * np.cos(2.0 * pi * x) - 0.5 * 0.3 * pi**2 * (
        np.sin(2.0 * pi * x) * np.sin(pi * x)
        - (2.0 + 0.5 * np.cos(2.0 * pi * x)) * np.cos(pi * x)
    )
    dw = -0.3 * pi**2 * np.cos(pi * x) - (u + v) * w
    return g, State(0.0, u, v, w), (du, dv, dw)


@pytest.mark.parametrize(
    "scheme,min_order", [("central", 1.9), ("upwind", 0.9)]
)
def test_rhs_manufactured_solution_order(scheme, min_order):
    params = ModelParams(chi1=1.0, chi2=0.5, alpha=1.0, beta=1.0)
    opts = SchemeOptions(advection=scheme)
    errs = []
    for m in (64, 128, 256):
        g, st, exact = _manufactured_1d(m)
        got = rhs(st, params, g, opts)
        errs.append(
            max(np.abs(a - b).max() for a, b in zip(got, exact))
        )
    assert math.log2(errs[0] / errs[1]) >= min_order
    assert math.log2(errs[1] / errs[2]) >= min_order


# ---------------------------------------------------------------- stable_dt


def test_stable_dt_diffusion_limited():
    # diffusion is solved exactly and sets no limit: on a flat signal there
    # is no advective rate, so only alpha u + beta v = 2 bounds the step,
    # not the explicit diffusive bound cfl_safety h^2 / 2
    g = grid1d(16)
    st = State(0.0, np.ones(16), np.ones(16), np.full(16, 0.5))
    h = g.spacing[0]
    dt = stable_dt(st, PARAMS, g, CENTRAL)
    assert dt == pytest.approx(0.5 / 2.0, rel=1e-15)
    assert dt > 0.5 * h * h / 2.0
    assert stable_dt(st, PARAMS, g, UPWIND) == dt


def test_stable_dt_quarters_under_refinement():
    # an explicit diffusive bound would quarter the step at each halving
    # of h; with exact diffusion the flat-signal step is the same on
    # 16, 32 and 64 cells
    def flat_dt(m):
        g = grid1d(m)
        st = State(0.0, np.ones(m), np.ones(m), np.full(m, 0.5))
        return stable_dt(st, PARAMS, g, CENTRAL)

    assert flat_dt(16) == pytest.approx(0.5 / 2.0, rel=1e-15)
    assert flat_dt(32) == flat_dt(16)
    assert flat_dt(64) == flat_dt(16)


def test_stable_dt_absorption_limited():
    g = grid1d(16)
    st = State(0.0, np.full(16, 500.0), np.full(16, 500.0), np.full(16, 0.5))
    dt = stable_dt(st, PARAMS, g, CENTRAL)
    assert dt == pytest.approx(0.5 / 1000.0, rel=1e-13)


def test_stable_dt_advection_limited():
    # w = 40 x: every interior cell has two faces with chi |grad w| / h =
    # 40 / h, plus the absorption rate 2; the boundary cells have one face
    g = grid1d(16)
    st = State(0.0, np.ones(16), np.ones(16), 40.0 * g.cell_centers(0))
    h = g.spacing[0]
    dt = stable_dt(st, PARAMS, g, CENTRAL)
    assert dt == pytest.approx(0.5 / (2.0 * 40.0 / h + 2.0), rel=1e-12)
    # the rate is per cell, not the tightest of separate limits
    assert dt < 0.5 * h / (2.0 * 40.0)


def test_stable_dt_uses_the_larger_sensitivity():
    g = grid1d(16)
    st = State(0.0, np.ones(16), np.ones(16), 40.0 * g.cell_centers(0))
    h = g.spacing[0]
    params = ModelParams(1.0, 3.0, 1.0, 1.0)
    dt = stable_dt(st, params, g, UPWIND)
    assert dt == pytest.approx(0.5 / (2.0 * 3.0 * 40.0 / h + 2.0), rel=1e-12)


@COMPOSITION_CELLS
def test_stable_dt_rate_matches_the_reference_face_gradients(cells):
    # each cell's rate is alpha u + beta v plus max(chi1, chi2) |grad w| / h
    # over its own faces, from tests/reference_fv.py; a face that wrapped
    # from one line to the next would add a rate no face carries
    g, st, params = _composition_case(cells)
    ws = solver._Workspace(g, params, UPWIND)
    dt = ws.stable_dt(st)
    chi = max(params.chi1, params.chi2)
    expected = params.alpha * st.u + params.beta * st.v
    for k, (gw, h) in enumerate(zip(grad_w_faces(st.w, g), g.spacing)):
        expected += chi / h * (np.abs(gw[lo(k, g.dim)]) + np.abs(gw[hi(k, g.dim)]))
    assert np.allclose(ws.rate, expected, rtol=1e-12, atol=0.0)
    assert dt == pytest.approx(0.5 / expected.max(), rel=1e-12)


def test_stable_dt_caps_at_dt_max():
    g = grid1d(4)
    st = State(0.0, np.ones(4), np.ones(4), np.zeros(4))
    opts = SchemeOptions(dt_max=1e-6)
    assert stable_dt(st, PARAMS, g, opts) == 1e-6


# -------------------------------------------------------------------- step


def test_step_homogeneous_is_exact():
    # diffusion and chemotaxis leave constants exactly alone; absorption is
    # solved exactly, so w decays by exp(-(alpha + beta) dt) up to rounding
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    st = State(0.0, np.full((8, 8), 1.0), np.full((8, 8), 1.0), np.full((8, 8), 0.5))
    for dt in (1e-3, 0.1, 2.0):
        nxt = step(st, dt, PARAMS, g, CENTRAL)
        assert np.array_equal(nxt.u, st.u)
        assert np.array_equal(nxt.v, st.v)
        np.testing.assert_allclose(nxt.w, 0.5 * math.exp(-2.0 * dt), rtol=1e-15, atol=0)
        assert nxt.t == dt


def test_step_preserves_mass_per_step():
    rng = np.random.default_rng(9)
    g = Grid(lengths=(1.0, 1.0), cells=(16, 16))
    st = State(
        0.0,
        1.0 + rng.random((16, 16)),
        1.0 + rng.random((16, 16)),
        0.5 * rng.random((16, 16)),
    )
    dt = stable_dt(st, PARAMS, g, CENTRAL)
    nxt = step(st, dt, PARAMS, g, CENTRAL)
    for before, after in ((st.u, nxt.u), (st.v, nxt.v)):
        assert abs(after.sum() - before.sum()) <= 1e-13 * before.sum()


def test_step_two_halves_versus_one_full_is_second_order():
    # a second-order step has local error O(dt^3): halving dt divides the
    # gap between one full step and two half steps by 8
    g, st, _ = _manufactured_1d(32)
    params = ModelParams(1.0, 0.5, 1.0, 1.0)

    def gap(dt):
        one = step(st, dt, params, g, CENTRAL)
        half = step(step(st, dt / 2, params, g, CENTRAL), dt / 2, params, g, CENTRAL)
        return np.abs(one.u - half.u).max()

    dt0 = 1e-4
    ratio = gap(dt0) / gap(dt0 / 2.0)
    assert 7.5 <= ratio <= 8.5


def test_step_raises_on_positivity_loss():
    # checkerboard signal with the density piled on its peaks: even at
    # stable_dt, central face averages drain the troughs below zero, while
    # upwind stays positive
    g = grid1d(8)
    peaks = np.arange(8) % 2 == 0
    st = State(0.0, np.where(peaks, 1.0, 0.1), np.ones(8), np.where(peaks, 1.0, 0.0))
    params = ModelParams(5.0, 5.0, 1.0, 1.0)
    dt = stable_dt(st, params, g, CENTRAL)
    with pytest.raises(PositivityError, match="reduce dt or switch to upwind") as info:
        step(st, dt, params, g, CENTRAL)
    err = info.value
    assert (err.outcome, err.time, err.field) == ("positivity", dt, "u")
    assert err.value < 0.0 and len(err.cell) == 1 and not peaks[err.cell]
    assert f"min {err.value} at cell {err.cell}" in str(err)
    nxt = step(st, stable_dt(st, params, g, UPWIND), params, g, UPWIND)
    assert nxt.u.min() >= 0.0


def test_step_signals_blowup_on_nan():
    g = grid1d(8)
    u = np.ones(8)
    u[3] = np.nan
    st = State(0.0, u, np.ones(8), np.zeros(8))
    with pytest.raises(BlowUpDetected):
        step(st, 1e-6, PARAMS, g, CENTRAL)


def test_step_signals_blowup_on_sentinel():
    g = grid1d(8)
    u = np.ones(8)
    u[2] = 5.0
    st = State(0.0, u, np.ones(8), np.zeros(8))
    opts = SchemeOptions(blowup_linf=2.0)
    with pytest.raises(BlowUpDetected, match="divergence in u"):
        step(st, 1e-8, PARAMS, g, opts)


# ------------------------------------------------------- split operators


def _generator(op, fields, tau=1e-7):
    """d/dtau of op at tau = 0, read off two short steps by Richardson
    extrapolation (exact for a flow that is quadratic in tau, like Heun's)."""
    one, two = fields.copy(), fields.copy()
    op(one, tau)
    op(two, 2.0 * tau)
    return (4.0 * (one - fields) - (two - fields)) / (2.0 * tau)


@COMPOSITION_CELLS
@pytest.mark.parametrize("opts", [CENTRAL, UPWIND], ids=["central", "upwind"])
def test_split_generators_sum_to_rhs(opts, cells):
    # D, R and A are the flows of the diffusion, absorption and chemotaxis
    # parts of rhs, so their generators add up to rhs
    rng = np.random.default_rng(5)
    g = _composition_grid(cells)
    fields = 1.0 + rng.random((3,) + g.shape)
    fields[2] -= 1.0
    params = ModelParams(1.3, 0.7, 0.9, 1.1)
    ws = solver._Workspace(g, params, opts)

    def diffuse(f, tau):
        ws.diffuse(f, ws.decay_for(tau))

    diffusion = _generator(diffuse, fields)
    absorption = _generator(ws.absorb, fields)
    chemotaxis = _generator(ws.advect, fields)
    expected = np.stack(rhs(State(0.0, *fields), params, g, opts))
    scale = np.abs(expected).max()
    assert np.abs(diffusion + absorption + chemotaxis - expected).max() <= 1e-6 * scale
    # each part on its own: R only moves w, A only u and v, and D moves all
    # three by the flux-form Laplacian
    assert np.all(absorption[:2] == 0.0) and np.all(chemotaxis[2] == 0.0)
    for f, got in zip(fields, diffusion):
        gws = enumerate(grad_w_faces(f, g))
        fluxes = [species_flux(f, 0.0, gw, "central", g, k) for k, gw in gws]
        laplacian = -divergence(fluxes, g)
        assert np.abs(got - laplacian).max() <= 1e-6 * scale


# (sides, cells, bound on the error at the finest step): each bound is twice
# the larger of the two schemes' measured errors, 3.7e-8 in 1-D, 7.6e-8 in
# 2-D and 8.3e-9 in 3-D
_ORACLE_CASES = [
    ((1.0,), (7,), 7.5e-8),
    ((1.0, 0.8), (6, 5), 1.5e-7),
    ((1.0, 0.8, 1.3), (4, 3, 3), 1.7e-8),
]


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_run_converges_at_second_order_to_an_independent_trajectory(scheme, tmp_path):
    # the method of lines on tests/reference_fv.py, which shares no code
    # with the solver, integrated by scipy's DOP853 far below the stepper's
    # error, on rough data with chi1 != chi2 and alpha != beta, in 1-D, 2-D
    # and 3-D.  Measured: orders 1.99 (1-D), 1.98 (2-D) and 2.00 (3-D) for
    # either scheme; chemotaxis at 90 % of its strength misses by 1.2e-4 at
    # any dt in 2-D
    params = ModelParams(chi1=1.3, chi2=0.7, alpha=1.1, beta=0.6)
    t_end = 0.5
    for sides, cells, bound in _ORACLE_CASES:
        g = Grid(lengths=sides, cells=cells)
        fields = np.random.default_rng(14).random((3,) + g.shape)
        fields[:2] = 1.0 + 0.5 * fields[:2]
        fields[2] = 0.2 + 0.6 * fields[2]
        for name, field in zip("uvw", fields):
            write_field_raw(field, tmp_path / f"{name}.raw")
        initial = InitialSpec(*(FileInit(str(tmp_path / f"{name}.raw")) for name in "uvw"))

        def method_of_lines(t, y):
            du_dv_dw = _composed_rhs(State(t, *y.reshape(fields.shape)), params, g, scheme)
            return np.concatenate([d.ravel() for d in du_dv_dw])

        oracle = solve_ivp(method_of_lines, (0.0, t_end), fields.ravel(), method="DOP853",
                           rtol=1e-10, atol=1e-12)
        assert oracle.success
        exact = oracle.y[:, -1].reshape(fields.shape)
        errors = []
        for dt_max in (1.25e-3, 6.25e-4):  # coarser steps are pre-asymptotic on rough data
            options = SchemeOptions(advection=scheme, dt_max=dt_max)
            res = run(ScenarioConfig(params, g, initial, t_end, output_every=t_end,
                                     options=options))
            assert res.outcome == "completed"
            final = res.final_state
            errors.append(np.abs(np.stack((final.u, final.v, final.w)) - exact).max())
        assert math.log2(errors[0] / errors[1]) >= 1.9, cells
        assert errors[1] <= bound, cells


@pytest.mark.parametrize("cells", [(7,), (16,), (6, 5), (4, 3, 5)])
def test_diffusion_is_exact_on_eigenmodes(cells):
    # cos(k pi x / L) at the cell centers is an eigenvector of the zero-flux
    # Laplacian with eigenvalue -(4/h^2) sin^2(k pi / (2m)); D(tau) scales its
    # zero-mean part by exp(tau * eigenvalue) and keeps the mean
    g = Grid(lengths=tuple(0.5 + 0.25 * k for k in range(len(cells))), cells=cells)
    tau = 3e-3
    fields = np.empty((3,) + g.shape)
    expected = np.empty_like(fields)
    axes = list(zip(g.center_mesh(), cells, g.spacing, g.lengths))
    for n, k in enumerate((1, 2, 3)):
        mode, rate = np.ones(g.shape), 0.0
        for axis, (x, m, h, L) in enumerate(axes):
            kk = min(k + axis, m - 1)
            mode = mode * np.cos(kk * np.pi * x / L)
            rate += -(4.0 / h**2) * math.sin(kk * math.pi / (2 * m)) ** 2
        fields[n] = 2.0 + mode
        expected[n] = 2.0 + math.exp(tau * rate) * mode
    ws = solver._Workspace(g, PARAMS, CENTRAL)
    ws.diffuse(fields, ws.decay_for(tau))
    np.testing.assert_allclose(fields, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("cells", [(7,), (16,), (12, 9), (6, 5, 4)])
def test_full_and_split_plans_give_the_same_diffusion(cells, monkeypatch):
    # the one-matrix DCT and the parity-split one are one transform: D by
    # either agrees to a few ulps of the data
    g = Grid(lengths=(1.0,) * len(cells), cells=cells)
    fields = np.random.default_rng(2).random((3,) + cells)
    results = []
    for full in (True, False):
        monkeypatch.setattr(solver, "_full_plan", lambda m, n, full=full: full)
        ws = solver._Workspace(g, PARAMS, CENTRAL)
        assert [axis.full for axis in ws.axes] == [full] * len(cells)
        out = fields.copy()
        ws.diffuse(out, ws.decay_for(2e-3))
        results.append(out)
    assert np.abs(results[0] - results[1]).max() <= 8 * np.finfo(float).eps


_CELLS = {1: 24, 2: 12, 3: 6}


@settings(max_examples=600, deadline=None)
@given(
    dim=hst.integers(1, 3),
    data=hst.data(),
    kind=hst.sampled_from(["checkerboard", "spike", "random", "contrast"]),
    length=hst.floats(0.25, 4.0),
    # the extremes chi = 10 and cfl_safety = 1 are drawn often: the bound is
    # tightest there
    chi=hst.tuples(*[hst.just(10.0) | hst.floats(0.01, 10.0)] * 2),
    rates=hst.tuples(*[hst.floats(-2.0, 0.7).map(lambda e: 10.0**e)] * 2),
    cfl=hst.just(1.0) | hst.floats(1e-3, 1.0),
    seed=hst.integers(0, 2**32 - 1),
)
def test_upwind_never_loses_positivity_at_stable_dt(
    dim, data, kind, length, chi, rates, cfl, seed
):
    # one step at stable_dt never raises PositivityError, for any cfl_safety
    # the config accepts, and keeps both masses to rounding
    cells = tuple(data.draw(hst.integers(2, _CELLS[dim])) for _ in range(dim))
    g = Grid(lengths=(length,) * dim, cells=cells)
    rng = np.random.default_rng(seed)
    odd = np.indices(cells).sum(axis=0) % 2 == 1
    if kind == "checkerboard":
        w = np.where(odd, rng.uniform(0.0, 2.0), rng.uniform(0.0, 0.1))
        u = np.where(odd, 1.0, rng.uniform(1e-3, 1.0))
    elif kind == "spike":
        w = np.full(cells, rng.uniform(0.0, 0.1))
        w[tuple(rng.integers(m) for m in cells)] = rng.uniform(0.5, 2.0)
        u = np.full(cells, rng.uniform(1e-3, 1.0))
        u[tuple(rng.integers(m) for m in cells)] = rng.uniform(1.0, 10.0)
    elif kind == "random":
        w = rng.uniform(0.0, 2.0, cells)
        u = rng.uniform(1e-3, 2.0, cells)
    else:  # flat signal that absorption by contrasting densities steepens
        w = np.full(cells, rng.uniform(0.1, 2.0))
        u = np.where(odd, 1e-3, rng.uniform(1.0, 10.0))
    if kind == "contrast":
        v = np.where(odd, rng.uniform(1.0, 10.0), 1e-3)
    else:
        v = rng.uniform(1e-3, 2.0, cells)
    params = ModelParams(chi[0], chi[1], rates[0], rates[1])
    opts = SchemeOptions(advection="upwind", cfl_safety=cfl)
    before = State(0.0, u, v, w)
    after = step(before, stable_dt(before, params, g, opts), params, g, opts)
    for old, new in ((before.u, after.u), (before.v, after.v)):
        assert abs(new.sum() - old.sum()) <= 1e-13 * old.sum()


def test_upwind_chemotaxis_splits_when_the_signal_steepens():
    # stable_dt sees a flat signal, but absorption by the contrasting
    # densities steepens it before the chemotaxis stage: in one Heun step
    # that stage would not be a convex combination and u would go negative
    g = grid1d(4)
    odd = np.arange(4) % 2 == 1
    u, v = np.where(odd, 1e-3, 10.0), np.where(odd, 10.0, 1e-3)
    st = State(0.0, u, v, np.full(4, 2.0))
    params = ModelParams(10.0, 10.0, 0.02, 3.0)
    opts = SchemeOptions(advection="upwind", cfl_safety=1.0)
    nxt = step(st, stable_dt(st, params, g, opts), params, g, opts)
    assert nxt.u.min() >= 0.0 and nxt.v.min() >= 0.0
    assert abs(nxt.u.sum() - st.u.sum()) <= 1e-13 * st.u.sum()


# ------------------------------------------------------------- equivariance


@pytest.mark.parametrize("scheme", ["central", "upwind"])
def test_reflection_symmetry_is_kept_to_rounding(scheme):
    # data symmetric under the reflection of one axis stays symmetric to a
    # few ulps of its maximum, for every axis of odd and even 2-D and 3-D
    # grids.  Not exactly: the product along another axis rounds mirrored
    # lines differently, and so do a full-plan axis's mirrored cosines.
    opts = SchemeOptions(advection=scheme, dt_max=1e-3)  # 100 steps to t = 0.1
    eps = np.finfo(float).eps
    for cells in [(31, 12), (32, 12), (31, 17), (32, 17), (16, 12), (7, 6, 5), (8, 9, 6)]:
        g = Grid(lengths=(1.0,) * len(cells), cells=cells)
        base = np.reshape([1.0, 1.0, 0.3], (3,) + (1,) * len(cells))
        for axis in range(len(cells)):
            fields = base + 0.1 * np.random.default_rng(3).random((3,) + cells)
            fields = 0.5 * (fields + np.flip(fields, axis + 1))
            st = State(0.0, *fields)
            ws = solver._Workspace(g, PARAMS, opts)
            for _ in range(100):
                dt = ws.stable_dt(st)
                st = ws.step(st, dt, st.t + dt)
            for arr in (st.u, st.v, st.w):
                asymmetry = np.abs(arr - np.flip(arr, axis)).max()
                assert asymmetry <= 8 * eps * np.abs(arr).max(), (cells, axis)


# --------------------------------------------------------------------- run


def test_run_homogeneous_short():
    cfg = ScenarioConfig(
        params=ModelParams(1, 1, 1, 1),
        grid=Grid(lengths=(1.0, 1.0), cells=(16, 16)),
        initial=InitialSpec(ConstantInit(1.0), ConstantInit(1.0), ConstantInit(0.5)),
        t_end=0.25,
    )
    res = run(cfg)
    assert res.outcome == "completed"
    assert len(res.records) == 201  # t=0 plus 200 sampling intervals
    assert res.records.dtype.names == COLUMNS
    assert not res.records.flags.writeable  # a result's table is not written again
    assert res.final_state.t == 0.25
    times = [r["t"] for r in res.records]
    assert times == sorted(times)
    # exact homogeneous solution w0 * exp(-2t): the stepper solves the
    # absorption exactly, so only rounding separates the two
    assert res.records[-1]["linf_w"] == pytest.approx(0.5 * math.exp(-0.5), rel=1e-13)
    assert np.ptp(res.final_state.u) == 0.0


def test_run_is_deterministic():
    cfg = ScenarioConfig(
        params=ModelParams(1, 1, 1, 1),
        grid=Grid(lengths=(1.0,), cells=(32,)),
        initial=InitialSpec(
            CosineBumpInit(1.0, 0.5, (1,)),
            ConstantInit(1.0),
            CosineBumpInit(0.25, 0.25, (1,)),
        ),
        t_end=0.2,
    )
    first = run(cfg)
    second = run(cfg)
    assert first.records.tobytes() == second.records.tobytes()
    assert np.array_equal(first.final_state.u, second.final_state.u)


def test_run_refuses_underflowing_dt():
    # absorption this extreme would need dt below the 1e-15 floor
    cfg = ScenarioConfig(
        params=ModelParams(1, 1, 1e16, 1.0),
        grid=Grid(lengths=(1.0,), cells=(8,)),
        initial=InitialSpec(ConstantInit(1.0), ConstantInit(1.0), ConstantInit(0.5)),
        t_end=1.0,
    )
    res = run(cfg)
    assert res.outcome == "stalled"
    assert isinstance(res.failure, SolverError)
    assert "dt" in str(res.failure)
    assert res.failure.time == 0.0
    assert res.failure.field is None and res.failure.cell is None
    assert 0.0 < res.failure.value < 1e-15  # the step it needed
    assert res.failure.__traceback__ is None
    assert res.steps == 0 and len(res.records) == 1


def test_run_reports_blowup_via_sentinel():
    cfg = ScenarioConfig(
        params=ModelParams(chi1=30.0, chi2=1.0, alpha=1.0, beta=1.0),
        grid=Grid(lengths=(1.0,), cells=(32,)),
        initial=InitialSpec(
            u=ConstantInit(1.0),
            v=ConstantInit(1.0),
            w=CosineBumpInit(base=0.5, amplitude=0.5, modes=(1,)),
        ),
        t_end=2.0,
        options=SchemeOptions(advection="upwind", blowup_linf=3.0),
    )
    res = run(cfg)
    assert res.outcome == "blowup"
    assert isinstance(res.failure, BlowUpDetected)
    assert res.failure.field == "u"
    assert res.failure.value > 3.0
    assert 0.0 < res.failure.time < 2.0
    assert len(res.failure.cell) == 1
    assert res.final_state.t < res.failure.time  # the last good state


def test_refinement_study_raises_the_failure_of_the_level_that_ended_early():
    cfg = ScenarioConfig(
        params=ModelParams(chi1=1.0, chi2=1.0, alpha=1.0, beta=1.0),
        grid=Grid(lengths=(1.0,), cells=(8,)),
        initial=InitialSpec(
            u=CosineBumpInit(base=1.0, amplitude=0.9, modes=(1,)),
            v=ConstantInit(1.0),
            w=CosineBumpInit(base=1.0, amplitude=0.9, modes=(1,)),
        ),
        t_end=0.5,
        options=SchemeOptions(advection="upwind", blowup_linf=1.5),
    )
    with pytest.raises(BlowUpDetected) as caught:
        refinement_study(cfg)
    failure = caught.value
    assert failure.outcome == "blowup" and failure.field == "u"
    assert 0.0 < failure.time < 0.5 and failure.value > 1.5 and len(failure.cell) == 1
    assert str(failure).startswith("refinement level (8,) ended early (blowup): divergence in u")


def test_a_landed_sample_is_at_its_output_time_exactly(monkeypatch):
    # one free step to t, then a landing step: t + (t_end - t) rounds to
    # 5.617965069136007, one ulp past t_end
    t_end, first = 5.617965069136006, 1.1968812773862232
    assert first + (t_end - first) != t_end
    bounds = iter([first])
    monkeypatch.setattr(solver._Workspace, "stable_dt", lambda ws, state: next(bounds, math.inf))
    res = run(replace(homogeneous_scenario(t_end), output_every=t_end))
    assert res.outcome == "completed" and res.steps == 2
    assert [r["t"] for r in res.records] == [0.0, t_end]
    assert res.final_state.t == t_end


def test_reference_run_takes_at_most_400_steps(reference_run):
    # the split step needs ~212 steps for the 64^2 run to t = 5; a diffusive
    # step limit (dt ~ h^2) would need ~164k
    assert reference_run.steps <= 400


# -------------------------------------------------------------- workspace


def _fields(state):
    return [a.tobytes() for a in (state.u, state.v, state.w)]


@pytest.mark.parametrize("opts", [CENTRAL, UPWIND], ids=["central", "upwind"])
def test_step_reads_its_input_and_returns_fresh_arrays(opts):
    config = reference_scenario((12, 9), scheme=opts.advection)
    grid, params = config.grid, config.params
    state = State(0.0, *config.initial.build(grid))
    before = _fields(state)
    first = step(state, stable_dt(state, params, grid, opts), params, grid, opts)
    assert _fields(state) == before
    kept, later = _fields(first), first
    ws = solver._Workspace(grid, params, opts)
    for _ in range(3):  # one workspace, as in a run, reused by every later call
        dt = ws.stable_dt(later)
        later = ws.step(later, dt, later.t + dt)
        ws.rhs(later)
    assert _fields(first) == kept
    arrays = [(s.u, s.v, s.w) for s in (state, first, later)]
    for a, b in itertools.combinations(arrays, 2):
        assert not any(np.shares_memory(x, y) for x in a for y in b)


def _count_transforms(ws):
    """Count the workspace's DCTs, forward or inverse, in ``ws.transforms``."""
    ws.transforms, dct = 0, ws._dct

    def counted(*args, **kwargs):
        ws.transforms += 1
        dct(*args, **kwargs)

    ws._dct = counted


@pytest.mark.parametrize("cells", [(64,), (12, 9), (6, 5, 4)])
def test_run_matches_public_steps_over_its_step_sequence(cells, monkeypatch):
    # a run merges one step's closing D with the next step's opening D, 3
    # DCTs a step; the public step transforms its input afresh, 4 a step.
    # Over the run's own dt sequence both end on the same state to rounding.
    config = reference_scenario(cells, t_end=0.1, scheme="upwind")
    grid, params, opts = config.grid, config.params, config.options
    dts, workspaces, step_in_run = [], [], solver._Workspace.step

    def recorded(ws, state, dt, t_new):
        if not workspaces:
            workspaces.append(ws)
            _count_transforms(ws)
        dts.append(dt)
        return step_in_run(ws, state, dt, t_new)

    monkeypatch.setattr(solver._Workspace, "step", recorded)
    res = run(config)
    monkeypatch.undo()
    assert res.outcome == "completed" and res.steps == len(dts) > 10
    assert workspaces[0].transforms == 3 * len(dts) + 1
    state = State(0.0, *config.initial.build(grid))
    for dt in dts:
        state = step(state, dt, params, grid, opts)
    final = res.final_state
    for alone, merged in ((state.u, final.u), (state.v, final.v), (state.w, final.w)):
        assert np.abs(alone - merged).max() <= 1e-13 * np.abs(alone).max()


def test_a_step_that_clips_w_makes_the_next_start_from_the_clipped_state():
    # a spike of w diffuses to rounding-level negatives in its far cells,
    # which the step clips to 0; the clipped w is no longer D's result, so
    # the next step transforms it afresh, exactly as a lone step does
    g = Grid(lengths=(1.0, 1.0), cells=(12, 9))
    w = np.zeros(g.shape)
    w[3, 0] = 1.0
    first = State(0.0, np.ones(g.shape), np.ones(g.shape), w)
    ws = solver._Workspace(g, PARAMS, UPWIND)
    _count_transforms(ws)
    clipped = ws.step(first, ws.stable_dt(first), 0.01)
    assert clipped.w.min() == 0.0 and ws.transforms == 4
    assert ws.kept is None
    dt = ws.stable_dt(clipped)
    after = ws.step(clipped, dt, clipped.t + dt)
    assert ws.transforms == 8 and ws.kept is after
    assert _fields(after) == _fields(step(clipped, dt, PARAMS, g, UPWIND))
    ws.step(after, dt, after.t + dt)
    assert ws.transforms == 11  # the unclipped state's spectrum was kept


def _poison(ws):
    """Fill every buffer a call must fill before it reads; ``decay`` is a
    cache keyed by its tau and stays."""
    ws.scratch.fill(np.nan)
    ws.spectrum.fill(np.nan)
    ws.mean.fill(np.nan)
    for axis in ws.axes:
        # the other face views are views of spectrum (dw and its wrap slots)
        # and of scratch (diff and its wrap slots, the sides of rate and stage)
        assert np.shares_memory(axis.dw, ws.spectrum)
        assert np.shares_memory(axis.diff, ws.scratch)
        axis.flux.fill(np.nan)
        axis.coef.fill(np.nan)
        axis.up.fill(True)


@pytest.mark.parametrize("opts", [CENTRAL, UPWIND], ids=["central", "upwind"])
@pytest.mark.parametrize("cells", [(64,), (12, 9), (6, 5, 4)])
def test_no_call_reads_what_an_earlier_one_left_in_the_workspace(cells, opts):
    config = reference_scenario(cells, scheme=opts.advection)
    grid, params = config.grid, config.params
    state = State(0.0, *config.initial.build(grid))
    ws = solver._Workspace(grid, params, opts)
    dt = ws.stable_dt(state)
    calls = {
        "stable_dt": lambda: np.float64(ws.stable_dt(state)).tobytes(),
        "step": lambda: _fields(ws.step(state, dt, state.t + dt)),
        "rhs": lambda: [a.tobytes() for a in ws.rhs(state)],
    }
    fresh = {name: call() for name, call in calls.items()}  # before any poison
    for name, call in calls.items():
        _poison(ws)
        assert call() == fresh[name], name


def test_rhs_between_two_steps_leaves_the_second_step_as_a_fresh_one():
    # rhs lends spectrum to w's face data, so it drops the kept spectrum:
    # the next step transforms its state afresh, byte for byte the public step
    config = reference_scenario((12, 9), scheme="upwind")
    grid, params, opts = config.grid, config.params, config.options
    state = State(0.0, *config.initial.build(grid))
    ws = solver._Workspace(grid, params, opts)
    dt = ws.stable_dt(state)
    first = ws.step(state, dt, dt)
    assert ws.kept is first
    ws.rhs(first)
    assert ws.kept is None
    second = ws.step(first, dt, 2 * dt)
    assert ws.kept is second
    assert _fields(second) == _fields(step(first, dt, params, grid, opts))


def test_concurrent_runs_match_runs_one_after_the_other():
    # more threads than cores, on different grids and schemes; two of them
    # on one grid, where a shared workspace would mix their fields
    configs = [
        reference_scenario((64,), t_end=0.2, scheme="upwind"),
        reference_scenario((64,), t_end=0.2, scheme="central"),
        reference_scenario((12, 10), t_end=0.2, scheme="central"),
        reference_scenario((6, 5, 4), t_end=0.2, scheme="upwind"),
    ]
    n = len(configs)
    alone = [run(config) for config in configs]
    together, errors = [None] * n, [None] * n
    barrier = threading.Barrier(n)

    def work(i):
        try:
            barrier.wait()
            together[i] = run(configs[i])
        except Exception as exc:  # reported below, not only as a thread warning
            errors[i] = exc

    threads = [threading.Thread(target=work, args=(i,)) for i in range(n)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the runs finely
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [None] * n
    for a, b in zip(alone, together):
        assert repr(b.records.tolist()) == repr(a.records.tolist())
        assert _fields(b.final_state) == _fields(a.final_state)


def test_run_peak_memory_stays_within_its_peak_before_the_workspace():
    # 32^3 upwind, 10 samples.  Before the stepping workspace, the traced
    # peak of this run was 4.35 MB: the current state, one step's fresh
    # temporaries, then one record's.  Face buffers of its own for every
    # axis would take the workspace past 9 MB.
    config = replace(
        reference_scenario((32, 32, 32), t_end=0.005, scheme="upwind"),
        output_every=5e-4,
    )
    run(config)  # warm-up; the DCT bases are built per run, not cached
    gc.collect()
    tracemalloc.start()
    try:
        run(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 4_350_000
