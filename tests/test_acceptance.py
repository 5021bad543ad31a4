"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass line per
criterion.  The heavy scenario (unit square, 64^2 cells, t_end = 5) is run
once and shared by criteria 4-7; criterion 9 re-runs it twice through the
CLI to compare emitted bytes.
"""

import json
import math
import time

import numpy as np
import pytest

from chemolab.cli import main
from chemolab.convergence import refinement_study, time_order_study
from chemolab.diagnostics import fit_decay
from chemolab.weight import (
    admissible_bound,
    epsilon_for_threshold,
    make_weight,
    p_for_equality,
)
from tests.conftest import reference_scenario


def _announce(num: int, label: str) -> None:
    print(f"\nACCEPTANCE #{num} ({label}): PASS")


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_weight_identity_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(20260808)
    s_rel = np.linspace(0.0, 1.0, 1000)
    for _ in range(20):
        p = 1.0 + 9.0 * rng.random()
        eps = rng.uniform(0.01, 0.99)
        m = 0.9 * admissible_bound(p, eps)
        wf = make_weight(p, eps, m)
        s = m * s_rel
        phi = wf.phi(s)
        phi_m = wf.phi(m)
        assert np.all(wf.phi_prime(s) >= -1e-12), (p, eps)
        assert np.all(phi >= 1.0 - 1e-12), (p, eps)
        assert np.all(phi <= phi_m + 1e-12 * max(1.0, phi_m)), (p, eps)
        assert np.all(wf.phi_second(s) / p - wf.phi_prime(s) >= -1e-12), (p, eps)
        assert np.max(np.abs(wf.identity_residual(s))) <= 1e-8 * max(1.0, phi_m), (
            p,
            eps,
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"weight suite took {elapsed:.3f} s"
    _announce(1, "weight-function identity suite")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_threshold_construction_round_trip():
    started = time.perf_counter()
    for n in (2, 3, 4):
        limit = math.sqrt(2.0 / n) * math.pi
        for frac in np.linspace(0.05, 0.95, 10):
            m = frac * limit
            eps = epsilon_for_threshold(m, n)
            assert 0.0 < eps < 0.5
            half_n = 0.5 * n
            m_back = (
                (2.0 / math.sqrt(half_n))
                * math.sqrt((1.0 - 2.0 * eps) / (1.0 + 2.0 * eps * half_n))
                * (math.pi / 2.0)
            )
            assert abs(m_back - m) <= 1e-12 * max(1.0, m)
            p = p_for_equality(m, eps)
            assert p > 0.5 * n
            make_weight(p, eps, m)  # must succeed

    # concrete anchor: n = 2, m = pi/2
    eps = epsilon_for_threshold(math.pi / 2.0, 2)
    assert eps == pytest.approx(0.3, abs=1e-14)
    p = p_for_equality(math.pi / 2.0, eps)
    oracle = (-1.0 + math.sqrt(1.0 + 4.0 * 0.3 * 2.8)) / 0.6  # 0.3 p^2 + p - 2.8
    assert p == pytest.approx(oracle, rel=1e-12)
    assert p == pytest.approx(1.8135, abs=1e-3)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"threshold suite took {elapsed:.3f} s"
    _announce(2, "threshold construction round-trip")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_homogeneous_exactness(homogeneous_run):
    res = homogeneous_run
    assert res.context.ubar0 == 1.0 and res.context.vbar0 == 1.0
    # spatially constant at every sample: deviation norms never leave zero
    assert all(r.dev_u <= 1e-13 for r in res.records)
    assert all(r.dev_v <= 1e-13 for r in res.records)
    for arr in (res.final_state.u, res.final_state.v, res.final_state.w):
        assert float(np.ptp(arr)) <= 1e-13
    assert res.final_state.t == 1.0
    exact = 0.5 * math.exp(-2.0)
    assert res.records[-1].linf_w == pytest.approx(exact, abs=1e-4)
    _announce(3, "homogeneous exactness")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_conservation_and_maximum_principle(reference_run):
    records = reference_run.records
    for name in ("u", "v"):
        m0 = getattr(records[0], f"mass_{name}")
        drift = max(abs(getattr(r, f"mass_{name}") - m0) for r in records) / m0
        assert drift <= 1e-10, f"mass drift of {name}: {drift}"
    w0_max = reference_run.context.w0_max
    assert w0_max <= 0.5
    linf_w = [r.linf_w for r in records]
    assert max(linf_w) <= 0.5 + 1e-12
    # max w nonincreasing sample to sample
    assert all(b <= a + 1e-12 for a, b in zip(linf_w, linf_w[1:]))
    # the stepper rejects any excursion below -1e-12 and clips rounding-level
    # negatives, so a completed run had w >= -1e-12 at every accepted step
    assert float(reference_run.final_state.w.min()) >= 0.0
    _announce(4, "conservation and maximum principle")


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_stabilization(reference_run):
    last = reference_run.records[-1]
    assert last.dev_u <= 1e-3
    assert last.dev_v <= 1e-3
    assert last.linf_w <= 1e-3
    ref_rate = reference_run.context.reference_rate
    assert ref_rate == pytest.approx(2.0, abs=1e-12)
    fit = fit_decay((r.t, r.linf_w) for r in reference_run.records)
    assert fit.rate >= 0.5 * ref_rate  # the guaranteed rate
    assert abs(fit.rate - ref_rate) <= 0.15 * ref_rate  # slowest-mode prediction
    _announce(5, "stabilization and decay rate")


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_energy_budget(reference_run):
    records = reference_run.records
    budget = 0.5 * reference_run.context.int_w0_sq
    assert all(r.cum_dirichlet_w <= budget + 1e-8 for r in records)
    t_end = records[-1].t
    tail = next(i for i, r in enumerate(records) if r.t >= 0.75 * t_end)
    for name in ("u", "v"):
        total = getattr(records[-1], f"cum_dirichlet_{name}")
        increment = total - getattr(records[tail], f"cum_dirichlet_{name}")
        assert total > 0.0
        assert increment <= 0.01 * total
    _announce(6, "space-time energy budget")


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_lyapunov_boundedness(reference_run):
    ctx = reference_run.context
    wf = ctx.weight
    assert wf is not None and ctx.weight_note == ""
    # the run's weight comes from the threshold construction at
    # m = max(chi1, chi2) * ||w0||_inf
    m = max(ctx.params.chi1, ctx.params.chi2) * ctx.w0_max
    assert wf.m == m
    assert wf.eps == pytest.approx(epsilon_for_threshold(m, ctx.grid.dim), rel=1e-14)
    assert wf.p == pytest.approx(p_for_equality(m, wf.eps), rel=1e-14)

    values = [r.lyapunov for r in reference_run.records]
    assert all(v is not None for v in values)
    initial = values[0]
    assert max(values) <= 3.0 * initial
    limit = (1.0 / wf.p) * ctx.grid.volume * ctx.ubar0**wf.p
    assert values[-1] == pytest.approx(limit, rel=0.01)
    _announce(7, "weighted L^p boundedness")


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_self_convergence():
    central = refinement_study(
        reference_scenario(cells=(32, 32), t_end=0.1, scheme="central"), levels=3
    )
    assert central.observed_order("u") >= 1.8
    # First-order upwind is still pre-asymptotic on 32 -> 64 -> 128 squares
    # (order ~0.46 with an accurate integrator), so its order is measured on
    # the 1-D version of the same data, where 256 -> 512 -> 1024 is
    # asymptotic (~0.97).
    upwind = refinement_study(
        reference_scenario(cells=(256,), t_end=0.1, scheme="upwind"), levels=3
    )
    assert upwind.observed_order("u") >= 0.9
    _, order = time_order_study(
        reference_scenario(cells=(32, 32), t_end=0.02), dt0=4e-5
    )
    assert 1.9 <= order <= 2.1  # the Strang-split step is second order
    _announce(8, "self-convergence orders")


def test_criterion_8_order_check_fails_on_a_zeroth_order_flux(monkeypatch):
    """The upwind order check above can fail: a flux whose error does not
    shrink under refinement (its coefficient is off by 10 % more at every
    level) reads an order near 0."""
    from chemolab import solver

    exact = solver._face_density

    def zeroth_order(d_lo, d_hi, up, scheme, out):
        error = 1.0 + 0.1 * math.log2(out.shape[-1] + 1)  # 1-D: faces + 1 = cells
        exact(d_lo, d_hi, up, scheme, out)
        out *= error
        return out

    monkeypatch.setattr(solver, "_face_density", zeroth_order)
    upwind = refinement_study(
        reference_scenario(cells=(256,), t_end=0.1, scheme="upwind"), levels=3
    )
    assert upwind.observed_order("u") < 0.9


# ---------------------------------------------------------------- criterion 9


SCENARIO4_JSON = {
    "params": {"chi1": 1.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0},
    "grid": {"lengths": [1.0, 1.0], "cells": [64, 64]},
    "initial": {
        "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1, 1]},
        "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25, "modes": [1, 0]},
        "w": {"kind": "cosine_bump", "base": 0.25, "amplitude": 0.25, "modes": [1, 0]},
    },
    "time": {"t_end": 5.0},
}


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "scenario4.json"
    cfg_path.write_text(json.dumps(SCENARIO4_JSON))
    outs = []
    for name in ("first", "second"):
        outdir = tmp_path / name
        code = main(
            ["run", "--config", str(cfg_path), "--out", str(outdir), "--quiet"]
        )
        assert code == 0
        outs.append(outdir)
    first = (outs[0] / "diagnostics.csv").read_bytes()
    second = (outs[1] / "diagnostics.csv").read_bytes()
    assert first == second
    digests = [
        json.loads((o / "manifest.json").read_text())["config_digest"] for o in outs
    ]
    assert digests[0] == digests[1]
    _announce(9, "byte-identical diagnostics")
