import math

import numpy as np
import pytest

from chemolab.model import (
    ConstantInit,
    CosineBumpInit,
    FileInit,
    GaussianInit,
    Grid,
    InitialSpec,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
    State,
    read_field_raw,
    threshold_check,
    validate_initial_data,
    write_field_raw,
)


def test_model_params_positivity():
    ModelParams(1.0, 2.0, 0.5, 0.25)
    for bad in ("chi1", "chi2", "alpha", "beta"):
        kwargs = dict(chi1=1.0, chi2=1.0, alpha=1.0, beta=1.0)
        kwargs[bad] = 0.0
        with pytest.raises(ValueError, match=bad):
            ModelParams(**kwargs)
        kwargs[bad] = -1.0
        with pytest.raises(ValueError, match=bad):
            ModelParams(**kwargs)


def test_grid_derived_quantities():
    g = Grid(lengths=(1.0, 0.5), cells=(4, 8))
    assert g.dim == 2
    assert g.spacing == (0.25, 0.0625)
    assert g.volume_element == pytest.approx(0.25 * 0.0625, rel=1e-15)
    assert g.volume == 0.5
    centers = g.cell_centers(0)
    assert centers[0] == 0.125 and centers[-1] == 0.875
    # centers are symmetric about the midpoint
    assert np.allclose(centers + centers[::-1], 1.0)


def test_grid_guards():
    with pytest.raises(ValueError):
        Grid(lengths=(1.0,) * 4, cells=(4,) * 4)
    with pytest.raises(ValueError):
        Grid(lengths=(1.0, 1.0), cells=(4,))
    with pytest.raises(ValueError):
        Grid(lengths=(0.0,), cells=(4,))
    with pytest.raises(ValueError):
        Grid(lengths=(1.0,), cells=(1,))
    with pytest.raises(ValueError, match="grid.cells must be whole numbers"):
        Grid(lengths=(1.0,), cells=(8.7,))
    with pytest.raises(ValueError, match="grid.cells"):
        Grid(lengths=(1.0,), cells=(True,))
    assert Grid(lengths=(1.0,), cells=(np.int64(8),)).cells == (8,)


def test_state_fields_are_read_only():
    g = Grid(lengths=(1.0,), cells=(8,))
    s = State(0.0, np.ones(8), np.ones(8), np.zeros(8))
    with pytest.raises(ValueError):
        s.u[0] = 2.0
    with pytest.raises(ValueError):
        State(-1.0, np.ones(8), np.ones(8), np.zeros(8))
    with pytest.raises(ValueError):
        State(0.0, np.ones(8), np.ones(7), np.zeros(8))


def test_validate_constant_fields():
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    init = validate_initial_data(
        np.ones(g.shape), np.ones(g.shape), 0.5 * np.ones(g.shape), g
    )
    assert init.ubar0 == 1.0
    assert init.vbar0 == 1.0
    assert init.w0_max == 0.5


def test_validate_rejects_zero_density_with_cell_index():
    g = Grid(lengths=(1.0,), cells=(8,))
    u0 = np.ones(8)
    u0[3] = 0.0
    with pytest.raises(ValueError, match=r"non-positive initial density.*\(3,\)"):
        validate_initial_data(u0, np.ones(8), np.zeros(8), g)


def test_validate_rejects_nan_and_bad_shape():
    g = Grid(lengths=(1.0,), cells=(8,))
    bad = np.ones(8)
    bad[5] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        validate_initial_data(bad, np.ones(8), np.zeros(8), g)
    with pytest.raises(ValueError, match="shape"):
        validate_initial_data(np.ones(7), np.ones(8), np.zeros(8), g)
    wneg = np.zeros(8)
    wneg[2] = -0.1
    with pytest.raises(ValueError, match="negative initial signal"):
        validate_initial_data(np.ones(8), np.ones(8), wneg, g)


def test_validate_cosine_mean_is_exact():
    # Cell-center samples of cos(pi x) on a symmetric grid sum to zero, so
    # the recorded mean of 1 + 0.5 cos(pi x) is 1 to rounding.
    g = Grid(lengths=(1.0,), cells=(64,))
    u0 = 1.0 + 0.5 * np.cos(np.pi * g.cell_centers(0))
    init = validate_initial_data(u0, np.ones(64), np.zeros(64), g)
    assert init.ubar0 == pytest.approx(1.0, abs=1e-12)


def test_validate_is_idempotent():
    g = Grid(lengths=(1.0,), cells=(16,))
    u0 = 1.0 + 0.25 * np.cos(np.pi * g.cell_centers(0))
    first = validate_initial_data(u0, np.ones(16), 0.5 * np.ones(16), g)
    second = validate_initial_data(first.u, first.v, first.w, g)
    assert np.array_equal(first.u, second.u)
    assert second.ubar0 == first.ubar0
    assert second.w0_max == first.w0_max


def test_threshold_check_examples():
    params = ModelParams(1.0, 1.0, 1.0, 1.0)
    rep = threshold_check(params, 0.5, 2)
    assert rep.bound == pytest.approx(math.pi, rel=1e-15)
    assert rep.m1 == 0.5 and rep.m2 == 0.5
    assert rep.within

    rep0 = threshold_check(ModelParams(9.0, 5.0, 1.0, 1.0), 0.0, 3)
    assert rep0.within

    rep3 = threshold_check(ModelParams(3.0, 1.0, 1.0, 1.0), 1.2, 3)
    assert rep3.m1 == pytest.approx(3.6)
    assert rep3.bound == pytest.approx(math.sqrt(2.0 / 3.0) * math.pi, rel=1e-15)
    assert rep3.bound == pytest.approx(2.5651, abs=1e-4)
    assert not rep3.within


def test_threshold_check_monotone():
    # raising any chi or w0_max never flips an out-of-threshold case back in
    rng = np.random.default_rng(5)
    for _ in range(200):
        chi1, chi2 = rng.uniform(0.1, 4.0, size=2)
        w0 = rng.uniform(0.0, 4.0)
        n = int(rng.integers(1, 5))
        base = threshold_check(ModelParams(chi1, chi2, 1.0, 1.0), w0, n)
        grown = threshold_check(
            ModelParams(chi1 * 1.5, chi2, 1.0, 1.0), w0 * 1.2, n
        )
        assert not (grown.within and not base.within)


def test_initializers_sample_cell_centers():
    g = Grid(lengths=(1.0, 2.0), cells=(8, 4))
    x, y = g.center_mesh()

    const = ConstantInit(2.5).sample(g)
    assert np.all(const == 2.5)

    bump = CosineBumpInit(base=1.0, amplitude=0.5, modes=(1, 0)).sample(g)
    assert np.allclose(bump, 1.0 + 0.5 * np.cos(np.pi * x))

    bump2 = CosineBumpInit(base=1.0, amplitude=0.25, modes=(1, 2)).sample(g)
    assert np.allclose(
        bump2, 1.0 + 0.25 * np.cos(np.pi * x) * np.cos(2.0 * np.pi * y / 2.0)
    )

    gauss = GaussianInit(center=(0.5, 1.0), width=0.2, amplitude=2.0, floor=0.1)
    vals = gauss.sample(g)
    assert np.allclose(
        vals,
        0.1 + 2.0 * np.exp(-((x - 0.5) ** 2 + (y - 1.0) ** 2) / (2 * 0.2**2)),
    )


def test_gaussian_wider_than_float_range_is_flat():
    g = Grid(lengths=(1.0, 2.0), cells=(8, 4))
    x, y = g.center_mesh()
    wide = GaussianInit(center=(0.5, 1.0), width=1e100, amplitude=2.0, floor=0.1)
    sq = (x - 0.5) ** 2 + (y - 1.0) ** 2
    assert np.array_equal(wide.sample(g), 0.1 + 2.0 * np.exp(-sq / (2.0 * 1e100**2)))
    # width**2 overflows: the limit exp(-0) = 1
    for width in (1e200, 1e308):
        flat = GaussianInit(center=(0.5, 1.0), width=width, amplitude=2.0, floor=0.1)
        assert np.all(flat.sample(g) == 0.1 + 2.0)


def test_raw_field_round_trip_pins_layout(tmp_path):
    # x must vary fastest in the byte stream
    g = Grid(lengths=(1.0, 1.0), cells=(3, 2))
    arr = np.arange(6, dtype=float).reshape(3, 2)  # arr[i_x, j_y]
    path = tmp_path / "field.raw"
    write_field_raw(arr, path)
    flat = np.fromfile(path, dtype="<f8")
    # x-fastest order: (0,0) (1,0) (2,0) (0,1) (1,1) (2,1)
    assert np.array_equal(flat, [arr[0, 0], arr[1, 0], arr[2, 0],
                                 arr[0, 1], arr[1, 1], arr[2, 1]])
    back = read_field_raw(path, g)
    assert np.array_equal(back, arr)
    spec = FileInit(path=str(path))
    assert np.array_equal(spec.sample(g), arr)


def test_raw_field_size_mismatch(tmp_path):
    g = Grid(lengths=(1.0,), cells=(8,))
    path = tmp_path / "short.raw"
    write_field_raw(np.ones(4), path)
    with pytest.raises(ValueError, match="grid needs 8"):
        read_field_raw(path, g)


def test_scenario_config_defaults_and_guards():
    g = Grid(lengths=(1.0,), cells=(8,))
    spec = InitialSpec(ConstantInit(1.0), ConstantInit(1.0), ConstantInit(0.5))
    cfg = ScenarioConfig(params=ModelParams(1, 1, 1, 1), grid=g, initial=spec, t_end=2.0)
    assert cfg.output_every == pytest.approx(0.01)
    assert cfg.options == SchemeOptions(dt_max=2.0)  # dt_max lowered to t_end
    assert cfg.options.advection == "central"
    assert cfg.options.cfl_safety == 0.5
    slower = ScenarioConfig(
        ModelParams(1, 1, 1, 1), g, spec, t_end=2.0, options=SchemeOptions(dt_max=0.5)
    )
    assert slower.options.dt_max == 0.5
    with pytest.raises(ValueError, match="t_end"):
        ScenarioConfig(ModelParams(1, 1, 1, 1), g, spec, t_end=0.0)
    with pytest.raises(ValueError, match="cfl_safety"):
        SchemeOptions(cfl_safety=1.5)
    with pytest.raises(ValueError, match="advection"):
        SchemeOptions(advection="weno")
    with pytest.raises(ValueError, match="output.every"):
        ScenarioConfig(ModelParams(1, 1, 1, 1), g, spec, t_end=1.0, output_every=0.0)
    for pair in ({"weight_p": 2.0}, {"weight_eps": 0.3}):
        with pytest.raises(ValueError, match="weight.p and weight.eps"):
            ScenarioConfig(ModelParams(1, 1, 1, 1), g, spec, t_end=1.0, **pair)
    for p, eps, key in ((1e200, 0.3, "weight.p"), (1.0, 0.3, "weight.p"),
                        (2.0, 1.0, "weight.eps")):
        with pytest.raises(ValueError, match=key):
            ScenarioConfig(
                ModelParams(1, 1, 1, 1), g, spec, t_end=1.0, weight_p=p, weight_eps=eps
            )
