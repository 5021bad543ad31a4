import pytest

from chemolab.model import (
    ConstantInit,
    CosineBumpInit,
    Grid,
    InitialSpec,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
)
from chemolab.solver import run


def reference_scenario(cells=(64, 64), t_end=5.0, scheme="central") -> ScenarioConfig:
    """The workhorse scenario: unit square, below-threshold cosine data.

    max chi_i * ||w0||_inf = 0.5, far below the sqrt(2/n)*pi boundedness
    threshold, so the run is expected to stay bounded and stabilize.  Other
    dimensions follow ``cells``: u varies along every axis, v and w along
    the first one only.
    """
    dim = len(cells)
    first_axis = (1,) + (0,) * (dim - 1)
    return ScenarioConfig(
        params=ModelParams(chi1=1.0, chi2=1.0, alpha=1.0, beta=1.0),
        grid=Grid(lengths=(1.0,) * dim, cells=cells),
        initial=InitialSpec(
            u=CosineBumpInit(base=1.0, amplitude=0.5, modes=(1,) * dim),
            v=CosineBumpInit(base=1.0, amplitude=0.25, modes=first_axis),
            w=CosineBumpInit(base=0.25, amplitude=0.25, modes=first_axis),
        ),
        t_end=t_end,
        options=SchemeOptions(advection=scheme),
    )


def homogeneous_scenario(t_end=1.0) -> ScenarioConfig:
    return ScenarioConfig(
        params=ModelParams(chi1=1.0, chi2=1.0, alpha=1.0, beta=1.0),
        grid=Grid(lengths=(1.0, 1.0), cells=(32, 32)),
        initial=InitialSpec(
            u=ConstantInit(1.0), v=ConstantInit(1.0), w=ConstantInit(0.5)
        ),
        t_end=t_end,
    )


@pytest.fixture(scope="session")
def reference_run():
    """Completed reference-scenario run shared by the expensive checks."""
    result = run(reference_scenario())
    assert result.outcome == "completed"
    return result


@pytest.fixture(scope="session")
def homogeneous_run():
    result = run(homogeneous_scenario())
    assert result.outcome == "completed"
    return result
