"""Finite-volume simulation and analysis toolkit for two-species
chemotaxis with signal absorption."""

__version__ = "0.1.0"

from .config import parse_config  # noqa: F401
from .diagnostics import (  # noqa: F401
    COLUMNS,
    DecayFit,
    RunContext,
    VerificationReport,
    dirichlet_energy,
    fit_decay,
    lyapunov,
    mass,
    verify_run,
)
from .model import (  # noqa: F401
    Grid,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
    State,
    threshold_check,
    validate_initial_data,
)
from .solver import (  # noqa: F401
    RunResult,
    rhs,
    run,
    stable_dt,
    step,
)
from .weight import (  # noqa: F401
    WeightFunction,
    admissible_bound,
    coefficients,
    epsilon_for_threshold,
    make_weight,
    p_for_equality,
)
