"""Workload definitions and the seeded input generator.

Each workload turns a seed into a scenario config (plus raw field files for
``dense1d_256``) written into a work directory.  The program under test only
ever sees those files.  Every generated input is strictly positive and keeps
``max(chi1, chi2) * ||w0||_inf`` below the boundedness threshold
``sqrt(2/n) * pi``; the generator refuses to write anything else.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PARAMS = {"chi1": 1.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0}


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[int, ...]
    # True when the run is expected to reach t_end with every check passing
    # (exit 0); otherwise the horizon-dependent checks may fail (exit 2).
    fully_verified: bool


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ref2d_32", (32, 32), True),
        Workload("upwind3d_32", (32, 32, 32), False),
        Workload("dense1d_256", (256,), False),
    )
}

# Checks every run must pass, whatever its horizon.
CORE_CHECKS = (
    "mass_conservation_u",
    "mass_conservation_v",
    "signal_envelope",
    "signal_energy_budget",
)


def diffusive_dt(cells: tuple[int, ...]) -> float:
    """The solver's diffusive step on the unit box at the default
    cfl_safety 0.5: 0.5 * h^2 / (2n)."""
    h = 1.0 / max(cells)
    return 0.5 * h * h / (2.0 * len(cells))


def threshold(dim: int) -> float:
    return math.sqrt(2.0 / dim) * math.pi


def ref2d_config() -> dict:
    """The reference scenario of the test suite on a 32^2 grid to t = 5."""
    return {
        "params": dict(PARAMS),
        "grid": {"lengths": [1.0, 1.0], "cells": [32, 32]},
        "initial": {
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1, 1]},
            "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25, "modes": [1, 0]},
            "w": {"kind": "cosine_bump", "base": 0.25, "amplitude": 0.25, "modes": [1, 0]},
        },
        "time": {"t_end": 5.0, "dt_max": 5.0},
        "scheme": {"advection": "central"},
    }


UPWIND3D_RECORDS = 10


def _upwind3d_config(rng: np.random.Generator) -> dict:
    """Gaussian u and w with seeded centers, cosine v; 10 output samples.

    t_end is ~620 diffusive steps on 32^3 cells.
    """
    cu = rng.uniform(0.25, 0.75, size=3).tolist()
    cw = rng.uniform(0.25, 0.75, size=3).tolist()
    w_floor, w_amp = 0.1, 0.9
    _check_amplitude(w_floor + w_amp, 3)
    every = 0.005
    return {
        "params": dict(PARAMS),
        "grid": {"lengths": [1.0, 1.0, 1.0], "cells": [32, 32, 32]},
        "initial": {
            "u": {"kind": "gaussian", "center": cu, "width": 0.15,
                  "amplitude": 1.0, "floor": 0.5},
            "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5,
                  "modes": [1, 1, 1]},
            "w": {"kind": "gaussian", "center": cw, "width": 0.2,
                  "amplitude": w_amp, "floor": w_floor},
        },
        "time": {"t_end": UPWIND3D_RECORDS * every},
        "output": {"every": every},
        "scheme": {"advection": "upwind"},
    }


def low_mode_field(rng: np.random.Generator, x: np.ndarray, base: float,
                   spread: float, modes: int = 4) -> np.ndarray:
    """base + sum_k a_k cos(k pi x) with sum_k |a_k| <= spread < base."""
    if not 0.0 <= spread < base:
        raise ValueError("spread must stay below base to keep the field positive")
    coef = rng.uniform(-1.0, 1.0, size=modes) / np.arange(1, modes + 1)
    coef *= spread / np.sum(np.abs(coef))
    out = np.full_like(x, base)
    for k, a in enumerate(coef, start=1):
        out += a * np.cos(k * np.pi * x)
    return out


# dense1d_256 samples the output every 1.5 diffusive steps, so every other
# step is shortened to land on an output time.
DENSE1D_RECORDS = 6_000


def _dense1d_config(rng: np.random.Generator, workdir: Path) -> dict:
    cells = WORKLOADS["dense1d_256"].cells
    x = (np.arange(cells[0]) + 0.5) / cells[0]
    fields = {
        "u": low_mode_field(rng, x, base=1.0, spread=0.5),
        "v": low_mode_field(rng, x, base=1.0, spread=0.5),
        "w": low_mode_field(rng, x, base=0.5, spread=0.4),
    }
    _check_amplitude(float(fields["w"].max()), 1)
    initial = {}
    for name, arr in fields.items():
        if not np.all(arr > 0.0):
            raise ValueError(f"generated {name} is not strictly positive")
        fname = f"init_{name}.raw"
        # Raw little-endian float64, x fastest (the documented file format).
        (workdir / fname).write_bytes(arr.astype("<f8").tobytes(order="F"))
        initial[name] = {"kind": "file", "path": fname}
    every = 1.5 * diffusive_dt(cells)
    return {
        "params": dict(PARAMS),
        "grid": {"lengths": [1.0], "cells": list(cells)},
        "initial": initial,
        "time": {"t_end": DENSE1D_RECORDS * every},
        "output": {"every": every},
        "scheme": {"advection": "upwind"},
    }


def _check_amplitude(w0_max: float, dim: int) -> None:
    m = max(PARAMS["chi1"], PARAMS["chi2"]) * w0_max
    if not m < threshold(dim):
        raise ValueError(f"amplitude {m} is not below the threshold {threshold(dim)}")


def generate(name: str, seed: int, workdir: Path) -> Path:
    """Write the workload's inputs for ``seed`` into ``workdir``; return the
    config path.  The same seed always writes the same bytes."""
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    if name == "ref2d_32":
        config = ref2d_config()
    elif name == "upwind3d_32":
        config = _upwind3d_config(rng)
    elif name == "dense1d_256":
        config = _dense1d_config(rng, workdir)
    else:
        raise KeyError(name)
    path = workdir / "config.json"
    path.write_text(json.dumps(config, indent=2) + "\n")
    return path
