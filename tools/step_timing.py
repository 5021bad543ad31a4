"""Time the stepper: µs per chained ``stable_dt`` + ``step`` of one run's
workspace, on cosine data at eight grids.

Each grid gets the reference scenario's parameters and below-threshold
cosine fields.  One workspace steps them the way ``run()`` does, each step
from the state the last one returned, in 7 rounds of a fixed step count
after one warm-up step; the line shows the best round's µs per step.

    python tools/step_timing.py

The traced benchmark times only the module-level functions, each of which
builds a throwaway workspace, so this is the per-step measure of the
stepper a run uses.
"""

from __future__ import annotations

import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from chemolab import solver  # noqa: E402
from chemolab.model import (  # noqa: E402
    CosineBumpInit,
    Grid,
    InitialSpec,
    ModelParams,
    SchemeOptions,
    State,
)

GRIDS = [(8, 8), (32, 32), (256, 256), (256,), (1024,), (16, 16, 16), (32, 32, 32),
         (64, 64, 64)]
ROUNDS = 7
CELL_STEPS = 200_000  # steps per round times cells, so a round lasts ~10-200 ms


def per_step_us(cells: tuple[int, ...]) -> float:
    dim = len(cells)
    grid = Grid(lengths=(1.0,) * dim, cells=cells)
    first_axis = (1,) + (0,) * (dim - 1)
    initial = InitialSpec(
        u=CosineBumpInit(base=1.0, amplitude=0.5, modes=(1,) * dim),
        v=CosineBumpInit(base=1.0, amplitude=0.25, modes=first_axis),
        w=CosineBumpInit(base=0.25, amplitude=0.25, modes=first_axis),
    )
    ws = solver._Workspace(grid, ModelParams(1.0, 1.0, 1.0, 1.0), SchemeOptions())
    state = State(0.0, *initial.build(grid))

    def advance(steps: int) -> None:
        nonlocal state
        for _ in range(steps):
            dt = ws.stable_dt(state)
            state = ws.step(state, dt, state.t + dt)

    advance(1)  # the first step transforms its input; later ones start from D's spectrum
    steps = max(4, min(400, CELL_STEPS // math.prod(cells)))
    best = math.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        advance(steps)
        best = min(best, (time.perf_counter() - start) / steps)
    return best * 1e6


def main() -> None:
    for cells in GRIDS:
        name = "1-D " + str(cells[0]) if len(cells) == 1 else "x".join(map(str, cells))
        print(f"{name:>10}  {per_step_us(cells):9.1f} us/step", flush=True)


if __name__ == "__main__":
    main()
