"""Time the stepper: µs per chained ``stable_dt`` + ``step`` of one run's
workspace, and µs per call of its chemotaxis operator A (``advect``) and
of ``stable_dt``, on cosine data at eight grids.

Each grid gets the reference scenario's parameters and below-threshold
cosine fields.  One workspace steps them the way ``run()`` does, each step
from the state the last one returned, in 7 rounds of a fixed step count
after one warm-up step; the step column shows the best round's µs per
step.  The same workspace then calls ``stable_dt`` on the last state, and
``advect`` on its fields with that step, again for the same count in 7
rounds; their columns show the best round's µs per call.

    python tools/step_timing.py [--scheme central|upwind]

The scheme defaults to the library's default.  The traced benchmark times
only the module-level functions, each of which builds a throwaway
workspace, so this is the per-step measure of the stepper a run uses.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from pathlib import Path

import numpy as np

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


def best_us(call, calls: int) -> float:
    """Best of ROUNDS rounds of ``calls`` calls, in µs per call."""
    best = math.inf
    for _ in range(ROUNDS):
        start = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, (time.perf_counter() - start) / calls)
    return best * 1e6


def per_call_us(cells: tuple[int, ...], scheme: SchemeOptions) -> tuple[float, float, float]:
    """µs per chained step, per ``advect`` and per ``stable_dt`` on ``cells``."""
    dim = len(cells)
    grid = Grid(lengths=(1.0,) * dim, cells=cells)
    first_axis = (1,) + (0,) * (dim - 1)
    initial = InitialSpec(
        u=CosineBumpInit(base=1.0, amplitude=0.5, modes=(1,) * dim),
        v=CosineBumpInit(base=1.0, amplitude=0.25, modes=first_axis),
        w=CosineBumpInit(base=0.25, amplitude=0.25, modes=first_axis),
    )
    ws = solver._Workspace(grid, ModelParams(1.0, 1.0, 1.0, 1.0), scheme)
    state = State(0.0, *initial.build(grid))

    def advance() -> None:
        nonlocal state
        dt = ws.stable_dt(state)
        state = ws.step(state, dt, state.t + dt)

    advance()  # the first step transforms its input; later ones start from D's spectrum
    calls = max(4, min(400, CELL_STEPS // math.prod(cells)))
    step_us = best_us(advance, calls)
    dt = ws.stable_dt(state)
    stable_dt_us = best_us(lambda: ws.stable_dt(state), calls)
    fields = np.array((state.u, state.v, state.w))  # A moves u and v in place
    advect_us = best_us(lambda: ws.advect(fields, dt), calls)
    return step_us, advect_us, stable_dt_us


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scheme", choices=("central", "upwind"),
                        default=SchemeOptions().advection)
    scheme = SchemeOptions(advection=parser.parse_args().scheme)
    print(f"{scheme.advection}: us per step, per advect (A), per stable_dt")
    for cells in GRIDS:
        name = "1-D " + str(cells[0]) if len(cells) == 1 else "x".join(map(str, cells))
        step_us, advect_us, stable_dt_us = per_call_us(cells, scheme)
        print(f"{name:>10}  {step_us:9.1f} step  {advect_us:9.1f} A  "
              f"{stable_dt_us:8.1f} stable_dt", flush=True)


if __name__ == "__main__":
    main()
