"""Run tier-1 against hand-written mutants of the stepper and the
diagnostics and report which survive.

Each mutant replaces one fragment (a line, or adjacent lines) of one file
under ``src/`` with a faulty one.  For each mutant the script copies
``src/``, ``tests/``, ``benchmarks/``, ``pyproject.toml`` and the two files
tier-1 reads (``README.md``, ``BENCHMARK.json``) to a temporary directory,
checks that the fragment occurs there exactly once, applies the
edit and runs the tier-1 command in the copy, with ``-p no:cacheprovider``
and ``-x`` (the first failure decides), under a time limit per mutant.
The unmutated copy runs first: a sweep over a failing tree proves nothing.

    python tools/mutants.py

Prints one line per mutant: killed (with the first failing test),
survived or timed out, and its wall time.  Exits 1 when the unmutated copy
fails, a mutant survives or a mutant's fragment no longer occurs exactly
once.  A sweep takes minutes; it is not part of tier-1.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "benchmarks", "pyproject.toml", "README.md", "BENCHMARK.json")
TIME_LIMIT_S = 600
TIER1 = [sys.executable, "-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]

SOLVER, DIAGNOSTICS = "src/chemolab/solver.py", "src/chemolab/diagnostics.py"

# (name, file, old fragment, new fragment)
MUTANTS = [
    (
        "swap alpha and beta in _Workspace.absorb", SOLVER,
        "        np.multiply(fields[0], -tau * self.params.alpha, out=exponent)\n"
        "        np.multiply(fields[1], -tau * self.params.beta, out=other)\n",
        "        np.multiply(fields[0], -tau * self.params.beta, out=exponent)\n"
        "        np.multiply(fields[1], -tau * self.params.alpha, out=other)\n",
    ),
    (
        "v moved with chi1", SOLVER,
        "            axis.coef[0, 0], axis.coef[1, 0] = chi1 * tau, chi2 * tau\n",
        "            axis.coef[0, 0], axis.coef[1, 0] = chi1 * tau, chi1 * tau\n",
    ),
    (
        "face rate (stable_dt, substeps) bounds with chi1 only", SOLVER,
        "        self.chi = max(params.chi1, params.chi2)\n",
        "        self.chi = params.chi1\n",
    ),
    (
        "advect never splits", SOLVER,
        "        substeps = math.ceil(needed) if 1.0 < needed < math.inf else 1  # NaN -> 1\n",
        "        substeps = 1\n",
    ),
    (
        "stable_dt ignores absorption", SOLVER,
        "            rate = np.multiply(state.u, params.alpha, out=self.rate)\n"
        "            rate += np.multiply(state.v, params.beta, out=self.scratch[0])\n",
        "            rate = self.rate\n"
        "            rate.fill(0.0)\n",
    ),
    (
        "D runs with the full dt", SOLVER,
        "        decay = self.decay_for(0.5 * dt)\n",
        "        decay = self.decay_for(dt)\n",
    ),
    (
        "the first R runs with the full dt", SOLVER,
        "        self.absorb(fields, 0.5 * dt)\n"
        "        self.advect(fields, dt)\n",
        "        self.absorb(fields, dt)\n"
        "        self.advect(fields, dt)\n",
    ),
    (
        "the closing R runs with the full dt", SOLVER,
        "        self.advect(fields, dt)\n"
        "        self.absorb(fields, 0.5 * dt)\n",
        "        self.advect(fields, dt)\n"
        "        self.absorb(fields, dt)\n",
    ),
    (
        "the closing D runs with the full dt", SOLVER,
        "        self.absorb(fields, 0.5 * dt)\n"
        "        self.diffuse(fields, decay)\n",
        "        self.absorb(fields, 0.5 * dt)\n"
        "        self.diffuse(fields, self.decay_for(dt))\n",
    ),
    (
        "the middle cell of an odd axis read one column early", SOLVER,
        "            middle = x[:, r] if q > r else None\n",
        "            middle = x[:, r - 1] if q > r else None\n",
    ),
    (
        "the merged opening D drops the previous step's closing half-step", SOLVER,
        "        spectrum *= decay\n",
        "        spectrum = spectrum * decay  # the kept spectrum stays undecayed\n",
    ),
    (
        "a full-plan axis inverts with its forward matrix", SOLVER,
        "                axis.product(axis.backward if inverse else axis.forward, x, y)\n",
        "                axis.product(axis.forward, x, y)\n",
    ),
    (
        "the kept spectrum survives a w clip", SOLVER,
        "        self.kept = result if lows[2] >= 0.0 else None  #",
        "        self.kept = result  #",
    ),
    (
        "the mirror slice one cell inward", SOLVER,
        "        self.mirror = slice(m - 1, q - 1, -1)  #",
        "        self.mirror = slice(m - 2, q - 2, -1)  #",
    ),
    (
        "the Laplacian's eigenvalues with h where h^2 belongs", SOLVER,
        "        eig = -(4.0 / self.h2) * np.sin(modes * (np.pi / (2 * m))) ** 2\n",
        "        eig = -(4.0 / h) * np.sin(modes * (np.pi / (2 * m))) ** 2\n",
    ),
    (
        "chemotaxis tau with h where h^2 belongs", SOLVER,
        "            tau = dt / axis.h2\n",
        "            tau = dt / math.sqrt(axis.h2)\n",
    ),
    (
        "the stacked face slices one axis off", SOLVER,
        "        return [(flat[..., : axis.n], flat[..., axis.post :]) for axis in self.axes]\n",
        "        return [(flat[: axis.n], flat[axis.post :]) for axis in self.axes]\n",
    ),
    (
        "A's signal differences keep their wrap slots", SOLVER,
        "            if axis.wrap is not None:\n"
        "                axis.wrap.fill(0.0)\n",
        "",
    ),
    (
        "stable_dt's signal differences keep their wrap slots", SOLVER,
        "                if axis.diff_wrap is not None:\n"
        "                    axis.diff_wrap.fill(0.0)\n",
        "",
    ),
    (
        "the faces of an axis use the next axis's stride", SOLVER,
        "        n = cells - post\n",
        "        post = math.prod(grid.cells[axis + 2 :])\n"
        "        n = cells - post\n",
    ),
    (
        "chemotaxis at 90 % of its strength", SOLVER,
        "        self.advect(fields, dt)\n",
        "        self.advect(fields, 0.9 * dt)\n",
    ),
    (
        "chemotaxis at half its strength", SOLVER,
        "        self.advect(fields, dt)\n",
        "        self.advect(fields, 0.5 * dt)\n",
    ),
    (
        "diffusion at 90 % of its strength", SOLVER,
        "        decay = self.decay_for(0.5 * dt)\n",
        "        decay = self.decay_for(0.45 * dt)\n",
    ),
    (
        "the first R at 90 % of its strength", SOLVER,
        "        self.absorb(fields, 0.5 * dt)\n"
        "        self.advect(fields, dt)\n",
        "        self.absorb(fields, 0.45 * dt)\n"
        "        self.advect(fields, dt)\n",
    ),
    (
        "a landed step ends at t + dt, not at its output time", SOLVER,
        "                state = ws.step(state, dt, target if landed else state.t + dt)\n",
        "                state = ws.step(state, dt, state.t + dt)\n",
    ),
    (
        "record_block weights u with chi2", DIAGNOSTICS,
        "    wf, chi = ctx.weight, ctx.params.chi1\n",
        "    wf, chi = ctx.weight, ctx.params.chi2\n",
    ),
    (
        "record_block does not clip chi1 w to m", DIAGNOSTICS,
        "        values = _weighted_lp(u, np.minimum(s, wf.m, out=s), wf, grid)\n",
        "        values = _weighted_lp(u, s, wf, grid)\n",
    ),
    (
        "record_block's domain rule without _ENVELOPE_TOL", DIAGNOSTICS,
        "        kept = (chi * highs[2] <= wf.m + chi * _ENVELOPE_TOL) & np.isfinite(values)\n",
        "        kept = (chi * highs[2] <= wf.m) & np.isfinite(values)\n",
    ),
    (
        "record_block swaps the mass_u and mass_v columns", DIAGNOSTICS,
        "        _integrals(u, grid),\n"
        "        _integrals(v, grid),\n",
        "        _integrals(v, grid),\n"
        "        _integrals(u, grid),\n",
    ),
    (
        "trapezoid without its 1/2", DIAGNOSTICS,
        "            half_dt = 0.5 * (state.t - prev.t)\n",
        "            half_dt = state.t - prev.t\n",
    ),
]


def copy_tree(dest: Path) -> None:
    for item in COPIED:
        if (ROOT / item).is_dir():
            shutil.copytree(ROOT / item, dest / item, ignore=shutil.ignore_patterns(
                "__pycache__", ".bench_work", ".hypothesis"))
        else:
            shutil.copy2(ROOT / item, dest / item)


def tier1(tree: Path) -> tuple[str, float, str]:
    """Run tier-1 in ``tree``: (killed, survived or timed out; wall
    seconds; the first failing test, or pytest's last line)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    start = time.perf_counter()
    try:
        proc = subprocess.run(TIER1, cwd=tree, env=env, capture_output=True, text=True,
                              timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        return "timed out", time.perf_counter() - start, f"no verdict in {TIME_LIMIT_S} s"
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines() or ["(no output)"]
    if proc.returncode == 0:
        return "survived", wall, lines[-1]
    failures = [line.split()[1] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return "killed", wall, failures[0] if failures else lines[-1]


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "unmutated"
        copy_tree(tree)
        verdict, wall, detail = tier1(tree)
        print(f"unmutated  {wall:6.1f} s  {detail}", flush=True)
        if verdict != "survived":
            print("the unmutated tree fails tier-1, so no mutant verdict means anything")
            return 1
        for index, (name, rel, old, new) in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{index}"
            copy_tree(tree)
            path = tree / rel
            text = path.read_text()
            if text.count(old) != 1:
                print(f"no longer applies ({text.count(old)} matches in {rel}): {name}")
                bad += 1
                continue
            path.write_text(text.replace(old, new))
            verdict, wall, detail = tier1(tree)
            print(f"{verdict:<10} {wall:6.1f} s  {name}: {detail}", flush=True)
            bad += verdict == "survived"
            shutil.rmtree(tree)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
