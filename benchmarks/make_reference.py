"""Regenerate ``reference/ref2d_32.json``, the stored end state of ``ref2d_32``.

Runs the reference scenario through ``chemolab run`` on 32^2 and 64^2 cells,
each at ``cfl_safety`` 0.5 (the default) and 0.25, and stores the last
``diagnostics.csv`` row of each run plus each column's largest magnitude
over the default 32^2 run.  ``run.py`` derives the accepted end state and
its tolerance from these rows (see ``run.reference_target``).

Usage, from the repository root (takes about five minutes):

    python3 benchmarks/make_reference.py
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chemolab import cli  # noqa: E402

import workloads  # noqa: E402

OUT = HERE / "reference" / "ref2d_32.json"


def read_rows(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def run_at(cells: int, cfl: float, workdir: Path) -> tuple[list[dict], str]:
    config = workloads.ref2d_config()
    config["grid"]["cells"] = [cells, cells]
    config["time"]["cfl_safety"] = cfl
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workdir / "config.json"
    cfg.write_text(json.dumps(config, indent=2) + "\n")
    code = cli.main(["run", "--config", str(cfg), "--out", str(workdir / "out"), "--quiet"])
    if code != 0:
        raise SystemExit(f"reference run on {cells}^2 at cfl {cfl} exited {code}")
    csv_path = workdir / "out" / "diagnostics.csv"
    return read_rows(csv_path), hashlib.sha256(csv_path.read_bytes()).hexdigest()


def main() -> int:
    work = Path(".bench_work") / "reference"
    shutil.rmtree(work, ignore_errors=True)
    rows, scale, sha = {}, {}, ""
    for cells in (32, 64):
        for cfl in (0.5, 0.25):
            key = f"{cells}_cfl{cfl}"
            run_rows, digest = run_at(cells, cfl, work / key)
            rows[key] = run_rows[-1]
            if key == "32_cfl0.5":
                scale = {k: max(abs(r[k]) for r in run_rows) for k in run_rows[0]}
                sha = digest
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(
        json.dumps(
            {
                "scenario": "ref2d_32: reference scenario, central scheme, t_end = 5",
                "last_rows": rows,
                "scale_32": scale,
                "diagnostics_sha256_32": sha,
            },
            indent=2,
        )
        + "\n"
    )
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
