"""Print the sha256 of every run output of the fixed reference runs.

Runs the README's scenario config and the benchmark workloads (seed 7)
through ``chemolab run --quiet`` in a temporary directory and prints one
line per output: the sha256 of ``diagnostics.csv``, ``verification.json``
and ``final_{u,v,w}.raw``, then the manifest's ``config_digest``.  Exits
1, naming the run and its exit code, when a run does not complete.  A
refactor that leaves the numerics alone must leave every line unchanged;
run this before and after and compare.

    python tools/output_digests.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from benchmarks.workloads import WORKLOADS, generate  # noqa: E402
from chemolab import cli  # noqa: E402

SEED = 7
OUTPUTS = ("diagnostics.csv", "verification.json",
           "final_u.raw", "final_v.raw", "final_w.raw")


def readme_config(workdir: Path) -> Path:
    """The README's one JSON block, written as a config file."""
    readme = (ROOT / "README.md").read_text()
    (block,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    workdir.mkdir(parents=True)
    path = workdir / "config.json"
    path.write_text(block)
    return path


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        configs = {"readme_64": readme_config(tmp / "readme_64")}
        for name in WORKLOADS:
            configs[name] = generate(name, SEED, tmp / name)
        for name, config in configs.items():
            out = tmp / name / "out"
            code = cli.main(["run", "--config", str(config), "--out", str(out), "--quiet"])
            if code not in (0, 2):  # 2: completed, a verification check failed
                sys.exit(f"{name}: chemolab run exited {code}")
            for fname in OUTPUTS:
                if (out / fname).exists():
                    digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
                    print(f"{name} {fname} {digest}")
            manifest = json.loads((out / "manifest.json").read_text())
            print(f"{name} config_digest {manifest['config_digest']}")


if __name__ == "__main__":
    main()
