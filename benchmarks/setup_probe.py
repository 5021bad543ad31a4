"""Time what a run pays before its first step, in a fresh interpreter.

Prints one JSON object ``{"setup_s": ...}``: the seconds for
``import chemolab`` + ``parse_config`` + ``InitialSpec.build`` +
``validate_initial_data`` on the given config.

    python3 benchmarks/setup_probe.py CONFIG
"""

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    config_path = sys.argv[1]
    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    import chemolab

    config = chemolab.parse_config(config_path)
    fields = config.initial.build(config.grid)
    chemolab.validate_initial_data(*fields, config.grid)
    elapsed = time.perf_counter() - started
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
