import gc
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from chemolab import model, solver
from chemolab.cli import main, read_diagnostics_csv, write_diagnostics_csv
from chemolab.config import ConfigError, config_digest, config_to_dict, parse_config
from chemolab.diagnostics import COLUMNS, TABLE_DTYPE
from chemolab.model import FileInit, Grid, write_field_raw
from chemolab.solver import run


def minimal_config(**overrides):
    cfg = {
        "params": {"chi1": 1.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0},
        "grid": {"lengths": [1.0, 1.0], "cells": [8, 8]},
        "initial": {
            "u": {"kind": "constant", "value": 1.0},
            "v": {"kind": "constant", "value": 1.0},
            "w": {"kind": "constant", "value": 0.5},
        },
        "time": {"t_end": 0.1},
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


# ------------------------------------------------------------------ parsing


def test_parse_minimal_config_applies_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, minimal_config()))
    assert cfg.options.advection == "central"
    assert cfg.options.cfl_safety == 0.5
    assert cfg.output_every == pytest.approx(0.1 / 200.0)
    assert cfg.options.dt_max == 0.1
    assert cfg.options.blowup_linf == 1e8
    assert cfg.weight_p is None


def test_parse_rejects_bad_chi_with_key_path(tmp_path):
    bad = minimal_config()
    bad["params"]["chi1"] = -1.0
    with pytest.raises(ConfigError, match="params.chi1"):
        parse_config(write_config(tmp_path, bad))


def test_parse_rejects_unknown_keys(tmp_path):
    bad = minimal_config()
    bad["extra"] = 1
    with pytest.raises(ConfigError, match="unknown key extra"):
        parse_config(write_config(tmp_path, bad))
    bad = minimal_config()
    bad["time"]["warp"] = 2
    with pytest.raises(ConfigError, match="unknown key time.warp"):
        parse_config(write_config(tmp_path, bad))
    bad = minimal_config()
    bad["initial"]["u"]["sigma"] = 2
    with pytest.raises(ConfigError, match="unknown key initial.u.sigma"):
        parse_config(write_config(tmp_path, bad))


def test_parse_rejects_duplicate_keys(tmp_path):
    path = tmp_path / "dup.json"
    path.write_text(
        '{"params": {"chi1": 1, "chi1": 2, "chi2": 1, "alpha": 1, "beta": 1},'
        '"grid": {"lengths": [1.0], "cells": [8]},'
        '"initial": {"u": {"kind": "constant", "value": 1},'
        '"v": {"kind": "constant", "value": 1},'
        '"w": {"kind": "constant", "value": 0}},'
        '"time": {"t_end": 1.0}}'
    )
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config(path)


def test_parse_rejects_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="malformed JSON"):
        parse_config(path)


def test_parse_rejects_dim_mismatch_and_bad_kind(tmp_path):
    bad = minimal_config()
    bad["grid"]["dim"] = 3
    with pytest.raises(ConfigError, match="grid.dim"):
        parse_config(write_config(tmp_path, bad))
    bad = minimal_config()
    bad["initial"]["w"] = {"kind": "mystery"}
    with pytest.raises(ConfigError, match="initial.w.kind"):
        parse_config(write_config(tmp_path, bad))


def test_parse_rejects_fractional_cell_counts(tmp_path):
    bad = minimal_config()
    bad["grid"]["cells"] = [8.7, 8]
    with pytest.raises(ConfigError, match="grid.cells must be whole numbers, got 8.7"):
        parse_config(write_config(tmp_path, bad))
    whole = minimal_config()
    whole["grid"]["cells"] = [8.0, 8]
    assert parse_config(write_config(tmp_path, whole)).grid.cells == (8, 8)


@pytest.mark.parametrize(
    "key, entries",
    [
        ("lengths", [True, 1.0]),
        ("cells", ["8", 8]),
        ("cells", [8, False]),
        ("dim", True),
        ("dim", "1"),
    ],
)
def test_parse_rejects_bool_and_string_grid_entries(tmp_path, key, entries):
    bad = minimal_config()
    bad["grid"][key] = entries
    what = "a number" if key == "dim" else "a list of numbers"
    with pytest.raises(ConfigError, match=f"grid.{key} must be {what}"):
        parse_config(write_config(tmp_path, bad))
    if key == "dim":  # a whole number still parses, as an int or a float
        for dim in (2, 2.0):
            bad["grid"]["dim"] = dim
            assert parse_config(write_config(tmp_path, bad)).grid.dim == 2


@pytest.mark.parametrize(
    "section, key, value, message",
    [
        ("params", "chi1", 10**400, "params.chi1 must be a finite number"),
        ("time", "t_end", -(10**400), "time.t_end must be a finite number"),
        ("output", "every", math.nan, "output.every must be a finite number"),
        ("grid", "lengths", [1.0, 10**400], "grid.lengths must be a list of finite numbers"),
        ("grid", "cells", [8, math.inf], "grid.cells must be a list of finite numbers"),
        ("u", "center", [math.nan, 0.5], "initial.u.center must be a list of finite numbers"),
        ("v", "modes", [10**400, 1],
         "initial.v.modes must be a list of integers within float range"),
    ],
    ids=["chi1", "t_end", "every", "lengths", "cells", "center", "modes"],
)
def test_parse_refuses_numbers_beyond_float_range(tmp_path, section, key, value, message):
    bad = minimal_config(output={"every": 0.01})
    bad["initial"]["u"] = {"kind": "gaussian", "center": [0.5, 0.5], "width": 0.1, "amplitude": 1.0}
    bad["initial"]["v"] = {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1, 1]}
    (bad["initial"] if section in "uvw" else bad)[section][key] = value
    with pytest.raises(ConfigError) as raised:
        parse_config(write_config(tmp_path, bad))
    assert str(raised.value) == message  # names the key, echoes no digits


def test_parse_casts_numbers_so_equal_configs_share_a_digest(tmp_path):
    digests = []
    for center, cells in (([0, 1], [8, 8]), ([0.0, 1.0], [8.0, 8])):
        cfg = minimal_config(grid={"lengths": [1, 1.0], "cells": cells})
        cfg["initial"]["u"] = {"kind": "gaussian", "center": center, "width": 1, "amplitude": 1}
        parsed = parse_config(write_config(tmp_path, cfg))
        assert parsed.initial.u.center == (0.0, 1.0) and parsed.grid.cells == (8, 8)
        assert all(type(x) is float for x in parsed.initial.u.center + parsed.grid.lengths)
        assert type(parsed.initial.u.width) is float
        digests.append(config_digest(parsed))
    assert digests[0] == digests[1]


def test_parse_weight_group(tmp_path):
    cfg = minimal_config(weight={"p": 2.0, "eps": 0.3})
    parsed = parse_config(write_config(tmp_path, cfg))
    assert parsed.weight_p == 2.0 and parsed.weight_eps == 0.3
    bad = minimal_config(weight={"p": 2.0})
    with pytest.raises(ConfigError, match="weight.eps"):
        parse_config(write_config(tmp_path, bad))


def test_omitted_keys_resolve_to_the_written_out_defaults(tmp_path):
    bare = parse_config(write_config(tmp_path, minimal_config(), "bare.json"))
    full = minimal_config(
        output={"every": 0.1 / 200},
        scheme={"advection": "central", "blowup_linf": 1e8},
    )
    full["time"].update(dt_max=0.1, cfl_safety=0.5)
    written = parse_config(write_config(tmp_path, full, "full.json"))
    assert config_to_dict(bare) == config_to_dict(written)
    assert config_to_dict(bare)["time"] == {"t_end": 0.1, "dt_max": 0.1, "cfl_safety": 0.5}
    assert config_digest(bare) == config_digest(written)
    # a cap above t_end never binds: it resolves to t_end
    full["time"]["dt_max"] = 1.0
    above = parse_config(write_config(tmp_path, full, "above.json"))
    assert config_digest(above) == config_digest(bare)


def test_parse_rejects_zero_output_every(tmp_path):
    bad = minimal_config(output={"every": 0})
    with pytest.raises(ConfigError, match="output.every"):
        parse_config(write_config(tmp_path, bad))


def test_file_initializer_paths_resolve_relative_to_config(tmp_path):
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    write_field_raw(np.full(g.shape, 2.0), tmp_path / "u.raw")
    cfg = minimal_config()
    cfg["initial"]["u"] = {"kind": "file", "path": "u.raw"}
    parsed = parse_config(write_config(tmp_path, cfg))
    assert isinstance(parsed.initial.u, FileInit)
    assert np.all(parsed.initial.u.sample(g) == 2.0)


def test_digest_stable_across_key_order(tmp_path):
    cfg = minimal_config()
    a = parse_config(write_config(tmp_path, cfg, "a.json"))
    shuffled = {k: cfg[k] for k in reversed(list(cfg))}
    b = parse_config(write_config(tmp_path, shuffled, "b.json"))
    assert config_digest(a) == config_digest(b)
    changed = minimal_config()
    changed["time"]["t_end"] = 0.2
    c = parse_config(write_config(tmp_path, changed, "c.json"))
    assert config_digest(a) != config_digest(c)


def test_digest_identifies_file_inputs_by_content(tmp_path):
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    cfg = minimal_config()
    for name in "uvw":
        cfg["initial"][name] = {"kind": "file", "path": f"{name}.raw"}
    digests = []
    for where in ("first", "second"):
        folder = tmp_path / where
        folder.mkdir()
        for name, value in (("u", 1.0), ("v", 1.0), ("w", 0.5)):
            write_field_raw(np.full(g.shape, value), folder / f"{name}.raw")
        digests.append(config_digest(parse_config(write_config(folder, cfg))))
    assert digests[0] == digests[1]  # same bytes, different paths
    write_field_raw(np.full(g.shape, 0.25), tmp_path / "second" / "w.raw")
    rewritten = parse_config(tmp_path / "second" / "scenario.json")
    assert config_digest(rewritten) != digests[0]


README_CONFIG = {
    "params": {"chi1": 1.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0},
    "grid": {"lengths": [1.0, 1.0], "cells": [64, 64]},
    "initial": {
        "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1, 1]},
        "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25, "modes": [1, 0]},
        "w": {"kind": "cosine_bump", "base": 0.25, "amplitude": 0.25, "modes": [1, 0]},
    },
    "time": {"t_end": 5.0, "dt_max": 5.0, "cfl_safety": 0.5},
    "output": {"every": 0.025},
    "scheme": {"advection": "central", "blowup_linf": 1e8},
    "weight": {"p": 2.0, "eps": 0.3},
}


def test_readme_example_is_the_pinned_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.S)
    assert len(blocks) == 1
    assert json.loads(blocks[0]) == README_CONFIG


def test_digest_of_readme_example_is_pinned(tmp_path):
    # manifests written earlier carry this value; the canonical form must
    # not drift
    cfg = parse_config(write_config(tmp_path, README_CONFIG))
    assert config_digest(cfg) == (
        "763db43636312e734ade84149db6de0923019db89af13d6f7739060ae5e61ede"
    )


# Full configs whose key paths, between them, reach every key the schema
# reads: the README config with grid.dim, and each field of every initial kind.
_FULL_CONFIGS = []
for _u, _w in (
    ({"kind": "gaussian", "center": [0.5, 0.5], "width": 0.1, "amplitude": 1.0, "floor": 0.5},
     {"kind": "constant", "value": 0.25}),
    ({"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5},
     {"kind": "file", "path": "w.raw"}),
):
    _full = json.loads(json.dumps(README_CONFIG))
    _full["grid"]["dim"] = 2
    _full["initial"].update(u=_u, w=_w)
    _FULL_CONFIGS.append(_full)


def _key_paths(node, prefix=()):
    for key, value in node.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))


_KEY_PATHS = sorted({(i, path) for i, full in enumerate(_FULL_CONFIGS)
                     for path in _key_paths(full)})
_JSON_VALUES = hst.recursive(
    hst.none() | hst.booleans() | hst.text(max_size=4)
    | hst.integers() | hst.sampled_from([10**400, -(10**400)])
    | hst.floats(allow_nan=True, allow_infinity=True),
    lambda inner: hst.lists(inner, max_size=3)
    | hst.dictionaries(hst.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(where=hst.sampled_from(_KEY_PATHS), value=_JSON_VALUES)
def test_parse_any_json_value_at_any_key_path_returns_or_is_a_config_error(
    tmp_path_factory, where, value
):
    index, path = where
    cfg = json.loads(json.dumps(_FULL_CONFIGS[index]))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    folder = tmp_path_factory.mktemp("fuzz")
    try:
        parse_config(write_config(folder, cfg))
    except ConfigError:
        pass


# ---------------------------------------------------------------- CSV + I/O


def test_diagnostics_csv_round_trip(tmp_path):
    from tests.conftest import homogeneous_scenario

    result = run(homogeneous_scenario(t_end=0.05))
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(result.records, path)
    back = read_diagnostics_csv(path)
    # repr round-trip is exact
    assert back.tobytes() == result.records.tobytes() and back.dtype == TABLE_DTYPE


_EDGE_FLOATS = [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308,
                math.inf, -math.inf, math.nan]
_ANY_FLOAT = hst.sampled_from(_EDGE_FLOATS) | hst.floats()
_ROWS = hst.lists(hst.tuples(*(_ANY_FLOAT for _ in COLUMNS)), max_size=50)


@settings(max_examples=200, deadline=None)
@given(rows=_ROWS)
def test_diagnostics_csv_bytes_and_round_trip_for_any_floats(tmp_path_factory, rows):
    # the format, built here as one joined text, independently of the writer:
    # a NaN, in any column, is an empty cell
    lines = [",".join("" if x != x else repr(x) for x in row) for row in rows]
    expected = "\n".join([",".join(COLUMNS), *lines]) + "\n"
    table = np.array(rows, TABLE_DTYPE)
    path = tmp_path_factory.mktemp("csv") / "diagnostics.csv"
    write_diagnostics_csv(table, path)
    assert path.read_bytes() == expected.encode()
    # repr, not ==, so a NaN and the sign of -0.0 are compared too
    assert repr(read_diagnostics_csv(path).tolist()) == repr(table.tolist())


@pytest.mark.parametrize("extra", [1, -1], ids=["one_cell_more", "one_cell_fewer"])
def test_read_diagnostics_csv_refuses_a_row_of_the_wrong_width(tmp_path, extra):
    from tests.conftest import homogeneous_scenario

    path = tmp_path / "diag.csv"
    write_diagnostics_csv(run(homogeneous_scenario(t_end=0.01)).records, path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    cells = cells + ["1.0"] if extra > 0 else cells[:-1]
    lines[2] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"diag.csv line 3: {15 + extra} cells, expected 15"):
        read_diagnostics_csv(path)


@pytest.mark.parametrize(
    "cell, message",
    [("abc", "could not convert string to float: 'abc'"),
     ("nan", "a NaN cell; the format writes NaN as an empty cell")],
    ids=["not_a_number", "literal_nan"],
)
def test_read_diagnostics_csv_refuses_a_cell_that_is_not_a_value(tmp_path, cell, message):
    # the writer never writes nan: a read NaN would be rewritten as an empty cell
    from tests.conftest import homogeneous_scenario

    path = tmp_path / "diag.csv"
    write_diagnostics_csv(run(homogeneous_scenario(t_end=0.01)).records, path)
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[2].rstrip("\n").split(",")
    cells[COLUMNS.index("lyapunov")] = cell
    lines[2] = ",".join(cells) + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ValueError, match=f"diag.csv line 3: {re.escape(message)}$"):
        read_diagnostics_csv(path)


def test_diagnostics_csv_writer_holds_no_more_than_a_row(tmp_path):
    # Joining the rows of these 6,000 records into one text took 4.7 MB.
    records = np.array([tuple(i + k / 7.0 for k in range(len(COLUMNS)))
                        for i in range(6000)], TABLE_DTYPE)
    tracemalloc.start()
    try:
        write_diagnostics_csv(records, tmp_path / "diagnostics.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 256 * 1024


def test_cmd_run_peak_memory_holds_the_records_but_not_their_text(tmp_path):
    # 1-D, 16 cells, 3,001 samples.  Traced peaks: 4.59 MB while the CSV
    # text was joined in memory, 2.56 MB with rows streamed to the file and
    # slotted records, 1.69 MB with the records as one table.
    cosine = {"kind": "cosine_bump", "modes": [1]}
    cfg = minimal_config(
        grid={"lengths": [1.0], "cells": [16]},
        initial={
            "u": {**cosine, "base": 1.0, "amplitude": 0.5},
            "v": {**cosine, "base": 1.0, "amplitude": 0.25},
            "w": {**cosine, "base": 0.25, "amplitude": 0.25},
        },
        time={"t_end": 3.0},
        output={"every": 0.001},
    )
    argv = ["run", "--config", str(write_config(tmp_path, cfg)),
            "--out", str(tmp_path / "out"), "--quiet"]
    assert main(argv) == 0  # warm-up
    gc.collect()
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 3_500_000


# ----------------------------------------------------------------- cmd: run


def test_cmd_run_homogeneous(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    # homogeneous scenario this short keeps w large: end_state check fails
    assert code == 2
    csv_lines = (out / "diagnostics.csv").read_text().splitlines()
    assert len(csv_lines) >= 3  # header plus at least two samples
    assert csv_lines[0].startswith("t,mass_u,mass_v,")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "completed"
    assert manifest["checks_passed"] is False
    # every emitted file is referenced; nothing unreferenced is present
    listed = set(manifest["files"]) | {"manifest.json"}
    assert listed == {p.name for p in out.iterdir()}
    verification = json.loads((out / "verification.json").read_text())
    failed = [c["name"] for c in verification["checks"] if not c["passed"]]
    assert failed == ["end_state"]
    assert capsys.readouterr().out.count("check ") >= 7


def test_cmd_run_passing_scenario_exits_zero(tmp_path):
    cfg = minimal_config()
    cfg["time"]["t_end"] = 4.0  # long enough for the signal to decay away
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "ok"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["checks_passed"] is True
    assert manifest["tool_version"]
    assert manifest["started"] <= manifest["finished"]
    assert manifest["steps"] == run(parse_config(cfg_path)).steps > 0


def test_cmd_run_zero_signal_passes_the_decay_check(tmp_path):
    # w = 0 stays 0: there is no rate to fit, and nothing left to decay
    cfg = minimal_config(
        grid={"lengths": [1.0], "cells": [16]},
        initial={
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5},
            "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25},
            "w": {"kind": "constant", "value": 0.0},
        },
        time={"t_end": 1.0},
    )
    out = tmp_path / "zero"
    code = main(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
    )
    assert code == 0
    checks = json.loads((out / "verification.json").read_text())["checks"]
    decay = next(c for c in checks if c["name"] == "decay_rate")
    assert decay["passed"] and "identically zero" in decay["detail"]


@pytest.mark.parametrize("w0", [1e-160, 1e-170, 1e-300])
def test_cmd_run_tiny_signal_runs_without_a_weight(tmp_path, capsys, w0):
    # the threshold construction's p is not a usable float at these
    # amplitudes: the run goes on without the weighted L^p column
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [8]})
    cfg["initial"]["w"]["value"] = w0
    cfg_path, out = write_config(tmp_path, cfg), tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 2)
    assert json.loads((out / "manifest.json").read_text())["outcome"] == "completed"
    records = read_diagnostics_csv(out / "diagnostics.csv")
    assert all(math.isnan(x) for x in records["lyapunov"])
    assert "weight note: weight construction unavailable" in capsys.readouterr().out


@pytest.mark.parametrize("w0", [1e-150])
def test_cmd_run_tiny_signal_gets_a_weight(tmp_path, capsys, w0):
    # p ~ 3.1e150 from the threshold construction, below the largest p the
    # weight takes
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [8]})
    cfg["initial"]["w"]["value"] = w0
    cfg_path, out = write_config(tmp_path, cfg), tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "completed" and manifest["weight_note"] == ""
    records = read_diagnostics_csv(out / "diagnostics.csv")
    assert not any(math.isnan(x) for x in records["lyapunov"])
    assert "weight note" not in capsys.readouterr().out


def test_cmd_run_snapshot_is_restart_capable(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "snap"
    main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    sidecar = json.loads((out / "final_state.json").read_text())
    grid = Grid(
        lengths=tuple(sidecar["grid"]["lengths"]),
        cells=tuple(sidecar["grid"]["cells"]),
    )
    restart = minimal_config()
    for name in ("u", "v", "w"):
        restart["initial"][name] = {
            "kind": "file",
            "path": str(out / sidecar["fields"][name]),
        }
    restart_cfg = parse_config(write_config(tmp_path, restart, "restart.json"))
    u0, v0, w0 = restart_cfg.initial.build(grid)
    result = run(parse_config(cfg_path))
    assert np.array_equal(u0, result.final_state.u)
    assert np.array_equal(w0, result.final_state.w)


def test_cmd_run_reads_each_file_initializer_once(tmp_path, monkeypatch):
    g = Grid(lengths=(1.0, 1.0), cells=(8, 8))
    cfg = minimal_config()
    for name, value in (("u", 1.0), ("v", 1.0), ("w", 0.5)):
        write_field_raw(np.full(g.shape, value), tmp_path / f"{name}.raw")
        cfg["initial"][name] = {"kind": "file", "path": f"{name}.raw"}
    reads = []
    read_field_raw = model.read_field_raw

    def counting(*args):
        reads.append(args[0])
        return read_field_raw(*args)

    monkeypatch.setattr(model, "read_field_raw", counting)
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code in (0, 2)
    assert len(reads) == 3


def test_cmd_run_blowup_exits_three(tmp_path):
    cfg = {
        "params": {"chi1": 30.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0},
        "grid": {"lengths": [1.0], "cells": [32]},
        "initial": {
            "u": {"kind": "constant", "value": 1.0},
            "v": {"kind": "constant", "value": 1.0},
            "w": {"kind": "cosine_bump", "base": 0.5, "amplitude": 0.5, "modes": [1]},
        },
        "time": {"t_end": 2.0},
        "scheme": {"advection": "upwind", "blowup_linf": 3.0},
    }
    out = tmp_path / "boom"
    code = main(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
    )
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "blowup"
    assert manifest["blowup"]["field"] == "u"
    assert not (out / "verification.json").exists()


def test_cmd_run_positivity_loss_exits_three(tmp_path):
    # central scheme, chi 5, a 0.6/0 checkerboard signal with the densities
    # piled on its peaks: the troughs of u go negative in the first step
    g = Grid(lengths=(1.0,), cells=(8,))
    peaks = np.arange(8) % 2 == 0
    fields = {"u": np.where(peaks, 1.0, 0.01), "w": np.where(peaks, 0.6, 0.0)}
    fields["v"] = fields["u"]
    for name, arr in fields.items():
        write_field_raw(arr, tmp_path / f"{name}.raw")
    cfg = {
        "params": {"chi1": 5.0, "chi2": 5.0, "alpha": 1.0, "beta": 1.0},
        "grid": {"lengths": [1.0], "cells": [8]},
        "initial": {name: {"kind": "file", "path": f"{name}.raw"} for name in "uvw"},
        "time": {"t_end": 1.0},
        "scheme": {"advection": "central"},
    }
    out = tmp_path / "neg"
    code = main(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
    )
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "positivity"
    failure = manifest["positivity"]
    assert (failure["field"], failure["cell"]) == ("u", [1])
    assert failure["value"] < 0.0 and 0.0 < failure["time"] < 1.0
    assert manifest["steps"] == 0
    for name in ("diagnostics.csv", "final_u.raw", "final_v.raw", "final_w.raw"):
        assert (out / name).exists()
    assert not (out / "verification.json").exists()
    assert set(manifest["files"]) | {"manifest.json"} == {p.name for p in out.iterdir()}
    # the snapshot is the last good state: the initial data
    assert np.array_equal(model.read_field_raw(out / "final_u.raw", g), fields["u"])
    assert len(read_diagnostics_csv(out / "diagnostics.csv")) == 1


def test_cmd_run_stalled_step_exits_three(tmp_path, capsys):
    # absorption this extreme would need dt below the 1e-15 floor
    cfg = minimal_config(
        params={"chi1": 1.0, "chi2": 1.0, "alpha": 1e16, "beta": 1.0},
        grid={"lengths": [1.0], "cells": [8]},
        time={"t_end": 1.0},
    )
    out = tmp_path / "stall"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "stalled"
    assert manifest["stalled"]["field"] is None and manifest["stalled"]["cell"] is None
    assert 0.0 < manifest["stalled"]["value"] < 1e-15
    assert not (out / "verification.json").exists()
    assert "run ended early (stalled)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "chi1, lengths", [(1e6, [1e-150]), (1e308, [1.0])], ids=["tiny_box", "huge_chi"]
)
def test_cmd_run_step_bound_that_is_not_a_number_stalls(tmp_path, capsys, chi1, lengths):
    # chi1 / h^2 overflows, and a flat face gives 0 * inf = NaN
    cfg = minimal_config(grid={"lengths": lengths, "cells": [16]})
    cfg["params"]["chi1"] = chi1
    out = tmp_path / "nan"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "stalled" and manifest["steps"] == 0
    assert manifest["stalled"]["value"] is None
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])
    assert "diagnostics.csv" in manifest["files"] and "final_state.json" in manifest["files"]
    printed = capsys.readouterr().out
    assert "run ended early (stalled): the step bound is not a number" in printed
    assert "stability requires" not in printed


def _floor_config(time):
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]}, time=time)
    cfg["initial"]["w"] = {"kind": "cosine_bump", "base": 0.25, "amplitude": 0.25}
    return cfg


def test_cmd_run_with_t_end_below_the_step_floor_completes(tmp_path):
    # dt_max is lowered to t_end, below the 1e-15 floor, but every step
    # lands on an output time
    out = tmp_path / "out"
    cfg = _floor_config({"t_end": 1e-16})
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["outcome"], manifest["steps"]) == ("completed", 200)
    rows = read_diagnostics_csv(out / "diagnostics.csv")
    assert len(rows) == 201 and rows[-1]["t"] == 1e-16


def test_cmd_run_whose_signal_rounds_above_m_keeps_the_weighted_value(tmp_path):
    # the stepper's rounding lifts max w 7.2e-15 above ||w0||_inf, beyond the
    # weight's m but within the envelope's tolerance: a correct run, whose
    # weighted values are kept; only the 1e-16 horizon fails
    out = tmp_path / "out"
    cfg = _floor_config({"t_end": 1e-16})
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code == 2
    checks = json.loads((out / "verification.json").read_text())["checks"]
    failed = {c["name"] for c in checks if not c["passed"]}
    assert failed == {"end_state", "decay_rate"}
    rows = read_diagnostics_csv(out / "diagnostics.csv")
    assert max(r["linf_w"] for r in rows) > rows[0]["linf_w"]
    assert not any(math.isnan(r["lyapunov"]) for r in rows)


def test_cmd_run_that_ends_early_removes_an_earlier_verification_json(tmp_path):
    # a completed run, then a blow-up into the same directory: no report of
    # the first run may sit beside the second one's manifest
    out = tmp_path / "out"
    cfg = _floor_config({"t_end": 5.0})
    argv = ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
    assert main(argv) == 0
    assert json.loads((out / "verification.json").read_text())["passed"] is True
    cfg["scheme"] = {"blowup_linf": 1.0}
    argv[2] = str(write_config(tmp_path, cfg, "blowup.json"))
    assert main(argv) == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "blowup"
    assert not (out / "verification.json").exists()
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["files"] + ["manifest.json"])


def test_cmd_run_with_dt_max_below_the_step_floor_names_it(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = _floor_config({"t_end": 1.0, "dt_max": 1e-16})
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["outcome"], manifest["steps"]) == ("stalled", 0)
    assert manifest["stalled"]["value"] == 1e-16
    printed = capsys.readouterr().out
    assert "run ended early (stalled): time.dt_max = 1e-16 is below the step floor" in printed
    assert "stability requires" not in printed


def test_cmd_run_with_a_gaussian_wider_than_float_range(tmp_path):
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]})
    cfg["initial"]["u"] = {
        "kind": "gaussian", "center": [0.5], "width": 1e200, "amplitude": 1.0, "floor": 0.5,
    }
    out = tmp_path / "wide"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code in (0, 2)
    assert json.loads((out / "manifest.json").read_text())["outcome"] == "completed"


def test_cmd_run_with_a_gaussian_narrower_than_float_range(tmp_path):
    # 2 width^2 underflows; [0.53125] is the center of cell 8 of 16
    for center in (0.5, 0.53125):
        cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]})
        cfg["initial"]["u"] = {
            "kind": "gaussian", "center": [center], "width": 1e-200, "amplitude": 1.0,
            "floor": 0.5,
        }
        out = tmp_path / str(center)
        code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out),
                     "--quiet"])
        assert code in (0, 2)
        rows = read_diagnostics_csv(out / "diagnostics.csv")
        assert rows[0]["linf_u"] == (1.5 if center == 0.53125 else 0.5)


def _strict_json(path):
    def refuse(token):
        raise ValueError(f"bare {token} in {path.name}")

    return json.loads(path.read_text(), parse_constant=refuse)


@pytest.mark.parametrize(
    "changes, file, pick",
    [
        # chi1 / h^2 overflows, so the step bound is not a number
        ({"params.chi1": 1e6, "grid.lengths": [1e-150]}, "manifest.json",
         lambda d: d["stalled"]["value"]),
        # chi1 * ||w0||_inf overflows
        ({"params.chi1": 1e308, "initial.w": {"kind": "constant", "value": 10.0}},
         "manifest.json", lambda d: d["threshold"]["m1"]),
        # a zero signal decays at an infinite rate
        ({"initial.w": {"kind": "constant", "value": 0.0}}, "verification.json",
         lambda d: next(c["value"] for c in d["checks"] if c["name"] == "decay_rate")),
        # one sample after t = 0 fits no rate
        ({"output": {"every": 1.0}}, "verification.json",
         lambda d: next(c["value"] for c in d["checks"] if c["name"] == "decay_rate")),
    ],
    ids=["stalled", "m1", "zero_signal", "one_sample"],
)
def test_cmd_run_writes_non_finite_values_as_null(tmp_path, changes, file, pick):
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]}, time={"t_end": 1.0})
    for dotted, value in changes.items():
        section, _, key = dotted.rpartition(".")
        (cfg[section] if section else cfg)[key] = value
    out = tmp_path / "out"
    main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    for name in ("manifest.json", "verification.json", "final_state.json"):
        if (out / name).exists():
            _strict_json(out / name)
    assert pick(_strict_json(out / file)) is None


@pytest.mark.parametrize("w0", [0.5, 5.0], ids=["within", "above"])
def test_verification_json_holds_the_threshold_and_weight_note_of_the_manifest(tmp_path, w0):
    cfg = minimal_config()
    cfg["initial"]["w"]["value"] = w0
    out = tmp_path / "out"
    main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    manifest = json.loads((out / "manifest.json").read_text())
    report = json.loads((out / "verification.json").read_text())
    assert report["threshold"] == manifest["threshold"]
    assert report["weight_note"] == manifest["weight_note"]
    assert report["threshold"]["within"] == (w0 == 0.5)


@pytest.mark.parametrize("w0, within", [(0.5, True), (5.0, False)], ids=["within", "above"])
def test_cmd_run_manifest_holds_the_threshold_advisory_and_weight_note(
    tmp_path, capsys, w0, within
):
    cfg = minimal_config()
    cfg["initial"]["w"]["value"] = w0
    cfg["params"]["chi2"] = 0.5
    out = tmp_path / "out"
    main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)])
    printed = capsys.readouterr().out.splitlines()
    manifest = json.loads((out / "manifest.json").read_text())
    advisory = manifest["threshold"]
    assert advisory == {"m1": w0, "m2": 0.5 * w0, "bound": math.pi, "within": within}
    assert printed[0] == (
        f"threshold advisory: max(m1, m2) = {advisory['m1']:.6g} vs bound "
        f"{advisory['bound']:.6g} -> {'within' if within else 'ABOVE (run proceeds anyway)'}"
    )
    notes = [line.removeprefix("weight note: ") for line in printed if line.startswith("weight note: ")]
    assert notes == ([manifest["weight_note"]] if manifest["weight_note"] else [])
    assert (manifest["weight_note"] == "") == within


def test_cmd_run_lyapunov_beyond_float_range_is_an_empty_cell(tmp_path):
    # m = 1.5e-4 gives p ~ 2.1e4 from the threshold construction, and
    # u**p overflows wherever u > 1
    cfg = minimal_config(
        grid={"lengths": [1.0], "cells": [16]},
        initial={
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1]},
            "v": {"kind": "constant", "value": 1.0},
            "w": {"kind": "cosine_bump", "base": 1e-4, "amplitude": 5e-5, "modes": [1]},
        },
        time={"t_end": 5.0},
    )
    out = tmp_path / "big_p"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(
            ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
        )
    assert code == 0
    assert caught == []
    text = (out / "diagnostics.csv").read_text()
    assert "inf" not in text.replace("linf", "")
    lyap = read_diagnostics_csv(out / "diagnostics.csv")["lyapunov"]
    assert math.isnan(lyap[0])  # u**p overflows at t = 0
    assert not math.isnan(lyap[-1]) and math.isfinite(lyap[-1])


def test_cmd_run_signal_outside_the_weight_domain_exits_two(tmp_path, monkeypatch):
    # a deliberately broken absorption step, a source 2.5 w after absorbing,
    # drives chi1 max w past the weight's m: the run completes, its
    # lyapunov cells go empty, and the signal envelope check fails
    absorb = solver._Workspace.absorb

    def growing_signal(ws, fields, tau):
        absorb(ws, fields, tau)
        fields[2] *= np.exp(2.5 * tau)

    monkeypatch.setattr(solver._Workspace, "absorb", growing_signal)
    cfg = minimal_config(
        grid={"lengths": [1.0], "cells": [64]},
        initial={
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1]},
            "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25, "modes": [1]},
            "w": {"kind": "cosine_bump", "base": 0.25, "amplitude": 0.25, "modes": [1]},
        },
        time={"t_end": 5.0},
        scheme={"advection": "upwind"},
    )
    out = tmp_path / "outside"
    code = main(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
    )
    assert code == 2
    lyap = read_diagnostics_csv(out / "diagnostics.csv")["lyapunov"]
    assert len(lyap) == 201 and not math.isnan(lyap[0]) and math.isnan(lyap[-1])
    checks = json.loads((out / "verification.json").read_text())["checks"]
    assert not next(c for c in checks if c["name"] == "signal_envelope")["passed"]


def test_cmd_run_rejects_an_explicit_weight_that_cannot_cover_the_signal(tmp_path, capsys):
    # m = max(chi1, chi2) * ||w0||_inf = 1.896 is above the bound 1.826 of
    # p = 2, eps = 0.3: the run does not start
    cfg = minimal_config(
        grid={"lengths": [1.0, 1.0], "cells": [16, 16]},
        initial={
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [1, 1]},
            "v": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.25, "modes": [1, 0]},
            "w": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.9, "modes": [1, 0]},
        },
        time={"t_end": 6.0},
        weight={"p": 2.0, "eps": 0.3},
    )
    out = tmp_path / "out"
    code = main(
        ["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "weight.p" in err and "weight.eps" in err
    assert not (out / "diagnostics.csv").exists()


def test_cmd_run_unwritable_out_exits_one(tmp_path, capsys):
    cfg_path = write_config(tmp_path, minimal_config())
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = main(
        ["run", "--config", str(cfg_path), "--out", str(blocker / "nested")]
    )
    assert code == 1
    assert "error" in capsys.readouterr().err.lower()


@pytest.mark.parametrize(
    "key, overrides",
    [
        ("grid", {"grid": {"lengths": [1.0, 1.0], "cells": [10**400, 8]}}),
        ("weight.p", {"weight": {"p": 1e200, "eps": 0.3}}),
    ],
)
def test_cmd_run_rejects_an_unusable_value_before_running(tmp_path, capsys, key, overrides):
    cfg_path = write_config(tmp_path, minimal_config(**overrides))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "lengths, cells",
    [
        ([1e-200], [16]),  # h*h underflows to 0
        ([1e-160], [4]),  # h*h is subnormal
        ([1e-120] * 3, [4] * 3),  # the cell volume underflows to 0
        ([1e200, 1e200], [4, 4]),  # the box volume overflows
    ],
)
def test_cmd_run_rejects_a_box_beyond_float_range_before_running(
    tmp_path, capsys, lengths, cells
):
    cfg_path = write_config(tmp_path, minimal_config(grid={"lengths": lengths, "cells": cells}))
    out = tmp_path / "out"
    code = main(["run", "--config", str(cfg_path), "--out", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: grid: grid.lengths ")
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize(
    "field, initial",
    [
        ("u0", {"u": {"kind": "constant", "value": 1e308},
                "v": {"kind": "constant", "value": 1e308}}),
        ("w0^2", {"w": {"kind": "cosine_bump", "base": 1e200, "amplitude": 1e199}}),
    ],
)
def test_cmd_run_refuses_initial_integrals_beyond_float_range(tmp_path, capsys, field, initial):
    # every cell is finite, the integral the diagnostics take is not
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [4]})
    cfg["initial"].update(initial)
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == f"error: the integral of {field} is beyond float range\n"
    assert not (out / "diagnostics.csv").exists()


@pytest.mark.parametrize("field", ["u", "v"])
def test_cmd_run_refuses_an_initial_integral_that_underflows_to_zero(tmp_path, capsys, field):
    # every cell is positive, the integral over the 1e-150 box is not
    cfg = minimal_config(grid={"lengths": [1e-150], "cells": [16]})
    cfg["initial"][field]["value"] = 1e-300
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code == 1
    assert capsys.readouterr().err == f"error: the integral of {field}0 underflows to 0\n"
    assert not (out / "diagnostics.csv").exists()


def test_cmd_run_a_rate_beyond_float_range_stalls_without_a_warning(tmp_path):
    # u = v = 1e308 in one cell: the integrals are finite, but the cell's
    # absorption rate alpha u + beta v and its gradient are not, so the step
    # bound is 0 and the run stalls at t = 0
    u = np.ones(16)
    u[3] = 1e308
    for name, arr in (("u", u), ("v", u), ("w", np.full(16, 0.5))):
        write_field_raw(arr, tmp_path / f"{name}.raw")
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]})
    cfg["initial"] = {name: {"kind": "file", "path": f"{name}.raw"} for name in "uvw"}
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code == 3
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["outcome"], manifest["steps"]) == ("stalled", 0)
    assert manifest["stalled"]["time"] == 0.0
    (first,) = read_diagnostics_csv(out / "diagnostics.csv")
    assert first["dirichlet_u"] == math.inf and first["linf_u"] == 1e308


@pytest.mark.parametrize(
    "u, linf_u",
    [
        ({"kind": "cosine_bump", "base": 1.0, "amplitude": 0.5, "modes": [10**308]}, 1.5),
        ({"kind": "gaussian", "center": [1e200], "width": 0.1, "amplitude": 1.0,
          "floor": 0.5}, 0.5),
    ],
    ids=["cosine_mode_1e308", "gaussian_center_1e200"],
)
def test_cmd_run_samples_accepted_values_beyond_float_arithmetic(tmp_path, u, linf_u):
    # 10^308 is a multiple of 4 * 16, so u is base + amplitude exactly; the
    # far center's squared distance overflows, so u is its floor
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [16]})
    cfg["initial"]["u"] = u
    out = tmp_path / "out"
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out", str(out), "--quiet"])
    assert code in (0, 2)
    rows = read_diagnostics_csv(out / "diagnostics.csv")
    assert rows[0]["linf_u"] == linf_u and rows[0]["dev_u"] == 0.0


# Sizes in exabytes: beyond every address space, so the allocation fails at
# once whatever the overcommit setting; nothing is ever mapped.
def test_cmd_run_grid_beyond_memory_exits_one(tmp_path, capsys):
    cfg = minimal_config(grid={"lengths": [1.0] * 3, "cells": [10**6] * 3})
    code = main(["run", "--config", str(write_config(tmp_path, cfg)), "--out",
                 str(tmp_path / "out"), "--quiet"])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


def test_cmd_analyze_weight_table_beyond_memory_exits_one(capsys):
    code = main(["analyze-weight", "--p", "2", "--eps", "0.3", "--m", "1",
                 "--samples", str(10**18)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of memory: ") and captured.err.count("\n") == 1


def test_grid_keeps_boxes_within_float_range():
    assert Grid(lengths=(1e-150,), cells=(16,)).volume_element > 0.0
    assert Grid(lengths=(1e200,), cells=(16,)).volume == 1e200


def test_cmd_run_writes_every_file_before_printing(tmp_path, monkeypatch):
    class ClosedPipe:
        def write(self, text):
            raise BrokenPipeError(32, "Broken pipe")

        def flush(self):
            pass

    cfg_path = write_config(tmp_path, minimal_config())
    out = tmp_path / "out"
    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outcome"] == "completed"
    written = ["diagnostics.csv", "final_u.raw", "final_v.raw", "final_w.raw",
               "final_state.json", "verification.json"]
    assert manifest["files"] == written
    assert sorted(p.name for p in out.iterdir()) == sorted(written + ["manifest.json"])


@pytest.mark.parametrize("command", ["run", "threshold"])
def test_closed_block_buffered_stdout_exits_one(tmp_path, command):
    # stdout is a pipe nobody reads, buffered until the interpreter exits
    # unless main flushes it first
    if command == "run":
        argv = ["run", "--config", str(write_config(tmp_path, minimal_config())),
                "--out", str(tmp_path / "out")]
    else:
        argv = ["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", "0.5"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if "PYTHONPATH" in env else "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "chemolab.cli", *argv],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=120,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 1
    assert done.stderr == "I/O error: [Errno 32] Broken pipe\n"
    if command == "run":
        assert len(list((tmp_path / "out").iterdir())) == 7


def test_cmd_run_missing_config_exits_one(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "nope.json")])
    assert code == 1
    assert "cannot read config" in capsys.readouterr().err


def test_cmd_run_is_byte_deterministic(tmp_path):
    cfg_path = write_config(tmp_path, minimal_config())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    main(["run", "--config", str(cfg_path), "--out", str(out1), "--quiet"])
    main(["run", "--config", str(cfg_path), "--out", str(out2), "--quiet"])
    assert (out1 / "diagnostics.csv").read_bytes() == (
        out2 / "diagnostics.csv"
    ).read_bytes()


# ----------------------------------------------------- cmd: analysis tables


def test_cmd_threshold_reports_construction(capsys):
    code = main(["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", "0.5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "3.14159265359" in out
    assert "within" in out and "yes" in out
    assert "eps" in out and "p " in out
    assert "p > n/2" in out


def test_cmd_threshold_above(capsys):
    code = main(["threshold", "--n", "3", "--chi1", "3", "--chi2", "1", "--w0max", "1.2"])
    assert code == 0
    out = capsys.readouterr().out
    assert "no" in out
    assert "above threshold" in out


@pytest.mark.parametrize("w0max", [0.0, 1e-170, 0.5])
def test_cmd_threshold_reports_the_weight_a_run_uses(tmp_path, capsys, w0max):
    code = main(["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", repr(w0max)])
    assert code == 0
    rows = dict(line.split(" : ", 1) for line in capsys.readouterr().out.splitlines())
    rows = {label.rstrip(): value for label, value in rows.items()}
    cfg = minimal_config()
    cfg["initial"]["w"] = {"kind": "constant", "value": w0max}
    ctx = run(parse_config(write_config(tmp_path, cfg))).context
    if ctx.weight is None:
        assert "eps" not in rows and "p" not in rows
    else:
        assert float(rows["eps"]) == pytest.approx(ctx.weight.eps, rel=1e-11)
        assert float(rows["p"]) == pytest.approx(ctx.weight.p, rel=1e-11)
    assert rows.get("weight note", "") == ctx.weight_note


def test_cmd_threshold_builds_a_weight_below_a_unit_bound(capsys):
    code = main(["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", "1e-20"])
    assert code == 0
    rows = dict(line.split(" : ", 1) for line in capsys.readouterr().out.splitlines())
    rows = {label.rstrip(): value for label, value in rows.items()}
    assert float(rows["eps"]) == 0.5
    assert float(rows["p"]) == pytest.approx(math.pi * 1e20, rel=1e-11)
    assert "weight note" not in rows


@pytest.mark.parametrize("w0max", ["nan", "inf"])
def test_cmd_threshold_rejects_a_non_finite_signal_amplitude(w0max, capsys):
    code = main(["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", w0max])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: w0_max must be finite")


@pytest.mark.parametrize("flag", ["--chi1", "--chi2"])
@pytest.mark.parametrize("chi", ["0", "-1", "nan", "inf"])
def test_cmd_threshold_names_the_flag_of_a_bad_sensitivity(flag, chi, capsys):
    argv = ["threshold", "--n", "2", "--chi1", "1", "--chi2", "1", "--w0max", "0.5"]
    argv[argv.index(flag) + 1] = chi
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be a positive real, got {float(chi)}\n"


def test_cmd_analyze_weight_footer(capsys):
    code = main(
        ["analyze-weight", "--p", "2", "--eps", "0.3", "--m", str(math.pi / 2),
         "--samples", "200"]
    )
    assert code == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert len(lines) == 202  # header + samples + footer
    footer = lines[-1]
    assert footer.startswith("max |residual| = ")
    assert float(footer.split("=")[1].split()[0]) <= 1e-8


def test_cmd_analyze_weight_rejects_bad_amplitude(capsys):
    code = main(["analyze-weight", "--p", "2", "--eps", "0.3", "--m", "1.9"])
    assert code == 1
    assert "admissible bound" in capsys.readouterr().err


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cmd_analyze_weight_rejects_too_few_samples_before_printing(samples, capsys):
    code = main(
        ["analyze-weight", "--p", "2", "--eps", "0.3", "--m", "1", "--samples", samples]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no header
    assert captured.err.startswith("error: --samples must be at least 1")


def test_cmd_convergence_table(tmp_path, capsys):
    cfg = {
        "params": {"chi1": 1.0, "chi2": 0.5, "alpha": 1.0, "beta": 1.0},
        "grid": {"lengths": [1.0], "cells": [16]},
        "initial": {
            "u": {"kind": "cosine_bump", "base": 2.0, "amplitude": 1.0, "modes": [1]},
            "v": {"kind": "cosine_bump", "base": 2.0, "amplitude": 0.5, "modes": [2]},
            "w": {"kind": "cosine_bump", "base": 0.3, "amplitude": 0.3, "modes": [1]},
        },
        "time": {"t_end": 0.05},
    }
    code = main(
        ["convergence", "--config", str(write_config(tmp_path, cfg)), "--levels", "3"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "observed order" in out
    order = float(out.strip().splitlines()[-1].split("=")[1])
    assert order >= 1.8


def test_cmd_convergence_rejects_too_few_levels_before_running(tmp_path, capsys):
    # the config is never read: a missing file would be an I/O error instead
    absent = str(tmp_path / "absent.json")
    code = main(["convergence", "--config", absent, "--levels", "2"])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no table
    assert captured.err.startswith("error: --levels must be at least 3")


def test_cmd_convergence_level_ending_early_exits_one(tmp_path, capsys):
    cfg = {
        "params": {"chi1": 1.0, "chi2": 1.0, "alpha": 1.0, "beta": 1.0},
        "grid": {"lengths": [1.0], "cells": [8]},
        "initial": {
            "u": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.9, "modes": [1]},
            "v": {"kind": "constant", "value": 1.0},
            "w": {"kind": "cosine_bump", "base": 1.0, "amplitude": 0.9, "modes": [1]},
        },
        "time": {"t_end": 0.5},
        "scheme": {"advection": "upwind", "blowup_linf": 1.5},
    }
    code = main(["convergence", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refinement level (8,) ended early (blowup): ")
    assert "Traceback" not in err


def test_cmd_convergence_levels_that_agree_exactly_exit_one(tmp_path, capsys):
    # constant fields stay exactly constant on every level
    cfg = minimal_config(grid={"lengths": [1.0], "cells": [8]}, time={"t_end": 0.5})
    code = main(["convergence", "--config", str(write_config(tmp_path, cfg))])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: the u distance between refinement levels (8,) and (16,) is 0, "
        "which gives no order\n"
    )
