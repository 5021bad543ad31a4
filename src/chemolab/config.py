"""JSON scenario configs: strict parsing, defaults, canonical digests.

The schema groups keys as params/grid/initial/time/output/scheme/weight.
Unknown keys are rejected with their full key path, duplicate keys are a
syntax error, and every range violation names the offending key.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import MISSING, fields
from operator import attrgetter
from pathlib import Path
from typing import Any

from .model import (
    ConstantInit,
    CosineBumpInit,
    FileInit,
    GaussianInit,
    Grid,
    InitialField,
    InitialSpec,
    ModelParams,
    ScenarioConfig,
    SchemeOptions,
)

__all__ = ["ConfigError", "parse_config", "config_to_dict", "config_digest"]


class ConfigError(ValueError):
    pass


def _no_duplicates(pairs):
    seen = {}
    for key, value in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key {key!r}")
        seen[key] = value
    return seen


def _require_table(raw: Any, path: str) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError(f"{path} must be an object")
    return raw


def _reject_unknown(table: dict, allowed: set[str], path: str) -> None:
    for key in table:
        if key not in allowed:
            raise ConfigError(f"unknown key {path}.{key}" if path else f"unknown key {key}")


# (section, key) -> (the ScenarioConfig attribute it sets, dotted for params,
# grid and options; the shape _read reads; whether a section that is present
# must hold it).  Defaults live in the class that holds the value.  grid.dim
# sets nothing: it is only checked against the lengths.
_SCHEMA = {
    ("params", "chi1"): ("params.chi1", "number", True),
    ("params", "chi2"): ("params.chi2", "number", True),
    ("params", "alpha"): ("params.alpha", "number", True),
    ("params", "beta"): ("params.beta", "number", True),
    ("grid", "lengths"): ("grid.lengths", "numbers", True),
    ("grid", "cells"): ("grid.cells", "numbers", True),  # Grid checks they are whole
    ("grid", "dim"): (None, "number", False),
    ("time", "t_end"): ("t_end", "number", True),
    ("time", "dt_max"): ("options.dt_max", "number", False),
    ("time", "cfl_safety"): ("options.cfl_safety", "number", False),
    ("output", "every"): ("output_every", "number", False),
    ("scheme", "advection"): ("options.advection", "string", False),
    ("scheme", "blowup_linf"): ("options.blowup_linf", "number", False),
    ("weight", "p"): ("weight_p", "number", True),
    ("weight", "eps"): ("weight_eps", "number", True),
}
_SECTIONS = ("params", "grid", "initial", "time", "output", "scheme", "weight")
_REQUIRED_SECTIONS = ("params", "grid", "initial", "time")

# initial-field kind -> class; a field's keys are the class's fields, and
# those with a class default are optional.  Every key not in _FIELD_SHAPES,
# whatever the kind, is a number.
_KINDS = {
    "constant": ConstantInit,
    "cosine_bump": CosineBumpInit,
    "gaussian": GaussianInit,
    "file": FileInit,
}
_FIELD_SHAPES = {"modes": "integers", "center": "numbers", "path": "string"}

# shape -> (the entry type, float admitting an int; what a value must be; what
# it must be when a number in it is not finite or is beyond float range)
_SHAPES = {
    "number": (float, "a number", "a finite number"),
    "numbers": (float, "a list of numbers", "a list of finite numbers"),
    "integers": (int, "a list of integers", "a list of integers within float range"),
    "string": (str, "a string", None),
}


def _read(table: dict, key: str, path: str, shape: str):
    """``table[key]`` as a float, a str, or a tuple of numbers.  One rule
    covers every number, alone or in a list: an int or float, not a bool,
    finite and within float range.  The classes cast list entries."""
    kind, what, finite = _SHAPES[shape]
    value = table[key]
    listed = shape in ("numbers", "integers")
    entries = value if listed else [value]
    kinds = (int, float) if kind is float else kind
    if not isinstance(entries, list) or not all(
        isinstance(x, kinds) and not isinstance(x, bool) for x in entries
    ):
        raise ConfigError(f"{path}.{key} must be {what}")
    # exact for an int of any size; False for NaN
    if kind is not str and not all(abs(x) <= sys.float_info.max for x in entries):
        raise ConfigError(f"{path}.{key} must be {finite}")
    return tuple(value) if listed else kind(value)


def _parse_field(raw: Any, path: str, config_dir: Path) -> InitialField:
    table = _require_table(raw, path)
    kind = table.get("kind")
    cls = _KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigError(f"{path}.kind must be one of {', '.join(_KINDS)}")
    _reject_unknown(table, {"kind"} | {f.name for f in fields(cls)}, path)
    kwargs = {}
    for f in fields(cls):
        if f.name in table:
            shape = _FIELD_SHAPES.get(f.name, "number")
            kwargs[f.name] = _read(table, f.name, path, shape)
        elif f.default is MISSING:
            raise ConfigError(f"missing key {path}.{f.name}")
    if cls is FileInit:
        resolved = Path(kwargs["path"])
        if not resolved.is_absolute():
            resolved = config_dir / resolved
        kwargs["path"] = str(resolved)
    return cls(**kwargs)


def parse_config(path) -> ScenarioConfig:
    """Load and fully resolve a scenario config, applying defaults."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        root = json.loads(text, object_pairs_hook=_no_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed JSON in {path}: {exc}") from exc

    root = _require_table(root, "config")
    _reject_unknown(root, set(_SECTIONS), "")
    for required in _REQUIRED_SECTIONS:
        if required not in root:
            raise ConfigError(f"missing section {required}")

    # owner ("" for ScenarioConfig itself, "params", "grid", "options")
    # -> {name: value}
    values: dict[str, dict[str, Any]] = {"": {}, "params": {}, "grid": {}, "options": {}}
    dim = None
    for section in _SECTIONS:
        if section == "initial" or section not in root:
            continue
        table = _require_table(root[section], section)
        rows = {key: row for (sec, key), row in _SCHEMA.items() if sec == section}
        _reject_unknown(table, set(rows), section)
        for key, (attr, shape, required) in rows.items():
            if key not in table:
                if required:
                    raise ConfigError(f"missing key {section}.{key}")
            elif attr is None:
                dim = _read(table, key, section, shape)
            else:
                owner, _, name = attr.rpartition(".")
                values[owner][name] = _read(table, key, section, shape)

    try:
        params = ModelParams(**values["params"])
        options = SchemeOptions(**values["options"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        grid = Grid(**values["grid"])
    except ValueError as exc:
        raise ConfigError(f"grid: {exc}") from exc
    if dim is not None and dim != grid.dim:
        raise ConfigError(f"grid.dim = {dim:g} contradicts {grid.dim}-axis lengths/cells")

    i = _require_table(root["initial"], "initial")
    _reject_unknown(i, {"u", "v", "w"}, "initial")
    for name in ("u", "v", "w"):
        if name not in i:
            raise ConfigError(f"missing key initial.{name}")
    initial = InitialSpec(
        *(_parse_field(i[name], f"initial.{name}", path.parent) for name in "uvw")
    )

    try:
        return ScenarioConfig(
            params=params, grid=grid, initial=initial, options=options, **values[""]
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _field_to_dict(field: InitialField) -> dict:
    kind = next(k for k, cls in _KINDS.items() if isinstance(field, cls))
    out = {"kind": kind}
    for f in fields(field):
        value = getattr(field, f.name)
        if f.default == () and not value:
            continue  # the canonical form leaves out unset cosine modes
        out[f.name] = list(value) if isinstance(value, tuple) else value
    return out


def config_to_dict(config: ScenarioConfig) -> dict:
    """Fully-resolved plain dict; the canonical form behind the digest."""
    out = {"initial": {n: _field_to_dict(getattr(config.initial, n)) for n in "uvw"}}
    for (section, key), (attr, _, _) in _SCHEMA.items():
        if attr is None or (section == "weight" and config.weight_p is None):
            continue
        value = attrgetter(attr)(config)
        out.setdefault(section, {})[key] = (
            list(value) if isinstance(value, tuple) else value
        )
    return out


def config_digest(config: ScenarioConfig) -> str:
    """Content hash of the resolved config; stable across re-serialization.

    A ``file`` initializer enters by the sha256 of the bytes it holds, not
    by its path: the same inputs in two directories share a digest, and
    rewriting a raw file changes it.
    """
    resolved = config_to_dict(config)
    for entry in resolved["initial"].values():
        if entry["kind"] == "file":
            data = Path(entry.pop("path")).read_bytes()
            entry["sha256"] = hashlib.sha256(data).hexdigest()
    canonical = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
