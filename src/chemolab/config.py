"""JSON scenario configs: strict parsing, defaults, canonical digests.

The schema groups keys as params/grid/initial/time/output/scheme/weight.
Unknown keys are rejected with their full key path, duplicate keys are a
syntax error, and every range violation names the offending key.
"""

from __future__ import annotations

import hashlib
import json
import math
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


# (section, key) -> ScenarioConfig attribute, dotted for params, grid and
# options.  Defaults live in the class that holds the value; the keys listed
# in _OPTIONAL may be left out, every other key of a section that is present
# is required.
_SCHEMA = {
    ("params", "chi1"): "params.chi1",
    ("params", "chi2"): "params.chi2",
    ("params", "alpha"): "params.alpha",
    ("params", "beta"): "params.beta",
    ("grid", "lengths"): "grid.lengths",
    ("grid", "cells"): "grid.cells",
    ("time", "t_end"): "t_end",
    ("time", "dt_max"): "options.dt_max",
    ("time", "cfl_safety"): "options.cfl_safety",
    ("output", "every"): "output_every",
    ("scheme", "advection"): "options.advection",
    ("scheme", "blowup_linf"): "options.blowup_linf",
    ("weight", "p"): "weight_p",
    ("weight", "eps"): "weight_eps",
}
_OPTIONAL = {
    ("time", "dt_max"),
    ("time", "cfl_safety"),
    ("output", "every"),
    ("scheme", "advection"),
    ("scheme", "blowup_linf"),
}
_SECTIONS = ("params", "grid", "initial", "time", "output", "scheme", "weight")
_REQUIRED_SECTIONS = ("params", "grid", "initial", "time")

# initial-field kind -> class; a field's keys are the class's fields, and
# those with a class default are optional.
_KINDS = {
    "constant": ConstantInit,
    "cosine_bump": CosineBumpInit,
    "gaussian": GaussianInit,
    "file": FileInit,
}


def _number(table: dict, key: str, path: str) -> float:
    value = table[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}.{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{path}.{key} must be finite")
    return float(value)


def _typed(kind, what: str):
    def read(table: dict, key: str, path: str):
        value = table[key]
        if not isinstance(value, kind):
            raise ConfigError(f"{path}.{key} must be {what}")
        return value

    return read


def _typed_list(kind, what: str, cast):
    def read(table: dict, key: str, path: str) -> tuple:
        value = table[key]
        if not isinstance(value, list) or not all(
            isinstance(x, kind) and not isinstance(x, bool) for x in value
        ):
            raise ConfigError(f"{path}.{key} must be a list of {what}")
        return tuple(cast(x) for x in value)

    return read


# Keys that are not plain numbers, by key name; Grid checks the list entries.
_READERS = {
    "lengths": _typed_list((int, float), "numbers", float),
    "cells": _typed_list((int, float), "numbers", lambda m: m),
    "advection": _typed(str, "a string"),
    "path": _typed(str, "a string"),
    "modes": _typed_list(int, "integers", int),
    "center": _typed_list((int, float), "numbers", float),
}


def _read(table: dict, key: str, path: str):
    return _READERS.get(key, _number)(table, key, path)


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
            kwargs[f.name] = _read(table, f.name, path)
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
    for section in _SECTIONS:
        if section == "initial" or section not in root:
            continue
        table = _require_table(root[section], section)
        keys = {key for sec, key in _SCHEMA if sec == section}
        _reject_unknown(table, keys | ({"dim"} if section == "grid" else set()), section)
        for key in keys:
            if key in table:
                owner, _, name = _SCHEMA[section, key].rpartition(".")
                values[owner][name] = _read(table, key, section)
            elif (section, key) not in _OPTIONAL:
                raise ConfigError(f"missing key {section}.{key}")

    try:
        params = ModelParams(**values["params"])
        options = SchemeOptions(**values["options"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        grid = Grid(**values["grid"])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc
    dim = _number(root["grid"], "dim", "grid") if "dim" in root["grid"] else grid.dim
    if dim != grid.dim:
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
    for (section, key), attr in _SCHEMA.items():
        if section == "weight" and config.weight_p is None:
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
