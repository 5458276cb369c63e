"""Run configuration: one JSON document mapped onto the solver objects.

The document is a key tree with five blocks — constitutive, grid,
stepping, ic, output — all optional, all keys defaulted.  Parsing checks
each value as JSON (type, finiteness, no unknown keys) and then builds
the ``ConstitutiveModel``, ``Column`` and ``StepConfig``: their
constructors are the only place the numeric constraints of those three
blocks live, and a violation is reported with its key path instead of
surfacing later deep in a run.  The ``ic`` and ``output`` blocks belong
to no solver type and are checked here.  Validation is first-error:
parsing stops at the first offending key, and within a block the JSON
checks come before the type's constraints.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional

import numpy as np

from .constitutive import (
    ConstitutiveError, ConstitutiveModel, KirchhoffTable, build_table,
)
from .grid import Column, Field, GridError
from .stepper import StepConfig, StepConfigError

__all__ = ["ConfigError", "RunConfig", "parse_config", "load_config"]


class ConfigError(ValueError):
    """First configuration problem found, tagged with its key path."""


# Defaults reproduce the reference problem end to end: unit column with
# 200 nodes, first-order stepping at h = 0.01 to t = 1, fourth-order
# term on, and the standard wetting lens.  An empty document is that run.
_DEFAULTS: Dict[str, Dict[str, Any]] = {
    "constitutive": {
        "alpha_vg": 2.0,
        "n_vg": 2.0,
        "s_res": 0.05,
        "p_reg": -10.0,
        "a_min": 1.0e-3,
    },
    "grid": {"length": 1.0, "n_cells": 200, "gravity_sign": -1.0},
    "stepping": {
        "h": 0.01,
        "gamma": 0.1,
        "t_end": 1.0,
        "newton_tol": 1.0e-7,
    },
    "ic": {"profile": "gaussian_lens", "center": 0.5, "width": 0.15, "depth": 0.2},
    "output": {"directory": "out", "stride": 10},
}

_IC_KEYS = {
    "zero": set(),
    "gaussian_lens": {"center", "width", "depth"},
    "custom": {"z", "u"},
}


def _fail(path: str, constraint: str, value: Any) -> None:
    raise ConfigError(f"{path}: {constraint} (got {value!r})")


def _number(block: Dict[str, Any], path: str, key: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "must be a number", value)
    if not np.isfinite(value):
        _fail(f"{path}.{key}", "must be finite", value)
    block[key] = float(value)  # normalize: 2 and 2.0 are the same document
    return block[key]


def _integer(block: Dict[str, Any], path: str, key: str) -> int:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(f"{path}.{key}", "must be an integer", value)
    return int(value)


def _build(name: str, cls: Callable[..., Any], **kwargs: Any) -> Any:
    """``cls(**kwargs)``, a violated constraint reported under block ``name``."""
    try:
        return cls(**kwargs)
    except (ConstitutiveError, GridError, StepConfigError) as exc:
        raise ConfigError(f"{name}.{exc}") from exc


def _merge_block(doc: Dict[str, Any], name: str) -> Dict[str, Any]:
    block = doc.get(name, {})
    if not isinstance(block, dict):
        _fail(name, "must be an object", block)
    known = set(_DEFAULTS[name])
    if name == "ic":
        profile = block.get("profile", _DEFAULTS["ic"]["profile"])
        known = {"profile"} | _IC_KEYS.get(profile, set())
    for key in block:
        if key not in known:
            _fail(f"{name}.{key}", "unknown key", key)
    merged = dict(_DEFAULTS[name])
    if name == "ic" and block.get("profile", merged["profile"]) != merged["profile"]:
        merged = {"profile": block["profile"]}
    merged.update(block)
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted configuration.

    Blocks are plain normalized dicts; the build methods construct the
    actual solver objects.  ``canonical_json``/``config_hash`` give a
    stable identity for output metadata.
    """

    constitutive: Dict[str, Any]
    grid: Dict[str, Any]
    stepping: Dict[str, Any]
    ic: Dict[str, Any]
    output: Dict[str, Any]

    def build_model(self) -> ConstitutiveModel:
        return ConstitutiveModel(**self.constitutive)

    def transform_table(self) -> KirchhoffTable:
        return build_table(self.build_model())

    def build_column(self) -> Column:
        return Column(
            length=self.grid["length"],
            n_cells=self.grid["n_cells"],
            gravity_sign=self.grid["gravity_sign"],
        )

    def build_stepping(self, beta: Optional[float] = None) -> StepConfig:
        if beta is None:
            beta = self.build_model().beta_bound()
        return StepConfig(beta=beta, **self.stepping)

    def initial_state(self, column: Optional[Column] = None) -> Field:
        col = self.build_column() if column is None else column
        z = col.nodes()
        profile = self.ic["profile"]
        if profile == "zero":
            return Field.zeros(col)
        if profile == "gaussian_lens":
            c, w, d = self.ic["center"], self.ic["width"], self.ic["depth"]
            return Field(-d * np.exp(-(((z - c) / w) ** 2)), col)
        # custom: tabulated profile, linearly interpolated onto the nodes
        # (clamped to the end values outside the tabulated range)
        return Field(np.interp(z, self.ic["z"], self.ic["u"]), col)

    def canonical_json(self) -> str:
        doc = {
            "constitutive": self.constitutive,
            "grid": self.grid,
            "stepping": self.stepping,
            "ic": self.ic,
            "output": self.output,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _reject_nonfinite(token: str) -> float:
    raise ConfigError(f"non-finite literal {token!r} not allowed")


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document, or first-error report.

    Every reported problem carries the key path, the violated
    constraint, and the offending value.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("<root>", "must be an object", type(doc).__name__)
    for key in doc:
        if key not in _DEFAULTS:
            _fail(key, "unknown block", key)

    con = _merge_block(doc, "constitutive")
    for key in con:
        _number(con, "constitutive", key)
    model = _build("constitutive", ConstitutiveModel, **con)

    grid = _merge_block(doc, "grid")
    length = _number(grid, "grid", "length")
    _integer(grid, "grid", "n_cells")
    _number(grid, "grid", "gravity_sign")
    _build("grid", Column, **grid)

    step = _merge_block(doc, "stepping")
    for key in step:
        _number(step, "stepping", key)
    _build("stepping", StepConfig, beta=model.beta_bound(), **step)

    ic = _merge_block(doc, "ic")
    profile = ic.get("profile")
    if profile not in _IC_KEYS:
        _fail("ic.profile", "must be one of zero, gaussian_lens, custom", profile)
    if profile == "gaussian_lens":
        if not 0.0 < _number(ic, "ic", "center") < length:
            _fail("ic.center", "must lie inside the column", ic["center"])
        if not _number(ic, "ic", "width") > 0.0:
            _fail("ic.width", "must be positive", ic["width"])
        if not _number(ic, "ic", "depth") >= 0.0:
            _fail("ic.depth", "must be >= 0", ic["depth"])
    elif profile == "custom":
        for key in ("z", "u"):
            if key not in ic:
                _fail(f"ic.{key}", "required for the custom profile", None)
            arr = ic[key]
            if not isinstance(arr, list) or len(arr) < 2:
                _fail(f"ic.{key}", "must be a list of at least 2 numbers", arr)
            if not all(
                isinstance(v, (int, float))
                and not isinstance(v, bool)
                and np.isfinite(v)
                for v in arr
            ):
                _fail(f"ic.{key}", "entries must be finite numbers", arr)
        if len(ic["z"]) != len(ic["u"]):
            _fail("ic.u", "must match the length of ic.z", ic["u"])
        if not np.all(np.diff(np.asarray(ic["z"], dtype=float)) > 0.0):
            _fail("ic.z", "must be strictly increasing", ic["z"])
        ic["z"] = [float(v) for v in ic["z"]]
        ic["u"] = [float(v) for v in ic["u"]]

    out = _merge_block(doc, "output")
    if not isinstance(out["directory"], str) or not out["directory"]:
        _fail("output.directory", "must be a non-empty string", out["directory"])
    if _integer(out, "output", "stride") < 1:
        _fail("output.stride", "must be >= 1", out["stride"])

    return RunConfig(constitutive=con, grid=grid, stepping=step, ic=ic, output=out)


def load_config(path: Optional[str]) -> RunConfig:
    """RunConfig from a file path; ``None`` means the default document."""
    if path is None:
        return parse_config("{}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
