"""Run configuration: one JSON document mapped onto the solver objects.

The document is a key tree with four blocks — constitutive, grid,
stepping, ic — all optional, all keys defaulted; they state the problem
and nothing else (where and how often to write are command-line flags).
The three solver blocks are ``ConstitutiveModel``, ``Column`` and
``StepConfig``: each type's init fields and defaults are the block's
keys and defaults (except ``StepConfig.beta``, the model's growth
constant), and its constructor is the only place the block's numeric
constraints live.  Parsing checks each value as JSON (an integer where
the default is one, else a finite number; no unknown keys) and then
builds the type, so a violation is reported with its key path instead
of surfacing later deep in a run.  The ``ic`` block belongs to no solver
type and is checked here.  Validation is first-error: parsing stops at
the first offending key, and within a block the JSON checks come before
the type's constraints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from .constitutive import (
    BETA, ConstitutiveError, ConstitutiveModel, KirchhoffTable, build_table,
)
from .grid import Column, Field, GridError
from .stepper import StepConfig, StepConfigError

__all__ = ["ConfigError", "RunConfig", "gaussian_lens", "parse_config", "load_config"]


class ConfigError(ValueError):
    """First configuration problem found, tagged with its key path."""


# The solver blocks, in parsing order, and the types that own them.
_SOLVERS = (
    ("constitutive", ConstitutiveModel), ("grid", Column), ("stepping", StepConfig),
)

# Defaults reproduce the reference problem end to end, so an empty
# document is that run.  A solver block's defaults are its type's, in
# field order; ``beta`` is the model's growth constant (``BETA``), not a
# key.  The ic default is the standard wetting lens.
_DEFAULTS: Dict[str, Dict[str, Any]] = {
    **{
        name: {f.name: f.default for f in fields(cls) if f.init and f.name != "beta"}
        for name, cls in _SOLVERS
    },
    "ic": {"profile": "gaussian_lens", "center": 0.5, "width": 0.15, "depth": 0.2},
}

_IC_KEYS = {
    "zero": set(),
    "gaussian_lens": {"center", "width", "depth"},
    "custom": {"z", "u"},
}


def gaussian_lens(
    z: np.ndarray, center: float, width: float, depth: float
) -> np.ndarray:
    """Wetting lens ``-depth * exp(-((z - center) / width)**2)``.

    A narrow enough lens overflows the square to inf, which the exponential
    takes to the lens's limit, zero, so the overflow is not reported.
    """
    with np.errstate(over="ignore"):
        return -depth * np.exp(-(((z - center) / width) ** 2))


def _fail(path: str, constraint: str, value: Any) -> None:
    raise ConfigError(f"{path}: {constraint} (got {value!r})")


def _finite(value: Any) -> bool:
    """Whether a JSON number is a finite float; an integer too large for a
    float is not (``math.isfinite`` raises on it, ``np.isfinite`` too)."""
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _number(block: Dict[str, Any], path: str, key: str) -> float:
    value = block[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{path}.{key}", "must be a number", value)
    if not _finite(value):
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
    for key, value in block.items():
        if value is ...:
            _fail(f"{name}.{key}", "duplicate key", key)
    merged = dict(_DEFAULTS[name])
    known = set(merged)
    if name == "ic":
        profile = block.get("profile", merged["profile"])
        if not (isinstance(profile, str) and profile in _IC_KEYS):
            _fail("ic.profile", f"must be one of {', '.join(_IC_KEYS)}", profile)
        known = {"profile"} | _IC_KEYS[profile]
        if profile != merged["profile"]:
            merged = {"profile": profile}
    for key in block:
        if key not in known:
            _fail(f"{name}.{key}", "unknown key", key)
    merged.update(block)
    return merged


@dataclass(frozen=True)
class RunConfig:
    """Validated, fully defaulted configuration.

    Blocks are plain normalized dicts; the build methods construct the
    actual solver objects.  ``config_hash`` gives a stable identity for
    output metadata.
    """

    constitutive: Dict[str, Any]
    grid: Dict[str, Any]
    stepping: Dict[str, Any]
    ic: Dict[str, Any]

    def transform_table(self) -> KirchhoffTable:
        return build_table(ConstitutiveModel(**self.constitutive))

    def build_column(self) -> Column:
        return Column(**self.grid)

    def build_stepping(self, beta: float = BETA) -> StepConfig:
        return StepConfig(beta=beta, **self.stepping)

    def initial_state(self, column: Column) -> Field:
        z = column.nodes()
        profile = self.ic["profile"]
        if profile == "zero":
            return Field.zeros(column)
        if profile == "gaussian_lens":
            ic = self.ic
            return Field(gaussian_lens(z, ic["center"], ic["width"], ic["depth"]), column)
        # custom: tabulated profile, linearly interpolated onto the nodes
        # (clamped to the end values outside the tabulated range)
        return Field(np.interp(z, self.ic["z"], self.ic["u"]), column)

    def config_hash(self) -> str:
        """SHA-256 of the four blocks as compact, key-sorted JSON.  ``hashlib``
        is imported here, not with the module: it maps libcrypto (about 3.5 MB
        resident) into every process that loads the configuration, and solver
        runs that never hash do not need it."""
        import hashlib

        canonical = json.dumps(vars(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()


def _reject_nonfinite(token: str) -> float:
    raise ConfigError(f"non-finite literal {token!r} not allowed")


def _object(pairs: List[Tuple[str, Any]]) -> Dict[str, Any]:
    """A decoded JSON object whose repeated keys map to ``...``, a value no
    JSON decodes to, so that parsing refuses them under their key path."""
    obj: Dict[str, Any] = {}
    for key, value in pairs:
        obj[key] = ... if key in obj else value
    return obj


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document, or first-error report.

    Every reported problem carries the key path, the violated
    constraint, and the offending value.
    """
    try:
        doc = json.loads(text, parse_constant=_reject_nonfinite,
                         object_pairs_hook=_object)
    except ConfigError:
        raise
    # malformed, an integer literal past int's digit limit, or nested past the
    # recursion limit (about 995 levels)
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"parse error: {exc}") from exc
    if not isinstance(doc, dict):
        _fail("<root>", "must be an object", type(doc).__name__)
    for key, value in doc.items():
        if value is ...:
            _fail(key, "duplicate key", key)
        if key not in _DEFAULTS:
            _fail(key, "unknown block", key)

    solvers = {}
    for name, cls in _SOLVERS:
        block = solvers[name] = _merge_block(doc, name)
        for key, default in _DEFAULTS[name].items():
            (_integer if isinstance(default, int) else _number)(block, name, key)
        _build(name, cls, **block)

    ic = _merge_block(doc, "ic")
    profile = ic["profile"]
    if profile == "gaussian_lens":
        if not 0.0 < _number(ic, "ic", "center") < solvers["grid"]["length"]:
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
                isinstance(v, (int, float)) and not isinstance(v, bool) and _finite(v)
                for v in arr
            ):
                _fail(f"ic.{key}", "entries must be finite numbers", arr)
        if len(ic["z"]) != len(ic["u"]):
            _fail("ic.u", "must match the length of ic.z", ic["u"])
        if not np.all(np.diff(np.asarray(ic["z"], dtype=float)) > 0.0):
            _fail("ic.z", "must be strictly increasing", ic["z"])
        ic["z"] = [float(v) for v in ic["z"]]
        ic["u"] = [float(v) for v in ic["u"]]

    return RunConfig(**solvers, ic=ic)


def load_config(path: Optional[str]) -> RunConfig:
    """RunConfig from a file path; ``None`` means the default document."""
    if path is None:
        return parse_config("{}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)
