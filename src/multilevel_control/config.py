"""Experiment configuration: JSON schema, parsing and validation.

Every validation failure raises :class:`ConfigError` whose message starts
with the dotted path of the offending field.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from .dual import FunctionalKind, OptimizerSettings, QuadratureGrid
from .lti import LtiSystem
from .pwl import ConvexProfile, Partition, PwlConvex, build_penalization, quadratic_profile

__all__ = ["ConfigError", "ChecksConfig", "ExperimentConfig", "load_config", "read_raw_config"]


class ConfigError(ValueError):
    """Configuration field error; the message names the field."""


# the JSON types a field may take, as Python types, and their names
EXPECTED = {(bool,): "true or false", (int,): "an integer", (int, float): "a number", (str,): "a string"}


@dataclass(frozen=True)
class ChecksConfig:
    terminal_tol: float = 1e-2
    staircase: bool = True
    fenchel: bool = False
    fenchel_gap_rtol: float = 1e-3
    solvable: bool = False
    expect_divergence: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    system: LtiSystem
    partitions: tuple
    allow_offgrid_minimum: bool
    kind: FunctionalKind
    beta: float
    grid_nodes: int
    optimizer: OptimizerSettings
    checks: ChecksConfig
    output_dir: str
    seed: int = 0
    raw: dict = field(default_factory=dict, repr=False)

    def penalizations(self) -> list[PwlConvex]:
        """The chords of the quadratic profile on each channel's partition."""
        prof = quadratic_profile()
        if self.allow_offgrid_minimum:
            prof = ConvexProfile(prof.fun, prof.second_derivative, minimizer=None)
        return [build_penalization(prof, Partition(np.asarray(pts, dtype=float))) for pts in self.partitions]

    def quadrature(self) -> QuadratureGrid:
        return QuadratureGrid.trapezoid(self.system.T, self.grid_nodes)


def _require(raw, key: str, path: str):
    if not isinstance(raw, dict):
        raise ConfigError(f"{path.rstrip('.') or 'config'}: must be an object")
    if key not in raw:
        raise ConfigError(f"{path}{key}: missing required field")
    return raw[key]


def _section(raw: dict, key: Optional[str], known) -> dict:
    """The object ``raw[key]`` (empty if absent, ``raw`` for no key), whose
    fields must be ``known``."""
    value = raw if key is None else raw.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key}: must be an object")
    for name in value:
        if name not in known:
            raise ConfigError(f"{'' if key is None else key + '.'}{name}: unknown field")
    return value


def _typed(value, path: str, types: tuple):
    """``value`` if it is an instance of ``types``, in which a bool is no number."""
    if isinstance(value, bool) != (bool in types) or not isinstance(value, types):
        raise ConfigError(f"{path}: expected {EXPECTED[types]}, got {value!r}")
    return value


def _flag(raw: dict, key: str, default: bool, path: str) -> bool:
    return _typed(raw.get(key, default), path + key, (bool,))


def _number(value, path: str) -> float:
    try:
        return float(_typed(value, path, (int, float)))
    except OverflowError:
        raise ConfigError(f"{path}: must be finite, got {value!r}") from None


def _positive(value, path: str) -> float:
    x = _number(value, path)
    if not (np.isfinite(x) and x > 0):
        raise ConfigError(f"{path}: must be finite and > 0, got {x!r}")
    return x


def _numeric_array(value, path: str, *ndims: int) -> np.ndarray:
    entries = np.asarray(value, dtype=object)  # the lists of a ragged array stay entries
    arr = np.array([_number(x, path) for x in entries.ravel()]).reshape(entries.shape)
    if arr.ndim not in ndims:
        expected = " or ".join(f"{d}-d" for d in ndims)
        raise ConfigError(f"{path}: expected a {expected} numeric array, got ndim={arr.ndim}")
    if not np.all(np.isfinite(arr)):
        raise ConfigError(f"{path}: contains non-finite entries")
    return arr


def parse_config(raw: dict, name_hint: str = "scenario") -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be an object")
    _section(raw, None, ("name", "system", "kind", "beta", "penalization", "grid", "optimizer", "checks",
                         "output_dir", "seed"))
    name = _typed(raw.get("name", name_hint), "name", (str,))

    sys_raw = _section(raw, "system", ("A", "B", "x0", "T"))
    A = _numeric_array(_require(sys_raw, "A", "system."), "system.A", 2)
    B = _numeric_array(_require(sys_raw, "B", "system."), "system.B", 1, 2)
    x0 = _numeric_array(_require(sys_raw, "x0", "system."), "system.x0", 1)
    T = _number(_require(sys_raw, "T", "system."), "system.T")
    try:
        system = LtiSystem(A=A, B=B, x0=x0, T=T)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"system: {exc}") from None

    kind_raw = raw.get("kind", "plain")
    try:
        kind = FunctionalKind(kind_raw)
    except ValueError:
        choices = ", ".join(k.value for k in FunctionalKind)
        raise ConfigError(f"kind: unknown kind {kind_raw!r} (choices: {choices})") from None
    beta = _number(raw.get("beta", 1.0), "beta")
    if kind == FunctionalKind.SCALED and not beta > 1.0:
        raise ConfigError(f"beta: the scaled kind needs beta > 1, got {beta}")

    pen_raw = _section(raw, "penalization", ("profile", "partitions", "allow_offgrid_minimum"))
    profile = pen_raw.get("profile", "quadratic")
    if profile != "quadratic":
        raise ConfigError(f"penalization.profile: unknown profile {profile!r}")
    if kind.penalized:
        partitions = _require(pen_raw, "partitions", "penalization.")
        if not isinstance(partitions, list) or not partitions:
            raise ConfigError("penalization.partitions: need a list of per-channel point lists")
        if len(partitions) != system.channels:
            raise ConfigError(
                f"penalization.partitions: got {len(partitions)} partitions for "
                f"{system.channels} control channels"
            )
        parsed = []
        for ch, pts in enumerate(partitions):
            arr = _numeric_array(pts, f"penalization.partitions[{ch}]", 1)
            if arr.size < 3 or np.any(np.diff(arr) <= 0):
                raise ConfigError(
                    f"penalization.partitions[{ch}]: need >= 3 strictly increasing points"
                )
            parsed.append(tuple(arr.tolist()))
        partitions = tuple(parsed)
    else:
        partitions = tuple()

    grid_raw = _section(raw, "grid", ("nodes", "bracket_multiplier"))
    grid_nodes = _typed(grid_raw.get("nodes", 4000), "grid.nodes", (int,))
    if grid_nodes < 2:
        raise ConfigError(f"grid.nodes: need at least 2, got {grid_nodes}")
    multiplier = _typed(grid_raw.get("bracket_multiplier", 8), "grid.bracket_multiplier", (int,))
    if multiplier < 1:
        raise ConfigError("grid.bracket_multiplier: must be >= 1")

    opt_raw = _section(raw, "optimizer", ("max_iterations",))
    max_iterations = _typed(opt_raw.get("max_iterations", 50_000), "optimizer.max_iterations", (int,))
    try:
        optimizer = OptimizerSettings(max_iterations, multiplier)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"optimizer: {exc}") from None

    chk_raw = _section(raw, "checks", [f.name for f in fields(ChecksConfig)])
    checks = ChecksConfig(
        terminal_tol=_positive(chk_raw.get("terminal_tol", 1e-2), "checks.terminal_tol"),
        staircase=_flag(chk_raw, "staircase", True, "checks."),
        fenchel=_flag(chk_raw, "fenchel", False, "checks."),
        fenchel_gap_rtol=_positive(chk_raw.get("fenchel_gap_rtol", 1e-3), "checks.fenchel_gap_rtol"),
        solvable=_flag(chk_raw, "solvable", False, "checks."),
        expect_divergence=_flag(chk_raw, "expect_divergence", False, "checks."),
    )

    seed = _typed(raw.get("seed", 0), "seed", (int,))
    if seed < 0:
        raise ConfigError(f"seed: must be >= 0, got {seed}")
    cfg = ExperimentConfig(
        name=name,
        system=system,
        partitions=partitions,
        allow_offgrid_minimum=_flag(pen_raw, "allow_offgrid_minimum", False, "penalization."),
        kind=kind,
        beta=beta,
        grid_nodes=grid_nodes,
        optimizer=optimizer,
        checks=checks,
        output_dir=_typed(raw.get("output_dir", name), "output_dir", (str,)),
        seed=seed,
        raw=raw,
    )
    if kind.penalized:
        try:
            cfg.penalizations()
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"penalization: {exc}") from None
    return cfg


def read_raw_config(path):
    """The JSON object of a config file, before validation."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path} ({exc})") from None
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: invalid JSON in {path} ({exc})") from None


def load_config(path) -> ExperimentConfig:
    return parse_config(read_raw_config(path), name_hint=Path(path).stem)
