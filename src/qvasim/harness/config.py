"""Experiment configuration: YAML parsing, validation, hashing, seeding.

A config file describes one experiment. Keys (YAML):

    kind: depth_sweep | mixer_comparison | degree_sweep | scaling_study | hybrid_study
    algorithms: [qmoa_complete, qaoa_hypercube, ...]
    functions: [styblinski_tang, ...]
    dims: 3
    n_points: 32
    depth_range: [1, 8]          # inclusive, contiguous (warm-start chaining);
                                 # scaling_study: at least three depths (the fit)
    repeats: 10
    base_seed: 42
    output_dir: runs/my-experiment
    shared_walk_time: false      # walk-graph algorithms: one t per layer
    optimiser: {max_iterations: 1000000, simplex_tolerance: 1.0e-4,
                value_tolerance: 1.0e-4, adaptive: true}
    bandwidths: [1, 2, 4, 8, 16] # degree_sweep
    dims_list: [2, 3, 4]         # scaling_study
    grid_sizes: [16, 32]         # scaling_study
    epsilon: 1.0e-4              # hybrid_study
    sample_size: 30              # hybrid_study

Seeds: every repeat's generator seed is ``seed_for(base_seed, depth, repeat)``,
the first 8 bytes of blake2b over the decimal triple, independent of repeat
counts at other depths.

CLI flags may override single keys; the config hash covers every semantically
relevant field (everything except ``output_dir``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

KINDS = ("depth_sweep", "mixer_comparison", "degree_sweep", "scaling_study", "hybrid_study")

ALGORITHM_LABELS = (
    "qmoa_complete",
    "qmoa_cycle",
    "qaoa_complete",
    "qaoa_hypercube",
    "qowe_gaussian",
    "qowe_equal",
)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass
class OptimiserConfig:
    max_iterations: int = 1_000_000
    simplex_tolerance: float = 1e-4
    value_tolerance: float = 1e-4
    adaptive: bool = True


@dataclass
class ExperimentConfig:
    kind: str
    algorithms: list[str]
    functions: list[str]
    dims: int
    n_points: int
    depth_range: tuple[int, int]
    repeats: int
    base_seed: int
    output_dir: str
    shared_walk_time: bool = False
    optimiser: OptimiserConfig = field(default_factory=OptimiserConfig)
    bandwidths: list[int] = field(default_factory=list)
    dims_list: list[int] = field(default_factory=list)
    grid_sizes: list[int] = field(default_factory=list)
    epsilon: float = 1e-4
    sample_size: int = 30
    qubit_cap: int = 26

    def depths(self) -> list[int]:
        lo, hi = self.depth_range
        return list(range(lo, hi + 1))

    def validate(self) -> "ExperimentConfig":
        from ..functions import FUNCTIONS

        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; one of {KINDS}")
        if not self.functions:
            raise ConfigError("at least one function is required")
        for name in self.functions:
            if name not in FUNCTIONS:
                raise ConfigError(f"unknown function {name!r}")
        lo, hi = self.depth_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"depth_range must be non-empty ascending, got {self.depth_range}")
        if self.repeats < 1:
            raise ConfigError("repeats must be >= 1")
        if self.kind == "degree_sweep":
            if not self.bandwidths:
                raise ConfigError("degree_sweep needs a bandwidths list")
        elif self.kind == "scaling_study":
            if not self.dims_list or not self.grid_sizes:
                raise ConfigError("scaling_study needs dims_list and grid_sizes")
            if hi - lo < 2:
                raise ConfigError(
                    f"scaling_study fits need at least three depths, got {self.depth_range}"
                )
        elif self.kind != "hybrid_study" and not self.algorithms:
            raise ConfigError("at least one algorithm is required")
        for label in self.algorithms:
            if label not in ALGORITHM_LABELS and not label.startswith("qmoa_banded_"):
                raise ConfigError(
                    f"unknown algorithm {label!r}; one of {ALGORITHM_LABELS} "
                    "or qmoa_banded_<s>"
                )
        return self


def _coerce(raw: dict) -> ExperimentConfig:
    data = dict(raw)
    if "algorithm" in data and "algorithms" not in data:
        data["algorithms"] = [data.pop("algorithm")]
    if "function" in data and "functions" not in data:
        data["functions"] = [data.pop("function")]
    if "depth" in data and "depth_range" not in data:
        p = int(data.pop("depth"))
        data["depth_range"] = (p, p)
    opt = data.pop("optimiser", {})
    known = {f for f in ExperimentConfig.__dataclass_fields__}
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        cfg = ExperimentConfig(
            **{
                **data,
                "depth_range": tuple(data.get("depth_range", (1, 1))),
                "algorithms": list(data.get("algorithms", [])),
                "optimiser": OptimiserConfig(**opt),
            }
        )
    except TypeError as exc:
        raise ConfigError(f"bad config: {exc}") from exc
    return cfg.validate()


def load_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    """Read a YAML config, applying ``key=value`` overrides from the CLI."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a mapping")
    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        key, value = item.split("=", 1)
        raw[key.strip()] = yaml.safe_load(value)
    return _coerce(raw)


def config_hash(config: ExperimentConfig) -> str:
    """Stable hash of every semantically relevant field (output_dir excluded)."""
    payload = asdict(config)
    payload.pop("output_dir")
    canonical = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def seed_for(base_seed: int, depth: int, repeat: int) -> int:
    """64-bit repeat seed from (base_seed, depth, repeat)."""
    digest = hashlib.blake2b(
        f"{base_seed},{depth},{repeat}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")
