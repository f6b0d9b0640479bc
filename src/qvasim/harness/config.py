"""Experiment configuration: YAML parsing, validation, hashing, seeding.

A config file describes one experiment. Keys (YAML):

    kind: depth_sweep | mixer_comparison | degree_sweep | scaling_study | hybrid_study
    algorithms: [qmoa_complete, qaoa_hypercube, ...]  # not degree_sweep, hybrid_study
    functions: [styblinski_tang, ...]
    dims: 3
    n_points: 32
    depth_range: [1, 8]          # two integers >= 1, inclusive, contiguous
                                 # (warm-start chaining);
                                 # scaling_study: at least three depths (the fit);
                                 # hybrid_study: one depth
    repeats: 10
    base_seed: 42
    output_dir: runs/my-experiment
    shared_walk_time: false      # walk-graph algorithms: one t per layer; a bool
    optimiser: {max_iterations: 1000000, simplex_tolerance: 1.0e-4,
                value_tolerance: 1.0e-4, adaptive: true}  # adaptive: a bool
    bandwidths: [1, 2, 4, 8, 16] # degree_sweep only
    dims_list: [2, 3, 4]         # scaling_study; hybrid_study (default [dims]);
                                 # integers >= 1
    grid_sizes: [16, 32]         # scaling_study only; integers >= 1
    epsilon: 1.0e-4              # hybrid_study; > 0
    sample_size: 30              # hybrid_study; >= 1

A list key that the kind does not read must be empty or absent. The aliases
``algorithm: x``, ``function: f`` and ``depth: p`` stand for ``algorithms:
[x]``, ``functions: [f]`` and ``depth_range: [p, p]``, with ``p`` taken as
written (``depth: 2.7`` is an error, not depth 2); a file may give only one
form of each, and a ``key=value`` override of either form replaces both.

Seeds: every repeat's generator seed is ``seed_for(base_seed, depth, repeat)``,
the first 8 bytes of blake2b over the decimal triple, independent of repeat
counts at other depths.

CLI flags may override single keys; the config hash covers every semantically
relevant field (everything except ``output_dir``) and
``qvasim.mixers.KERNEL_VERSION``, so records from other kernels are not resumed.

Cells: ``ExperimentConfig.cells()`` is the one list of (label, function, D, N)
cells a config runs, in run order. ``validate()`` rejects a config with a
field of the wrong type or sign (tolerances and ``epsilon`` must be numbers
> 0; counts, sizes, ``qubit_cap`` and every ``dims_list`` and ``grid_sizes``
entry integers >= 1; ``depth_range`` exactly two integers >= 1; ``base_seed``
an integer; a ``bool`` is none of these; ``shared_walk_time`` and
``optimiser.adaptive`` must be ``bool``), no cells, a hybrid study over more
than one depth, a list key the kind does not read, and any cell the runner
could not set up (function undefined at D, grid off the power-of-two or
qubit-cap rules, unknown or out-of-range algorithm label), so a config error
surfaces before any record is written.
"""

from __future__ import annotations

import hashlib
import json
import numbers
from dataclasses import asdict, dataclass, field
from pathlib import Path

import yaml

from ..ansatz import Algorithm, AnsatzSpec
from ..functions import FUNCTIONS, get_function
from ..engine import OptimiserOptions
from ..grid import DEFAULT_QUBIT_CAP, GridError, SolutionGrid, make_grid
from .. import mixers
from ..mixers import CirculantGraph

KINDS = ("depth_sweep", "mixer_comparison", "degree_sweep", "scaling_study", "hybrid_study")

# The kinds that read each optional list key; under any other kind it must be empty.
LIST_KEY_KINDS = {
    "algorithms": ("depth_sweep", "mixer_comparison", "scaling_study"),
    "bandwidths": ("degree_sweep",),
    "dims_list": ("scaling_study", "hybrid_study"),
    "grid_sizes": ("scaling_study",),
}

# Single-value aliases and the list keys they stand for.
ALIASES = {"algorithm": "algorithms", "function": "functions", "depth": "depth_range"}

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
    max_iterations: int = OptimiserOptions.max_iterations
    simplex_tolerance: float = OptimiserOptions.simplex_tolerance
    value_tolerance: float = OptimiserOptions.value_tolerance
    adaptive: bool = OptimiserOptions.adaptive


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
    qubit_cap: int = DEFAULT_QUBIT_CAP

    def depths(self) -> list[int]:
        lo, hi = self.depth_range
        return list(range(lo, hi + 1))

    def cells(self) -> list[tuple[str | None, str, int, int]]:
        """Every (label, function, D, N) cell this config runs, in run order.

        Hybrid-study cells have no algorithm label.
        """
        if self.kind == "hybrid_study":
            dims_list = self.dims_list or [self.dims]
            return [(None, f, d, self.n_points) for f in self.functions for d in dims_list]
        if self.kind == "degree_sweep":
            labels = [f"qmoa_banded_{s}" for s in self.bandwidths]
        else:
            labels = self.algorithms
        if self.kind == "scaling_study":
            sizes = [(d, n) for d in self.dims_list for n in self.grid_sizes]
        else:
            sizes = [(self.dims, self.n_points)]
        return [(label, f, d, n) for d, n in sizes for label in labels for f in self.functions]

    def cell_grid(self, function_name: str, dims: int, n_points: int) -> SolutionGrid:
        """The grid of one cell: the function's domain at D, N points, this qubit cap."""
        lower, upper = get_function(function_name).domain(dims)
        return make_grid(lower, upper, n_points, qubit_cap=self.qubit_cap)

    def validate(self) -> "ExperimentConfig":
        """Check the config and set up every cell as the runner will; returns self."""
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; one of {KINDS}")
        self._check_numbers()
        for name in self.functions:
            if name not in FUNCTIONS:
                raise ConfigError(f"unknown function {name!r}")
        lo, hi = self.depth_range
        if lo < 1 or hi < lo:
            raise ConfigError(f"depth_range must be non-empty ascending, got {self.depth_range}")
        unread = [
            key for key, kinds in LIST_KEY_KINDS.items()
            if getattr(self, key) and self.kind not in kinds
        ]
        if unread:
            raise ConfigError(f"{self.kind} does not read {unread}; leave them empty")
        if self.kind == "scaling_study" and hi - lo < 2:
            raise ConfigError(
                f"scaling_study fits need at least three depths, got {self.depth_range}"
            )
        if self.kind == "hybrid_study" and hi != lo:
            raise ConfigError(
                f"hybrid_study runs one depth, got depth_range {self.depth_range}"
            )
        for label in self.algorithms:
            if label not in ALGORITHM_LABELS:
                _bandwidth(label)
        cells = self.cells()
        if not cells:
            read = [k for k, kinds in LIST_KEY_KINDS.items() if self.kind in kinds]
            raise ConfigError(
                f"{self.kind} config has no cells: functions or one of {read} is empty"
            )
        for label, name, dims, n_points in cells:
            if not FUNCTIONS[name].supports(dims):
                raise ConfigError(f"{name} is not defined for D={dims}")
            try:
                self.cell_grid(name, dims, n_points)
            except GridError as exc:
                raise ConfigError(f"{name} at D={dims}: {exc}") from exc
            if label is not None:
                build_ansatz_spec(label, dims, n_points, self.shared_walk_time)
        return self

    def _check_numbers(self) -> None:
        """Reject fields of the wrong type or sign.

        A ``bool`` is no number, and the two flags must be ``bool``. YAML
        reads ``1e-4`` as a string (``1.0e-4`` is a float), which would
        otherwise pass until the optimiser first compares it.
        """
        opt = self.optimiser
        for name, value in (
            ("epsilon", self.epsilon),
            ("optimiser.simplex_tolerance", opt.simplex_tolerance),
            ("optimiser.value_tolerance", opt.value_tolerance),
        ):
            if not _is_number(value, numbers.Real) or not value > 0:
                raise ConfigError(f"{name} must be a number > 0, got {value!r}")
        for name, value in (
            ("optimiser.max_iterations", opt.max_iterations),
            ("dims", self.dims),
            ("n_points", self.n_points),
            ("repeats", self.repeats),
            ("sample_size", self.sample_size),
            ("qubit_cap", self.qubit_cap),
        ):
            if not _is_number(value, numbers.Integral) or value < 1:
                raise ConfigError(f"{name} must be an integer >= 1, got {value!r}")
        if not _is_number(self.base_seed, numbers.Integral):
            raise ConfigError(f"base_seed must be an integer, got {self.base_seed!r}")
        if len(self.depth_range) != 2 or not all(
            _is_number(v, numbers.Integral) and v >= 1 for v in self.depth_range
        ):
            raise ConfigError(
                f"depth_range must be two integers >= 1, got {list(self.depth_range)!r}"
            )
        for name in ("dims_list", "grid_sizes"):
            for value in getattr(self, name):
                if not _is_number(value, numbers.Integral) or value < 1:
                    raise ConfigError(f"{name} entries must be integers >= 1, got {value!r}")
        for name, value in (
            ("shared_walk_time", self.shared_walk_time),
            ("optimiser.adaptive", opt.adaptive),
        ):
            if not isinstance(value, bool):
                raise ConfigError(f"{name} must be true or false, got {value!r}")


def _is_number(value, kind: type) -> bool:
    return isinstance(value, kind) and not isinstance(value, bool)


def _bandwidth(label: str) -> int:
    """The half-width s of a ``qmoa_banded_<s>`` label."""
    prefix, _, width = label.rpartition("_")
    if prefix != "qmoa_banded":
        raise ConfigError(
            f"unknown algorithm {label!r}; one of {ALGORITHM_LABELS} or qmoa_banded_<s>"
        )
    try:
        return int(width)
    except ValueError:
        raise ConfigError(f"bandwidth of {label!r} is not an integer") from None


def build_ansatz_spec(
    label: str, dims: int, n_points: int, shared_walk_time: bool = False
) -> AnsatzSpec:
    """Resolve a config algorithm label into an AnsatzSpec (depth 1)."""
    if label == "qaoa_complete":
        return AnsatzSpec(Algorithm.QAOA_COMPLETE, 1)
    if label == "qaoa_hypercube":
        return AnsatzSpec(Algorithm.QAOA_HYPERCUBE, 1)
    if label == "qowe_gaussian":
        return AnsatzSpec(Algorithm.QOWE, 1, initial_state="gaussian")
    if label == "qowe_equal":
        return AnsatzSpec(Algorithm.QOWE, 1, initial_state="equal")
    if label == "qmoa_complete":
        graph = CirculantGraph.complete(n_points)
    elif label == "qmoa_cycle":
        graph = CirculantGraph.cycle(n_points)
    else:
        bandwidth = _bandwidth(label)
        if bandwidth < 1 or bandwidth > n_points // 2:
            raise ConfigError(
                f"bandwidth {bandwidth} out of range [1, {n_points // 2}] for N={n_points}"
            )
        graph = CirculantGraph.banded(n_points, bandwidth)
    return AnsatzSpec(
        Algorithm.QMOA, 1, graphs=(graph,) * dims, shared_walk_time=shared_walk_time
    )


def _coerce(raw: dict) -> ExperimentConfig:
    data = dict(raw)
    for alias, key in ALIASES.items():
        if alias not in data:
            continue
        if key in data:
            raise ConfigError(f"config gives both {alias!r} and {key!r}; keep one")
        value = data.pop(alias)
        data[key] = (value, value) if alias == "depth" else [value]
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
        key = key.strip()
        for alias, full in ALIASES.items():
            if key in (alias, full):
                raw.pop(alias, None)
                raw.pop(full, None)
        raw[key] = yaml.safe_load(value)
    return _coerce(raw)


def config_hash(config: ExperimentConfig) -> str:
    """Stable hash of every semantically relevant field, output_dir excluded, and the kernels."""
    payload = asdict(config)
    payload.pop("output_dir")
    payload["kernel_version"] = mixers.KERNEL_VERSION
    canonical = json.dumps(payload, sort_keys=True, default=list)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def seed_for(base_seed: int, depth: int, repeat: int) -> int:
    """64-bit repeat seed from (base_seed, depth, repeat)."""
    digest = hashlib.blake2b(
        f"{base_seed},{depth},{repeat}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little")
