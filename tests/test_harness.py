import csv
import json
import logging
import os
import re
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

import qvasim.engine as engine
import qvasim.harness.runner
import qvasim.hybrid
import qvasim.mixers
from qvasim.harness import (
    ConfigError,
    ExperimentConfig,
    config_hash,
    load_config,
    run_experiment,
    seed_for,
    summarise,
)
from qvasim.harness.cli import main
from qvasim.harness.config import ALGORITHM_LABELS, OptimiserConfig
from qvasim.harness.runner import (
    LOCK_NAME,
    ExperimentRecord,
    HybridRecord,
    build_ansatz_spec,
    load_records,
    write_csv,
)
from qvasim.harness.summary import PLOT_KINDS, emit_plot_data, write_summary_csv


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def tiny_config(tmp_path, **overrides) -> ExperimentConfig:
    base = dict(
        kind="mixer_comparison",
        algorithms=["qmoa_complete", "qaoa_complete"],
        functions=["styblinski_tang"],
        dims=2,
        n_points=4,
        depth_range=(1, 2),
        repeats=2,
        base_seed=7,
        output_dir=str(tmp_path / "out"),
    )
    base.update(overrides)
    return ExperimentConfig(**base).validate()


def fake_record(**overrides) -> ExperimentRecord:
    base = dict(
        config_hash="abc",
        kind="depth_sweep",
        algorithm="qmoa_complete",
        function="rastrigin",
        dims=3,
        n_points=32,
        depth=1,
        repeat=0,
        seed=1,
        expectation=10.0,
        mean_error=0.5,
        statistical_distance=0.4,
        max_amplification=2.0,
        max_amplified_index=3,
        max_amplified_rank=1,
        evaluations=100,
        wall_time=1.0,
        params=[0.1, 0.2],
    )
    base.update(overrides)
    return ExperimentRecord(**base)


class TestConfig:
    def test_yaml_roundtrip(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "kind: depth_sweep\n"
            "algorithm: qmoa_complete\n"
            "function: rastrigin\n"
            "dims: 3\n"
            "n_points: 32\n"
            "depth_range: [1, 8]\n"
            "repeats: 10\n"
            "base_seed: 42\n"
            "output_dir: out\n"
        )
        config = load_config(path)
        assert config.algorithms == ["qmoa_complete"]
        assert config.depths() == list(range(1, 9))

    def test_cli_overrides(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text(
            "kind: depth_sweep\nalgorithm: qmoa_complete\nfunction: rastrigin\n"
            "dims: 3\nn_points: 32\ndepth_range: [1, 2]\nrepeats: 10\n"
            "base_seed: 42\noutput_dir: out\n"
        )
        config = load_config(path, ["repeats=3", "n_points=16"])
        assert config.repeats == 3
        assert config.n_points == 16

    @pytest.mark.parametrize("name, override, field, expected", [
        ("stf_depth_sweep.yaml", "depth=3", "depth_range", (3, 3)),
        ("hybrid_study.yaml", "depth_range=[2, 2]", "depth_range", (2, 2)),
        ("stf_depth_sweep.yaml", "algorithm=qaoa_complete", "algorithms", ["qaoa_complete"]),
        ("stf_depth_sweep.yaml", "function=sphere", "functions", ["sphere"]),
    ])
    def test_override_replaces_alias_and_key(self, name, override, field, expected):
        assert getattr(load_config(CONFIGS / name, [override]), field) == expected

    @pytest.mark.parametrize("alias, key, value, listed", [
        ("algorithm", "algorithms", "qmoa_complete", ["qmoa_complete"]),
        ("function", "functions", "sphere", ["sphere"]),
        ("depth", "depth_range", 2, [2, 2]),
    ])
    def test_alias_and_key_in_one_file_rejected(self, tmp_path, alias, key, value, listed):
        raw = {
            "kind": "depth_sweep", "algorithms": ["qmoa_complete"], "functions": ["sphere"],
            "dims": 2, "n_points": 4, "depth_range": [1, 1], "repeats": 1,
            "base_seed": 0, "output_dir": "out", alias: value, key: listed,
        }
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(raw))
        with pytest.raises(ConfigError, match=f"'{alias}' and '{key}'"):
            load_config(path)

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("kind: depth_sweep\nbogus_key: 1\n")
        with pytest.raises(ConfigError, match="bogus_key"):
            load_config(path)

    def test_empty_depth_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="ascending"):
            tiny_config(tmp_path, depth_range=(3, 2))

    @pytest.mark.parametrize("depth_range", [(1, 1), (2, 3)])
    def test_scaling_study_needs_three_depths(self, tmp_path, depth_range):
        scaling = dict(kind="scaling_study", dims_list=[2], grid_sizes=[4])
        with pytest.raises(ConfigError, match="three depths"):
            tiny_config(tmp_path, depth_range=depth_range, **scaling)
        tiny_config(tmp_path, depth_range=(depth_range[0], depth_range[0] + 2), **scaling)

    def test_short_scaling_study_exits_before_running(self, tmp_path):
        cfg = tmp_path / "scaling.yaml"
        cfg.write_text(
            "kind: scaling_study\nalgorithm: qmoa_complete\nfunction: rastrigin\n"
            "dims: 2\nn_points: 4\ndims_list: [1, 2]\ngrid_sizes: [4, 8]\n"
            f"depth_range: [1, 2]\nrepeats: 1\nbase_seed: 3\noutput_dir: {tmp_path / 'out'}\n"
        )
        assert main(["run", str(cfg)]) == 2
        assert not (tmp_path / "out").exists()

    def test_unknown_function_and_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown function"):
            tiny_config(tmp_path, functions=["nope"])
        with pytest.raises(ConfigError, match="unknown kind"):
            tiny_config(tmp_path, kind="nope")
        with pytest.raises(ConfigError, match="unknown algorithm"):
            tiny_config(tmp_path, algorithms=["qantum"])

    @pytest.mark.parametrize("key, kind, lists, cell", [
        ("algorithms", "mixer_comparison", {}, ("qaoa_complete", "rastrigin", 2, 4)),
        ("functions", "mixer_comparison", {}, ("qaoa_complete", "rastrigin", 2, 4)),
        ("bandwidths", "degree_sweep", {"algorithms": [], "bandwidths": [1]},
         ("qmoa_banded_1", "rastrigin", 2, 4)),
        ("dims_list", "hybrid_study", {"algorithms": [], "dims_list": [2]},
         (None, "rastrigin", 2, 4)),
        ("grid_sizes", "scaling_study", {"dims_list": [2], "grid_sizes": [4]},
         ("qaoa_complete", "rastrigin", 2, 4)),
    ])
    def test_repeated_cell_rejected(self, tmp_path, key, kind, lists, cell):
        """A repeated list entry would run its cells twice and log two records under one key."""
        depths = (1, 3) if kind == "scaling_study" else (1, 1)
        fields = dict(kind=kind, depth_range=depths, algorithms=["qaoa_complete"],
                      functions=["rastrigin"])
        fields.update(lists)
        tiny_config(tmp_path, **fields)
        fields[key] = fields[key] * 2
        with pytest.raises(ConfigError, match=re.escape(f"= {cell} is listed twice")):
            tiny_config(tmp_path, **fields)

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            load_config("/nonexistent/config.yaml")

    def test_hash_tracks_semantics_only(self, tmp_path):
        a = tiny_config(tmp_path)
        b = tiny_config(tmp_path, output_dir=str(tmp_path / "elsewhere"))
        c = tiny_config(tmp_path, repeats=3)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)

    def test_hash_tracks_kernel_version(self, tmp_path, monkeypatch):
        config = tiny_config(tmp_path)
        before = config_hash(config)
        monkeypatch.setattr(qvasim.mixers, "KERNEL_VERSION", qvasim.mixers.KERNEL_VERSION + 1)
        assert config_hash(config) != before

    def test_seed_formula(self):
        assert seed_for(42, 1, 0) == seed_for(42, 1, 0)
        seeds = {seed_for(42, p, j) for p in range(1, 9) for j in range(10)}
        assert len(seeds) == 80
        assert seed_for(42, 1, 0) != seed_for(43, 1, 0)

    @pytest.mark.parametrize("kind, extra, expected", [
        (
            "mixer_comparison",
            {},
            [("a", "f", 2, 4), ("a", "g", 2, 4), ("b", "f", 2, 4), ("b", "g", 2, 4)],
        ),
        (
            "degree_sweep",
            {"bandwidths": [1, 2]},
            [
                ("qmoa_banded_1", "f", 2, 4), ("qmoa_banded_1", "g", 2, 4),
                ("qmoa_banded_2", "f", 2, 4), ("qmoa_banded_2", "g", 2, 4),
            ],
        ),
        (
            "scaling_study",
            {"dims_list": [1, 3], "grid_sizes": [8, 16]},
            [
                (label, f, d, n)
                for d in (1, 3) for n in (8, 16) for label in "ab" for f in "fg"
            ],
        ),
        (
            "hybrid_study",
            {"dims_list": [1, 3]},
            [(None, "f", 1, 4), (None, "f", 3, 4), (None, "g", 1, 4), (None, "g", 3, 4)],
        ),
        (
            "hybrid_study",
            {},
            [(None, "f", 2, 4), (None, "g", 2, 4)],
        ),
    ])
    def test_cells_in_run_order(self, kind, extra, expected):
        # built without validate(): the order does not depend on the names
        config = ExperimentConfig(
            kind=kind, algorithms=["a", "b"], functions=["f", "g"], dims=2, n_points=4,
            depth_range=(1, 1), repeats=1, base_seed=0, output_dir="out", **extra,
        )
        assert config.cells() == expected

    @pytest.mark.parametrize(
        "path", sorted(Path(__file__).parent.parent.glob("configs/*.yaml")), ids=lambda p: p.name
    )
    def test_shipped_configs_validate(self, path):
        assert load_config(path).cells()

    @pytest.mark.parametrize("name, expected", [
        ("degree_sweep", "cc10b81b51963884"),
        ("hybrid_study", "016024ae84959981"),
        ("rf_depth_sweep", "dc80359500b011d6"),
        ("scaling_study", "b43cd6f8516993d1"),
        ("stf_depth_sweep", "2a332bf8a2406fe8"),
    ])
    def test_shipped_config_hashes_are_pinned(self, name, expected):
        # a changed hash makes every resumed run start afresh; a kernel-version
        # bump must update these values on purpose
        assert config_hash(load_config(CONFIGS / f"{name}.yaml")) == expected

    def test_field_without_type_rule_fails_loudly(self, tmp_path):
        @dataclass
        class WithMapping(ExperimentConfig):
            extra: dict[str, int] = field(default_factory=dict)

        with pytest.raises(TypeError, match="no config rule for annotation"):
            WithMapping(**vars(tiny_config(tmp_path))).validate()

    def test_path_output_dir_validates_and_runs(self, tmp_path):
        config = tiny_config(tmp_path, output_dir=tmp_path / "out", depth_range=(1, 1))
        assert config_hash(config) == config_hash(replace(config, output_dir="elsewhere"))
        records = run_experiment(config, workers=1)
        assert len(records) == 2 * 2
        assert len(load_records(tmp_path / "out" / "records.jsonl")) == 4

    def test_build_ansatz_spec_labels(self):
        from qvasim.ansatz import Algorithm

        assert build_ansatz_spec("qmoa_complete", 2, 8).algorithm is Algorithm.QMOA
        assert build_ansatz_spec("qmoa_banded_2", 2, 8).graphs[0].connection_set == {1, 2}
        assert build_ansatz_spec("qaoa_hypercube", 2, 8).algorithm is Algorithm.QAOA_HYPERCUBE
        assert build_ansatz_spec("qowe_equal", 2, 8).initial_state == "equal"
        with pytest.raises(ConfigError, match="bandwidth"):
            build_ansatz_spec("qmoa_banded_9", 2, 8)

    def test_docstring_lists_every_key(self):
        from dataclasses import fields

        import qvasim.harness.config as config_module

        listing = config_module.__doc__.split("Keys (YAML):\n\n")[1].split("\n\n")[0]
        listed = set(re.findall(r"(\w+):", listing))
        for cls in (ExperimentConfig, OptimiserConfig):
            assert {f.name for f in fields(cls)} <= listed, cls.__name__


class TestRunner:
    def test_record_counts_and_ranges(self, tmp_path):
        config = tiny_config(tmp_path)
        records = run_experiment(config)
        assert len(records) == 2 * 2 * 2  # algorithms x depths x repeats
        for r in records:
            assert 0.0 <= r.mean_error <= 1.0
            assert 0.0 <= r.statistical_distance <= 1.0
            assert r.max_amplification >= 0.0
            assert r.seed == seed_for(7, r.depth, r.repeat)

    def test_rerun_is_idempotent(self, tmp_path):
        config = tiny_config(tmp_path)
        first = run_experiment(config)
        jsonl = (tmp_path / "out" / "records.jsonl").read_text()
        second = run_experiment(config)
        assert (tmp_path / "out" / "records.jsonl").read_text() == jsonl
        assert len(second) == len(first)

    def test_resume_after_interruption_matches_uninterrupted(self, tmp_path):
        config = tiny_config(tmp_path)
        reference = {r.key(): r for r in run_experiment(config)}

        interrupted_dir = tmp_path / "out2"
        config2 = replace(config, output_dir=str(interrupted_dir))
        run_experiment(config2)
        # simulate a crash at the first depth boundary: drop every record
        # beyond depth 1
        path = interrupted_dir / "records.jsonl"
        kept = [
            line
            for line in path.read_text().splitlines()
            if json.loads(line)["depth"] == 1
        ]
        path.write_text("\n".join(kept) + "\n")
        resumed = {r.key(): r for r in run_experiment(config2)}

        assert set(resumed) == set(reference)
        for key, record in reference.items():
            got = asdict(resumed[key])
            want = asdict(record)
            got.pop("wall_time")
            want.pop("wall_time")
            got.pop("config_hash")
            want.pop("config_hash")
            assert got == want, key

    @pytest.mark.parametrize("whole_record", [False, True])
    def test_resume_after_torn_final_line_matches_uninterrupted(
        self, tmp_path, caplog, whole_record
    ):
        config = tiny_config(tmp_path)
        reference = {r.key(): r for r in run_experiment(config)}

        config2 = replace(config, output_dir=str(tmp_path / "out2"))
        run_experiment(config2)
        path = tmp_path / "out2" / "records.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        # a run killed while writing the fourth record: cut it mid-line, or
        # just before its newline
        tail = lines[3][:-1] if whole_record else lines[3][: len(lines[3]) // 2]
        path.write_text("".join(lines[:3]) + tail)
        with caplog.at_level(logging.WARNING, logger="qvasim.harness.runner"):
            assert len(load_records(path)) == (4 if whole_record else 3)
            resumed = {r.key(): r for r in run_experiment(config2)}
        assert "torn final line" in caplog.text

        assert len(load_records(path)) == len(reference)
        assert set(resumed) == set(reference)
        for key, record in reference.items():
            got = asdict(resumed[key])
            want = asdict(record)
            for volatile in ("wall_time", "config_hash"):
                got.pop(volatile)
                want.pop(volatile)
            assert got == want, key

    def test_resume_mid_depth_with_workers_matches_serial(self, tmp_path):
        config = tiny_config(
            tmp_path, algorithms=["qmoa_complete", "qowe_gaussian"], repeats=3
        )
        reference = {r.key(): r for r in run_experiment(config, workers=1)}

        config2 = replace(config, output_dir=str(tmp_path / "out2"))
        run_experiment(config2, workers=1)
        # a run killed inside depth 2: only repeat 1 of that depth was stored
        path = tmp_path / "out2" / "records.jsonl"
        kept = [
            line
            for line in path.read_text().splitlines(keepends=True)
            if json.loads(line)["depth"] == 1 or json.loads(line)["repeat"] == 1
        ]
        path.write_text("".join(kept))
        resumed = {r.key(): r for r in run_experiment(config2, workers=2)}

        assert len(load_records(path)) == len(reference)
        assert set(resumed) == set(reference)
        for key, record in reference.items():
            got = asdict(resumed[key])
            want = asdict(record)
            for volatile in ("wall_time", "config_hash"):
                got.pop(volatile)
                want.pop(volatile)
            assert got == want, key

    def test_lockstep_records_equal_repeats_run_alone(self, tmp_path, monkeypatch):
        """Records of repeats run in lockstep equal those of each repeat run as a group of one.

        Two worker processes, and a run resumed from a log that lacks some
        repeats, give them too. Every wall_time is positive, and a depth's
        fresh wall_times sum to no more than the depth's elapsed time.
        """
        config = tiny_config(
            tmp_path,
            algorithms=list(ALGORITHM_LABELS),
            n_points=16,
            depth_range=(1, 3),
            repeats=3,
            optimiser=OptimiserConfig(max_iterations=25),
        )

        def without_wall_time(records):
            return {
                r.key(): {k: v for k, v in asdict(r).items() if k != "wall_time"}
                for r in records
            }

        depths = []
        real_optimise = engine.optimise_at_depth

        def timed(*args):
            started = time.perf_counter()
            result = real_optimise(*args)
            elapsed = time.perf_counter() - started
            done = args[9] or {}
            fresh = [r.wall_time for j, r in enumerate(result.repeats) if j not in done]
            depths.append((elapsed, fresh))
            return result

        monkeypatch.setattr(engine, "optimise_at_depth", timed)
        lockstep = run_experiment(config, workers=1)
        monkeypatch.undo()
        assert len(lockstep) == 6 * 3 * 3
        assert all(r.wall_time > 0 for r in lockstep)
        assert len(depths) == 6 * 3
        for elapsed, wall_times in depths:
            assert len(wall_times) == 3
            assert sum(wall_times) <= 1.05 * elapsed
        reference = without_wall_time(lockstep)

        real_group = engine._run_group
        monkeypatch.setattr(
            engine,
            "_run_group",
            lambda task: [
                r
                for seed, first in zip(task[4], task[6])
                for r in real_group(task[:4] + ([seed], task[5], [first]))
            ],
        )
        alone = run_experiment(replace(config, output_dir=str(tmp_path / "alone")), workers=1)
        monkeypatch.undo()
        assert without_wall_time(alone) == reference

        pooled = run_experiment(replace(config, output_dir=str(tmp_path / "pooled")), workers=2)
        assert all(r.wall_time > 0 for r in pooled)
        assert without_wall_time(pooled) == reference

        resumed_dir = tmp_path / "resumed"
        resumed_dir.mkdir()
        lines = (tmp_path / "out" / "records.jsonl").read_text().splitlines(keepends=True)
        dropped = {(2, 0), (3, 1), (3, 2)}  # (depth, repeat) in every cell
        kept = [
            line for line in lines
            if (json.loads(line)["depth"], json.loads(line)["repeat"]) not in dropped
        ]
        (resumed_dir / "records.jsonl").write_text("".join(kept))
        resumed = run_experiment(replace(config, output_dir=str(resumed_dir)), workers=1)
        assert without_wall_time(resumed) == reference

    def test_corrupt_line_mid_log_raises(self, tmp_path):
        config = tiny_config(tmp_path)
        run_experiment(config)
        path = tmp_path / "out" / "records.jsonl"
        lines = path.read_text().splitlines(keepends=True)
        lines[2] = lines[2][:20] + "\n"
        path.write_text("".join(lines))
        with pytest.raises(json.JSONDecodeError):
            load_records(path)
        with pytest.raises(json.JSONDecodeError):
            run_experiment(config)

    def test_stored_params_replay_to_recorded_expectation(self, tmp_path):
        import qvasim as q

        config = tiny_config(tmp_path, algorithms=["qmoa_complete", "qowe_gaussian"])
        records = run_experiment(config)
        fn = q.get_function("styblinski_tang")
        lower, upper = fn.domain(2)
        grid = q.make_grid(lower, upper, 4)
        table = q.build_objective(grid, fn.fn)
        for r in records:
            spec = build_ansatz_spec(r.algorithm, 2, 4).at_depth(r.depth)
            if r.wavepacket_centres is not None:
                spec = spec.with_initial_state(
                    q.WavepacketSpec(
                        np.array(r.wavepacket_centres), np.full(2, 1 / np.sqrt(2))
                    )
                )
            params = q.ParameterVector.unflatten(
                np.array(r.params), r.depth, spec.walk_times_per_layer(2)
            )
            replayed = q.objective_value(spec, params, table, grid)
            assert replayed == pytest.approx(r.expectation, abs=1e-9), r.key()

    def test_degree_sweep_labels(self, tmp_path):
        config = tiny_config(
            tmp_path,
            kind="degree_sweep",
            algorithms=[],
            bandwidths=[1, 2],
            depth_range=(1, 1),
        )
        records = run_experiment(config)
        assert {r.algorithm for r in records} == {"qmoa_banded_1", "qmoa_banded_2"}

    def test_scaling_study_emits_fits(self, tmp_path):
        config = tiny_config(
            tmp_path,
            kind="scaling_study",
            algorithms=["qmoa_complete"],
            functions=["rastrigin"],
            depth_range=(1, 3),
            dims_list=[2],
            grid_sizes=[4],
            repeats=2,
        )
        records = run_experiment(config)
        assert len(records) == 3 * 2
        fits = (tmp_path / "out" / "scaling_fits.csv").read_text().splitlines()
        assert fits[0].startswith("algorithm,function,dims,n_points,alpha")
        assert len(fits) == 2

    def test_scaling_plot_fit_matches_scaling_fits_csv(self, tmp_path):
        config = tiny_config(
            tmp_path,
            kind="scaling_study",
            algorithms=["qmoa_complete"],
            functions=["rastrigin"],
            depth_range=(1, 3),
            dims_list=[2],
            grid_sizes=[4, 8],
            repeats=2,
        )
        records = run_experiment(config)
        with (tmp_path / "out" / "scaling_fits.csv").open() as fh:
            fits = {
                (r["function"], r["algorithm"], f"D{r['dims']}", f"N{r['n_points']}"): r
                for r in csv.DictReader(fh)
            }
        paths = emit_plot_data(records, "scaling", tmp_path / "plots")
        assert len(paths) == len(fits) == 2
        for path in paths:
            fit = fits[tuple(path.stem.split("__")[1:])]
            alpha, c, dims = float(fit["alpha"]), float(fit["c"]), int(fit["dims"])
            with path.open() as fh:
                rows = list(csv.DictReader(fh))
            assert [int(r["x"]) for r in rows] == [1, 2, 3]
            for r in rows:
                expected = c * int(r["x"]) ** (alpha * dims)
                assert float(r["y_fit"]) == pytest.approx(expected, rel=1e-12, abs=0)

    def test_hybrid_study(self, tmp_path):
        config = tiny_config(
            tmp_path,
            kind="hybrid_study",
            algorithms=[],
            functions=["sphere"],
            dims=2,
            n_points=8,
            depth_range=(1, 1),
            repeats=2,
        )
        records = run_experiment(config)
        assert len(records) == 2
        for r in records:
            assert isinstance(r, HybridRecord)
            assert r.fev_assisted == 30 * 2 * r.fev_qmoa + r.fev_nelder_mead
            assert r.speedup == pytest.approx(r.baseline_fev / r.fev_assisted)
        # resumable: rerun adds nothing
        again = run_experiment(config)
        assert len(again) == 2


    def test_hybrid_study_workers_match_serial(self, tmp_path):
        config = tiny_config(
            tmp_path,
            kind="hybrid_study",
            algorithms=[],
            functions=["sphere"],
            dims=2,
            n_points=8,
            depth_range=(1, 1),
            repeats=3,
        )
        serial = run_experiment(config, workers=1)
        config2 = replace(config, output_dir=str(tmp_path / "out2"))
        parallel = run_experiment(config2, workers=2)
        assert len(serial) == len(parallel) == 3
        for a, b in zip(serial, parallel):
            got, want = asdict(b), asdict(a)
            got.pop("wall_time")
            want.pop("wall_time")
            assert got == want

    def test_hybrid_study_builds_each_cells_table_once(self, tmp_path, monkeypatch):
        config = tiny_config(
            tmp_path,
            kind="hybrid_study",
            algorithms=[],
            functions=["sphere"],
            dims_list=[1, 2],
            n_points=8,
            depth_range=(1, 1),
            repeats=3,
        )
        builds = []
        for module in (qvasim.harness.runner, qvasim.hybrid):

            def counting(grid, fn, original=module.build_objective):
                builds.append(grid.dims)
                return original(grid, fn)

            monkeypatch.setattr(module, "build_objective", counting)
        records = run_experiment(config, workers=1)
        assert sorted(builds) == [1, 2]
        assert len(records) == 6
        for r in records:  # each record as its repeat building its own table gives it
            alone = qvasim.hybrid.hybrid_optimise(
                "sphere",
                r.dims,
                8,
                1,
                epsilon=config.epsilon,
                seed=r.seed,
                sample_size=config.sample_size,
                grid=config.cell_grid("sphere", r.dims, 8),
            )
            assert (r.success, r.seeds_tried) == (alone.success, alone.seeds_tried)
            assert (r.fev_qmoa, r.fev_nelder_mead) == (
                alone.accounting.fev_qmoa,
                alone.accounting.fev_nelder_mead,
            )

    def test_sweep_cells_on_one_objective_share_its_table(self, tmp_path, monkeypatch):
        """Consecutive cells on one (function, D, N) build its table once; a new N builds anew."""
        config = tiny_config(
            tmp_path,
            kind="scaling_study",
            functions=["sphere"],
            dims_list=[1],
            grid_sizes=[4, 8],
            depth_range=(1, 3),
            repeats=1,
        )
        builds = []
        original = qvasim.harness.runner.build_objective

        def counting(grid, fn):
            builds.append(grid.points_per_dim)
            return original(grid, fn)

        monkeypatch.setattr(qvasim.harness.runner, "build_objective", counting)
        records = run_experiment(config, workers=1)
        assert [cell[3] for cell in config.cells()] == [4, 4, 8, 8]
        assert builds == [4, 8]
        assert len(records) == 4 * 3

class TestSummarise:
    def test_population_statistics(self):
        records = [
            fake_record(repeat=0, mean_error=0.1, expectation=1.0),
            fake_record(repeat=1, mean_error=0.3, expectation=2.0),
        ]
        rows = summarise(records, ["algorithm", "depth"])
        assert len(rows) == 1
        row = rows[0]
        assert row["mean_error_mean"] == pytest.approx(0.2)
        assert row["mean_error_pstd"] == pytest.approx(0.1)
        assert row["best_repeat"] == 0
        assert row["n"] == 2

    def test_identical_records_have_zero_spread(self):
        records = [fake_record(repeat=j) for j in range(10)]
        rows = summarise(records, ["algorithm"])
        assert rows[0]["expectation_pstd"] == 0.0

    def test_groups_ordered_by_value(self):
        rows = summarise([fake_record(depth=d) for d in (10, 1, 2)], ["depth"])
        assert [row["depth"] for row in rows] == [1, 2, 10]

    def test_none_group_value_sorts_last(self):
        records = [
            fake_record(depth=2, bound_halfwidth=None),
            fake_record(depth=1, bound_halfwidth=10.0),
            fake_record(depth=1, bound_halfwidth=None),
            fake_record(depth=1, bound_halfwidth=2.0),
        ]
        rows = summarise(records, ["depth", "bound_halfwidth"])
        assert [(row["depth"], row["bound_halfwidth"]) for row in rows] == [
            (1, 2.0),
            (1, 10.0),
            (1, None),
            (2, None),
        ]

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="group-by"):
            summarise([fake_record()], ["nonsense"])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no records"):
            summarise([], ["algorithm"])

    def test_summary_csv(self, tmp_path):
        rows = summarise([fake_record()], ["algorithm"])
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        header = path.read_text().splitlines()[0]
        assert header.startswith("algorithm,n,")


class TestPlotData:
    def _sweep_records(self):
        records = []
        for algorithm in ("qmoa_complete", "qaoa_hypercube"):
            for depth in range(1, 9):
                for repeat in range(3):
                    records.append(
                        fake_record(
                            algorithm=algorithm,
                            depth=depth,
                            repeat=repeat,
                            mean_error=0.5 / depth + 0.01 * repeat,
                            max_amplification=2.0 ** (depth * 0.5) + repeat,
                            expectation=10.0 - depth,
                        )
                    )
        return records

    def test_mean_error_series(self, tmp_path):
        paths = emit_plot_data(self._sweep_records(), "mean_error_vs_depth", tmp_path)
        assert len(paths) == 2
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        assert rows.shape == (8, 3)

    def test_rdgs_baseline_endpoint(self, tmp_path):
        paths = emit_plot_data(self._sweep_records(), "amplification_vs_depth", tmp_path)
        baseline = next(p for p in paths if "rdgs_baseline" in p.name)
        rows = np.loadtxt(baseline, delimiter=",", skiprows=1)
        assert rows[-1, 0] == 8
        assert rows[-1, 1] == pytest.approx(288.15, abs=0.01)

    def test_function_bars_at_max_depth(self, tmp_path):
        paths = emit_plot_data(self._sweep_records(), "function_bars", tmp_path)
        assert {p.name for p in paths} == {
            "function_bars__qmoa_complete__p8.csv",
            "function_bars__qaoa_hypercube__p8.csv",
        }

    def test_scaling_includes_fit_column(self, tmp_path):
        paths = emit_plot_data(self._sweep_records(), "scaling", tmp_path)
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        assert rows.shape[1] == 4  # x, y, y_err, y_fit

    def test_speedup_series(self, tmp_path):
        records = [
            HybridRecord(
                config_hash="h",
                kind="hybrid_study",
                function="rastrigin",
                dims=dims,
                n_points=16,
                depth=5,
                repeat=repeat,
                seed=0,
                success=True,
                fev_qmoa=10,
                fev_nelder_mead=100,
                fev_assisted=30 * 6 * 10 + 100,
                seeds_tried=1,
                baseline_fev=5000,
                baseline_success=True,
                baseline_restarts=10,
                speedup=2.0 + dims + 0.1 * repeat,
                wall_time=0.1,
            )
            for dims in (2, 3)
            for repeat in range(2)
        ]
        paths = emit_plot_data(records, "speedup_vs_dimension", tmp_path)
        rows = np.loadtxt(paths[0], delimiter=",", skiprows=1)
        assert rows.shape == (2, 3)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plot kind"):
            emit_plot_data(self._sweep_records(), "nope", tmp_path)

    @pytest.mark.parametrize("kind", PLOT_KINDS)
    def test_empty_records_diagnostic(self, tmp_path, kind):
        with pytest.raises(ValueError, match="no records"):
            emit_plot_data([], kind, tmp_path)
    def test_hybrid_repeats_persist_as_they_return(self, tmp_path, monkeypatch):
        config = tiny_config(
            tmp_path,
            kind="hybrid_study",
            algorithms=[],
            functions=["sphere"],
            dims=2,
            n_points=8,
            depth_range=(1, 1),
            repeats=4,
        )
        whole_dir = tmp_path / "whole"
        run_experiment(replace(config, output_dir=str(whole_dir)), workers=1)
        whole = load_records(whole_dir / "records.jsonl")
        seeds = []
        real = qvasim.harness.runner.hybrid_optimise

        def third_fails(*args, seed, **kwargs):
            seeds.append(seed)
            if len(seeds) == 3:
                raise RuntimeError("repeat 2 killed")
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(qvasim.harness.runner, "hybrid_optimise", third_fails)
        with pytest.raises(RuntimeError, match="repeat 2 killed"):
            run_experiment(config, workers=1)
        log = tmp_path / "out" / "records.jsonl"
        assert [r.repeat for r in load_records(log)] == [0, 1]

        seeds.clear()
        run_experiment(config, workers=1)
        assert seeds == [r.seed for r in whole[2:]]  # only the missing repeats ran

        def without_wall_time(records):
            return [{k: v for k, v in asdict(r).items() if k != "wall_time"} for r in records]

        assert without_wall_time(load_records(log)) == without_wall_time(whole)


def write_small_config(tmp_path, **overrides):
    """A one-cell sweep config written to ``cfg.yaml``; returns it and its output_dir.

    An override of ``None`` leaves its key out.
    """
    out = tmp_path / "out"
    raw = {
        "kind": "mixer_comparison", "algorithms": ["qmoa_complete"],
        "functions": ["sphere"], "dims": 2, "n_points": 8, "depth_range": [1, 1],
        "repeats": 1, "base_seed": 3, "output_dir": str(out), **overrides,
    }
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({k: v for k, v in raw.items() if v is not None}))
    return cfg, out


class TestCli:
    def test_run_and_summarise_and_plot(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.yaml"
        out = tmp_path / "out"
        cfg.write_text(
            "kind: depth_sweep\nalgorithm: qmoa_complete\nfunction: styblinski_tang\n"
            f"dims: 2\nn_points: 4\ndepth_range: [1, 1]\nrepeats: 2\nbase_seed: 3\n"
            f"output_dir: {out}\n"
        )
        assert main(["run", str(cfg)]) == 0
        assert main(["summarise", str(out / "records.jsonl"), "--out", str(tmp_path / "s.csv")]) == 0
        assert main([
            "plot-data",
            str(out / "records.jsonl"),
            "--kind",
            "mean_error_vs_depth",
            "--out",
            str(tmp_path / "plots"),
        ]) == 0
        assert (tmp_path / "s.csv").exists()

    def test_summarise_hybrid_log_by_default_keys(self, tmp_path, capsys):
        cfg, out = write_small_config(tmp_path, kind="hybrid_study", algorithms=None)
        assert main(["run", str(cfg)]) == 0
        log, csv_path = str(out / "records.jsonl"), tmp_path / "s.csv"
        assert main(["summarise", log, "--out", str(csv_path)]) == 0
        header, row = csv_path.read_text().splitlines()
        assert header.startswith("function,dims,depth,n,speedup_mean,")
        assert row.startswith("sphere,2,1,1,")
        # an explicit --group-by is used as given
        assert main(["summarise", log, "--group-by", "algorithm"]) == 3
        assert "unknown group-by key" in capsys.readouterr().err

    @pytest.mark.parametrize("args, directory", [
        (["--output-dir", "2024"], "2024"), (["--set", "output_dir=no"], "no"),
    ], ids=["output_dir_flag_of_digits", "output_dir_override_of_yaml_bool"])
    def test_output_dir_override_is_taken_as_written(
        self, tmp_path, monkeypatch, args, directory
    ):
        cfg, _ = write_small_config(tmp_path)
        monkeypatch.chdir(tmp_path)
        assert main(["run", str(cfg), *args]) == 0
        assert (tmp_path / directory / "records.jsonl").exists()

    def test_locked_output_dir_exits_2_and_leaves_the_log(self, tmp_path, capsys):
        cfg, out = write_small_config(tmp_path, depth_range=[1, 2])
        assert main(["run", str(cfg)]) == 0
        log = out / "records.jsonl"
        first, second = log.read_bytes().splitlines(keepends=True)
        log.write_bytes(first + second[:40])  # a torn line the next run would cut off
        torn = log.read_bytes()
        holder = (
            "import fcntl, sys; lock = open(sys.argv[1], 'a'); "
            "fcntl.flock(lock, fcntl.LOCK_EX); print('locked', flush=True); sys.stdin.read()"
        )
        with subprocess.Popen(
            [sys.executable, "-c", holder, str(out / LOCK_NAME)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        ) as child:
            assert child.stdout.readline() == "locked\n"
            assert main(["run", str(cfg)]) == 2
            assert log.read_bytes() == torn
            child.stdin.close()  # the holder exits and its lock goes with it
            assert child.wait(timeout=30) == 0
        assert f"output_dir {str(out)!r} is locked by another run" in capsys.readouterr().err
        assert main(["run", str(cfg)]) == 0
        assert [(r.depth, r.repeat) for r in load_records(log)] == [(1, 0), (2, 0)]

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("kind: nope\n")
        assert main(["run", str(cfg)]) == 2

    @pytest.mark.parametrize("overrides, args", [(overrides, []) for overrides in [
        {"kind": "degree_sweep", "algorithms": [], "bandwidths": [1, 9]},
        {
            "kind": "scaling_study", "functions": ["beale"], "dims_list": [2, 3],
            "grid_sizes": [4], "depth_range": [1, 3],
        },
        {"n_points": 10},
        {"kind": "hybrid_study", "algorithms": [], "functions": ["beale"], "dims_list": [2, 3]},
        {"algorithms": ["qmoa_complete", "qmoa_banded_x"]},
        {
            "kind": "scaling_study", "algorithms": [], "dims_list": [2],
            "grid_sizes": [4], "depth_range": [1, 3],
        },
        {"kind": "hybrid_study", "algorithms": [], "functions": ["sphere"], "depth_range": [1, 3]},
        {"bandwidths": [2]},
        {"kind": "degree_sweep", "bandwidths": [1]},
        {"kind": "hybrid_study"},
        {"kind": "depth_sweep", "dims_list": [1, 3], "bandwidths": [2]},
        {"kind": "degree_sweep", "algorithms": [], "bandwidths": [1], "dims_list": [2]},
        {"kind": "hybrid_study", "algorithms": [], "grid_sizes": [4, 16]},
        {"kind": "hybrid_study", "algorithms": [], "sample_size": 0},
        {"kind": "hybrid_study", "algorithms": [], "epsilon": -1e-4},
        {"kind": "hybrid_study", "algorithms": [], "epsilon": "1e-4"},
        {"kind": "hybrid_study", "algorithms": [], "epsilon": True},
        {"kind": "hybrid_study", "algorithms": [], "sample_size": True},
        {"optimiser": {"simplex_tolerance": "1e-4"}},
        {"optimiser": {"value_tolerance": 0}},
        {"optimiser": {"max_iterations": 10.5}},
        {"optimiser": {"max_iterations": True}},
        {"dims": True},
        {"n_points": 8.0},
        {"repeats": "2"},
        {"qubit_cap": 0},
        {"base_seed": 1.5},
        {"depth_range": [1.5, 2]},
        {"depth_range": [1]},
        {"depth_range": [1, "2"]},
        {"depth_range": None, "depth": "abc"},
        {"depth_range": None, "depth": 2.7},
        {
            "kind": "scaling_study", "dims_list": [2.5], "grid_sizes": [8],
            "depth_range": [1, 3],
        },
        {
            "kind": "scaling_study", "dims_list": [2], "grid_sizes": [16.0],
            "depth_range": [1, 3],
        },
        {"shared_walk_time": "no"},
        {"optimiser": {"adaptive": "no"}},
        {"kind": "scaling_study", "dims_list": 2, "grid_sizes": [8], "depth_range": [1, 3]},
        {"kind": "scaling_study", "dims_list": [2], "grid_sizes": 4, "depth_range": [1, 3]},
        {"kind": "degree_sweep", "algorithms": [], "bandwidths": 2},
        {"algorithms": "qmoa_complete"},
        {"functions": "sphere"},
        {"algorithms": None, "algorithm": ["qmoa_complete"]},
        {"functions": [["sphere"]]},
        {"output_dir": 5},
    ]] + [
        ({}, ["--set", "repeats=[1"]),
        ({"optimiser": 5}, []),
        ({}, ["--set", "optimiser=5"]),
        ({}, ["--set", "optimiser="]),
        ({}, ["--set", "output_dir="]),
        ({}, ["--output-dir", ""]),
    ], ids=[
        "bandwidth_over_half_n", "function_undefined_at_later_dims", "n_not_power_of_two",
        "hybrid_function_undefined_at_dims", "non_integer_bandwidth", "no_algorithms",
        "hybrid_depth_range", "bandwidths_on_mixer_comparison", "algorithms_on_degree_sweep",
        "algorithms_on_hybrid_study", "dims_list_and_bandwidths_on_depth_sweep",
        "dims_list_on_degree_sweep", "grid_sizes_on_hybrid_study", "zero_sample_size",
        "negative_epsilon", "epsilon_read_as_string", "bool_epsilon", "bool_sample_size",
        "simplex_tolerance_read_as_string", "zero_value_tolerance",
        "fractional_max_iterations", "bool_max_iterations", "bool_dims", "float_n_points",
        "repeats_read_as_string", "zero_qubit_cap", "fractional_base_seed",
        "fractional_depth_range", "one_entry_depth_range", "string_in_depth_range",
        "string_depth", "fractional_depth", "fractional_dims_list", "float_grid_size",
        "string_shared_walk_time", "string_adaptive", "scalar_dims_list",
        "scalar_grid_sizes", "scalar_bandwidths", "string_algorithms", "string_functions",
        "list_algorithm_alias", "nested_functions", "integer_output_dir",
        "override_not_yaml", "scalar_optimiser", "scalar_optimiser_override",
        "empty_optimiser_override", "empty_output_dir_override",
        "empty_output_dir_flag",
    ])
    def test_invalid_config_exits_before_running(self, tmp_path, capsys, overrides, args):
        cfg, out = write_small_config(tmp_path, **overrides)
        assert main(["run", str(cfg), *args]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text, args, message", [
        ("optimiser: 5\n", [], "optimiser must be a mapping, got 5"),
        ("optimiser:\n", [], "optimiser must be a mapping, got None"),
        ("", ["--set", "optimiser=5"], "optimiser must be a mapping, got 5"),
        ("", ["--set", "optimiser="], "optimiser must be a mapping, got None"),
        ("", ["--set", "repeats=[1"], "override of repeats is not valid YAML"),
    ], ids=[
        "scalar_optimiser", "empty_optimiser", "scalar_optimiser_override",
        "empty_optimiser_override", "override_not_yaml",
    ])
    def test_malformed_value_names_its_key(self, tmp_path, capsys, text, args, message):
        cfg, out = write_small_config(tmp_path)
        cfg.write_text(cfg.read_text() + text)
        assert main(["run", str(cfg), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("overrides, args, message", [
        ({"algorithms": "qmoa_complete"}, [], "algorithms must be a list of strings, got "
         "'qmoa_complete'"),
        ({"functions": "sphere"}, [], "functions must be a list of strings, got 'sphere'"),
        ({}, ["--set", "algorithms=qmoa_complete"], "algorithms must be a list of strings, "
         "got 'qmoa_complete'"),
    ], ids=["algorithms_in_file", "functions_in_file", "algorithms_override"])
    def test_string_for_list_key_names_key_and_whole_value(
        self, tmp_path, capsys, overrides, args, message
    ):
        cfg, out = write_small_config(tmp_path, **overrides)
        assert main(["run", str(cfg), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("args, env, message", [
        (["--workers", "0"], None, "workers must be at least 1, got 0"),
        (["--workers", "-4"], None, "workers must be at least 1, got -4"),
        ([], "0", "QVASIM_WORKERS must be at least 1, got 0"),
        ([], "two", "QVASIM_WORKERS must be an integer, got 'two'"),
    ], ids=["zero_flag", "negative_flag", "zero_variable", "non_integer_variable"])
    def test_invalid_worker_count_exits_before_running(
        self, tmp_path, capsys, monkeypatch, args, env, message
    ):
        if env is None:
            monkeypatch.delenv("QVASIM_WORKERS", raising=False)
        else:
            monkeypatch.setenv("QVASIM_WORKERS", env)
        cfg, out = write_small_config(tmp_path)
        assert main(["run", str(cfg), *args]) == 2
        assert f"config error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_tolerance_in_yaml_short_float_form_exits_before_running(self, tmp_path, capsys):
        # YAML 1.1 reads 1e-4 (no decimal point) as the string "1e-4"
        out = tmp_path / "out"
        text = (
            "kind: mixer_comparison\nalgorithms: [qmoa_complete]\nfunctions: [sphere]\n"
            "dims: 2\nn_points: 8\ndepth_range: [1, 1]\nrepeats: 1\nbase_seed: 3\n"
            f"output_dir: {out}\noptimiser: {{simplex_tolerance: %s}}\n"
        )
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(text % "1.0e-4")
        assert load_config(cfg).optimiser.simplex_tolerance == 1e-4
        cfg.write_text(text % "1e-4")
        assert main(["run", str(cfg)]) == 2
        assert "optimiser.simplex_tolerance must be a number > 0, got '1e-4'" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    def _log_of_two_configs(self, tmp_path) -> str:
        cfg, out = write_small_config(tmp_path, repeats=2)
        assert main(["run", str(cfg)]) == 0
        assert main(["run", str(cfg), "--set", "base_seed=4"]) == 0
        records = load_records(out / "records.jsonl")
        assert len(records) == 4 and len({r.config_hash for r in records}) == 2
        return str(out / "records.jsonl")

    def test_summarise_refuses_log_of_several_configs(self, tmp_path, capsys):
        log = self._log_of_two_configs(tmp_path)
        hashes = sorted({r.config_hash for r in load_records(log)})
        capsys.readouterr()
        assert main(["summarise", log]) == 3
        err = capsys.readouterr().err
        assert "2 configs" in err and all(h in err for h in hashes)
        # grouping by config_hash keeps the configs apart
        assert main(["summarise", log, "--group-by", "config_hash,algorithm,depth"]) == 0
        assert capsys.readouterr().out.count("'n': 2") == 2

    def test_plot_data_refuses_log_of_several_configs(self, tmp_path, capsys):
        log = self._log_of_two_configs(tmp_path)
        hashes = sorted({r.config_hash for r in load_records(log)})
        capsys.readouterr()
        plots = tmp_path / "plots"
        assert main(["plot-data", log, "--kind", "mean_error_vs_depth", "--out", str(plots)]) == 3
        err = capsys.readouterr().err
        assert all(h in err for h in hashes)
        assert not plots.exists()

    def test_missing_records_exit_code(self, tmp_path):
        assert main(["summarise", str(tmp_path / "none.jsonl")]) == 3
        missing = ["plot-data", str(tmp_path / "none.jsonl"), "--kind", "scaling"]
        assert main([*missing, "--out", str(tmp_path / "plots")]) == 3
        assert not (tmp_path / "plots").exists()

    def test_catalogue(self, capsys):
        assert main(["catalogue"]) == 0
        out = capsys.readouterr().out
        assert "styblinski_tang" in out
        assert "qmoa_complete" in out


def test_write_and_load_records_roundtrip(tmp_path):
    records = [fake_record(repeat=j) for j in range(3)]
    path = tmp_path / "records.csv"
    write_csv(records, path)
    assert path.read_text().count("\n") == 4  # header + 3 rows

    jsonl = tmp_path / "records.jsonl"
    from qvasim.harness.runner import _append_records

    _append_records(jsonl, records)
    loaded = load_records(jsonl)
    assert [r.repeat for r in loaded] == [0, 1, 2]
    assert loaded[0] == records[0]


def test_csv_header_rows(tmp_path):
    hybrid = HybridRecord(
        config_hash="h",
        kind="hybrid_study",
        function="sphere",
        dims=2,
        n_points=8,
        depth=1,
        repeat=0,
        seed=0,
        success=True,
        fev_qmoa=1,
        fev_nelder_mead=2,
        fev_assisted=3,
        seeds_tried=1,
        baseline_fev=4,
        baseline_success=False,
        baseline_restarts=0,
        speedup=1.5,
        wall_time=0.1,
    )
    path = tmp_path / "records.csv"
    write_csv([hybrid, fake_record(wavepacket_centres=[0.5, -1.0])], path)
    lines = path.read_text().splitlines()
    assert lines[0] == (
        "config_hash,kind,algorithm,function,dims,n_points,depth,repeat,seed,"
        "expectation,mean_error,statistical_distance,max_amplification,"
        "max_amplified_index,max_amplified_rank,evaluations,wall_time,params,"
        "wavepacket_centres,bound_halfwidth"
    )
    assert lines[1].endswith(',"[0.1, 0.2]","[0.5, -1.0]",')
    assert lines[2] == (
        "config_hash,kind,function,dims,n_points,depth,repeat,seed,success,"
        "fev_qmoa,fev_nelder_mead,fev_assisted,seeds_tried,baseline_fev,"
        "baseline_success,baseline_restarts,speedup,wall_time"
    )
    assert lines[3] == "h,hybrid_study,sphere,2,8,1,0,0,True,1,2,3,1,4,False,0,1.5,0.1"
    assert len(lines[0].split(",")) == 20 and len(lines[2].split(",")) == 18


def test_append_records_fsyncs_each_append(tmp_path, monkeypatch):
    from qvasim.harness.runner import _append_records

    synced = []
    monkeypatch.setattr(os, "fsync", synced.append)
    jsonl = tmp_path / "records.jsonl"
    _append_records(jsonl, [fake_record(repeat=0), fake_record(repeat=1)])
    _append_records(jsonl, [fake_record(repeat=2)])
    assert len(synced) == 2
    assert [r.repeat for r in load_records(jsonl)] == [0, 1, 2]


def test_runner_and_cli_import_without_yaml_or_multiprocessing():
    """A config file needs yaml and a worker pool needs multiprocessing; importing needs neither."""
    src = Path(qvasim.mixers.__file__).resolve().parents[1]
    code = (
        "import sys, qvasim, qvasim.harness.runner, qvasim.harness.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] in ('yaml', 'multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert out.stdout.strip() == "[]"
