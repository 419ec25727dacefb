"""Machine configuration: scaling, validation, platform presets."""

from dataclasses import replace

import pytest

from repro.config import (
    CacheConfig,
    CobraConfig,
    LatencyConfig,
    MachineConfig,
    itanium2_smp,
    sgi_altix,
)


class TestCacheConfig:
    def test_geometry(self):
        cache = CacheConfig(size_bytes=16 * 1024, associativity=8)
        assert cache.n_lines == 128 and cache.n_sets == 16

    def test_illegal_geometry(self):
        with pytest.raises(ValueError):
            CacheConfig(size_bytes=1000, associativity=8)


class TestPresets:
    def test_smp_is_single_node(self):
        cfg = itanium2_smp(4)
        assert cfg.cpus_per_node == 4 and cfg.n_nodes == 1

    def test_altix_is_two_cpus_per_node(self):
        cfg = sgi_altix(8)
        assert cfg.cpus_per_node == 2 and cfg.n_nodes == 4

    @pytest.mark.parametrize("scale", [1, 2, 4, 8, 16, 32])
    def test_scaling_preserves_line_size(self, scale):
        cfg = itanium2_smp(4, scale=scale)
        assert cfg.l2.line_size == 128 and cfg.l3.line_size == 128
        assert cfg.l2.size_bytes * scale == 256 * 1024

    def test_latency_bands_match_the_paper(self):
        lat = LatencyConfig()
        # memory loads 120-150, coherent misses >180-200 (paper §4)
        assert 120 <= lat.memory <= 150
        assert lat.cache_to_cache >= 180
        assert lat.remote_cache_to_cache > lat.cache_to_cache
        assert lat.remote_memory > lat.memory

    def test_cobra_filter_thresholds_are_consistent(self):
        cobra = CobraConfig()
        lat = LatencyConfig()
        # the first-level filter excludes the L3-hit band
        assert cobra.dear_latency_floor >= 12
        # the second level separates memory (120-150) from coherent (>180)
        assert lat.memory < cobra.coherent_latency_threshold < lat.cache_to_cache
        assert lat.upgrade > cobra.coherent_latency_threshold

    def test_with_cobra_returns_new_config(self):
        cfg = itanium2_smp(4)
        new = cfg.with_cobra(enable_rollback=False)
        assert new.cobra.enable_rollback is False
        assert cfg.cobra.enable_rollback is True

    def test_invalid_machine(self):
        with pytest.raises(ValueError):
            MachineConfig(
                name="bad", n_cpus=3, cpus_per_node=2,
                l2=CacheConfig(16 * 1024), l3=CacheConfig(192 * 1024, associativity=4),
            )

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: replace(sgi_altix(4), cpus_per_node=0), "cpus_per_node must be >= 1, got 0"),
            (lambda: replace(sgi_altix(4), cpus_per_node=-2), "cpus_per_node must be >= 1, got -2"),
            (lambda: replace(sgi_altix(4), n_cpus=0), "n_cpus must be >= 1, got 0"),
            (lambda: replace(sgi_altix(4), scale=0), "scale must be >= 1, got 0"),
            (lambda: itanium2_smp(0), "n_cpus must be >= 1, got 0"),
            (lambda: itanium2_smp(4, scale=0), "scale must be >= 1, got 0"),
            (lambda: sgi_altix(4, scale=0), "scale must be >= 1, got 0"),
            (lambda: sgi_altix(4, scale=-8), "scale must be >= 1, got -8"),
        ],
    )
    def test_hostile_machine_shapes_are_refused_by_field(self, build, message):
        # not ZeroDivisionError, and never a machine with negative node ids
        with pytest.raises(ValueError) as err:
            build()
        assert str(err.value) == message


class TestCobraConfig:
    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("optimize_interval", -5, "optimize_interval must be >= 1, got -5"),
            ("sampling_interval", 0, "sampling_interval must be >= 1, got 0"),
            ("trace_cache_bundles", 0, "trace_cache_bundles must be >= 1, got 0"),
            ("fault_escalation_threshold", 0,
             "fault_escalation_threshold must be >= 1, got 0"),
            ("min_loop_samples", -1, "min_loop_samples must be >= 0, got -1"),
            ("sample_overhead_cycles", -1, "sample_overhead_cycles must be >= 0, got -1"),
            ("dear_latency_floor", -1, "dear_latency_floor must be >= 0, got -1"),
            ("coherent_latency_threshold", -1,
             "coherent_latency_threshold must be >= 0, got -1"),
            ("coherent_ratio_threshold", 7.0,
             "coherent_ratio_threshold must be in [0, 1], got 7.0"),
            ("noprefetch_coherent_share", -0.5,
             "noprefetch_coherent_share must be in [0, 1], got -0.5"),
            ("validate", "paranoid",
             "validate must be one of ('off', 'record', 'strict'), got 'paranoid'"),
        ],
    )
    def test_out_of_range_fields_are_refused(self, field, value, message):
        with pytest.raises(ValueError) as err:
            CobraConfig(**{field: value})
        assert str(err.value) == message
        # the same door for every way a config is made
        with pytest.raises(ValueError):
            itanium2_smp(4).with_cobra(**{field: value})

    def test_boundary_values_are_legal(self):
        CobraConfig(
            min_loop_samples=0, coherent_ratio_threshold=1.0,
            noprefetch_coherent_share=0.0, fault_escalation_threshold=1,
        )

    def test_env_overrides_are_rows_of_the_schema(self, monkeypatch, tmp_path):
        from repro.config import ENV_VARS

        for name in ENV_VARS:
            monkeypatch.delenv(name, raising=False)
        base = CobraConfig()
        assert base.with_env() is base
        monkeypatch.setenv("REPRO_FAULTS", "7")
        monkeypatch.setenv("REPRO_VALIDATE", "record")
        monkeypatch.setenv("REPRO_GOVERNOR", "1")
        monkeypatch.setenv("REPRO_CHECKPOINT", str(tmp_path / "ckpt"))
        monkeypatch.setenv("REPRO_PROFILE_DB", str(tmp_path / "p.db"))
        armed = base.with_env()
        assert armed.faults.seed == 7 and armed.validate == "record"
        assert armed.governor is not None
        assert armed.persist.directory == str(tmp_path / "ckpt")
        assert armed.profile_db.path == str(tmp_path / "p.db")
        monkeypatch.setenv("REPRO_GOVERNOR", "0")
        assert armed.with_env().governor is None
        # every row that says it overrides a field names a real one
        for name, var in ENV_VARS.items():
            assert (var.overrides is not None) == ("overrides `CobraConfig." in var.effect)
            if var.overrides is not None:
                assert f"`CobraConfig.{var.overrides}`" in var.effect
                assert hasattr(base, var.overrides)


class TestPersistConfig:
    def test_needs_directory_or_disk(self):
        from repro.config import PersistConfig

        with pytest.raises(ValueError, match="directory or an injectable disk"):
            PersistConfig()

    def test_directory_alone_is_enough(self):
        from repro.config import PersistConfig

        cfg = PersistConfig(directory="/tmp/ckpt")
        assert cfg.disk is None and cfg.meta is None

    def test_cobra_config_carries_persist(self):
        from repro.config import PersistConfig

        cobra = CobraConfig(persist=PersistConfig(directory="x"))
        assert cobra.persist.directory == "x"
        assert CobraConfig().persist is None


class TestFleetConfigs:
    def test_fault_rates_validated(self):
        from repro.config import FleetFaultConfig

        with pytest.raises(ValueError, match="frame_rate"):
            FleetFaultConfig(frame_rate=1.5)
        with pytest.raises(ValueError, match="partition_rate"):
            FleetFaultConfig(partition_rate=-0.1)
        with pytest.raises(ValueError, match="seed"):
            FleetFaultConfig(seed=-1)
        with pytest.raises(ValueError, match="daemon_crash_batch"):
            FleetFaultConfig(daemon_crash_batch=0)

    def test_agent_config_validated(self):
        from repro.config import FleetAgentConfig

        with pytest.raises(ValueError, match="instance"):
            FleetAgentConfig(instance="")
        with pytest.raises(ValueError, match="instances"):
            FleetAgentConfig(instance="i0", instances=0)
        with pytest.raises(ValueError, match="quorum"):
            FleetAgentConfig(instance="i0", quorum=0)
        with pytest.raises(ValueError, match="cannot exceed"):
            FleetAgentConfig(instance="i0", instances=2, quorum=3)

    def test_cobra_config_carries_fleet(self):
        from repro.config import FleetAgentConfig

        cobra = CobraConfig(fleet=FleetAgentConfig(instance="i0"))
        assert cobra.fleet.instance == "i0"
        assert CobraConfig().fleet is None


class TestGovernorConfigs:
    def test_overload_rates_validated(self):
        from repro.config import OverloadConfig

        with pytest.raises(ValueError, match="shrink_rate"):
            OverloadConfig(shrink_rate=1.5)
        with pytest.raises(ValueError, match="storm_rate"):
            OverloadConfig(storm_rate=-0.1)
        with pytest.raises(ValueError, match="seed"):
            OverloadConfig(seed=-1)
        with pytest.raises(ValueError, match="flood_factor"):
            OverloadConfig(flood_factor=1)
        with pytest.raises(ValueError, match="flood_windows"):
            OverloadConfig(flood_windows=0)
        with pytest.raises(ValueError, match="max_events"):
            OverloadConfig(max_events=-1)

    def test_governor_budgets_validated(self):
        from repro.config import GovernorConfig

        with pytest.raises(ValueError, match="trace_cache_budget"):
            GovernorConfig(trace_cache_budget=0)
        with pytest.raises(ValueError, match="sample_queue_depth"):
            GovernorConfig(sample_queue_depth=0)
        with pytest.raises(ValueError, match="budget_floor"):
            GovernorConfig(budget_floor=0)

    def test_cobra_config_carries_governor(self):
        from repro.config import GovernorConfig, OverloadConfig

        cobra = CobraConfig(
            governor=GovernorConfig(
                trace_cache_budget=96, overload=OverloadConfig(seed=3)
            )
        )
        assert cobra.governor.trace_cache_budget == 96
        assert cobra.governor.overload.seed == 3
        assert CobraConfig().governor is None


class TestEnvSchema:
    """The REPRO_* table: one reader, documented from the same rows."""

    def test_readme_table_is_rendered_from_the_schema(self):
        import pathlib

        from repro.config import ENV_VARS

        readme = (pathlib.Path(__file__).parent.parent / "README.md").read_text()
        for name, var in ENV_VARS.items():
            assert f"| `{name}` | {var.values} | {var.effect} |" in readme
        # and the table lists nothing the schema does not know
        documented = {
            line.split("`")[1] for line in readme.splitlines()
            if line.startswith("| `REPRO_")
        }
        assert documented == set(ENV_VARS)

    def test_only_the_schema_reads_the_environment(self):
        import pathlib

        src = pathlib.Path(__file__).parent.parent / "src" / "repro"
        readers = sorted(
            str(path.relative_to(src)) for path in src.rglob("*.py")
            if "os.environ" in path.read_text() or "getenv" in path.read_text()
        )
        assert readers == ["config.py"]

    def test_unset_and_blank_mean_no_override(self, monkeypatch):
        from repro.config import ENV_VARS, env_value

        for name in ENV_VARS:
            monkeypatch.delenv(name, raising=False)
            assert env_value(name) is None
            monkeypatch.setenv(name, "   ")
            assert env_value(name) is None

    def test_values_parse_to_their_types(self, monkeypatch):
        from repro.config import env_value

        monkeypatch.setenv("REPRO_FAULTS", " 7 ")
        assert env_value("REPRO_FAULTS") == 7
        monkeypatch.setenv("REPRO_TRACE_JIT", "osr-off")
        assert env_value("REPRO_TRACE_JIT") == "osr-off"

    def test_junk_raises_the_one_line_diagnostic(self, monkeypatch):
        import pytest

        from repro.config import env_value
        from repro.errors import CobraError

        monkeypatch.setenv("REPRO_FAULTS", "-1")
        with pytest.raises(CobraError, match="REPRO_FAULTS must be a non-negative"):
            env_value("REPRO_FAULTS")
