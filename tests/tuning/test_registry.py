"""Unit tests for the tuned-config registry (disk format + key stability)."""

import json
import subprocess
import sys

import pytest

from repro.exceptions import ConfigurationError
from repro.runner import RunSpec
from repro.tuning import (
    REGISTRY_FORMAT,
    TunedConfig,
    TunedConfigRegistry,
)


def entry(**overrides):
    return TunedConfig(
        algorithm="pplb",
        overrides=overrides,
        score=1.25,
        default_score=1.5,
        n_evals=7,
        seed=0,
        budget={"n_initial": 3},
    )


class TestTunedConfig:
    def test_round_trips_through_dict(self):
        original = entry(mu_s_base=2.0)
        assert TunedConfig.from_dict(original.to_dict()) == original

    def test_rejects_unknown_entry_key(self):
        data = entry().to_dict()
        data["wall_time"] = 1.0
        with pytest.raises(ConfigurationError, match="wall_time"):
            TunedConfig.from_dict(data, scenario="mesh-hotspot")

    def test_rejects_unknown_override_name(self):
        data = entry().to_dict()
        data["overrides"] = {"not_a_knob": 1.0}
        with pytest.raises(ConfigurationError, match="not_a_knob"):
            TunedConfig.from_dict(data)

    def test_rejects_out_of_range_override(self):
        data = entry().to_dict()
        data["overrides"] = {"beta0": 2.0}
        with pytest.raises(ConfigurationError):
            TunedConfig.from_dict(data)

    def test_rejects_non_mapping_overrides(self):
        data = entry().to_dict()
        data["overrides"] = [1, 2]
        with pytest.raises(ConfigurationError, match="mapping"):
            TunedConfig.from_dict(data)

    def test_default_equal_overrides_canonicalise_to_empty(self):
        data = entry().to_dict()
        data["overrides"] = {"mu_s_base": 1.0}  # the paper default
        assert TunedConfig.from_dict(data).overrides == {}


class TestRegistryAccess:
    def test_keys_are_canonical_scenario_strings(self):
        registry = TunedConfigRegistry()
        registry.put("mesh:4x4+hotspot", entry(mu_s_base=2.0))
        assert registry.scenarios() == ["mesh:side=4+hotspot"]
        # every equivalent spelling reads the same entry
        assert registry.get("mesh:side=4+hotspot") is not None
        assert registry.overrides_for("mesh:4x4+hotspot") == {"mu_s_base": 2.0}

    def test_missing_scenario_reads_as_defaults(self):
        registry = TunedConfigRegistry()
        assert registry.get("mesh-hotspot") is None
        assert registry.overrides_for("mesh-hotspot") == {}

    def test_len_counts_entries(self):
        registry = TunedConfigRegistry()
        registry.put("mesh-hotspot", entry())
        registry.put("torus-hotspot", entry())
        assert len(registry) == 2


class TestSpecFor:
    def test_untuned_spec_key_equals_plain_default_spec(self):
        registry = TunedConfigRegistry()
        tuned = registry.spec_for("mesh-hotspot", max_rounds=100, engine="rounds")
        plain = RunSpec(scenario="mesh-hotspot", algorithm="pplb",
                        max_rounds=100, engine="rounds")
        assert tuned.key() == plain.key()

    def test_empty_override_entry_spec_key_equals_default(self):
        # A session where the paper default won writes overrides={} —
        # adopting that registry must not orphan any cache entry.
        registry = TunedConfigRegistry()
        registry.put("mesh-hotspot", entry())
        tuned = registry.spec_for("mesh-hotspot", max_rounds=100)
        plain = RunSpec(scenario="mesh-hotspot", algorithm="pplb", max_rounds=100)
        assert tuned.key() == plain.key()

    def test_tuned_spec_key_differs_from_default(self):
        registry = TunedConfigRegistry()
        registry.put("mesh-hotspot", entry(mu_s_base=2.0))
        tuned = registry.spec_for("mesh-hotspot", max_rounds=100)
        plain = RunSpec(scenario="mesh-hotspot", algorithm="pplb", max_rounds=100)
        assert tuned.key() != plain.key()
        assert tuned.algorithm_kwargs == {"mu_s_base": 2.0}

    def test_cache_key_stable_across_processes(self):
        registry = TunedConfigRegistry()
        registry.put("mesh-hotspot", entry(mu_s_base=2.0, candidates_per_node=8))
        local = registry.spec_for("mesh-hotspot", max_rounds=100,
                                  engine="rounds").key()
        script = (
            "from repro.tuning import TunedConfig, TunedConfigRegistry\n"
            "r = TunedConfigRegistry()\n"
            "r.put('mesh-hotspot', TunedConfig(overrides="
            "{'mu_s_base': 2.0, 'candidates_per_node': 8}))\n"
            "print(r.spec_for('mesh-hotspot', max_rounds=100, "
            "engine='rounds').key())\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert fresh == local


class TestDiskFormat:
    def test_save_load_save_is_byte_identical(self, tmp_path):
        registry = TunedConfigRegistry()
        registry.put("mesh:4x4+hotspot", entry(mu_s_base=2.0, beta0=0.3))
        registry.put("torus-hotspot", entry())
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        registry.save(first)
        TunedConfigRegistry.load(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_file_ends_with_single_newline(self, tmp_path):
        path = tmp_path / "reg.json"
        TunedConfigRegistry().save(path)
        text = path.read_text()
        assert text.endswith("}\n") and not text.endswith("\n\n")

    def test_missing_file_loads_empty(self, tmp_path):
        registry = TunedConfigRegistry.load(tmp_path / "absent.json")
        assert len(registry) == 0

    def test_invalid_json_raises(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            TunedConfigRegistry.load(path)

    def test_unknown_top_level_key_raises(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps(
            {"format": REGISTRY_FORMAT, "configs": {}, "extra": 1}
        ))
        with pytest.raises(ConfigurationError, match="extra"):
            TunedConfigRegistry.load(path)

    def test_unsupported_format_raises(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({"format": 99, "configs": {}}))
        with pytest.raises(ConfigurationError, match="unsupported format"):
            TunedConfigRegistry.load(path)

    def test_non_object_payload_raises(self):
        with pytest.raises(ConfigurationError, match="JSON object"):
            TunedConfigRegistry.from_dict([1, 2, 3])

    def test_non_mapping_configs_raises(self):
        with pytest.raises(ConfigurationError, match="mapping"):
            TunedConfigRegistry.from_dict(
                {"format": REGISTRY_FORMAT, "configs": [1]}
            )

    def test_bad_entry_inside_file_names_scenario(self, tmp_path):
        path = tmp_path / "reg.json"
        path.write_text(json.dumps({
            "format": REGISTRY_FORMAT,
            "configs": {"mesh-hotspot": {"surprise": 1}},
        }))
        with pytest.raises(ConfigurationError, match="mesh-hotspot"):
            TunedConfigRegistry.load(path)
