"""Tests for partitioner configuration and presets."""

import pytest

from repro.errors import PartitioningError
from repro.partitioner.config import PRESETS, PartitionerConfig, get_config


class TestPresets:
    def test_both_presets_exist(self):
        assert set(PRESETS) == {"mondriaan", "patoh"}

    def test_presets_genuinely_differ(self):
        m = PRESETS["mondriaan"]
        p = PRESETS["patoh"]
        assert m.matching != p.matching
        assert m.boundary_only != p.boundary_only
        assert m.coarse_target != p.coarse_target
        assert m.fm_max_passes != p.fm_max_passes

    def test_get_config_by_name(self):
        assert get_config("patoh").name == "patoh"

    def test_get_config_passthrough(self):
        cfg = PartitionerConfig(name="custom", coarse_target=50)
        assert get_config(cfg) is cfg

    def test_unknown_preset(self):
        with pytest.raises(PartitioningError, match="unknown"):
            get_config("metis")

    def test_bad_type(self):
        with pytest.raises(PartitioningError):
            get_config(42)


class TestValidation:
    def test_bad_matching(self):
        with pytest.raises(PartitioningError, match="matching"):
            PartitionerConfig(matching="random")

    def test_bad_coarse_target(self):
        with pytest.raises(PartitioningError):
            PartitionerConfig(coarse_target=1)

    def test_bad_kway_vcycles(self):
        with pytest.raises(PartitioningError, match="kway_vcycles"):
            PartitionerConfig(kway_vcycles=-1)

    def test_zero_kway_vcycles_still_constructs(self):
        """Recursive runs never read ``kway_vcycles``, so the config
        accepts 0 (benchmark harnesses set it for their recursive
        workloads); only the k-way partitioner rejects it."""
        assert PartitionerConfig(kway_vcycles=0).kway_vcycles == 0

    def test_bad_fm_passes(self):
        with pytest.raises(PartitioningError):
            PartitionerConfig(fm_max_passes=0)

    def test_frozen(self):
        cfg = PartitionerConfig()
        with pytest.raises(Exception):
            cfg.coarse_target = 10
