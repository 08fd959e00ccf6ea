"""The one kernel tier: the python kernels, and the injection seam."""

import pytest

from repro.errors import PartitioningError
from repro.kernels import PYTHON_KERNELS, KernelBackend, kernels_for
from repro.kernels.python_backend import PythonBackend
from repro.partitioner.config import PartitionerConfig


class TestRegistry:
    def test_python_always_available(self):
        assert isinstance(PYTHON_KERNELS, PythonBackend)
        assert kernels_for(PartitionerConfig()) is PYTHON_KERNELS

    def test_resolve_passthrough_instance(self, reference_kernels):
        cfg = PartitionerConfig(kernel_backend=reference_kernels)
        assert kernels_for(cfg) is reference_kernels

    def test_backends_are_singletons(self):
        assert kernels_for(PartitionerConfig(name="a")) is kernels_for(
            PartitionerConfig(name="b")
        )

    def test_base_class_is_abstract(self):
        kb = KernelBackend()
        with pytest.raises(NotImplementedError):
            kb.fm_pass(None, None, None, None, None)


class TestConfigKnob:
    def test_default_is_python_kernels(self):
        assert PartitionerConfig().kernel_backend is None

    def test_explicit_backend_accepted(self, reference_kernels):
        """A :class:`KernelBackend` instance is the one accepted value:
        the seam the benchmark harness injects its baselines through."""
        cfg = PartitionerConfig(kernel_backend=reference_kernels)
        assert cfg.kernel_backend is reference_kernels

    @pytest.mark.parametrize("name", ["numba", "python", "auto"])
    def test_backend_names_rejected(self, name):
        """The kernel backends were removed: a name fails loudly instead
        of being silently ignored."""
        with pytest.raises(PartitioningError, match="removed"):
            PartitionerConfig(kernel_backend=name)

    def test_bad_backend_rejected(self):
        with pytest.raises(PartitioningError, match="kernel backend"):
            PartitionerConfig(kernel_backend="gpu")
