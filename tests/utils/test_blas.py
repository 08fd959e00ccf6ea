"""Tests for the scoped single-thread BLAS section."""

import numpy as np
import pytest

from repro.utils import blas
from repro.utils.blas import single_thread_blas


class FakeOpenBLAS:
    """Stands in for the resolved ``(get, set)`` entry points."""

    def __init__(self, threads):
        self.threads = threads
        self.calls = []

    def get(self):
        return self.threads

    def set(self, n):
        self.calls.append(n)
        self.threads = n


@pytest.fixture
def fake(monkeypatch):
    lib = FakeOpenBLAS(4)
    monkeypatch.setattr(blas, "_API", (lib.get, lib.set))
    return lib


def test_pins_one_thread_and_restores(fake):
    with single_thread_blas():
        assert fake.threads == 1
    assert fake.threads == 4
    assert fake.calls == [1, 4]


def test_restores_after_an_exception(fake):
    with pytest.raises(RuntimeError):
        with single_thread_blas():
            raise RuntimeError("boom")
    assert fake.threads == 4


def test_nested_sections_restore_once(fake):
    with single_thread_blas():
        with single_thread_blas():
            assert fake.threads == 1
        assert fake.threads == 1
    assert fake.calls == [1, 4]


def test_already_single_threaded_sets_nothing(fake):
    fake.threads = 1
    with single_thread_blas():
        pass
    assert fake.calls == []


def test_noop_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "_API", ())
    with single_thread_blas():
        w = np.linalg.eigvalsh(np.eye(3))
    np.testing.assert_allclose(w, 1.0)


def test_resolution_finds_nothing_without_libraries(monkeypatch):
    monkeypatch.setattr(blas, "_API", None)
    monkeypatch.setattr(blas, "_library_paths", lambda: iter(()))
    assert blas._resolve() == ()
    with single_thread_blas():
        pass


def test_real_openblas_count_is_restored(monkeypatch):
    monkeypatch.setattr(blas, "_API", None)
    api = blas._resolve()
    if not api:
        pytest.skip("numpy is not linked against OpenBLAS here")
    get, set_ = api
    before = get()
    set_(2)
    try:
        with single_thread_blas():
            assert get() == 1
        assert get() == 2
    finally:
        set_(before)
