"""Tests for the canned paper-artifact experiments (on tiny sweeps)."""

import pytest

from repro.eval import experiments as exp
from repro.eval.runner import PAPER_METHODS, run_methods
from repro.sparse.collection import build_collection


@pytest.fixture(scope="module")
def small_data():
    """A fast six-method sweep over a few small instances."""
    entries = build_collection(tier="small")[:4]
    return run_methods(entries, PAPER_METHODS, nruns=1, base_seed=99)


@pytest.fixture(scope="module")
def small_data_bsp():
    entries = build_collection(tier="small")[:3]
    return run_methods(
        entries, PAPER_METHODS, nruns=1, base_seed=99, with_bsp=True,
        config="patoh",
    )


class TestFig3:
    def test_demo_runs(self):
        report = exp.run_fig3_demo(nruns=3, seed=1)
        assert "47 x 47" in report.text
        assert "264" in report.text
        assert "mediumgrain" in report.text
        rows = report.tables["volumes"]
        assert rows[0] == ["method", "best_volume", "mean_volume"]
        assert len(rows) == 9  # header + 4 methods x (plain, +ir)

    def test_demo_written_to_disk(self, tmp_path):
        report = exp.run_fig3_demo(nruns=2, seed=1)
        report.write(tmp_path)
        assert (tmp_path / "fig3.txt").exists()
        assert (tmp_path / "fig3_volumes.csv").exists()


class TestFig4(object):
    def test_profiles_built_per_class(self, small_data):
        report = exp.run_fig4_profiles(small_data)
        assert "all" in report.profiles
        # The tiny sweep covers at least one named class.
        assert len(report.profiles) >= 2
        for profile in report.profiles.values():
            assert set(profile.fractions) == {
                "LB", "LB+IR", "MG", "MG+IR", "FG", "FG+IR"
            }

    def test_chart_text_rendered(self, small_data):
        report = exp.run_fig4_profiles(small_data)
        assert "Communication volume relative to best" in report.text

    def test_csv_tables_emitted(self, small_data, tmp_path):
        report = exp.run_fig4_profiles(small_data)
        report.write(tmp_path)
        assert (tmp_path / "fig4_all.csv").exists()


class TestFig5:
    def test_time_profile(self, small_data):
        report = exp.run_fig5_time_profile(small_data)
        assert "all" in report.profiles
        assert "Partitioning time" in report.text
        # Time profiles never drop instances.
        assert report.profiles["all"].dropped == ()


class TestTable1:
    def test_geomeans_table(self, small_data):
        report = exp.run_table1_geomeans(small_data)
        rows = report.tables["geomeans"]
        header = rows[0]
        assert header[:2] == ["metric", "class"]
        assert "LB" in header and "MG+IR" in header
        # LB column is exactly 1.0 everywhere (it is the reference).
        lb_idx = header.index("LB")
        for row in rows[1:]:
            assert row[lb_idx] == pytest.approx(1.0)

    def test_contains_all_classes_section(self, small_data):
        report = exp.run_table1_geomeans(small_data)
        assert "All" in report.text


class TestFig6Table2:
    def test_fig6_profiles(self, small_data_bsp):
        report = exp.run_fig6_profiles(small_data_bsp, None)
        assert "p2" in report.profiles
        assert "patoh" in report.text

    def test_table2(self, small_data_bsp):
        report = exp.run_table2_geomeans(small_data_bsp, None)
        rows = report.tables["geomeans"]
        metrics = {row[0] for row in rows[1:]}
        assert metrics == {"Vol", "Cost"}


class TestSweepCache:
    def test_collect_memoizes(self):
        d1 = exp.collect_paper_runs(tier="small", max_tier=None, nruns=1,
                                    base_seed=123)
        d2 = exp.collect_paper_runs(tier="small", max_tier=None, nruns=1,
                                    base_seed=123)
        assert d1 is d2


class TestFig6WithP64Data:
    def test_both_panels_when_p64_supplied(self, small_data_bsp):
        """Reusing the p=2 sweep as a stand-in p64 dataset exercises the
        two-panel path cheaply."""
        report = exp.run_fig6_profiles(small_data_bsp, small_data_bsp)
        assert set(report.profiles) == {"p2", "p64"}
        assert "p64" in report.text

    def test_table2_both_p(self, small_data_bsp):
        report = exp.run_table2_geomeans(small_data_bsp, small_data_bsp)
        rows = report.tables["geomeans"]
        ps = {str(r[1]) for r in rows[1:]}
        assert ps == {"2", "64"}

    def test_table2_with_kway_data(self, small_data_bsp):
        """The k-way sweep adds the method-family comparison, normalized
        by the recursive MG runs of the same instances and seeds."""
        from repro.sparse.collection import load_instance

        big = 1750
        data_kway = exp.collect_kway_runs(
            max_tier="small", nparts=4, min_nnz=big
        )
        entries = [
            e for e in build_collection(max_tier="small")
            if load_instance(e.name).nnz >= big
        ]
        data_pway = run_methods(
            entries, PAPER_METHODS, nruns=1, nparts=4, config="patoh",
            with_bsp=True,
        )
        assert data_kway.methods() == ["kway+ml"]
        assert data_kway.instances() == data_pway.instances()
        report = exp.run_table2_geomeans(
            small_data_bsp, data_pway, data_kway
        )
        assert "recursive MG vs direct k-way" in report.text
        header, *rows = report.tables["kway_families"]
        assert header == ["metric", "p", "MG", "kway+ml"]
        assert [r[:3] for r in rows] == [
            ["Vol", "64", 1.0], ["Cost", "64", 1.0],
        ]
        pway = report.tables["kway_pway"][1:]
        assert len(pway) == 2 * len(entries)
