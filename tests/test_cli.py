"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.sparse.io_mm import write_matrix_market
from repro.sparse.collection import load_instance


class TestParser:
    def test_partition_defaults(self):
        args = build_parser().parse_args(
            ["partition", "--instance", "sqr_er_s"]
        )
        assert args.method == "mediumgrain"
        assert args.eps == 0.03
        assert args.nparts == 2

    def test_requires_source(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["partition"])

    def test_sources_mutually_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--file", "x.mtx", "--instance", "sqr_er_s"]
            )

    def test_bad_method(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--instance", "a", "--method", "magic"]
            )

    def test_algo_flag(self):
        args = build_parser().parse_args(
            ["partition", "--instance", "sqr_er_s", "--algo", "kway"]
        )
        assert args.algo == "kway"
        args = build_parser().parse_args(
            ["experiment", "table2", "--algo", "kway"]
        )
        assert args.algo == "kway"
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["partition", "--instance", "a", "--algo", "magic"]
            )

    @pytest.mark.parametrize("command", [
        ["partition", "--instance", "sqr_er_s"], ["experiment", "fig3"],
    ])
    def test_removed_backend_flag_rejected(self, command, capsys):
        """``--backend`` went with the kernel backends: argparse refuses
        it (exit status 2) instead of ignoring it."""
        with pytest.raises(SystemExit) as exc:
            main(command + ["--backend", "python"])
        assert exc.value.code == 2
        assert "--backend" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["partition", "--instance", "sqr_er_s", "--algo", "kway"],
        ["experiment", "table2", "--algo", "kway"],
        ["submit", "--port", "1", "--instance", "sqr_er_s"],
    ])
    def test_flat_kway_vcycles_rejected(self, command, capsys):
        """``--kway-vcycles 0`` selected the removed flat path: argparse
        refuses it (exit status 2) and says why."""
        assert build_parser().parse_args(command).kway_vcycles == 1
        with pytest.raises(SystemExit) as exc:
            main(command + ["--kway-vcycles", "0"])
        assert exc.value.code == 2
        assert "flat direct k-way" in capsys.readouterr().err


class TestPartitionCommand:
    def test_instance_bipartition(self, capsys):
        rc = main(
            [
                "partition", "--instance", "sym_gd97_like",
                "--method", "mediumgrain", "--refine", "--seed", "1",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "communication vol" in out
        assert "mediumgrain+ir" in out
        assert "IR volume trace" in out

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "m.mtx"
        write_matrix_market(load_instance("sym_gd97_like"), path)
        rc = main(["partition", "--file", str(path), "--seed", "2"])
        assert rc == 0
        assert "47 x 47" in capsys.readouterr().out

    def test_pway_partition(self, capsys):
        rc = main(
            [
                "partition", "--instance", "sym_gd97_like",
                "--nparts", "4", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "recursive bisection" in out
        assert "nparts            : 4" in out

    def test_kway_partition(self, capsys):
        rc = main(
            [
                "partition", "--instance", "sym_gd97_like",
                "--nparts", "4", "--algo", "kway", "--seed", "3",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "direct k-way" in out
        assert "nparts            : 4" in out

    def test_save_parts(self, tmp_path, capsys):
        out_file = tmp_path / "parts.txt"
        rc = main(
            [
                "partition", "--instance", "sym_gd97_like",
                "--seed", "4", "--save-parts", str(out_file),
            ]
        )
        assert rc == 0
        parts = np.array(
            [int(x) for x in out_file.read_text().split()]
        )
        assert parts.size == load_instance("sym_gd97_like").nnz
        assert set(parts.tolist()) <= {0, 1}

    def test_pool_and_hardening_flags(self, tmp_path, capsys):
        """``--jobs 2 --task-timeout --retries`` run the recursion on the
        hardened pool and give the ``--jobs 1`` parts."""
        saved = {}
        for jobs, extra in (
            ("1", []), ("2", ["--task-timeout", "30", "--retries", "1"]),
        ):
            out_file = tmp_path / f"parts{jobs}.txt"
            rc = main(
                [
                    "partition", "--instance", "sym_gd97_like",
                    "--nparts", "4", "--seed", "4", "--jobs", jobs,
                    "--save-parts", str(out_file),
                ] + extra
            )
            assert rc == 0
            assert f"(jobs = {jobs})" in capsys.readouterr().out
            saved[jobs] = out_file.read_text()
        assert saved["2"] == saved["1"]


class TestExperimentCommand:
    def test_fig3(self, tmp_path, capsys):
        rc = main(
            ["experiment", "fig3", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "fig3.txt").exists()
        assert "walk-through" in capsys.readouterr().out


class TestSaveDist:
    def test_distributed_artifacts_written(self, tmp_path, capsys):
        rc = main(
            [
                "partition", "--instance", "sym_gd97_like",
                "--nparts", "4", "--seed", "5",
                "--save-dist", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "out-P4.mtx").exists()
        assert (tmp_path / "out-v4.mtx").exists()
        assert (tmp_path / "out-u4.mtx").exists()
        from repro.sparse.io_dist import read_distributed_matrix_market

        back, parts, nparts = read_distributed_matrix_market(
            tmp_path / "out-P4.mtx"
        )
        assert nparts == 4
        assert back == load_instance("sym_gd97_like")
