"""End-to-end command-line behavior, including exit-code conventions."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from cfsearch.bench import CSV_HEADER
from cfsearch.cli import EXIT_IO, EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, main
from cfsearch.rings import SQRT3


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestSearchCommand:
    def test_vector_worked_example(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--h", "[[1,0],[0,1]]", "--P", "10", "--algorithm", "optimal"
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["f_min"] == pytest.approx(2.0, rel=1e-12)
        assert data["rate"] == pytest.approx(math.log2(10.5), rel=1e-12)
        assert (data["L"], data["k"]) == (2, 1)
        assert data["a_coord_labels"] == ["re", "im"]
        assert len(data["a"]) == 2 and len(data["a_values"]) == 2

    def test_snr_flag_sets_power(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--h", "[[1,0],[0,1]]", "--snr-db", "10", "--algorithm", "optimal"
        )
        assert code == EXIT_OK
        assert json.loads(out)["P"] == pytest.approx(10.0)

    def test_hex_ring_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--h", "[[1,0],[0,1]]", "--P", "10",
            "--ring", "eisenstein", "--algorithm", "optimal",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert data["f_min"] == pytest.approx(22.0 - 10.0 * SQRT3, rel=1e-12)
        assert data["a_coord_labels"] == ["a", "b"]

    def test_exhaustive_agrees_with_optimal(self, capsys):
        _, out_opt, _ = run_cli(
            capsys, "search", "--h", "[[0.4,-1.1],[1.3,0.2],[-0.6,0.9]]", "--P", "15",
            "--algorithm", "optimal",
        )
        code, out_exh, _ = run_cli(
            capsys, "search", "--h", "[[0.4,-1.1],[1.3,0.2],[-0.6,0.9]]", "--P", "15",
            "--algorithm", "exhaustive", "--prune", "cost",
        )
        assert code == EXIT_OK
        assert json.loads(out_exh)["f_min"] == pytest.approx(
            json.loads(out_opt)["f_min"], rel=1e-9
        )

    def test_matrix_channel_search(self, capsys):
        code, out, _ = run_cli(
            capsys, "search", "--h", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "--P", "1",
            "--algorithm", "mimo-optimal",
        )
        assert code == EXIT_OK
        data = json.loads(out)
        assert (data["L"], data["k"]) == (2, 2)
        assert data["f_min"] == pytest.approx(0.5, rel=1e-12)
        assert data["rate"] == pytest.approx(0.5, abs=1e-12)
        assert data["subsets_skipped"] == 0

    def test_channel_file(self, tmp_path, capsys):
        path = tmp_path / "chan.json"
        path.write_text("[[[1,0],[0,1],[0.5,0.5]],[[0,1],[1,0],[-0.5,0.5]]]")
        code, out, _ = run_cli(
            capsys, "search", "--channel-file", str(path), "--P", "5",
            "--algorithm", "mimo-optimal",
        )
        assert code == EXIT_OK
        assert json.loads(out)["k"] == 2


class TestExitCodes:
    def test_invalid_json_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "search", "--h", "not json", "--P", "1")
        assert code == EXIT_USAGE
        assert "error" in err

    def test_wrong_channel_shape_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "search", "--h", "[1, 2]", "--P", "1")
        assert code == EXIT_USAGE
        code, _, _ = run_cli(capsys, "search", "--h", "[[1,2],[3]]", "--P", "1")
        assert code == EXIT_USAGE

    def test_boolean_channel_entries_are_usage_errors(self, capsys):
        # JSON true/false are not numbers, in the vector and the matrix form
        for h in ("[[true,false],[1,0]]", "[[1,0],[0,true]]", "[[[1,0],[false,0]]]"):
            code, out, err = run_cli(capsys, "search", "--h", h, "--snr-db", "10")
            assert code == EXIT_USAGE, h
            assert "expected an [re, im] pair" in err and not out, h

    def test_vector_algorithm_on_matrix_channel_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--h", "[[[1,0],[0,0]],[[0,0],[1,0]]]", "--P", "1",
            "--algorithm", "optimal",
        )
        assert code == EXIT_USAGE

    def test_hex_ring_with_gaussian_only_algorithm_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "search", "--h", "[[1,0],[0,1]]", "--P", "1",
            "--ring", "eisenstein", "--algorithm", "clll",
        )
        assert code == EXIT_USAGE

    def test_iteration_cap_is_numeric_error(self, capsys):
        code, _, err = run_cli(
            capsys, "search",
            "--h", "[[0.3,-1.1],[-0.7,0.2],[1.4,0.9],[0,0.2]]", "--P", "80",
            "--algorithm", "clll", "--clll-max-iter", "1",
        )
        assert code == EXIT_NUMERIC
        assert "numeric error" in err

    def test_missing_files_are_io_errors(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "sweep", "--config", str(tmp_path / "nope.cfg"))
        assert code == EXIT_IO
        assert "i/o error" in err
        code, _, _ = run_cli(
            capsys, "search", "--channel-file", str(tmp_path / "nope.json"), "--P", "1"
        )
        assert code == EXIT_IO

    def test_bad_flags_are_usage_errors(self, capsys):
        assert main([]) == EXIT_USAGE
        assert main(["search", "--h", "[[1,0]]"]) == EXIT_USAGE  # no power given
        assert main(["search", "--h", "[[1,0]]", "--P", "1", "--algorithm", "magic"]) == EXIT_USAGE

    def test_version_exits_cleanly(self, capsys):
        assert main(["--version"]) == EXIT_OK


class TestSweepCommand:
    CONFIG = (
        "L = 2\nsnr_db_list = [0, 10]\ntrials = 3\nseed = 5\n"
        "algorithms = optimal, exhaustive\n"
    )

    def test_stdout_csv(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text(self.CONFIG)
        code, out, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 4  # two SNRs x two algorithms
        assert all(line.split(",")[8] == "1.000000" for line in lines[1:])

    def test_output_flag_writes_file(self, tmp_path, capsys):
        cfg_path = tmp_path / "sweep.cfg"
        cfg_path.write_text(self.CONFIG)
        out_path = tmp_path / "result.csv"
        code, out, _ = run_cli(
            capsys, "sweep", "--config", str(cfg_path), "--output", str(out_path)
        )
        assert code == EXIT_OK
        assert "wrote 4 records" in out
        lines = out_path.read_text().splitlines()
        assert lines[0] == CSV_HEADER and len(lines) == 5
        assert (tmp_path / "result.csv.meta.json").exists()

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text("L = 2\nsnr_db_list = [0]\ntrials = 0\nseed = 1\n")
        code, _, _ = run_cli(capsys, "sweep", "--config", str(path))
        assert code == EXIT_USAGE

    def test_malformed_config_value_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "sweep.cfg"
        path.write_text("L = 2\nsnr_db_list = 0, 10\ntrials = 1\nseed = 1\n")
        code, _, err = run_cli(capsys, "sweep", "--config", str(path))
        assert code == EXIT_USAGE
        assert "snr_db_list" in err and "internal error" not in err


class TestCompareCommand:
    def test_table_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--L", "2", "--snr-db", "10", "--trials", "2", "--seed", "3"
        )
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0].split()[:2] == ["snr_db", "algorithm"]
        body = "\n".join(lines[1:])
        for alg in ("optimal", "exhaustive", "clll", "qes"):
            assert alg in body
        opt_row = next(l for l in lines[1:] if " optimal" in " " + l.split()[1])
        assert "1.0000" in opt_row

    def test_hex_ring_uses_applicable_algorithms_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--L", "2", "--snr-db", "0", "--trials", "2",
            "--ring", "eisenstein",
        )
        assert code == EXIT_OK
        assert "clll" not in out and "qes" not in out

    def test_multi_antenna_compare(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--L", "2", "--k", "2", "--snr-db", "5", "--trials", "2"
        )
        assert code == EXIT_OK
        assert "mimo-optimal" in out


class TestSelftestCommand:
    def test_passes_at_reduced_scale(self, capsys):
        code, out, _ = run_cli(capsys, "selftest", "--trials", "2")
        assert code == EXIT_OK
        assert "matched the oracle" in out
        assert "MISMATCH" not in out


def test_negative_seed_is_usage_error(tmp_path, capsys):
    # numpy's generators take no negative seed; each front end says so first
    path = tmp_path / "sweep.cfg"
    path.write_text("L = 2\nsnr_db_list = [0]\ntrials = 2\nseed = -3\n")
    for argv in (
        ("compare", "--L", "2", "--snr-db", "0", "--trials", "2", "--seed", "-1"),
        ("selftest", "--trials", "1", "--seed", "-5"),
        ("sweep", "--config", str(path)),
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == EXIT_USAGE, argv
        assert "seed must be >= 0" in err and "internal error" not in err, argv


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_selftest_without_trials_is_usage_error(capsys, trials):
    code, out, err = run_cli(capsys, "selftest", "--trials", trials)
    assert code == EXIT_USAGE
    assert f"trials must be >= 1, got {trials}" in err and "matched the oracle" not in out


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "cfsearch.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "cfsearch" in proc.stdout
