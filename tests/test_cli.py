"""Unit tests for the command-line interface."""

import os

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.organization == "solid_state"
        assert args.workload == "office"

    def test_bad_organization_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--organization", "cloud"])

    def test_bad_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--workload", "doom"])


class TestCommands:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "KittyHawk" in out
        assert "NEC" in out

    def test_trends(self, capsys):
        assert main(["trends"]) == 0
        out = capsys.readouterr().out
        assert "crossover" in out
        assert "1996" in out or "1995" in out

    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("office", "pim", "database"):
            assert name in out

    def test_run_pim(self, capsys):
        rc = main(["run", "--workload", "pim", "--duration", "20"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "write-traffic reduction" in out
        assert "solid_state" in out

    def test_run_disk_org(self, capsys):
        rc = main(
            ["run", "--organization", "disk", "--workload", "pim", "--duration", "15"]
        )
        assert rc == 0
        assert "disk" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(["compare", "--workload", "pim", "--duration", "15"])
        assert rc == 0
        out = capsys.readouterr().out
        for org in ("solid_state", "disk", "flash_disk", "flash_eip", "naive_flash"):
            assert org in out

    def test_experiment_e1(self, capsys):
        rc = main(["experiments", "E1"])
        assert rc == 0
        assert "[E1]" in capsys.readouterr().out

    def test_experiment_lowercase(self, capsys):
        assert main(["experiments", "e2"]) == 0
        assert "[E2]" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err


class TestExperimentsCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["experiments", "--all"])
        assert args.jobs == 1
        assert not args.profile

    def test_unknown_id(self, capsys):
        assert main(["experiments", "E99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_parallel_output_identical_to_serial(self, capsys):
        assert main(["experiments", "E1", "E2"]) == 0
        serial = capsys.readouterr().out
        assert main(["experiments", "E1", "E2", "-j", "2"]) == 0
        parallel = capsys.readouterr().out
        assert parallel == serial
        assert "[E1]" in serial and "[E2]" in serial

    def test_profile_dumps_pstats(self, capsys, tmp_path):
        rc = main(["experiments", "E1", "--profile", "--profile-dir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "E1.pstats").exists()
        summary = (tmp_path / "E1.txt").read_text()
        assert "cumulative" in summary


class TestBenchCommand:
    @pytest.fixture()
    def tiny_benches(self, monkeypatch):
        # Real benches take seconds each; the CLI plumbing is what is
        # under test here, so substitute instant fakes.
        from repro.analysis import perfbench

        monkeypatch.setattr(
            perfbench, "BENCHES", {"fake_per_s": lambda quick=True: 123.0}
        )
        return perfbench

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.threshold == 0.20
        assert args.dir == os.path.join("benchmarks", "trajectory")

    def test_bench_prints_table(self, capsys, tiny_benches):
        assert main(["bench", "--repeats", "1"]) == 0
        assert "fake_per_s" in capsys.readouterr().out

    def test_bench_json_writes_trajectory(self, capsys, tmp_path, tiny_benches):
        assert main(["bench", "--json", "--repeats", "1", "--dir", str(tmp_path)]) == 0
        names = [n for n in os.listdir(tmp_path) if n.startswith("BENCH_")]
        assert len(names) == 1

    def test_bench_check_without_baseline(self, capsys, tmp_path, tiny_benches):
        assert main(["bench", "--check", "--repeats", "1", "--dir", str(tmp_path)]) == 2
        assert "no baseline" in capsys.readouterr().err

    def test_bench_check_flags_regression(self, capsys, tmp_path, tiny_benches):
        record = tiny_benches.trajectory_record(
            {"fake_per_s": 1000.0}, stamp="20250101_000000"
        )
        tiny_benches.write_trajectory(record, str(tmp_path))
        rc = main(["bench", "--check", "--repeats", "1", "--dir", str(tmp_path)])
        assert rc == 1
        assert "BENCH FAILED" in capsys.readouterr().err

    def test_bench_check_passes_and_skips_own_file(self, capsys, tmp_path, tiny_benches):
        record = tiny_benches.trajectory_record(
            {"fake_per_s": 120.0}, stamp="20250101_000000"
        )
        tiny_benches.write_trajectory(record, str(tmp_path))
        rc = main(
            ["bench", "--json", "--check", "--repeats", "1", "--dir", str(tmp_path)]
        )
        assert rc == 0
        assert "bench ok vs 20250101_000000" in capsys.readouterr().out
