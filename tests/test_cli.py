"""Unit tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main

OUT_DIR = Path(__file__).resolve().parent.parent / "benchmarks" / "out"


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

    def test_experiments_print_their_second_tables(self, capsys):
        # E6 (launch by workload) and E11 (loss at battery failure) each
        # print a second table after their notes; the committed
        # benchmarks/out files are this output.
        assert main(["experiments", "E6", "E11"]) == 0
        out = capsys.readouterr().out
        for eid, header in (("E6", "dram_pages_per_launch"), ("E11", "KB_lost_at_failure")):
            committed = (OUT_DIR / f"{eid}.txt").read_text(encoding="utf-8")
            assert header in committed
            assert committed + "\n" in out


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
