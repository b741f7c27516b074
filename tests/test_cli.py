"""The repro-xmap command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_census_defaults(self):
        args = build_parser().parse_args(["census"])
        assert args.scale == 20_000.0
        assert args.rate == 25_000.0
        assert args.isp is None

    def test_isp_repeatable(self):
        args = build_parser().parse_args(
            ["loops", "--isp", "in-jio-broadband", "--isp", "cn-mobile-broadband"]
        )
        assert args.isp == ["in-jio-broadband", "cn-mobile-broadband"]


class TestCommands:
    def test_feasibility(self, capsys):
        assert main(["feasibility", "--gbps", "1"]) == 0
        out = capsys.readouterr().out
        assert "2^40" in out or "/24 block" in out
        assert "days" in out

    def test_attack(self, capsys):
        assert main(["attack"]) == 0
        out = capsys.readouterr().out
        assert "link crossings measured" in out

    def test_census_one_block(self, capsys, tmp_path):
        csv_path = tmp_path / "census.csv"
        assert main([
            "census", "--isp", "in-bsnl-broadband", "--scale", "20000",
            "--csv", str(csv_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "BSNL" in out
        assert csv_path.exists()
        assert "last_hop" in csv_path.read_text().splitlines()[0]

    def test_loops_one_block(self, capsys):
        assert main([
            "loops", "--isp", "cn-unicom-broadband", "--scale", "50000",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table XI" in out

    def test_services_one_block(self, capsys):
        assert main([
            "services", "--isp", "us-centurylink-broadband",
            "--scale", "20000",
        ]) == 0
        out = capsys.readouterr().out
        assert "Table VII" in out

    def test_disclose_one_block(self, capsys):
        assert main([
            "disclose", "--isp", "cn-unicom-broadband", "--scale", "30000",
        ]) == 0
        out = capsys.readouterr().out
        assert "Responsible disclosure summary" in out
        assert "tracking numbers" in out

    def test_bad_isp_key(self):
        with pytest.raises(KeyError):
            main(["census", "--isp", "not-a-key"])


class TestStagesMatchTheReport:
    """``census``, ``services`` and ``loops`` drive the same stage
    functions as ``reproduce_all``, so at the committed report's scale
    and seed every table they print is a block of that report."""

    BLOCKS = set((
        Path(__file__).resolve().parent.parent / "reproduction_report.txt"
    ).read_text().strip("\n").split("\n\n"))

    @pytest.mark.parametrize("command", ["census", "services", "loops"])
    def test_printed_tables_are_report_sections(self, capsys, command):
        assert main([command, "--scale", "100000", "--seed", "7"]) == 0
        blocks = capsys.readouterr().out.strip("\n").split("\n\n")
        assert len(blocks) == {"census": 3, "services": 2, "loops": 1}[
            command]
        for block in blocks:
            assert block in self.BLOCKS, block
