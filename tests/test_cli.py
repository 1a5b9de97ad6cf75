"""Tests for the command-line interface."""

import json

import numpy as np
import pytest

from repro.analysis.cli import main as lint_main
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_sim_defaults(self):
        args = build_parser().parse_args(["sim"])
        assert args.seed == 2002
        assert args.train == 100
        assert args.stimulus == "ga"

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["wat"])

    def test_streaming_defaults(self):
        serve = build_parser().parse_args(["serve"])
        assert serve.seconds == 10.0
        assert serve.interval == 25
        soak = build_parser().parse_args(["soak"])
        assert soak.seconds == 60.0
        assert soak.lot_size == 16
        assert soak.cells == 4
        assert soak.max_pending == 8
        assert soak.output == "benchmarks/results/streaming_soak.json"


class TestCommands:
    def test_sim_reduced(self, capsys):
        code = main(
            ["sim", "--seed", "5", "--train", "20", "--val", "8",
             "--stimulus", "ramp"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gain_db" in out
        assert "paper 0.060" in out

    def test_hardware_fast(self, capsys):
        code = main(
            ["hardware", "--seed", "3", "--cal", "14", "--val", "8", "--fast"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "gain_db" in out
        assert "paper 0.16" in out

    def test_phase(self, capsys):
        code = main(["phase", "--points", "5"])
        assert code == 0
        assert "worst-case" in capsys.readouterr().out

    def test_economics(self, capsys):
        code = main(["economics"])
        assert code == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_economics_multisite(self, capsys):
        code = main(["economics", "--sites", "4"])
        assert code == 0
        assert "4 sites" in capsys.readouterr().out

    def test_report_fast(self, tmp_path, capsys):
        out_path = tmp_path / "report.md"
        code = main(["report", str(out_path), "--fast"])
        assert code == 0
        text = out_path.read_text()
        assert "# Reproduction report" in text
        assert "gain_db" in text
        assert "Phase robustness" in text
        assert "Hardware" not in text  # --fast skips it

    def test_serve_live_stream(self, capsys):
        code = main(
            ["serve", "--seconds", "30", "--lots", "2", "--lot-size", "3",
             "--train", "8", "--interval", "1", "--seed", "7"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "DUTs/s" in out  # live metrics lines
        assert "first lot bit-identical to offline flow: True" in out
        assert "health:     ok" in out

    def test_soak_writes_metrics_json(self, tmp_path, capsys):
        out_path = tmp_path / "soak.json"
        code = main(
            ["soak", "--seconds", "30", "--lots", "3", "--lot-size", "4",
             "--train", "8", "--seed", "7", "--executor", "thread:2",
             "--output", str(out_path)]
        )
        assert code == 0
        assert "soak metrics written to" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["benchmark"] == "streaming_soak"
        assert payload["lots_submitted"] == 3
        assert payload["devices_tested"] == 12
        assert payload["duts_per_second"] > 0
        assert payload["first_lot_bit_identical_to_offline"] is True
        assert payload["healthy"] is True

    def test_program_roundtrip(self, tmp_path, capsys):
        from repro.runtime.artifacts import load_test_program

        out_path = tmp_path / "lna.rtp"
        code = main(["program", str(out_path), "--seed", "2002"])
        assert code == 0
        program = load_test_program(out_path)
        assert program.metadata["dut"] == "LNA900"
        # the saved program predicts sane specs for a nominal device
        from repro.circuits.lna import LNA900
        from repro.loadboard.signature_path import (
            SignatureTestBoard,
            simulation_config,
        )

        board = SignatureTestBoard(simulation_config())
        sig = board.signature(LNA900(), program.stimulus,
                              rng=np.random.default_rng(0))
        specs = program.calibration.predict(sig)
        assert specs.gain_db == pytest.approx(LNA900().gain_db(), abs=0.3)


BAD_MODULE = (
    "import math\n"
    "__all__ = []\n"
    "def _gain(x):\n"
    "    return 20.0 * math.log10(x)\n"
)

CLEAN_MODULE = "__all__ = []\nX = 1\n"


class TestLintCLI:
    """signature-lint via both `python -m repro.analysis` and `repro lint`."""

    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_MODULE)
        assert lint_main([str(tmp_path)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one_with_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MODULE)
        assert lint_main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "bad.py:4" in out
        assert "units-inline-db-conversion" in out

    def test_json_output_is_parseable(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MODULE)
        assert lint_main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["count"] == 1
        assert payload["findings"][0]["rule"] == "units-inline-db-conversion"
        assert payload["findings"][0]["line"] == 4

    def test_missing_path_exits_two(self, tmp_path, capsys):
        assert lint_main([str(tmp_path / "nope")]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_rule_name_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN_MODULE)
        assert lint_main([str(tmp_path), "--select", "no-such-rule"]) == 2
        assert "no-such-rule" in capsys.readouterr().err

    def test_select_and_ignore_filter_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MODULE)
        assert lint_main([str(bad), "--ignore", "units-inline-db-conversion"]) == 0
        capsys.readouterr()
        assert lint_main([str(bad), "--select", "units-inline-db-conversion"]) == 1

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for name in (
            "units-inline-db-conversion",
            "determinism-unseeded-rng",
            "api-missing-all",
            "numerics-bare-assert",
        ):
            assert name in out

    def test_repro_lint_subcommand(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text(BAD_MODULE)
        assert main(["lint", str(bad)]) == 1
        assert "units-inline-db-conversion" in capsys.readouterr().out
        capsys.readouterr()
        (tmp_path / "ok.py").write_text(CLEAN_MODULE)
        assert main(["lint", str(tmp_path / "ok.py"), "--format", "json"]) == 0

    def test_repro_lint_lists_the_same_rules(self, capsys):
        # `repro lint` parses its options with repro.analysis's own parser
        assert lint_main(["--list-rules"]) == 0
        expected = capsys.readouterr().out
        assert main(["lint", "--list-rules"]) == 0
        assert capsys.readouterr().out == expected
        assert len(expected.splitlines()) == 14
