"""The `python -m repro` experiment CLI."""

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        assert capsys.readouterr().out.split() == [
            "F1", "F1b", "E1", "E2", "E3a", "E3b", "E3c", "E4", "E5", "E6",
            "E8", "E15", "E16", "YCSB",
        ]

    def test_single_experiment_prints_table(self, capsys):
        assert main(["E3a"]) == 0
        out = capsys.readouterr().out
        assert "anomaly occurrence" in out
        assert "write_skew" in out

    @pytest.mark.parametrize("name", ["E99", "E10", "E13"])
    def test_unknown_experiment_errors(self, name, capsys):
        with pytest.raises(SystemExit):
            main([name])
        assert f"unknown experiment(s): {name}" in capsys.readouterr().err

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        assert main(["E3a", "--out", str(target)]) == 0
        capsys.readouterr()
        assert "write_skew" in target.read_text()
