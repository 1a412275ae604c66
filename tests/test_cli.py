"""Command-line interface tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from misolim.cli import config_from_args, main, parse_config_file


class TestParseConfigFile:
    def test_full_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# sweep setup\n"
            "experiment = capacity-vs-n\n"
            "seed = 7\n"
            "samples = 2000\n"
            "n-grid = 2, 4, 8\n"
            "snr_db = 0 20\n"
            "kappa = 0.0025\n"
            "t = 0.25,0.5\n"
            "workers = 2\n"
            "out = table.csv\n"
        )
        opts = parse_config_file(str(cfg))
        assert opts == {
            "experiment": "capacity-vs-n", "seed": 7, "samples": 2000,
            "n_grid": [2, 4, 8], "snr_db": [0.0, 20.0], "kappa": [0.0025],
            "t": [0.25, 0.5], "workers": 2, "out": "table.csv"}

    def test_rejects_unknown_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment = capacity-vs-n\nbogus = 1\n")
        with pytest.raises(ValueError, match="bogus"):
            parse_config_file(str(cfg))

    def test_rejects_missing_equals(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("experiment capacity-vs-n\n")
        with pytest.raises(ValueError, match="key = value"):
            parse_config_file(str(cfg))

    @pytest.mark.parametrize("line", ["seed = abc", "n-grid = 4,x",
                                      "kappa = 0.01,low", "samples = 2.5"])
    def test_bad_value_has_location(self, tmp_path, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"experiment = capacity-vs-n\n# note\n{line}\n")
        with pytest.raises(ValueError) as exc:
            parse_config_file(str(cfg))
        assert str(exc.value).startswith(f"{cfg}:3:")


class TestConfigFromArgs:
    def test_flags_only(self):
        cfg = config_from_args([
            "--experiment", "estimation-error", "--seed", "3",
            "--samples", "1500", "--n-grid", "4,8", "--snr-db", "0 10",
            "--kappa", "0.01", "--workers", "2"])
        assert cfg.experiment == "estimation-error"
        assert cfg.seed == 3 and cfg.n_samples == 1500
        assert cfg.n_grid == [4, 8] and cfg.snr_db == [0.0, 10.0]
        assert cfg.kappa == [0.01] and cfg.workers == 2

    def test_flags_override_config_file(self, tmp_path):
        f = tmp_path / "run.cfg"
        f.write_text("experiment = capacity-vs-n\nseed = 1\nsamples = 1000\n")
        cfg = config_from_args(["--config", str(f), "--seed", "9"])
        assert cfg.seed == 9 and cfg.n_samples == 1000
        assert cfg.experiment == "capacity-vs-n"

    def test_missing_experiment(self):
        with pytest.raises(ValueError, match="experiment"):
            config_from_args(["--seed", "1"])

    @pytest.mark.parametrize("flag", ["--n-grid", "--snr-db", "--kappa", "--t"])
    def test_negative_list_after_flag(self, flag):
        # argparse on its own reads "-1,2" as an unknown option and exits
        def outcome(argv):
            try:
                return config_from_args(["--experiment", "estimation-error"]
                                        + argv)
            except ValueError as exc:
                return str(exc)

        spaced = outcome([flag, "-1,2"])
        assert spaced == outcome([f"{flag}=-1,2"])
        if flag == "--snr-db":
            assert spaced.snr_db == [-1.0, 2.0]
        else:
            assert "got -1" in spaced


class TestMain:
    ARGS = ["--experiment", "capacity-vs-n", "--samples", "1000",
            "--n-grid", "2", "--kappa", "0.0025"]

    def test_writes_csv_file(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(self.ARGS + ["--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("experiment,n,snr_db")
        assert len(lines) == 5  # header + 4 metrics for one grid point
        assert capsys.readouterr().out == ""  # CSV went to the file only

    def test_stdout_when_no_out(self, capsys):
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert out.startswith("experiment,n,snr_db")
        assert len(out.splitlines()) == 5

    def test_identical_output_for_same_invocation(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(self.ARGS + ["--seed", "5", "--out", str(a)]) == 0
        assert main(self.ARGS + ["--seed", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_error_exit_code(self, capsys):
        assert main(["--seed", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_bad_config_path(self, capsys):
        assert main(["--config", "/nonexistent/run.cfg"]) == 2

    def test_bad_sample_count(self, capsys):
        assert main(self.ARGS[:2] + ["--samples", "10"]) == 2

    @pytest.mark.parametrize("bad", [["--kappa=-1"], ["--kappa", "nan"],
                                     ["--snr-db", "nan"], ["--n-grid", "0"],
                                     ["--seed=-3"]])
    def test_bad_grid_value_rejected_before_work(self, bad, capsys):
        assert main(self.ARGS + bad) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")

    @pytest.mark.parametrize("bad", [["--seed", "abc"], ["--workers", "x"],
                                     ["--experiment", "bogus"], ["--bogus"]])
    def test_argparse_error_is_one_line(self, bad, capsys):
        assert main(self.ARGS + bad) == 2
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert captured.out == ""

    @pytest.mark.parametrize("flag,value,token", [
        ("--n-grid", "4,x", "'x'"), ("--snr-db", "0,ten", "'ten'"),
        ("--kappa", "0.01,low", "'low'"), ("--t", "0.5 half", "'half'")])
    def test_bad_list_token_names_flag(self, flag, value, token, capsys):
        assert main(self.ARGS + [flag, value]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
        assert flag in err[0] and token in err[0]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage:" in capsys.readouterr().out


def _env_with_src():
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)


# Grid values whose linear power overflows or underflows to 0: rejected
# with one line before any work, not by a traceback from the sweep.
@pytest.mark.parametrize("argv", [
    ["--experiment", "capacity-vs-n", "--n-grid", "4", "--snr-db", "4000"],
    ["--experiment", "capacity-vs-n", "--n-grid", "4", "--snr-db=-4000"],
    ["--experiment", "energy-efficiency", "--n-grid", "2", "--t", "2000"],
], ids=["overflow", "underflow", "ee-scaling"])
def test_out_of_range_power_rejected_before_work(argv):
    done = subprocess.run([sys.executable, "-m", "misolim.cli", *argv],
                          env=_env_with_src(), capture_output=True,
                          text=True, timeout=120)
    err = done.stderr.splitlines()
    assert done.returncode == 2
    assert len(err) == 1 and err[0].startswith("error:")
    assert "Traceback" not in done.stderr and done.stdout == ""


# Runs one tiny point of each experiment through cli.main in a fresh
# interpreter and prints, as JSON, the modules each run_experiment call
# imported and whether scipy was ever loaded.
_IMPORT_PROBE = """
import json, sys
import misolim.cli as cli

run, fresh = cli.run_experiment, {}

def probe(cfg):
    before = set(sys.modules)
    table = run(cfg)
    fresh[cfg.experiment] = sorted(set(sys.modules) - before)
    return table

cli.run_experiment = probe
one = ["--n-grid", "2", "--samples", "1000", "--out", sys.argv[1]]
for argv in (["--experiment", "estimation-error", "--snr-db", "10",
              "--kappa", "0.0025"],
             ["--experiment", "capacity-vs-n", "--kappa", "0.0025"],
             ["--experiment", "capacity-vs-kappa", "--kappa", "0.0025"],
             ["--experiment", "energy-efficiency", "--t", "0.25"]):
    assert cli.main(argv + one) == 0
print(json.dumps({"fresh": fresh, "scipy": "scipy" in sys.modules}))
"""


def test_runs_import_nothing_and_need_no_scipy(tmp_path):
    # scipy is only a test dependency, and every module a run needs is
    # loaded with the package, not inside the timed sweep
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(tmp_path / "one.csv")],
        env=_env_with_src(), capture_output=True, text=True, check=True,
        timeout=120)
    report = json.loads(done.stdout)
    assert report["scipy"] is False
    assert report["fresh"] == {name: [] for name in (
        "estimation-error", "capacity-vs-n", "capacity-vs-kappa",
        "energy-efficiency")}
