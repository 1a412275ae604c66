"""Experiment driver and CSV determinism tests."""

import math
import os
import subprocess
import sys
import threading
import warnings
from unittest import mock

import numpy as np
import pytest

import misolim
from misolim.experiments import (
    CSV_COLUMNS,
    EXPERIMENTS,
    GRIDS,
    ExperimentConfig,
    _sweep,
    db_to_linear,
    run_experiment,
    write_csv,
)
from misolim.randmat import derive_seed


def row(**columns):
    """A table row from its column values, laid out by CSV_COLUMNS."""
    return tuple(columns.get(c) for c in CSV_COLUMNS)


def values(table, metric, **match):
    """Rows of ``table``, a row list, for one metric, filtered on exact
    column values."""
    out = []
    for row in table:
        rec = dict(zip(CSV_COLUMNS, row))
        if rec["metric"] == metric and all(rec[k] == v
                                           for k, v in match.items()):
            out.append(row)
    return out


def small_config(experiment, seed=1, **kw):
    """A small run of ``experiment``, given only the grids it reads."""
    grids = dict(n_grid=[2, 4], kappa=[0.0, 0.0025], t=[0.25, 0.5],
                 snr_db=[0.0] if experiment.startswith("capacity-")
                 else [0.0, 20.0])
    grids = {name: v for name, v in grids.items() if name in GRIDS[experiment]}
    grids.update(kw)
    return ExperimentConfig(experiment=experiment, seed=seed, n_samples=1000,
                            **grids)


class TestDbConversion:
    @pytest.mark.parametrize("db,lin", [(0.0, 1.0), (10.0, 10.0),
                                        (20.0, 100.0), (-10.0, 0.1)])
    def test_reference_points(self, db, lin):
        assert db_to_linear(db) == pytest.approx(lin, rel=1e-14)

    def test_round_trip(self):
        for db in (-30.0, -3.3, 0.0, 7.77, 50.0):
            assert 10.0 * math.log10(db_to_linear(db)) == pytest.approx(
                db, abs=1e-12)


class TestExperimentConfig:
    def test_rejects_unknown_experiment(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="bogus")

    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="capacity-vs-n", n_samples=10)

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            ExperimentConfig(experiment="capacity-vs-n", n_grid=[])

    @pytest.mark.parametrize("field, value", [
        ("seed", 1.5), ("seed", None), ("n_samples", 1500.5),
        ("n_samples", "2000"), ("workers", 2.0)])
    def test_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ExperimentConfig(experiment="capacity-vs-n", **{field: value})

    @pytest.mark.parametrize("field, value, message", [
        ("workers", True, "workers must be an integer"),
        ("seed", False, "seed must be an integer"),
        ("n_samples", True, "n_samples must be an integer"),
        ("n_grid", [4, True], "n_grid values must be integers")])
    def test_rejects_bools(self, field, value, message):
        # bool is a numbers.Integral, but True is no count or seed
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(experiment="capacity-vs-n", **{field: value})

    @pytest.mark.parametrize("experiment, grid", [
        (e, g) for e in EXPERIMENTS for g in ("n_grid", "snr_db", "kappa", "t")
        if g not in GRIDS[e]])
    def test_rejects_grid_it_does_not_read(self, experiment, grid):
        with pytest.raises(ValueError, match=f"reads no {grid} grid"):
            ExperimentConfig(experiment=experiment, **{grid: [1.0]})

    @pytest.mark.parametrize("experiment", ["capacity-vs-n",
                                            "capacity-vs-kappa"])
    def test_capacity_sweep_rejects_second_snr(self, experiment):
        ExperimentConfig(experiment=experiment, snr_db=[10.0])
        with pytest.raises(ValueError, match="one snr_db value"):
            ExperimentConfig(experiment=experiment, snr_db=[10.0, 20.0])

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_rejects_repeated_value(self, experiment):
        for grid, default in GRIDS[experiment].items():
            if grid == "snr_db" and len(default) == 1:
                continue  # a capacity sweep takes one SNR
            repeated = [default[0], default[-1], default[0]]
            with pytest.raises(ValueError, match=f"{grid} values must be distinct"):
                ExperimentConfig(experiment=experiment, **{grid: repeated})

    def test_unset_grid_resolves_to_default(self):
        cfg = ExperimentConfig(experiment="estimation-error")
        assert cfg.n_grid == [10, 100]
        assert cfg.t is None
        for experiment in EXPERIMENTS:
            cfg = ExperimentConfig(experiment=experiment)
            for grid, default in GRIDS[experiment].items():
                assert getattr(cfg, grid) == list(default)

    def test_accepts_numpy_integers(self):
        cfg = ExperimentConfig(experiment="capacity-vs-n", seed=np.int64(3),
                               n_samples=np.int32(2000), workers=np.int64(2))
        assert cfg.samples_for(4) == 2000

    def test_default_sample_rule(self):
        cfg = ExperimentConfig(experiment="capacity-vs-n")
        assert cfg.samples_for(256) == 10_000
        assert cfg.samples_for(512) == 1_000
        cfg2 = ExperimentConfig(experiment="capacity-vs-n", n_samples=2000)
        assert cfg2.samples_for(1024) == 2000


class TestWriteCsv:
    def test_header_only_for_empty_table(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_bytes() == (",".join(CSV_COLUMNS) + "\n").encode()

    def test_row_formatting(self, tmp_path):
        table = [row(experiment="capacity-vs-n",
                     metric="capacity_upper", value=1.0 / 3.0,
                     n=4, snr_db=20.0, kappa_bs=0.0025,
                     kappa_ut=0.0025)]
        path = tmp_path / "one.csv"
        write_csv(table, path)
        lines = path.read_text().splitlines()
        assert lines[1].split(",") == [
            "capacity-vs-n", "4", "20", "0.0025000000000000001", "0.0025000000000000001",
            "", "capacity_upper", "0.33333333333333331", ""]

    def test_lf_line_endings(self, tmp_path):
        table = [row(experiment="capacity-vs-n", metric="x", value=1.0)]
        path = tmp_path / "lf.csv"
        write_csv(table, path)
        raw = path.read_bytes()
        assert b"\r" not in raw and raw.endswith(b"\n")


class TestSweepTable:
    def test_values_filter(self):
        t = [row(experiment="e", metric="m", value=1.0, n=2),
             row(experiment="e", metric="m", value=2.0, n=4),
             row(experiment="e", metric="other", value=3.0, n=2)]
        rows = values(t, "m", n=2)
        assert len(rows) == 1 and rows[0][7] == 1.0


class TestSweep:
    """``_sweep``, the one per-N step: seed, sample count, progress line
    and row layout."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_calls_rows_and_progress(self, workers, capsys):
        cfg = ExperimentConfig(experiment="capacity-vs-n", seed=5,
                               n_grid=[300, 2, 64], kappa=[0.0, 0.01],
                               workers=workers)
        grid = [(k, n) for k in cfg.kappa for n in cfg.n_grid]
        calls = []

        def one_n(n, n_samples, seed):
            # points in reverse grid order, columns in no CSV order
            calls.append((n, n_samples, seed))
            return {(k, n): (dict(kappa_ut=2 * k, n=n, kappa_bs=k),
                             [("a", float(n), None), ("b", k, 0.5)])
                    for k in reversed(cfg.kappa)}

        table = _sweep(cfg, grid, one_n)
        assert sorted(calls) == sorted(
            (n, cfg.samples_for(n), derive_seed(cfg.seed, n))
            for n in cfg.n_grid)
        assert cfg.samples_for(300) != cfg.samples_for(2)
        want = []
        for k, n in grid:
            want += [row(experiment="capacity-vs-n", n=n, kappa_bs=k,
                         kappa_ut=2 * k, metric="a", value=float(n)),
                     row(experiment="capacity-vs-n", n=n, kappa_bs=k,
                         kappa_ut=2 * k, metric="b", value=k,
                         std_error=0.5)]
        assert table == want
        lines = capsys.readouterr().err.splitlines()
        assert sorted(lines) == sorted(f"capacity-vs-n: N={n} (2 points)"
                                       for n in cfg.n_grid)

    @pytest.mark.parametrize("experiment, points", [
        ("estimation-error", 4), ("capacity-vs-n", 2),
        ("capacity-vs-kappa", 2), ("energy-efficiency", 4)])
    def test_one_progress_line_per_n(self, experiment, points, capsys):
        # points per N: the grids of small_config other than n_grid
        cfg = small_config(experiment, workers=2)
        run_experiment(cfg)
        lines = capsys.readouterr().err.splitlines()
        assert sorted(lines) == sorted(f"{experiment}: N={n} ({points} points)"
                                       for n in cfg.n_grid)


class TestNoThreads:
    """``--workers`` forks processes; the package starts no thread."""

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_run_starts_no_thread(self, experiment):
        with mock.patch.object(threading.Thread, "start",
                               side_effect=AssertionError("thread started")):
            run_experiment(small_config(experiment, workers=2))

    def test_no_executor_imported(self):
        code = ("import sys, misolim.cli; "
                "sys.exit('concurrent.futures' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.dirname(os.path.dirname(misolim.__file__))]
            + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        assert subprocess.run([sys.executable, "-c", code],
                              env=env).returncode == 0


@pytest.mark.parametrize("experiment", EXPERIMENTS)
class TestDeterminism:
    def test_same_seed_byte_identical(self, experiment, tmp_path):
        paths = []
        for tag in ("a", "b"):
            cfg = small_config(experiment)
            p = tmp_path / f"{tag}.csv"
            write_csv(run_experiment(cfg), p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_worker_count_does_not_change_bytes(self, experiment, tmp_path):
        a = tmp_path / "w1.csv"
        write_csv(run_experiment(small_config(experiment, workers=1)), a)
        for workers in (2, 3, 4):
            b = tmp_path / f"w{workers}.csv"
            write_csv(run_experiment(small_config(experiment,
                                                  workers=workers)), b)
            assert a.read_bytes() == b.read_bytes(), workers

    def test_rows_of_n_do_not_depend_on_other_n(self, experiment):
        # one draw set per N, seeded by the value of N
        both = run_experiment(small_config(experiment, n_grid=[8, 32]))
        alone = run_experiment(small_config(experiment, n_grid=[32]))
        assert [row for row in both if row[1] == 32] == alone

    def test_seed_change_moves_mc_columns_only(self, experiment):
        t1 = run_experiment(small_config(experiment, seed=1))
        t2 = run_experiment(small_config(experiment, seed=2))
        assert len(t1) == len(t2)
        changed = 0
        for r1, r2 in zip(t1, t2):
            rec1 = dict(zip(CSV_COLUMNS, r1))
            rec2 = dict(zip(CSV_COLUMNS, r2))
            assert rec1["metric"] == rec2["metric"]
            if rec1["std_error"] is None:
                # analytic rows are seed-independent
                assert r1 == r2
            elif rec1["value"] != rec2["value"]:
                changed += 1
        assert changed > 0


class TestWarningsOncePerRun:
    @pytest.mark.parametrize("experiment", ["capacity-vs-n",
                                            "capacity-vs-kappa",
                                            "estimation-error"])
    def test_typical_range_once_per_kappa(self, experiment):
        cfg = small_config(experiment, n_grid=[2, 4, 8], kappa=[0.05],
                           snr_db=[20.0])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        typical = [w for w in caught if issubclass(w.category, UserWarning)
                   and "typical range" in str(w.message)]
        assert len(typical) == 1

    def test_inadmissible_exponent_once_per_t(self):
        # t = 0 and t = 0.5 are outside the admissible region, 0.25 is not
        cfg = small_config("energy-efficiency", n_grid=[2, 4, 8],
                           t=[0.0, 0.25, 0.5])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_experiment(cfg)
        admissible = [str(w.message) for w in caught
                      if "admissible" in str(w.message)]
        assert len(admissible) == 2
        assert "t_bs=0," in admissible[0] and "t_bs=0.5," in admissible[1]


class TestEstimationErrorRuns:
    def test_table_contents(self):
        cfg = small_config("estimation-error", n_grid=[4],
                           kappa=[0.0, 0.0025], snr_db=[0.0, 30.0])
        table = run_experiment(cfg)
        # 1 N x 2 kappas x 2 SNRs x 3 metrics
        assert len(table) == 12
        for row in values(table, "mse_empirical"):
            rec = dict(zip(CSV_COLUMNS, row))
            analytic = values(table, "mse_analytic", n=rec["n"],
                            snr_db=rec["snr_db"],
                            kappa_bs=rec["kappa_bs"])[0][7]
            assert rec["value"] == pytest.approx(
                analytic, abs=max(6 * rec["std_error"], 1e-3))

    def test_floor_binds_only_with_impairments(self):
        cfg = small_config("estimation-error", n_grid=[4], kappa=[0.0, 0.01],
                           snr_db=[60.0])
        table = run_experiment(cfg)
        ideal = values(table, "mse_floor", kappa_bs=0.0)[0][7]
        impaired = values(table, "mse_floor", kappa_bs=0.01)[0][7]
        assert ideal == pytest.approx(0.0, abs=1e-12)
        assert impaired > 1e-3


class TestCapacityRuns:
    def test_vs_n_bounds_ordered(self):
        cfg = small_config("capacity-vs-n", n_grid=[2, 8], kappa=[0.0025])
        table = run_experiment(cfg)
        for row in values(table, "capacity_lower"):
            rec = dict(zip(CSV_COLUMNS, row))
            upper = values(table, "capacity_upper", n=rec["n"])[0][7]
            assert rec["value"] <= upper + 3 * rec["std_error"]
            ceiling = values(table, "ceiling_large_n", n=rec["n"])[0][7]
            assert upper <= ceiling + 1e-9

    def test_vs_kappa_fixed_terminal_level(self):
        cfg = small_config("capacity-vs-kappa", n_grid=[4],
                           kappa=[0.0, 0.01])
        table = run_experiment(cfg)
        for row in table:
            rec = dict(zip(CSV_COLUMNS, row))
            assert rec["kappa_ut"] == pytest.approx(0.0025)
        uppers = [dict(zip(CSV_COLUMNS, r))["value"]
                  for r in values(table, "capacity_upper")]
        assert uppers[0] > uppers[1]  # more BS impairment, less capacity


class TestEnergyEfficiencyRuns:
    def test_snr_column_tracks_power_scaling(self):
        cfg = small_config("energy-efficiency", n_grid=[4, 16],
                           kappa=[0.0025], t=[0.5])
        table = run_experiment(cfg)
        for row in values(table, "ee"):
            rec = dict(zip(CSV_COLUMNS, row))
            assert rec["snr_db"] == pytest.approx(
                20.0 - 5.0 * math.log10(rec["n"]))
            assert rec["t"] == 0.5
            assert rec["value"] > 0.0

    def test_near_kappa_levels_are_distinct_points(self):
        # both levels print as "impaired[0.0025]" with :g
        kappas = [0.0025, 0.00250000001]
        cfg = small_config("energy-efficiency", n_grid=[2], kappa=kappas,
                           t=[0.25])
        table = run_experiment(cfg)
        assert [dict(zip(CSV_COLUMNS, row))["kappa_bs"]
                for row in values(table, "ee")] == kappas

    def test_two_metrics_per_point(self):
        cfg = small_config("energy-efficiency", n_grid=[2], kappa=[0.0],
                           t=[0.25, 0.5])
        table = run_experiment(cfg)
        assert len(values(table, "ee")) == 2
        assert len(values(table, "capacity_lower")) == 2
