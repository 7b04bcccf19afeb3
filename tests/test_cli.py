"""Command-line front end tests.

Claims:
    - experiment output round-trips through CSV bit-exactly and the text
      table is aligned
    - an empty row set emits only the CSV header
    - equal seed and config give byte-identical CSV independent of threads
    - exit codes: 0 success, 2 config error, 3 numerical failure
    - environment variables override seed and thread count
    - coverage subcommand reports hits against the closed-form reference for
      every listed mode
    - a parameter row evaluates the payoff once on its block, shared by all
      modes; each tilted mode adds one pass and two_stage one more on its
      own block
"""

import csv
import io

import numpy as np
import pytest

import tiltmc.payoffs
from tiltmc.cli import emit_report, main, reference_price, run_experiment
from tiltmc.config import builtin_experiment, parse_config
from tiltmc.oracles import bs_call_price, bs_digital_price

DIGITAL_CFG = """
[model]
kind = bs
maturity = 1
spot = 100
vol = 0.2
rate = 0.05

[claim]
kind = digital
level = 140

[run]
n = 4000
seed = 7
modes = crude ris
"""

TWO_ASSET_CFG = """
[model]
kind = bs
assets = 2
steps = 4
maturity = 1
spot = 100
vol = 0.2
rate = 0.05
rho = 0.5

[claim]
kind = basket
weights = 0.5
strike = 100

[run]
n = 1000
seed = 3
"""
BASKET_CLAIM = "kind = basket\nweights = 0.5\nstrike = 100"


def _digital_config(tmp_path):
    path = tmp_path / "digital.cfg"
    path.write_text(DIGITAL_CFG)
    return str(path)


class TestEmit:
    def test_empty_rows_emit_header_only(self):
        out = emit_report([], "csv")
        assert out.count("\n") == 1
        assert out.startswith("experiment,row,mode,n,price")

    def test_csv_round_trip_is_bit_exact(self):
        rows = run_experiment("table3", builtin_experiment("table3", n=500))
        out = emit_report(rows, "csv")
        parsed = list(csv.reader(io.StringIO(out)))
        header, records = parsed[0], parsed[1:]
        assert len(records) == len(rows)
        price_col = header.index("price")
        var_col = header.index("variance")
        for row, record in zip(rows, records):
            assert float(record[price_col]) == row.report.price
            assert float(record[var_col]) == row.report.variance

    def test_single_row_gives_two_lines(self):
        rows = run_experiment("table1", builtin_experiment("table1", n=200, modes=("crude",))[:1])
        assert emit_report(rows, "csv").count("\n") == 2

    def test_text_columns_align(self):
        rows = run_experiment("table1", builtin_experiment("table1", n=200)[:2])
        lines = emit_report(rows, "text").splitlines()
        assert lines[0].startswith("row")
        assert len(lines) == 1 + len(rows)

    def test_timings_column_is_optional(self):
        rows = run_experiment("table1", builtin_experiment("table1", n=200, modes=("crude",))[:1])
        assert "wall_time" not in emit_report(rows, "csv")
        assert "wall_time" in emit_report(rows, "csv", timings=True)

    def test_row_failures_recorded_inline_and_batch_continues(self, tmp_path):
        # First row's payoff vanishes on every sample (digital far out of
        # reach); remaining rows must still be produced.
        path = tmp_path / "doomed.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 1e9").replace("n = 4000", "n = 50"))
        doomed = parse_config(str(path))
        rows = [
            builtin_experiment("table1", n=200, modes=("crude",))[0],
            builtin_experiment("table3", n=200, modes=("crude",))[0],
        ]
        from tiltmc.config import ExperimentRow

        rows.insert(0, ExperimentRow(label="doomed", spec=doomed))
        results = run_experiment("mixed", rows)
        failed = [r for r in results if r.report is None]
        succeeded = [r for r in results if r.report is not None]
        assert len(failed) == 1 and failed[0].label == "doomed" and "ris" in failed[0].error
        assert len(succeeded) == 3  # doomed crude + two table rows
        out = emit_report(results, "csv")
        assert out.splitlines()[0].endswith(",error")
        assert "doomed" in out


class TestPayoffPasses:
    def _rows_evaluated(self, monkeypatch, modes):
        counted = []
        inner = tiltmc.payoffs.Payoff.__call__

        def counting(self, x):
            shape = np.shape(x)
            counted.append(1 if len(shape) <= 1 else int(np.prod(shape[:-1])))
            return inner(self, x)

        monkeypatch.setattr(tiltmc.payoffs.Payoff, "__call__", counting)
        rows = builtin_experiment("table4", n=500, modes=modes)
        results = run_experiment("table4", rows)
        assert all(r.report is not None and not r.report.fallback for r in results)
        return sum(counted), len(rows)

    def test_one_untilted_pass_per_row(self, monkeypatch):
        # f(G_i) once per block, shared by crude, ris and rris; each tilted
        # mode evaluates f(G_i + theta) once.
        total, n_rows = self._rows_evaluated(monkeypatch, ("crude", "ris", "rris"))
        assert total == n_rows * 3 * 500

    def test_two_stage_adds_its_own_block_and_tilted_pass(self, monkeypatch):
        base, n_rows = self._rows_evaluated(monkeypatch, ("crude", "ris", "rris"))
        total, _ = self._rows_evaluated(monkeypatch, ("crude", "ris", "rris", "two_stage"))
        assert total - base == n_rows * 2 * 500


class TestThreadDeterminism:
    def test_thread_count_keeps_csv_bytes(self, tmp_path):
        rows = builtin_experiment("table3", n=400)
        serial = emit_report(run_experiment("table3", rows, threads=1), "csv")
        threaded = emit_report(run_experiment("table3", rows, threads=8), "csv")
        assert serial == threaded

    def test_cli_runs_byte_identical(self, tmp_path, capsys):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["experiment", "table1", "--n", "300", "--format", "csv", "--seed", "5"]
        assert main(base + ["--threads", "1", "--out", str(out1)]) == 0
        assert main(base + ["--threads", "8", "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestExitCodes:
    def test_missing_config_is_config_error(self, capsys):
        assert main(["price", "/nonexistent/path.cfg"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_config_value(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 140\nbogus = 1"))
        assert main(["price", str(path)]) == 2

    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        # A digital far above any reachable terminal value never pays on a
        # small block: the weight table is degenerate.
        path = tmp_path / "doomed.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 1e9").replace("n = 4000", "n = 50"))
        assert main(["price", str(path), "--modes", "ris"]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["price", "experiment", "coverage"])
    def test_bad_mode_override_on_config_file(self, tmp_path, capsys, command):
        # The override is checked before anything runs: no crude report first.
        argv = [command, _digital_config(tmp_path), "--modes", "crude", "bogus", "--n", "100"]
        assert main(argv + ["--format", "csv"]) == 2
        captured = capsys.readouterr()
        assert "field 'modes'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["price", "experiment", "coverage"])
    @pytest.mark.parametrize(
        "config, field",
        [
            (DIGITAL_CFG + "drift = bogus\n", "drift"),
            (DIGITAL_CFG + "drift = dense\n", "drift"),
            (TWO_ASSET_CFG + "drift = path_single\n", "drift"),
            (TWO_ASSET_CFG.replace(BASKET_CLAIM, "kind = digital\nlevel = 140"), "claim"),
        ],
        ids=["unknown-drift", "dense-without-file", "path-single-on-two-assets",
             "digital-on-two-assets"],
    )
    def test_bad_selection_fails_at_parse_time(self, tmp_path, capsys, command, config, field):
        path = tmp_path / "bad.cfg"
        path.write_text(config)
        argv = [command, str(path), "--n", "200", "--format", "csv"]
        assert main(argv + (["--replications", "5"] if command == "coverage" else [])) == 2
        captured = capsys.readouterr()
        assert f"field '{field}'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_dense_drift_is_config_error(self, tmp_path, capsys, value):
        matrix = tmp_path / "A.txt"
        matrix.write_text(f"1 1\n{value}\n")
        path = tmp_path / "bad.cfg"
        path.write_text(DIGITAL_CFG.replace("crude ris", "rris") + f"drift = dense:{matrix}\n")
        assert main(["price", str(path)]) == 2
        captured = capsys.readouterr()
        assert "field 'drift'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["price", "experiment", "coverage"])
    def test_block_over_sample_budget_is_config_error(self, tmp_path, capsys, command):
        # 200 dates x 10^6 rows is over the 2**27-double block budget.
        path = tmp_path / "big.cfg"
        path.write_text(DIGITAL_CFG.replace("maturity = 1", "maturity = 1\nsteps = 200"))
        argv = [command, str(path), "--n", "1000000", "--format", "csv"]
        assert main(argv + (["--replications", "5"] if command == "coverage" else [])) == 2
        captured = capsys.readouterr()
        assert "field 'n'" in captured.err
        assert captured.out == ""

    def test_price_success(self, tmp_path, capsys):
        assert main(["price", _digital_config(tmp_path), "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "d = 1" in out
        assert "price" in out


class TestEnvironmentOverrides:
    def test_seed_env(self, tmp_path, monkeypatch, capsys):
        cfg = _digital_config(tmp_path)
        monkeypatch.setenv("TILTMC_SEED", "99")
        assert main(["experiment", cfg, "--format", "csv", "--n", "300"]) == 0
        with_env = capsys.readouterr().out
        monkeypatch.delenv("TILTMC_SEED")
        assert main(["experiment", cfg, "--format", "csv", "--n", "300", "--seed", "99"]) == 0
        explicit = capsys.readouterr().out
        assert with_env == explicit

    def test_threads_env_accepted(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TILTMC_THREADS", "2")
        assert main(["experiment", _digital_config(tmp_path), "--n", "200"]) == 0

    @pytest.mark.parametrize(
        "env, flags, message",
        [
            ({}, ["--seed", "-1"], "--seed"),
            ({"TILTMC_SEED": "abc"}, [], "TILTMC_SEED"),
            ({"TILTMC_THREADS": "abc"}, [], "TILTMC_THREADS"),
        ],
    )
    def test_invalid_seed_or_threads_exit_2(self, tmp_path, monkeypatch, capsys, env, flags, message):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        with pytest.raises(SystemExit) as exc:
            main(["experiment", _digital_config(tmp_path), "--n", "200"] + flags)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCoverage:
    def test_coverage_subcommand(self, tmp_path, capsys):
        code = main(
            ["coverage", _digital_config(tmp_path), "--replications", "30", "--n", "2000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "empirical level" in out
        assert "replications     30" in out

    def test_coverage_requires_replications(self, tmp_path, capsys):
        assert main(["coverage", _digital_config(tmp_path)]) == 2

    def test_coverage_csv(self, tmp_path):
        out = tmp_path / "cov.csv"
        code = main(
            ["coverage", _digital_config(tmp_path), "--replications", "20",
             "--n", "1000", "--format", "csv", "--out", str(out)]
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out.read_text())))
        assert rows[0][:4] == ["experiment", "row", "mode", "n"]
        assert int(rows[1][rows[0].index("replications")]) == 20

    def test_coverage_runs_every_mode(self, capsys):
        argv = ["coverage", "digital-coverage", "--modes", "crude", "ris",
                "--replications", "5", "--n", "1000"]
        assert main(argv + ["--format", "csv"]) == 0
        rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
        assert rows[0][:3] == ["experiment", "row", "mode"]
        assert [row[2] for row in rows[1:]] == ["crude", "ris"]
        assert all(row[rows[0].index("replications")] == "5" for row in rows[1:])
        assert main(argv) == 0
        text = capsys.readouterr().out
        assert text.count("coverage of digital-coverage") == 2
        assert "mode=crude" in text and "mode=ris" in text


class TestReferencePrice:
    def test_digital_uses_closed_form(self, tmp_path):
        spec = parse_config(_digital_config(tmp_path))
        assert reference_price(spec) == bs_digital_price(100.0, 140.0, 0.05, 0.2, 1.0)

    def test_fallback_to_high_n_estimate(self, tmp_path):
        # Multi-asset claims have no closed form: the reference comes from
        # an untilted run on a reserved stream.
        path = tmp_path / "basket.cfg"
        path.write_text(
            """
[model]
kind = bs
assets = 2
maturity = 1
spot = 100
vol = 0.2
rate = 0.05
rho = 0.5

[claim]
kind = basket
weights = 0.5
strike = 100

[run]
n = 1000
seed = 3
"""
        )
        spec = parse_config(str(path))
        estimate = reference_price(spec, n_ref=400_000)
        # Sanity band from the single-asset closed form: the two-asset
        # equally weighted basket is cheaper than the single-asset call but
        # well above half of it.
        single = bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0)
        assert 0.5 * single < estimate < single
