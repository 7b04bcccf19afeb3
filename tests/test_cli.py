"""Command-line front end tests.

Claims:
    - experiment output round-trips through CSV bit-exactly and the text
      table is aligned
    - an empty row set emits only the CSV header; a failed row shows as
      ERROR with its message in the text table
    - price prints each parameter row's description before that row's mode
      blocks, and its CSV is the experiment CSV of the same run
    - equal seed and config give byte-identical CSV independent of threads
    - exit codes: 0 success, 2 config error (a config file that is not
      UTF-8, or two_stage on fewer than 2 samples, too), 3 numerical failure
    - environment variables override seed and thread count
    - the reference price is the closed form for a one-asset lognormal
      digital (above or below, at any level), call, put or positively scaled
      basket, and a sampled estimate otherwise (a barrier call, a multi-asset
      basket) that equals the payoff's mean over one fill of the reference
      stream however many draws it takes
    - coverage subcommand reports hits against the closed-form reference for
      every listed mode; all modes run on each replication's one block, each
      mode's row equals coverage_experiment for that mode, and a failing mode
      counts as a failure of that mode only; a multi-row builtin reports every
      (row, mode) pair, and more replications than the reserved reference
      stream id exit 2 before any draw
    - a repeated mode is a config error on 'modes' in every command
    - a parameter row evaluates the payoff once on its block, shared by all
      modes; each tilted mode adds one pass over the block, two_stage too
      (each half with the other half's tilt), and draws no block of its own
"""

import csv
import io

import numpy as np
import pytest
from scipy.special import ndtr

import tiltmc.cli
import tiltmc.estimate
import tiltmc.payoffs
from tiltmc import DegeneratePayoff, RngStream, normal_draws
from tiltmc.cli import _REFERENCE_STREAM_ID, emit_report, main, reference_price, run_experiment
from tiltmc.config import ExperimentRow, builtin_experiment, parse_config, with_overrides
from tiltmc.oracles import bs_call_price, bs_digital_price, bs_put_price
from tiltmc.payoffs import chunk_rows

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
        rows.insert(0, ExperimentRow(label="doomed", spec=doomed))
        results = run_experiment("mixed", rows)
        failed = [r for r in results if r.report is None]
        succeeded = [r for r in results if r.report is not None]
        assert len(failed) == 1 and failed[0].label == "doomed" and "ris" in failed[0].error
        assert len(succeeded) == 3  # doomed crude + two table rows
        out = emit_report(results, "csv")
        assert out.splitlines()[0].endswith(",error")
        assert "doomed" in out


    def test_experiment_text_marks_a_failed_row(self, tmp_path, capsys):
        path = tmp_path / "doomed.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 1e9").replace("n = 4000", "n = 50"))
        assert main(["experiment", str(path), "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].split()[:2] == ["config", "crude"]
        assert lines[2].split()[:3] == ["config", "ERROR", "ris:"]
        assert "payoff vanished on all 50 samples" in lines[2]


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

    def test_two_stage_adds_one_tilted_pass(self, monkeypatch):
        # two_stage tunes on the row block's two halves and evaluates
        # f(G_i + theta) once per row, with the other half's tilt.
        base, n_rows = self._rows_evaluated(monkeypatch, ("crude", "ris", "rris"))
        total, _ = self._rows_evaluated(monkeypatch, ("crude", "ris", "rris", "two_stage"))
        assert total - base == n_rows * 1 * 500


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
        for modes in (["crude", "bogus"], ["crude", "crude"]):  # unknown, repeated
            argv = [command, _digital_config(tmp_path), "--modes", *modes, "--n", "100"]
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

    @pytest.mark.parametrize("command", ["price", "experiment", "coverage"])
    def test_two_stage_with_one_sample_is_config_error(self, tmp_path, capsys, command):
        argv = [command, _digital_config(tmp_path), "--n", "1", "--modes", "two_stage"]
        assert main(argv + (["--replications", "5"] if command == "coverage" else [])) == 2
        captured = capsys.readouterr()
        assert "field 'n'" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["price", "experiment", "coverage"])
    def test_non_utf8_config_is_config_error(self, tmp_path, capsys, command):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(DIGITAL_CFG.replace("spot = 100", "spot = 100 \xff").encode("latin-1"))
        argv = [command, str(path), "--n", "200", "--format", "csv"]
        assert main(argv + (["--replications", "5"] if command == "coverage" else [])) == 2
        captured = capsys.readouterr()
        assert "config error" in captured.err
        assert f"[line 5] {path} is not UTF-8 text" in captured.err
        assert captured.out == ""

    def test_price_success(self, tmp_path, capsys):
        assert main(["price", _digital_config(tmp_path), "--n", "500"]) == 0
        out = capsys.readouterr().out
        assert "d = 1" in out
        assert "price" in out

    def test_price_prints_each_rows_description_before_its_blocks(self, capsys):
        assert main(["price", "table3", "--n", "2000"]) == 0
        out = capsys.readouterr().out
        described = [line for line in out.splitlines() if ": d = 24, d' = 1," in line]
        assert [line.split(":")[0] for line in described] == ["L=70", "L=80", "L=90", "L=95"]
        for row in builtin_experiment("table3", n=2000):
            assert f"{row.spec.describe()}\n\n--- {row.label} / crude ---" in out

    def test_price_csv(self, tmp_path, capsys):
        config = _digital_config(tmp_path)
        assert main(["price", config, "--n", "500", "--format", "csv"]) == 0
        spec = with_overrides(parse_config(config), n=500)
        expected = emit_report(run_experiment(config, [ExperimentRow("config", spec)]), "csv")
        assert capsys.readouterr().out == expected


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
            ({}, ["--n", "0"], "--n: must be >= 1"),
            ({"TILTMC_THREADS": "0"}, [], "TILTMC_THREADS='0': must be >= 1"),
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

    def test_digital_below_zero_level_has_finite_reference(self, tmp_path, capsys):
        path = tmp_path / "low.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = -5"))
        argv = ["coverage", str(path), "--replications", "3", "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [row["mode"] for row in rows] == ["crude", "ris"]
        assert all(np.isfinite(float(row["reference"])) for row in rows)

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

    def test_modes_share_each_replications_block(self, monkeypatch, capsys):
        # One draw per replication for all three modes, two_stage included:
        # R draws, where one coverage run per mode made 4R.
        drawn = []
        inner = tiltmc.estimate.draw_samples
        monkeypatch.setattr(
            tiltmc.estimate, "draw_samples", lambda *args: drawn.append(args) or inner(*args)
        )
        argv = ["coverage", "digital-coverage", "--modes", "crude", "ris", "two_stage",
                "--replications", "7", "--n", "500", "--format", "csv"]
        assert main(argv) == 0
        assert len(drawn) == 7
        assert sorted(args[0].stream_id for args in drawn) == list(range(7))

    def test_each_mode_row_is_that_modes_coverage_experiment(self, capsys):
        argv = ["coverage", "digital-coverage", "--modes", "crude", "ris", "two_stage",
                "--replications", "8", "--n", "500", "--threads", "2", "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        spec = builtin_experiment("digital-coverage")[0].spec
        reference = reference_price(spec)
        for row, mode in zip(rows, ["crude", "ris", "two_stage"], strict=True):
            result = tiltmc.estimate.coverage_experiment(
                spec.payoff(), mode, 500, spec.seed, reference,
                replications=8, drift=spec.drift(), level=spec.level,
            )
            assert row["mode"] == mode
            assert [row[key] for key in ("replications", "hits", "failures", "empirical_level")] == [
                str(result.replications), str(result.hits), str(result.failures),
                format(result.empirical_level, ".17g"),
            ]

    def test_failing_mode_counts_for_that_mode_only(self, tmp_path, capsys):
        # The payoff vanishes on every small block: ris cannot tune a tilt,
        # while crude reports a zero price with a zero-width interval.
        path = tmp_path / "doomed.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 1e9"))
        argv = ["coverage", str(path), "--replications", "6", "--n", "50", "--format", "csv"]
        assert main(argv) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [(r["mode"], r["failures"]) for r in rows] == [("crude", "0"), ("ris", "6")]
        assert rows[1]["empirical_level"] == "nan"
        spec = parse_config(str(path))
        crude, ris = tiltmc.estimate.run_block(
            spec.payoff(), spec.drift(), RngStream(spec.seed, 0), 50, ("crude", "ris"), level=0.95
        )
        assert crude.price == 0.0 and isinstance(ris, DegeneratePayoff)

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_replications_reaching_the_reference_stream_exit_2(
        self, tmp_path, monkeypatch, capsys, source
    ):
        # Replication r draws stream r, so replication 999,983 would reuse the
        # reference price's normals. Nothing may be drawn before the check.
        def no_draw(*args, **kwargs):
            raise AssertionError("drew before checking replications")

        monkeypatch.setattr(tiltmc.cli, "reference_price", no_draw)
        monkeypatch.setattr(tiltmc.estimate, "draw_samples", no_draw)
        count = str(_REFERENCE_STREAM_ID + 1)
        assert count == "999984"
        if source == "flag":
            argv = ["coverage", _digital_config(tmp_path), "--replications", count]
        else:
            path = tmp_path / "many.cfg"
            path.write_text(DIGITAL_CFG.replace("seed = 7", f"seed = 7\nreplications = {count}"))
            argv = ["coverage", str(path)]
        assert main(argv) == 2
        assert "field 'replications'" in capsys.readouterr().err

    def test_multi_row_builtin_runs_every_row(self, monkeypatch, capsys):
        monkeypatch.setattr(tiltmc.cli, "reference_price", lambda spec: 10.0)
        argv = ["coverage", "table3", "--n", "500", "--replications", "2"]
        assert main(argv + ["--format", "csv"]) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        specs = builtin_experiment("table3", n=500)
        assert len(rows) == 12
        assert [(r["row"], r["mode"]) for r in rows] == [
            (row.label, mode) for row in specs for mode in row.spec.modes
        ]
        last = specs[-1].spec
        results = tiltmc.estimate._coverage(
            last.payoff(), last.drift(), 500, last.seed, last.modes, 10.0, 2, last.level, 1
        )
        for row, result in zip(rows[-len(last.modes):], results, strict=True):
            assert (row["hits"], row["failures"]) == (str(result.hits), str(result.failures))
        assert main(argv + ["--format", "text"]) == 0
        assert capsys.readouterr().out.count("coverage of table3") == 12


class TestReferencePrice:
    def test_digital_uses_closed_form(self, tmp_path):
        spec = parse_config(_digital_config(tmp_path))
        assert reference_price(spec) == bs_digital_price(100.0, 140.0, 0.05, 0.2, 1.0)

    @pytest.mark.parametrize("level", ["-5", "0"])
    def test_digital_at_level_at_or_below_zero(self, tmp_path, level):
        # The terminal value is positive: above pays the bond, below nothing.
        path = tmp_path / "low.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", f"level = {level}"))
        assert reference_price(parse_config(str(path))) == np.exp(-0.05)
        path.write_text(DIGITAL_CFG.replace("level = 140", f"level = {level}\ndirection = below"))
        assert reference_price(parse_config(str(path))) == 0.0

    def test_below_digital_uses_closed_form(self, tmp_path):
        # The digital-coverage model at level 80: exp(-r T) N(-d2).
        path = tmp_path / "below.cfg"
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 80\ndirection = below"))
        below = reference_price(parse_config(str(path)))
        d2 = (np.log(100.0 / 80.0) + (0.05 - 0.02) * 1.0) / 0.2
        assert below == pytest.approx(np.exp(-0.05) * ndtr(-d2), abs=1e-12)
        assert below == pytest.approx(0.0977931, abs=1e-7)
        path.write_text(DIGITAL_CFG.replace("level = 140", "level = 80"))
        above = reference_price(parse_config(str(path)))
        assert above + below == pytest.approx(np.exp(-0.05), abs=1e-15)

    @pytest.mark.parametrize(
        "claim, expected",
        [
            ("kind = vanilla_call\nstrike = 95", bs_call_price(100.0, 95.0, 0.05, 0.2, 1.0)),
            ("kind = vanilla_put\nstrike = 95", bs_put_price(100.0, 95.0, 0.05, 0.2, 1.0)),
            # (2 S - 200)_+ is twice the call struck at 100.
            ("kind = basket\nweights = 2\nstrike = 200", 2 * bs_call_price(100.0, 100.0, 0.05, 0.2, 1.0)),
        ],
        ids=["vanilla_call", "vanilla_put", "basket"],
    )
    def test_one_asset_basket_uses_closed_form(self, tmp_path, claim, expected):
        path = tmp_path / "one.cfg"
        path.write_text(DIGITAL_CFG.replace("kind = digital\nlevel = 140", claim))
        assert reference_price(parse_config(str(path))) == expected

    def test_barrier_call_is_sampled(self, tmp_path):
        path = tmp_path / "barrier.cfg"
        path.write_text(
            DIGITAL_CFG.replace("maturity = 1", "maturity = 1\nsteps = 12").replace(
                "kind = digital\nlevel = 140", "kind = barrier_call\nstrike = 95\nbarrier = 85"
            )
        )
        spec = parse_config(str(path))
        payoff = spec.payoff()
        draws = normal_draws(RngStream(spec.seed, _REFERENCE_STREAM_ID), 1000 * payoff.dim)
        sampled = float(np.sum(payoff(draws.reshape(1000, payoff.dim)))) / 1000
        assert reference_price(spec, n_ref=1000) == sampled
        assert 0.0 < sampled < bs_call_price(100.0, 95.0, 0.05, 0.2, 1.0)

    def test_sampled_reference_spans_several_draws(self):
        # A table3 barrier row (d = 24) over three draws of chunk_rows(d)
        # rows or fewer: each draw continues the stream where the last ended.
        spec = builtin_experiment("table3")[0].spec
        d = spec.payoff().dim
        n_ref = 2 * chunk_rows(d) + 17
        draws = normal_draws(RngStream(spec.seed, _REFERENCE_STREAM_ID), n_ref * d)
        expected = float(np.mean(spec.payoff()(draws.reshape(n_ref, d))))
        assert reference_price(spec, n_ref=n_ref) == pytest.approx(expected, rel=1e-12, abs=0.0)

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
