"""Config parsing and builtin experiment tests.

Claims:
    - a minimal config gets level/modes defaults filled
    - unknown sections/keys and malformed values fail with line numbers,
      validation failures name the field; LF, CRLF and CR line endings
      parse alike and keep their line numbers
    - two_stage with n < 2 is a config error on field 'n'
    - inadmissible correlation is rejected with the interval constraint
    - a 5-asset 24-step barrier-basket config derives d = 120, d' = 5
    - builtin grids expose their benchmark parameter rows
    - every spec, overridden or builtin, rejects a block over the sample
      budget on field 'n', and a bad seed, level, mode list (empty, unknown
      or repeated mode) or replication count on its own field
    - a vol table entry that is not finite, a table row that is not three
      columns, a table with no rows or a volatility that is not positive,
      or a vol floor above the cap, fails at parse time and names the field
    - a rule a model's constructor enforces (positive spot, vol and maturity,
      a nonnegative rate, steps >= 1, an increasing time grid, a correlation
      matrix that factors) fails on the key that broke it, not on 'model';
      so do a negative asset count and a local volatility's sigma or floor
      that is not positive
    - a spec builds its drift map once: a price run reads a dense drift
      file once, also when --n overrides the file's sample count
    - structural errors (a duplicate section, a key before any section, an
      empty value) name their line, and each bad config exits 2 with the
      parser's message
    - each of the seven [claim] kinds parses to its Basket, Digital or
      BestOf claim and builds its payoff; a single-asset kind on a
      two-asset model fails on field 'claim'
"""

import numpy as np
import pytest
from pytest import approx

from tiltmc import Basket, BestOf, ConfigError, Digital, LocalVol1D, build_payoff, load_dense_map
from tiltmc.cli import main
from tiltmc.config import (
    BUILTIN_NAMES,
    builtin_experiment,
    parse_config,
    with_overrides,
)
from tiltmc.gaussian import DEFAULT_SAMPLE_BUDGET

MINIMAL_DIGITAL = """
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
n = 1000
seed = 7
"""


# A power-law local volatility, with vol_sigma and vol_floor to fill in.
POWER = "power\nvol_sigma = {}\nvol_gamma = 0.5\nvol_floor = {}"

LOCALVOL_TABLE = """
[model]
kind = localvol
spot = 100
rate = 0.05
maturity = 1
steps = 4
vol_kind = table
vol_table = {table}

[claim]
kind = vanilla_call
strike = 100

[run]
n = 500
seed = 11
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestParsing:
    def test_minimal_config_fills_defaults(self, tmp_path):
        spec = parse_config(_write(tmp_path, MINIMAL_DIGITAL))
        assert spec.level == 0.95
        assert spec.modes == ("crude", "ris")
        assert spec.n == 1000
        assert spec.seed == 7
        assert isinstance(spec.claim, Digital)
        assert spec.dim == 1

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("[run]", "# a comment\n\n[run]")
        spec = parse_config(_write(tmp_path, text))
        assert spec.n == 1000

    def test_lf_crlf_and_cr_line_endings_parse_alike(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("[run]", "# a comment\n\n[run]") + "modes = crude ris two_stage\n"
        specs = []
        for name, ending in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
            path = tmp_path / f"{name}.cfg"
            path.write_bytes(text.replace("\n", ending).encode())
            specs.append(parse_config(path))
        x = np.linspace(-2.0, 2.0, 9)[:, None]

        def fields(spec):  # every field but the label, which is the path
            description = spec.describe().removeprefix(spec.label)
            return description, spec.level, spec.replications, spec.drift_kind, spec.claim

        for spec in specs[1:]:
            assert fields(spec) == fields(specs[0])
            assert np.array_equal(spec.payoff()(x), specs[0].payoff()(x))

    def test_non_utf8_byte_on_a_cr_line_names_it(self, tmp_path):
        text = MINIMAL_DIGITAL.lstrip("\n").replace("maturity = 1", "maturity = 1 \xff", 1)
        assert text.splitlines()[2].endswith("\xff")
        path = tmp_path / "cr.cfg"
        path.write_bytes(text.replace("\n", "\r").encode("latin-1"))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert err.value.line == 3
        assert "is not UTF-8 text" in str(err.value)

    def test_unknown_key_rejected_with_line(self, tmp_path):
        text = MINIMAL_DIGITAL + "frobnicate = 3\n"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert "frobnicate" in str(err.value)
        assert err.value.line is not None

    def test_unknown_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, "[nonsense]\nx = 1\n" + MINIMAL_DIGITAL))

    def test_malformed_line_reports_number(self, tmp_path):
        text = "[model]\nkind = bs\nthis is not a key value pair\n"
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.line == 3

    def test_missing_section_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, "[model]\nkind = bs\n"))
        assert "claim" in str(err.value) or "run" in str(err.value)

    def test_rho_outside_interval_names_constraint(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("rate = 0.05", "rate = 0.05\nassets = 3\nrho = 1.5")
        text = text.replace("kind = digital", "kind = basket\nstrike = 100\nweights = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert "rho must lie in (-1/(I-1), 1)" in str(err.value)
        assert err.value.field == "rho"

    def test_bad_mode_rejected(self, tmp_path):
        for modes in ("crude sobol", "ris ris"):  # unknown, repeated
            with pytest.raises(ConfigError) as err:
                parse_config(_write(tmp_path, MINIMAL_DIGITAL + f"modes = {modes}\n"))
            assert err.value.field == "modes"

    def test_duplicate_key_rejected(self, tmp_path):
        text = MINIMAL_DIGITAL + "n = 2000\n"
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, text))

    def test_key_differing_only_in_case_rejected(self, tmp_path, capsys):
        # A later 'Rate' must not silently override 'rate'.
        text = MINIMAL_DIGITAL.replace("rate = 0.05", "rate = 0.05\nRate = 5")
        assert main(["price", str(_write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert "duplicate key 'rate'" in err
        assert "field 'rate'" in err

    @pytest.mark.parametrize(
        "old, new, field",
        [
            ("maturity = 1", "maturity = nan", "maturity"),
            ("level = 140", "level = inf", "level"),
            ("spot = 100", "spot = -inf", "spot"),
            ("vol = 0.2", "vol = NaN", "vol"),
            ("rate = 0.05", "rate = 0.05\ntimes = 0.5 nan", "times"),
        ],
    )
    def test_non_finite_number_rejected(self, tmp_path, capsys, old, new, field):
        text = MINIMAL_DIGITAL.replace(old, new).replace("seed = 7", "seed = 7\nmodes = crude")
        assert main(["price", str(_write(tmp_path, text))]) == 2
        assert f"field '{field}'" in capsys.readouterr().err

    def test_seed_out_of_range_rejected(self, tmp_path):
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, MINIMAL_DIGITAL.replace("seed = 7", "seed = -1")))
        assert err.value.field == "seed"

    def test_barrier_basket_dimensions_derived(self, tmp_path):
        text = """
[model]
kind = bs
assets = 5
steps = 24
maturity = 2
spot = 50 40 60 30 20
vol = 0.2
rate = 0.05
rho = 0.3

[claim]
kind = barrier_basket_call
weights = 0.2
strike = 50
barriers = 40 30 45 20 10

[run]
n = 1000
seed = 3
modes = crude rris
drift = path_multi
"""
        spec = parse_config(_write(tmp_path, text))
        assert spec.dim == 120
        assert spec.d_reduced == 5
        assert isinstance(spec.claim, Basket)
        assert spec.claim.barriers.tolist() == [40.0, 30.0, 45.0, 20.0, 10.0]
        assert "d = 120" in spec.describe() and "d' = 5" in spec.describe()

    def test_localvol_config(self, tmp_path):
        text = """
[model]
kind = localvol
spot = 100
rate = 0.05
maturity = 1
steps = 16
vol_kind = constant
vol_sigma = 0.2

[claim]
kind = vanilla_call
strike = 100

[run]
n = 500
seed = 11
drift = path_single
modes = crude rris
"""
        spec = parse_config(_write(tmp_path, text))
        assert isinstance(spec.model, LocalVol1D)
        assert spec.dim == 16
        assert spec.d_reduced == 1

    def test_dense_drift_from_file(self, tmp_path):
        matrix = tmp_path / "a.txt"
        matrix.write_text("1 1\n1\n")
        text = MINIMAL_DIGITAL + f"drift = dense:{matrix}\nmodes = rris\n"
        spec = parse_config(_write(tmp_path, text))
        assert spec.d_reduced == 1

    def test_price_reads_a_dense_drift_file_once(self, tmp_path, monkeypatch, capsys):
        # The spec builds its map once; the parse, the run and the row's
        # description read that one map.
        matrix = tmp_path / "a.txt"
        matrix.write_text("1 1\n1\n")
        loads = []
        monkeypatch.setattr(
            "tiltmc.config.load_dense_map", lambda path: loads.append(path) or load_dense_map(path)
        )
        monkeypatch.delenv("TILTMC_SEED", raising=False)
        text = MINIMAL_DIGITAL + f"drift = dense:{matrix}\nmodes = rris\n"
        assert main(["price", str(_write(tmp_path, text))]) == 0
        assert "d' = 1" in capsys.readouterr().out
        assert loads == [str(matrix)]
        # --n changes neither the model nor the drift kind, so the run keeps the parsed map.
        loads.clear()
        assert main(["price", str(tmp_path / "exp.cfg"), "--n", "500"]) == 0
        assert loads == [str(matrix)]

    def test_dense_drift_dimension_mismatch(self, tmp_path):
        matrix = tmp_path / "a.txt"
        matrix.write_text("2 1\n1\n1\n")
        text = MINIMAL_DIGITAL + f"drift = dense:{matrix}\n"
        with pytest.raises(ConfigError):
            parse_config(_write(tmp_path, text))

    def test_incompatible_claim_surfaces(self, tmp_path, capsys):
        text = MINIMAL_DIGITAL.replace(
            "kind = digital\nlevel = 140", "kind = basket\nstrike = 1\nweights = 1 1"
        )
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.field == "weights"
        # Single-asset kinds on a two-asset model fail on the claim itself.
        two_assets = MINIMAL_DIGITAL.replace("[model]", "[model]\nassets = 2")
        for claim in (
            "kind = vanilla_call\nstrike = 100",
            "kind = vanilla_put\nstrike = 100",
            "kind = barrier_call\nstrike = 100\nbarrier = 80",
        ):
            text = two_assets.replace("kind = digital\nlevel = 140", claim)
            assert main(["price", str(_write(tmp_path, text))]) == 2, claim
            assert "field 'claim'" in capsys.readouterr().err

    def test_explicit_times_replace_maturity(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("maturity = 1", "times = 0.5 1.0 2.0")
        spec = parse_config(_write(tmp_path, text))
        assert spec.model.maturity == approx(2.0)
        assert spec.dim == 3

    def test_times_maturity_disagreement_rejected(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("maturity = 1", "maturity = 1\ntimes = 0.5 2.0")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.field == "times"

    def test_steps_times_disagreement_rejected(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("maturity = 1", "steps = 24\ntimes = 0.5 1.0")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.field == "steps"

    def test_steps_matching_times_accepted(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("maturity = 1", "steps = 2\ntimes = 0.5 1.0")
        assert parse_config(_write(tmp_path, text)).dim == 2

    def test_duplicate_vol_table_point_rejected(self, tmp_path, capsys):
        table = tmp_path / "vol.csv"
        table.write_text("0,150,0.2\n1,150,0.2\n1,150,0.9\n")
        text = LOCALVOL_TABLE.format(table=table)
        assert main(["price", str(_write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert "field 'vol_table'" in err
        assert "duplicate (t, s) point (1, 150)" in err

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_vol_table_entry_rejected(self, tmp_path, capsys, value):
        table = tmp_path / "vol.csv"
        table.write_text(f"0,100,0.2\n0,150,0.2\n1,100,{value}\n1,150,0.2\n")
        assert main(["price", str(_write(tmp_path, LOCALVOL_TABLE.format(table=table)))]) == 2
        captured = capsys.readouterr()
        assert "field 'vol_table'" in captured.err
        assert f"line 3 ['1', '100', '{value}'] is not finite" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0,100\n", "expected 't,s,sigma' rows, got ['0', '100']"),
            ("# t, s, sigma\n", "no volatility rows found"),
            ("0,100,0.2\n0,150,0\n", "values must be positive"),
        ],
        ids=["two-columns", "no-rows", "zero-volatility"],
    )
    def test_bad_vol_table_names_vol_table(self, tmp_path, capsys, rows, message):
        table = tmp_path / "vol.csv"
        table.write_text(rows)
        assert main(["price", str(_write(tmp_path, LOCALVOL_TABLE.format(table=table)))]) == 2
        captured = capsys.readouterr()
        assert "field 'vol_table'" in captured.err and message in captured.err
        assert captured.out == ""

    def test_vol_floor_above_cap_rejected(self, tmp_path, capsys):
        power = "vol_kind = power\nvol_sigma = 0.2\nvol_gamma = 0.5\nvol_floor = 0.5\nvol_cap = 0.1"
        text = LOCALVOL_TABLE.replace("vol_kind = table\nvol_table = {table}", power)
        assert main(["price", str(_write(tmp_path, text))]) == 2
        captured = capsys.readouterr()
        assert "field 'vol_floor'" in captured.err
        assert captured.out == ""

    def test_unknown_run_key_reported_before_run_values(self, tmp_path):
        text = MINIMAL_DIGITAL.replace("seed = 7", "seed = -1\nbogus = 1")
        with pytest.raises(ConfigError) as err:
            parse_config(_write(tmp_path, text))
        assert err.value.field == "bogus"

    def test_overrides(self, tmp_path):
        spec = parse_config(_write(tmp_path, MINIMAL_DIGITAL))
        bumped = with_overrides(spec, n=5000, seed=1, modes=("crude",))
        assert (bumped.n, bumped.seed, bumped.modes) == (5000, 1, ("crude",))
        assert spec.n == 1000  # original untouched

    @pytest.mark.parametrize(
        "old, new, message, line, field",
        [
            ("kind = bs", "kind = heston", "'kind' must be one of bs, localvol; got 'heston'", 3, "kind"),
            ("maturity = 1", "maturity = soon", "'maturity' must be a finite number; got 'soon'", 4, "maturity"),
            ("rate = 0.05", "rate = nan", "'rate' must be a finite number; got 'nan'", 7, "rate"),
            ("maturity = 1", "assets = 1.5\nmaturity = 1", "'assets' must be an integer; got '1.5'", 4, "assets"),
            (
                "spot = 100", "spot = 100 abc",
                "'spot' must be a finite number or whitespace-separated list; got '100 abc'", 5, "spot",
            ),
            ("rate = 0.05\n", "", "missing required key 'rate' in [model]", None, "rate"),
            ("level = 140", "level = high", "'level' must be a finite number; got 'high'", 11, "level"),
            ("level = 140", "level = nan", "'level' must be a finite number; got 'nan'", 11, "level"),
            (
                "kind = digital\nlevel = 140", "kind = basket\nweights = 1 x",
                "'weights' must be a finite number or whitespace-separated list; got '1 x'", 11, "weights",
            ),
            (
                "level = 140", "level = 140\ndirection = sideways",
                "'direction' must be one of above, below; got 'sideways'", 12, "direction",
            ),
            ("level = 140\n", "", "missing required key 'level' in [claim]", None, "level"),
            ("n = 1000", "n = 1e3", "'n' must be an integer; got '1e3'", 14, "n"),
            ("seed = 7", "seed = 7\nlevel = nan", "'level' must be a finite number; got 'nan'", 16, "level"),
            ("seed = 7", "seed = 7\nformat = xml", "'format' must be one of text, csv; got 'xml'", 16, "format"),
            ("seed = 7\n", "", "missing required key 'seed' in [run]", None, "seed"),
            ("seed = 7", "seed = 7\n[run]", "duplicate section [run]", 16, None),
            ("[model]", "n = 5\n[model]", "key outside of any [section]", 2, None),
            ("level = 140", "level =", "expected 'key = value'", 11, None),
            ("maturity = 1", "assets = 0\nmaturity = 1", "'assets' must be >= 1", None, "assets"),
            ("maturity = 1", "assets = -1\nmaturity = 1", "'assets' must be >= 1", None, "assets"),
            ("maturity = 1", "steps = 0\nmaturity = 1", "'steps' must be >= 1", None, "steps"),
            ("maturity = 1\n", "", "missing required key 'maturity'", None, "maturity"),
            ("maturity = 1", "maturity = 0", "'maturity' must be positive", None, "maturity"),
            ("seed = 7", "seed = 7\nlevel = 1.5", "'level' must lie in (0, 1)", None, "level"),
            (
                "seed = 7", "seed = 7\nreplications = 0",
                "'replications' must be >= 1", None, "replications",
            ),
        ],
        ids=[
            "model-choice", "model-number", "model-nan", "model-integer", "model-list",
            "model-missing", "claim-number", "claim-nan", "claim-list", "claim-choice",
            "claim-missing", "run-integer", "run-nan", "run-choice", "run-missing",
            "duplicate-section", "key-before-section", "empty-value", "assets-zero",
            "assets-negative", "steps-zero", "no-maturity-or-times", "maturity-zero",
            "run-level", "replications-zero",
        ],
    )
    def test_typed_value_errors(self, tmp_path, capsys, old, new, message, line, field):
        path = _write(tmp_path, MINIMAL_DIGITAL.replace(old, new))
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        prefix = ", ".join(
            ([f"line {line}"] if line else []) + ([f"field '{field}'"] if field else [])
        )
        assert str(err.value) == f"[{prefix}] {message}"
        assert (err.value.line, err.value.field) == (line, field)
        assert main(["price", str(path)]) == 2
        assert capsys.readouterr().err == f"tiltmc: config error: {err.value}\n"

    @pytest.mark.parametrize(
        "kind, old, new, field",
        [
            ("bs", "rate = 0.05", "rate = -0.05", "rate"),
            ("bs", "vol = 0.2", "vol = -0.2", "vol"),
            ("bs", "spot = 100", "spot = 0", "spot"),
            ("bs", "maturity = 1", "times = 1 0.5", "times"),
            # Inside the admissible interval, but C = (1-rho) I + rho 11* rounds to singular.
            ("bs", "rate = 0.05", "rate = 0.05\nassets = 1000\nrho = 0.9999999999999999", "rho"),
            ("localvol", "maturity = 1", "maturity = -1", "maturity"),
            ("localvol", "rate = 0.05", "rate = -0.01", "rate"),
            ("localvol", "steps = 4", "steps = 0", "steps"),
            ("localvol", "vol_sigma = 0.2", "vol_sigma = -0.2", "vol_sigma"),
            ("localvol", "constant\nvol_sigma = 0.2", POWER.format(-0.2, 0.01), "vol_sigma"),
            ("localvol", "constant\nvol_sigma = 0.2", POWER.format(0.2, -0.01), "vol_floor"),
        ],
    )
    def test_model_rule_names_its_key(self, tmp_path, capsys, kind, old, new, field):
        # Rules the model constructors enforce are checked on the key itself.
        text = MINIMAL_DIGITAL
        if kind == "localvol":  # the table config on a constant volatility
            text = LOCALVOL_TABLE.replace("table\nvol_table = {table}", "constant\nvol_sigma = 0.2")
        assert main(["price", str(_write(tmp_path, text.replace(old, new)))]) == 2
        err = capsys.readouterr().err
        assert f"field '{field}'" in err and "field 'model'" not in err

    def test_block_over_sample_budget_names_n(self, tmp_path):
        spec = parse_config(_write(tmp_path, MINIMAL_DIGITAL))
        for build in (
            lambda: with_overrides(spec, n=DEFAULT_SAMPLE_BUDGET + 1),
            lambda: with_overrides(spec, n=0),
            lambda: builtin_experiment("table1", n=0),
            lambda: builtin_experiment("table4", n=2_000_000),  # 2e6 rows x d = 120
        ):
            with pytest.raises(ConfigError) as info:
                build()
            assert info.value.field == "n"


# Each [claim] kind: the model's asset count, its keys, and the claim it builds.
CLAIM_KINDS = {
    "basket": (2, "weights = 0.5\nstrike = 100", Basket(np.full(2, 0.5), 100.0)),
    "digital": (1, "level = 140\ndirection = below", Digital(140.0, above=False)),
    "barrier_call": (
        1, "strike = 100\nbarrier = 120\nknock = up-out",
        Basket(np.ones(1), 100.0, np.array([120.0]), up=True),
    ),
    "barrier_basket_call": (
        2, "weights = 0.5\nstrike = 100\nbarriers = 80 70",
        Basket(np.full(2, 0.5), 100.0, np.array([80.0, 70.0])),
    ),
    "best_of": (2, "weights = 1\nstrike = 100", BestOf(np.ones(2), 100.0)),
    "vanilla_call": (1, "strike = 100", Basket(np.ones(1), 100.0)),
    "vanilla_put": (1, "strike = 100", Basket(-np.ones(1), -100.0)),
}


@pytest.mark.parametrize("kind", sorted(CLAIM_KINDS))
def test_every_claim_kind_parses_and_builds(tmp_path, kind):
    assets, keys, expected = CLAIM_KINDS[kind]
    text = f"""
[model]
kind = bs
assets = {assets}
steps = 4
maturity = 1
spot = 100
vol = 0.2
rate = 0.05
rho = 0.3

[claim]
kind = {kind}
{keys}

[run]
n = 100
seed = 5
"""
    spec = parse_config(_write(tmp_path, text))
    assert type(spec.claim) is type(expected)
    for name, value in vars(expected).items():
        assert np.array_equal(getattr(spec.claim, name), value), name
    x = np.random.default_rng(1).standard_normal((200, spec.dim))
    values = spec.payoff()(x)
    assert np.array_equal(values, build_payoff(spec.model, expected)(x))
    assert (values > 0).any()


class TestBuiltins:
    def test_names(self):
        assert set(BUILTIN_NAMES) == {"table1", "table3", "table4", "digital-coverage"}

    def test_basket_grid_has_seven_rows(self):
        rows = builtin_experiment("table1")
        assert len(rows) == 7
        grid = [(row.spec.model.rho, row.spec.claim.strike) for row in rows]
        assert grid == [
            (0.1, 45.0), (0.1, 55.0), (0.2, 50.0),
            (0.5, 45.0), (0.5, 55.0), (0.9, 45.0), (0.9, 55.0),
        ]
        spec = rows[0].spec
        assert spec.dim == 40
        assert spec.n == 10_000
        assert isinstance(spec.claim, Basket)
        assert spec.claim.weights == approx(np.full(40, 1.0 / 40.0))

    def test_barrier_grid_rows(self):
        rows = builtin_experiment("table3")
        assert [row.spec.claim.barriers.tolist() for row in rows] == [[70.0], [80.0], [90.0], [95.0]]
        assert not rows[0].spec.claim.up
        spec = rows[0].spec
        assert spec.dim == 24
        assert spec.model.maturity == approx(2.0)
        assert spec.claim.strike == 110.0
        assert spec.d_reduced == 1

    def test_barrier_basket_rows(self):
        rows = builtin_experiment("table4")
        assert [row.spec.claim.strike for row in rows] == [45.0, 50.0, 55.0]
        spec = rows[0].spec
        assert spec.dim == 120
        assert spec.d_reduced == 5
        assert spec.n == 100_000
        assert spec.model.spot == approx(np.array([50.0, 40.0, 60.0, 30.0, 20.0]))

    def test_coverage_builtin(self):
        (row,) = builtin_experiment("digital-coverage")
        assert row.spec.replications == 2_000
        assert row.spec.n == 100_000
        assert row.spec.modes == ("ris",)

    def test_overrides_apply(self):
        rows = builtin_experiment("table1", n=500, seed=1, modes=("crude",))
        assert all(row.spec.n == 500 for row in rows)
        assert all(row.spec.seed == 1 for row in rows)
        assert all(row.spec.modes == ("crude",) for row in rows)

    def test_unknown_name(self):
        with pytest.raises(ConfigError):
            builtin_experiment("table9")

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: builtin_experiment("table1", modes=()), "modes"),
            (lambda: builtin_experiment("table3", seed=-1), "seed"),
            (lambda: with_overrides(builtin_experiment("table1")[0].spec, modes=()), "modes"),
            (lambda: builtin_experiment("table3", modes=("ris", "ris")), "modes"),
            (lambda: builtin_experiment("table3", n=1, modes=("two_stage",)), "n"),
        ],
        ids=[
            "builtin-no-modes", "builtin-negative-seed", "override-no-modes",
            "builtin-repeated-mode", "builtin-two-stage-one-row",
        ],
    )
    def test_library_overrides_follow_the_spec_rules(self, build, field):
        with pytest.raises(ConfigError) as err:
            build()
        assert err.value.field == field
