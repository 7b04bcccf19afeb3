"""Experiment specifications: config-file parsing and builtin parameter sets.

The config format is a plain-text file with ``[model]``, ``[claim]`` and
``[run]`` sections of ``key = value`` lines; ``#`` starts a comment. Lists
(weights, barriers) are whitespace-separated. Unknown sections or keys are
rejected with their line number, and every validation error names the
offending field.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .drift import DriftMap, identity_map, load_dense_map, path_drift_multi
from .errors import ConfigError, IncompatibleClaim, InvalidParameter
from .estimate import MODES
from .gaussian import DEFAULT_SAMPLE_BUDGET, RngStream
from .payoffs import (
    Basket,
    BestOf,
    BlackScholesMulti,
    ConstantVol,
    Digital,
    LocalVol1D,
    Payoff,
    PowerLawVol,
    TabulatedVol,
    build_payoff,
)

__all__ = [
    "ExperimentSpec",
    "ExperimentRow",
    "parse_config",
    "builtin_experiment",
    "BUILTIN_NAMES",
]

DEFAULT_LEVEL = 0.95
DEFAULT_MODES = ("crude", "ris")
# Model parameters named apart from their [model] key; every other name is its key.
_MODEL_KEYS = {"n_steps": "steps", "sigma": "vol_sigma", "floor": "vol_floor"}


def _require(ok, field: str, rule: str) -> None:
    """A config error on ``field`` unless ``ok``: the value must ``rule``."""
    if not ok:
        raise ConfigError(f"'{field}' must {rule}", field=field)


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One fully resolved pricing experiment (one parameter row).

    The drift map named by ``drift_kind`` is built once, when the spec is,
    and ``drift()`` returns that one map; :func:`with_overrides` copies keep it.
    """

    label: str
    model: object
    claim: object
    drift_kind: str
    modes: tuple[str, ...]
    n: int
    seed: int
    level: float = DEFAULT_LEVEL
    replications: int | None = None
    out_format: str = "text"
    _drift: DriftMap = field(init=False, repr=False)

    def __post_init__(self):
        self._check_run()
        object.__setattr__(self, "_drift", self._build_drift())

    def _check_run(self):
        # Every spec passes here (parsed, builtin or overridden), so a run the
        # engine would refuse is a config error on its field.
        _require(self.n >= 1, "n", "be >= 1")
        if self.n * self.dim > DEFAULT_SAMPLE_BUDGET:
            raise ConfigError(
                f"n * dim = {self.n} * {self.dim} exceeds the sample budget of "
                f"{DEFAULT_SAMPLE_BUDGET} doubles",
                field="n",
            )
        try:
            RngStream(self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc), field="seed") from exc
        _require(0.0 < self.level < 1.0, "level", "lie in (0, 1)")
        if not self.modes or len(set(self.modes) & set(MODES)) < len(self.modes):  # known, distinct
            raise ConfigError(
                f"'modes' must be distinct names from {', '.join(MODES)}; got {self.modes!r}",
                field="modes",
            )
        if "two_stage" in self.modes and self.n < 2:
            raise ConfigError("two_stage needs n >= 2 samples to tune a tilt on each half", field="n")
        _require(self.replications is None or self.replications >= 1, "replications", "be >= 1")

    @property
    def dim(self) -> int:
        return self.model.dim

    def payoff(self) -> Payoff:
        return build_payoff(self.model, self.claim)

    def drift(self) -> DriftMap:
        """The drift map named by ``drift_kind``, built with the spec."""
        return self._drift

    def _build_drift(self) -> DriftMap:
        """The drift map named by ``drift_kind``, checked against the model.

        The one place that knows the drift kinds: ``identity``,
        ``path_single`` (the one-asset ``path_multi``), ``path_multi`` and
        ``dense:<file>``. Every spec builds its map here, so a bad selection
        fails at parse time.
        """
        model, kind = self.model, self.drift_kind
        if kind == "identity":
            drift = identity_map(model.dim)
        elif kind == "path_single":
            drift = path_drift_multi(model.times, 1)
        elif kind == "path_multi":
            drift = path_drift_multi(model.times, model.n_assets)
        elif kind.startswith("dense:") and kind != "dense:":
            try:
                drift = load_dense_map(kind.split(":", 1)[1])
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc), field="drift") from exc
        else:
            raise ConfigError(
                f"'drift' must be identity, path_single, path_multi or dense:<file>; got {kind!r}",
                field="drift",
            )
        if drift.d != model.dim:
            raise ConfigError(
                f"drift {kind!r} has d={drift.d} but the model dimension is {model.dim}",
                field="drift",
            )
        return drift

    @property
    def d_reduced(self) -> int:
        return self._drift.d_reduced

    def describe(self) -> str:
        return (
            f"{self.label}: d = {self.dim}, d' = {self.d_reduced}, "
            f"n = {self.n}, seed = {self.seed}, modes = {','.join(self.modes)}"
        )


@dataclass(frozen=True)
class ExperimentRow:
    label: str
    spec: ExperimentSpec


# --- config file parsing ------------------------------------------------------


class _Section(dict):
    """key -> (raw value, line number)"""


def _read_sections(path) -> dict[str, _Section]:
    sections: dict[str, _Section] = {}
    current: _Section | None = None
    with open(path, "rb") as handle:
        for lineno, raw in enumerate(handle.read().splitlines(), start=1):
            try:
                line = raw.decode("utf-8").split("#", 1)[0].strip()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path} is not UTF-8 text: {exc.reason}", line=lineno) from exc
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                name = line[1:-1].strip().lower()
                if name not in ("model", "claim", "run"):
                    raise ConfigError(f"unknown section [{name}]", line=lineno)
                if name in sections:
                    raise ConfigError(f"duplicate section [{name}]", line=lineno)
                current = sections.setdefault(name, _Section())
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=lineno)
            if current is None:
                raise ConfigError("key outside of any [section]", line=lineno)
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if not key or not value:
                raise ConfigError("expected 'key = value'", line=lineno)
            if key in current:
                raise ConfigError(f"duplicate key '{key}'", line=lineno, field=key)
            current[key] = (value, lineno)
    for required in ("model", "claim", "run"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    return sections


def _finite(value: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise ValueError(value)
    return number


def _finite_list(value: str) -> np.ndarray:
    return np.array([_finite(token) for token in value.split()])


def _one_of(choices):
    """A parser that accepts only ``choices``, or any string when None."""

    def parse(value: str) -> str:
        if choices and value not in choices:
            raise ValueError(value)
        return value

    return parse


class _Fields:
    """Typed, consume-once access to one section's keys."""

    def __init__(self, name: str, section: _Section):
        self.name = name
        self.section = dict(section)

    def _get(self, key, parse, what, required, default):
        """``parse`` of the key's value, which raises ValueError unless the
        value is ``what``; ``default`` when the key is absent."""
        if key not in self.section:
            if required:
                raise ConfigError(f"missing required key '{key}' in [{self.name}]", field=key)
            return default
        value, line = self.section.pop(key)
        try:
            return parse(value)
        except ValueError:
            message = f"'{key}' must be {what}; got {value!r}"
            raise ConfigError(message, line=line, field=key) from None

    def string(self, key, *, required=False, default=None, choices=None) -> str | None:
        what = f"one of {', '.join(choices or ())}"
        return self._get(key, _one_of(choices), what, required, default)

    def number(self, key, *, required=False, default=None) -> float | None:
        return self._get(key, _finite, "a finite number", required, default)

    def integer(self, key, *, required=False, default=None) -> int | None:
        return self._get(key, int, "an integer", required, default)

    def vector(self, key, *, required=False, default=None) -> np.ndarray | None:
        what = "a finite number or whitespace-separated list"
        return self._get(key, _finite_list, what, required, default)

    def words(self, key, *, required=False, default=None) -> tuple[str, ...] | None:
        return self._get(key, lambda value: tuple(value.split()), "words", required, default)

    def finish(self):
        if self.section:
            key, (_, line) = next(iter(self.section.items()))
            raise ConfigError(f"unknown key '{key}' in [{self.name}]", line=line, field=key)


def _broadcast(values: np.ndarray, n: int, field: str) -> np.ndarray:
    if values.size == 1:
        return np.full(n, float(values[0]))
    if values.size != n:
        raise ConfigError(
            f"'{field}' has {values.size} entries but the model has {n} assets", field=field
        )
    return values


def _build_model(section: _Section):
    """The [model] section's model; each model checks its own parameters."""
    fields = _Fields("model", section)
    kind = fields.string("kind", required=True, choices=("bs", "localvol"))
    if kind == "localvol":
        spot = fields.number("spot", required=True)
        rate = fields.number("rate", required=True)
        maturity = fields.number("maturity", required=True)
        steps = fields.integer("steps", required=True)
        vol_kind = fields.string("vol_kind", required=True, choices=("constant", "power", "table"))
        if vol_kind == "constant":
            vol_fn = ConstantVol(fields.number("vol_sigma", required=True))
        elif vol_kind == "power":
            vol_fn = PowerLawVol(
                sigma=fields.number("vol_sigma", required=True),
                gamma=fields.number("vol_gamma", required=True),
                ref_spot=spot,
                floor=fields.number("vol_floor", default=0.01),
                cap=fields.number("vol_cap", default=2.0),
            )
        else:
            table_path = fields.string("vol_table", required=True)
            try:
                vol_fn = TabulatedVol.from_csv(table_path)
            except (OSError, ValueError) as exc:
                raise ConfigError(str(exc), field="vol_table") from exc
        fields.finish()
        return LocalVol1D(spot=spot, rate=rate, maturity=maturity, n_steps=steps, vol_fn=vol_fn)

    assets = fields.integer("assets", default=1)
    steps = fields.integer("steps")
    maturity = fields.number("maturity")
    spot = fields.vector("spot", required=True)
    vol = fields.vector("vol", required=True)
    rate = fields.number("rate", required=True)
    rho = fields.number("rho", default=0.0)
    times = fields.vector("times")
    fields.finish()
    # The rules of keys that no model has: the asset count, and the grid they build.
    _require(assets >= 1, "assets", "be >= 1")
    _require(steps is None or steps >= 1, "steps", "be >= 1")
    _require(maturity is None or maturity > 0, "maturity", "be positive")
    if times is None:
        if maturity is None:
            raise ConfigError("missing required key 'maturity'", field="maturity")
        steps = 1 if steps is None else steps
        times = maturity / steps * np.arange(1, steps + 1)
    elif maturity is not None and abs(times[-1] - maturity) > 1e-12:
        raise ConfigError(
            f"'times' ends at {times[-1]} but 'maturity' says {maturity}", field="times"
        )
    elif steps is not None and steps != times.size:
        raise ConfigError(f"'steps' is {steps} but 'times' lists {times.size} dates", field="steps")
    spot, vol = _broadcast(spot, assets, "spot"), _broadcast(vol, assets, "vol")
    return BlackScholesMulti.create(assets, times, spot, vol, rate, rho)


def _build_claim(section: _Section, model):
    fields = _Fields("claim", section)
    kind = fields.string(
        "kind",
        required=True,
        choices=(
            "basket",
            "digital",
            "barrier_call",
            "barrier_basket_call",
            "best_of",
            "vanilla_call",
            "vanilla_put",
        ),
    )
    n_assets = model.n_assets
    if kind == "digital":
        claim = Digital(
            level=fields.number("level", required=True),
            above=fields.string("direction", default="above", choices=("above", "below"))
            == "above",
        )
    elif kind in ("vanilla_call", "vanilla_put"):
        sign = 1.0 if kind == "vanilla_call" else -1.0  # a put is (-S - (-K))_+
        claim = Basket(np.full(1, sign), sign * fields.number("strike", required=True))
    elif kind == "barrier_call":
        strike = fields.number("strike", required=True)
        barrier = fields.number("barrier", required=True)
        knock = fields.string("knock", default="down-out", choices=("down-out", "up-out"))
        claim = Basket(np.ones(1), strike, np.array([barrier]), up=knock == "up-out")
    else:
        weights = _broadcast(fields.vector("weights", required=True), n_assets, "weights")
        strike = fields.number("strike", required=True)
        if kind == "best_of":
            claim = BestOf(weights, strike)
        elif kind == "basket":
            claim = Basket(weights, strike)
        else:
            barriers = fields.vector("barriers", required=True)
            claim = Basket(weights, strike, _broadcast(barriers, n_assets, "barriers"))
    fields.finish()
    return claim


def _build_run(section: _Section, **rest) -> ExperimentSpec:
    """The spec with its [run] keys; ``rest`` holds label, model and claim."""
    fields = _Fields("run", section)
    run = dict(
        n=fields.integer("n", required=True),
        seed=fields.integer("seed", required=True),
        modes=fields.words("modes", default=DEFAULT_MODES),
        drift_kind=fields.string("drift", default="identity"),
        level=fields.number("level", default=DEFAULT_LEVEL),
        replications=fields.integer("replications"),
        out_format=fields.string("format", default="text", choices=("text", "csv")),
    )
    fields.finish()  # an unknown key is reported before any value check
    return ExperimentSpec(**run, **rest)


def parse_config(path) -> ExperimentSpec:
    """Parse and validate one experiment config file."""
    sections = _read_sections(path)
    try:
        model = _build_model(sections["model"])
    except InvalidParameter as exc:  # a model's own rule, reported on its key
        key = _MODEL_KEYS.get(exc.name, exc.name)
        raise ConfigError(f"{key} must {exc.rule}", field=key) from exc
    claim = _build_claim(sections["claim"], model)
    spec = _build_run(sections["run"], label=str(path), model=model, claim=claim)
    try:
        spec.payoff()  # the claim/model pairing
    except IncompatibleClaim as exc:
        raise ConfigError(str(exc), field="claim") from exc
    return spec


# --- builtin experiments ------------------------------------------------------
#
# Each builtin is one benchmark parameter grid: a 40-asset basket
# over a correlation/strike grid, a single-asset discretely monitored
# down-and-out call over barrier levels, a 5-asset barrier basket over
# strikes, and the digital-option interval-coverage study. A grid yields
# its (label, model, claim) points; the table below adds the rest.

_DEFAULT_SEED = 1729
_MONTHLY_2Y = 2.0 / 24.0 * np.arange(1, 25)


def _basket_points():
    for rho, strike in ((0.1, 45), (0.1, 55), (0.2, 50), (0.5, 45), (0.5, 55), (0.9, 45), (0.9, 55)):
        model = BlackScholesMulti.create(40, [1.0], 50.0, 0.2, 0.05, rho)
        yield f"rho={rho} K={strike}", model, Basket(np.full(40, 1.0 / 40.0), float(strike))


def _barrier_points():
    for barrier in (70.0, 80.0, 90.0, 95.0):
        model = BlackScholesMulti.create(1, _MONTHLY_2Y, 100.0, 0.2, 0.05, 0.0)
        yield f"L={barrier:g}", model, Basket(np.ones(1), 110.0, np.array([barrier]))


def _barrier_basket_points():
    spot = np.array([50.0, 40.0, 60.0, 30.0, 20.0])
    barriers = np.array([40.0, 30.0, 45.0, 20.0, 10.0])
    for strike in (45.0, 50.0, 55.0):
        model = BlackScholesMulti.create(5, _MONTHLY_2Y, spot, 0.2, 0.05, 0.3)
        yield f"K={strike:g}", model, Basket(np.full(5, 0.2), strike, barriers)


def _digital_points():
    model = BlackScholesMulti.create(1, [1.0], 100.0, 0.2, 0.05, 0.0)
    yield "digital L=140", model, Digital(level=140.0)


# name -> (points, drift kind, default modes, default n, replications)
_BUILTINS = {
    "table1": (_basket_points, "identity", ("crude", "ris"), 10_000, None),
    "table3": (_barrier_points, "path_single", ("crude", "ris", "rris"), 10_000, None),
    "table4": (_barrier_basket_points, "path_multi", ("crude", "ris", "rris"), 100_000, None),
    "digital-coverage": (_digital_points, "identity", ("ris",), 100_000, 2_000),
}

BUILTIN_NAMES = tuple(sorted(_BUILTINS))


def builtin_experiment(name: str, *, n=None, seed=None, modes=None) -> list[ExperimentRow]:
    """Instantiate a builtin experiment, optionally overriding n/seed/modes."""
    try:
        points, drift_kind, default_modes, default_n, replications = _BUILTINS[name]
    except KeyError:
        raise ConfigError(
            f"unknown builtin experiment {name!r}; available: {', '.join(BUILTIN_NAMES)}"
        )
    rows = []
    for label, model, claim in points():
        spec = ExperimentSpec(
            label, model, claim, drift_kind, default_modes, default_n, _DEFAULT_SEED,
            replications=replications,
        )
        rows.append(ExperimentRow(label, with_overrides(spec, n=n, seed=seed, modes=modes)))
    return rows


def with_overrides(spec: ExperimentSpec, *, n=None, seed=None, modes=None):
    """Copy of ``spec`` with selected run parameters replaced."""
    updates = dict(n=n, seed=seed, modes=None if modes is None else tuple(modes))
    updates = {key: value for key, value in updates.items() if value is not None}
    if not updates:
        return spec
    new = copy.copy(spec)  # no model or drift kind changes, so it keeps the drift map
    new.__dict__.update(updates)
    new._check_run()
    return new
