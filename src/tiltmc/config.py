"""Experiment specifications: config-file parsing and builtin parameter sets.

The config format is a plain-text file with ``[model]``, ``[claim]`` and
``[run]`` sections of ``key = value`` lines; ``#`` starts a comment. Lists
(weights, barriers) are whitespace-separated. Unknown sections or keys are
rejected with their line number, and every validation error names the
offending field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .drift import DriftMap, identity_map, load_dense_map, path_drift_multi
from .errors import ConfigError, IncompatibleClaim
from .estimate import MODES
from .gaussian import DEFAULT_SAMPLE_BUDGET, RngStream
from .payoffs import (
    BarrierBasketCall,
    BarrierCall,
    Basket,
    BestOf,
    BlackScholesMulti,
    ConstantVol,
    Digital,
    LocalVol1D,
    Payoff,
    PowerLawVol,
    TabulatedVol,
    VanillaCall,
    VanillaPut,
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


@dataclass(frozen=True, eq=False)
class ExperimentSpec:
    """One fully resolved pricing experiment (one parameter row)."""

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

    def __post_init__(self):
        # Every spec passes here (parsed, builtin or overridden by ``replace``),
        # so a run the engine would refuse is a config error on its field.
        if self.n < 1:
            raise ConfigError("'n' must be >= 1", field="n")
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
        if not 0.0 < self.level < 1.0:
            raise ConfigError("'level' must lie in (0, 1)", field="level")
        if not self.modes or not set(self.modes) <= set(MODES):
            raise ConfigError(
                f"'modes' must be a nonempty subset of {', '.join(MODES)}; got {self.modes!r}",
                field="modes",
            )
        if self.replications is not None and self.replications < 1:
            raise ConfigError("'replications' must be >= 1", field="replications")

    @property
    def dim(self) -> int:
        return self.model.dim

    def payoff(self) -> Payoff:
        return build_payoff(self.model, self.claim)

    def drift(self) -> DriftMap:
        """The drift map named by ``drift_kind``, checked against the model.

        The one place that knows the drift kinds: ``identity``,
        ``path_single`` (the one-asset ``path_multi``), ``path_multi`` and
        ``dense:<file>``. :func:`parse_config` calls it, so a bad selection
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
        return self.drift().d_reduced

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
    with open(path, "r", encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            line = raw.split("#", 1)[0].strip()
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


class _Fields:
    """Typed, consume-once access to one section's keys."""

    def __init__(self, name: str, section: _Section):
        self.name = name
        self.section = dict(section)

    def _take(self, key, required, default):
        if key in self.section:
            value, line = self.section.pop(key)
            return value, line
        if required:
            raise ConfigError(f"missing required key '{key}' in [{self.name}]", field=key)
        return default, None

    def string(self, key, *, required=False, default=None, choices=None) -> str | None:
        value, line = self._take(key, required, default)
        if value is None:
            return None
        value = str(value)
        if choices and value not in choices:
            raise ConfigError(
                f"'{key}' must be one of {', '.join(choices)}; got {value!r}",
                line=line,
                field=key,
            )
        return value

    def number(self, key, *, required=False, default=None) -> float | None:
        value, line = self._take(key, required, default)
        if value is None or isinstance(value, float):
            return value
        try:
            number = float(value)
            if math.isfinite(number):
                return number
        except ValueError:
            pass
        raise ConfigError(f"'{key}' must be a finite number; got {value!r}", line=line, field=key)

    def integer(self, key, *, required=False, default=None) -> int | None:
        value, line = self._take(key, required, default)
        if value is None or isinstance(value, int):
            return value
        try:
            return int(value)
        except ValueError:
            raise ConfigError(f"'{key}' must be an integer; got {value!r}", line=line, field=key)

    def vector(self, key, *, required=False, default=None) -> np.ndarray | None:
        value, line = self._take(key, required, default)
        if value is None:
            return None
        if isinstance(value, np.ndarray):
            return value
        try:
            values = np.array([float(tok) for tok in value.split()], dtype=np.float64)
            if np.isfinite(values).all():
                return values
        except ValueError:
            pass
        raise ConfigError(
            f"'{key}' must be a finite number or whitespace-separated list; got {value!r}",
            line=line,
            field=key,
        )

    def words(self, key, *, required=False, default=None) -> tuple[str, ...] | None:
        value, line = self._take(key, required, default)
        if value is None or isinstance(value, tuple):
            return value
        return tuple(value.split())

    def finish(self):
        if self.section:
            key, (_, line) = next(iter(self.section.items()))
            raise ConfigError(f"unknown key '{key}' in [{self.name}]", line=line, field=key)


def _broadcast(values: np.ndarray | None, n: int, field: str) -> np.ndarray:
    if values is None:
        raise ConfigError(f"missing required key '{field}'", field=field)
    if values.size == 1:
        return np.full(n, float(values[0]))
    if values.size != n:
        raise ConfigError(
            f"'{field}' has {values.size} entries but the model has {n} assets", field=field
        )
    return values


def _build_model(section: _Section):
    fields = _Fields("model", section)
    kind = fields.string("kind", required=True, choices=("bs", "localvol"))
    if kind == "bs":
        assets = fields.integer("assets", default=1)
        steps = fields.integer("steps")
        maturity = fields.number("maturity")
        spot = _broadcast(fields.vector("spot", required=True), assets, "spot")
        vol = _broadcast(fields.vector("vol", required=True), assets, "vol")
        rate = fields.number("rate", required=True)
        rho = fields.number("rho", default=0.0)
        times = fields.vector("times")
        fields.finish()
        if assets < 1:
            raise ConfigError("'assets' must be >= 1", field="assets")
        if assets > 1 and not -1.0 / (assets - 1) < rho < 1.0:
            raise ConfigError(
                f"rho must lie in (-1/(I-1), 1); with I={assets} assets that is "
                f"({-1.0 / (assets - 1):.6g}, 1), got {rho}",
                field="rho",
            )
        if times is None:
            steps = 1 if steps is None else steps
            if maturity is None:
                raise ConfigError("missing required key 'maturity'", field="maturity")
            if steps < 1:
                raise ConfigError("'steps' must be >= 1", field="steps")
            if maturity <= 0:
                raise ConfigError("'maturity' must be positive", field="maturity")
            times = maturity / steps * np.arange(1, steps + 1)
        elif maturity is not None and abs(times[-1] - maturity) > 1e-12:
            raise ConfigError(
                f"'times' ends at {times[-1]} but 'maturity' says {maturity}", field="times"
            )
        elif steps is not None and steps != times.size:
            raise ConfigError(
                f"'steps' is {steps} but 'times' lists {times.size} dates", field="steps"
            )
        try:
            return BlackScholesMulti.create(assets, times, spot, vol, rate, rho)
        except ValueError as exc:
            raise ConfigError(str(exc), field="model") from exc

    spot = fields.number("spot", required=True)
    rate = fields.number("rate", required=True)
    maturity = fields.number("maturity", required=True)
    steps = fields.integer("steps", required=True)
    vol_kind = fields.string("vol_kind", required=True, choices=("constant", "power", "table"))
    if vol_kind == "constant":
        vol_fn = ConstantVol(fields.number("vol_sigma", required=True))
    elif vol_kind == "power":
        sigma = fields.number("vol_sigma", required=True)
        gamma = fields.number("vol_gamma", required=True)
        floor, cap = fields.number("vol_floor", default=0.01), fields.number("vol_cap", default=2.0)
        try:
            vol_fn = PowerLawVol(sigma=sigma, gamma=gamma, ref_spot=spot, floor=floor, cap=cap)
        except ValueError as exc:
            raise ConfigError(str(exc), field="vol_floor") from exc
    else:
        table_path = fields.string("vol_table", required=True)
        try:
            vol_fn = TabulatedVol.from_csv(table_path)
        except (OSError, ValueError) as exc:
            raise ConfigError(str(exc), field="vol_table") from exc
    fields.finish()
    try:
        return LocalVol1D(spot=spot, rate=rate, maturity=maturity, n_steps=steps, vol_fn=vol_fn)
    except ValueError as exc:
        raise ConfigError(str(exc), field="model") from exc


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
    if kind == "basket":
        claim = Basket(
            weights=_broadcast(fields.vector("weights", required=True), n_assets, "weights"),
            strike=fields.number("strike", required=True),
        )
    elif kind == "digital":
        claim = Digital(
            level=fields.number("level", required=True),
            above=fields.string("direction", default="above", choices=("above", "below"))
            == "above",
        )
    elif kind == "barrier_call":
        claim = BarrierCall(
            strike=fields.number("strike", required=True),
            barrier=fields.number("barrier", required=True),
            knock=fields.string("knock", default="down-out", choices=("down-out", "up-out")),
        )
    elif kind == "barrier_basket_call":
        claim = BarrierBasketCall(
            weights=_broadcast(fields.vector("weights", required=True), n_assets, "weights"),
            strike=fields.number("strike", required=True),
            barriers=_broadcast(fields.vector("barriers", required=True), n_assets, "barriers"),
        )
    elif kind == "best_of":
        claim = BestOf(
            weights=_broadcast(fields.vector("weights", required=True), n_assets, "weights"),
            strike=fields.number("strike", required=True),
        )
    elif kind == "vanilla_call":
        claim = VanillaCall(strike=fields.number("strike", required=True))
    else:
        claim = VanillaPut(strike=fields.number("strike", required=True))
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
    model = _build_model(sections["model"])
    claim = _build_claim(sections["claim"], model)
    spec = _build_run(sections["run"], label=str(path), model=model, claim=claim)
    spec.drift()  # the drift selection
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
        yield f"L={barrier:g}", model, BarrierCall(strike=110.0, barrier=barrier)


def _barrier_basket_points():
    spot = np.array([50.0, 40.0, 60.0, 30.0, 20.0])
    barriers = np.array([40.0, 30.0, 45.0, 20.0, 10.0])
    for strike in (45.0, 50.0, 55.0):
        model = BlackScholesMulti.create(5, _MONTHLY_2Y, spot, 0.2, 0.05, 0.3)
        yield f"K={strike:g}", model, BarrierBasketCall(np.full(5, 0.2), strike, barriers)


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
            label=label,
            model=model,
            claim=claim,
            drift_kind=drift_kind,
            modes=default_modes if modes is None else tuple(modes),
            n=default_n if n is None else n,
            seed=_DEFAULT_SEED if seed is None else seed,
            replications=replications,
        )
        rows.append(ExperimentRow(label=label, spec=spec))
    return rows


def with_overrides(spec: ExperimentSpec, *, n=None, seed=None, modes=None):
    """Copy of ``spec`` with selected run parameters replaced."""
    updates = {}
    if n is not None:
        updates["n"] = n
    if seed is not None:
        updates["seed"] = seed
    if modes is not None:
        updates["modes"] = tuple(modes)
    return replace(spec, **updates) if updates else spec
