"""Experiment configuration: strict parsing, canonical form, hashing.

Config files are JSON with sections mirroring the domain types.  Every
JSON object is read by one table-driven reader: each section declares its
keys once, with a value parser and a default per key (:data:`EXPERIMENT`,
:data:`RADICAL_PAIR`, :data:`NUCLEUS`, :data:`SENSOR` and, per experiment
kind, :data:`PARAMS`).  The reader rejects unknown and missing required
keys, every diagnostic names the failing field (JSONPath-style), and the
canonical dictionary used for round-trip comparison and hashing takes its
keys from the same tables.
"""

from __future__ import annotations

import enum
import hashlib
import json
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from .ensemble import MAX_MOLECULES
from .errors import ConfigError
from .hamiltonian import (
    DecayConvention,
    InitialElectronState,
    Nucleus,
    RadicalPairConfig,
    SensorParams,
)
from .presets import ANISOTROPY_CASES, SYSTEMS, system_config
from .spincore import SpinSpecies

#: a value parser: (raw JSON value, its path for diagnostics) -> typed value
Parser = Callable[[Any, str], Any]

#: a JSON object's keys: key -> (value parser, default); a default of ``...`` marks a required key
Fields = dict[str, tuple[Parser, Any]]

#: distances in nm: r^3 is then a finite normal float both in m^3 (the point-dipole
#: prefactor, ~1/r^3) and in nm^3 (the ensemble's shell volume)
DISTANCE_NM = (1e-93, 1e102)

#: most points in one grid: 55 times the largest shipped grid (181 angles)
MAX_GRID_POINTS = 10_000

#: most samples in a time trace: 128 times the default; about 100 B of arrays a sample
MAX_SAMPLES = 2**22

#: longest signal window T, s, that a decay (T = 5/k) or ``params.t_max_us`` may set:
#: lambda T of a 1e9 rad/s spread keeps 7 digits
MAX_WINDOW_S = 1.0

#: most realizations in an ensemble: 200 times fig5's; each one's generator (about 1 KB)
#: is spawned before the first molecule is drawn
MAX_REALIZATIONS = 10_000


def _ctx(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _read(table: Fields, raw: Any, where: str) -> dict[str, Any]:
    """Every key of ``table``, parsed from the JSON object ``raw``, with absent keys' defaults.

    An unknown key or an absent required one is rejected, named by its path.
    """
    for key in _object(raw, where or "top level"):
        if key not in table:
            raise ConfigError(f"{_ctx(where, key)}: unknown field")
    out = {}
    for key, (parse, default) in table.items():
        if key not in raw and default is ...:
            raise ConfigError(f"{_ctx(where, key)}: required field is missing")
        out[key] = parse(raw.get(key, default), _ctx(where, key))
    return out


# -- value parsers ---------------------------------------------------------------


def _object(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected an object")
    return value


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where}: expected a number, got {type(value).__name__}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return float(value)


def _integer(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{where}: expected an integer, got {type(value).__name__}")
    return value


def _string(value: Any, where: str, options: tuple[str, ...] | None = None) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{where}: expected a string, got {type(value).__name__}")
    if options is not None and value not in options:
        raise ConfigError(f"{where}: {value!r} is not one of {sorted(options)}")
    return value


def _matrix3(value: Any, where: str) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != 3 or any(
        not isinstance(row, (list, tuple)) or len(row) != 3 for row in value
    ):
        raise ConfigError(f"{where}: expected a 3x3 matrix of numbers")
    return np.array([[_number(x, f"{where}[{i}][{j}]") for j, x in enumerate(row)]
                     for i, row in enumerate(value)])


def _positive(value: Any, where: str) -> float:
    x = _number(value, where)
    if not x > 0:
        raise ConfigError(f"{where}: must be positive, got {value!r}")
    return x


def _check_window(window: float, where: str, spelled: str) -> None:
    """ConfigError naming ``where`` unless the signal window (s) lies in (0, MAX_WINDOW_S]."""
    if not 0 < window <= MAX_WINDOW_S:
        raise ConfigError(
            f"{where}: the signal window {spelled} = {window:.6g} s must lie in "
            f"(0, {MAX_WINDOW_S:g}] s"
        )


def _lifetime_rate(tau_us: float) -> float:
    """k = 1/tau in 1/s; a lifetime whose product tau * 1e-6 underflows to 0 gives k = inf."""
    return 1 / max(tau_us * 1e-6, 5e-324)


def _lifetime(value: Any, where: str) -> float:
    """A lifetime in us whose window 5/k (k = 1/tau) lies in (0, MAX_WINDOW_S]."""
    tau = _positive(value, where)
    _check_window(5.0 / _lifetime_rate(tau), where, "5/k")
    return tau


def _window_us(value: Any, where: str) -> float:
    """A signal window in us that lies in (0, MAX_WINDOW_S] in s."""
    t_max = _positive(value, where)
    _check_window(t_max * 1e-6, where, "t_max")
    return t_max


def _distance(value: Any, where: str) -> float:
    x = _number(value, where)
    lo, hi = DISTANCE_NM
    if not lo <= x <= hi:
        raise ConfigError(f"{where}: a distance must lie in [{lo:g}, {hi:g}] nm, got {value!r}")
    return x


def _within(lo: float, hi: float, closed: bool = True) -> Parser:
    """A number in [lo, hi], or in [lo, hi) unless ``closed``."""
    bounds = f"[{lo:g}, {hi:g}{']' if closed else ')'}"

    def parse(value: Any, where: str) -> float:
        x = _number(value, where)
        if not (lo <= x and (x <= hi if closed else x < hi)):
            raise ConfigError(f"{where}: must lie in {bounds}, got {value!r}")
        return x

    return parse


def _count(minimum: int, maximum: float = math.inf) -> Parser:
    def parse(value: Any, where: str) -> int:
        n = _integer(value, where)
        if n < minimum:
            raise ConfigError(f"{where}: must be at least {minimum}, got {n}")
        if n > maximum:
            raise ConfigError(f"{where}: must be at most {maximum}, got {n}")
        return n

    return parse


def _flag(value: Any, where: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{where}: expected true or false, got {type(value).__name__}")
    return value


def _choice(*options: str) -> Parser:
    return lambda value, where: _string(value, where, options)


def _optional(parse: Parser) -> Parser:
    """``parse``, except that null stands for "not given"."""
    return lambda value, where: None if value is None else parse(value, where)


def _member(kind: type[enum.Enum]) -> Parser:
    """The member of the enum ``kind`` whose value the string names."""
    return lambda value, where: kind(_string(value, where, tuple(m.value for m in kind)))


def _list(
    item: Parser, size: int | None = None, increasing: bool = False, empty: bool = False
) -> Parser:
    """A list of ``item`` values: non-empty unless ``empty``, of exactly ``size`` if given."""

    def parse(value: Any, where: str) -> list:
        if not isinstance(value, (list, tuple)) or size not in (None, len(value)) or not (
            value or empty
        ):
            wanted = f"a list of {size}" if size else "a list" if empty else "a non-empty list"
            raise ConfigError(f"{where}: expected {wanted}, got {value!r}")
        values = [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{where}: {list(value)} must be strictly increasing")
        return values

    return parse


def _grid(item: Parser, log: bool = False) -> Parser:
    """[lo, hi, n] -> n points from lo to hi, evenly spaced (in log10 if ``log``).

    n is an integer from 1 to ``MAX_GRID_POINTS``.
    """
    count = _count(1, MAX_GRID_POINTS)

    def parse(value: Any, where: str) -> np.ndarray:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ConfigError(f"{where}: expected a grid [lo, hi, n], got {value!r}")
        lo, hi = item(value[0], f"{where}[0]"), item(value[1], f"{where}[1]")
        try:
            n = count(value[2], f"{where}[2]")
        except ConfigError as exc:
            raise ConfigError(f"{exc} (grid {list(value)})") from None
        if log:
            return np.logspace(math.log10(lo), math.log10(hi), n)
        return np.linspace(lo, hi, n)

    return parse


_SYSTEM = (_optional(_choice(*SYSTEMS)), None)
_SCALE = (_choice("single_molecule", "max_aligned"), "single_molecule")
_T_MAX = (_optional(_window_us), None)
_CASE = _choice(*ANISOTROPY_CASES)
#: a pair's field, magnitude (mT) and direction (degrees), in the ranges ``FieldConfig`` takes
_B_MT = _within(0.0, math.inf)
_THETA_DEG = _within(0.0, 180.0)
_PHI_DEG = _within(0.0, 360.0, closed=False)

#: kind -> the keys of its ``params`` object; every key is optional
PARAMS: dict[str, Fields] = {
    "coupling-map": {
        "r_nm": (_grid(_distance), [5.0, 30.0, 26]),
        "theta_deg": (_grid(_number), [0.0, 180.0, 37]),
    },
    "time-trace": {
        "system": _SYSTEM,
        "b_mT": (_B_MT, 1.16),
        "theta_deg": (_THETA_DEG, 0.0),
        "phi_deg": (_PHI_DEG, 0.0),
        "r_nm": (_distance, 10.0),
        "n_samples": (_count(2, MAX_SAMPLES), 32768),
        "t_max_us": _T_MAX,
    },
    "field-sweep": {
        "system": _SYSTEM,
        "b_grid": (_grid(_positive, log=True), [0.01, 50.0, 60]),
        "scale": _SCALE,
        "r_nm": (_distance, 10.0),
        "densify": (_flag, False),
        "t_max_us": _T_MAX,
    },
    "angle-sweep": {
        "system": _SYSTEM,
        "b_mT": (_B_MT, 1.16),
        "theta_deg": (_grid(_THETA_DEG), [0.0, 180.0, 181]),
        "phi_deg": (_PHI_DEG, 0.0),
        "scale": _SCALE,
        "r_nm": (_distance, 10.0),
        "normalize": (_flag, True),
        "t_max_us": _T_MAX,
    },
    "ensemble": {
        "system": _SYSTEM,
        "b_grid": (_grid(_positive, log=True), [0.05, 10.0, 10]),
        "n_realizations": (_count(1, MAX_REALIZATIONS), 50),
        "n_molecules": (_optional(_count(1, MAX_MOLECULES)), None),
        "r_range_nm": (_optional(_list(_distance, size=2, increasing=True)), None),
    },
    "peak-count": {
        "system": _SYSTEM,
        "r_nm": (_distance, 5.0),
        "b_grid": (_grid(_positive, log=True), [0.05, 10.0, 24]),
        "theta_deg": (_THETA_DEG, 0.0),
        "phi_deg": (_PHI_DEG, 0.0),
    },
    "anisotropy-sweep": {
        "cases": (_list(_CASE), list(ANISOTROPY_CASES)),
        "b_mT": (_B_MT, 0.05),
        "j_mT": (_number, 0.25),
        "theta_deg": (_grid(_THETA_DEG), [0.0, 180.0, 181]),
        "r_nm": (_distance, 10.0),
    },
    "exchange-sweep": {
        "case": (_CASE, "axial3"),
        "j_grid_mT": (_list(_number), [0.0, 0.25, 0.5, 1.0]),
        "r_rp_nm": (_optional(_distance), 2.5),
        "b_mT": (_B_MT, 0.05),
        "theta_deg": (_grid(_THETA_DEG), [0.0, 180.0, 61]),
        "r_nm": (_distance, 10.0),
    },
    "lifetime-sweep": {
        "case": (_CASE, "axial3"),
        "tau_us": (_list(_lifetime, increasing=True), [1.0, 2.5, 5.0, 10.0, 25.0]),
        "b_mT": (_B_MT, 0.05),
        "theta_deg": (_grid(_THETA_DEG), [0.0, 180.0, 61]),
        "r_nm": (_distance, 10.0),
    },
}

#: experiment kinds the runner understands
KINDS = tuple(PARAMS)


# -- the other sections, and the objects built from them -------------------------


def _parse_nucleus(raw: Any, where: str) -> Nucleus:
    f = _read(NUCLEUS, raw, where)
    try:
        species = SpinSpecies(f["label"], f["spin"])
    except ValueError as exc:
        raise ConfigError(f"{_ctx(where, 'spin')}: {exc}") from exc
    return Nucleus(species, f["tensor_mT"])


def parse_radical_pair(raw: Any, where: str) -> RadicalPairConfig:
    f = _read(RADICAL_PAIR, raw, where)
    k, tau = f.pop("recombination_rate"), f.pop("lifetime_us")
    if (k is None) == (tau is None):
        raise ConfigError(f"{where}: give exactly one of recombination_rate and lifetime_us")
    key, k = ("lifetime_us", _lifetime_rate(tau)) if tau else ("recombination_rate", k)
    if k > 0:  # k = 0 needs params.t_max_us; inf gives T = 0
        _check_window(5.0 / k, _ctx(where, key), "5/k")
    return RadicalPairConfig(**f, recombination_rate=k)


def parse_sensor(raw: Any, where: str) -> SensorParams:
    """The sensor section; null stands for the section left out."""
    return SensorParams(**_read(SENSOR, {} if raw is None else raw, where))


NUCLEUS: Fields = {
    "label": (_string, ...),
    "spin": (_number, ...),
    "tensor_mT": (_matrix3, ...),
}

#: ``recombination_rate`` (1/s) and ``lifetime_us`` spell one parameter: give exactly one
RADICAL_PAIR: Fields = {
    "nuclei_radical1": (_list(_parse_nucleus, empty=True), []),
    "nuclei_radical2": (_list(_parse_nucleus, empty=True), []),
    "j_exchange_mT": (_number, 0.0),
    "dipolar_tensor_mT": (_optional(_matrix3), None),
    "r_rp_nm": (_optional(_distance), None),
    "recombination_rate": (_optional(_number), None),
    "lifetime_us": (_optional(_positive), None),
    "initial_state": (_member(InitialElectronState), "singlet"),
    "decay_convention": (_member(DecayConvention), "rate_k"),
}

#: every field of ``SensorParams``, with its default; the shell radii are distances
SENSOR: Fields = {
    f.name: (_distance if f.name in ("r1_nm", "r2_nm") else _number, f.default)
    for f in fields(SensorParams)
}

EXPERIMENT: Fields = {
    "notes": (_string, ""),
    "kind": (_choice(*KINDS), ...),
    "seed": (_integer, 0),
    "radical_pair": (_optional(parse_radical_pair), None),
    "sensor": (parse_sensor, None),
    "params": (_object, {}),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: kind, spin system, sensor, parameters."""

    kind: str
    radical_pair: RadicalPairConfig | None
    sensor: SensorParams
    params: dict[str, Any]
    seed: int = 0

    def canonical_dict(self) -> dict[str, Any]:
        out = {"kind": self.kind, "seed": self.seed, "sensor": self.sensor, "params": self.params}
        if self.radical_pair is not None:
            out["radical_pair"] = self.radical_pair
        return _canonical_value(out)

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _canonical_value(value: Any) -> Any:
    """``value`` as plain JSON data; a section becomes an object with its table's keys."""
    if isinstance(value, RadicalPairConfig):  # the rate stands for both of its spellings
        value = {key: getattr(value, key) for key in RADICAL_PAIR if key != "lifetime_us"}
    elif isinstance(value, SensorParams):
        value = {key: getattr(value, key) for key in SENSOR}
    elif isinstance(value, Nucleus):
        value = {"label": value.species.label, "spin": value.species.spin,
                 "tensor_mT": value.tensor_mT}
    if isinstance(value, dict):
        return {k: _canonical_value(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError("NaN is not a valid configuration value")
    return value


def read_params(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Every parameter of ``kind``, parsed, with the defaults of absent keys filled in.

    Keys that ``kind`` does not take are ignored here; :func:`build_experiment`
    rejects them before a run.
    """
    return _read(PARAMS[kind], {k: v for k, v in params.items() if k in PARAMS[kind]}, "params")


def build_experiment(
    kind: str,
    radical_pair: RadicalPairConfig | None,
    sensor: SensorParams,
    params: dict[str, Any],
    seed: int = 0,
) -> ExperimentConfig:
    """The checked experiment that presets and config files both become.

    Rejects ``params`` keys that ``kind`` does not take and ill-typed or
    out-of-range values, and resolves ``params.system`` into the radical
    pair, which a given ``radical_pair`` must then equal.  ``params`` is
    kept as given, so the config hash covers exactly what was written.
    """
    system = _read(PARAMS[kind], params, "params").get("system")
    if system is not None:
        named = system_config(system)
        if radical_pair is None:
            radical_pair = named
        elif _canonical_value(radical_pair) != _canonical_value(named):
            raise ConfigError(
                f"params.system: {system!r} differs from the radical_pair section"
            )
    return ExperimentConfig(kind, radical_pair, sensor, dict(params), seed)


def parse_experiment(raw: Any) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig."""
    f = _read(EXPERIMENT, raw, "")
    return build_experiment(f["kind"], f["radical_pair"], f["sensor"], f["params"], f["seed"])


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a JSON experiment file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_experiment(raw)
