"""Experiment configuration: strict parsing, canonical form, hashing.

Config files are JSON with sections mirroring the domain types.  Parsing
is strict: unknown keys are rejected, every diagnostic names the failing
field (JSONPath-style), and a parsed configuration can be re-serialised
to a canonical dictionary for round-trip comparison and hashing.  Each
experiment kind's ``params`` are declared once, in :data:`PARAMS`, with
a value parser and a default per key; :func:`read_params` is how every
runner reads them.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

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

_MISSING = object()


def _ctx(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _take(section: dict, key: str, where: str, default: Any = _MISSING) -> Any:
    if key in section:
        return section.pop(key)
    if default is _MISSING:
        raise ConfigError(f"{_ctx(where, key)}: required field is missing")
    return default


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
    try:
        m = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: expected a 3x3 matrix of numbers") from exc
    if m.shape != (3, 3):
        raise ConfigError(f"{where}: expected a 3x3 matrix, got shape {m.shape}")
    return m


def _reject_unknown(section: dict, where: str) -> None:
    if section:
        key = sorted(section)[0]
        raise ConfigError(f"{_ctx(where, key)}: unknown field")


def _parse_nucleus(raw: Any, where: str) -> Nucleus:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    raw = dict(raw)
    label = _string(_take(raw, "label", where), _ctx(where, "label"))
    spin = _number(_take(raw, "spin", where), _ctx(where, "spin"))
    tensor = _matrix3(_take(raw, "tensor_mT", where), _ctx(where, "tensor_mT"))
    _reject_unknown(raw, where)
    try:
        species = SpinSpecies(label, spin)
    except ValueError as exc:
        raise ConfigError(f"{_ctx(where, 'spin')}: {exc}") from exc
    return Nucleus(species, tensor)


def parse_radical_pair(raw: Any, where: str = "radical_pair") -> RadicalPairConfig:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    raw = dict(raw)
    nuclei1 = [
        _parse_nucleus(n, f"{where}.nuclei_radical1[{i}]")
        for i, n in enumerate(_take(raw, "nuclei_radical1", where, []))
    ]
    nuclei2 = [
        _parse_nucleus(n, f"{where}.nuclei_radical2[{i}]")
        for i, n in enumerate(_take(raw, "nuclei_radical2", where, []))
    ]
    j_mT = _number(_take(raw, "j_exchange_mT", where, 0.0), _ctx(where, "j_exchange_mT"))
    dip = _take(raw, "dipolar_tensor_mT", where, None)
    dip = None if dip is None else _matrix3(dip, _ctx(where, "dipolar_tensor_mT"))
    r_rp = _take(raw, "r_rp_nm", where, None)
    r_rp = None if r_rp is None else _number(r_rp, _ctx(where, "r_rp_nm"))
    k = _take(raw, "recombination_rate", where, None)
    tau = _take(raw, "lifetime_us", where, None)
    if (k is None) == (tau is None):
        raise ConfigError(
            f"{where}: give exactly one of recombination_rate and lifetime_us"
        )
    rate = (
        _number(k, _ctx(where, "recombination_rate"))
        if k is not None
        else 1.0 / (_number(tau, _ctx(where, "lifetime_us")) * 1e-6)
    )
    init = _string(
        _take(raw, "initial_state", where, "singlet"),
        _ctx(where, "initial_state"),
        ("singlet", "triplet_zero"),
    )
    decay = _string(
        _take(raw, "decay_convention", where, "rate_k"),
        _ctx(where, "decay_convention"),
        ("rate_k", "rate_2k"),
    )
    _reject_unknown(raw, where)
    return RadicalPairConfig(
        nuclei_radical1=tuple(nuclei1),
        nuclei_radical2=tuple(nuclei2),
        j_exchange_mT=j_mT,
        dipolar_tensor_mT=dip,
        r_rp_nm=r_rp,
        recombination_rate=rate,
        initial_state=InitialElectronState(init),
        decay_convention=DecayConvention(decay),
    )


def parse_sensor(raw: Any, where: str = "sensor") -> SensorParams:
    if not isinstance(raw, dict):
        raise ConfigError(f"{where}: expected an object")
    raw = dict(raw)
    kwargs = {}
    for key in ("t2", "r1_nm", "r2_nm", "density_per_nm3"):
        value = _take(raw, key, where, None)
        if value is not None:
            kwargs[key] = _number(value, _ctx(where, key))
    _reject_unknown(raw, where)
    return SensorParams(**kwargs)


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated experiment: kind, spin system, sensor, parameters."""

    kind: str
    radical_pair: RadicalPairConfig | None
    sensor: SensorParams
    params: dict[str, Any]
    seed: int = 0

    def canonical_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"kind": self.kind, "seed": self.seed}
        if self.radical_pair is not None:
            out["radical_pair"] = _canonical_pair(self.radical_pair)
        s = self.sensor
        out["sensor"] = {
            "t2": s.t2,
            "r1_nm": s.r1_nm,
            "r2_nm": s.r2_nm,
            "density_per_nm3": s.density_per_nm3,
        }
        out["params"] = _canonical_value(self.params)
        return out

    def config_hash(self) -> str:
        payload = json.dumps(self.canonical_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()


def _canonical_pair(rp: RadicalPairConfig) -> dict[str, Any]:
    def nuclei(group: tuple[Nucleus, ...]) -> list[dict[str, Any]]:
        return [
            {
                "label": n.species.label,
                "spin": n.species.spin,
                "tensor_mT": np.asarray(n.tensor_mT).tolist(),
            }
            for n in group
        ]

    return {
        "nuclei_radical1": nuclei(rp.nuclei_radical1),
        "nuclei_radical2": nuclei(rp.nuclei_radical2),
        "j_exchange_mT": rp.j_exchange_mT,
        "dipolar_tensor_mT": (
            None if rp.dipolar_tensor_mT is None else np.asarray(rp.dipolar_tensor_mT).tolist()
        ),
        "r_rp_nm": rp.r_rp_nm,
        "recombination_rate": rp.recombination_rate,
        "initial_state": rp.initial_state.value,
        "decay_convention": rp.decay_convention.value,
    }


def _canonical_value(value: Any) -> Any:
    if isinstance(value, dict):
        return {k: _canonical_value(value[k]) for k in sorted(value)}
    if isinstance(value, (list, tuple)):
        return [_canonical_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, float) and math.isnan(value):
        raise ConfigError("NaN is not a valid configuration value")
    return value


# -- experiment parameters ---------------------------------------------------

#: a value parser: (raw JSON value, its path for diagnostics) -> typed value
Parser = Callable[[Any, str], Any]


def _positive(value: Any, where: str) -> float:
    x = _number(value, where)
    if not x > 0:
        raise ConfigError(f"{where}: must be positive, got {value!r}")
    return x


def _count(minimum: int) -> Parser:
    def parse(value: Any, where: str) -> int:
        n = _integer(value, where)
        if n < minimum:
            raise ConfigError(f"{where}: must be at least {minimum}, got {n}")
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


def _list(item: Parser, size: int | None = None, increasing: bool = False) -> Parser:
    """A non-empty list (of exactly ``size`` entries if given) of ``item`` values."""

    def parse(value: Any, where: str) -> list:
        if not isinstance(value, (list, tuple)) or not value or size not in (None, len(value)):
            wanted = f"a list of {size}" if size else "a non-empty list"
            raise ConfigError(f"{where}: expected {wanted}, got {value!r}")
        values = [item(v, f"{where}[{i}]") for i, v in enumerate(value)]
        if increasing and any(b <= a for a, b in zip(values, values[1:])):
            raise ConfigError(f"{where}: {list(value)} must be strictly increasing")
        return values

    return parse


def _grid(item: Parser, log: bool = False) -> Parser:
    """[lo, hi, n >= 1] -> n points from lo to hi, evenly spaced (in log10 if ``log``)."""

    def parse(value: Any, where: str) -> np.ndarray:
        if not isinstance(value, (list, tuple)) or len(value) != 3:
            raise ConfigError(f"{where}: expected a grid [lo, hi, n], got {value!r}")
        lo, hi = item(value[0], f"{where}[0]"), item(value[1], f"{where}[1]")
        n = _integer(value[2], f"{where}[2]")
        if n < 1:
            raise ConfigError(f"{where}: grid {list(value)} must have at least one point, got {n}")
        if log:
            return np.logspace(math.log10(lo), math.log10(hi), n)
        return np.linspace(lo, hi, n)

    return parse


_SYSTEM = (_optional(_choice(*SYSTEMS)), None)
_SCALE = (_choice("single_molecule", "max_aligned"), "single_molecule")
_T_MAX = (_optional(_positive), None)
_CASE = _choice(*ANISOTROPY_CASES)

#: kind -> its settable params: key -> (value parser, default); every key is optional
PARAMS: dict[str, dict[str, tuple[Parser, Any]]] = {
    "coupling-map": {
        "r_nm": (_grid(_positive), [5.0, 30.0, 26]),
        "theta_deg": (_grid(_number), [0.0, 180.0, 37]),
    },
    "time-trace": {
        "system": _SYSTEM,
        "b_mT": (_number, 1.16),
        "theta_deg": (_number, 0.0),
        "phi_deg": (_number, 0.0),
        "r_nm": (_positive, 10.0),
        "n_samples": (_count(2), 32768),
        "t_max_us": _T_MAX,
    },
    "field-sweep": {
        "system": _SYSTEM,
        "b_grid": (_grid(_positive, log=True), [0.01, 50.0, 60]),
        "scale": _SCALE,
        "r_nm": (_positive, 10.0),
        "densify": (_flag, False),
        "t_max_us": _T_MAX,
    },
    "angle-sweep": {
        "system": _SYSTEM,
        "b_mT": (_number, 1.16),
        "theta_deg": (_grid(_number), [0.0, 180.0, 181]),
        "phi_deg": (_number, 0.0),
        "scale": _SCALE,
        "r_nm": (_positive, 10.0),
        "normalize": (_flag, True),
        "t_max_us": _T_MAX,
    },
    "ensemble": {
        "system": _SYSTEM,
        "b_grid": (_grid(_positive, log=True), [0.05, 10.0, 10]),
        "n_realizations": (_count(1), 50),
        "n_molecules": (_optional(_count(1)), None),
        "r_range_nm": (_optional(_list(_positive, size=2, increasing=True)), None),
    },
    "peak-count": {
        "system": _SYSTEM,
        "r_nm": (_positive, 5.0),
        "b_grid": (_grid(_positive, log=True), [0.05, 10.0, 24]),
        "theta_deg": (_number, 0.0),
        "phi_deg": (_number, 0.0),
    },
    "anisotropy-sweep": {
        "cases": (_list(_CASE), list(ANISOTROPY_CASES)),
        "b_mT": (_number, 0.05),
        "j_mT": (_number, 0.25),
        "theta_deg": (_grid(_number), [0.0, 180.0, 181]),
        "r_nm": (_positive, 10.0),
    },
    "exchange-sweep": {
        "case": (_CASE, "axial3"),
        "j_grid_mT": (_list(_number), [0.0, 0.25, 0.5, 1.0]),
        "r_rp_nm": (_optional(_positive), 2.5),
        "b_mT": (_number, 0.05),
        "theta_deg": (_grid(_number), [0.0, 180.0, 61]),
        "r_nm": (_positive, 10.0),
    },
    "lifetime-sweep": {
        "case": (_CASE, "axial3"),
        "tau_us": (_list(_positive, increasing=True), [1.0, 2.5, 5.0, 10.0, 25.0]),
        "b_mT": (_number, 0.05),
        "theta_deg": (_grid(_number), [0.0, 180.0, 61]),
        "r_nm": (_positive, 10.0),
    },
}

#: experiment kinds the runner understands
KINDS = tuple(PARAMS)


def read_params(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    """Every parameter of ``kind``, parsed, with the defaults of absent keys filled in.

    Keys that ``kind`` does not take are ignored here; :func:`build_experiment`
    rejects them before a run.
    """
    return {
        key: parse(params.get(key, default), f"params.{key}")
        for key, (parse, default) in PARAMS[kind].items()
    }


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
    for key in params:
        if key not in PARAMS[kind]:
            raise ConfigError(f"params.{key}: unknown field for kind {kind!r}")
    system = read_params(kind, params).get("system")
    if system is not None:
        named = system_config(system)
        if radical_pair is None:
            radical_pair = named
        elif _canonical_pair(radical_pair) != _canonical_pair(named):
            raise ConfigError(
                f"params.system: {system!r} differs from the radical_pair section"
            )
    return ExperimentConfig(kind, radical_pair, sensor, dict(params), seed)


def parse_experiment(raw: Any) -> ExperimentConfig:
    """Validate a raw JSON object into an ExperimentConfig."""
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a JSON object")
    raw = dict(raw)
    notes = _take(raw, "notes", "", "")
    if not isinstance(notes, str):
        raise ConfigError("notes: expected a string")
    kind = _string(_take(raw, "kind", ""), "kind", KINDS)
    seed = _integer(_take(raw, "seed", "", 0), "seed")
    rp_raw = _take(raw, "radical_pair", "", None)
    rp = None if rp_raw is None else parse_radical_pair(rp_raw)
    sensor_raw = _take(raw, "sensor", "", None)
    sensor = SensorParams() if sensor_raw is None else parse_sensor(sensor_raw)
    params_raw = _take(raw, "params", "", {})
    if not isinstance(params_raw, dict):
        raise ConfigError("params: expected an object")
    _reject_unknown(raw, "")
    return build_experiment(kind, rp, sensor, params_raw, seed)


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
