"""Experiment configuration: strict parsing, canonical form, hashing.

Config files are JSON with sections mirroring the domain types.  Parsing
is strict: unknown keys are rejected, every diagnostic names the failing
field (JSONPath-style), and a parsed configuration can be re-serialised
to a canonical dictionary for round-trip comparison and hashing.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from .errors import ConfigError
from .hamiltonian import (
    DecayConvention,
    InitialElectronState,
    Nucleus,
    RadicalPairConfig,
    SensorParams,
)
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
            rp = self.radical_pair
            out["radical_pair"] = {
                "nuclei_radical1": [
                    {
                        "label": n.species.label,
                        "spin": n.species.spin,
                        "tensor_mT": np.asarray(n.tensor_mT).tolist(),
                    }
                    for n in rp.nuclei_radical1
                ],
                "nuclei_radical2": [
                    {
                        "label": n.species.label,
                        "spin": n.species.spin,
                        "tensor_mT": np.asarray(n.tensor_mT).tolist(),
                    }
                    for n in rp.nuclei_radical2
                ],
                "j_exchange_mT": rp.j_exchange_mT,
                "dipolar_tensor_mT": (
                    None
                    if rp.dipolar_tensor_mT is None
                    else np.asarray(rp.dipolar_tensor_mT).tolist()
                ),
                "r_rp_nm": rp.r_rp_nm,
                "recombination_rate": rp.recombination_rate,
                "initial_state": rp.initial_state.value,
                "decay_convention": rp.decay_convention.value,
            }
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


#: per-kind allowed parameter keys (everything optional unless runner says so)
_KIND_PARAMS: dict[str, tuple[str, ...]] = {
    "coupling-map": ("r_nm", "theta_deg"),
    "time-trace": ("system", "b_mT", "theta_deg", "phi_deg", "r_nm", "n_samples", "t_max_us"),
    "field-sweep": ("system", "b_grid", "scale", "r_nm", "densify", "t_max_us"),
    "angle-sweep": (
        "system", "b_mT", "theta_deg", "phi_deg", "scale", "r_nm", "normalize", "t_max_us"
    ),
    "ensemble": ("system", "b_grid", "n_realizations", "n_molecules", "r_range_nm"),
    "peak-count": ("system", "r_nm", "b_grid", "theta_deg", "phi_deg"),
    "anisotropy-sweep": ("cases", "b_mT", "j_mT", "theta_deg", "r_nm"),
    "exchange-sweep": ("case", "j_grid_mT", "r_rp_nm", "b_mT", "theta_deg", "r_nm"),
    "lifetime-sweep": ("case", "tau_us", "b_mT", "theta_deg", "r_nm"),
}

#: experiment kinds the runner understands
KINDS = tuple(_KIND_PARAMS)


def validate_params(kind: str, params: dict[str, Any]) -> dict[str, Any]:
    allowed = _KIND_PARAMS[kind]
    for key in params:
        if key not in allowed:
            raise ConfigError(f"params.{key}: unknown field for kind {kind!r}")
    return dict(params)


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
    params = validate_params(kind, params_raw)
    _reject_unknown(raw, "")
    return ExperimentConfig(kind=kind, radical_pair=rp, sensor=sensor, params=params, seed=seed)


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
