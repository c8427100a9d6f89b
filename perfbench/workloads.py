"""The benchmark's workloads: nvrp experiment configurations made from a seed.

Each workload is a list of labelled experiments that one repetition runs
through ``nvrp.cli.run``, plus the worker-thread count it runs them
with.  The program receives only these configurations; the seed decides
the ensemble's sampling seed and the large system's field magnitudes,
and is recorded as the experiments' seed everywhere else.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
from nvrp.cli import experiment_from_preset
from nvrp.config import ExperimentConfig
from nvrp.hamiltonian import FieldConfig, SensorParams
from nvrp.presets import get_preset, one_nucleus_config, system_config, two_nucleus_config
from nvrp.signal import integrated_observables, with_exchange, with_lifetime

#: presets run as shipped by the preset-mix workload, with their labels
PRESET_MIX = (
    ("fig3", "fig3-coupling-map"),
    ("fig4a", "fig4a-time-trace"),
    ("fig6c", "fig6c-peak-count"),
    ("fig7", "fig7-hyperfine-anisotropy"),
    ("fig8", "fig8-exchange-sweep"),
    ("fig9", "fig9-lifetime-sweep"),
)

#: reduced fig5-ensemble: both orientation modes, 4 x 5 molecules, 3 fields
ENSEMBLE_PARAMS = {"n_realizations": 4, "n_molecules": 5, "b_grid": [0.1, 5.0, 3]}

#: fadtrp-3n field magnitudes are drawn log-uniformly from this range, mT
LARGE_FIELD_RANGE_MT = (0.3, 5.0)
LARGE_FIELD_COUNT = 2


@dataclass(frozen=True)
class Workload:
    name: str
    threads: int
    experiments: tuple[tuple[str, ExperimentConfig], ...]


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _preset(name: str, seed: int) -> ExperimentConfig:
    return experiment_from_preset(get_preset(name), seed)


def _angle_sweep(seed: int) -> Workload:
    return Workload("angle-sweep", 1, (("fig4e", _preset("fig4e-angle-sweep", seed)),))


def _ensemble(seed: int) -> Workload:
    base = _preset("fig5-ensemble", seed)
    cfg = ExperimentConfig(
        kind=base.kind,
        radical_pair=system_config(base.params["system"]),
        sensor=base.sensor,
        params=dict(base.params, **ENSEMBLE_PARAMS, seed=seed),
        seed=seed,
    )
    return Workload("ensemble", min(2, cpu_count()), (("fig5", cfg),))


def large_fields(seed: int) -> list[float]:
    lo, hi = np.log10(LARGE_FIELD_RANGE_MT)
    rng = np.random.default_rng([seed, 864])
    return sorted(float(b) for b in 10.0 ** rng.uniform(lo, hi, LARGE_FIELD_COUNT))


def _large_system(seed: int) -> Workload:
    b_lo, b_hi = large_fields(seed)
    cfg = ExperimentConfig(
        kind="field-sweep",
        radical_pair=system_config("fadtrp-3n"),
        sensor=SensorParams(),
        params={"scale": "single_molecule", "r_nm": 10.0,
                "b_grid": [b_lo, b_hi, LARGE_FIELD_COUNT], "densify": False},
        seed=seed,
    )
    return Workload("large-system", 1, (("fadtrp3n", cfg),))


def _preset_mix(seed: int) -> Workload:
    return Workload("preset-mix", 1, tuple((label, _preset(name, seed)) for label, name in PRESET_MIX))


BUILDERS = {
    "angle-sweep": _angle_sweep,
    "ensemble": _ensemble,
    "large-system": _large_system,
    "preset-mix": _preset_mix,
}


def build(name: str, seed: int) -> Workload:
    return BUILDERS[name](seed)


def pair_configs(cfg: ExperimentConfig) -> list:
    """The radical-pair configurations an experiment runs on, as cli builds them."""
    p = cfg.params
    if cfg.kind == "anisotropy-sweep":
        return [one_nucleus_config(c, j_exchange_mT=float(p["j_mT"])) for c in p["cases"]]
    if cfg.kind == "exchange-sweep":
        base = one_nucleus_config(p["case"], r_rp_nm=p["r_rp_nm"])
        return [with_exchange(base, float(j)) for j in p["j_grid_mT"]]
    if cfg.kind == "lifetime-sweep":
        base = two_nucleus_config(p["case"])
        return [with_lifetime(base, float(t) * 1e-6) for t in p["tau_us"]]
    return [] if cfg.radical_pair is None else [cfg.radical_pair]


def cold_calls(workload: Workload) -> int:
    """One point per pair configuration, which fills nvrp's per-layout caches.

    Returns the number of points evaluated.
    """
    count = 0
    for _, cfg in workload.experiments:
        for rp in pair_configs(cfg):
            integrated_observables(rp, FieldConfig(1.0, 0.0, 0.0))
            count += 1
    return count
