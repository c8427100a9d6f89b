"""Named experiment presets and the representative molecular data they use.

Hyperfine values for the flavin-tryptophan and pyrene-dimethylaniline
pairs are REPRESENTATIVE: plausible principal components of the usual
nuclei (N5, N10, H6 / N1, H1, H-beta1; pyrene and DMA ring protons), not
authoritative literature tensors.  Quantitative outputs therefore track
the model, not any specific published dataset; edit the tensors via a
config file for serious use.

The simple one-nucleus model used by the anisotropy, exchange, and
lifetime studies couples a single spin-1 nucleus to the first radical:
with the tensor on both radicals the characteristic near-90-degree spike
trends wash out, and with zero exchange AND zero dipolar coupling the
detectable signal vanishes identically (the two radicals evolve
independently and a maximally mixed nuclear bath leaves every
single-radical observable at zero).
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError
from .hamiltonian import (
    InitialElectronState,
    Nucleus,
    RadicalPairConfig,
    SensorParams,
)
from .spincore import SpinSpecies, diagonal_tensor, isotropic_tensor

# -- representative nuclei -------------------------------------------------

N14 = lambda label: SpinSpecies(label, 1.0)  # noqa: E731
H1 = lambda label: SpinSpecies(label, 0.5)  # noqa: E731


def _fad_nuclei(n: int) -> tuple[Nucleus, ...]:
    all_three = (
        Nucleus(N14("N5"), diagonal_tensor(-0.099, -0.099, 1.757)),
        Nucleus(N14("N10"), diagonal_tensor(-0.05, -0.05, 0.60)),
        Nucleus(H1("H6"), diagonal_tensor(-0.55, -0.43, -0.05)),
    )
    return all_three[:n]


def _trp_nuclei(n: int) -> tuple[Nucleus, ...]:
    all_three = (
        Nucleus(N14("N1"), diagonal_tensor(-0.04, -0.04, 0.99)),
        Nucleus(H1("H1"), diagonal_tensor(-0.99, -0.60, -0.27)),
        Nucleus(H1("Hb1"), diagonal_tensor(0.41, 0.45, 0.49)),
    )
    return all_three[:n]


def fadtrp_config(n_nuclei_per_radical: int = 2) -> RadicalPairConfig:
    """Flavin-tryptophan pair with n nuclei per radical (representative)."""
    return RadicalPairConfig(
        nuclei_radical1=_fad_nuclei(n_nuclei_per_radical),
        nuclei_radical2=_trp_nuclei(n_nuclei_per_radical),
        j_exchange_mT=0.05,
        r_rp_nm=2.0,
        recombination_rate=2e5,
        initial_state=InitialElectronState.SINGLET,
    )


def pydma_config() -> RadicalPairConfig:
    """Pyrene-dimethylaniline pair with isotropic couplings (representative)."""
    return RadicalPairConfig(
        nuclei_radical1=(
            Nucleus(H1("Hpy1"), isotropic_tensor(-0.49)),
            Nucleus(H1("Hpy2"), isotropic_tensor(-0.21)),
        ),
        nuclei_radical2=(
            Nucleus(N14("Ndma"), isotropic_tensor(1.18)),
            Nucleus(H1("Hdma"), isotropic_tensor(0.71)),
        ),
        j_exchange_mT=0.1,
        r_rp_nm=1.5,
        recombination_rate=2e5,
        initial_state=InitialElectronState.SINGLET,
    )


#: hyperfine variants of the one-nucleus model (principal components, mT)
ANISOTROPY_CASES: dict[str, tuple[float, float, float]] = {
    "iso": (0.5, 0.5, 0.5),
    "axial1": (-0.09, -0.09, 1.76),
    "axial2": (-0.2, -0.2, 1.76),
    "axial3": (-0.39, -0.39, 1.76),
    "rhombic": (-0.39, 0.0, 1.76),
}


def one_nucleus_config(
    case: str = "axial3",
    j_exchange_mT: float = 0.25,
    r_rp_nm: float | None = None,
    lifetime_s: float = 5e-6,
) -> RadicalPairConfig:
    """One spin-1 nucleus on radical 1 with a named hyperfine variant."""
    if case not in ANISOTROPY_CASES:
        raise KeyError(f"unknown anisotropy case {case!r}; options: {sorted(ANISOTROPY_CASES)}")
    return RadicalPairConfig(
        nuclei_radical1=(Nucleus(N14("N5"), diagonal_tensor(*ANISOTROPY_CASES[case])),),
        j_exchange_mT=j_exchange_mT,
        r_rp_nm=r_rp_nm,
        recombination_rate=1.0 / lifetime_s,
        initial_state=InitialElectronState.SINGLET,
    )


def two_nucleus_config(
    case: str = "axial3", j_exchange_mT: float = 0.25, lifetime_s: float = 5e-6
) -> RadicalPairConfig:
    """Equal spin-1 nuclei on both radicals (A1 = A2), used by the lifetime study."""
    tensor = diagonal_tensor(*ANISOTROPY_CASES[case])
    return RadicalPairConfig(
        nuclei_radical1=(Nucleus(N14("N5a"), tensor),),
        nuclei_radical2=(Nucleus(N14("N5b"), tensor),),
        j_exchange_mT=j_exchange_mT,
        recombination_rate=1.0 / lifetime_s,
        initial_state=InitialElectronState.SINGLET,
    )


def strongcoupling_config() -> RadicalPairConfig:
    """Proton-only pair (two spin-1/2 nuclei per radical, dim 64).

    Strong-coupling peak counting uses the proton set so the 2^(N+2)
    level-count bound is the exact Hilbert dimension; spin-1 nitrogens
    would exceed the spin-1/2 counting the bound presumes.
    """
    return RadicalPairConfig(
        nuclei_radical1=(
            Nucleus(H1("H6"), diagonal_tensor(-0.55, -0.43, -0.05)),
            Nucleus(H1("H8"), isotropic_tensor(0.40)),
        ),
        nuclei_radical2=(
            Nucleus(H1("H1"), diagonal_tensor(-0.99, -0.60, -0.27)),
            Nucleus(H1("Hb1"), diagonal_tensor(0.41, 0.45, 0.49)),
        ),
        j_exchange_mT=0.05,
        r_rp_nm=2.0,
        recombination_rate=2e5,
        initial_state=InitialElectronState.SINGLET,
    )


# -- preset registry -------------------------------------------------------

EARTH_FIELD_MT = 0.05

#: long-T2 sensor for the strong-coupling study
STRONG_SENSOR = SensorParams(t2=1e-3, r1_nm=5.0, r2_nm=20.0, density_per_nm3=5e-2)


@dataclass(frozen=True)
class Preset:
    """An immutable named experiment: kind plus frozen parameters."""

    name: str
    description: str
    kind: str
    params: dict[str, Any] = field(default_factory=dict)
    sensor: SensorParams | None = None


def _presets() -> dict[str, Preset]:
    entries = [
        Preset(
            "fig3-coupling-map",
            "effective sensor-pair coupling g_eff/2pi over (r, theta)",
            "coupling-map",
            {"r_nm": [5.0, 30.0, 26], "theta_deg": [0.0, 180.0, 37]},
        ),
        Preset(
            "fig4a-time-trace",
            "single-molecule signal trace and spectrum, flavin-tryptophan pair at 1.16 mT",
            "time-trace",
            {"system": "fadtrp-2n", "b_mT": 1.16, "theta_deg": 0.0, "r_nm": 10.0,
             "n_samples": 32768},
        ),
        Preset(
            "fig4c-field-sweep",
            "single-molecule integrated signal against field magnitude (10 uT - 50 mT)",
            "field-sweep",
            {"system": "fadtrp-2n", "scale": "single_molecule", "r_nm": 10.0,
             "b_grid": [0.01, 50.0, 60], "densify": True},
        ),
        Preset(
            "fig4e-angle-sweep",
            "single-molecule integrated signal against field angle at 1.16 mT",
            "angle-sweep",
            {"system": "fadtrp-2n", "scale": "single_molecule", "r_nm": 10.0,
             "b_mT": 1.16, "theta_deg": [0.0, 180.0, 181], "normalize": True},
        ),
        Preset(
            "fig5-ensemble",
            "aligned vs randomly oriented molecular ensembles (mean and variance)",
            "ensemble",
            {"system": "fadtrp-2n", "b_grid": [0.05, 10.0, 10], "n_realizations": 50,
             "n_molecules": 20},
        ),
        Preset(
            "fig6c-peak-count",
            "resolved resonance-peak count against field in the strong-coupling regime",
            "peak-count",
            {"system": "strongcoupling", "r_nm": 5.0, "b_grid": [0.05, 10.0, 24]},
            sensor=STRONG_SENSOR,
        ),
        Preset(
            "fig7-hyperfine-anisotropy",
            "one-nucleus angle sweeps for iso/axial1/axial2/axial3/rhombic tensors",
            "anisotropy-sweep",
            {"cases": list(ANISOTROPY_CASES), "b_mT": EARTH_FIELD_MT, "j_mT": 0.25,
             "theta_deg": [0.0, 180.0, 181], "r_nm": 10.0},
        ),
        Preset(
            "fig8-exchange-sweep",
            "one-nucleus axial3 angle sweeps and singlet yield for several exchange values",
            "exchange-sweep",
            {"case": "axial3", "j_grid_mT": [0.0, 0.25, 0.5, 1.0], "r_rp_nm": 2.5,
             "b_mT": EARTH_FIELD_MT, "theta_deg": [0.0, 180.0, 61], "r_nm": 10.0},
        ),
        Preset(
            "fig9-lifetime-sweep",
            "two-nucleus axial3 angle sweeps and singlet yield for several lifetimes",
            "lifetime-sweep",
            {"case": "axial3", "tau_us": [1.0, 2.5, 5.0, 10.0, 25.0],
             "b_mT": EARTH_FIELD_MT, "theta_deg": [0.0, 180.0, 61], "r_nm": 10.0},
        ),
    ]
    for case in ANISOTROPY_CASES:
        entries.append(
            Preset(
                f"fig7-hyperfine-anisotropy-{case}",
                f"one-nucleus angle sweep for the {case} hyperfine tensor",
                "anisotropy-sweep",
                {"cases": [case], "b_mT": EARTH_FIELD_MT, "j_mT": 0.25,
                 "theta_deg": [0.0, 180.0, 181], "r_nm": 10.0},
            )
        )
    return {p.name: p for p in entries}


PRESETS = _presets()

ALIASES = {
    "appendix-iso": "fig7-hyperfine-anisotropy-iso",
    "fig9-lifetime": "fig9-lifetime-sweep",
}


def get_preset(name: str) -> Preset:
    """Look up a preset by name or alias; suggest the nearest name on miss."""
    resolved = ALIASES.get(name, name)
    if resolved in PRESETS:
        return PRESETS[resolved]
    candidates = list(PRESETS) + list(ALIASES)
    hint = difflib.get_close_matches(name, candidates, n=1)
    suffix = f"; did you mean {hint[0]!r}?" if hint else ""
    raise KeyError(f"unknown preset {name!r}{suffix}")


def list_presets() -> list[tuple[str, str]]:
    return [(p.name, p.description) for p in PRESETS.values()]


def system_config(name: str) -> RadicalPairConfig:
    """Resolve a named spin system used inside presets."""
    systems = {
        "fadtrp-2n": lambda: fadtrp_config(2),
        "fadtrp-3n": lambda: fadtrp_config(3),
        "pydma": pydma_config,
        "strongcoupling": strongcoupling_config,
    }
    if name not in systems:
        raise KeyError(f"unknown system {name!r}; options: {sorted(systems)}")
    return systems[name]()


def grid_from_spec(spec: list[float], log: bool = False, name: str = "grid") -> np.ndarray:
    """[lo, hi, n] -> linear or log grid; ConfigError naming ``name`` when n < 1."""
    lo, hi, n = spec
    if int(n) < 1:
        raise ConfigError(f"{name}: grid {list(spec)} must have at least one point, got {n}")
    if log:
        return np.logspace(math.log10(lo), math.log10(hi), int(n))
    return np.linspace(lo, hi, int(n))
