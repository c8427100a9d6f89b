"""Physical constants and unit conversions.

All coupling strengths enter the package in mT and are converted to
angular frequency (rad/s) exactly once, via ``MT_TO_RAD_PER_S``.  Keeping a
single declared conversion constant avoids silent factor-of-2pi mistakes
between MHz- and mT-quoted couplings.
"""

from __future__ import annotations

import math

#: vacuum permeability, T m / A (CODATA 2018)
MU0 = 1.25663706212e-6

#: reduced Planck constant, J s (CODATA 2018)
HBAR = 1.054571817e-34

#: electron gyromagnetic ratio magnitude, rad s^-1 T^-1
GAMMA_E = 1.760859630e11

#: angular frequency per mT of coupling strength, rad/s
MT_TO_RAD_PER_S = GAMMA_E * 1e-3

#: nanometre in metres
NM = 1e-9


def dipolar_prefactor(r_nm: float) -> float:
    """Point-dipole coupling prefactor -mu0 gamma_e^2 hbar / (4 pi r^3).

    Parameters
    ----------
    r_nm:
        Separation in nanometres.  Must be positive.

    Returns
    -------
    float
        Signed angular frequency in rad/s (negative for this convention).
    """
    if not r_nm > 0:  # NaN fails too
        raise ValueError(f"dipolar prefactor requires r > 0, got r = {r_nm} nm")
    r = r_nm * NM
    return -MU0 * GAMMA_E**2 * HBAR / (4.0 * math.pi * r**3)


def dipolar_prefactor_mT(r_nm: float) -> float:
    """Same as :func:`dipolar_prefactor` but expressed in mT."""
    return dipolar_prefactor(r_nm) / MT_TO_RAD_PER_S
