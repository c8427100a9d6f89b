"""Brute-force reference integrator for cross-validating the propagator.

Classical fixed-step fourth-order Runge-Kutta on the vectorised linear
master equation d rho / dt = -i [H, rho] - k rho.  Deterministic, simple
to order-check by step halving, and deliberately independent of the
eigendecomposition path it validates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PhysicsError

#: oracle is for small instances only
MAX_DIM = 64

#: stability guard: dt * max|eigenvalue| must stay below this
STABILITY_BOUND = 0.1


@dataclass(frozen=True)
class OracleResult:
    """RK4 output: grid and observable series."""

    t_grid: np.ndarray
    observables: np.ndarray


def rk4_evolve(
    rho0: np.ndarray,
    h: np.ndarray,
    k: float,
    dt: float,
    t_max: float,
    observables: list[np.ndarray],
    record_every: int = 1,
) -> OracleResult:
    """Integrate the master equation with fixed-step RK4.

    Records Re Tr[O rho] of every observable O at every ``record_every``-th
    step (step 0 included); ``observables`` of the result has shape
    (n_observables, n_records).  The density matrix is re-symmetrised after
    each step, rho <- (rho + rho^dag)/2.

    Raises when dim > 64 or when dt violates the stability bound
    dt * lambda_max < 0.1 (the message suggests a compliant dt).
    """
    h = np.asarray(h, dtype=complex)
    rho = np.asarray(rho0, dtype=complex).copy()
    dim = h.shape[0]
    if dim > MAX_DIM:
        raise ValueError(f"oracle handles dim <= {MAX_DIM}, got {dim}")
    if not k >= 0:  # NaN fails too
        raise PhysicsError(f"decay rate must be >= 0, got {k}")

    lam_max = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if dim else 0.0
    scale = max(lam_max, k)
    if scale > 0 and dt * scale >= STABILITY_BOUND:
        raise ValueError(
            f"dt = {dt:.3e} s violates the stability bound dt * lambda_max < "
            f"{STABILITY_BOUND}; use dt < {STABILITY_BOUND / scale:.3e} s"
        )

    def rhs(r: np.ndarray) -> np.ndarray:
        return -1j * (h @ r - r @ h) - k * r

    n_steps = int(round(t_max / dt))
    t_rec = [0.0]
    obs_rec = [[float(np.real(np.trace(o @ rho))) for o in observables]]

    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        if step % record_every == 0:
            t_rec.append(step * dt)
            obs_rec.append([float(np.real(np.trace(o @ rho))) for o in observables])

    return OracleResult(t_grid=np.asarray(t_rec), observables=np.asarray(obs_rec).T)
