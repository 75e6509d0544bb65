"""Closed-form channel fidelities and weak-coupling estimates.

The fidelities are functions of the single-particle propagator elements
(plus the chain parity for the one-way swap), so a full many-body
simulation is never needed once the matrix M = exp(-iKt) is known.  The
brute-force cross-checks live in the exact-diagonalization engine and
the test suite.  The transfer error budget and its matched coupling
belong to mode selection: see ``dynamics.ModeBudget``.

Internal units: couplings in units of the chain coupling kappa, times in
1/kappa.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PerturbativeEstimate",
    "f_double_swap",
    "f_single_swap",
    "f_encoded",
    "f_remote_z",
    "perturbative_infidelity",
]


def f_double_swap(M) -> float:
    """Out-and-back channel fidelity from the single element M_00.

    F_DS = 1/2 + (1/6)(2 Re M_00 + |M_00|^2).
    """
    m00 = np.asarray(M)[0, 0]
    return 0.5 + (2.0 * m00.real + abs(m00) ** 2) / 6.0


def f_single_swap(M, chain_parity: float = 0.0) -> float:
    """One-way swap fidelity; needs the chain parity expectation.

    F_SS = 1/2 + (1/6)(2 Re(M_{0,N+1}) * parity + |M_{0,N+1}|^2), where
    ``chain_parity`` is the expectation of the product of (-sz) over the
    chain sites in the initial bus state (0 for an unpolarized chain).
    """
    if not -1.0 <= chain_parity <= 1.0:
        raise ValueError("parity expectation must lie in [-1, 1]")
    m = np.asarray(M)[0, -1]
    return 0.5 + (2.0 * m.real * chain_parity + abs(m) ** 2) / 6.0


def _encoded_terms(M):
    """(M_{0,N+1}, interference term, chain-decoding sum) of a propagator or its elements."""
    if isinstance(M, tuple):
        m00, m0R, mRR, leak = (np.asarray(a) for a in M)
    else:
        Mm = np.asarray(M)
        m00, m0R, mRR = Mm[0, 0], Mm[0, -1], Mm[-1, -1]
        leak = np.dot(Mm[-1, 1:-1], Mm[1:-1, 0])
    return m0R, m0R**2 - m00 * mRR, leak


def f_encoded(M, variant: str = "weak"):
    """Paired-protocol (encoded) state transfer fidelity.

    The weak variant keeps the bare interference term
    Re[M_{0,N+1}^2 - M_00 M_{N+1,N+1}]; the strong variant replaces it by
    its modulus, absorbing the post-transfer phase-gate correction used
    in the strong-coupling protocol.  Both carry the chain-decoding bonus
    term |sum_{i=1..N} M_{N+1,i} M_{i,0}|^2.

    ``M`` is a propagator matrix (a float is returned) or the tuple of
    element arrays (m00, m0R, mRR, leak) from
    ``dynamics.transfer_elements`` (an array of fidelities is returned,
    one per time).
    """
    if variant not in ("weak", "strong"):
        raise ValueError("variant must be 'weak' or 'strong'")
    m0R, cross, leak = _encoded_terms(M)
    t2 = np.abs(m0R) ** 2
    inter = cross.real if variant == "weak" else np.abs(cross)
    F = 0.5 + (2.0 * t2 * inter + t2 + np.abs(leak) ** 2) / 6.0
    return float(F) if np.ndim(F) == 0 else F


def f_remote_z(M) -> float:
    """Fidelity of the remote-sz gate channel (swap, flip, swap back).

    Uses m = <0| M S M |0> with S = diag(1, ..., 1, -1); valid only for
    complex symmetric M (real symmetric K), which is validated.
    """
    Mm = np.asarray(M)
    if np.max(np.abs(Mm - Mm.T)) > 1e-8:
        raise ValueError("propagator is not symmetric; the closed form does not apply")
    S = np.ones(Mm.shape[0])
    S[-1] = -1.0
    m = (Mm * S) @ Mm[:, 0]
    m = m[0]
    return 0.5 + (abs(m) ** 2 - 2.0 * m.real) / 6.0


@dataclass(frozen=True)
class PerturbativeEstimate:
    """Weak-coupling estimates for the uniform-chain transfer elements."""

    transfer_infidelity: float  # predicted 1 - |M_{0,N+1}|^2 at the transfer time
    return_deficit: float | None  # predicted 1 - M_00 at the out-and-back time 2t (odd N only)
    delta: float  # even-N register detuning (0 for odd N)
    register_field: float  # B' to place on the registers
    transfer_time: float
    mode_index: int


def _uniform_mode_params(N: int, g: float):
    k = np.arange(1, N + 1)
    Delta = 2.0 * np.cos(np.pi * k / (N + 1))
    Omega = (2.0 * g / math.sqrt(N + 1)) * np.sin(np.pi * k / (N + 1))
    return k, Delta, Omega


def perturbative_infidelity(N: int, g: float) -> PerturbativeEstimate:
    """Second-order estimate of the uniform-chain transfer infidelity.

    The chain bonds are 1 (kappa) and the register couplings g.  Odd N
    tunnels through the exact zero mode; even N uses the tilded gaps to
    the z = N/2 mode and returns the register detuning delta that cancels
    the second-order phase mismatch.  Outside the perturbative window
    g < 1/sqrt(N) a warning is issued but the estimate is still computed
    (the breakdown region is itself of interest).
    """
    if g > 1.0 / math.sqrt(N):
        warnings.warn(
            f"g = {g:.3g} exceeds the perturbative window kappa/sqrt(N) = "
            f"{1.0 / math.sqrt(N):.3g}; estimate unreliable",
            stacklevel=2,
        )
    k, Delta, Omega = _uniform_mode_params(N, g)
    if N % 2:
        z = (N + 1) // 2
        t = math.sqrt(N + 1) * math.pi / (2.0 * g)
        sel = k < z
        r = (Omega[sel] / Delta[sel]) ** 2
        signs = (-1.0) ** (k[sel] + z)
        est = 2.0 * float(np.sum(r * (1.0 + signs * np.cos(Delta[sel] * t))))
        ret = float(np.sum(r * (1.0 - np.cos(Delta[sel] * 2.0 * t))))
        return PerturbativeEstimate(est, ret, 0.0, 0.0, t, z)
    z = N // 2
    t = math.pi / Omega[z - 1]
    tilde = Delta - Delta[z - 1]
    sel = k != z
    delta = float(np.sum(((1.0 - 3.0 * (-1.0) ** (z + k[sel])) / 2.0) * Omega[sel] ** 2 / tilde[sel]))
    r = (Omega[sel] / tilde[sel]) ** 2
    signs = (-1.0) ** (k[sel] + z)
    est = float(np.sum(r * (1.0 + signs * np.cos(tilde[sel] * t))))
    return PerturbativeEstimate(est, None, delta, float(Delta[z - 1] + delta), t, z)

