"""Hamiltonian construction for spin-chain buses.

Everything downstream (propagators, fidelities, exact diagonalization)
consumes the matrices built here: nearest-neighbor or long-range coupling
maps, single-particle hopping matrices for number-conserving models, and
the real symmetric pairing (Bogoliubov-de-Gennes style) matrix for the
transverse-field Ising chain.

Internal units: couplings in units of the reference coupling kappa,
times in 1/kappa and positions in units of the mean spacing d, so a unit
gap carries the coupling 1 under the cube law J = (d/r)^3.  Conversion
to physical units (kHz, nm, ms) happens only at the command-line
boundary.
"""

from __future__ import annotations

import functools
import math
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "ModelKind",
    "RangeRule",
    "Uniform",
    "Explicit",
    "FromPositions",
    "CouplingPattern",
    "DisorderSpec",
    "ChainSpec",
    "sample_positions",
    "nearest_neighbor_bonds",
    "couplings_from_positions",
    "engineered_couplings",
    "build_single_particle_matrix",
    "build_bdg_matrix",
]


class ModelKind(str, Enum):
    XX = "XX"
    TFIM = "TFIM"


class RangeRule(str, Enum):
    """Which pairs of a positioned chain interact."""

    NEAREST_NEIGHBOR = "nearest_neighbor"
    FULL_DIPOLAR = "full_dipolar"
    NNN_CANCELLED = "nnn_cancelled"


@dataclass(frozen=True)
class Uniform:
    """All N-1 internal nearest-neighbor bonds equal to ``kappa``."""

    kappa: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")


@dataclass(frozen=True)
class Explicit:
    """Explicit list of the N-1 internal nearest-neighbor bonds."""

    values: tuple[float, ...]

    def __init__(self, values):
        values = tuple(float(v) for v in values)
        if not all(map(math.isfinite, values)):
            raise ValueError(f"values must be finite, got {values}")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class FromPositions:
    """Couplings of the N chain sites derived from their coordinates by the cube law."""

    positions: tuple[float, ...]
    rule: RangeRule = RangeRule.NEAREST_NEIGHBOR

    def __init__(self, positions, rule=RangeRule.NEAREST_NEIGHBOR):
        pos = tuple(float(x) for x in positions)
        # NaN fails no comparison below
        if not all(map(math.isfinite, pos)):
            raise ValueError(f"positions must be finite, got {pos}")
        if any(b <= a for a, b in zip(pos, pos[1:])):
            raise ValueError("positions must be strictly increasing")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "rule", RangeRule(rule))


CouplingPattern = Union[Uniform, Explicit, FromPositions]


@dataclass(frozen=True)
class DisorderSpec:
    """Gaussian positioning disorder along a 1D implantation axis.

    ``sigma`` is the standard deviation of each gap, in units of the mean
    spacing; it must be finite and non-negative.
    """

    sigma: float
    master_seed: int = 0

    def __post_init__(self):
        # NaN fails every comparison, so it is named before the sign check
        if not math.isfinite(self.sigma):
            raise ValueError(f"sigma must be finite, got {self.sigma}")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


@dataclass(frozen=True)
class ChainSpec:
    """Declarative description of a bus chain plus its two registers.

    ``chain_length`` counts bus sites only; the registers occupy matrix
    rows/columns 0 and N+1, and whatever the pattern, they couple to the
    chain ends through ``g_left`` and ``g_right``.  ``uniform_field`` is
    the diagonal field on every site (the transverse field for the TFIM);
    ``register_field`` overrides it on the two registers (the detuning for
    even-N transfer).
    These numbers and the register couplings must be finite;
    ``ValueError`` names a field that is not.
    """

    model_kind: ModelKind
    chain_length: int
    pattern: CouplingPattern
    g_left: float = 0.0
    g_right: float = 0.0
    register_field: float | None = None
    uniform_field: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "model_kind", ModelKind(self.model_kind))
        n = self.chain_length
        # a float would fail later inside numpy, and True would build N = 1
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValueError(f"chain_length must be an integer, got {n!r}")
        if n < 1:
            raise ValueError("chain_length must be at least 1")
        # NaN and inf pass every sign check below, and would surface later
        # as an eigensolver failure that names the wrong fault
        for name in ("g_left", "g_right", "register_field", "uniform_field"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.g_left < 0 or self.g_right < 0:
            raise ValueError("register couplings must be non-negative")
        pat = self.pattern
        if isinstance(pat, Explicit) and len(pat.values) != n - 1:
            raise ValueError(
                f"Explicit pattern needs {n - 1} internal bonds, got {len(pat.values)}"
            )
        if isinstance(pat, FromPositions) and len(pat.positions) != n:
            raise ValueError(f"FromPositions needs N={n} coordinates, got {len(pat.positions)}")


_RNG_LOCK = threading.Lock()  # sample_positions re-keys one shared generator


@functools.cache
def _reused_generator() -> np.random.Generator:
    """The one Philox generator that ``sample_positions`` re-keys per realization.

    A fresh ``Philox(key=...)`` costs about twice as much, half of it a
    SeedSequence drawn from OS entropy that the key then replaces.  Made
    on first use, so that importing chains leaves numpy.random unloaded.
    """
    return np.random.Generator(np.random.Philox(0))


def sample_positions(spec: DisorderSpec, n_sites: int, stream: int = 0) -> np.ndarray:
    """The coordinates of one realization, with independent Gaussian gaps.

    Gaps of mean 1 below 0.2 are rejected and redrawn, which keeps the
    cube-law couplings finite.  The generator is counter-based (Philox
    keyed by ``(master_seed, stream)``, counter and buffers zeroed) so
    every realization is reproducible independently of evaluation order.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    state = {
        "bit_generator": "Philox",
        "state": {
            "counter": np.zeros(4, np.uint64),
            # the key words as Philox(key=[master_seed, stream]) takes them
            "key": np.array([spec.master_seed, stream]).astype(np.uint64),
        },
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    rng = _reused_generator()
    with _RNG_LOCK:
        rng.bit_generator.state = state
        gaps = rng.normal(1.0, spec.sigma, size=n_sites - 1)
        while True:
            bad = gaps < 0.2
            if not bad.any():
                break
            gaps[bad] = rng.normal(1.0, spec.sigma, size=int(bad.sum()))
    return np.concatenate([[0.0], np.cumsum(gaps)])


def nearest_neighbor_bonds(positions) -> np.ndarray:
    """The cube-law bonds 1/|x_{i+1}-x_i|^3 along the last axis of ``positions``.

    ``positions`` is one chain's (N,) coordinates or a stack (..., N) of
    chains, giving (N-1,) or (..., N-1) bonds: the superdiagonal of
    :func:`couplings_from_positions` under the nearest-neighbour rule.
    """
    return (1.0 / np.abs(np.diff(np.asarray(positions, float), axis=-1))) ** 3


def couplings_from_positions(positions, rule: RangeRule = RangeRule.NEAREST_NEIGHBOR) -> np.ndarray:
    """Full symmetric coupling matrix J_ij = 1/|x_i-x_j|^3.

    The range rule masks pairs: nearest-neighbor keeps |i-j| = 1 only
    (the bonds of :func:`nearest_neighbor_bonds`), the NNN-cancelled rule
    zeroes |i-j| = 2 and keeps everything else.
    """
    x = np.asarray(positions, float)
    n = len(x)
    rule = RangeRule(rule)
    if rule is RangeRule.NEAREST_NEIGHBOR:
        J = np.zeros((n, n))
        i = np.arange(n - 1)
        J[i, i + 1] = J[i + 1, i] = nearest_neighbor_bonds(x)
        return J
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    J = (1.0 / dist) ** 3
    if rule is RangeRule.NNN_CANCELLED:
        i = np.arange(n - 2)
        J[i, i + 2] = J[i + 2, i] = 0.0
    np.fill_diagonal(J, 0.0)
    return J


def engineered_couplings(n_chain: int) -> np.ndarray:
    """The N+1 bonds J_i = (1/2) sqrt((i+1)(N+1-i)), i = 0..N.

    This profile makes the (N+2)-site single-particle spectrum exactly
    linear, so the chain acts as a perfect mirror at t = pi.
    """
    if n_chain < 0:
        raise ValueError("chain length must be non-negative")
    i = np.arange(n_chain + 1, dtype=float)
    return 0.5 * np.sqrt((i + 1.0) * (n_chain + 1.0 - i))


def _chain_matrix(spec: ChainSpec) -> np.ndarray:
    """The register-padded (N+2)x(N+2) matrix of any spec, whatever its model.

    The chain block comes from the pattern, the register bonds are g_left
    and g_right, and the diagonal is the uniform field, with the register
    field (if set) on rows 0 and N+1.
    """
    n = spec.chain_length
    pat = spec.pattern
    K = np.zeros((n + 2, n + 2))
    if isinstance(pat, FromPositions):
        K[1 : n + 1, 1 : n + 1] = couplings_from_positions(pat.positions, pat.rule)
    elif isinstance(pat, (Uniform, Explicit)):
        i = np.arange(1, n)  # chain bond (i, i+1), with the registers at 0 and n+1
        K[i, i + 1] = K[i + 1, i] = pat.kappa if isinstance(pat, Uniform) else pat.values
    else:
        raise TypeError(f"unknown coupling pattern {pat!r}")
    K[0, 1] = K[1, 0] = spec.g_left
    K[n, n + 1] = K[n + 1, n] = spec.g_right
    np.fill_diagonal(K, spec.uniform_field)
    if spec.register_field is not None:
        K[0, 0] = K[n + 1, n + 1] = spec.register_field
    return K


def build_single_particle_matrix(spec: ChainSpec) -> np.ndarray:
    """Hermitian (N+2)x(N+2) hopping matrix K for XX chains.

    Rows/columns 0 and N+1 are the registers, coupled to the chain ends
    by g_left and g_right only; a ``FromPositions`` chain carries every
    pair its range rule keeps.  The diagonal carries the uniform field
    everywhere and the register field (detuning) on the two register
    entries.  The propagator of every analytic fidelity formula is
    exp(-i K t).
    """
    if spec.model_kind is ModelKind.TFIM:
        raise ValueError("TFIM chains have pairing terms; use build_bdg_matrix")
    return _chain_matrix(spec)


def build_bdg_matrix(spec: ChainSpec, include_registers: bool = False) -> np.ndarray:
    """Real symmetric pairing matrix A for the transverse-field Ising chain.

    Conventions (chain Hamiltonian -kappa sum sx sx + B sum sz, checked
    against dense diagonalization: minus the summed positive eigenvalues
    of A is the exact many-body ground state energy):

        alpha = B on the diagonal, -kappa/2 on chain bonds
        beta_{i,i+1} = -kappa/2,  beta_{i+1,i} = +kappa/2
        A = [[alpha, beta], [beta^T, -alpha]]

    Physical mode evolution carries a factor two: phi(t) = exp(-2iAt) phi.
    alpha and beta come from the spec's padded matrix K, the one of
    :func:`build_single_particle_matrix`.  With ``include_registers`` the
    two exchange-coupled registers are the first and last sites (hopping
    only, alpha entries g_left/2 and g_right/2, diagonal B'); without, A
    holds the chain rows and columns of that matrix.
    The chain bonds are nearest-neighbour only, so a ``FromPositions``
    pattern with a longer-range rule raises ``ValueError``.
    """
    if ModelKind(spec.model_kind) is not ModelKind.TFIM:
        raise ValueError("build_bdg_matrix expects a TFIM spec")
    pat = spec.pattern
    if isinstance(pat, FromPositions) and pat.rule is not RangeRule.NEAREST_NEIGHBOR:
        raise ValueError(
            f"build_bdg_matrix has nearest-neighbour bonds only, not the {pat.rule.value} rule"
        )
    K = _chain_matrix(spec)
    i = np.arange(1, spec.chain_length)  # chain bond (i, i+1)
    half = -K[i, i + 1] / 2.0  # -J/2 on the internal chain bonds
    alpha = K / 2.0  # J/2 on the register bonds
    np.fill_diagonal(alpha, np.diagonal(K))
    beta = np.zeros_like(K)
    alpha[i, i + 1] = alpha[i + 1, i] = beta[i, i + 1] = half
    beta[i + 1, i] = -half
    if not include_registers:
        alpha, beta = alpha[1:-1, 1:-1], beta[1:-1, 1:-1]
    return np.block([[alpha, beta], [beta.T, -alpha]])
