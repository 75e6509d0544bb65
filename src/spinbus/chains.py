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

import math
from dataclasses import dataclass
from enum import Enum
from typing import Union

import numpy as np

__all__ = [
    "ModelKind",
    "RangeRule",
    "Uniform",
    "Engineered",
    "Explicit",
    "FromPositions",
    "CouplingPattern",
    "DisorderSpec",
    "ChainSpec",
    "sample_positions",
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
    """All nearest-neighbor bonds equal to ``kappa``."""

    kappa: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.kappa):
            raise ValueError(f"kappa must be finite, got {self.kappa}")


@dataclass(frozen=True)
class Engineered:
    """Perfect-transfer bond profile J_i = (1/2) sqrt((i+1)(N+1-i)).

    Covers every bond of the (N+2)-site chain including the two register
    bonds, so the register couplings of the owning :class:`ChainSpec` are
    ignored.
    """


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
    """Couplings of the N chain sites derived from their coordinates by the cube law.

    The register bonds come from the spec's g_left and g_right.
    """

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


CouplingPattern = Union[Uniform, Engineered, Explicit, FromPositions]


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
    rows/columns 0 and N+1.  ``uniform_field`` is the diagonal field on
    every site (the transverse field for the TFIM); ``register_field``
    overrides it on the two registers (the detuning for even-N transfer).
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


def sample_positions(spec: DisorderSpec, n_sites: int, stream: int = 0) -> np.ndarray:
    """The coordinates of one realization, with independent Gaussian gaps.

    Gaps of mean 1 below 0.2 are rejected and redrawn, which keeps the
    cube-law couplings finite.  The generator is counter-based (Philox
    keyed by ``(master_seed, stream)``) so every realization is
    reproducible independently of evaluation order.
    """
    if n_sites < 2:
        raise ValueError("need at least two sites")
    rng = np.random.Generator(np.random.Philox(key=[spec.master_seed, stream]))
    gaps = rng.normal(1.0, spec.sigma, size=n_sites - 1)
    while True:
        bad = gaps < 0.2
        if not bad.any():
            break
        gaps[bad] = rng.normal(1.0, spec.sigma, size=int(bad.sum()))
    return np.concatenate([[0.0], np.cumsum(gaps)])


def couplings_from_positions(positions, rule: RangeRule = RangeRule.NEAREST_NEIGHBOR) -> np.ndarray:
    """Full symmetric coupling matrix J_ij = 1/|x_i-x_j|^3.

    The range rule masks pairs: nearest-neighbor keeps |i-j| = 1 only,
    the NNN-cancelled rule zeroes |i-j| = 2 and keeps everything else.
    """
    x = np.asarray(positions, float)
    n = len(x)
    rule = RangeRule(rule)
    dist = np.abs(x[:, None] - x[None, :])
    np.fill_diagonal(dist, np.inf)
    J = (1.0 / dist) ** 3
    sep = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    if rule is RangeRule.NEAREST_NEIGHBOR:
        J[sep != 1] = 0.0
    elif rule is RangeRule.NNN_CANCELLED:
        J[sep == 2] = 0.0
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


def _nn_bonds(spec: ChainSpec) -> np.ndarray:
    """All N+1 nearest-neighbor bonds of the (N+2)-site system."""
    n = spec.chain_length
    pat = spec.pattern
    if isinstance(pat, Uniform):
        bonds = np.full(n + 1, pat.kappa)
        bonds[0] = spec.g_left
        bonds[-1] = spec.g_right
    elif isinstance(pat, Engineered):
        bonds = engineered_couplings(n)
    elif isinstance(pat, Explicit):
        bonds = np.concatenate([[spec.g_left], pat.values, [spec.g_right]])
    elif isinstance(pat, FromPositions):
        inner = (1.0 / np.diff(pat.positions)) ** 3
        bonds = np.concatenate([[spec.g_left], inner, [spec.g_right]])
    else:
        raise TypeError(f"unknown coupling pattern {pat!r}")
    return bonds


def build_single_particle_matrix(spec: ChainSpec) -> np.ndarray:
    """Hermitian (N+2)x(N+2) hopping matrix K for XX chains.

    Rows/columns 0 and N+1 are the registers.  The diagonal carries the
    uniform field everywhere and the register field (detuning) on the two
    register entries.  The propagator of every analytic fidelity formula
    is exp(-i K t).
    """
    if spec.model_kind is ModelKind.TFIM:
        raise ValueError("TFIM chains have pairing terms; use build_bdg_matrix")
    n = spec.chain_length
    K = np.zeros((n + 2, n + 2))
    bonds = _nn_bonds(spec)
    idx = np.arange(n + 1)
    K[idx, idx + 1] = bonds
    K[idx + 1, idx] = bonds
    if isinstance(spec.pattern, FromPositions) and spec.pattern.rule is not RangeRule.NEAREST_NEIGHBOR:
        # Long-range part among the chain sites; the registers stay nearest-neighbour.
        K[1 : n + 1, 1 : n + 1] = couplings_from_positions(spec.pattern.positions, spec.pattern.rule)
    np.fill_diagonal(K, spec.uniform_field)
    if spec.register_field is not None:
        K[0, 0] = K[n + 1, n + 1] = spec.register_field
    return K


def build_bdg_matrix(spec: ChainSpec, include_registers: bool = False) -> np.ndarray:
    """Real symmetric pairing matrix A for the transverse-field Ising chain.

    Conventions (chain Hamiltonian -kappa sum sx sx + B sum sz, checked
    against dense diagonalization: minus the summed positive eigenvalues
    of A is the exact many-body ground state energy):

        alpha = B on the diagonal, -kappa/2 on chain bonds
        beta_{i,i+1} = -kappa/2,  beta_{i+1,i} = +kappa/2
        A = [[alpha, beta], [beta^T, -alpha]]

    Physical mode evolution carries a factor two: phi(t) = exp(-2iAt) phi.
    With ``include_registers`` the two exchange-coupled registers are
    the first and last sites (hopping only, alpha entries J/2 of the two
    register bonds, diagonal B'); without, A holds the chain rows and
    columns of that matrix.  The register bonds are those of
    :func:`build_single_particle_matrix`: g_left and g_right, except that
    an ``Engineered`` profile sets them itself.
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
    n = spec.chain_length
    bonds = _nn_bonds(spec)  # the N+1 bonds of K, registers at both ends
    half = -bonds[1:-1] / 2.0  # -J/2 on the internal chain bonds
    i = np.arange(1, n)  # bond (i, i+1), with the registers at 0 and n+1
    alpha = np.zeros((n + 2, n + 2))
    beta = np.zeros((n + 2, n + 2))
    alpha[i, i + 1] = alpha[i + 1, i] = beta[i, i + 1] = half
    beta[i + 1, i] = -half
    alpha[np.arange(1, n + 1), np.arange(1, n + 1)] = spec.uniform_field
    if include_registers:
        Bp = spec.register_field if spec.register_field is not None else spec.uniform_field
        alpha[0, 0] = alpha[n + 1, n + 1] = Bp
        alpha[0, 1] = alpha[1, 0] = bonds[0] / 2.0
        alpha[n, n + 1] = alpha[n + 1, n] = bonds[-1] / 2.0
    else:
        alpha, beta = alpha[1:-1, 1:-1], beta[1:-1, 1:-1]
    return np.block([[alpha, beta], [beta.T, -alpha]])
