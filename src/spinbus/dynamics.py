"""Diagonalization and time evolution of quadratic chain Hamiltonians.

Covers the number-conserving (XX / bosonic) propagator M = exp(-iKt),
resonant-mode selection with matched register couplings
(``mode_budget(modes).select``), the pairing
(TFIM) sector with its orthogonal diagonalization and effective
register-swap check, bosonic thermal-error bookkeeping, and the
participation ratio localization diagnostic.

Internal units: energies and couplings in units of the reference coupling
kappa, times in 1/kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chains import ChainSpec, Engineered, ModelKind, build_bdg_matrix

__all__ = [
    "EigenmodeSet",
    "ModeBudget",
    "ResonantModeChoice",
    "BdGDiagonalization",
    "NoTransferModeError",
    "eigenmodes",
    "mode_budget",
    "propagator",
    "tridiagonal_eigenpairs",
    "transfer_elements",
    "bdg_diagonalize",
    "bdg_effective_swap_check",
    "bosonic_swap_and_thermal_error",
    "participation_ratio",
]

_END_AMPLITUDE_FLOOR = 1e-12
_DEGENERACY_GAP = 1e-10


class NoTransferModeError(ValueError):
    """No eigenmode has usable amplitude on both chain ends."""


@dataclass(frozen=True)
class EigenmodeSet:
    """Orthonormal eigenmodes of a chain-only Hermitian matrix.

    ``energies`` ascend; ``vectors[:, k]`` is mode k.  The left/right end
    amplitudes psi_{k,L} and psi_{k,R} drive the matched-coupling and
    error-budget formulas.
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def psi_left(self) -> np.ndarray:
        return self.vectors[0, :]

    @property
    def psi_right(self) -> np.ndarray:
        return self.vectors[-1, :]


@dataclass(frozen=True)
class ResonantModeChoice:
    """Selected transfer mode with matched couplings and swap time."""

    mode_index: int
    energy: float
    g_left: float
    g_right: float
    tunneling_rate: float
    transfer_time: float


@dataclass(frozen=True)
class BdGDiagonalization:
    """Orthogonal diagonalization O A O^T = Lambda of a pairing matrix.

    Rows are interleaved: row 2k holds the +eps_k quasiparticle, row
    2k+1 its -eps_k partner (0-based; energies ascend over k).
    """

    O: np.ndarray
    energies: np.ndarray  # interleaved (+eps_1, -eps_1, +eps_2, ...)

    @property
    def positive_energies(self) -> np.ndarray:
        return self.energies[::2]


def _hermitian(K, name: str) -> np.ndarray:
    """``K`` as an array; ``ValueError`` unless square, finite and Hermitian.

    ``eigh`` reads one triangle only, so it would solve any matrix silently.
    """
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.isfinite(K).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(K, K.conj().T, atol=1e-12):
        raise ValueError(f"{name} must be Hermitian (symmetric, if real)")
    return K


def eigenmodes(chain_matrix: np.ndarray) -> EigenmodeSet:
    """Hermitian eigensolve with a deterministic sign convention.

    Each mode's largest-magnitude component is made positive so matched
    couplings and transfer times are platform-independent.
    """
    w, v = np.linalg.eigh(_hermitian(chain_matrix, "chain matrix"))
    cols = np.arange(v.shape[1])
    flip = v[np.argmax(np.abs(v), axis=0), cols].real < 0
    v[:, flip] = -v[:, flip]
    return EigenmodeSet(w, v)


def propagator(K: np.ndarray, t: float) -> np.ndarray:
    """The matrix exp(-iKt), through a full Hermitian eigendecomposition.

    ``K`` must be square, finite and Hermitian, and ``t`` finite and >= 0.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and non-negative")
    w, v = np.linalg.eigh(_hermitian(K, "K"))
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def _phase_grid(w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i w t_j) for evenly spaced t_j, as an (n_times, n) array.

    Exact ``exp`` at about 2 sqrt(n_times) rows: the anchors t_{a b} and
    the steps r dt for r < b, with block size b = ceil(sqrt(n_times)).
    Row a b + r is then the product of anchor a and step r, one complex
    multiply per entry; it differs from the direct ``exp`` by a few
    rounding errors of w t.
    """
    nt = times.size
    b = math.isqrt(nt - 1) + 1
    dt = (times[-1] - times[0]) / (nt - 1) if nt > 1 else 0.0
    anchors = np.exp(-1j * np.outer(times[::b], w))
    steps = np.exp(-1j * np.outer(dt * np.arange(b), w))
    return (anchors[:, None, :] * steps[None, :, :]).reshape(-1, w.size)[:nt]


def tridiagonal_eigenpairs(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w (ascending) and eigenvectors v (columns) of a chain matrix.

    ``K`` must be a finite real symmetric tridiagonal matrix, as every
    nearest-neighbour XX chain is; anything else raises ``ValueError``.
    LAPACK ``dstevd`` is called directly: it is the driver that
    ``scipy.linalg.eigh_tridiagonal`` uses for all eigenpairs, without
    that wrapper's argument handling.
    """
    # imported here so that importing dynamics needs numpy only
    from scipy.linalg.lapack import dstevd

    K = np.asarray(K)
    if not (
        K.ndim == 2
        and K.shape[0] == K.shape[1]
        and np.isrealobj(K)
        and np.isfinite(K).all()
        and np.array_equal(np.diagonal(K, 1), np.diagonal(K, -1))
        # no nonzero entry off the three diagonals
        and np.count_nonzero(K)
        == np.count_nonzero(np.diagonal(K)) + 2 * np.count_nonzero(np.diagonal(K, 1))
    ):
        raise ValueError("K must be a finite real symmetric tridiagonal matrix")
    # the wrapper wants len(e) = max(n - 1, 1)
    e = np.diagonal(K, 1) if K.shape[0] > 1 else np.zeros(1)
    w, v, info = dstevd(np.diagonal(K), e)
    if info != 0:
        raise np.linalg.LinAlgError(f"dstevd failed with info = {info}")
    return w, v


def transfer_elements(w: np.ndarray, vL: np.ndarray, vR: np.ndarray, times):
    """Transfer elements of exp(-iKt) from K's eigenpairs, over evenly spaced times.

    ``w`` are the eigenvalues of a real symmetric K, and ``vL`` and
    ``vR`` the first and last rows of its eigenvector matrix (the two
    registers).  ``times`` must be finite and evenly spaced (as from
    ``np.linspace``; a single time is allowed), else ``ValueError``.
    Returns arrays (m00, m0R, mRR, leak), where leak is the
    register-excluded chain sum  sum_{i=1..N} M_{N+1,i} M_{i,0}  entering
    the encoded fidelity.  One eigensolve (:func:`tridiagonal_eigenpairs`)
    serves any number of calls; no (N+2)^2 propagator is formed.
    """
    times = np.atleast_1d(np.asarray(times, float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    if times.size > 2:
        even = np.linspace(times[0], times[-1], times.size)
        if np.max(np.abs(times - even)) > 1e-12 * np.max(np.abs(times)):
            raise ValueError("times must be evenly spaced")
    phases = _phase_grid(w, times)  # (nt, n)
    m00, m0R, mRR = (phases @ np.stack([vL * vL, vL * vR, vR * vR], axis=1)).T
    # (M^2)_{R,0} needs phases squared; subtract the register terms.
    # Real eigenvectors make M symmetric, so M_{R,0} = M_{0,R}.
    leak = (phases * phases) @ (vL * vR) - m0R * (m00 + mRR)
    return m00, m0R, mRR, leak


@dataclass(frozen=True)
class ModeBudget:
    """Per-mode ingredients of the transfer error budget of one chain.

    For every mode z: its energy, its end amplitudes |psi_{z,L}| and
    |psi_{z,R}|, whether it is a candidate (usable amplitude on both ends
    and a gap of at least 1e-10 to every other mode), and the
    off-resonant sums  sum_{k != z} |psi_{k,L}|^2 / Delta_kz^2  and
    sum_{k != z} |psi_{k,R}|^2 / Delta_kz^2.  None of these depend on the
    couplings or T1, so one budget scores a chain at every T1.
    """

    energies: np.ndarray
    amp_left: np.ndarray
    amp_right: np.ndarray
    candidate: np.ndarray
    off_left: np.ndarray
    off_right: np.ndarray

    def errors(self, g_max: float, n_chain: int, T1: float):
        """Matched couplings and error budget of every mode at once.

        Returns (gL, gR, t_z, tau, eps) arrays.  With S_L and S_R the
        off-resonant sums, eps = gL^2 S_L + gR^2 S_R + N tau / T1 is the
        leakage plus the register decay, where
        t_z = gL |psi_{z,L}| = gR |psi_{z,R}| and tau = pi / (sqrt(2) t_z).
        gL is the optimum (D/2C)^(1/3) of eps = C gL^2 + D / gL, capped at
        ``g_max`` (``g_max`` itself when T1 is infinite).  eps is inf for a
        mode that is not a candidate.  ``g_max`` must be finite and
        positive: an uncoupled register would score a perfect transfer
        that never happens.
        """
        if not (math.isfinite(g_max) and g_max > 0):
            raise ValueError("g_max must be finite and positive")
        if not T1 > 0:
            raise ValueError("T1 must be positive (may be infinite)")
        aL, aR = self.amp_left, self.amp_right
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if math.isinf(T1):
                gL = np.full(aL.shape, float(g_max))
            else:
                C = self.off_left + (aL / aR) ** 2 * self.off_right
                D = n_chain * math.pi / (math.sqrt(2.0) * T1 * aL)
                gL = np.minimum((D / (2.0 * C)) ** (1.0 / 3.0), g_max)
            t_z = gL * aL
            gR = t_z / aR
            tau = math.pi / (math.sqrt(2.0) * t_z)
            eps = gL**2 * self.off_left + gR**2 * self.off_right
            if not math.isinf(T1):
                eps += n_chain * tau / T1
        eps[~self.candidate] = np.inf
        return gL, gR, t_z, tau, eps

    def select(self, g_max: float, n_chain: int, T1: float) -> tuple[ResonantModeChoice, float]:
        """The mode of lowest error (on equal error, the smaller |E|) and its error.

        Raises :class:`NoTransferModeError` when no mode is a candidate.
        """
        gL, gR, t_z, tau, eps = self.errors(g_max, n_chain, T1)
        best = eps.min()
        if math.isinf(best):
            raise NoTransferModeError("no mode has usable end amplitudes and an isolated energy")
        ties = np.flatnonzero(eps == best)
        z = int(ties[np.argmin(np.abs(self.energies[ties]))])
        choice = ResonantModeChoice(
            z, float(self.energies[z]), float(gL[z]), float(gR[z]), float(t_z[z]), float(tau[z])
        )
        return choice, float(best)


def mode_budget(modes: EigenmodeSet) -> ModeBudget:
    """Candidate masks and off-resonant sums of every mode, as N x N array expressions."""
    E = modes.energies
    aL = np.abs(modes.psi_left)
    aR = np.abs(modes.psi_right)
    gaps = np.abs(E[:, None] - E[None, :])  # [k, z]
    np.fill_diagonal(gaps, np.inf)  # k = z drops out of every sum
    candidate = (
        (aL > _END_AMPLITUDE_FLOOR)
        & (aR > _END_AMPLITUDE_FLOOR)
        & (gaps.min(axis=0) >= _DEGENERACY_GAP)
    )
    with np.errstate(divide="ignore"):
        inv_gap2 = 1.0 / gaps**2  # inf only in the columns of degenerate modes
    with np.errstate(invalid="ignore"):
        off_left = aL**2 @ inv_gap2
        off_right = aR**2 @ inv_gap2
    return ModeBudget(E, aL, aR, candidate, off_left, off_right)


def bdg_diagonalize(A: np.ndarray) -> BdGDiagonalization:
    """Orthogonal diagonalization of a real symmetric pairing matrix.

    A = [[alpha, beta], [beta^T, -alpha]] with beta antisymmetric
    anticommutes with tau_x, the swap of the particle and hole halves
    (checked to 1e-12).  In the basis of the tau_x = +1 vectors
    [x; x]/sqrt(2) and the tau_x = -1 vectors [y; -y]/sqrt(2) it is
    therefore [[0, C], [C^T, 0]] with C = alpha - beta.  With the SVD
    C = X diag(s) Y^T, each u_k = [x_k + y_k; x_k - y_k]/2 has eigenvalue
    +s_k and tau_x u_k eigenvalue -s_k.  Every -eps row is therefore
    tau_x times its +eps row, and the energies are non-negative, by
    construction.  The near-zero (Majorana) subspace needs no tolerance:
    where eigh of A mixes +eps and -eps vectors whose splitting is below
    rounding, the SVD still returns orthonormal singular pairs, and
    O O^T = 1 is checked.

    Rows are interleaved (+eps_k, -eps_k) with eps_k ascending.
    """
    A = _hermitian(np.asarray(A, float), "pairing matrix")
    if A.shape[0] % 2:
        raise ValueError("pairing matrix must have even dimension")
    n = A.shape[0] // 2
    if not np.allclose(np.roll(A, n, axis=(0, 1)), -A, atol=1e-12):
        raise ValueError("pairing matrix must anticommute with the particle-hole swap")
    X, s, Yt = np.linalg.svd(A[:n, :n] - A[:n, n:])
    x, y = X.T[::-1], Yt[::-1]  # row k: the k-th smallest singular pair
    O = np.empty_like(A)
    O[0::2] = np.concatenate([x + y, x - y], axis=1) / 2.0
    O[1::2] = np.roll(O[0::2], n, axis=1)
    if not np.allclose(O @ O.T, np.eye(2 * n), atol=1e-10):
        raise np.linalg.LinAlgError("Bogoliubov transformation is not orthogonal")
    energies = np.empty(2 * n)
    energies[0::2] = s[::-1]
    energies[1::2] = -s[::-1]
    return BdGDiagonalization(O, energies)


@dataclass(frozen=True)
class EffectiveSwapResult:
    """Register-subspace map extracted from the full pairing dynamics."""

    register_block: np.ndarray  # 2x2, particle-sector amplitudes
    exchange_amplitude: float
    leakage: float
    transfer_time: float
    mode_energy: float


def bdg_effective_swap_check(spec: ChainSpec) -> EffectiveSwapResult:
    """Evolve the full pairing dynamics and report the register exchange.

    The chain-only matrix is diagonalized first; the registers are tuned
    to its lowest quasiparticle energy and the full system evolved for
    tau = pi / (sqrt(2) g u_1) with u_1 the mode's particle amplitude on
    the first chain site.  g is ``g_left`` (``g_right`` if that is 0), so
    an ``Engineered`` pattern, which sets the register bonds itself,
    raises ``ValueError``.  In the weak-coupling paramagnetic regime the
    returned exchange amplitude approaches 1; in the Majorana regime the
    hopping and pairing contributions cancel and it collapses.
    """
    if ModelKind(spec.model_kind) is not ModelKind.TFIM:
        raise ValueError("effective swap check expects a TFIM spec")
    n = spec.chain_length
    if isinstance(spec.pattern, Engineered):
        # it sets the register bonds itself, so the registers would not
        # couple at the g that the swap time is tuned to
        raise ValueError("effective swap check tunes g; the pattern must leave the register bonds to it")
    diag = bdg_diagonalize(build_bdg_matrix(spec, include_registers=False))
    # the energies ascend, so the lowest mode z is rows 0 (+eps) and 1 (-eps)
    eps_z = float(diag.positive_energies[0])
    u1 = abs(diag.O[0, 0])  # particle amplitude of mode z on the first chain site
    if u1 < _END_AMPLITUDE_FLOOR:
        raise NoTransferModeError("selected mode has no amplitude on the chain end")
    g = spec.g_left if spec.g_left > 0 else spec.g_right
    if g <= 0:
        raise ValueError("register coupling must be positive")
    tau = math.pi / (math.sqrt(2.0) * g * u1)

    full_spec = ChainSpec(
        model_kind=ModelKind.TFIM,
        chain_length=n,
        pattern=spec.pattern,
        g_left=g,
        g_right=g,
        register_field=eps_z,
        uniform_field=spec.uniform_field,
    )
    A = build_bdg_matrix(full_spec, include_registers=True)
    U = propagator(A, 2.0 * tau)  # phi(t) = exp(-2iAt) phi
    m = n + 2
    iL, iR = 0, n + 1  # particle rows of the registers
    block = np.array([[U[iL, iL], U[iL, iR]], [U[iR, iL], U[iR, iR]]])

    # Leakage: weight of the evolved left-register mode outside the span
    # of {register particle/hole modes, +-z chain quasiparticles}.
    col = U[:, iL]
    basis = []
    for idx in (iL, iR, iL + m, iR + m):
        e = np.zeros(2 * m)
        e[idx] = 1.0
        basis.append(e)
    for row in (0, 1):
        vec = np.zeros(2 * m)
        vec[1 : n + 1] = diag.O[row, :n]
        vec[m + 1 : m + n + 1] = diag.O[row, n:]
        basis.append(vec)
    Q = np.linalg.qr(np.array(basis).T)[0]
    leak = 1.0 - float(np.linalg.norm(Q.conj().T @ col) ** 2)
    return EffectiveSwapResult(block, float(abs(U[iR, iL])), leak, tau, eps_z)


@dataclass(frozen=True)
class BosonicTransferResult:
    epsilon: float
    n_out: float


def bosonic_swap_and_thermal_error(M: np.ndarray, n_bar_chain: np.ndarray | float) -> BosonicTransferResult:
    """Excess-noise bookkeeping for the oscillator-chain swap.

    Both registers start in their ground state and the N chain modes at
    the thermal occupations ``n_bar_chain``.  epsilon = 1 - |M_{N+1,0}|^2
    is the leaked weight, and the output occupation is the M-weighted
    sum n_out = sum_j |M_{N+1,j}|^2 n_j over all N+2 modes.
    """
    Mm = np.asarray(M)
    n = Mm.shape[0] - 2
    eps = 1.0 - abs(Mm[-1, 0]) ** 2
    occ = np.zeros(n + 2)
    occ[1:-1] = np.asarray(n_bar_chain) * np.ones(n)
    n_out = float(np.sum(np.abs(Mm[-1, :]) ** 2 * occ))
    return BosonicTransferResult(float(eps), n_out)


def participation_ratio(psi: np.ndarray):
    """N_PR = 1 / sum_i |psi_i|^4 for a normalized mode vector.

    ``psi`` is one (N,) mode, giving a float, or an (N, k) matrix of
    modes in its columns, giving an array of k ratios; every column must
    be normalized.
    """
    psi = np.asarray(psi)
    if np.any(np.abs(np.linalg.norm(psi, axis=0) - 1.0) > 1e-8):
        raise ValueError("mode vector must be normalized")
    # one mode per contiguous row, so each sum rounds as for a lone vector
    pr = 1.0 / np.sum(np.abs(np.ascontiguousarray(psi.T)) ** 4, axis=-1)
    return float(pr) if psi.ndim == 1 else pr
