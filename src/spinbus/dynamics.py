"""Diagonalization and time evolution of quadratic chain Hamiltonians.

Covers the number-conserving (XX / bosonic) propagator M = exp(-iKt),
the eigenmodes of a chain matrix (``eigenmodes`` gives the full vectors;
``end_modes`` gives only the two end rows, for a mirror-symmetric chain
from its spectrum alone), resonant-mode selection with matched register couplings
(``mode_budget(modes).select``), the pairing
(TFIM) sector with its orthogonal diagonalization and effective
register-swap check, bosonic thermal-error bookkeeping, and the
participation ratio localization diagnostic.

Internal units: energies and couplings in units of the reference coupling
kappa, times in 1/kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .chains import ChainSpec, ModelKind, build_bdg_matrix

__all__ = [
    "EigenmodeSet",
    "ModeBudget",
    "ResonantModeChoice",
    "BdGDiagonalization",
    "NoTransferModeError",
    "eigenmodes",
    "end_modes",
    "mode_budget",
    "propagator",
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
    """Orthonormal eigenmodes of a Hermitian chain matrix, or their two end rows.

    ``energies`` ascend; ``vectors[:, k]`` is mode k.  :func:`eigenmodes`
    gives the full (n, n) vectors, which :func:`propagator` and
    :func:`participation_ratio` need; :func:`end_modes` gives only the two
    end rows, a (2, n) ``vectors`` of psi_L over psi_R.  The left/right
    end amplitudes psi_{k,L} and psi_{k,R} drive the matched-coupling and
    error-budget formulas, and are all that :func:`transfer_elements` and
    :func:`mode_budget` read, so either set serves them.  A set may also
    stack chains of one length along leading axes, energies (..., n) and
    vectors (..., n, n), for :func:`mode_budget`; :func:`transfer_elements`
    takes one chain.  ``chiral`` marks a symmetric spectrum,
    energies[n-1-k] = -energies[k]: both entries set it for a real
    tridiagonal K with a zero diagonal (a bipartite chain), and
    :func:`transfer_elements` then sums over the upper half of the modes.
    ``from_spectrum`` marks end rows that :func:`end_modes` computed from
    the eigenvalues alone, with no eigenvector formed.
    """

    energies: np.ndarray
    vectors: np.ndarray
    chiral: bool = False
    from_spectrum: bool = False

    @property
    def psi_left(self) -> np.ndarray:
        return self.vectors[..., 0, :]

    @property
    def psi_right(self) -> np.ndarray:
        return self.vectors[..., -1, :]

    @cached_property
    def _fold(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The kept modes' energies, and real weights that fold every mode into them.

        A chiral set keeps its n - n//2 upper modes, each k with partner
        kbar = n-1-k; any other set keeps all n, with no partner (x_kbar = 0).
        With P = exp(-i w_k t) and x any of psi_L^2, psi_L psi_R and
        psi_R^2, a kept mode contributes
        x_k P + x_kbar conj(P) = Re(P) (x_k + x_kbar) + i Im(P) (x_k - x_kbar).
        That needs only w_kbar = -w_k, and it does not depend on the basis
        that the eigensolver picks in a degenerate subspace (at g = 0 the
        decoupled registers add two zero modes).  The zero mode of an odd
        chiral n is its own partner, and takes x_kbar = 0.  Rows 2j and
        2j+1 weight Re(P_j) and Im(P_j); columns 2e and 2e+1 give the real
        and imaginary parts of element e, so a real product with
        ``P.view(float)`` is a complex (n_times, 3) array.  The last
        array holds the psi_L psi_R columns, for the phases P^2.
        """
        n = self.energies.size
        h = n // 2 if self.chiral else 0  # the modes folded into a partner
        vL, vR = self.psi_left, self.psi_right
        x = np.array([vL * vL, vL * vR, vR * vR])
        up = x[:, h:]
        down = np.zeros_like(up)
        down[:, n - 2 * h :] = x[:, :h][:, ::-1]
        W = np.zeros((n - h, 2, 3, 2))
        W[:, 0, :, 0] = (up + down).T
        W[:, 1, :, 1] = (up - down).T
        W = W.reshape(2 * (n - h), 6)
        return self.energies[h:], W, np.ascontiguousarray(W[:, 2:4])


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
    """``K`` as an array; ``ValueError`` unless non-empty, square, finite and Hermitian.

    ``eigh`` reads one triangle only, so it would solve any matrix silently.
    """
    K = np.asarray(K)
    if K.ndim != 2 or K.shape[0] != K.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if K.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not np.isfinite(K).all():
        raise ValueError(f"{name} must be finite")
    if not np.allclose(K, K.conj().T, rtol=0.0, atol=1e-12):
        raise ValueError(f"{name} must be Hermitian (symmetric, if real)")
    return K


def eigenmodes(chain_matrix: np.ndarray) -> EigenmodeSet:
    """Hermitian eigensolve, the one eigensolve of a chain matrix.

    A finite real symmetric tridiagonal matrix (every nearest-neighbour
    chain) is solved by LAPACK ``dstevd``; every other matrix by ``eigh``,
    after the square, finite and Hermitian checks.  A mode's sign (its
    phase, for a complex matrix) is whatever the solver returns: every
    consumer uses products of a mode with its own conjugate, or
    magnitudes.
    """
    K = np.asarray(chain_matrix)
    chiral = False
    if _real_tridiagonal(K):
        w, v = _lapack_tridiagonal("dstevd", np.diagonal(K), np.diagonal(K, 1))
        chiral = not np.diagonal(K).any()
    else:
        w, v = np.linalg.eigh(_hermitian(K, "chain matrix"))
    return EigenmodeSet(w, v, chiral)


def end_modes(chain_matrix: np.ndarray) -> EigenmodeSet:
    """The energies and the two end rows psi_L, psi_R of the eigenmodes of K.

    The modes' ``vectors`` is (2, n): psi_L over psi_R, which is all that
    :func:`transfer_elements` and :func:`mode_budget` read.  A mirror-
    symmetric chain (K real symmetric tridiagonal, equal to its reflection
    through the centre, with every bond nonzero) needs no eigenvector: its
    spectrum fixes the end rows (:func:`_spectral_end_modes`).  Any other
    K, and a mirror-symmetric chain whose end weights that route cannot
    bound to a relative ``_SPECTRUM_RTOL``, takes :func:`eigenmodes` and
    keeps rows 0 and n - 1 of its vectors.  ``from_spectrum`` tells the
    two routes apart.
    """
    K = np.asarray(chain_matrix)
    if _real_tridiagonal(K):
        diag, bonds = np.diagonal(K), np.diagonal(K, 1)
        if bonds.all() and (diag == diag[::-1]).all() and (bonds == bonds[::-1]).all():
            modes = _spectral_end_modes(diag, bonds)
            if modes is not None:
                return modes
    modes = eigenmodes(K)
    return EigenmodeSet(modes.energies, modes.vectors[[0, -1]], modes.chiral)


# first-order relative error bound of the end weights above which a
# mirror-symmetric chain is solved with its eigenvectors
_SPECTRUM_RTOL = 1e-8
_EPS = np.finfo(float).eps


def _parity_halves(diag: np.ndarray, bonds: np.ndarray):
    """The (diag, bonds) of a mirror-symmetric chain on its even and odd reflection parity.

    At even n = 2m the sites i and n-1-i pair up: both halves are the
    first m sites, with the middle bond b_{m-1} added to (even) or
    subtracted from (odd) the last diagonal entry.  At odd n = 2m+1 the
    even half also holds the middle site, coupled to its neighbour pair
    by sqrt(2) b_{m-1}, and the odd half is the first m sites alone.
    """
    n = diag.size
    m = n // 2
    if n % 2:
        e = bonds[:m].copy()
        e[m - 1 :] *= math.sqrt(2.0)
        return (diag[: m + 1], e), (diag[:m], bonds[: max(m - 1, 0)])
    d_even, d_odd = diag[:m].copy(), diag[:m].copy()
    d_even[-1] += bonds[m - 1]
    d_odd[-1] -= bonds[m - 1]
    return (d_even, bonds[: m - 1]), (d_odd, bonds[: m - 1])


def _spectral_end_modes(diag: np.ndarray, bonds: np.ndarray) -> EigenmodeSet | None:
    """End rows of a mirror-symmetric chain from its spectrum, or None if they are not bounded.

    The eigenvalues come from ``dsterf`` on the two parity halves; with a
    zero diagonal and even n one half serves, as the odd half is the
    negative of the even one (flip the sign of every other site).  For a
    Jacobi matrix, residues of (lambda - K)^{-1}_{0,n-1} give
    psi_{L,k} psi_{R,k} = prod_i b_i / p'(lambda_k), p(lambda) =
    prod_j (lambda - lambda_j), and the mirror symmetry gives
    psi_{L,k}^2 = psi_{R,k}^2 = |psi_{L,k} psi_{R,k}| (Hochstadt 1974;
    de Boor & Golub 1978).  The sign of p'(lambda_k) is (-1)^(n-1-k).
    The weights are summed in logs, so nothing overflows at large n, and
    only for the modes that ``_fold`` keeps: a chiral partner
    kbar = n-1-k has the same weight.  Each eigenvalue is exact to about
    eps ||K||, so a weight's relative error is bounded to first order by
    eps ||K|| sum_{j != k} 1 / |lambda_k - lambda_j|; above
    ``_SPECTRUM_RTOL`` (close or equal eigenvalues, as when a bond tends
    to 0) this returns None.
    """
    n = diag.size
    chiral = not diag.any()
    even, odd = _parity_halves(diag, bonds)
    if chiral and n % 2 == 0:
        mu = np.abs(_lapack_tridiagonal("dsterf", *even)[0])
        mu.sort()
        w = np.concatenate((-mu[::-1], mu))
    else:
        w = np.concatenate([_lapack_tridiagonal("dsterf", *half)[0] for half in (even, odd)
                            if half[0].size])
        w.sort()
    h = n // 2 if chiral else 0  # the modes folded into a partner
    gaps = np.abs(w[h:, None] - w)  # [kept k, j]
    same = gaps.ravel()[h :: n + 1]  # a view of the entries j = k
    same[:] = np.inf
    with np.errstate(divide="ignore"):
        inv_gaps = np.reciprocal(gaps).sum(axis=1).max()
    if not _EPS * max(-w[0], w[-1]) * inv_gaps <= _SPECTRUM_RTOL:
        return None
    same[:] = 1.0
    weight = np.empty(n)
    weight[h:] = np.exp(np.log(np.abs(bonds)).sum() - np.log(gaps, out=gaps).sum(axis=1))
    weight[:h] = weight[n - h :][::-1]
    vectors = np.empty((2, n))
    vectors[0] = np.sqrt(weight)
    vectors[1] = vectors[0]
    vectors[1, n % 2 :: 2] *= -1.0  # psi_R,k = sign(psi_L,k psi_R,k) psi_L,k: (-1)^(n-1-k),
    if np.count_nonzero(bonds < 0) % 2:  # times the sign of prod_i b_i
        vectors[1] *= -1.0
    return EigenmodeSet(w, vectors, chiral, from_spectrum=True)


def propagator(K: np.ndarray, t: float) -> np.ndarray:
    """The matrix exp(-iKt), from the eigenmodes of ``K``.

    ``K`` must be non-empty, square, finite and Hermitian, and ``t``
    finite and >= 0.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError("time must be finite and non-negative")
    modes = eigenmodes(K)
    v = modes.vectors
    return (v * np.exp(-1j * modes.energies * t)) @ v.conj().T


def _phase_grid(w: np.ndarray, times: np.ndarray) -> np.ndarray:
    """exp(-i w t_j) for evenly spaced t_j, as an (n_times, n) array.

    Exact ``exp`` at about 2 sqrt(n_times) rows: the anchors t_{a b} and
    the steps r dt for r < b, with block size b = ceil(sqrt(n_times)).
    Row a b + r is then the product of anchor a and step r, one complex
    multiply per entry; it differs from the direct ``exp`` by a few
    rounding errors of w t.  A single time, as in each step of a Brent
    search over t, takes the direct ``exp``: its step row would be exactly 1.
    """
    nt = times.size
    if nt == 1:
        return np.exp(-1j * np.outer(times, w))
    b = math.isqrt(nt - 1) + 1
    dt = (times[-1] - times[0]) / (nt - 1)
    anchors = np.exp(-1j * np.outer(times[::b], w))
    steps = np.exp(-1j * np.outer(dt * np.arange(b), w))
    return (anchors[:, None, :] * steps[None, :, :]).reshape(-1, w.size)[:nt]


def _real_tridiagonal(K: np.ndarray) -> bool:
    """Whether the array ``K`` is a non-empty finite real symmetric tridiagonal matrix, exactly."""
    return (
        K.ndim == 2
        and K.shape[0] == K.shape[1] > 0  # an empty K fails _hermitian
        and np.isrealobj(K)
        and np.isfinite(K).all()
        and np.array_equal(np.diagonal(K, 1), np.diagonal(K, -1))
        # no nonzero entry off the three diagonals
        and np.count_nonzero(K)
        == np.count_nonzero(np.diagonal(K)) + 2 * np.count_nonzero(np.diagonal(K, 1))
    )


def _lapack_tridiagonal(routine: str, diag: np.ndarray, bonds: np.ndarray) -> list[np.ndarray]:
    """LAPACK ``routine`` on a finite real symmetric tridiagonal matrix.

    ``diag`` holds its n diagonal entries and ``bonds`` its n - 1
    off-diagonal ones.  ``dstevd`` returns [eigenvalues, eigenvectors],
    ``dsterf`` [eigenvalues].  This is the one call site of both.
    """
    # imported here so that importing dynamics needs numpy only, and looked
    # up at each call, so that a replaced routine is the one called
    from scipy.linalg import lapack

    # the wrappers want len(e) = max(n - 1, 1)
    *out, info = getattr(lapack, routine)(diag, bonds if len(diag) > 1 else np.zeros(1))
    if info != 0:
        raise np.linalg.LinAlgError(f"{routine} failed with info = {info}")
    return out


def transfer_elements(modes: EigenmodeSet, times):
    """Transfer elements of exp(-iKt) from the eigenmodes of K, over evenly spaced times.

    ``modes`` are :func:`eigenmodes` of a real symmetric K, registers in
    its first and last rows; complex eigenvectors raise ``ValueError``.
    ``times`` must be finite, non-negative and evenly spaced (as from
    ``np.linspace``; a single time is allowed), else ``ValueError``.  Returns arrays
    (m00, m0R, mRR, leak), where leak is the register-excluded chain sum
    sum_{i=1..N} M_{N+1,i} M_{i,0}  entering the encoded fidelity.  One
    eigensolve serves any number of calls; no (N+2)^2 propagator is
    formed.  The phase grid and the sums span the modes ``modes._fold``
    keeps: for ``modes.chiral`` the n - n//2 upper modes, else all n.
    """
    if np.iscomplexobj(modes.vectors):
        raise ValueError("transfer elements need the real eigenvectors of a real symmetric K")
    times = np.atleast_1d(np.asarray(times, float))
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-D array")
    if not np.all(np.isfinite(times) & (times >= 0)):
        raise ValueError("times must be finite and non-negative")
    if times.size > 2:
        even = np.linspace(times[0], times[-1], times.size)
        if np.max(np.abs(times - even)) > 1e-12 * np.max(np.abs(times)):
            raise ValueError("times must be evenly spaced")
    w, W, W2 = modes._fold
    phases = _phase_grid(w, times)  # (nt, kept modes)
    m00, m0R, mRR = (phases.view(np.float64) @ W).view(np.complex128).T
    # (M^2)_{R,0} needs phases squared; the register terms are subtracted below
    phases *= phases  # in place: one grid-sized buffer at a time
    m2 = (phases.view(np.float64) @ W2).view(np.complex128)[:, 0]
    # Real eigenvectors make M symmetric, so M_{R,0} = M_{0,R}.
    leak = m2 - m0R * (m00 + mRR)
    return m00, m0R, mRR, leak


@dataclass(frozen=True)
class ModeBudget:
    """Per-mode ingredients of the transfer error budget of one chain, or of a stack.

    For every mode z (the last axis; leading axes stack chains, as in the
    :class:`EigenmodeSet` the budget came from): its energy, its end
    amplitudes |psi_{z,L}| and |psi_{z,R}|, whether it is a candidate
    (usable amplitude on both ends and a gap of at least 1e-10 to every
    other mode), and the off-resonant sums
    sum_{k != z} |psi_{k,L}|^2 / Delta_kz^2  and
    sum_{k != z} |psi_{k,R}|^2 / Delta_kz^2.  None of these depend on the
    couplings or T1, so one budget scores a chain at every T1.
    """

    energies: np.ndarray
    amp_left: np.ndarray
    amp_right: np.ndarray
    candidate: np.ndarray
    off_left: np.ndarray
    off_right: np.ndarray

    def errors(self, g_max: float, T1: float):
        """Matched couplings and error budget of every mode at once.

        Returns (gL, gR, t_z, tau, eps) arrays.  With S_L and S_R the
        off-resonant sums, eps = gL^2 S_L + gR^2 S_R + N tau / T1 is the
        leakage plus the register decay, N the number of modes, where
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
        n_chain = self.energies.shape[-1]
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

    def select(self, g_max: float, T1: float) -> tuple[ResonantModeChoice, float]:
        """The mode of lowest error (on equal error, the smaller |E|) and its error.

        The budget must be of one chain, else ``ValueError``.  Raises
        :class:`NoTransferModeError` when no mode is a candidate.
        """
        if self.energies.ndim != 1:
            raise ValueError("select scores one chain; take the minimum of errors() for a stack")
        gL, gR, t_z, tau, eps = self.errors(g_max, T1)
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
    """Candidate masks and off-resonant sums of every mode, as N x N array expressions.

    A stack of chains gives a stack of budgets, one (..., N, N) gap array
    in all; each chain's rows equal its own budget's, bit for bit (the
    sums are one vector-matrix product per chain either way).
    """
    E = modes.energies
    aL = np.abs(modes.psi_left)
    aR = np.abs(modes.psi_right)
    gaps = E[..., :, None] - E[..., None, :]  # [..., k, z]
    np.abs(gaps, out=gaps)
    k = np.arange(E.shape[-1])
    gaps[..., k, k] = np.inf  # k = z drops out of every sum
    candidate = (
        (aL > _END_AMPLITUDE_FLOOR)
        & (aR > _END_AMPLITUDE_FLOOR)
        & (gaps.min(axis=-2) >= _DEGENERACY_GAP)
    )
    inv_gap2 = np.square(gaps, out=gaps)
    with np.errstate(divide="ignore"):
        np.divide(1.0, inv_gap2, out=inv_gap2)  # inf only in the columns of degenerate modes
    with np.errstate(invalid="ignore"):
        off_left = (aL**2)[..., None, :] @ inv_gap2
        off_right = (aR**2)[..., None, :] @ inv_gap2
    return ModeBudget(E, aL, aR, candidate, off_left[..., 0, :], off_right[..., 0, :])


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
    if not np.allclose(np.roll(A, n, axis=(0, 1)), -A, rtol=0.0, atol=1e-12):
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
    """Register exchange and leakage extracted from the full pairing dynamics."""

    exchange_amplitude: float
    leakage: float
    transfer_time: float


def bdg_effective_swap_check(spec: ChainSpec) -> EffectiveSwapResult:
    """Evolve the full pairing dynamics and report the register exchange.

    The chain-only matrix is diagonalized first; the registers are tuned
    to its lowest quasiparticle energy and the full system evolved for
    tau = pi / (sqrt(2) g u_1) with u_1 the mode's particle amplitude on
    the first chain site.  g is ``g_left`` (``g_right`` if that is 0).
    In the weak-coupling paramagnetic regime the returned exchange
    amplitude approaches 1; in the Majorana regime the hopping and pairing
    contributions cancel and it collapses.
    """
    if ModelKind(spec.model_kind) is not ModelKind.TFIM:
        raise ValueError("effective swap check expects a TFIM spec")
    n = spec.chain_length
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

    tuned = replace(spec, g_left=g, g_right=g, register_field=eps_z)
    A = build_bdg_matrix(tuned, include_registers=True)
    U = propagator(A, 2.0 * tau)  # phi(t) = exp(-2iAt) phi
    m = n + 2
    iL, iR = 0, n + 1  # particle rows of the registers

    # Leakage: weight of the evolved left-register mode outside the span
    # of {register particle/hole modes, +-z chain quasiparticles}.
    col = U[:, iL]
    basis = np.zeros((2 * m, 6))
    basis[[iL, iR, iL + m, iR + m], np.arange(4)] = 1.0
    basis[1 : n + 1, 4:] = diag.O[:2, :n].T
    basis[m + 1 : m + n + 1, 4:] = diag.O[:2, n:].T
    Q = np.linalg.qr(basis)[0]
    leak = 1.0 - float(np.linalg.norm(Q.conj().T @ col) ** 2)
    return EffectiveSwapResult(float(abs(U[iR, iL])), leak, tau)


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
