"""Exact many-body engine for XX chains with arbitrary-range couplings.

The Hamiltonians conserve total magnetization, so they block-diagonalize
by Hamming weight of the computational basis.  Every protocol channel is
one ``_FactoredChannel``: a basis permutation (the encode CNOT, or the
identity), one unitary block per magnetization sector, and another
permutation (the decode CNOT).  It contracts the Pauli transfer traces
against the diagonal environment state block by block, so no 2^n x 2^n
matrix is ever formed.

Every channel block has the factored form
B_w = V_w diag(p_L) O_w diag(p_R) V_w[cols]^T, with real eigenvectors V,
phases p = exp(-i w t) at a left and a right time and a real sector
overlap O_w fixed per channel (the identity for one leg of evolution).
The complex products run as real GEMMs on the complex operand viewed as
float64, and a block holds only the columns ``cols`` that the
environment state reaches.

The eigenvectors V_w are given as diagonal blocks that tile the sector
in contiguous ranges, and every product runs block by block.  A plain
channel eigensolves each sector whole, one block.  Both take the
register-padded single-particle matrix K of ``chains``.  The encoded
protocol numbers its sites so that leg a's active sites are K's rows and
the pair idle during leg a holds the two top bits
(``EncodedProtocolEngine``); each sector then splits into four
contiguous idle-pattern ranges, and leg a's eigenvectors are four
diagonal blocks from the n - 2 active sites, with no gathers or scatters.

A sector exactly invariant under site reversal (the uniform chain, evenly
spaced dipolar chains with g_L = g_R) is eigensolved as its two parity
blocks at about a quarter of the cost, any other sector whole
(``SectorHamiltonian``); either way it yields one dense real V.

Memory is counted in real sets of sector blocks, sum_w C(n, w)^2 float64
entries (0.32 GB at 14 spins), and measured with tracemalloc.  At 12
spins a plain transfer channel peaks at about 4.3 such sets for the
swaps (eigenvectors, the complex blocks and the contraction's gathers;
the Hamiltonian is dropped after its eigensolve) and about 5.3 for
``remote_z``, which also holds its overlaps.  At 12 and 13 spins an
encoded-protocol engine holds about 1.1 sets: the overlaps, plus leg
a's eigenvector blocks (about 0.2, as the blocks of the patterns 01 and
10 are one array).  It peaks at about 1.1 while it is built.  Its
``fidelities`` stack the blocks of a batch of times, half a set per time
(complex, a quarter of the columns), with as many times per batch as fit
in ``_BATCH_BYTES`` and at least one; a batch peaks at about 1.5 times
its stacked blocks on top of the held sets (0.7 sets for one time, from
13 spins on, so 1.8 in all).

Bit convention: bit value 1 marks a flipped spin (an "excitation");
``|0>`` is spin up, so sz has eigenvalue +1 on bit 0.

Internal units: couplings and fields in units of kappa, times in 1/kappa.
One encoded protocol, that of ``fidelity.f_encoded``: both legs last the
same time and the logical output is read on qubit b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import _hermitian

__all__ = [
    "ResourceLimitError",
    "SectorBasis",
    "SectorHamiltonian",
    "ExactChannelResult",
    "build_many_body",
    "EncodedProtocolEngine",
    "transfer_channel_traces",
    "mixed_environment",
]

_DEFAULT_CAP = 14
# smallest sector that ``SectorHamiltonian.eig`` splits by parity: below it
# the split's fixed cost outweighs its saving
_SPLIT_MIN_DIM = 100
# bytes of one batch's stacked complex blocks in _FactoredChannel.traces
_BATCH_BYTES = 64 * 2**20


class ResourceLimitError(RuntimeError):
    """The requested system size exceeds the configured dense-ED cap."""


class SectorBasis:
    """Computational basis of n qubits grouped by Hamming weight."""

    def __init__(self, n: int):
        self.n = n
        states = np.arange(1 << n, dtype=np.int64)
        weights = np.zeros(1 << n, dtype=np.int64)
        for b in range(n):
            weights += (states >> b) & 1
        self.weights = weights
        self.sectors = [np.flatnonzero(weights == w) for w in range(n + 1)]
        # position of each basis state inside its sector
        self.position = np.zeros(1 << n, dtype=np.int64)
        for idx in self.sectors:
            self.position[idx] = np.arange(len(idx))


def _parity_eigh(H: np.ndarray, mirror: np.ndarray):
    """Eigenpairs of H from its two site-reversal parity blocks, or None.

    ``mirror`` maps each sector position to that of the state with its
    bits reversed.  Unless H[mirror][:, mirror] == H exactly, returns
    None.  Otherwise the positions split into pairs (a, b = mirror[a]),
    a < b, and self-mirrored states f.  The even states
    (e_a + e_b)/sqrt 2 and e_f span the block [[H_aa + H_ab, sqrt 2 H_af],
    [sqrt 2 H_fa, H_ff]], the odd states (e_a - e_b)/sqrt 2 the block
    H_aa - H_ab, and the eigenvectors of both are scattered back into one
    dense V.  The eigenvalues come back even block first, so not sorted.
    """
    if not np.array_equal(H[mirror[:, None], mirror], H):
        return None
    # V is allocated before the half-size blocks: allocated after them, the
    # heap's placement raised the peak RSS of a 12-spin remote_z call from
    # 154 MB to 157 MB
    V = np.zeros_like(H)
    pos = np.arange(mirror.size)
    a = pos[pos < mirror]
    b = mirror[a]
    even = np.concatenate((a, pos[pos == mirror]))
    m, e = a.size, even.size
    E = H[even[:, None], even]
    H_b = H[even[:, None], b]
    w_odd, U_odd = np.linalg.eigh(E[:m, :m] - H_b[:m])
    E[:, :m] += H_b
    # the rows f now hold H_fa + H_fb = 2 H_fa; eigh reads only the lower triangle
    E[m:, :m] *= math.sqrt(0.5)
    w_even, U_even = np.linalg.eigh(E)
    U_even[:m] *= math.sqrt(0.5)
    U_odd *= math.sqrt(0.5)
    V[even, :e] = U_even
    V[b, :e] = U_even[:m]
    V[a, e:] = U_odd
    V[b, e:] = -U_odd
    return np.concatenate((w_even, w_odd)), V


class SectorHamiltonian:
    """Magnetization-blocked dense Hamiltonian of an XX coupling map.

    ``eig`` solves a sector of at least ``_SPLIT_MIN_DIM`` states by its two
    parity blocks where the exact reversal test of ``_parity_eigh`` holds,
    any other sector whole; ``split_sectors`` and ``whole_sectors`` count them.
    """

    def __init__(self, n: int, blocks: list[np.ndarray], basis: SectorBasis):
        self.n = n
        self.blocks = blocks
        self.basis = basis
        self._eig: list[tuple[np.ndarray, np.ndarray]] | None = None
        self.split_sectors = self.whole_sectors = 0

    def eig(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._eig is None:
            basis = self.basis
            self._eig = []
            for idx, H in zip(basis.sectors, self.blocks):
                pair = None
                if idx.size >= _SPLIT_MIN_DIM:
                    # each state with its bits reversed: its mirror image
                    mirrored = sum(((idx >> i) & 1) << (self.n - 1 - i) for i in range(self.n))
                    pair = _parity_eigh(H, basis.position[mirrored])
                self.split_sectors += pair is not None
                self.whole_sectors += pair is None
                self._eig.append(pair or np.linalg.eigh(H))
        return self._eig


def _check_cap(n: int, cap: int) -> None:
    if n > cap:
        mem = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 8 / 1e9
        raise ResourceLimitError(
            f"{n} qubits exceeds the cap of {cap}; an exact channel peaks at about "
            f"two (encoded protocol) to five and a half (plain transfer) real sets "
            f"of sector blocks, about {2 * mem:.1f}-{5.5 * mem:.1f} GB"
        )


def build_many_body(K: np.ndarray, cap: int = _DEFAULT_CAP) -> SectorHamiltonian:
    """Sector blocks of H = sum_{i<j} K_ij (s+_i s-_j + h.c.) + sum_i K_ii n_i.

    ``K`` is the finite real symmetric (n, n) single-particle matrix
    (else ``ValueError``), and the single-excitation block of H equals
    it: the off-diagonal entries are the couplings and the diagonal
    entries the fields.  The additive
    constant from sz versus number operators is a global phase and is
    dropped.  The fields are summed by mirror pairs of sites (i, n-1-i),
    so mirror-symmetric fields give a state and its bit reversal the same
    diagonal entry, bit for bit, as ``SectorHamiltonian.eig`` tests.
    """
    K = np.asarray(K)
    if np.iscomplexobj(K):
        if np.any(K.imag != 0):
            raise ValueError("K must be real: XX hopping with complex amplitudes is not supported")
        K = K.real
    K = _hermitian(np.asarray(K, float), "K")
    n = K.shape[0]
    _check_cap(n, cap)
    basis = SectorBasis(n)
    h = np.diagonal(K)
    diag = np.zeros(1 << n)
    for i in range((n + 1) // 2):
        j = n - 1 - i
        if h[i] != 0 or h[j] != 0:
            states = np.arange(1 << n)
            pair = h[i] * ((states >> i) & 1)
            diag += pair if j == i else pair + h[j] * ((states >> j) & 1)
    blocks = []
    for idx in basis.sectors:
        dim = len(idx)
        H = np.zeros((dim, dim))
        H[np.arange(dim), np.arange(dim)] = diag[idx]
        for i in range(n):
            for j in range(i + 1, n):
                if K[i, j] == 0.0:
                    continue
                # states with bit i set, bit j clear flip-flop to partners
                sel = (((idx >> i) & 1) == 1) & (((idx >> j) & 1) == 0)
                src = idx[sel]
                dst = src ^ (1 << i) ^ (1 << j)
                r = basis.position[src]
                c = basis.position[dst]
                H[r, c] += K[i, j]
                H[c, r] += K[i, j]
        blocks.append(H)
    return SectorHamiltonian(n, blocks, basis)


# ---------------------------------------------------------------------------
# channel evaluation


def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    s = np.arange(1 << n)
    return np.where(((s >> control) & 1) == 1, s ^ (1 << target), s)


def _swap_perm(n: int, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Basis permutation that exchanges the bits of each site pair."""
    s = np.arange(1 << n)
    for a, b in pairs:
        diff = ((s >> a) ^ (s >> b)) & 1
        s = s ^ (diff << a) ^ (diff << b)
    return s


def _held_columns(
    basis: SectorBasis, enc: np.ndarray, env_weights: np.ndarray, in_site: int
) -> tuple[list[np.ndarray], np.ndarray]:
    """The block columns the trace contraction reads, per sector and as a map.

    The traces read the columns of the basis states enc[c] and
    enc[c ^ in_bit] for every c of non-zero environment weight, and no
    others.  Returns the sector positions of those states for each sector
    (ascending) and the map from each basis state to its column in blocks
    holding only them, -1 where such a block does not hold it.
    """
    live = np.flatnonzero(env_weights)
    read = enc[np.union1d(live, live ^ (1 << in_site))]
    col_position = np.full(1 << basis.n, -1, dtype=np.int64)
    cols = []
    for w in range(basis.n + 1):
        states = np.sort(read[basis.weights[read] == w])
        col_position[states] = np.arange(len(states))
        cols.append(basis.position[states])
    return cols, col_position


def _as_real(a: np.ndarray) -> np.ndarray:
    """A C-ordered complex array as a 2-D float64 view, (rows, 2 * rest)."""
    return a.view(np.float64).reshape(a.shape[0], -1)


def _row_blocks(blocks: list[np.ndarray]):
    """Each diagonal block with the slice of rows (and columns) it covers."""
    start = 0
    for U in blocks:
        yield slice(start, start + U.shape[0]), U
        start += U.shape[0]


def _sector_block(w, blocks, O, held, t_left, t_right) -> np.ndarray:
    """Held columns of B = V diag(p_L) O diag(p_R) V[held]^T at K times at once.

    V is block-diagonal: ``blocks`` are its diagonal blocks in order, each
    a contiguous range of rows and columns.  p_L and p_R hold the phases
    exp(-i w t) at the (K,) times ``t_left`` and ``t_right``; ``held``
    lists the (ascending) sector positions of the held columns' basis
    states, and ``O`` is a real overlap, or None for the identity.
    Returns the (d, len(held), K) stack of blocks.  Contracted right to
    left, block by block, so each product is one real GEMM over the
    columns of every time, written straight into its slice of the stack:
    viewed as float64, a C-ordered complex array is a real matrix whose
    columns alternate between real and imaginary parts, and a real
    matrix times it, viewed back as complex, is the complex product.
    """
    d, c, k = w.size, held.size, t_left.size
    p_R = np.exp(-1j * np.outer(w, t_right))
    # Z = O diag(p_R) V[held]^T: block k's held columns are one slice of them
    Z = np.zeros((d, c, k), complex) if O is None else None
    for rows, U in _row_blocks(blocks):
        h0, h1 = np.searchsorted(held, (rows.start, rows.stop))
        # Y_k = V_k[held rows]^T diag(p_R), written into Z when O is the identity
        Y = np.multiply(U[held[h0:h1] - rows.start].T[:, :, None], p_R[rows, None, :],
                        out=Z[rows, h0:h1] if O is None else None, order="C")
        if O is not None:
            # Z is allocated after the first Y_k: allocated before it, with
            # the same arrays alive, the heap's placement raised the peak RSS
            # of a 12-spin remote_z call from 150 MB to 172 MB
            Z = np.empty((d, c, k), complex) if Z is None else Z
            np.matmul(O[:, rows], _as_real(Y), out=_as_real(Z)[:, 2 * k * h0 : 2 * k * h1])
        del Y  # freed before the next block's, and before B is formed
    Z *= np.exp(-1j * np.outer(w, t_left))[:, None, :]
    B = np.empty_like(Z)
    for rows, U in _row_blocks(blocks):
        np.matmul(U, _as_real(Z[rows]), out=_as_real(B[rows]))
    return B


def mixed_environment(n: int, in_site: int, fixed: dict[int, int] | None = None,
                      correlated_pairs: list[tuple[int, int]] | None = None) -> np.ndarray:
    """Diagonal weights of the initial environment state over the full basis.

    All sites except ``in_site``, the ``fixed`` sites and the
    ``correlated_pairs`` are maximally mixed.  A correlated pair carries
    the classical mixture (|00><00| + |11><11|)/2.  The weights sum to 1
    over the environment for each fixed input-site value.
    """
    fixed = fixed or {}
    correlated_pairs = correlated_pairs or []
    s = np.arange(1 << n)
    w = np.ones(1 << n)
    special = {in_site} | set(fixed)
    for a, b in correlated_pairs:
        special |= {a, b}
    n_mixed = n - len(special)
    w *= 0.5**n_mixed
    for site, val in fixed.items():
        w *= ((s >> site) & 1) == val
    for a, b in correlated_pairs:
        w *= 0.5 * (((s >> a) & 1) == ((s >> b) & 1))
    return w


# Single-site operators as (flip, [value on bit 0, value on bit 1]):
# op|b> = value_b |b ^ flip>.  Bit 0 is spin up, so |1><0| lowers.
_X = (1, np.array([1.0, 1.0]))
_Y = (1, np.array([1j, -1j]))
_Z = (0, np.array([1.0, -1.0]))
_LOWER = (1, np.array([1.0, 0.0]))  # |1><0|
_RAISE = (1, np.array([0.0, 1.0]))  # |0><1|
# trace name -> (input operator, output operator); both flip alike
_TRACE_OPS = {"x": (_X, _X), "y": (_Y, _Y), "z": (_Z, _Z), "s": (_LOWER, _RAISE)}


def _groups(key: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of the non-negative integer array ``key`` grouped by value."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key)
    ends = np.cumsum(counts)
    return {k: order[ends[k] - counts[k] : ends[k]] for k in np.flatnonzero(counts).tolist()}


@dataclass(frozen=True)
class _TraceTerm:
    """One sector pair (w, w2) of the trace contraction.

    Sums conj(B_w[rows, cols]) * B_w2[rows2, cols2] against the output
    weights ``q`` (one row per trace in ``keys``) on the left and the
    input weights ``d`` on the right.
    """

    keys: tuple[str, ...]
    w: int
    w2: int
    rows: np.ndarray
    cols: np.ndarray
    rows2: np.ndarray
    cols2: np.ndarray
    q: np.ndarray  # (len(keys), len(rows))
    d: np.ndarray  # (len(keys), len(cols))


def _trace_plan(
    basis: SectorBasis,
    enc: np.ndarray,
    dec: np.ndarray,
    col_map: np.ndarray,
    env_weights: np.ndarray,
    in_site: int,
    out_site: int,
) -> list[_TraceTerm]:
    """The gathers and weights of the trace contraction.

    Each trace is sum_{r,c} conj(V[r, c]) q[r] V[r', c'] d[c] with
    r' = r ^ flip_out, c' = c ^ flip_in, d the input operator's value
    times the environment weight and q the output operator's value.  Rows
    and columns are grouped by the sector pair (w, w') that V[r, c] and
    V[r', c'] fall in, and only the matching sub-blocks of B_w and B_w'
    are gathered; columns of zero environment weight are skipped, so the
    blocks need hold only the ``_held_columns``, which ``col_map`` indexes.
    The plan depends on the permutations, the held columns and the
    environment only, so a channel evaluated at many times is planned once.
    """
    n = basis.n
    stride = n + 1
    states = np.arange(1 << n)
    row_sector, row_pos = basis.weights[dec], basis.position[dec]
    col_sector, col_pos = basis.weights[enc], col_map[enc]
    live = np.flatnonzero(env_weights)
    if min(col_pos[live].min(), col_pos[live ^ (1 << in_site)].min()) < 0:
        raise ValueError("the channel blocks lack a column the environment reaches")
    in_bit = (live >> in_site) & 1
    out_bit = (states >> out_site) & 1
    plan = []
    for flip in (0, 1):
        keys = tuple(k for k, (op_in, _) in _TRACE_OPS.items() if op_in[0] == flip)
        d = np.array([_TRACE_OPS[k][0][1][in_bit] * env_weights[live] for k in keys])
        q = np.array([_TRACE_OPS[k][1][1][out_bit ^ flip] for k in keys])
        rows2 = states ^ (flip << out_site)
        cols2 = live ^ (flip << in_site)
        row_groups = _groups(row_sector * stride + row_sector[rows2])
        col_groups = _groups(col_sector[live] * stride + col_sector[cols2])
        for pair, R in row_groups.items():
            C = col_groups.get(pair)
            if C is None:
                continue
            w, w2 = divmod(pair, stride)
            plan.append(_TraceTerm(
                keys, w, w2, row_pos[R], col_pos[live[C]],
                row_pos[rows2[R]], col_pos[cols2[C]], q[:, R], d[:, C],
            ))
    return plan


def _contract(plan: list[_TraceTerm], blocks: list[np.ndarray], k: int) -> dict[str, np.ndarray]:
    """The traces at each of k times from (d_w, c_w, k) stacks of blocks."""
    traces = {key: np.zeros(k, complex) for key in _TRACE_OPS}
    for term in plan:
        # the gathers are copies: conjugate and multiply in place
        M = blocks[term.w][term.rows[:, None], term.cols]
        np.conjugate(M, out=M)
        M *= blocks[term.w2][term.rows2[:, None], term.cols2]
        # rows first, as one GEMM over the flattened (column, time) axis
        Z = (term.q @ M.reshape(len(term.rows), -1)).reshape(len(term.keys), -1, k)
        for key, v in zip(term.keys, np.einsum("jck,jc->jk", Z, term.d)):
            traces[key] += v
    return traces


class _FactoredChannel:
    """A channel unitary V = P_dec (+)_w B_w P_enc with factored blocks.

    B_w = V_w diag(p(t_left)) O_w diag(p(t_right)) V_w^T acts on the
    Hamming-weight-w sector of ``basis``; ``eig`` holds, per sector, the
    eigenvalues and the diagonal blocks of V_w, which tile the sector in
    contiguous ranges of rows and columns (one block for a full
    eigensolve), and ``overlaps`` the real O_w, None for the identity.
    ``enc`` and ``dec`` are basis permutations given as gather maps, so
    V[r, c] = B_w[pos(dec[r]), pos(enc[c])] when dec[r] and enc[c] both
    have weight w, and 0 otherwise; for self-inverse permutations (CNOTs
    and the identity) this is the operator product.

    ``traces`` gives T_i = Tr[s^i_out E(s^i_in)] for i in {x, y, z} plus
    the coherence-transfer amplitude s = Tr[s^+_out E(s^-_in)], where
    E(A) = Tr_rest[V (A (x) rho_env) V^dag] and ``env_weights`` is the
    diagonal of rho_env over the full basis.  The average channel fidelity
    is 1/2 + (T_x + T_y + T_z)/12.
    """

    def __init__(self, basis, eig, overlaps, enc, dec, env_weights, in_site, out_site):
        self._eig = eig
        self._overlaps = overlaps
        self._cols, col_position = _held_columns(basis, enc, env_weights, in_site)
        self._plan = _trace_plan(basis, enc, dec, col_position, env_weights, in_site, out_site)
        # times per batch: the stacked complex blocks stay under _BATCH_BYTES
        per_time = 16 * sum(w.size * len(c) for (w, _), c in zip(eig, self._cols))
        self._batch = max(1, _BATCH_BYTES // per_time)

    def traces(self, t_left: np.ndarray, t_right: np.ndarray) -> list[dict[str, complex]]:
        """The traces at each time pair (t_left[k], t_right[k]), one dict per pair.

        Up to ``_batch`` pairs share one block product per sector and one
        contraction.
        """
        times = np.concatenate((t_left, t_right))
        if not np.all(np.isfinite(times) & (times >= 0)):
            raise ValueError("time must be finite and non-negative")
        out = []
        for start in range(0, t_left.size, self._batch):
            tl, tr = t_left[start : start + self._batch], t_right[start : start + self._batch]
            # the blocks are a temporary: one batch's are freed before the next is built
            traces = _contract(self._plan, [
                _sector_block(w, blocks, O, held, tl, tr)
                for (w, blocks), O, held in zip(self._eig, self._overlaps, self._cols)
            ], tl.size)
            out += [{key: complex(v[i]) for key, v in traces.items()} for i in range(tl.size)]
        return out


@dataclass(frozen=True)
class ExactChannelResult:
    """Exact infinite-temperature channel fidelity and its trace terms."""

    fidelity: float
    fidelity_phase_corrected: float
    traces: dict[str, complex]


def _result_from_traces(traces: dict[str, complex]) -> ExactChannelResult:
    tx, ty, tz = (traces[k].real for k in ("x", "y", "z"))
    f_plain = 0.5 + (tx + ty + tz) / 12.0
    # A post-transfer z-phase gate can align the coherence transfer; the
    # best achievable coherence contribution is 4|s| in place of Tx+Ty.
    f_corr = 0.5 + (tz + 4.0 * abs(traces["s"])) / 12.0
    return ExactChannelResult(float(f_plain), float(f_corr), traces)


# ---------------------------------------------------------------------------
# the paired (encoded) protocol


def _leg_a_eig(act: SectorHamiltonian) -> list[tuple[np.ndarray, list[np.ndarray]]]:
    """Eigenpairs of leg a in every n-site sector, from the n - 2 active sites.

    The active sites 0a, 1..N, (N+1)a are K's rows.  During leg a the
    sites 0b and (N+1)b have no coupling and no field, so H_a = H_act (x) 1
    on them, with H_act = ``act`` = ``build_many_body(K)``.  The active sites are
    the low bits, so the weight-w sector holds the idle patterns 00, 01,
    10, 11 in turn as contiguous ranges, each in the order of the active
    sector of weight w, w - 1, w - 1 and w - 2, and its eigenvectors are
    blockdiag(V_act[w], V_act[w-1], V_act[w-1], V_act[w-2]).  Returns per
    sector the eigenvalues (in that block order, so not sorted) and the
    non-empty blocks; the blocks of the patterns 01 and 10 are one array.
    """
    act_eig = act.eig()
    n = act.n + 2
    eig = []
    for w in range(n + 1):
        pairs = [act_eig[w - k] for k in (0, 1, 1, 2) if 0 <= w - k <= n - 2]
        eig.append((np.concatenate([e for e, _ in pairs]), [U for _, U in pairs]))
    return eig


def _block_overlap(blocks: list[np.ndarray], src: np.ndarray) -> np.ndarray:
    """O = V[src]^T V for a block-diagonal V given by its diagonal ``blocks``.

    ``src`` is a permutation of the sector positions.  Row r of V[src] is
    row src[r] of V, which is non-zero in one column block only, so O is
    formed one (row block j, column block k) pair at a time from the rows
    r of block k whose src[r] falls in block j.
    """
    tiles = list(_row_blocks(blocks))
    starts = np.array([rows.start for rows, _ in tiles])
    owner = np.searchsorted(starts, np.stack((src, np.arange(src.size))), side="right") - 1
    O = np.zeros((src.size, src.size))
    for pair, r in _groups(owner[0] * len(tiles) + owner[1]).items():
        (rows, U_j), (cols, U_k) = tiles[pair // len(tiles)], tiles[pair % len(tiles)]
        O[rows, cols] = U_j[src[r] - rows.start].T @ U_k[r - cols.start]
    return O


class EncodedProtocolEngine:
    """Reusable engine for scanning transfer times at fixed couplings.

    ``K`` is the real symmetric (N+2)x(N+2) single-particle matrix of
    leg a, registers in rows 0 and N+1, as ``chains`` builds it.  The
    protocol runs on N + 4 sites, numbered {0a, 1..N, (N+1)a, 0b,
    (N+1)b} in that order: leg a couples 0a and (N+1)a to the chain
    through K, and leg b couples 0b and (N+1)b in their place.  The pair
    0b, (N+1)b, idle during leg a, holds the two top bits, so each
    magnetization sector holds the idle patterns 00, 01, 10 and 11 in
    turn as contiguous ranges, each in its active sector's own order.
    The idle pair carries no field, so the register entries K[0, 0] and
    K[N+1, N+1] must be 0.

    The sector eigendecomposition depends on K only, so a grid of times
    costs one factored block product per sector and one contraction per
    batch of times.  The input qubit rides on 0_a; 0_b starts in |up>;
    the chain is at infinite temperature; the receiving pair starts in
    the classical logical mixture (|00><00| + |11><11|)/2.  Both legs last
    the same time; the decode CNOT leaves the output on (N+1)b, which
    keeps the chain-decoding bonus term.

    Only leg a is eigensolved, and only on its n - 2 active sites
    (``_leg_a_eig``).  Leg b is H_b = P H_a P, with P the basis
    permutation that swaps 0a<->0b and (N+1)a<->(N+1)b; P keeps the
    Hamming weight, so in each sector V_b = P_w V_a (rows permuted) and
    the leg product is B_w A_w = P_w V_a diag(p_b) O_w diag(p_a) V_a^T
    with the real overlap O_w = V_b^T V_a, formed block by block
    (``_block_overlap``).  The leading P_w is folded into the decode map.
    The engine holds V_a only as its diagonal blocks, and the trace
    contraction is planned once per engine.
    """

    def __init__(self, K, cap: int = _DEFAULT_CAP):
        K = np.asarray(K)
        if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] < 3:
            raise ValueError("K must be a square (N+2, N+2) matrix with N >= 1")
        N = K.shape[0] - 2
        if K[0, 0] != 0 or K[N + 1, N + 1] != 0:
            raise ValueError("the register fields K[0, 0] and K[N+1, N+1] must be 0")
        n = N + 4
        _check_cap(n, cap)
        a0, aR, b0, bR = 0, N + 1, N + 2, N + 3
        act = build_many_body(K, cap=cap)
        eig = _leg_a_eig(act)
        self.split_sectors, self.whole_sectors = act.split_sectors, act.whole_sectors
        del act  # frees its Hamiltonian blocks before the overlaps are formed
        basis = SectorBasis(n)
        self.leg_swap = _swap_perm(n, [(a0, b0), (bR, aR)])
        enc = _cnot_perm(n, a0, b0)
        dec = self.leg_swap[_cnot_perm(n, bR, aR)]
        env = mixed_environment(n, a0, fixed={b0: 0}, correlated_pairs=[(bR, aR)])
        overlaps = [
            _block_overlap(blocks, basis.position[self.leg_swap[idx]])
            for idx, (_, blocks) in zip(basis.sectors, eig)
        ]
        self._channel = _FactoredChannel(basis, eig, overlaps, enc, dec, env, a0, bR)

    def fidelities(self, times) -> list[ExactChannelResult]:
        """Exact fidelities at each leg time of ``times``, both legs that long.

        Both legs are block-diagonal in the same magnetization sectors, so
        the protocol is one ``_FactoredChannel`` (encode CNOT, B_w A_w,
        decode CNOT) with t_left = t_right = t.
        """
        t = np.asarray(times, float)
        if t.ndim != 1:
            raise ValueError("times must be a 1-D array")
        return [_result_from_traces(traces) for traces in self._channel.traces(t, t)]


# ---------------------------------------------------------------------------
# plain transfer channels (oracles for the closed-form fidelities)


def transfer_channel_traces(
    K: np.ndarray,
    t: float,
    kind: str,
    chain_bits: np.ndarray | None = None,
) -> dict[str, complex]:
    """Exact traces for the simple one-register-in channels.

    ``K`` is the (N+2)x(N+2) single-particle matrix of the full system;
    the corresponding many-body chain is evolved exactly.  Kinds:

    - ``double_swap``: evolve for t, read back at site 0
    - ``single_swap``: evolve for t, read out at site N+1
    - ``remote_z``: evolve t, flip sz on site N+1, evolve t, read at 0

    ``chain_bits``, N values in {0, 1}, optionally pins the chain sites to
    a product bit configuration instead of the maximally mixed state (used
    to probe the parity dependence of the one-way swap).
    """
    if kind not in ("double_swap", "single_swap", "remote_z"):
        raise ValueError(f"unknown channel kind {kind!r}")
    K = np.asarray(K)
    n = K.shape[0]
    fixed = {}
    if chain_bits is not None:
        bits = np.asarray(chain_bits)
        if bits.shape != (n - 2,) or not np.isin(bits, (0, 1)).all():
            raise ValueError(f"chain_bits must be {n - 2} values in {{0, 1}}")
        fixed = {1 + i: int(b) for i, b in enumerate(bits)}
    H = build_many_body(K)
    basis = H.basis
    # one block per sector: the full eigenvector matrix
    eig = [(w, [V]) for w, V in H.eig()]
    del H  # frees the Hamiltonian blocks: the channel needs only the eigenpairs
    identity = np.arange(1 << n)
    overlaps = [None] * (n + 1)
    if kind == "remote_z":
        # the z flip S on site N+1 is diagonal: U S U = V diag(p) (V^T S V) diag(p) V^T
        flip = 1.0 - 2.0 * ((identity >> (n - 1)) & 1)
        overlaps = [V.T @ (flip[idx][:, None] * V) for (_, (V,)), idx in zip(eig, basis.sectors)]
    out_site = n - 1 if kind == "single_swap" else 0
    env = mixed_environment(n, 0, fixed=fixed)
    channel = _FactoredChannel(basis, eig, overlaps, identity, identity, env, 0, out_site)
    times = np.array([float(t)])
    # a swap is one leg of evolution: O = 1 and no time on the left
    return channel.traces(times if kind == "remote_z" else np.zeros(1), times)[0]
