"""Exact many-body engine for XX chains with arbitrary-range couplings.

The Hamiltonians conserve total magnetization, so they block-diagonalize
by Hamming weight of the computational basis.  Every protocol channel is
one ``_FactoredChannel``: a basis permutation (the encode CNOT, or the
identity), one unitary block per magnetization sector, and another
permutation (the decode CNOT).  It contracts two traces against the
diagonal environment state block by block, so no 2^n x 2^n matrix is
ever formed: T_z, which flips no bit and sums q |B_w|^2 d over whole
blocks with q and d the +-1 output and input signs (d times the
environment weight), and the coherence amplitude s, which sums
conj(B_w) B_w2 over the rows with output bit 0 and the columns with input
bit 0, gathered by sector pair with their partners that have the bit
set.  T_x = T_y = 2 Re s, so the fidelity is 1/2 + (T_z + 4 Re s)/12.
``_plan`` builds the held columns and both traces' terms once per channel.

Every channel block has the factored form
B_w = V_w diag(p) O_w diag(p) V_w[cols]^T, with real eigenvectors V,
phases p = exp(-i w t) at one leg time t and a real sector overlap O_w
fixed per channel.  The encoded protocol holds O_w dense.  A plain
channel's legs meet at a reflection S = 1 - 2 Pi_m, so
O_w = 1 - 2 V_w[m]^T V_w[m] is applied as two thin products and never
formed: m holds the rows that the z flip of ``remote_z`` negates, and
none for the swaps, two legs of half their time.  The complex products
run as real GEMMs on the complex operand viewed as float64, and a block
holds only the columns ``cols`` that the environment state reaches.

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
spins a plain transfer channel peaks at about 3.65 such sets, the swaps
and ``remote_z`` alike: the eigenvectors (one set), the complex blocks
(two) and the contraction's |B|^2 temporary of the largest sector (0.6);
the Hamiltonian is dropped after its eigensolve, and no overlap is held.
At 12 and 13 spins an encoded-protocol engine holds about 1.1 sets: the
overlaps, plus leg a's eigenvector blocks (about 0.2, as the blocks of
the patterns 01 and 10 are one array).  It peaks at about 1.1 while it
is built.  Its ``fidelities`` stack the blocks of a batch of times, half
a set per time (complex, a quarter of the columns), with as many times
per batch as fit in ``_BATCH_BYTES`` and at least one; a batch peaks at
about 1.3 times its stacked blocks on top of the held sets, the |B|^2
temporary included (0.6 sets for one time, from 13 spins on, so 1.7 in
all).  Below 13 spins a full batch packs several times: an engine
evaluating its full batch peaked at 4.6 sets at 12 spins (6 times) and
61 at 10 (100 times), which ``_check_cap`` quotes.

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
    """``ResourceLimitError`` above the cap, quoting the peaks measured at n spins.

    An encoded-protocol engine holds 1.1 real sets and evaluates a batch
    of times packed into ``_BATCH_BYTES`` (half a set each, at least one)
    at 1.3 times the batch; a plain transfer channel peaks at 3.6 sets.
    """
    if n > cap:
        real_set = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 8
        batch = max(1, _BATCH_BYTES // (real_set // 2))
        encoded = 1.1 * real_set + 1.3 * batch * real_set / 2
        raise ResourceLimitError(
            f"{n} qubits exceeds the cap of {cap}; an encoded-protocol engine peaks at "
            f"about {encoded / 1e9:.2g} GB (1.1 real sets of sector blocks plus a batch "
            f"of {batch} time(s)), a plain transfer channel at about "
            f"{3.6 * real_set / 1e9:.2g} GB (3.6 sets)"
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


def _as_real(a: np.ndarray) -> np.ndarray:
    """A C-ordered complex array as a 2-D float64 view, (rows, 2 * rest)."""
    return a.view(np.float64).reshape(a.shape[0], -1)


def _row_blocks(blocks: list[np.ndarray]):
    """Each diagonal block with the slice of rows (and columns) it covers."""
    start = 0
    for U in blocks:
        yield slice(start, start + U.shape[0]), U
        start += U.shape[0]


def _sector_block(w, blocks, O, held, times) -> np.ndarray:
    """Held columns of B = V diag(p) O diag(p) V[held]^T at K times at once.

    V is block-diagonal: ``blocks`` are its diagonal blocks in order, each
    a contiguous range of rows and columns.  p holds the phases
    exp(-i w t) at the (K,) leg times ``times``, one ``exp`` for both
    sides; ``held`` lists the (ascending) sector positions of the held
    columns' basis states.  ``O`` is either a dense real overlap or, for a
    V of one block, the ascending sector positions m of a reflection
    S = 1 - 2 Pi_m between the legs: O = V^T S V = 1 - 2 V[m]^T V[m] (the
    identity when m is empty), applied as two thin GEMMs, so nothing d x d
    is formed; it reflects on the fewer of m and the other rows r, as
    S = -(1 - 2 Pi_r).
    Returns the (d, len(held), K) stack of blocks.  Contracted right to
    left, block by block, so each product is one real GEMM over the
    columns of every time, written straight into its slice of the stack:
    viewed as float64, a C-ordered complex array is a real matrix whose
    columns alternate between real and imaginary parts, and a real
    matrix times it, viewed back as complex, is the complex product.
    """
    d, c, k = w.size, held.size, times.size
    p = np.exp(-1j * np.outer(w, times))
    dense = O.ndim == 2
    # Z = O diag(p) V[held]^T: block k's held columns are one slice of them
    Z = None if dense else np.zeros((d, c, k), complex)
    for rows, U in _row_blocks(blocks):
        h0, h1 = np.searchsorted(held, (rows.start, rows.stop))
        # Y_k = V_k[held rows]^T diag(p), written into Z for a reflection
        Y = np.multiply(U[held[h0:h1] - rows.start].T[:, :, None], p[rows, None, :],
                        out=None if dense else Z[rows, h0:h1], order="C")
        if dense:
            # Z is allocated after the first Y_k: allocated before it, with
            # the same arrays alive, the heap's placement raised the peak RSS
            # of a 12-spin channel with dense overlaps from 150 MB to 172 MB
            Z = np.empty((d, c, k), complex) if Z is None else Z
            np.matmul(O[:, rows], _as_real(Y), out=_as_real(Z)[:, 2 * k * h0 : 2 * k * h1])
        del Y  # freed before the next block's, and before B is formed
    if not dense and O.size:
        (V,) = blocks
        if 2 * O.size > d:
            # S = -(1 - 2 Pi_r): reflect on the other rows r, and fold the
            # sign into the phases of the second leg
            O, p = np.delete(np.arange(d), O), -p
        V_m = V[O]
        T = V_m @ _as_real(Z)
        T *= 2.0
        Z_real = _as_real(Z)
        Z_real -= V_m.T @ T  # Z - 2 V[m]^T V[m] Z
        del V_m, T
    Z *= p[:, None, :]
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


def _groups(key: np.ndarray) -> dict[int, np.ndarray]:
    """Indices of the non-negative integer array ``key`` grouped by value."""
    order = np.argsort(key, kind="stable")
    counts = np.bincount(key)
    ends = np.cumsum(counts)
    return {k: order[ends[k] - counts[k] : ends[k]] for k in np.flatnonzero(counts).tolist()}


def _plan(basis: SectorBasis, enc: np.ndarray, dec: np.ndarray, env_weights: np.ndarray,
          in_site: int, out_site: int) -> tuple[list, list, list]:
    """The held block columns and the terms of the contraction of T_z and s.

    Row r and column c of the channel are entry (pos(dec[r]), pos(enc[c]))
    of the block of their sector.  The blocks hold only the columns of
    the states enc[c], c of non-zero environment weight: ``held`` lists
    their sector positions (ascending) per sector.  ``mixed_environment``
    never weighs the input site, so the input-bit partner of every such c
    is held too, which is checked here.

    T_z = sum q[r] |V[r, c]|^2 d[c] with q = 1 - 2 (output bit of r) and
    d = +-(environment weight) by the input bit of c.  It flips no bit, so
    a T_z term (w, q_w, d_w) is diagonal in sector w: q_w and d_w are the
    weights in block-row and held-column order.  s = Tr[s^+_out E(s^-_in)]
    sums conj(V[r, c]) V[r', c'] times the environment weight d[c] over
    the rows r with output bit 0 and the columns c with input bit 0, with
    r' and c' the partners that have the bit set.  They are grouped by
    the sector pair (w, w2) of V[r, c] and V[r', c']: an s term
    (w, w2, rows, cols, rows2, cols2, d) gathers only those sub-blocks of
    B_w and B_w2.  The plan depends on the permutations and the
    environment only, so a channel evaluated at many times is planned once.
    """
    n = basis.n
    stride = n + 1
    live = np.flatnonzero(env_weights)
    read = enc[live]
    # each basis state's column in blocks holding only the read states, -1 where not held
    col_map = np.full(1 << n, -1, dtype=np.int64)
    held = []
    for w in range(n + 1):
        held_states = np.sort(read[basis.weights[read] == w])
        col_map[held_states] = np.arange(held_states.size)
        held.append(basis.position[held_states])
    in_mask, out_mask = 1 << in_site, 1 << out_site
    if col_map[enc[live ^ in_mask]].min() < 0:
        raise ValueError("the channel blocks lack a column the environment reaches")
    row_sector, row_pos = basis.weights[dec], basis.position[dec]
    col_sector, col_pos = basis.weights[enc], col_map[enc]
    states = np.arange(1 << n)
    # the T_z weights by basis state: q at the row state dec[r], d at the column state enc[c]
    q, d = np.empty(1 << n), np.zeros(1 << n)
    q[dec] = 1.0 - 2.0 * ((states >> out_site) & 1)
    d[read] = np.where(live & in_mask, -1.0, 1.0) * env_weights[live]
    z_terms = [(w, q[idx], d[idx[cols]])
               for w, (idx, cols) in enumerate(zip(basis.sectors, held)) if cols.size]
    rows, cols = states[(states & out_mask) == 0], live[(live & in_mask) == 0]
    rows2, cols2 = rows | out_mask, cols | in_mask
    col_groups = _groups(col_sector[cols] * stride + col_sector[cols2])
    s_terms = []
    for pair, R in _groups(row_sector[rows] * stride + row_sector[rows2]).items():
        C = col_groups.get(pair)
        if C is not None:
            s_terms.append((*divmod(pair, stride), row_pos[rows[R]], col_pos[cols[C]],
                            row_pos[rows2[R]], col_pos[cols2[C]], env_weights[cols[C]]))
    return held, z_terms, s_terms


def _contract(z_terms, s_terms, blocks: list[np.ndarray], k: int):
    """T_z and s at each of k times from (d_w, c_w, k) stacks of blocks."""
    tz, s = np.zeros(k, complex), np.zeros(k, complex)
    for w, q, d in z_terms:
        # squares of the float view: |B|^2 as its real and imaginary parts
        # in turn, summed once the rows are contracted (the temporary is
        # freed at once, before the next term's)
        q_sq = q @ np.square(_as_real(blocks[w]))
        tz += d @ q_sq.reshape(-1, k, 2).sum(axis=2)
    for w, w2, rows, cols, rows2, cols2, d in s_terms:
        # the gathers are copies: conjugate and multiply in place
        M = blocks[w][rows[:, None], cols]
        np.conjugate(M, out=M)
        M *= blocks[w2][rows2[:, None], cols2]
        s += d @ M.sum(axis=0)
    return tz, s


class _FactoredChannel:
    """A channel unitary V = P_dec (+)_w B_w P_enc with factored blocks.

    B_w = V_w diag(p(t)) O_w diag(p(t)) V_w^T acts on the
    Hamming-weight-w sector of ``basis``; ``eig`` holds, per sector, the
    eigenvalues and the diagonal blocks of V_w, which tile the sector in
    contiguous ranges of rows and columns (one block for a full
    eigensolve), and ``overlaps`` per sector either the dense real O_w or
    the rows m of a reflection between the legs (``_sector_block``).
    ``enc`` and ``dec`` are basis permutations given as gather maps, so
    V[r, c] = B_w[pos(dec[r]), pos(enc[c])] when dec[r] and enc[c] both
    have weight w, and 0 otherwise; for self-inverse permutations (CNOTs
    and the identity) this is the operator product.

    ``traces`` gives T_i = Tr[s^i_out E(s^i_in)] for i in {x, y, z} plus
    the coherence-transfer amplitude s = Tr[s^+_out E(s^-_in)], where
    E(A) = Tr_rest[V (A (x) rho_env) V^dag] and ``env_weights`` is the
    diagonal of rho_env over the full basis.  Only T_z and s are
    contracted: T_x + T_y = 2 Tr[s^+ E(s^-)] + c.c. = 4 Re s, and V
    conserves the excitation number, so T_x = T_y = 2 Re s.  The average
    channel fidelity is 1/2 + (T_x + T_y + T_z)/12 = 1/2 + (T_z + 4 Re s)/12.
    """

    def __init__(self, basis, eig, overlaps, enc, dec, env_weights, in_site, out_site):
        self._eig = eig
        self._overlaps = overlaps
        self._cols, self._z_terms, self._s_terms = _plan(basis, enc, dec, env_weights,
                                                         in_site, out_site)
        # times per batch: the stacked complex blocks stay under _BATCH_BYTES
        per_time = 16 * sum(w.size * len(c) for (w, _), c in zip(eig, self._cols))
        self._batch = max(1, _BATCH_BYTES // per_time)

    def traces(self, times: np.ndarray) -> list[dict[str, complex]]:
        """The traces x, y, z and s at each leg time t of ``times``, one dict per time.

        Up to ``_batch`` times share one block product per sector and one
        contraction.
        """
        if not np.all(np.isfinite(times) & (times >= 0)):
            raise ValueError("time must be finite and non-negative")
        out = []
        for start in range(0, times.size, self._batch):
            t = times[start : start + self._batch]
            # the blocks are a temporary: one batch's are freed before the next is built
            tz, ts = _contract(self._z_terms, self._s_terms, [
                _sector_block(w, blocks, O, held, t)
                for (w, blocks), O, held in zip(self._eig, self._overlaps, self._cols)
            ], t.size)
            out += [{"x": complex(2 * s.real), "y": complex(2 * s.real), "z": z, "s": s}
                    for z, s in zip(tz.tolist(), ts.tolist())]
        return out


@dataclass(frozen=True)
class ExactChannelResult:
    """Exact infinite-temperature channel fidelity and its trace terms."""

    fidelity: float
    fidelity_phase_corrected: float
    traces: dict[str, complex]


def _result_from_traces(traces: dict[str, complex]) -> ExactChannelResult:
    tz, s = traces["z"].real, traces["s"]
    f_plain = 0.5 + (tz + 4.0 * s.real) / 12.0  # T_x + T_y = 4 Re s
    # A post-transfer z-phase gate can align the coherence transfer; the
    # best achievable coherence contribution is 4|s| in place of Tx+Ty.
    f_corr = 0.5 + (tz + 4.0 * abs(s)) / 12.0
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
    the leg product is B_w A_w = P_w V_a diag(p) O_w diag(p) V_a^T, p the
    phases at the leg time, with the real overlap O_w = V_b^T V_a, formed block by block
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
        decode CNOT) at leg time t.
        """
        t = np.asarray(times, float)
        if t.ndim != 1:
            raise ValueError("times must be a 1-D array")
        return [_result_from_traces(traces) for traces in self._channel.traces(t)]


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
    H = build_many_body(K)  # validates K before its shape is read
    basis = H.basis
    n = basis.n
    fixed = {}
    if chain_bits is not None:
        bits = np.asarray(chain_bits)
        if bits.shape != (n - 2,) or not np.isin(bits, (0, 1)).all():
            raise ValueError(f"chain_bits must be {n - 2} values in {{0, 1}}")
        fixed = {1 + i: int(b) for i, b in enumerate(bits)}
    # one block per sector: the full eigenvector matrix
    eig = [(w, [V]) for w, V in H.eig()]
    del H  # frees the Hamiltonian blocks: the channel needs only the eigenpairs
    identity = np.arange(1 << n)
    # the z flip on site N+1 between the legs is the reflection S = 1 - 2 Pi_m,
    # m the sector rows with that (top) bit set, and U S U = V diag(p)
    # (1 - 2 V[m]^T V[m]) diag(p) V^T; the swaps reflect no rows (S = 1)
    reflect = [np.flatnonzero(idx >> (n - 1)) if kind == "remote_z" else idx[:0]
               for idx in basis.sectors]
    out_site = n - 1 if kind == "single_swap" else 0
    env = mixed_environment(n, 0, fixed=fixed)
    channel = _FactoredChannel(basis, eig, reflect, identity, identity, env, 0, out_site)
    # a swap evolves for t: two legs of t/2 with O = 1 between them
    return channel.traces(np.array([float(t) if kind == "remote_z" else 0.5 * float(t)]))[0]
