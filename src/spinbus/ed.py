"""Exact many-body engine for XX chains with arbitrary-range couplings.

The Hamiltonians conserve total magnetization, so they block-diagonalize
by Hamming weight of the computational basis.  Every protocol channel is
a ``SectorChannel``: a basis permutation (the encode CNOT, or the
identity), one unitary block per magnetization sector, and another
permutation (the decode CNOT).  ``channel_traces`` contracts the Pauli
transfer traces against the diagonal environment state block by block,
so no 2^n x 2^n matrix is ever formed.  Memory is counted in sets of
sector blocks, sum_w C(n, w)^2 complex entries (0.64 GB at 14 spins); an
encoded-protocol point holds about five such sets at its peak.

Bit convention: bit value 1 marks a flipped spin (an "excitation");
``|0>`` is spin up, so sz has eigenvalue +1 on bit 0.
"""

from __future__ import annotations

import math
import time as _time
from dataclasses import dataclass

import numpy as np

from .dynamics import evolve

__all__ = [
    "ResourceLimitError",
    "SectorBasis",
    "SectorHamiltonian",
    "SectorChannel",
    "ProtocolSpec",
    "ExactChannelResult",
    "build_many_body",
    "build_many_body_from_k",
    "exact_unitary",
    "channel_traces",
    "exact_channel_fidelity",
    "EncodedProtocolEngine",
    "transfer_channel_traces",
    "mixed_environment",
]

_DEFAULT_CAP = 14


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

    def dims(self) -> list[int]:
        return [len(s) for s in self.sectors]


class SectorHamiltonian:
    """Magnetization-blocked dense Hamiltonian of an XX coupling map."""

    def __init__(self, n: int, blocks: list[np.ndarray], basis: SectorBasis):
        self.n = n
        self.blocks = blocks
        self.basis = basis
        self._eig: list[tuple[np.ndarray, np.ndarray]] | None = None

    def eig(self) -> list[tuple[np.ndarray, np.ndarray]]:
        if self._eig is None:
            self._eig = [np.linalg.eigh(b) for b in self.blocks]
        return self._eig

    def all_eigenvalues(self) -> np.ndarray:
        return np.sort(np.concatenate([w for w, _ in self.eig()]))


def build_many_body(
    J: np.ndarray,
    n: int,
    fields: np.ndarray | None = None,
    cap: int = _DEFAULT_CAP,
) -> SectorHamiltonian:
    """Sector blocks of H = sum_{i<j} J_ij (s+_i s-_j + h.c.) + sum_i B_i n_i.

    ``J`` is a symmetric (n, n) coupling matrix (diagonal ignored) and
    ``fields`` the per-site diagonal, i.e. exactly the off-diagonal and
    diagonal of the corresponding single-particle matrix.  The additive
    constant from sz versus number operators is a global phase and is
    dropped.
    """
    if n > cap:
        mem = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 16 / 1e9
        raise ResourceLimitError(
            f"{n} qubits exceeds the cap of {cap}; one set of complex sector "
            f"blocks needs about {mem:.1f} GB"
        )
    J = np.asarray(J, float)
    if J.shape != (n, n) or not np.allclose(J, J.T, atol=1e-12):
        raise ValueError("J must be a symmetric (n, n) matrix")
    basis = SectorBasis(n)
    diag = np.zeros(1 << n)
    if fields is not None:
        fields = np.asarray(fields, float)
        for i in range(n):
            bit = (np.arange(1 << n) >> i) & 1
            diag += fields[i] * bit
    blocks = []
    for idx in basis.sectors:
        dim = len(idx)
        H = np.zeros((dim, dim))
        H[np.arange(dim), np.arange(dim)] = diag[idx]
        for i in range(n):
            for j in range(i + 1, n):
                if J[i, j] == 0.0:
                    continue
                # states with bit i set, bit j clear flip-flop to partners
                sel = (((idx >> i) & 1) == 1) & (((idx >> j) & 1) == 0)
                src = idx[sel]
                dst = src ^ (1 << i) ^ (1 << j)
                r = basis.position[src]
                c = basis.position[dst]
                H[r, c] += J[i, j]
                H[c, r] += J[i, j]
        blocks.append(H)
    return SectorHamiltonian(n, blocks, basis)


def build_many_body_from_k(K: np.ndarray, cap: int = _DEFAULT_CAP) -> SectorHamiltonian:
    """Many-body Hamiltonian whose single-excitation block equals K."""
    K = np.asarray(K)
    n = K.shape[0]
    J = np.array(K, float)
    fields = np.diag(J).copy()
    np.fill_diagonal(J, 0.0)
    return build_many_body(J, n, fields, cap=cap)


def exact_unitary(H: SectorHamiltonian, t: float) -> list[np.ndarray]:
    """Per-sector unitaries exp(-i H_w t) from cached eigendecompositions."""
    if t < 0:
        raise ValueError("time must be non-negative")
    return [evolve(w, V, t) for w, V in H.eig()]


# ---------------------------------------------------------------------------
# channel evaluation


def _cnot_perm(n: int, control: int, target: int) -> np.ndarray:
    s = np.arange(1 << n)
    return np.where(((s >> control) & 1) == 1, s ^ (1 << target), s)


@dataclass(frozen=True)
class SectorChannel:
    """A channel unitary V = P_dec (+)_w B_w P_enc.

    ``blocks[w]`` acts on the Hamming-weight-w sector of ``basis``;
    ``enc`` and ``dec`` are basis permutations given as gather maps, so
    V[r, c] = B_w[pos(dec[r]), pos(enc[c])] when dec[r] and enc[c] both
    have weight w, and 0 otherwise.  For self-inverse permutations (CNOTs
    and the identity) this is the operator product.
    """

    basis: SectorBasis
    blocks: list[np.ndarray]
    enc: np.ndarray
    dec: np.ndarray


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


def channel_traces(
    channel: SectorChannel, in_site: int, out_site: int, env_weights: np.ndarray
) -> dict[str, complex]:
    """Exact Pauli transfer traces of a sector-wise channel.

    Returns T_i = Tr[s^i_out E(s^i_in)] for i in {x, y, z} plus the
    coherence-transfer amplitude s = Tr[s^+_out E(s^-_in)], where
    E(A) = Tr_rest[V (A (x) rho_env) V^dag] and ``env_weights`` is the
    diagonal of rho_env over the full basis.  The average channel
    fidelity is 1/2 + (T_x + T_y + T_z)/12.

    Each trace is sum_{r,c} conj(V[r, c]) q[r] V[r', c'] d[c] with
    r' = r ^ flip_out, c' = c ^ flip_in, d the input operator's value
    times the environment weight and q the output operator's value.  Rows
    and columns are grouped by the sector pair (w, w') that V[r, c] and
    V[r', c'] fall in, and only the matching sub-blocks of B_w and B_w'
    are gathered; columns of zero environment weight are skipped.
    """
    basis = channel.basis
    n = basis.n
    stride = n + 1
    states = np.arange(1 << n)
    row_sector, row_pos = basis.weights[channel.dec], basis.position[channel.dec]
    col_sector, col_pos = basis.weights[channel.enc], basis.position[channel.enc]
    live = np.flatnonzero(env_weights)
    in_bit = (live >> in_site) & 1
    out_bit = (states >> out_site) & 1
    traces = dict.fromkeys(_TRACE_OPS, 0j)
    for flip in (0, 1):
        keys = [k for k, (op_in, _) in _TRACE_OPS.items() if op_in[0] == flip]
        d = {k: _TRACE_OPS[k][0][1][in_bit] * env_weights[live] for k in keys}
        q = {k: _TRACE_OPS[k][1][1][out_bit ^ flip] for k in keys}
        rows2 = states ^ (flip << out_site)
        cols2 = live ^ (flip << in_site)
        row_groups = _groups(row_sector * stride + row_sector[rows2])
        col_groups = _groups(col_sector[live] * stride + col_sector[cols2])
        for pair, R in row_groups.items():
            C = col_groups.get(pair)
            if C is None:
                continue
            w, w2 = divmod(pair, stride)
            A = channel.blocks[w][row_pos[R][:, None], col_pos[live[C]]]
            A2 = channel.blocks[w2][row_pos[rows2[R]][:, None], col_pos[cols2[C]]]
            M = A.conj() * A2
            for k in keys:
                traces[k] += q[k][R] @ M @ d[k][C]
    return {k: complex(v) for k, v in traces.items()}


@dataclass(frozen=True)
class ExactChannelResult:
    """Exact infinite-temperature channel fidelity and its trace terms."""

    fidelity: float
    fidelity_phase_corrected: float
    traces: dict[str, complex]
    model: str
    wall_time: float

    @property
    def infidelity(self) -> float:
        return 1.0 - self.fidelity


def _result_from_traces(traces: dict[str, complex], model: str, t0: float) -> ExactChannelResult:
    tx, ty, tz = (traces[k].real for k in ("x", "y", "z"))
    f_plain = 0.5 + (tx + ty + tz) / 12.0
    # A post-transfer z-phase gate can align the coherence transfer; the
    # best achievable coherence contribution is 4|s| in place of Tx+Ty.
    f_corr = 0.5 + (tz + 4.0 * abs(traces["s"])) / 12.0
    return ExactChannelResult(
        float(f_plain), float(f_corr), traces, model, _time.perf_counter() - t0
    )


# ---------------------------------------------------------------------------
# the paired (encoded) protocol


@dataclass(frozen=True)
class ProtocolSpec:
    """Encoded two-leg transfer protocol on sites {0a, 0b, 1..N, (N+1)b, (N+1)a}.

    ``chain_couplings`` is the symmetric (N, N) coupling matrix of the bus;
    the registers attach with strength ``g`` to the nearest chain end.
    ``readout`` selects which physical qubit carries the logical output
    after the decode CNOT ("b", the default, keeps the chain-decoding
    bonus term).
    """

    n_chain: int
    chain_couplings: np.ndarray
    g: float
    t_a: float
    t_b: float
    chain_fields: np.ndarray | None = None
    readout: str = "b"
    model: str = "custom"

    @property
    def n_total(self) -> int:
        return self.n_chain + 4

    def site_index(self, label: str) -> int:
        N = self.n_chain
        return {"0a": 0, "0b": 1, "(N+1)b": N + 2, "(N+1)a": N + 3}[label]


def _leg_hamiltonian(p: ProtocolSpec, leg: str, cap: int) -> SectorHamiltonian:
    """Full-space Hamiltonian of one transfer leg; the other pair is idle."""
    n = p.n_total
    N = p.n_chain
    J = np.zeros((n, n))
    J[2 : N + 2, 2 : N + 2] = np.asarray(p.chain_couplings, float)
    left = p.site_index("0b") if leg == "b" else p.site_index("0a")
    right = p.site_index("(N+1)b") if leg == "b" else p.site_index("(N+1)a")
    J[left, 2] = J[2, left] = p.g
    J[right, N + 1] = J[N + 1, right] = p.g
    fields = None
    if p.chain_fields is not None:
        fields = np.zeros(n)
        fields[2 : N + 2] = p.chain_fields
    return build_many_body(J, n, fields, cap=cap)


class EncodedProtocolEngine:
    """Reusable engine for scanning transfer times at fixed couplings.

    The per-leg sector eigendecompositions depend on (chain couplings, g)
    only, so a time grid costs the sector-wise evolution and contraction
    per point.  The input qubit rides on 0_a; 0_b starts in |up>; the
    chain is at infinite temperature; the receiving pair starts in the
    classical logical mixture (|00><00| + |11><11|)/2.
    """

    def __init__(self, n_chain, chain_couplings, g, chain_fields=None,
                 readout="b", model="custom", cap: int = _DEFAULT_CAP):
        self.proto = p = ProtocolSpec(
            n_chain, np.asarray(chain_couplings, float), float(g), 0.0, 0.0,
            chain_fields, readout, model,
        )
        self.cap = cap
        self._Ha = _leg_hamiltonian(p, "a", cap)
        self._Hb = _leg_hamiltonian(p, "b", cap)
        self._Ha.eig()
        self._Hb.eig()
        n = p.n_total
        b, a = p.site_index("(N+1)b"), p.site_index("(N+1)a")
        # the decode CNOT is controlled on the readout qubit
        readout_site, partner = (b, a) if readout == "b" else (a, b)
        self._in_site, self._out_site = p.site_index("0a"), readout_site
        self._enc = _cnot_perm(n, self._in_site, p.site_index("0b"))
        self._dec = _cnot_perm(n, readout_site, partner)
        self._env = mixed_environment(
            n, self._in_site, fixed={p.site_index("0b"): 0}, correlated_pairs=[(b, a)]
        )

    def fidelity(self, t: float, t_b: float | None = None) -> ExactChannelResult:
        """Exact fidelity at leg time t (both legs, unless t_b differs).

        Both legs are block-diagonal in the same magnetization sectors, so
        the protocol is the ``SectorChannel`` (encode CNOT, B_w A_w,
        decode CNOT).
        """
        t0 = _time.perf_counter()
        Ua = exact_unitary(self._Ha, t)
        Ub = exact_unitary(self._Hb, t if t_b is None else t_b)
        channel = SectorChannel(
            self._Ha.basis, [B @ A for A, B in zip(Ua, Ub)], self._enc, self._dec
        )
        traces = channel_traces(channel, self._in_site, self._out_site, self._env)
        return _result_from_traces(traces, self.proto.model, t0)


def exact_channel_fidelity(p: ProtocolSpec, cap: int = _DEFAULT_CAP) -> ExactChannelResult:
    """Exact encoded-protocol fidelity for an unpolarized bus (one point)."""
    engine = EncodedProtocolEngine(
        p.n_chain, p.chain_couplings, p.g, p.chain_fields, p.readout, p.model, cap
    )
    return engine.fidelity(p.t_a, p.t_b)


# ---------------------------------------------------------------------------
# plain transfer channels (oracles for the closed-form fidelities)


def transfer_channel_traces(
    K: np.ndarray,
    t: float,
    kind: str,
    chain_bits: np.ndarray | None = None,
    cap: int = _DEFAULT_CAP,
) -> dict[str, complex]:
    """Exact traces for the simple one-register-in channels.

    ``K`` is the (N+2)x(N+2) single-particle matrix of the full system;
    the corresponding many-body chain is evolved exactly.  Kinds:

    - ``double_swap``: evolve for t, read back at site 0
    - ``single_swap``: evolve for t, read out at site N+1
    - ``remote_z``: evolve t, flip sz on site N+1, evolve t, read at 0

    ``chain_bits`` optionally pins the chain sites to a product bit
    configuration instead of the maximally mixed state (used to probe the
    parity dependence of the one-way swap).
    """
    if kind not in ("double_swap", "single_swap", "remote_z"):
        raise ValueError(f"unknown channel kind {kind!r}")
    K = np.asarray(K)
    n = K.shape[0]
    H = build_many_body_from_k(K, cap=cap)
    U = exact_unitary(H, t)
    out_site = n - 1 if kind == "single_swap" else 0
    if kind == "remote_z":
        # the z flip is diagonal, so U Z U stays block-diagonal: U_w S_w U_w
        U = [
            (u * (1.0 - 2.0 * ((idx >> (n - 1)) & 1))) @ u
            for u, idx in zip(U, H.basis.sectors)
        ]
    fixed = {}
    if chain_bits is not None:
        fixed = {1 + i: int(b) for i, b in enumerate(chain_bits)}
    env = mixed_environment(n, 0, fixed=fixed)
    identity = np.arange(1 << n)
    return channel_traces(SectorChannel(H.basis, U, identity, identity), 0, out_site, env)
