"""Independent brute-force oracles for the test suite.

Everything here is built from explicit Kronecker-product operators and
plain dense linear algebra, deliberately sharing no machinery with the
package's sector-blocked engine.  Conventions match the package: site q
is bit q of the basis index, bit 1 is a flipped spin (an excitation),
and sigma_z = +1 on bit 0.

``signed_eigh`` applies the eigenmode sign convention column by column.
``sector_leg_product`` is the encoded protocol's leg product with both
legs eigensolved and evolved as full complex blocks, the reference for
the engine's one-eigensolve, factored, live-column blocks.
``ByteTableau`` is the stabilizer tableau with one byte per bit, the
reference for the package's bit-packed ``mirror.Tableau`` beyond the
dense oracle's 12 qubits.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.diag([1.0, -1.0]).astype(complex)
SP = np.array([[0, 1], [0, 0]], dtype=complex)  # sigma+: annihilates an excitation
SM = SP.T.conj()
NUM = np.diag([0.0, 1.0]).astype(complex)

PAULIS = {"x": SX, "y": SY, "z": SZ, "+": SP, "-": SM}


def op_on(op: np.ndarray, q: int, n: int) -> np.ndarray:
    """Embed a single-site operator at bit q of an n-site register."""
    return np.kron(np.kron(np.eye(1 << (n - 1 - q)), op), np.eye(1 << q))


def flip_flop_h(J: np.ndarray, n: int, fields=None) -> np.ndarray:
    """Dense H = sum_{i<j} J_ij (s+_i s-_j + h.c.) + sum_i fields_i n_i."""
    J = np.asarray(J)
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            if J[i, j] != 0.0:
                H += J[i, j] * (op_on(SP, i, n) @ op_on(SM, j, n))
                H += J[i, j] * (op_on(SM, i, n) @ op_on(SP, j, n))
    if fields is not None:
        for i, f in enumerate(np.asarray(fields)):
            if f != 0.0:
                H += f * op_on(NUM, i, n)
    return H


def h_from_k(K: np.ndarray) -> np.ndarray:
    """Many-body Hamiltonian whose single-excitation block is K."""
    K = np.asarray(K)
    n = K.shape[0]
    return flip_flop_h(K, n, fields=np.diag(K))


def tfim_h(bonds: np.ndarray, B: float, n: int) -> np.ndarray:
    """Dense H = -sum_i J_i sx_i sx_{i+1} + B sum_i sz_i."""
    H = np.zeros((1 << n, 1 << n), dtype=complex)
    for i, J in enumerate(bonds):
        H -= J * (op_on(SX, i, n) @ op_on(SX, i + 1, n))
    for i in range(n):
        H += B * op_on(SZ, i, n)
    return H


def signed_eigh(H: np.ndarray):
    """eigh with each mode's largest-magnitude component made positive.

    The sign convention applied one column at a time, the reference for
    ``dynamics.eigenmodes``.
    """
    w, v = np.linalg.eigh(H)
    for k in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, k])))
        if v[j, k].real < 0:
            v[:, k] = -v[:, k]
    return w, v


def unitary(H: np.ndarray, t: float) -> np.ndarray:
    w, v = np.linalg.eigh(H)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def sector_unitaries(eig, t: float) -> list[np.ndarray]:
    """Full complex blocks (v * exp(-iwt)) @ v^H from (w, v) per sector."""
    return [(v * np.exp(-1j * w * t)) @ v.conj().T for w, v in eig]


def sector_leg_product(eig_a, eig_b, t_a: float, t_b: float) -> list[np.ndarray]:
    """Per-sector B_w A_w from two independent leg eigendecompositions.

    ``eig_a`` and ``eig_b`` list ``np.linalg.eigh`` of each leg's sector
    blocks; every column of every block is formed.
    """
    Ua = sector_unitaries(eig_a, t_a)
    Ub = sector_unitaries(eig_b, t_b)
    return [B @ A for A, B in zip(Ua, Ub)]


def cnot(n: int, control: int, target: int) -> np.ndarray:
    dim = 1 << n
    U = np.zeros((dim, dim), dtype=complex)
    for j in range(dim):
        k = j ^ (1 << target) if (j >> control) & 1 else j
        U[k, j] = 1.0
    return U


def env_diag(
    n: int,
    in_site: int,
    fixed: dict[int, int] | None = None,
    correlated_pairs: list[tuple[int, int]] | None = None,
    site_weights: dict[int, tuple[float, float]] | None = None,
) -> np.ndarray:
    """Diagonal of the environment density operator (identity on in_site).

    Sites default to maximally mixed (1/2, 1/2); ``fixed`` pins a site to
    one bit value; ``correlated_pairs`` get the classical two-bit mixture
    (|00><00| + |11><11|)/2; ``site_weights`` overrides the (p0, p1)
    weights of individual sites.
    """
    fixed = fixed or {}
    correlated_pairs = correlated_pairs or []
    site_weights = site_weights or {}
    paired = {s for pair in correlated_pairs for s in pair}
    dim = 1 << n
    idx = np.arange(dim)
    w = np.ones(dim)
    for q in range(n):
        if q == in_site or q in paired:
            continue
        bit = (idx >> q) & 1
        if q in fixed:
            w *= (bit == fixed[q]).astype(float)
        else:
            p0, p1 = site_weights.get(q, (0.5, 0.5))
            w *= np.where(bit, p1, p0)
    for a, b in correlated_pairs:
        same = ((idx >> a) & 1) == ((idx >> b) & 1)
        w *= 0.5 * same.astype(float)
    return w


def channel_traces(
    U: np.ndarray, n: int, in_site: int, out_site: int, env: np.ndarray
) -> dict[str, complex]:
    """T_i = Tr[sigma^i_out U (sigma^i_in rho_env) U+] for i in x, y, z.

    Also returns the coherence trace 's' with sigma- in / sigma+ out.
    Everything is evaluated with dense matrix products.
    """
    rho = np.diag(env.astype(complex))
    out = {}
    for key, (oi, oo) in {
        "x": ("x", "x"),
        "y": ("y", "y"),
        "z": ("z", "z"),
        "s": ("-", "+"),
    }.items():
        A = op_on(PAULIS[oi], in_site, n) @ rho
        out[key] = complex(np.trace(op_on(PAULIS[oo], out_site, n) @ U @ A @ U.conj().T))
    return out


def avg_fidelity(traces: dict[str, complex], signs=(1, 1, 1)) -> float:
    """F = 1/2 + (s_x T_x + s_y T_y + s_z T_z)/12 for a target Pauli gate."""
    return 0.5 + sum(s * t.real for s, t in zip(signs, (traces["x"], traces["y"], traces["z"]))) / 12.0


def phase_corrected_fidelity(traces: dict[str, complex]) -> float:
    """F with an optimal post-transfer phase rotation absorbing arg(T_s)."""
    return 0.5 + (traces["z"].real + 4.0 * abs(traces["s"])) / 12.0


class ByteTableau:
    """Stabilizer tableau with one ``uint8`` per bit: row i < n holds the
    image of X_i, row n + i the image of Z_i, as i^phase X^x Z^z.

    Layers are applied by column gathers and scatters; a CZ layer is split
    into column-disjoint batches so fancy-indexed XOR assignment is safe,
    and a site listed k times in a Hadamard layer receives H^k.
    """

    def __init__(self, n: int):
        self.n = n
        self.xs = np.zeros((2 * n, n), dtype=np.uint8)
        self.zs = np.zeros((2 * n, n), dtype=np.uint8)
        self.phase = np.zeros(2 * n, dtype=np.uint8)
        self.xs[np.arange(n), np.arange(n)] = 1
        self.zs[np.arange(n, 2 * n), np.arange(n)] = 1

    def apply_hadamard(self, sites) -> None:
        cols = [q for q, k in Counter(sites).items() if k % 2]
        x = self.xs[:, cols]
        z = self.zs[:, cols]
        self.phase += 2 * np.sum(x & z, axis=1, dtype=np.uint8)
        self.phase %= 4
        self.xs[:, cols] = z
        self.zs[:, cols] = x

    def apply_cz(self, edges) -> None:
        ea = [a for a, _ in edges]
        eb = [b for _, b in edges]
        x = self.xs
        self.phase += 2 * np.sum(x[:, ea] & x[:, eb], axis=1, dtype=np.uint8)
        self.phase %= 4
        for batch in _disjoint_edge_batches(edges):
            ba = [a for a, _ in batch]
            bb = [b for _, b in batch]
            self.zs[:, ba] ^= x[:, bb]
            self.zs[:, bb] ^= x[:, ba]

    def apply_local(self, gate: str, site: int) -> None:
        x = self.xs[:, site]
        z = self.zs[:, site]
        if gate == "H":
            self.phase += 2 * (x & z)
            self.xs[:, site], self.zs[:, site] = z.copy(), x.copy()
        elif gate == "S":
            self.phase += x
            self.zs[:, site] = z ^ x
        elif gate == "X":
            self.phase += 2 * z
        elif gate == "Z":
            self.phase += 2 * x
        elif gate == "Y":
            self.phase += 2 * (x ^ z)
        else:
            raise ValueError(f"unknown local gate {gate!r}")
        self.phase %= 4

    def image(self, kind: str, site: int) -> tuple[int, np.ndarray, np.ndarray]:
        """(phase, x bits, z bits) of the image of X_site or Z_site."""
        row = site if kind == "x" else self.n + site
        return int(self.phase[row]), self.xs[row].copy(), self.zs[row].copy()


def _disjoint_edge_batches(edges) -> list[list[tuple[int, int]]]:
    """Greedily partition edges so no column repeats inside a batch."""
    batches: list[list[tuple[int, int]]] = []
    used: list[set[int]] = []
    for a, b in edges:
        for seen, batch in zip(used, batches):
            if a not in seen and b not in seen:
                batch.append((a, b))
                seen.update((a, b))
                break
        else:
            batches.append([(a, b)])
            used.append({a, b})
    return batches
