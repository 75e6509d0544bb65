"""Independent brute-force oracles for the test suite.

Everything here is built from explicit Kronecker-product operators and
plain dense linear algebra, deliberately sharing no machinery with the
package's sector-blocked engine.  Conventions match the package: site q
is bit q of the basis index, bit 1 is a flipped spin (an excitation),
and sigma_z = +1 on bit 0.

``signed_eigh`` is eigh with each mode's sign fixed by ``fix_signs``;
a test applies the same ``fix_signs`` to ``dynamics.eigenmodes``, whose
signs are the solver's, before comparing vectors.
``protocol_leg_ks`` lays out the encoded protocol's two legs from one
chain matrix, and ``sector_leg_product`` is its leg product with both
legs eigensolved and evolved as full complex blocks, the reference for
the engine's one-eigensolve, factored, live-column blocks.
``ByteTableau`` is the stabilizer tableau with one byte per bit, the
reference for the package's bit-packed ``mirror.Tableau`` beyond the
dense oracle's 12 qubits.  ``matched_choice``, ``error_budget`` and
``optimal_coupling`` score one transfer mode at a time with scalar
closed forms, the reference for the vectorized ``dynamics.ModeBudget``.
``disorder_sweep`` streams the realizations of ``disorder-sweep`` one
chain at a time (a dense coupling matrix, ``eigenmodes``, ``mode_budget``
and ``select`` each), the reference for the chunked array sweep.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from spinbus.chains import DisorderSpec, couplings_from_positions, sample_positions
from spinbus.dynamics import (
    NoTransferModeError,
    ResonantModeChoice,
    eigenmodes,
    mode_budget,
    participation_ratio,
)

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


def fix_signs(v: np.ndarray) -> np.ndarray:
    """A copy of ``v`` with each column's largest-magnitude component given
    a non-negative real part, one column at a time.

    Eigenvectors are defined up to sign, so two solvers (or two LAPACK
    builds) may return a column and its negative; comparing vectors needs
    one convention on both sides.
    """
    v = v.copy()
    for k in range(v.shape[1]):
        j = int(np.argmax(np.abs(v[:, k])))
        if v[j, k].real < 0:
            v[:, k] = -v[:, k]
    return v


def signed_eigh(H: np.ndarray):
    """eigh with the signs fixed by :func:`fix_signs`: the reference
    eigenpairs for ``dynamics.eigenmodes`` after ``fix_signs``."""
    w, v = np.linalg.eigh(H)
    return w, fix_signs(v)


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


def protocol_leg_ks(K: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Single-particle matrices of the encoded protocol's two legs.

    ``K`` is the (N+2)x(N+2) matrix of leg a.  The protocol's N + 4 sites
    are numbered {0a, 1..N, (N+1)a, 0b, (N+1)b}: leg a is K on the first
    N + 2 of them, and leg b is K with the registers 0a and (N+1)a
    replaced by 0b and (N+1)b.  The sites a leg leaves out are idle.
    """
    K = np.asarray(K, float)
    N = K.shape[0] - 2
    legs = []
    for sites in (np.arange(N + 2), np.r_[N + 2, 1 : N + 1, N + 3]):
        leg = np.zeros((N + 4, N + 4))
        leg[np.ix_(sites, sites)] = K
        legs.append(leg)
    return legs[0], legs[1]


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


def matched_choice(modes, z: int, g_left: float) -> ResonantModeChoice:
    """Transfer through mode z with gL = ``g_left`` and gR matched to it.

    t_z = gL |psi_{z,L}| = gR |psi_{z,R}| and tau = pi / (sqrt(2) t_z).
    A mode with an end amplitude of at most 1e-12, or within 1e-10 of
    another mode, is no transfer candidate and raises ``ValueError``.
    """
    aL = abs(modes.psi_left[z])
    aR = abs(modes.psi_right[z])
    if not (aL > 1e-12 and aR > 1e-12):
        raise ValueError(f"mode {z} has vanishing end amplitude")
    gaps = np.abs(np.delete(modes.energies, z) - modes.energies[z])
    if gaps.size and gaps.min() < 1e-10:
        raise ValueError(f"mode {z} is degenerate (gap {gaps.min():.2e})")
    t_z = g_left * aL
    tau = math.pi / (math.sqrt(2.0) * t_z)
    return ResonantModeChoice(
        z, float(modes.energies[z]), g_left, float(t_z / aR), float(t_z), tau
    )


@dataclass(frozen=True)
class ErrorBudget:
    """Off-resonant leakage plus register depolarization during transfer."""

    off_resonant: float
    decoherence: float
    per_mode: np.ndarray

    @property
    def total(self) -> float:
        return self.off_resonant + self.decoherence


def error_budget(modes, choice: ResonantModeChoice, n_chain: int, T1: float) -> ErrorBudget:
    """eps = sum_{k != z} (gL^2 |psi_kL|^2 + gR^2 |psi_kR|^2) / Delta_k^2 + N tau / T1."""
    if T1 <= 0:
        raise ValueError("T1 must be positive (may be infinite)")
    z = choice.mode_index
    delta = modes.energies - modes.energies[z]
    aL2 = np.abs(modes.psi_left) ** 2
    aR2 = np.abs(modes.psi_right) ** 2
    mask = np.arange(len(delta)) != z
    if np.any(np.abs(delta[mask]) < 1e-12):
        raise ValueError("degenerate spectrum: some Delta_k vanishes")
    per_mode = np.zeros(len(delta))
    per_mode[mask] = (
        choice.g_left**2 * aL2[mask] + choice.g_right**2 * aR2[mask]
    ) / delta[mask] ** 2
    off = float(per_mode.sum())
    deco = 0.0 if math.isinf(T1) else n_chain * choice.transfer_time / T1
    return ErrorBudget(off, float(deco), per_mode)


def optimal_coupling(modes, z: int, n_chain: int, T1: float) -> tuple[float, float]:
    """Closed-form coupling that minimizes the transfer error budget.

    With matched couplings the budget is C gL^2 + D / gL, minimized at
    gL* = (D / 2C)^(1/3); gR follows from the matching condition.
    """
    if not math.isfinite(T1) or T1 <= 0:
        raise ValueError("optimal coupling needs a finite positive T1")
    aL = np.abs(modes.psi_left)
    aR = np.abs(modes.psi_right)
    if aL[z] < 1e-12 or aR[z] < 1e-12:
        raise ValueError("mode has vanishing end amplitude")
    delta = modes.energies - modes.energies[z]
    mask = np.arange(len(delta)) != z
    if np.any(np.abs(delta[mask]) < 1e-12):
        raise ValueError("degenerate spectrum: some Delta_k vanishes")
    ratio2 = (aL[z] / aR[z]) ** 2
    C = float(np.sum((aL[mask] ** 2 + ratio2 * aR[mask] ** 2) / delta[mask] ** 2))
    D = n_chain * math.pi / (math.sqrt(2.0) * T1 * aL[z])
    gL = (D / (2.0 * C)) ** (1.0 / 3.0)
    gR = gL * aL[z] / aR[z]
    return float(gL), float(gR)


def disorder_sweep(params: dict, seed: int):
    """The grid rows, histogram rows and realization counts of ``disorder-sweep``.

    One realization at a time: its dense nearest-neighbour coupling
    matrix, eigenmodes, mode budget and selected mode at each T1.  The
    rows are those of ``cli.run_disorder_sweep``'s two tables.
    """
    N, d = params["n_chain"], params["d_nm"]
    t1_kappa = [t1_ms * params["kappa_khz"] for t1_ms in params["t1_ms"]]
    grid, hist, counts = [], [], []
    for sigma_nm in params["sigma_d_nm"]:
        spec = DisorderSpec(sigma_nm / d, master_seed=seed)
        fids = [[] for _ in t1_kappa]
        no_mode = [0] * len(t1_kappa)
        clipped = [0] * len(t1_kappa)
        bond_samples, prs = [], []
        for stream in range(params["realizations"]):
            J = couplings_from_positions(sample_positions(spec, N, stream))
            modes = eigenmodes(J)
            if stream < 50:
                bond_samples.append(np.diag(J, 1).copy())
                prs.append(participation_ratio(modes.vectors))
            budget = mode_budget(modes)
            for i, T1 in enumerate(t1_kappa):
                try:
                    eps = budget.select(params["g_max"], T1)[1]
                except NoTransferModeError:
                    no_mode[i] += 1
                    eps = 1.0
                else:
                    clipped[i] += int(eps >= 1.0)
                fids[i].append(max(0.0, 1.0 - min(eps, 1.0)))
        sigma_kappa = float(np.std(np.concatenate(bond_samples)))
        for i, (t1_ms, T1) in enumerate(zip(params["t1_ms"], t1_kappa)):
            mean = math.fsum(fids[i]) / len(fids[i])
            grid.append((sigma_nm, sigma_kappa, t1_ms, T1, mean, len(fids[i])))
            counts.append({
                "sigma_d_nm": sigma_nm,
                "t1_ms": t1_ms,
                "realizations": len(fids[i]),
                "no_transfer_mode": no_mode[i],
                "clipped": clipped[i],
            })
        bins = np.linspace(1.0, N, params["pr_bins"] + 1)
        pr_counts, edges = np.histogram(np.concatenate(prs), bins=bins)
        for lo, hi, c in zip(edges[:-1], edges[1:], pr_counts):
            hist.append((sigma_nm, sigma_kappa, float(lo), float(hi), int(c)))
    return grid, hist, counts
