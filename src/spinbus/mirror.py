"""Stabilizer-level simulation of the globally pulsed mirror architecture.

A chain of qubits driven by alternating global controlled-phase and
Hadamard layers performs a mirror permutation of its state after a fixed
number of cycles.  Everything in this layer is Clifford (H, CZ, Pauli,
S), so a stabilizer tableau simulates it exactly; a dense state-vector
oracle is kept only for independent verification on small systems.

Conventions: a Pauli operator is stored as ``i^phase * prod_q X_q^{x_q}
Z_q^{z_q}`` with ``phase`` mod 4.  A pulse "cycle" applies the CZ layer
first and the Hadamard layer second.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .ed import ResourceLimitError

__all__ = [
    "AsymmetryUnavailableError",
    "RoutingError",
    "GlobalHadamard",
    "GlobalCZ",
    "Local",
    "Repeat",
    "PulseProgram",
    "Tableau",
    "PauliImage",
    "LatticeMap",
    "RouteMove",
    "RoutePlan",
    "DenseCheckReport",
    "clifford_apply",
    "chain_edges",
    "mirror_cycles",
    "mirror_program",
    "verify_mirror",
    "propagated_swap",
    "verify_swap",
    "directed_swap_programs",
    "route",
    "pair_swap_program",
    "dense_unitary",
    "dense_unitary_check",
]

LOCAL_GATES = ("X", "Y", "Z", "H", "S")


class AsymmetryUnavailableError(ValueError):
    """The two chain lengths admit no common refocus/mirror cycle count."""


class RoutingError(ValueError):
    """No hole-free path exists between the requested sites."""


# ---------------------------------------------------------------------------
# Pulse programs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GlobalHadamard:
    """Hadamard on every site in ``sites`` (one layer); a site listed k
    times receives H^k."""

    sites: tuple[int, ...]


@dataclass(frozen=True)
class GlobalCZ:
    """Controlled-phase on every edge in ``edges`` (one layer; CZs commute)."""

    edges: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Local:
    """A single-qubit gate on one individually addressed site."""

    site: int
    gate: str

    def __post_init__(self):
        if self.gate not in LOCAL_GATES:
            raise ValueError(f"unknown local gate {self.gate!r}; use one of {LOCAL_GATES}")


@dataclass(frozen=True)
class Repeat:
    """A sub-program applied ``count`` times."""

    block: "PulseProgram"
    count: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError("repeat count must be non-negative")


Layer = Union[GlobalHadamard, GlobalCZ, Local, Repeat]


@dataclass(frozen=True)
class PulseProgram:
    """An ordered sequence of pulse layers, applied left to right."""

    layers: tuple[Layer, ...] = ()

    def __add__(self, other: "PulseProgram") -> "PulseProgram":
        return PulseProgram(self.layers + other.layers)

    def repeat(self, count: int) -> "PulseProgram":
        if count < 0:
            raise ValueError("repeat count must be non-negative")
        return PulseProgram((Repeat(self, count),)) if self.layers else self

    def flattened(self) -> Iterator[Layer]:
        """Yield primitive (non-Repeat) layers in execution order."""
        for layer in self.layers:
            if isinstance(layer, Repeat):
                for _ in range(layer.count):
                    yield from layer.block.flattened()
            else:
                yield layer

    @property
    def n_layers(self) -> int:
        return sum(1 for _ in self.flattened())

    def max_site(self) -> int:
        m = -1
        for layer in self.flattened():
            if isinstance(layer, GlobalHadamard):
                m = max(m, max(layer.sites, default=-1))
            elif isinstance(layer, GlobalCZ):
                m = max(m, max((max(e) for e in layer.edges), default=-1))
            else:
                m = max(m, layer.site)
        return m


def chain_edges(sites: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbor edges along an ordered run of sites."""
    s = list(sites)
    return tuple((s[i], s[i + 1]) for i in range(len(s) - 1))


def mirror_cycles(sites: Iterable[int], edges: Iterable[tuple[int, int]], count: int) -> PulseProgram:
    """``count`` cycles of (CZ layer on edges, then Hadamard layer on sites)."""
    sites = tuple(sites)
    edges = tuple(tuple(e) for e in edges)
    cycle = PulseProgram((GlobalCZ(edges), GlobalHadamard(sites)))
    return cycle.repeat(count)


def mirror_program(n: int) -> PulseProgram:
    """Global pulse sequence that mirrors an ``n``-site chain.

    Returns n+1 cycles of the controlled-phase + Hadamard layer pair on
    sites 0..n-1; conjugation through the result carries every
    single-site Pauli at ``i`` to a single-site Pauli at ``n-1-i``.
    """
    if n < 1:
        raise ValueError("chain length must be at least 1")
    sites = tuple(range(n))
    return mirror_cycles(sites, chain_edges(sites), n + 1)


# ---------------------------------------------------------------------------
# Stabilizer tableau
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PauliImage:
    """A Pauli operator in the form i^phase * prod X^x Z^z."""

    phase: int  # mod 4
    x: np.ndarray  # uint8 bits
    z: np.ndarray

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.x | self.z)

    def single_site(self) -> int | None:
        """The unique supported site, or None if not single-site."""
        s = self.support
        return int(s[0]) if len(s) == 1 else None

    def __str__(self) -> str:
        sign = {0: "+", 1: "+i", 2: "-", 3: "-i"}[self.phase % 4]
        names = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}
        terms = [
            f"{names[(int(self.x[q]), int(self.z[q]))]}{q}"
            for q in self.support
        ]
        return sign + ("*".join(terms) if terms else "I")


class Tableau:
    """Conjugation action of a Clifford unitary on the Pauli generators.

    Generator ``g < n`` is the image U X_g U†; generator ``n + g`` is
    U Z_g U†.  Bits are packed along the generator axis, as in the CHP
    and Stim layouts: ``x[q]`` and ``z[q]`` are word-vectors holding
    qubit q's X and Z bit of all 2n images, 64 generators per ``uint64``
    word, and the phase mod 4 is two packed bit-planes, ``r[0]`` (low)
    and ``r[1]`` (high).  A layer on m sites is a few operations on m
    word-vectors, so a global layer costs O(n^2 / 64) word operations.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        words = -(-2 * n // 64)
        self.x = np.zeros((n, words), dtype=np.uint64)
        self.z = np.zeros((n, words), dtype=np.uint64)
        self.r = np.zeros((2, words), dtype=np.uint64)
        q = np.arange(n)
        for plane, g in ((self.x, q), (self.z, q + n)):
            plane[q, g // 64] = np.left_shift(np.uint64(1), (g % 64).astype(np.uint64))

    def copy(self) -> "Tableau":
        t = Tableau.__new__(Tableau)
        t.n = self.n
        t.x, t.z, t.r = self.x.copy(), self.z.copy(), self.r.copy()
        return t

    def _sites(self, sites: Iterable[int]) -> np.ndarray:
        """Sites as an index array, range-checked in one pass."""
        s = np.fromiter(sites, dtype=np.intp)
        if s.size and (s.min() < 0 or s.max() >= self.n):
            q = s[(s < 0) | (s >= self.n)][0]
            raise ValueError(f"site {q} out of range for {self.n} qubits")
        return s

    # -- layer applications (conjugation rules in the i^ph X^x Z^z form) --

    def apply_hadamard(self, sites: tuple[int, ...]) -> None:
        s = self._sites(sites)
        # a site listed k times receives H^k
        s = np.flatnonzero(np.bincount(s, minlength=self.n) & 1)
        x, z = self.x[s], self.z[s]
        self.r[1] ^= np.bitwise_xor.reduce(x & z, axis=0)
        self.x[s], self.z[s] = z, x

    def apply_cz(self, edges: tuple[tuple[int, int], ...]) -> None:
        if not edges:
            return
        e = self._sites(itertools.chain.from_iterable(edges)).reshape(-1, 2)
        ea, eb = e[:, 0], e[:, 1]
        if np.any(ea == eb):
            raise ValueError("CZ needs two distinct sites")
        # x is never written by a CZ layer, so the whole commuting layer
        # reads the pre-layer x; ufunc.at accumulates repeated columns
        xa, xb = self.x[ea], self.x[eb]
        self.r[1] ^= np.bitwise_xor.reduce(xa & xb, axis=0)
        np.bitwise_xor.at(self.z, ea, xb)
        np.bitwise_xor.at(self.z, eb, xa)

    def apply_local(self, gate: str, site: int) -> None:
        if not 0 <= site < self.n:
            raise ValueError(f"site {site} out of range for {self.n} qubits")
        x, z, r = self.x[site], self.z[site], self.r
        if gate == "H":
            r[1] ^= x & z
            self.x[site], self.z[site] = z.copy(), x.copy()
        elif gate == "S":
            r[1] ^= r[0] & x
            r[0] ^= x
            z ^= x
        elif gate == "X":
            r[1] ^= z
        elif gate == "Z":
            r[1] ^= x
        elif gate == "Y":
            r[1] ^= x ^ z
        else:
            raise ValueError(f"unknown local gate {gate!r}")

    # -- inspection --

    def image(self, kind: str, site: int) -> PauliImage:
        """Image of X_site (kind 'x') or Z_site (kind 'z') under conjugation."""
        if kind not in ("x", "z"):
            raise ValueError("kind must be 'x' or 'z'")
        if not 0 <= site < self.n:
            raise ValueError("site out of range")
        word, bit = divmod(site if kind == "x" else self.n + site, 64)
        x, z, r = (
            ((plane[:, word] >> np.uint64(bit)) & 1).astype(np.uint8)
            for plane in (self.x, self.z, self.r)
        )
        return PauliImage(int(r[0]) + 2 * int(r[1]), x, z)


def clifford_apply(state: Tableau, program: PulseProgram) -> Tableau:
    """Conjugate the tableau through a pulse program (returns a new tableau)."""
    t = state.copy()
    for layer in program.flattened():
        if isinstance(layer, GlobalHadamard):
            t.apply_hadamard(layer.sites)
        elif isinstance(layer, GlobalCZ):
            t.apply_cz(layer.edges)
        elif isinstance(layer, Local):
            t.apply_local(layer.gate, layer.site)
        else:  # pragma: no cover - flattened() removes Repeat
            raise TypeError(f"unexpected layer {layer!r}")
    return t


# ---------------------------------------------------------------------------
# Verified composite constructions
# ---------------------------------------------------------------------------


def _images_permutation(tab: Tableau, sites: Iterable[int]) -> dict[int, int] | None:
    """Map site -> image site if every X_i/Z_i lands on one common site."""
    out: dict[int, int] = {}
    for i in sites:
        jx = tab.image("x", i).single_site()
        jz = tab.image("z", i).single_site()
        if jx is None or jx != jz:
            return None
        out[i] = jx
    return out


def verify_mirror(program: PulseProgram, n: int) -> dict[int, tuple[str, str]]:
    """Check that a program mirrors sites 0..n-1 up to local Cliffords.

    Returns ``{site: (image of X_site, image of Z_site)}`` as strings (the
    extracted single-qubit corrections); raises if any image is not a
    single-site Pauli at the mirrored position.
    """
    tab = clifford_apply(Tableau(n), program)
    corrections: dict[int, tuple[str, str]] = {}
    for i in range(n):
        ix = tab.image("x", i)
        iz = tab.image("z", i)
        target = n - 1 - i
        if ix.single_site() != target or iz.single_site() != target:
            raise AssertionError(
                f"site {i}: images {ix} / {iz} are not single-site Paulis at {target}"
            )
        corrections[i] = (str(ix), str(iz))
    return corrections


def propagated_swap(n: int, chain_length: int) -> PulseProgram:
    """Swap qubits ``n`` and ``n+1`` (1-based) of a chain using global cycles.

    The construction cuts the chain's controlled-phase layer at the two
    bonds surrounding the target pair, runs three full cycles (which
    mirror the isolated pair, i.e. swap it), and then refocuses each side
    segment with extra cycles restricted to that segment: a segment of
    length l returns to the identity after any multiple of 2(l+1)
    cycles, so (-3) mod 2(l+1) extra cycles undo the three it received.
    Local single-qubit residues may remain on the chain ends.
    """
    L = chain_length
    if L < 2:
        raise ValueError("chain length must be at least 2")
    if not 1 <= n < L:
        raise ValueError(f"pair index must satisfy 1 <= n < {L}")
    a, b = n - 1, n  # 0-based pair
    all_sites = tuple(range(L))
    cut = {(a - 1, a), (b, b + 1)}
    kept = tuple(e for e in chain_edges(all_sites) if e not in cut)
    prog = mirror_cycles(all_sites, kept, 3)
    for seg in (tuple(range(0, a)), tuple(range(b + 1, L))):
        l = len(seg)
        if l == 0:
            continue
        extra = (-3) % (2 * (l + 1))
        prog = prog + mirror_cycles(seg, chain_edges(seg), extra)
    return prog


def verify_swap(program: PulseProgram, chain_length: int, pair: tuple[int, int]) -> dict[int, int]:
    """Check a program permutes Paulis by the transposition ``pair`` (0-based).

    Every X_i and Z_i must conjugate to a single-site Pauli, with the two
    pair sites exchanged and all others fixed; returns the permutation.
    """
    tab = clifford_apply(Tableau(chain_length), program)
    perm = _images_permutation(tab, range(chain_length))
    if perm is None:
        raise AssertionError("program does not act as a permutation on single-site Paulis")
    a, b = pair
    want = {i: i for i in range(chain_length)}
    want[a], want[b] = b, a
    if perm != want:
        raise AssertionError(f"program permutes sites as {perm}, expected swap of {pair}")
    return perm


def _refocus_and_mirror_cycles(l_mirror: int, l_refocus: int) -> int:
    """Smallest cycle count mirroring one chain while refocusing the other.

    A chain of length l mirrors after any odd multiple of l+1 cycles and
    refocuses (identity up to local Cliffords) after any multiple of
    2(l+1).  A common count exists iff the 2-adic valuation of
    l_mirror+1 exceeds that of l_refocus+1.
    """
    p, q = l_mirror + 1, 2 * (l_refocus + 1)
    m = q // math.gcd(p, q)
    if m % 2 == 0:
        raise AsymmetryUnavailableError(
            f"chain lengths {l_mirror} and {l_refocus} admit no cycle count that "
            "mirrors one side while refocusing the other (asymmetry unavailable)"
        )
    return m * p


# ---------------------------------------------------------------------------
# 2D lattice, directed swaps, routing
# ---------------------------------------------------------------------------

REGISTER, IMPURITY, HOLE = "R", ".", "#"


@dataclass(frozen=True)
class LatticeMap:
    """A 2D computational lattice of registers and impurities with holes.

    Parsed from text with one character per site: ``R`` register
    (individually addressable), ``.`` impurity, ``#`` hole (no qubit, no
    edges).  Horizontal (in-row) and vertical (inter-row) adjacencies are
    distinguished because they compile to different swap primitives.
    """

    kinds: tuple[str, ...]  # row-major, one char per cell
    n_rows: int
    n_cols: int

    @classmethod
    def from_text(cls, text: str) -> "LatticeMap":
        rows = [line for line in text.splitlines() if line.strip()]
        if not rows:
            raise ValueError("empty lattice text")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged lattice text: all rows must have equal length")
        chars = "".join(rows)
        bad = set(chars) - {REGISTER, IMPURITY, HOLE}
        if bad:
            raise ValueError(f"unknown lattice characters {sorted(bad)}; use R . #")
        return cls(tuple(chars), len(rows), width)

    # -- site bookkeeping: sites are (row, col) pairs --

    def kind(self, site: tuple[int, int]) -> str:
        r, c = site
        if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
            raise ValueError(f"site {site} outside {self.n_rows}x{self.n_cols} lattice")
        return self.kinds[r * self.n_cols + c]

    def is_hole(self, site: tuple[int, int]) -> bool:
        return self.kind(site) == HOLE

    def qubit_sites(self) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(self.n_rows)
            for c in range(self.n_cols)
            if self.kinds[r * self.n_cols + c] != HOLE
        ]

    def registers(self) -> list[tuple[int, int]]:
        return [s for s in self.qubit_sites() if self.kind(s) == REGISTER]

    def site_index(self) -> dict[tuple[int, int], int]:
        """Dense qubit numbering of the non-hole sites (row-major)."""
        return {s: i for i, s in enumerate(self.qubit_sites())}

    def neighbors(self, site: tuple[int, int]) -> list[tuple[tuple[int, int], str]]:
        """Non-hole neighbors with the move kind, in-row entries first."""
        r, c = site
        out = []
        for dr, dc, kind in ((0, -1, "row"), (0, 1, "row"), (-1, 0, "column"), (1, 0, "column")):
            s2 = (r + dr, c + dc)
            if 0 <= s2[0] < self.n_rows and 0 <= s2[1] < self.n_cols and not self.is_hole(s2):
                out.append((s2, kind))
        return out

    def row_segment(self, site: tuple[int, int]) -> list[tuple[int, int]]:
        """Maximal contiguous non-hole run of the row containing ``site``."""
        r, c = site
        if self.is_hole(site):
            raise ValueError(f"site {site} is a hole")
        lo = c
        while lo > 0 and not self.is_hole((r, lo - 1)):
            lo -= 1
        hi = c
        while hi + 1 < self.n_cols and not self.is_hole((r, hi + 1)):
            hi += 1
        return [(r, cc) for cc in range(lo, hi + 1)]


def directed_swap_programs(lattice: LatticeMap, register: tuple[int, int]) -> dict[str, PulseProgram]:
    """Build the two directed-swap primitives around a register site.

    ``Q_M`` mirrors the three-site run centered on the register (four
    cycles of its CZ + Hadamard layer), exchanging the register's two
    impurity neighbors.  ``Q_L`` applies global cycles to the two
    impurity chains flanking the register (the register itself acts as a
    passive boundary): the cycle count is chosen so the shorter chain is
    mirrored while the longer chain refocuses to the identity.  Both
    programs are verified by Pauli conjugation before being returned;
    site numbering follows ``lattice.site_index()``.
    """
    if lattice.kind(register) != REGISTER:
        raise ValueError(f"site {register} is not a register")
    r, c = register
    idx = lattice.site_index()

    def impurity_run(step: int) -> list[tuple[int, int]]:
        run = []
        cc = c + step
        while 0 <= cc < lattice.n_cols and lattice.kind((r, cc)) == IMPURITY:
            run.append((r, cc))
            cc += step
        return run

    left = impurity_run(-1)
    right = impurity_run(+1)
    if not left or not right:
        raise ValueError("register needs impurity chains on both sides")

    # Q_M: three-site mirror {left neighbor, register, right neighbor}
    trio = [idx[left[0]], idx[register], idx[right[0]]]
    q_m = mirror_cycles(trio, chain_edges(trio), 4)
    tab = clifford_apply(Tableau(len(idx)), q_m)
    if _images_permutation(tab, trio) != {trio[0]: trio[2], trio[1]: trio[1], trio[2]: trio[0]}:
        raise AssertionError("Q_M failed its mirror verification")

    # Q_L: mirror the shorter flanking chain, refocus the longer one
    if len(left) == len(right):
        raise AsymmetryUnavailableError(
            "equal-length flanking chains: no cycle count mirrors one side "
            "while refocusing the other (asymmetry unavailable)"
        )
    short, long_ = (left, right) if len(left) < len(right) else (right, left)
    k = _refocus_and_mirror_cycles(len(short), len(long_))
    sites = tuple(idx[s] for s in short) + tuple(idx[s] for s in long_)
    edges = chain_edges([idx[s] for s in short]) + chain_edges([idx[s] for s in long_])
    q_l = mirror_cycles(sites, edges, k)
    tab = clifford_apply(Tableau(len(idx)), q_l)
    want = {idx[s]: idx[short[len(short) - 1 - i]] for i, s in enumerate(short)}
    want.update({idx[s]: idx[s] for s in long_})
    if _images_permutation(tab, [idx[s] for s in short + long_]) != want:
        raise AssertionError("Q_L failed its mirror/refocus verification")

    return {"Q_M": q_m, "Q_L": q_l}


def pair_swap_program(a: int, b: int) -> PulseProgram:
    """Exact SWAP of two qubits from H and CZ (three CNOT decomposition)."""
    if a == b:
        raise ValueError("need two distinct sites")
    cnot_ab = (Local(b, "H"), GlobalCZ(((a, b),)), Local(b, "H"))
    cnot_ba = (Local(a, "H"), GlobalCZ(((a, b),)), Local(a, "H"))
    return PulseProgram(cnot_ab + cnot_ba + cnot_ab)


@dataclass(frozen=True)
class RouteMove:
    """One primitive move: swap the walker between two adjacent sites."""

    kind: str  # "row" or "column"
    src: tuple[int, int]
    dst: tuple[int, int]


@dataclass(frozen=True)
class RoutePlan:
    """A verified sequence of primitive swaps transporting src to dst."""

    moves: tuple[RouteMove, ...]
    total_layers: int
    program: PulseProgram


def _shortest_path(lattice: LatticeMap, src, dst) -> list[tuple[int, int]]:
    """BFS shortest path over non-hole sites, preferring in-row moves on ties."""
    # Dijkstra on the lexicographic cost (steps, column steps): among all
    # shortest paths this picks one with the fewest inter-row moves.
    dist: dict[tuple[int, int], tuple[int, int]] = {src: (0, 0)}
    prev: dict[tuple[int, int], tuple[int, int]] = {}
    heap = [((0, 0), src)]
    while heap:
        d, site = heapq.heappop(heap)
        if site == dst:
            break
        if d > dist.get(site, (1 << 30, 0)):
            continue
        for s2, kind in lattice.neighbors(site):
            nd = (d[0] + 1, d[1] + (kind == "column"))
            if nd < dist.get(s2, (1 << 30, 0)):
                dist[s2] = nd
                prev[s2] = site
                heapq.heappush(heap, (nd, s2))
    if dst not in dist:
        raise RoutingError(f"no hole-free path from {src} to {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(prev[path[-1]])
    path.reverse()
    return path


def route(lattice: LatticeMap, src: tuple[int, int], dst: tuple[int, int]) -> RoutePlan:
    """Plan and verify a swap-walk from ``src`` to ``dst``.

    In-row moves compile to propagated swaps over the contiguous row
    segment (global row control only); inter-row moves compile to a
    direct two-site swap, assuming the column interaction is echoed to
    isolation.  The compiled program is verified end to end: a Pauli
    planted at ``src`` must conjugate to a single-site Pauli at ``dst``.
    """
    for s in (src, dst):
        if lattice.is_hole(s):
            raise ValueError(f"site {s} is a hole")
    idx = lattice.site_index()
    if src == dst:
        return RoutePlan((), 0, PulseProgram())
    path = _shortest_path(lattice, src, dst)
    moves = []
    program = PulseProgram()
    for s1, s2 in zip(path, path[1:]):
        kind = "row" if s1[0] == s2[0] else "column"
        moves.append(RouteMove(kind, s1, s2))
        if kind == "row":
            seg = lattice.row_segment(s1)
            pos = {s: i for i, s in enumerate(seg)}
            n_pair = min(pos[s1], pos[s2]) + 1  # 1-based pair index in segment
            local = propagated_swap(n_pair, len(seg))
            program = program + _remap_program(local, [idx[s] for s in seg])
        else:
            program = program + pair_swap_program(idx[s1], idx[s2])
    tab = clifford_apply(Tableau(len(idx)), program)
    for kind in ("x", "z"):
        img = tab.image(kind, idx[src])
        if img.single_site() != idx[dst]:
            raise AssertionError(f"route verification failed: {kind} image {img}")
    return RoutePlan(tuple(moves), program.n_layers, program)


def _remap_program(program: PulseProgram, site_map: list[int]) -> PulseProgram:
    """Relabel a program's local site numbers through ``site_map``."""

    def remap_layer(layer: Layer) -> Layer:
        if isinstance(layer, GlobalHadamard):
            return GlobalHadamard(tuple(site_map[s] for s in layer.sites))
        if isinstance(layer, GlobalCZ):
            return GlobalCZ(tuple((site_map[a], site_map[b]) for a, b in layer.edges))
        if isinstance(layer, Local):
            return Local(site_map[layer.site], layer.gate)
        return Repeat(_remap_program(layer.block, site_map), layer.count)

    return PulseProgram(tuple(remap_layer(l) for l in program.layers))


# ---------------------------------------------------------------------------
# Dense state-vector oracle
# ---------------------------------------------------------------------------

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_GATES_1Q = {
    "H": _H2,
    "S": np.diag([1.0, 1.0j]),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "Z": np.diag([1.0, -1.0]),
}


def _apply_1q(M: np.ndarray, gate: np.ndarray, q: int, n: int) -> None:
    """Left-multiply the 2^n x 2^n matrix M by a gate on qubit q, in place."""
    dim = 1 << n
    idx = np.arange(dim)
    i0 = idx[(idx >> q) & 1 == 0]
    i1 = i0 | (1 << q)
    r0, r1 = M[i0].copy(), M[i1].copy()
    M[i0] = gate[0, 0] * r0 + gate[0, 1] * r1
    M[i1] = gate[1, 0] * r0 + gate[1, 1] * r1


def dense_unitary(program: PulseProgram, n: int) -> np.ndarray:
    """Exact 2^n unitary of a pulse program (qubit q = bit q of the index), n <= 12."""
    if n > 12:  # 2^12 x 2^12 complex entries take 268 MB
        raise ResourceLimitError(f"dense unitary needs 2^{n} dimensions; cap is 2^12")
    if program.max_site() >= n:
        raise ValueError("program addresses sites outside the declared qubit count")
    dim = 1 << n
    M = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for layer in program.flattened():
        if isinstance(layer, GlobalHadamard):
            for q in layer.sites:
                _apply_1q(M, _H2, q, n)
        elif isinstance(layer, GlobalCZ):
            sign = np.ones(dim)
            for a, b in layer.edges:
                both = ((idx >> a) & 1) & ((idx >> b) & 1)
                sign *= 1.0 - 2.0 * both
            M *= sign[:, None]
        elif isinstance(layer, Local):
            _apply_1q(M, _GATES_1Q[layer.gate], layer.site, n)
    return M


def _dense_pauli_action(img: PauliImage, M: np.ndarray, side: str) -> np.ndarray:
    """Apply the Pauli i^ph X^x Z^z to M from the left or right, cheaply.

    P |j> = i^ph (-1)^(z.j) |j XOR x>, so left action permutes/rephases
    rows and right action columns; no dense matrix products are needed.
    """
    dim = M.shape[0]
    idx = np.arange(dim)
    xmask = int(sum(1 << q for q in np.flatnonzero(img.x)))
    zbits = np.zeros(dim, dtype=np.int64)
    for q in np.flatnonzero(img.z):
        zbits ^= (idx >> q) & 1
    coef = (1j ** (img.phase % 4)) * (1.0 - 2.0 * zbits)
    if side == "left":  # (P M)_{jk} = coef_{j^x} ... careful: row j of PM is coef_j-source
        # (P M)[j, :] = i^ph (-1)^{z.(j^x)} M[j ^ x, :]
        return coef[idx ^ xmask][:, None] * M[idx ^ xmask, :]
    # (M P)[:, k] = i^ph (-1)^{z.k} M[:, k ^ x]
    return M[:, idx ^ xmask] * coef[None, :]


@dataclass(frozen=True)
class DenseCheckReport:
    """Agreement between the tableau and the dense unitary oracle."""

    n_qubits: int
    n_layers: int
    max_deviation: float

    @property
    def ok(self) -> bool:
        return self.max_deviation < 1e-10


def dense_unitary_check(program: PulseProgram, n: int) -> DenseCheckReport:
    """Verify every tableau-predicted Pauli image against the exact unitary.

    For each generator P in {X_i, Z_i} the stabilizer claim U P U† = P'
    is checked in the equivalent (and matmul-free) form U P = P' U.
    """
    U = dense_unitary(program, n)
    tab = clifford_apply(Tableau(n), program)
    dev = 0.0
    for i in range(n):
        for kind in ("x", "z"):
            source = PauliImage(0, *(
                (np.eye(n, dtype=np.uint8)[i], np.zeros(n, dtype=np.uint8))
                if kind == "x"
                else (np.zeros(n, dtype=np.uint8), np.eye(n, dtype=np.uint8)[i])
            ))
            lhs = _dense_pauli_action(source, U, "right")  # U P
            rhs = _dense_pauli_action(tab.image(kind, i), U, "left")  # P' U
            dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    return DenseCheckReport(n, program.n_layers, dev)
