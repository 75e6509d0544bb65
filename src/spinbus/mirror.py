"""Stabilizer-level simulation of the globally pulsed mirror architecture.

A chain of qubits driven by alternating global controlled-phase and
Hadamard layers performs a mirror permutation of its state after a fixed
number of cycles.  Every pulse layer is a Hadamard or a controlled-phase
layer, so a stabilizer tableau simulates it exactly; a dense state-vector
oracle is kept only for independent verification on small systems.

Conventions: a Pauli operator is ``(-1)^sign * prod_q X_q^{x_q}
Z_q^{z_q}`` with one sign bit: H and CZ carry every image of X_i or Z_i
to a real sign, which the tableau stores as one bit per image.  A pulse
"cycle" applies the CZ layer first and the Hadamard layer second.

A layer is its sites: the Hadamard sites or the CZ edges it lists.  A
CZ edge (q, q) is refused when the layer is built; the tableau and the
dense oracle turn a layer into an index array, and check its sites
against the register, when they apply it.  A program repeats by sharing
its layer objects.  ``clifford_apply`` finds a (CZ, Hadamard) pair
repeated back to back by object identity, reads the pair once for the
whole run, and applies it in place on its sites' rows, a few
shifted-slice XORs per cycle, when the Hadamard sites are contiguous and
the CZ edges form a chain along them; every other layer streams words
through the packed tableau on its own.  A construction is certified by
one pass over the tableau's packed planes, not image by image.  A
lattice is its rows, one string of site characters each.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Union

import numpy as np

from .ed import ResourceLimitError

__all__ = [
    "AsymmetryUnavailableError",
    "RoutingError",
    "GlobalHadamard",
    "GlobalCZ",
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

    def __post_init__(self):
        object.__setattr__(self, "sites", tuple(map(operator.index, self.sites)))


@dataclass(frozen=True)
class GlobalCZ:
    """Controlled-phase on every edge in ``edges`` (one layer; CZs commute).

    An edge (q, q) raises ``ValueError``: diag(1, -1) on q is a Z, not a
    controlled phase.
    """

    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        edges = tuple((operator.index(a), operator.index(b)) for a, b in self.edges)
        if any(p == q for p, q in edges):
            raise ValueError("CZ needs two distinct sites")
        object.__setattr__(self, "edges", edges)


Layer = Union[GlobalHadamard, GlobalCZ]


def _indices(layer: Layer, n: int) -> np.ndarray:
    """A layer's index array on ``n`` qubits, the one form in which the
    tableau and the dense oracle read it.

    A Hadamard layer gives the sites it lists an odd number of times,
    ascending (H^k is H^(k mod 2)); a CZ layer gives its endpoints as the
    rows ``a, b`` of a (2, m) array.  A site outside [0, n) raises
    ``ValueError`` naming the first one listed.
    """
    hadamard = isinstance(layer, GlobalHadamard)
    listed = np.array(layer.sites if hadamard else layer.edges, dtype=np.intp)
    out = (listed < 0) | (listed >= n)
    if out.any():
        raise ValueError(f"site {listed[out][0]} out of range for {n} qubits")
    if hadamard:
        return np.flatnonzero(np.bincount(listed) & 1)
    return listed.reshape(-1, 2).T


@dataclass(frozen=True)
class PulseProgram:
    """A flat sequence of pulse layers, applied left to right."""

    layers: tuple[Layer, ...] = ()

    def __add__(self, other: "PulseProgram") -> "PulseProgram":
        return PulseProgram(self.layers + other.layers)

    def repeat(self, count: int) -> "PulseProgram":
        """The program run ``count`` times; the layer objects are shared."""
        if count < 0:
            raise ValueError("repeat count must be non-negative")
        return PulseProgram(self.layers * count)

    @property
    def n_layers(self) -> int:
        return len(self.layers)


def chain_edges(sites: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """Nearest-neighbor edges along an ordered run of sites."""
    s = list(sites)
    return tuple((s[i], s[i + 1]) for i in range(len(s) - 1))


def mirror_cycles(sites: Iterable[int], edges: Iterable[tuple[int, int]], count: int) -> PulseProgram:
    """``count`` cycles of (CZ layer on edges, then Hadamard layer on sites)."""
    return PulseProgram((GlobalCZ(edges), GlobalHadamard(sites))).repeat(count)


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


_SIGN = "+-"  # by sign bit
_PAULI = "IXZY"  # by x + 2z


def _bit(words: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Generator g's bit of each packed word, gathered from word g // 64."""
    return (words >> (g % 64).astype(np.uint64)) & np.uint64(1)


def _chain_bonds(a: np.ndarray, b: np.ndarray, s: np.ndarray) -> np.ndarray | None:
    """Positions i, ascending, of the bonds (s_i, s_i + 1) that the CZ
    edges (a, b) list on the Hadamard sites ``s`` (all from ``_indices``);
    None unless ``s`` is two or more contiguous sites and every edge joins
    two of them, each bond once."""
    if s.size < 2 or s[-1] - s[0] != s.size - 1:
        return None
    bonds = np.minimum(a, b) - s[0]
    bonds.sort()
    joined = np.all(np.abs(a - b) == 1) and np.all((bonds >= 0) & (bonds < s.size - 1))
    return bonds if joined and np.all(np.diff(bonds) > 0) else None


@dataclass(frozen=True)
class PauliImage:
    """A Pauli operator in the form (-1)^sign * prod X^x Z^z.

    ``sign`` is 0 or 1, the bit the tableau's ``r`` plane stores.
    """

    sign: int  # 0 or 1
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
        terms = [f"{_PAULI[self.x[q] + 2 * self.z[q]]}{q}" for q in self.support]
        return _SIGN[self.sign] + ("*".join(terms) if terms else "I")


class Tableau:
    """Conjugation action of a Clifford unitary on the Pauli generators.

    Generator ``g < n`` is the image U X_g U†; generator ``n + g`` is
    U Z_g U†.  Bits are packed along the generator axis, as in the CHP
    and Stim layouts: ``x[q]`` and ``z[q]`` are word-vectors holding
    qubit q's X and Z bit of all 2n images, 64 generators per ``uint64``
    word.  H and CZ keep every image's phase real, so it is one packed
    sign plane ``r``: bit g set means image g carries a minus sign.

    ``apply_hadamard`` and ``apply_cz`` take a layer object, read its
    sites into an index array and check them against ``n``.  A layer on
    m sites is a few gathers and scatters of m word-vectors, so a global
    layer costs O(n^2 / 64) word operations.

    ``apply_cycles(cz, h, count)`` applies ``count`` cycles of one layer
    pair and reads the pair once.  When the sites ``h`` lists an odd
    number of times are a contiguous range and every CZ edge joins
    neighbours in it, each bond once (a chain, cut or not, listed either
    way), the run works in place on those sites' rows: each cycle is a
    few shifted-slice XORs under a bond mask, the two planes trade roles
    instead of places, and the signs are reduced once per run.  Any other
    pair is applied layer by layer from the arrays read for the run.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one qubit")
        self.n = n
        words = -(-2 * n // 64)
        self.x = np.zeros((n, words), dtype=np.uint64)
        self.z = np.zeros((n, words), dtype=np.uint64)
        self.r = np.zeros(words, dtype=np.uint64)
        q = np.arange(n)
        for plane, g in ((self.x, q), (self.z, q + n)):
            plane[q, g // 64] = np.left_shift(np.uint64(1), (g % 64).astype(np.uint64))

    # -- layer applications (conjugation rules in the (-1)^r X^x Z^z form) --

    def apply_hadamard(self, layer: GlobalHadamard) -> None:
        self._hadamard(_indices(layer, self.n))

    def apply_cz(self, layer: GlobalCZ) -> None:
        self._cz(*_indices(layer, self.n))

    def _hadamard(self, s: np.ndarray) -> None:
        x, z = self.x[s], self.z[s]
        self.r ^= np.bitwise_xor.reduce(x & z, axis=0)
        self.x[s], self.z[s] = z, x

    def _cz(self, a: np.ndarray, b: np.ndarray) -> None:
        # x is never written by a CZ layer, so the whole commuting layer
        # reads the pre-layer x
        xa, xb = self.x[a], self.x[b]
        self.r ^= np.bitwise_xor.reduce(xa & xb, axis=0)
        # ufunc.at accumulates a site listed more than once
        np.bitwise_xor.at(self.z, a, xb)
        np.bitwise_xor.at(self.z, b, xa)

    def apply_cycles(self, cz: GlobalCZ, h: GlobalHadamard, count: int) -> None:
        """``count`` cycles of ``cz`` then ``h``, as ``count`` alternating
        ``apply_cz`` and ``apply_hadamard`` calls would apply them."""
        if count < 0:
            raise ValueError("cycle count must be non-negative")
        (a, b), s = _indices(cz, self.n), _indices(h, self.n)
        bonds = _chain_bonds(a, b, s)
        if bonds is None:
            for _ in range(count):
                self._cz(a, b)
                self._hadamard(s)
            return
        rows = slice(s[0], s[-1] + 1)  # contiguous: views, worked on in place
        x, z = self.x[rows], self.z[rows]
        signs, t = np.zeros_like(x), np.empty_like(x)
        mask = None  # every bond (i, i+1) present
        if bonds.size < s.size - 1:
            mask = np.zeros((s.size - 1, 1), dtype=np.uint64)
            mask[bonds] = ~np.uint64(0)
            u = np.empty_like(x[1:])
        # slices made once per run: a slice costs about as much as a
        # cycle's XOR on a few words
        roles = [(p, q, p[:-1], p[1:], q[:-1], q[1:]) for p, q in ((x, z), (z, x))]
        for k in range(count):
            # CZ on the bonds, then H on every row, which trades the
            # planes' roles.  The H term x & z, read between the two
            # half-updates of z, also holds the CZ signs x_i x_{i+1}: the
            # other half's cross terms cancel in pairs.
            xp, zp, x_lo, x_hi, z_lo, z_hi = roles[k % 2]
            if mask is None:
                z_lo ^= x_hi
                np.bitwise_and(xp, zp, out=t)
                signs ^= t
                z_hi ^= x_lo
            else:
                np.bitwise_and(x_hi, mask, out=u)
                z_lo ^= u
                np.bitwise_and(xp, zp, out=t)
                signs ^= t
                np.bitwise_and(x_lo, mask, out=u)
                z_hi ^= u
        self.r ^= np.bitwise_xor.reduce(signs, axis=0)
        if count % 2:  # the X plane ends in z: copy x before it is overwritten
            self.x[rows], self.z[rows] = z, x.copy()

    # -- inspection --

    def image(self, kind: str, site: int) -> PauliImage:
        """Image of X_site (kind 'x') or Z_site (kind 'z') under conjugation."""
        if kind not in ("x", "z"):
            raise ValueError("kind must be 'x' or 'z'")
        if not 0 <= site < self.n:
            raise ValueError("site out of range")
        g = np.intp(site if kind == "x" else self.n + site)
        x, z = (_bit(plane[:, g // 64], g).astype(np.uint8) for plane in (self.x, self.z))
        return PauliImage(int(_bit(self.r[g // 64], g)), x, z)


def clifford_apply(program: PulseProgram, n: int) -> Tableau:
    """Conjugate a fresh ``n``-qubit tableau through a pulse program.

    A (CZ, Hadamard) pair of layer objects repeated back to back two or
    more times, as ``repeat`` shares them, goes to ``apply_cycles`` as one
    run; every other layer is applied on its own.
    """
    t = Tableau(n)
    layers, end, i = program.layers, len(program.layers), 0
    while i < end:
        layer, j = layers[i], i + 1
        if isinstance(layer, GlobalCZ) and j < end and isinstance(layers[j], GlobalHadamard):
            h = layers[j]
            while j + 2 < end and layers[j + 1] is layer and layers[j + 2] is h:
                j += 2
            if j - i >= 3:  # the run ends at layers[j], its count-th H
                t.apply_cycles(layer, h, (j - i + 1) // 2)
                i = j + 1
                continue
        if isinstance(layer, GlobalHadamard):
            t.apply_hadamard(layer)
        else:
            t.apply_cz(layer)
        i += 1
    return t


# ---------------------------------------------------------------------------
# Verified composite constructions
# ---------------------------------------------------------------------------


def _check_images(name: str, program: PulseProgram, n: int, want: dict[int, int]) -> Tableau:
    """Require X_i and Z_i to conjugate to single-site Paulis on ``want[i]``.

    The program runs on a fresh ``n``-qubit tableau, which is returned;
    the first failing site, in ``want`` order, raises an
    ``AssertionError`` naming the construction.  A site or target outside
    [0, n) raises ``ValueError`` before the program runs.  All images are
    checked in one pass over the packed planes, with temporaries of one
    plane's size: the support plane s = x | z, its running OR over the
    qubits, and from them the generators supported on exactly one qubit.
    Only a failing image is unpacked, to name it in the message.
    """
    sites = np.fromiter(want, dtype=np.intp, count=len(want))
    targets = np.fromiter(want.values(), dtype=np.intp, count=len(want))
    if np.any((sites < 0) | (sites >= n) | (targets < 0) | (targets >= n)):
        raise ValueError("site out of range")
    tab = clifford_apply(program, n)
    s = tab.x | tab.z
    seen = np.bitwise_or.accumulate(s, axis=0)  # seen[q]: supported on some q' <= q
    twice = np.bitwise_or.reduce(s[1:] & seen[:-1], axis=0)
    single = seen[-1] & ~twice
    ok = np.ones(len(want), dtype=bool)
    for g in (sites, sites + n):  # the images of X_i, then of Z_i
        w = g // 64
        ok &= _bit(single[w] & s[targets, w], g).astype(bool)
    if not ok.all():
        i, target = (int(v[np.argmin(ok)]) for v in (sites, targets))
        raise AssertionError(
            f"{name}: site {i}: images {tab.image('x', i)} / {tab.image('z', i)} "
            f"are not single-site Paulis at {target}"
        )
    return tab


def verify_mirror(program: PulseProgram, n: int) -> dict[int, tuple[str, str]]:
    """Check that a program mirrors sites 0..n-1 up to local Cliffords.

    Returns ``{site: (image of X_site, image of Z_site)}`` as strings (the
    extracted single-qubit corrections); raises if any image is not a
    single-site Pauli at the mirrored position.
    """
    tab = _check_images("mirror", program, n, {i: n - 1 - i for i in range(n)})
    # each image is one Pauli on n-1-i: its sign bit and its x and z bit
    # there name it
    sites, mirrored = np.arange(n), np.arange(n)[::-1]
    names = []
    for g in (sites, sites + n):  # the images of X_i, then of Z_i
        w = g // 64
        r, x, z = (_bit(words, g).tolist() for words in (tab.r[w], tab.x[mirrored, w], tab.z[mirrored, w]))
        names.append([f"{_SIGN[sign]}{_PAULI[xq + 2 * zq]}{q}"
                      for sign, xq, zq, q in zip(r, x, z, mirrored.tolist())])
    return dict(enumerate(zip(*names)))


def propagated_swap(n: int, sites: Iterable[int]) -> PulseProgram:
    """Swap the ``n``-th and ``n+1``-th qubits (1-based) of a chain using global cycles.

    ``sites`` lists the chain's distinct qubit labels in chain order; the
    program acts on those labels and on no other qubit.  The construction
    cuts the chain's controlled-phase layer at the two bonds surrounding
    the target pair, runs three full cycles (which mirror the isolated
    pair, i.e. swap it), and then refocuses each side segment with extra
    cycles restricted to that segment: a segment of length l returns to
    the identity after any multiple of 2(l+1) cycles, so (-3) mod 2(l+1)
    extra cycles undo the three it received.  Local single-qubit
    residues may remain on the chain ends.
    """
    chain = tuple(sites)
    L = len(chain)
    if L < 2:
        raise ValueError("chain length must be at least 2")
    if len(set(chain)) != L:
        raise ValueError("chain sites must be distinct")
    if not 1 <= n < L:
        raise ValueError(f"pair index must satisfy 1 <= n < {L}")
    left, pair, right = chain[: n - 1], chain[n - 1 : n + 1], chain[n + 1 :]
    # the bonds on either side of the pair are cut
    kept = chain_edges(left) + chain_edges(pair) + chain_edges(right)
    prog = mirror_cycles(chain, kept, 3)
    for seg in (left, right):
        if seg:
            extra = (-3) % (2 * (len(seg) + 1))
            prog = prog + mirror_cycles(seg, chain_edges(seg), extra)
    return prog


def verify_swap(program: PulseProgram, chain_length: int, pair: tuple[int, int]) -> dict[int, int]:
    """Check a program permutes Paulis by the transposition ``pair`` (0-based).

    Every X_i and Z_i must conjugate to a single-site Pauli, with the two
    pair sites exchanged and all others fixed; returns the permutation.
    """
    a, b = pair
    want = {i: i for i in range(chain_length)}
    want[a], want[b] = b, a
    _check_images(f"swap of {pair}", program, chain_length, want)
    return want


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

    ``rows`` holds one string per row, one character per site: ``R``
    register (individually addressable), ``.`` impurity, ``#`` hole (no
    qubit, no edges).  Horizontal (in-row) and vertical (inter-row)
    adjacencies are distinguished because they compile to different swap
    primitives.
    """

    rows: tuple[str, ...]

    def __post_init__(self):
        if not self.rows:
            raise ValueError("empty lattice text")
        if any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ValueError("ragged lattice text: all rows must have equal length")
        bad = set("".join(self.rows)) - {REGISTER, IMPURITY, HOLE}
        if bad:
            raise ValueError(f"unknown lattice characters {sorted(bad)}; use R . #")

    @classmethod
    def from_text(cls, text: str) -> "LatticeMap":
        return cls(tuple(line for line in text.splitlines() if line.strip()))

    @property
    def n_rows(self) -> int:
        return len(self.rows)

    @property
    def n_cols(self) -> int:
        return len(self.rows[0])

    # -- site bookkeeping: sites are (row, col) pairs --

    def kind(self, site: tuple[int, int]) -> str:
        r, c = site
        if not (0 <= r < self.n_rows and 0 <= c < self.n_cols):
            raise ValueError(f"site {site} outside {self.n_rows}x{self.n_cols} lattice")
        return self.rows[r][c]

    def is_hole(self, site: tuple[int, int]) -> bool:
        return self.kind(site) == HOLE

    def qubit_sites(self) -> list[tuple[int, int]]:
        return [(r, c) for r, row in enumerate(self.rows) for c, k in enumerate(row) if k != HOLE]

    def registers(self) -> list[tuple[int, int]]:
        return [(r, c) for r, row in enumerate(self.rows) for c, k in enumerate(row) if k == REGISTER]

    def site_index(self) -> dict[tuple[int, int], int]:
        """Dense qubit numbering of the non-hole sites (row-major)."""
        return {s: i for i, s in enumerate(self.qubit_sites())}

    def neighbors(self, site: tuple[int, int]) -> list[tuple[tuple[int, int], str]]:
        """Non-hole neighbors with the move kind, in-row entries first."""
        r, c = site
        rows, n_cols = self.rows, len(self.rows[0])
        out = []
        for dr, dc, kind in ((0, -1, "row"), (0, 1, "row"), (-1, 0, "column"), (1, 0, "column")):
            r2, c2 = r + dr, c + dc
            if 0 <= r2 < len(rows) and 0 <= c2 < n_cols and rows[r2][c2] != HOLE:
                out.append(((r2, c2), kind))
        return out

    def row_segment(self, site: tuple[int, int]) -> list[tuple[int, int]]:
        """Maximal contiguous non-hole run of the row containing ``site``."""
        r, c = site
        if self.is_hole(site):
            raise ValueError(f"site {site} is a hole")
        row = self.rows[r]
        lo, hi = row.rfind(HOLE, 0, c) + 1, (row + HOLE).find(HOLE, c)
        return [(r, cc) for cc in range(lo, hi)]


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
    # the impurity runs flanking the register, each listed outward from it
    row = lattice.rows[r]
    left = [(r, cc) for cc in range(c - 1, len(row[:c].rstrip(IMPURITY)) - 1, -1)]
    right = [(r, cc) for cc in range(c + 1, len(row) - len(row[c + 1:].lstrip(IMPURITY)))]
    if not left or not right:
        raise ValueError("register needs impurity chains on both sides")

    # Q_M: three-site mirror {left neighbor, register, right neighbor}
    trio = [idx[left[0]], idx[register], idx[right[0]]]
    q_m = mirror_cycles(trio, chain_edges(trio), 4)
    _check_images("Q_M", q_m, len(idx), dict(zip(trio, reversed(trio))))

    # Q_L: mirror the shorter flanking chain, refocus the longer one; no
    # cycle count does both for equal lengths, so the count raises for them
    short, long_ = (left, right) if len(left) < len(right) else (right, left)
    k = _refocus_and_mirror_cycles(len(short), len(long_))
    sites = tuple(idx[s] for s in short) + tuple(idx[s] for s in long_)
    edges = chain_edges([idx[s] for s in short]) + chain_edges([idx[s] for s in long_])
    q_l = mirror_cycles(sites, edges, k)
    want = {idx[s]: idx[t] for s, t in zip(short, reversed(short))}
    want.update({idx[s]: idx[s] for s in long_})
    _check_images("Q_L", q_l, len(idx), want)

    return {"Q_M": q_m, "Q_L": q_l}


def pair_swap_program(a: int, b: int) -> PulseProgram:
    """Exact SWAP of two qubits from H and CZ (three CNOT decomposition)."""
    h_a, h_b, cz = GlobalHadamard((a,)), GlobalHadamard((b,)), GlobalCZ(((a, b),))
    cnot_ab, cnot_ba = (h_b, cz, h_b), (h_a, cz, h_a)
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
    program: PulseProgram

    @property
    def total_layers(self) -> int:
        return self.program.n_layers


def _shortest_path(lattice: LatticeMap, src, dst) -> list[tuple[int, int]]:
    """Dijkstra shortest path over non-hole sites, preferring in-row moves on ties.

    The cost is lexicographic, (steps, column steps): among all shortest
    paths this picks one with the fewest inter-row moves.
    """
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
        return RoutePlan((), PulseProgram())
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
            program = program + propagated_swap(n_pair, [idx[s] for s in seg])
        else:
            program = program + pair_swap_program(idx[s1], idx[s2])
    _check_images(f"route {src}->{dst}", program, len(idx), {idx[src]: idx[dst]})
    return RoutePlan(tuple(moves), program)


# ---------------------------------------------------------------------------
# Dense state-vector oracle
# ---------------------------------------------------------------------------

_H2 = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)


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
    indices = [_indices(layer, n) for layer in program.layers]
    dim = 1 << n
    M = np.eye(dim, dtype=complex)
    idx = np.arange(dim)
    for layer, ix in zip(program.layers, indices):
        if isinstance(layer, GlobalHadamard):
            for q in ix:
                _apply_1q(M, _H2, q, n)
        else:
            sign = np.ones(dim)
            for a, b in ix.T:
                both = ((idx >> a) & 1) & ((idx >> b) & 1)
                sign *= 1.0 - 2.0 * both
            M *= sign[:, None]
    return M


def _dense_pauli_action(img: PauliImage, M: np.ndarray, side: str) -> np.ndarray:
    """Apply the Pauli (-1)^sign X^x Z^z to M from the left or right, cheaply.

    P |j> = (-1)^(sign + z.j) |j XOR x>, so left action permutes/rephases
    rows and right action columns; no dense matrix products are needed.
    """
    dim = M.shape[0]
    idx = np.arange(dim)
    xmask = int(sum(1 << q for q in np.flatnonzero(img.x)))
    zbits = np.zeros(dim, dtype=np.int64)
    for q in np.flatnonzero(img.z):
        zbits ^= (idx >> q) & 1
    coef = (1.0 - 2.0 * img.sign) * (1.0 - 2.0 * zbits)
    if side == "left":
        # (P M)[j, :] = (-1)^{sign + z.(j^x)} M[j ^ x, :]
        return coef[idx ^ xmask][:, None] * M[idx ^ xmask, :]
    # (M P)[:, k] = (-1)^{sign + z.k} M[:, k ^ x]
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
    tab = clifford_apply(program, n)
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
