import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spinbus import mirror
from spinbus.ed import ResourceLimitError


# -- strategies for random pulse programs on a small register ----------------

def program_strategy(n_qubits: int, max_layers: int = 12):
    site = st.integers(0, n_qubits - 1)
    edge = st.tuples(site, site).filter(lambda e: e[0] != e[1])
    layer = st.one_of(
        st.builds(mirror.GlobalHadamard, st.frozensets(site, max_size=n_qubits).map(tuple)),
        st.builds(mirror.GlobalCZ, st.frozensets(edge, max_size=6).map(tuple)),
        # one to three sites, repeats allowed: H H and H-CZ-H compose on a site
        st.builds(mirror.GlobalHadamard, st.lists(site, min_size=1, max_size=3).map(tuple)),
    )
    return st.lists(layer, max_size=max_layers).map(
        lambda layers: mirror.PulseProgram(tuple(layers))
    )


def _random_hadamard_layer(n: int, seed: int) -> mirror.GlobalHadamard:
    """Up to 2n Hadamard sites drawn with replacement, so sites repeat."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(0, n, rng.integers(0, 2 * n + 1))
    return mirror.GlobalHadamard(tuple(int(q) for q in sites))


def _random_cz_layer(n: int, seed: int) -> mirror.GlobalCZ:
    """Up to 2n random edges, so columns (and whole edges) repeat."""
    rng = np.random.default_rng(seed)
    m = rng.integers(0, 2 * n + 1)
    a = rng.integers(0, n, m)
    b = (a + rng.integers(1, n, m)) % n
    return mirror.GlobalCZ(tuple((int(i), int(j)) for i, j in zip(a, b)))


@st.composite
def wide_program(draw, n_strategy, max_layers: int = 12):
    """(n, program) mixing few-site Hadamard layers with large random global
    layers that list Hadamard sites more than once and repeat CZ columns."""
    n = draw(n_strategy)
    # few-site layers share a few sites so that they compose (H H, H CZ H, ...)
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    seed = st.integers(0, 2**32 - 1)
    few_sites = st.lists(st.sampled_from(hot), min_size=1, max_size=3).map(tuple)
    layer = [
        st.builds(mirror.GlobalHadamard, few_sites),
        seed.map(lambda s: _random_hadamard_layer(n, s)),
    ]
    if n > 1:
        layer.append(seed.map(lambda s: _random_cz_layer(n, s)))
    layers = draw(st.lists(st.one_of(layer), min_size=1, max_size=max_layers))
    return n, mirror.PulseProgram(tuple(layers))


# 2n generator bits per word-vector: n = 32 fills one uint64 word exactly
WORD_EDGES = (1, 31, 32, 33, 63, 64, 65, 128, 150)


@st.composite
def cycle_program(draw, n_strategy, max_runs: int = 3):
    """(n, program) of repeated ``mirror_cycles`` runs between lone layers.

    A run's sites are contiguous or have gaps, its chain bonds may be cut,
    and each edge, and the edge list, may be listed either way.  A run may
    also list one of its CZ endpoints twice in its Hadamard layer, add an
    edge reversed, or add an edge across a site.  Gaps and each of these
    leave the fused path for layer-by-layer."""
    n = draw(n_strategy)
    seed = st.integers(0, 2**32 - 1)
    layers = []
    for _ in range(draw(st.integers(1, max_runs))):
        lone = [seed.map(lambda s: _random_hadamard_layer(n, s))]
        if n > 1:
            lone.append(seed.map(lambda s: _random_cz_layer(n, s)))
        layers += draw(st.lists(st.one_of(lone), max_size=2))
        if draw(st.booleans()):
            m = draw(st.integers(1, min(n, 70)))
            lo = draw(st.integers(0, n - m))
            sites = list(range(lo, lo + m))
        else:
            sites = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=70)))
        bonds = list(zip(sites, sites[1:]))
        kept = draw(st.lists(st.booleans(), min_size=len(bonds), max_size=len(bonds)))
        flips = draw(st.lists(st.booleans(), min_size=len(bonds), max_size=len(bonds)))
        edges = [(b, a) if flip else (a, b) for (a, b), keep, flip in zip(bonds, kept, flips) if keep]
        if draw(st.booleans()):
            edges.reverse()
        h_sites = list(sites)
        if edges and draw(st.integers(0, 5)) == 0:
            h_sites.append(draw(st.sampled_from(edges))[0])  # H^2: not a run site
        if edges and draw(st.integers(0, 5)) == 0:
            edges.append(draw(st.sampled_from(edges))[::-1])  # CZ CZ = I on one bond
        if len(sites) > 2 and draw(st.integers(0, 5)) == 0:
            edges.append((sites[0], sites[2]))  # not a bond
        run = mirror.mirror_cycles(h_sites, edges, draw(st.integers(0, 7))).layers
        layers += run + run[:1] * draw(st.booleans())  # a trailing CZ of the run's own object
    return n, mirror.PulseProgram(tuple(layers))


def _cycles_case(n, sites, edges, count):
    """Lone H and CZ layers that spread x, z and signs, then ``count`` cycles."""
    spread = (_random_hadamard_layer(n, 1), _random_cz_layer(n, 2), _random_hadamard_layer(n, 3))
    return n, mirror.PulseProgram(spread) + mirror.mirror_cycles(sites, edges, count)


# (n, program) and whether its run is applied fused
CYCLE_CASES = {
    "contiguous": (_cycles_case(65, range(3, 41), mirror.chain_edges(range(3, 41)), 5), True),
    # sites with gaps are applied layer by layer
    "gaps": (_cycles_case(33, (0, 2, 3, 7, 8, 20), mirror.chain_edges((0, 2, 3, 7, 8, 20)), 4), False),
    "gaps-cut": (_cycles_case(33, (0, 1, 2, 5, 6, 9), ((0, 1), (1, 2)), 5), False),
    "cut": (_cycles_case(64, range(64), mirror.chain_edges(range(11)) + mirror.chain_edges(range(12, 64)), 3),
            True),
    "outward": (_cycles_case(32, (3, 2, 1, 4, 5, 6), ((3, 2), (2, 1), (4, 5), (5, 6)), 6), True),
    # H^2 on the end site of a chain bond: the edge leaves the contiguous h.odd
    "h-twice-hi": (_cycles_case(31, (0, 1, 2, 3, 3), ((0, 1), (2, 3)), 3), False),
    "h-twice-lo": (_cycles_case(31, (0, 0, 1, 2, 3), ((0, 1), (3, 2)), 3), False),
    "reversed-duplicate": (_cycles_case(4, (0, 1, 2, 3), ((1, 2), (2, 1)), 4), False),
    "across-a-site": (_cycles_case(8, (0, 1, 2, 3), ((0, 1), (1, 3)), 3), False),
}


def _assert_matches_byte_reference(n, program):
    """Every image of ``clifford_apply`` equals the byte tableau's."""
    packed = mirror.clifford_apply(program, n)
    ref = oracles.ByteTableau(n)
    for layer in program.layers:
        if isinstance(layer, mirror.GlobalHadamard):
            ref.apply_hadamard(layer.sites)
        else:
            ref.apply_cz(layer.edges)
    for kind in ("x", "z"):
        for i in range(n):
            img = packed.image(kind, i)
            phase, x, z = ref.image(kind, i)
            assert 2 * img.sign == phase, f"{kind}{i}: sign {img.sign} against phase {phase}"
            assert np.array_equal(img.x, x) and np.array_equal(img.z, z), f"{kind}{i}"
            assert img.x.dtype == img.z.dtype == np.uint8


class TestPulsePrograms:
    def test_concat_and_repeat(self):
        p = mirror.PulseProgram((mirror.GlobalHadamard((0,)),))
        q = p + p
        assert q.n_layers == 2
        assert p.repeat(3).n_layers == 3
        assert p.repeat(0).layers == ()
        # a repeat is flat, and shares its layer objects
        cycle = mirror.mirror_cycles((0, 1), ((0, 1),), 1)
        r = cycle.repeat(3)
        assert r.layers == cycle.layers * 3
        assert all(a is b for a, b in zip(r.layers, cycle.layers * 3))

    def test_repeat_validation(self):
        p = mirror.PulseProgram((mirror.GlobalHadamard((0,)),))
        with pytest.raises(ValueError):
            p.repeat(-1)

    def test_chain_edges(self):
        assert mirror.chain_edges([3, 5, 7]) == ((3, 5), (5, 7))


class TestTableau:
    def test_identity_images(self):
        tab = mirror.Tableau(3)
        assert str(tab.image("x", 1)) == "+X1"
        assert str(tab.image("z", 2)) == "+Z2"

    def test_hadamard_swaps_x_z(self):
        tab = mirror.Tableau(2)
        tab.apply_hadamard(mirror.GlobalHadamard((0,)))
        assert str(tab.image("x", 0)) == "+Z0"
        assert str(tab.image("z", 0)) == "+X0"
        assert str(tab.image("x", 1)) == "+X1"

    def test_cz_action(self):
        tab = mirror.Tableau(2)
        tab.apply_cz(mirror.GlobalCZ(((0, 1),)))
        assert str(tab.image("x", 0)) == "+X0*Z1"
        assert str(tab.image("z", 0)) == "+Z0"

    def test_site_range_checked(self):
        tab = mirror.Tableau(2)
        with pytest.raises(ValueError):
            tab.apply_hadamard(mirror.GlobalHadamard((2,)))
        with pytest.raises(ValueError):
            tab.apply_cz(mirror.GlobalCZ(((0, 2),)))
        # a non-integer site is refused when the layer is built, before the
        # tableau could truncate it or the dense oracle fail on its shift
        with pytest.raises(TypeError):
            mirror.GlobalHadamard((1.5,))
        with pytest.raises(TypeError):
            mirror.GlobalCZ(((0, 1.0),))
        with pytest.raises(ValueError, match="^cycle count must be non-negative$"):
            tab.apply_cycles(mirror.GlobalCZ(((0, 1),)), mirror.GlobalHadamard((0, 1)), -1)

    def test_layer_checked_against_each_register(self):
        # one layer object, built once, is range-checked against every
        # tableau it is applied to, when it is applied
        h, cz = mirror.GlobalHadamard((0, 3)), mirror.GlobalCZ(((0, 3),))
        big = mirror.Tableau(4)
        big.apply_hadamard(h)
        big.apply_cz(cz)
        for n in (1, 3):
            small = mirror.Tableau(n)
            for apply, layer in ((small.apply_hadamard, h), (small.apply_cz, cz)):
                with pytest.raises(ValueError, match=f"^site 3 out of range for {n} qubits$"):
                    apply(layer)
        assert str(big.image("z", 0)) == "+X0*Z3"

    def test_out_of_range_names_first_listed_site(self):
        tab = mirror.Tableau(3)
        with pytest.raises(ValueError, match="^site 5 out of range for 3 qubits$"):
            tab.apply_hadamard(mirror.GlobalHadamard((1, 5, -1)))
        with pytest.raises(ValueError, match="^site -2 out of range for 3 qubits$"):
            tab.apply_cz(mirror.GlobalCZ(((0, 1), (-2, 7))))
        # a repeated run checks both its layers before its first cycle
        with pytest.raises(ValueError, match="^site 5 out of range for 3 qubits$"):
            mirror.clifford_apply(mirror.mirror_cycles((0, 1, 5, -1), ((0, 1),), 2), 3)
        # ... also when its Hadamard sites are a contiguous range
        with pytest.raises(ValueError, match="^site 3 out of range for 3 qubits$"):
            mirror.clifford_apply(mirror.mirror_cycles((0, 1, 2, 3), ((0, 1),), 2), 3)

    @pytest.mark.parametrize("edges", [
        ((0, 1), (0, 2)),  # star: site 0 twice on one side
        ((0, 1), (0, 1)),  # duplicate edge: CZ CZ = I
        ((0, 1), (1, 0)),  # reversed duplicate: each side holds 0 and 1 once
        ((0, 1), (2, 0)),  # site 0 once on each side
        ((0, 1), (1, 2), (2, 3)),  # a chain layer is not a matching
        (),
    ], ids=["star", "duplicate", "reversed", "crossed", "chain", "empty"])
    def test_cz_repeats_match_byte_reference(self, edges):
        layer = mirror.GlobalCZ(edges)
        n = 4
        # H first so that x is spread and the CZ writes every column it names;
        # then an H on every site, one listed three times
        full = (3, 1, 0, 2, 2, 2)
        program = mirror.PulseProgram((mirror.GlobalHadamard((0, 2)), mirror.GlobalCZ(((0, 3),)),
                                       layer, mirror.GlobalHadamard(full)))
        packed = mirror.clifford_apply(program, n)
        ref = oracles.ByteTableau(n)
        ref.apply_hadamard((0, 2))
        ref.apply_cz(((0, 3),))
        ref.apply_cz(edges)
        ref.apply_hadamard(full)
        for kind in ("x", "z"):
            for i in range(n):
                img = packed.image(kind, i)
                phase, x, z = ref.image(kind, i)
                assert (2 * img.sign, img.x.tolist(), img.z.tolist()) == (phase, x.tolist(), z.tolist())
        assert mirror.dense_unitary_check(program, n).ok

    def test_layers_compare_by_their_sites(self):
        # the derived index arrays are neither compared nor shown
        assert mirror.GlobalCZ(((0, 1),)) == mirror.GlobalCZ(((0, 1),))
        assert hash(mirror.GlobalHadamard((2, 1, 2))) == hash(mirror.GlobalHadamard((2, 1, 2)))
        assert repr(mirror.GlobalHadamard((2, 1, 2))) == "GlobalHadamard(sites=(2, 1, 2))"
        assert mirror.GlobalHadamard((2, 1, 2)).odd.tolist() == [1]
        assert mirror.GlobalHadamard((3, 0, 3, 3)).odd.tolist() == [0, 3]

    @settings(max_examples=60, deadline=None)
    @given(program_strategy(4))
    def test_tableau_matches_dense_unitary(self, program):
        report = mirror.dense_unitary_check(program, 4)
        assert report.ok, f"deviation {report.max_deviation}"

    @settings(max_examples=25, deadline=None)
    @given(program_strategy(6, max_layers=20))
    def test_tableau_matches_dense_unitary_wider(self, program):
        report = mirror.dense_unitary_check(program, 6)
        assert report.ok, f"deviation {report.max_deviation}"

    @settings(max_examples=40, deadline=None)
    @given(wide_program(st.integers(1, 5)))
    def test_repeated_sites_match_dense_unitary(self, case):
        n, program = case
        report = mirror.dense_unitary_check(program, n)
        assert report.ok, f"deviation {report.max_deviation}"

    @settings(max_examples=60, deadline=None)
    @given(wide_program(st.one_of(st.sampled_from(WORD_EDGES), st.integers(1, 150))))
    def test_packed_matches_byte_reference(self, case):
        _assert_matches_byte_reference(*case)

    @settings(max_examples=60, deadline=None)
    @given(cycle_program(st.sampled_from(WORD_EDGES)))
    @example(CYCLE_CASES["contiguous"][0])
    @example(CYCLE_CASES["gaps"][0])
    @example(CYCLE_CASES["gaps-cut"][0])
    @example(CYCLE_CASES["cut"][0])
    @example(CYCLE_CASES["outward"][0])
    @example(CYCLE_CASES["h-twice-hi"][0])
    @example(CYCLE_CASES["h-twice-lo"][0])
    @example(CYCLE_CASES["reversed-duplicate"][0])
    @example(CYCLE_CASES["across-a-site"][0])
    def test_cycle_runs_match_byte_reference(self, case):
        _assert_matches_byte_reference(*case)

    @pytest.mark.parametrize("name", CYCLE_CASES)
    def test_runs_fused_only_on_chain_bonds(self, name, monkeypatch):
        # a fused run applies no CZ layer on its own; any other pair is
        # applied layer by layer (the byte reference checks both above)
        (n, program), fused = CYCLE_CASES[name]
        calls = []
        apply_cz = mirror.Tableau.apply_cz
        monkeypatch.setattr(mirror.Tableau, "apply_cz",
                            lambda tab, layer: calls.append(layer) or apply_cz(tab, layer))
        mirror.clifford_apply(program, n)
        run_cz = program.layers[-2]
        count = sum(layer is run_cz for layer in program.layers)
        assert sum(layer is run_cz for layer in calls) == (0 if fused else count)


class TestMirrorConstruction:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 13, 21, 31, 32, 33, 64, 65, 200])
    def test_mirror_verifies(self, n):
        corr = mirror.verify_mirror(mirror.mirror_program(n), n)
        assert set(corr) == set(range(n))

    def test_mirror_cycle_count(self):
        assert mirror.mirror_program(5).n_layers == 2 * 6

    def test_wrong_cycle_count_fails(self):
        sites = tuple(range(4))
        bad = mirror.mirror_cycles(sites, mirror.chain_edges(sites), 3)
        with pytest.raises(AssertionError, match="^mirror: site 0: "):
            mirror.verify_mirror(bad, 4)

    @pytest.mark.parametrize("n", [2, 33, 70])
    def test_names_read_from_packed_planes(self, n):
        # a prefix on sites a, b maps X_a, X_b, Z_a, Z_b to +Z_a, -Z_b, +X_a,
        # +X_b: the mirror images then carry letters and signs of their own
        a, b = n - 2, n - 1
        cz, h_a, h_b = mirror.GlobalCZ(((a, b),)), mirror.GlobalHadamard((a,)), mirror.GlobalHadamard((b,))
        prog = mirror.PulseProgram((cz, h_a) * 3 + (cz, h_b)) + mirror.mirror_program(n)
        corr = mirror.verify_mirror(prog, n)
        tab = mirror.clifford_apply(prog, n)
        assert corr == {i: (str(tab.image("x", i)), str(tab.image("z", i))) for i in range(n)}
        assert corr[b] == ("-Z0", "+X0")

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_mirror_against_dense(self, n):
        assert mirror.dense_unitary_check(mirror.mirror_program(n), n).ok

    def test_refocus_period(self):
        # 2(l+1) cycles act as the identity up to single-site Paulis
        l = 5
        sites = tuple(range(l))
        prog = mirror.mirror_cycles(sites, mirror.chain_edges(sites), 2 * (l + 1))
        tab = mirror.clifford_apply(prog, l)
        for i in range(l):
            assert tab.image("x", i).single_site() == i
            assert tab.image("z", i).single_site() == i


class TestPropagatedSwap:
    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_swap_on_8_chain(self, k):
        prog = mirror.propagated_swap(k, range(8))
        perm = mirror.verify_swap(prog, 8, (k - 1, k))
        assert perm == {i: {k - 1: k, k: k - 1}.get(i, i) for i in range(8)}

    def test_wrong_pair_fails(self):
        # the program swaps (2, 3); the first site off the wanted map is 1
        prog = mirror.propagated_swap(3, range(6))
        with pytest.raises(AssertionError, match=r"^swap of \(1, 2\): site 1: "):
            mirror.verify_swap(prog, 6, (1, 2))

    def test_first_failing_site_in_want_order(self):
        # H on site 0 leaves every other site in place, so each site wanted
        # elsewhere fails: the first listed is named, whatever its number
        prog = mirror.PulseProgram((mirror.GlobalHadamard((0,)),))
        with pytest.raises(AssertionError, match=r"^id: site 3: images \+X3 / \+Z3 are not single-site Paulis at 1$"):
            mirror._check_images("id", prog, 70, {5: 5, 3: 1, 1: 3, 66: 2})
        with pytest.raises(AssertionError, match="^id: site 66: "):
            mirror._check_images("id", prog, 70, {66: 2, 3: 1})
        tab = mirror._check_images("id", prog, 70, {0: 0, 69: 69})
        assert str(tab.image("x", 0)) == "+Z0"

    @pytest.mark.parametrize("want", [{-1: 0}, {3: 0}, {0: -1}, {0: 3}, {0: 0, 1: -3}],
                             ids=["site-negative", "site-n", "target-negative", "target-n", "later"])
    def test_want_out_of_range(self, want):
        # a negative site must not wrap around to the last qubit
        with pytest.raises(ValueError, match="^site out of range$"):
            mirror._check_images("id", mirror.PulseProgram(), 3, want)

    def test_z_image_checked(self):
        # a CNOT with control 1 and target 0 fixes X_0 but spreads Z_0
        prog = mirror.PulseProgram(
            (mirror.GlobalHadamard((0,)), mirror.GlobalCZ(((0, 1),)), mirror.GlobalHadamard((0,)))
        )
        with pytest.raises(AssertionError, match=r"site 0: images \+X0 / \+Z0\*Z1 "):
            mirror.verify_swap(prog, 2, (0, 0))

    def test_swap_against_dense(self):
        for k in (1, 3, 5):
            prog = mirror.propagated_swap(k, range(6))
            rep = mirror.dense_unitary_check(prog, 6)
            assert rep.ok

    def test_double_swap_is_identity_permutation(self):
        prog = mirror.propagated_swap(3, range(7))
        tab = mirror.clifford_apply(prog + prog, 7)
        for i in range(7):
            assert tab.image("x", i).single_site() == i
            assert tab.image("z", i).single_site() == i

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mirror.propagated_swap(0, range(5))
        with pytest.raises(ValueError):
            mirror.propagated_swap(5, range(5))
        with pytest.raises(ValueError):
            mirror.propagated_swap(1, range(1))
        with pytest.raises(ValueError, match="distinct"):
            mirror.propagated_swap(1, (0, 1, 0))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_swap_on_scattered_labels(self, data):
        # the chain's labels are shuffled and non-contiguous inside a larger
        # register: the program swaps the k-th pair and fixes every other qubit
        L = data.draw(st.integers(2, 10), label="L")
        n = data.draw(st.integers(L, L + 6), label="n")
        k = data.draw(st.integers(1, L - 1), label="k")
        sites = data.draw(st.permutations(range(n)), label="labels")[:L]
        prog = mirror.propagated_swap(k, sites)
        tab = mirror.clifford_apply(prog, n)
        want = list(range(n))
        a, b = sites[k - 1], sites[k]
        want[a], want[b] = b, a
        for q in range(n):
            assert tab.image("x", q).single_site() == want[q]
            assert tab.image("z", q).single_site() == want[q]
        # the program addresses exactly the chain's labels
        addressed = {q for layer in prog.layers
                     for q in (layer.sites if isinstance(layer, mirror.GlobalHadamard)
                               else sum(layer.edges, ()))}
        assert addressed == set(sites)
        if n <= 6:
            assert mirror.dense_unitary_check(prog, n).ok


class TestDirectedSwaps:
    def test_programs_built_and_verified(self):
        # flanking chains of lengths 1 and 2 admit a common cycle count
        lat = mirror.LatticeMap.from_text(".R..")
        progs = mirror.directed_swap_programs(lat, (0, 1))
        assert set(progs) == {"Q_M", "Q_L"}
        # Q_M exchanges the register's two impurity neighbors
        idx = lat.site_index()
        tab = mirror.clifford_apply(progs["Q_M"], len(idx))
        assert tab.image("x", idx[(0, 0)]).single_site() == idx[(0, 2)]
        assert tab.image("x", idx[(0, 1)]).single_site() == idx[(0, 1)]

    def test_equal_lengths_unavailable(self):
        lat = mirror.LatticeMap.from_text("..R..")
        with pytest.raises(mirror.AsymmetryUnavailableError):
            mirror.directed_swap_programs(lat, (0, 2))

    def test_incompatible_lengths_unavailable(self):
        # lengths 2 and 3: no cycle count mirrors one side while the other
        # refocuses (the shorter side's period lacks the needed factor of 2)
        lat = mirror.LatticeMap.from_text("..R...")
        with pytest.raises(mirror.AsymmetryUnavailableError):
            mirror.directed_swap_programs(lat, (0, 2))

    def test_needs_impurity_neighbors(self):
        lat = mirror.LatticeMap.from_text("R....")
        with pytest.raises(ValueError):
            mirror.directed_swap_programs(lat, (0, 0))

    def test_non_register_rejected(self):
        lat = mirror.LatticeMap.from_text("..R...")
        with pytest.raises(ValueError):
            mirror.directed_swap_programs(lat, (0, 0))

    @pytest.mark.parametrize("construction", ["Q_M", "Q_L"])
    def test_check_names_construction(self, monkeypatch, construction):
        # Q_M is built and checked before Q_L, so an empty Q_M fails first;
        # an empty Q_L needs Q_M's four cycles left intact
        real = mirror.mirror_cycles
        monkeypatch.setattr(
            mirror, "mirror_cycles",
            lambda sites, edges, count: (
                real(sites, edges, count)
                if (count == 4) == (construction == "Q_L") else mirror.PulseProgram()
            ),
        )
        # a mirrored chain of one site is fixed by any program: use 3 and 4
        lat = mirror.LatticeMap.from_text("...R....")
        with pytest.raises(AssertionError, match=f"^{construction}: site "):
            mirror.directed_swap_programs(lat, (0, 3))

    def test_q_m_against_dense(self):
        lat = mirror.LatticeMap.from_text(".R..")
        progs = mirror.directed_swap_programs(lat, (0, 1))
        n = len(lat.qubit_sites())
        assert mirror.dense_unitary_check(progs["Q_M"], n).ok
        assert mirror.dense_unitary_check(progs["Q_L"], n).ok


class TestLattice:
    TEXT = "R..#\n....\n#..R"

    def test_round_trip(self):
        lat = mirror.LatticeMap.from_text(self.TEXT)
        assert lat.rows == tuple(self.TEXT.splitlines())
        assert (lat.n_rows, lat.n_cols) == (3, 4)
        assert mirror.LatticeMap(lat.rows) == lat

    def test_parsing_errors(self):
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("")
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("..\n...")
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("..Q.")
        # rows built directly are checked as parsed text is
        with pytest.raises(ValueError, match="ragged"):
            mirror.LatticeMap(("..", "..."))

    def test_site_queries(self):
        lat = mirror.LatticeMap.from_text(self.TEXT)
        assert lat.kind((0, 0)) == "R"
        assert lat.is_hole((0, 3))
        assert lat.registers() == [(0, 0), (2, 3)]
        assert len(lat.qubit_sites()) == 10
        with pytest.raises(ValueError):
            lat.kind((5, 0))

    def test_neighbors_skip_holes_in_row_first(self):
        lat = mirror.LatticeMap.from_text(self.TEXT)
        nb = lat.neighbors((0, 2))
        assert ((0, 1), "row") in nb
        assert ((1, 2), "column") in nb
        assert all(s != (0, 3) for s, _ in nb)
        kinds = [k for _, k in nb]
        assert kinds == ["row"] * kinds.count("row") + ["column"] * kinds.count("column")

    def test_row_segment(self):
        lat = mirror.LatticeMap.from_text(self.TEXT)
        assert lat.row_segment((0, 1)) == [(0, 0), (0, 1), (0, 2)]
        assert lat.row_segment((1, 0)) == [(1, c) for c in range(4)]
        with pytest.raises(ValueError):
            lat.row_segment((0, 3))


class TestRouting:
    def test_same_row(self):
        lat = mirror.LatticeMap.from_text("R...R")
        plan = mirror.route(lat, (0, 0), (0, 4))
        assert len(plan.moves) == 4
        assert all(m.kind == "row" for m in plan.moves)

    def test_detour_around_hole(self):
        lat = mirror.LatticeMap.from_text("R.#.R\n.....")
        plan = mirror.route(lat, (0, 0), (0, 4))
        assert any(m.kind == "column" for m in plan.moves)
        assert len(plan.moves) == 6

    def test_prefers_row_moves_on_ties(self):
        lat = mirror.LatticeMap.from_text("R..\n...\n..R")
        plan = mirror.route(lat, (0, 0), (2, 2))
        assert sum(m.kind == "column" for m in plan.moves) == 2

    def test_trivial_route(self):
        lat = mirror.LatticeMap.from_text("R.")
        plan = mirror.route(lat, (0, 0), (0, 0))
        assert plan.moves == () and plan.total_layers == 0

    def test_disconnected_raises(self):
        lat = mirror.LatticeMap.from_text("R#R")
        with pytest.raises(mirror.RoutingError):
            mirror.route(lat, (0, 0), (0, 2))

    def test_hole_endpoint_rejected(self):
        lat = mirror.LatticeMap.from_text("R#R")
        with pytest.raises(ValueError):
            mirror.route(lat, (0, 1), (0, 2))

    def test_check_names_construction(self, monkeypatch):
        monkeypatch.setattr(mirror, "propagated_swap", lambda n, sites: mirror.PulseProgram())
        lat = mirror.LatticeMap.from_text("R...R")
        with pytest.raises(AssertionError, match=r"^route \(0, 0\)->\(0, 4\): site 0: "):
            mirror.route(lat, (0, 0), (0, 4))

    def test_route_program_against_dense(self):
        lat = mirror.LatticeMap.from_text("R.#\n...\n..R")
        plan = mirror.route(lat, (0, 0), (2, 2))
        n = len(lat.qubit_sites())
        assert mirror.dense_unitary_check(plan.program, n).ok


class TestDenseOracle:
    def test_pair_swap_program_exact(self):
        prog = mirror.pair_swap_program(0, 2)
        U = mirror.dense_unitary(prog, 3)
        # exact SWAP of qubits 0 and 2 as a permutation matrix
        perm = [(i & 0b010) | ((i & 1) << 2) | ((i >> 2) & 1) for i in range(8)]
        want = np.zeros((8, 8))
        want[perm, np.arange(8)] = 1.0
        assert np.allclose(U, want, atol=1e-12)

    def test_cap_enforced(self):
        prog = mirror.mirror_program(13)
        with pytest.raises(ResourceLimitError):
            mirror.dense_unitary(prog, 13)

    def test_site_bounds_enforced(self):
        prog = mirror.PulseProgram((mirror.GlobalHadamard((5,)),))
        with pytest.raises(ValueError):
            mirror.dense_unitary(prog, 3)

    def test_cz_self_edge_rejected(self):
        # diag(1, -1, 1, -1) would be Z on qubit 0, not a controlled phase:
        # the layer is refused when built, before any tableau or oracle
        with pytest.raises(ValueError, match="CZ needs two distinct sites"):
            mirror.GlobalCZ(((0, 0),))
        with pytest.raises(ValueError, match="CZ needs two distinct sites"):
            mirror.pair_swap_program(1, 1)

    @pytest.mark.parametrize("layer", [
        mirror.GlobalHadamard((0, -1)),
        mirror.GlobalCZ(((0, -1),)),
    ], ids=["hadamard", "cz"])
    def test_negative_sites_rejected(self, layer):
        # an upper-bound check alone lets these through: the CZ would give
        # the identity, the Hadamard numpy's "negative shift count"
        prog = mirror.PulseProgram((layer,))
        with pytest.raises(ValueError, match="site -1 out of range for 3 qubits"):
            mirror.dense_unitary(prog, 3)
