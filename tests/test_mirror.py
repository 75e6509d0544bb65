import numpy as np
import pytest
from hypothesis import given, settings
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
        st.builds(mirror.Local, site, st.sampled_from(mirror.LOCAL_GATES)),
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
    """(n, program) mixing all five local gates with large random global
    layers that list Hadamard sites more than once and repeat CZ columns."""
    n = draw(n_strategy)
    # local gates share a few sites so that they compose (S S, H S H, ...)
    hot = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3))
    seed = st.integers(0, 2**32 - 1)
    layer = [
        st.builds(mirror.Local, st.sampled_from(hot), st.sampled_from(mirror.LOCAL_GATES)),
        seed.map(lambda s: _random_hadamard_layer(n, s)),
    ]
    if n > 1:
        layer.append(seed.map(lambda s: _random_cz_layer(n, s)))
    layers = draw(st.lists(st.one_of(layer), min_size=1, max_size=max_layers))
    return n, mirror.PulseProgram(tuple(layers))


# 2n generator bits per word-vector: n = 32 fills one uint64 word exactly
WORD_EDGES = (1, 31, 32, 33, 63, 64, 65, 128, 150)


class TestPulsePrograms:
    def test_concat_and_repeat(self):
        p = mirror.PulseProgram((mirror.Local(0, "H"),))
        q = p + p
        assert q.n_layers == 2
        assert p.repeat(3).n_layers == 3
        assert list(p.repeat(0).flattened()) == []

    def test_repeat_validation(self):
        p = mirror.PulseProgram((mirror.Local(0, "X"),))
        with pytest.raises(ValueError):
            p.repeat(-1)

    def test_max_site(self):
        p = mirror.PulseProgram(
            (mirror.GlobalCZ(((1, 4),)), mirror.GlobalHadamard((0, 2)))
        )
        assert p.max_site() == 4

    def test_local_gate_validated(self):
        with pytest.raises(ValueError):
            mirror.Local(0, "T")

    def test_chain_edges(self):
        assert mirror.chain_edges([3, 5, 7]) == ((3, 5), (5, 7))


class TestTableau:
    def test_identity_images(self):
        tab = mirror.Tableau(3)
        assert str(tab.image("x", 1)) == "+X1"
        assert str(tab.image("z", 2)) == "+Z2"

    def test_hadamard_swaps_x_z(self):
        tab = mirror.Tableau(2)
        tab.apply_hadamard((0,))
        assert str(tab.image("x", 0)) == "+Z0"
        assert str(tab.image("z", 0)) == "+X0"
        assert str(tab.image("x", 1)) == "+X1"

    def test_s_gate_conjugation(self):
        tab = mirror.Tableau(1)
        tab.apply_local("S", 0)
        # S X S+ = Y = i X Z, stored as phase 1 with x = z = 1
        img = tab.image("x", 0)
        assert (img.phase, int(img.x[0]), int(img.z[0])) == (1, 1, 1)
        assert str(tab.image("z", 0)) == "+Z0"

    def test_cz_action(self):
        tab = mirror.Tableau(2)
        tab.apply_cz(((0, 1),))
        assert str(tab.image("x", 0)) == "+X0*Z1"
        assert str(tab.image("z", 0)) == "+Z0"

    def test_pauli_involutions(self):
        tab = mirror.Tableau(1)
        for gate in ("X", "Y", "Z"):
            t = tab.copy()
            t.apply_local(gate, 0)
            t.apply_local(gate, 0)
            assert str(t.image("x", 0)) == "+X0"
            assert str(t.image("z", 0)) == "+Z0"

    def test_site_range_checked(self):
        tab = mirror.Tableau(2)
        with pytest.raises(ValueError):
            tab.apply_hadamard((2,))
        with pytest.raises(ValueError):
            tab.apply_cz(((0, 0),))

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
        n, program = case
        packed = mirror.clifford_apply(mirror.Tableau(n), program)
        ref = oracles.ByteTableau(n)
        for layer in program.flattened():
            if isinstance(layer, mirror.GlobalHadamard):
                ref.apply_hadamard(layer.sites)
            elif isinstance(layer, mirror.GlobalCZ):
                ref.apply_cz(layer.edges)
            else:
                ref.apply_local(layer.gate, layer.site)
        for kind in ("x", "z"):
            for i in range(n):
                img = packed.image(kind, i)
                phase, x, z = ref.image(kind, i)
                assert img.phase == phase, f"{kind}{i}: phase {img.phase} != {phase}"
                assert np.array_equal(img.x, x) and np.array_equal(img.z, z), f"{kind}{i}"
                assert img.x.dtype == img.z.dtype == np.uint8


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
        with pytest.raises(AssertionError):
            mirror.verify_mirror(bad, 4)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
    def test_mirror_against_dense(self, n):
        assert mirror.dense_unitary_check(mirror.mirror_program(n), n).ok

    def test_refocus_period(self):
        # 2(l+1) cycles act as the identity up to single-site Paulis
        l = 5
        sites = tuple(range(l))
        prog = mirror.mirror_cycles(sites, mirror.chain_edges(sites), 2 * (l + 1))
        tab = mirror.clifford_apply(mirror.Tableau(l), prog)
        for i in range(l):
            assert tab.image("x", i).single_site() == i
            assert tab.image("z", i).single_site() == i


class TestPropagatedSwap:
    @pytest.mark.parametrize("k", list(range(1, 8)))
    def test_swap_on_8_chain(self, k):
        prog = mirror.propagated_swap(k, 8)
        mirror.verify_swap(prog, 8, (k - 1, k))

    def test_swap_against_dense(self):
        for k in (1, 3, 5):
            prog = mirror.propagated_swap(k, 6)
            rep = mirror.dense_unitary_check(prog, 6)
            assert rep.ok

    def test_double_swap_is_identity_permutation(self):
        prog = mirror.propagated_swap(3, 7)
        tab = mirror.clifford_apply(mirror.Tableau(7), prog + prog)
        for i in range(7):
            assert tab.image("x", i).single_site() == i
            assert tab.image("z", i).single_site() == i

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            mirror.propagated_swap(0, 5)
        with pytest.raises(ValueError):
            mirror.propagated_swap(5, 5)
        with pytest.raises(ValueError):
            mirror.propagated_swap(1, 1)


class TestDirectedSwaps:
    def test_programs_built_and_verified(self):
        # flanking chains of lengths 1 and 2 admit a common cycle count
        lat = mirror.LatticeMap.from_text(".R..")
        progs = mirror.directed_swap_programs(lat, (0, 1))
        assert set(progs) == {"Q_M", "Q_L"}
        # Q_M exchanges the register's two impurity neighbors
        idx = lat.site_index()
        tab = mirror.clifford_apply(mirror.Tableau(len(idx)), progs["Q_M"])
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
        assert "".join(lat.kinds) == self.TEXT.replace("\n", "")
        assert (lat.n_rows, lat.n_cols) == (3, 4)

    def test_parsing_errors(self):
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("")
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("..\n...")
        with pytest.raises(ValueError):
            mirror.LatticeMap.from_text("..Q.")

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
        prog = mirror.PulseProgram((mirror.Local(5, "X"),))
        with pytest.raises(ValueError):
            mirror.dense_unitary(prog, 3)
