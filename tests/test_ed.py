import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinbus import ed
from spinbus.chains import ChainSpec, FromPositions, ModelKind, build_single_particle_matrix


def uniform_k(N, g, register_field=None):
    K = np.zeros((N + 2, N + 2))
    bonds = np.full(N + 1, 1.0)
    bonds[0] = bonds[-1] = g
    idx = np.arange(N + 1)
    K[idx, idx + 1] = bonds
    K[idx + 1, idx] = bonds
    if register_field is not None:
        K[0, 0] = K[N + 1, N + 1] = register_field
    return K


def dipolar_k(N, rule, g, register_field=0.0):
    """K of an N-site unit-spaced chain under ``rule``, a field on both registers."""
    spec = ChainSpec(ModelKind.XX, N, FromPositions(range(N), rule), g_left=g, g_right=g)
    K = build_single_particle_matrix(spec)
    K[0, 0] = K[N + 1, N + 1] = register_field
    return K


def random_k(n, seed, zero_bond=None):
    """A random real symmetric K, the bond ``zero_bond`` (if any) exactly 0."""
    K = np.random.default_rng(seed).normal(size=(n, n))
    K = K + K.T
    if zero_bond is not None:
        i, j = zero_bond
        K[i, j] = K[j, i] = 0.0
    return K


def protocol_k(J, g, fields=None):
    """Leg a's matrix: chain couplings J, both end couplings g, chain fields."""
    N = len(J)
    K = np.zeros((N + 2, N + 2))
    K[1:-1, 1:-1] = J
    K[0, 1] = K[1, 0] = K[N, N + 1] = K[N + 1, N] = g
    if fields is not None:
        K[np.arange(1, N + 1), np.arange(1, N + 1)] = fields
    return K


def cube_law_j(N):
    """Cube-law couplings 1/|i - j|^3 between N unit-spaced chain sites."""
    r = np.arange(N, dtype=float)
    dist = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(dist, 1.0)
    J = 1.0 / dist**3
    np.fill_diagonal(J, 0.0)
    return J


def dense_protocol_traces(K, t_a, t_b):
    """The full encoded protocol rebuilt from dense kron primitives.

    Sites {0a, 1..N, (N+1)a, 0b, (N+1)b}, each leg laid out by the oracle;
    the output is read on (N+1)b.
    """
    N = K.shape[0] - 2
    n = N + 4
    a0, aR, b0, bR = 0, N + 1, N + 2, N + 3
    Ua, Ub = (oracles.unitary(oracles.h_from_k(leg), t)
              for leg, t in zip(oracles.protocol_leg_ks(K), (t_a, t_b)))
    U = oracles.cnot(n, bR, aR) @ Ub @ Ua @ oracles.cnot(n, a0, b0)
    env = oracles.env_diag(n, a0, fixed={b0: 0}, correlated_pairs=[(bR, aR)])
    return oracles.channel_traces(U, n, a0, bR, env)


def full_block_traces(basis, blocks, enc, dec, env, in_site, out_site):
    """T_z and s of P_dec (+)_w blocks[w] P_enc, the held columns cut from whole blocks."""
    held, z_terms, s_terms = ed._plan(basis, enc, dec, env, in_site, out_site)
    tz, s = ed._contract(z_terms, s_terms, [
        np.ascontiguousarray(b[:, c])[:, :, None] for b, c in zip(blocks, held)
    ], 1)
    return {"z": complex(tz[0]), "s": complex(s[0])}


def dense_eig(channel):
    """Per sector, the eigenvalues and dense V assembled from the diagonal blocks."""
    return [(w, scipy.linalg.block_diag(*blocks)) for w, blocks in channel._eig]


def sector_to_dense(H: ed.SectorHamiltonian) -> np.ndarray:
    """Reassemble the full 2^n Hamiltonian from the sector blocks."""
    n = H.n
    out = np.zeros((1 << n, 1 << n))
    for idx, block in zip(H.basis.sectors, H.blocks):
        out[np.ix_(idx, idx)] = block
    return out


class TestSectorConstruction:
    @staticmethod
    def check_against_kron(K):
        # every off-diagonal entry is a single K_ij in both, so they agree bit
        # for bit; the diagonal sums fields in another order
        H = sector_to_dense(ed.build_many_body(K))
        dense = oracles.h_from_k(K)
        off = ~np.eye(len(H), dtype=bool)
        assert np.array_equal(H[off], dense.real[off])
        assert np.allclose(np.diagonal(H), np.diagonal(dense).real, rtol=0.0, atol=1e-12)
        assert not dense.imag.any()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_match_dense_kron(self, seed):
        self.check_against_kron(random_k(5, seed))

    @pytest.mark.parametrize("K", [
        dipolar_k(4, "nnn_cancelled", 0.55),
        dipolar_k(4, "nnn_cancelled", 0.55, register_field=0.3),
        dipolar_k(3, "full_dipolar", 0.4, register_field=-0.2),
        random_k(5, 4, zero_bond=(1, 3)),
        random_k(6, 5, zero_bond=(0, 5)),
        np.array([[0.3]]),
        np.array([[0.1, -0.7], [-0.7, 0.0]]),
        uniform_k(1, 0.4, register_field=0.25),
        uniform_k(4, 0.4, register_field=0.2),
    ], ids=["nnn-cancelled", "nnn-cancelled-field", "dipolar-field", "random-zero-bond",
            "random-zero-end-bond", "1-site", "2-site", "3-site-field", "uniform-field"])
    def test_bond_rule_matches_dense_kron(self, K):
        self.check_against_kron(K)

    def test_from_k_single_excitation_block(self):
        K = uniform_k(3, 0.4, register_field=0.2)
        H = ed.build_many_body(K)
        # sector of Hamming weight 1, ordered by bit position = site index
        block = H.blocks[1]
        assert np.allclose(block, K, atol=1e-12)

    def test_sector_dimensions(self):
        basis = ed.SectorBasis(6)
        assert [len(s) for s in basis.sectors] == [math.comb(6, w) for w in range(7)]

    def test_resource_cap(self):
        # one real set of sector blocks at 15 spins:
        # sum_w C(15, w)^2 * 8 B = C(30, 15) * 8 B = 1.24 GB; an encoded
        # engine peaks at 1.1 of them plus 1.3 times one time's half set,
        # a plain channel at 3.6
        K = np.zeros((15, 15))
        tracemalloc.start()
        try:
            with pytest.raises(ed.ResourceLimitError, match=r"about 2\.2 GB .* about 4\.5 GB"):
                ed.build_many_body(K, cap=14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # raised before any basis or block exists
        with pytest.raises(ed.ResourceLimitError):
            ed.build_many_body(np.zeros((9, 9)), cap=8)
        # the encoded engine eigensolves 12 active sites, but 14 spins exceed a cap of 13
        with pytest.raises(ed.ResourceLimitError):
            ed.EncodedProtocolEngine(np.zeros((12, 12)), cap=13)

    def test_complex_k_rejected(self):
        # an imaginary hopping would be dropped by a float cast
        K = uniform_k(3, 0.4).astype(complex)
        K[1, 2], K[2, 1] = 1j, -1j
        with pytest.raises(ValueError, match="real"):
            ed.build_many_body(K)
        with pytest.raises(ValueError, match="real"):
            ed.transfer_channel_traces(K, 2.0, "double_swap")
        # a complex dtype with no imaginary part is the real matrix
        real = uniform_k(3, 0.4)
        H = ed.build_many_body(real.astype(complex))
        assert all(np.array_equal(a, b) for a, b in
                   zip(H.blocks, ed.build_many_body(real).blocks))

    def test_asymmetric_couplings_rejected(self):
        J = np.zeros((3, 3))
        J[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            ed.build_many_body(J)
        # off by 5e-6 relative: numpy's default rtol of 1e-5 would accept it
        J[1, 0] = 1.0 + 5e-6
        with pytest.raises(ValueError, match="symmetric"):
            ed.build_many_body(J)

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("entry", [
        ed.build_many_body,
        ed.EncodedProtocolEngine,
        lambda K: ed.transfer_channel_traces(K, 1.0, "remote_z"),
    ], ids=["build_many_body", "EncodedProtocolEngine", "transfer_channel_traces"])
    def test_non_finite_k_rejected(self, entry, value):
        # a non-finite coupling would reach the eigensolver, whose NaN
        # eigenvalues or convergence error would not name the fault
        K = uniform_k(3, 0.5)
        K[2, 3] = K[3, 2] = value
        with pytest.raises(ValueError, match="finite"):
            entry(K)

    @pytest.mark.parametrize("K", [1.0, np.zeros(3)], ids=["scalar", "vector"])
    def test_channel_traces_reject_non_matrix_k(self, K):
        # K is validated before its shape sizes the chain_bits check
        with pytest.raises(ValueError, match="K must be a square matrix"):
            ed.transfer_channel_traces(K, 1.0, "remote_z")

    def test_unitary_blocks(self):
        K = uniform_k(3, 0.4)
        H = ed.build_many_body(K)
        for U in oracles.sector_unitaries(H.eig(), 1.7):
            assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-10)


def with_fields(K, fields):
    K = K.copy()
    np.fill_diagonal(K, fields)
    return K


def mirrored_fields(n):
    """Mirror-symmetric fields in eighths, so that every sum of them is exact."""
    h = (np.arange(n) % 3 - 1) / 8.0
    return h + h[::-1]


def random_mirrored_fields(n):
    """Mirror-symmetric fields of generic values, whose sums round."""
    h = np.random.default_rng(1).uniform(-0.4, 0.4, n)
    return h + h[::-1]


# n-site matrices K whose sector blocks are exactly invariant under site reversal
MIRROR_KS = {
    "uniform": lambda n: uniform_k(n - 2, 0.4),
    "cube_law": lambda n: protocol_k(cube_law_j(n - 2), 0.55),
    "mirrored_fields": lambda n: with_fields(uniform_k(n - 2, 0.4), mirrored_fields(n)),
    # build_many_body sums the fields by mirror pairs, so these stay exact too
    "random_mirrored_fields": lambda n: with_fields(uniform_k(n - 2, 0.4),
                                                    random_mirrored_fields(n)),
}


def disordered_k(n):
    K = uniform_k(n - 2, 0.4)
    bonds = np.random.default_rng(n).uniform(0.5, 1.5, n - 1)
    K[np.arange(n - 1), np.arange(1, n)] = K[np.arange(1, n), np.arange(n - 1)] = bonds
    return K


def unequal_ends_k(n):
    K = uniform_k(n - 2, 0.4)
    K[0, 1] = K[1, 0] = 0.3
    return K


# ... and whose blocks are not
ASYMMETRIC_KS = {
    "disordered": disordered_k,
    "one_sided_field": lambda n: with_fields(uniform_k(n - 2, 0.4), np.eye(n)[1] / 4),
    "unequal_ends": unequal_ends_k,
}


def assert_eig_matches_eigh(H):
    """Every sector's eigenpairs against eigh of its block, to 1e-12."""
    for block, (w, V) in zip(H.blocks, H.eig()):
        assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(block))) <= 1e-12
        assert np.max(np.abs(block @ V - V * w)) <= 1e-12
        assert np.max(np.abs(V.T @ V - np.eye(w.size))) <= 1e-12


def big_sectors(n):
    """How many sectors of n sites reach the parity-split floor."""
    return sum(math.comb(n, w) >= ed._SPLIT_MIN_DIM for w in range(n + 1))


class TestParitySplit:
    """``SectorHamiltonian.eig`` splits mirror-symmetric sectors by parity."""

    # odd and even n: both have self-mirrored states, and sectors above the floor
    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("name", MIRROR_KS)
    def test_mirror_symmetric_k_splits(self, name, n):
        H = ed.build_many_body(MIRROR_KS[name](n))
        assert_eig_matches_eigh(H)
        assert (H.split_sectors, H.whole_sectors) == (big_sectors(n), n + 1 - big_sectors(n))
        # with no floor every sector splits, the small ones too
        with mock.patch.object(ed, "_SPLIT_MIN_DIM", 1):
            H = ed.build_many_body(MIRROR_KS[name](n))
            assert_eig_matches_eigh(H)
        assert (H.split_sectors, H.whole_sectors) == (n + 1, 0)

    @pytest.mark.parametrize("n", [9, 10])
    @pytest.mark.parametrize("name", ASYMMETRIC_KS)
    def test_asymmetric_k_solved_whole(self, name, n):
        H = ed.build_many_body(ASYMMETRIC_KS[name](n))
        assert_eig_matches_eigh(H)
        assert (H.split_sectors, H.whole_sectors) == (0, n + 1)
        # with no floor only the one-state sectors, all 0s or all 1s, split
        with mock.patch.object(ed, "_SPLIT_MIN_DIM", 1):
            H = ed.build_many_body(ASYMMETRIC_KS[name](n))
            assert_eig_matches_eigh(H)
        assert (H.split_sectors, H.whole_sectors) == (2, n - 1)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 9), seed=st.integers(0, 2**32 - 1))
    def test_random_mirrored_couplings(self, n, seed):
        rng = np.random.default_rng(seed)
        A = rng.normal(size=(n, n))
        A = A + A.T
        # exactly mirror-symmetric: a + b == b + a in floating point
        K = with_fields(A + A[::-1, ::-1], mirrored_fields(n))
        with mock.patch.object(ed, "_SPLIT_MIN_DIM", 1):
            H = ed.build_many_body(K)
            assert_eig_matches_eigh(H)
        assert (H.split_sectors, H.whole_sectors) == (n + 1, 0)

    def test_12_spin_uniform_chain_splits_every_sector_above_the_floor(self):
        # the sectors of 220 to 924 states carry most of a 12-spin eigensolve
        n = 12
        H = ed.build_many_body(uniform_k(n - 2, 0.4))
        H.eig()
        assert H.split_sectors == big_sectors(n) == 7
        assert H.whole_sectors == n + 1 - 7
        # an engine counts its 10 active sites' sectors: 120 to 252 states split
        engine = ed.EncodedProtocolEngine(uniform_k(8, 0.5))
        assert (engine.split_sectors, engine.whole_sectors) == (5, 6)

    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_channels_agree_with_whole_eigensolves(self, kind):
        # split (unsorted, other eigenvectors in degenerate spaces) or
        # whole, the traces are the same
        K = uniform_k(8, 0.4)
        got = ed.transfer_channel_traces(K, 7.3, kind)
        with mock.patch.object(ed, "_SPLIT_MIN_DIM", math.inf):
            want = ed.transfer_channel_traces(K, 7.3, kind)
        for key in ("x", "y", "z", "s"):
            assert abs(got[key] - want[key]) <= 1e-13

    def test_engine_agrees_with_whole_eigensolves(self):
        K = protocol_k(cube_law_j(6), 0.55)
        times = np.linspace(4.0, 12.0, 5)
        with mock.patch.object(ed, "_SPLIT_MIN_DIM", 1):
            engine = ed.EncodedProtocolEngine(K)
            got = engine.fidelities(times)
        assert (engine.split_sectors, engine.whole_sectors) == (9, 0)
        want = ed.EncodedProtocolEngine(K).fidelities(times)
        for a, b in zip(got, want):
            for key in ("x", "y", "z", "s"):
                assert abs(a.traces[key] - b.traces[key]) <= 1e-13


class TestChannelTracesAgainstDenseOracle:
    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_plain_channels(self, kind):
        rng = np.random.default_rng(42)
        N = 3
        n = N + 2
        K = uniform_k(N, rng.uniform(0.1, 0.9))
        t = rng.uniform(1.0, 20.0)
        got = ed.transfer_channel_traces(K, t, kind)

        U1 = oracles.unitary(oracles.h_from_k(K), t)
        if kind == "remote_z":
            U = U1 @ oracles.op_on(oracles.SZ, n - 1, n) @ U1
            out_site = 0
        elif kind == "single_swap":
            U, out_site = U1, n - 1
        else:
            U, out_site = U1, 0
        env = oracles.env_diag(n, 0)
        want = oracles.channel_traces(U, n, 0, out_site, env)
        for key in ("x", "y", "z", "s"):
            assert got[key] == pytest.approx(want[key], abs=1e-10)

    def test_polarized_chain_bits(self):
        N = 4
        K = uniform_k(N, 0.5)
        bits = np.array([1, 0, 1, 1])
        got = ed.transfer_channel_traces(K, 3.3, "single_swap", chain_bits=bits)
        n = N + 2
        U = oracles.unitary(oracles.h_from_k(K), 3.3)
        env = oracles.env_diag(n, 0, fixed={1 + i: int(b) for i, b in enumerate(bits)})
        want = oracles.channel_traces(U, n, 0, n - 1, env)
        for key in ("x", "y", "z", "s"):
            assert got[key] == pytest.approx(want[key], abs=1e-10)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ed.transfer_channel_traces(uniform_k(2, 0.2), 1.0, "teleport")

    @pytest.mark.parametrize("bits", [
        [0, 1, 1, 0],  # one bit too many would pin the output register
        [1, 0],  # one too few would leave a chain site mixed
        [0, 2, 1],  # not a bit value
    ])
    def test_malformed_chain_bits(self, bits):
        with pytest.raises(ValueError, match="chain_bits"):
            ed.transfer_channel_traces(uniform_k(3, 0.5), 3.3, "single_swap", chain_bits=bits)

    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_negative_time(self, kind):
        with pytest.raises(ValueError, match="non-negative"):
            ed.transfer_channel_traces(uniform_k(3, 0.5), -1.0, kind)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_non_finite_time(self, kind, t):
        with pytest.raises(ValueError, match="finite and non-negative"):
            ed.transfer_channel_traces(uniform_k(3, 0.5), t, kind)


class TestEncodedProtocol:
    def test_matches_dense_oracle(self):
        K = uniform_k(3, 0.6)
        res = ed.EncodedProtocolEngine(K).fidelities([4.2])[0]
        want = dense_protocol_traces(K, 4.2, 4.2)
        for key in ("x", "y", "z", "s"):
            assert res.traces[key] == pytest.approx(want[key], abs=1e-10)
        assert res.fidelity == pytest.approx(oracles.avg_fidelity(want), abs=1e-10)
        assert res.fidelity_phase_corrected == pytest.approx(
            oracles.phase_corrected_fidelity(want), abs=1e-10
        )

    @pytest.mark.parametrize("t", [3.7, 5.9])
    def test_engine_dipolar_fields_against_dense_oracle(self, t):
        N = 4
        r = np.arange(N, dtype=float)
        dist = np.abs(r[:, None] - r[None, :])
        np.fill_diagonal(dist, 1.0)
        J = 1.0 / dist**3
        np.fill_diagonal(J, 0.0)
        K = protocol_k(J, 0.55, [0.3, -0.2, 0.15, -0.4])
        got = ed.EncodedProtocolEngine(K).fidelities([t])[0].traces
        want = dense_protocol_traces(K, t, t)
        for key in ("x", "y", "z", "s"):
            assert got[key] == pytest.approx(want[key], abs=1e-10)

    @pytest.mark.parametrize("K, match", [
        pytest.param(1.0, "square", id="scalar"),
        pytest.param(np.zeros((3, 4)), "square", id="not-square"),
        pytest.param(np.zeros(5), "square", id="vector"),
        pytest.param(np.zeros((2, 2)), "N >= 1", id="no-chain"),
        pytest.param(protocol_k(np.triu(np.ones((3, 3)), 1), 0.5), "symmetric", id="asymmetric"),
        pytest.param(uniform_k(3, 0.5) * (1.0 + 1.0j), "real", id="complex"),
        # the idle pair carries no field, so a register field is rejected
        pytest.param(uniform_k(3, 0.5, register_field=0.2), "register", id="register-fields"),
        pytest.param(uniform_k(3, 0.5) + np.diag([0.2, 0.0, 0.0, 0.0, 0.0]), "register",
                     id="field-on-register-0"),
        pytest.param(uniform_k(3, 0.5) + np.diag([0.0, 0.0, 0.0, 0.0, -0.2]), "register",
                     id="field-on-register-N+1"),
        pytest.param(uniform_k(3, 0.5) + np.diag([np.nan, 0.0, 0.0, 0.0, 0.0]), "register",
                     id="nan-on-register-0"),
    ])
    def test_engine_input_shapes(self, K, match):
        with pytest.raises(ValueError, match=match):
            ed.EncodedProtocolEngine(K)

    def test_zero_time_is_identity_legs(self):
        # with no evolution the receiving pair never correlates with the
        # input, so the channel is maximally forgetful: F = 1/2
        res = ed.EncodedProtocolEngine(uniform_k(2, 0.5)).fidelities([0.0])[0]
        assert res.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_bounds(self):
        N = 3
        rng = np.random.default_rng(5)
        J = rng.normal(size=(N, N))
        J = np.abs(J + J.T)
        np.fill_diagonal(J, 0.0)
        res = ed.EncodedProtocolEngine(protocol_k(J, 0.8)).fidelities([3.0])[0]
        assert 0.0 <= res.fidelity <= 1.0
        assert res.fidelity <= res.fidelity_phase_corrected <= 1.0


class TestEnvironmentWeights:
    def test_weights_normalized_per_input_value(self):
        n = 5
        w = ed.mixed_environment(n, 1, fixed={0: 1}, correlated_pairs=[(3, 4)])
        idx = np.arange(1 << n)
        for val in (0, 1):
            sel = ((idx >> 1) & 1) == val
            assert np.sum(w[sel]) == pytest.approx(1.0)

    def test_matches_oracle(self):
        n = 6
        a = ed.mixed_environment(n, 2, fixed={0: 0}, correlated_pairs=[(4, 5)])
        b = oracles.env_diag(n, 2, fixed={0: 0}, correlated_pairs=[(4, 5)])
        assert np.allclose(a, b)


def leg_hamiltonian(K, leg: str) -> ed.SectorHamiltonian:
    """Full-space Hamiltonian of one transfer leg."""
    return ed.build_many_body(oracles.protocol_leg_ks(K)["ab".index(leg)])


def dipolar_k(N):
    """Leg a's matrix on a full cube-law chain with non-zero chain fields."""
    return protocol_k(cube_law_j(N), 0.55, np.random.default_rng(N).uniform(-0.4, 0.4, N))


class TestFactoredEngine:
    """The one-eigensolve, live-column engine against the two-leg product."""

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_leg_swap_maps_leg_a_onto_leg_b(self, N):
        K = dipolar_k(N)
        engine = ed.EncodedProtocolEngine(K)
        Ha = leg_hamiltonian(K, "a")
        Hb = leg_hamiltonian(K, "b")
        for idx, A, B in zip(Ha.basis.sectors, Ha.blocks, Hb.blocks):
            perm = Ha.basis.position[engine.leg_swap[idx]]
            assert np.array_equal(A[perm][:, perm], B)

    @pytest.mark.parametrize("n_total", [6, 8, 10, 12])
    def test_matches_two_leg_oracle(self, n_total):
        N = n_total - 4
        K = dipolar_k(N)
        Ha = leg_hamiltonian(K, "a")
        eig_a = [np.linalg.eigh(b) for b in Ha.blocks]
        eig_b = [np.linalg.eigh(b) for b in leg_hamiltonian(K, "b").blocks]
        # sites {0a, 1..N, (N+1)a, 0b, (N+1)b}
        in_site, a, b0, b = 0, N + 1, N + 2, N + 3
        env = ed.mixed_environment(n_total, in_site, fixed={b0: 0},
                                   correlated_pairs=[(b, a)])
        enc = ed._cnot_perm(n_total, in_site, b0)
        times = (1.3 * N, 1.6 * N)
        products = [oracles.sector_leg_product(eig_a, eig_b, t, t) for t in times]
        dec = ed._cnot_perm(n_total, b, a)
        for res, blocks in zip(ed.EncodedProtocolEngine(K).fidelities(times), products):
            want = full_block_traces(Ha.basis, blocks, enc, dec, env, in_site, b)
            for key in want:
                assert abs(res.traces[key] - want[key]) <= 1e-12

    @pytest.mark.parametrize("n_total", [6, 8, 10, 12])
    def test_leg_a_eigenpairs_from_active_sites(self, n_total):
        # the eigenpairs assembled from the n - 2 active sites against
        # eigh of each n-site leg-a block (chain fields on)
        K = dipolar_k(n_total - 4)
        engine = ed.EncodedProtocolEngine(K)
        Ha = leg_hamiltonian(K, "a")
        for H, (w, V) in zip(Ha.blocks, dense_eig(engine._channel)):
            assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(H))) <= 1e-12
            assert np.max(np.abs(V.T @ V - np.eye(len(w)))) <= 1e-12
            assert np.max(np.abs(H @ V - V * w)) <= 1e-12

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_leg_a_blocks_tile_the_idle_patterns(self, N):
        # 0b and (N+1)b are the two top bits, so each sector holds the idle
        # patterns 00, 01, 10, 11 in turn, each in its active sector's order
        n = N + 4
        engine = ed.EncodedProtocolEngine(dipolar_k(N))
        # the leg swap exchanges K's registers 0 and N+1 with the top bits
        assert engine.leg_swap[1] == 1 << (n - 2)
        assert engine.leg_swap[1 << (N + 1)] == 1 << (n - 1)
        basis, active = ed.SectorBasis(n), ed.SectorBasis(n - 2)
        for w, (energies, blocks) in enumerate(engine._channel._eig):
            idx = basis.sectors[w]
            want = [(code, w - k) for code, k in ((0, 0), (1, 1), (2, 1), (3, 2))
                    if 0 <= w - k <= n - 2]
            assert len(blocks) == len(want)
            start = 0
            for U, (code, w_act) in zip(blocks, want):
                rows = idx[start : start + U.shape[0]]
                assert U.shape == (active.sectors[w_act].size,) * 2
                assert np.array_equal(rows, active.sectors[w_act] + (code << (n - 2)))
                start += U.shape[0]
            assert start == idx.size == energies.size
            # the patterns 01 and 10 share one array
            shared = [U for U, (code, _) in zip(blocks, want) if code in (1, 2)]
            assert len(shared) in (0, 2) and all(U is shared[0] for U in shared)

    def test_blocks_hold_a_quarter_of_the_columns(self):
        # 0b is fixed and the receiving pair correlated: a quarter of the
        # basis states carry environment weight
        N = 4
        n = N + 4
        engine = ed.EncodedProtocolEngine(dipolar_k(N))
        held = sum(len(c) for c in engine._channel._cols)
        assert held == (1 << n) // 4
        basis, enc, _, env, _, _ = case = engine_case(N)
        cols, _, _ = ed._plan(*case)
        assert all(np.array_equal(a, b) for a, b in zip(cols, engine._channel._cols))
        # the held columns are the states enc[c] of the weighted columns c
        states = np.concatenate([idx[c] for idx, c in zip(basis.sectors, cols)])
        assert np.array_equal(np.sort(states), np.sort(enc[np.flatnonzero(env)]))

    def test_negative_time_rejected(self):
        engine = ed.EncodedProtocolEngine(uniform_k(2, 0.5))
        with pytest.raises(ValueError):
            engine.fidelities([-1.0])
        with pytest.raises(ValueError):
            engine.fidelities([1.0, -1.0, 2.0])
        with pytest.raises(ValueError, match="times must be a 1-D array"):
            engine.fidelities(5.0)

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        engine = ed.EncodedProtocolEngine(uniform_k(2, 0.5))
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.fidelities([t])
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.fidelities([1.0, t, 2.0])

    def test_missing_column_rejected(self):
        # an environment that weighs the input site holds the columns of
        # one input bit only, and not their partners with the bit flipped
        n = 4
        identity = np.arange(1 << n)
        for bit in (0, 1):
            env = ed.mixed_environment(n, 0, fixed={0: bit})
            with pytest.raises(ValueError, match="lack a column"):
                ed._plan(ed.SectorBasis(n), identity, identity, env, 0, n - 1)


def assert_batch_matches_points(engine, times):
    """``fidelities`` against one single-time call per time, to 1e-13."""
    batch = engine.fidelities(times)
    assert len(batch) == len(times)
    for res, t in zip(batch, times):
        (one,) = engine.fidelities([float(t)])
        for key in ("x", "y", "z", "s"):
            assert abs(res.traces[key] - one.traces[key]) <= 1e-13
        assert abs(res.fidelity - one.fidelity) <= 1e-13
        assert abs(res.fidelity_phase_corrected - one.fidelity_phase_corrected) <= 1e-13


class TestBatchedFidelities:
    """``EncodedProtocolEngine.fidelities`` over a batch equals it one time at a time."""

    @pytest.fixture(scope="class")
    def engine(self):
        return ed.EncodedProtocolEngine(dipolar_k(4))

    def test_zero_time(self, engine):
        assert_batch_matches_points(engine, [0.0, 0.0, 3.0])
        assert engine.fidelities([0.0])[0].fidelity == pytest.approx(0.5, abs=1e-12)

    def test_uneven_times(self, engine):
        assert_batch_matches_points(engine, [0.3, 7.9, 1.1, 1.15, 25.0, 4.0])

    def test_single_time(self, engine):
        assert_batch_matches_points(engine, [5.2])

    def test_empty_grid(self, engine):
        assert engine.fidelities([]) == []

    def test_grid_split_into_batches_at_12_spins(self):
        N = 8
        engine = ed.EncodedProtocolEngine(dipolar_k(N))
        channel = engine._channel
        per_time = 16 * sum(
            V.shape[0] * len(c) for (_, V), c in zip(dense_eig(channel), channel._cols)
        )
        assert 1 < channel._batch and channel._batch * per_time <= ed._BATCH_BYTES
        times = np.linspace(0.7, 1.3, channel._batch + 2) * 1.3 * N
        assert_batch_matches_points(engine, times)


class TestTransferChannelsAgainstEvolveBlocks:
    """Factored transfer blocks against full unitary blocks (U, or U S U)."""

    # an odd and an even n: remote_z reflects on the rows of its flipped bit
    # in the sectors w <= n/2, and on the other rows, the fewer, above n/2
    @pytest.mark.parametrize("kind, polarized, n", [
        pytest.param(kind, polarized, n, id=f"{kind}-{polarized}" + ("" if n == 9 else f"-n{n}"))
        for n in (9, 10)
        for kind in ("double_swap", "single_swap", "remote_z")
        for polarized in (False, True)
    ])
    def test_kinds(self, kind, polarized, n):
        rng = np.random.default_rng(7)
        K = rng.uniform(0.2, 1.0, (n, n)) / (1.0 + np.abs(np.subtract.outer(
            np.arange(n), np.arange(n))) ** 3)
        K = K + K.T
        np.fill_diagonal(K, rng.uniform(-0.3, 0.3, n))
        t = 7.3
        bits = rng.integers(0, 2, n - 2) if polarized else None
        got = ed.transfer_channel_traces(K, t, kind, chain_bits=bits)

        H = ed.build_many_body(K)
        U = oracles.sector_unitaries(H.eig(), t)
        if kind == "remote_z":
            U = [(u * (1.0 - 2.0 * ((idx >> (n - 1)) & 1))) @ u
                 for u, idx in zip(U, H.basis.sectors)]
        fixed = {} if bits is None else {1 + i: int(b) for i, b in enumerate(bits)}
        identity = np.arange(1 << n)
        want = full_block_traces(
            H.basis, U, identity, identity, ed.mixed_environment(n, 0, fixed=fixed),
            0, n - 1 if kind == "single_swap" else 0,
        )
        for key in want:
            assert abs(got[key] - want[key]) <= 1e-12


# trace -> (flip, input and output operator values on bits 0 and 1):
# op|b> = value_b |b ^ flip>.  Bit 0 is spin up, so s takes the input
# |1><0| (lowers) to the output |0><1| (raises).
TRACE_OPS = {"z": (0, np.array([1.0, -1.0]), np.array([1.0, -1.0])),
             "s": (1, np.array([1.0, 0.0]), np.array([0.0, 1.0]))}


def unfiltered_weight_sums(basis, enc, dec, env, in_site, out_site):
    """Per (trace, w, w2), the summed q and d over every row and column, zeros kept.

    Rows and columns are grouped by the sector pair that V[r, c] and its
    flipped partner fall in, as the contraction pairs them; a pair counts
    only if both rows and columns reach it.
    """
    stride = basis.n + 1
    states = np.arange(1 << basis.n)
    live = np.flatnonzero(env)
    sums = {}
    for key, (flip, op_in, op_out) in TRACE_OPS.items():
        q = op_out[((states >> out_site) & 1) ^ flip]
        d = op_in[(live >> in_site) & 1] * env[live]
        row_pair = basis.weights[dec] * stride + basis.weights[dec[states ^ (flip << out_site)]]
        col_pair = basis.weights[enc[live]] * stride + basis.weights[enc[live ^ (flip << in_site)]]
        for pair in set(row_pair.tolist()) & set(col_pair.tolist()):
            sums[(key, *divmod(pair, stride))] = (q[row_pair == pair].sum(),
                                                  d[col_pair == pair].sum())
    return sums


def engine_case(N):
    """The basis, permutations, environment and sites of an engine with N chain sites."""
    n = N + 4
    a0, aR, b0, bR = 0, N + 1, N + 2, N + 3
    dec = ed._swap_perm(n, [(a0, b0), (bR, aR)])[ed._cnot_perm(n, bR, aR)]
    env = ed.mixed_environment(n, a0, fixed={b0: 0}, correlated_pairs=[(bR, aR)])
    return ed.SectorBasis(n), ed._cnot_perm(n, a0, b0), dec, env, a0, bR


def chain_bits_cases(n):
    """Plain channels of n sites, chain bits pinned, read at either end."""
    identity = np.arange(1 << n)
    bits = np.random.default_rng(3).integers(0, 2, n - 2)
    env = ed.mixed_environment(n, 0, fixed={1 + i: int(b) for i, b in enumerate(bits)})
    return [(ed.SectorBasis(n), identity, identity, env, 0, out_site) for out_site in (0, n - 1)]


PLAN_CASES = {"engine": engine_case(4), "engine-N1": engine_case(1),
              "plain-read-at-0": chain_bits_cases(8)[0],
              "plain-read-at-n-1": chain_bits_cases(8)[1],
              "plain-mixed": (ed.SectorBasis(6), np.arange(64), np.arange(64),
                              ed.mixed_environment(6, 0), 0, 5)}


class TestTracePlan:
    """The plan weighs only what the traces weigh.

    Every s term keeps only rows of output bit 0 (each of weight 1) and
    columns of non-zero weight, every T_z term is diagonal (its weights in
    block order), and per sector pair the weights sum as with every row
    and column kept.
    """

    @staticmethod
    def assert_plan(plan, sums):
        _, z_terms, s_terms = plan
        got = {("z", w, w): (q.sum(), d.sum()) for w, q, d in z_terms}
        assert len(got) == len(z_terms)
        for w, w2, rows, _, _, _, d in s_terms:
            assert np.all(d != 0)
            q_sum, d_sum = got.get(("s", w, w2), (0.0, 0.0))
            got[("s", w, w2)] = (q_sum + rows.size, d_sum + d.sum())
        # a pair the plan drops carries no weight
        assert got.keys() <= sums.keys()
        for pair, (q, d) in sums.items():
            assert got.get(pair, (0.0, 0.0)) == pytest.approx((q, d), abs=1e-12)

    def test_plain_channel_with_chain_bits(self):
        for args in chain_bits_cases(8):
            self.assert_plan(ed._plan(*args), unfiltered_weight_sums(*args))

    def test_engine(self):
        N = 4
        channel = ed.EncodedProtocolEngine(dipolar_k(N))._channel
        self.assert_plan((channel._cols, channel._z_terms, channel._s_terms),
                         unfiltered_weight_sums(*engine_case(N)))

    @pytest.mark.parametrize("case", PLAN_CASES)
    def test_terms_cover_the_weighted_columns(self, case):
        basis, enc, dec, env, in_site, out_site = PLAN_CASES[case]
        held, z_terms, s_terms = ed._plan(basis, enc, dec, env, in_site, out_site)
        # held column j of sector w is the basis state sectors[w][held[w][j]]
        s_cols = [basis.sectors[w][held[w][cols]] for w, _, _, cols, _, _, _ in s_terms]
        live = np.flatnonzero(env)
        want = enc[live[((live >> in_site) & 1) == 0]]
        # each weighted column of input bit 0 exactly once
        assert np.array_equal(np.sort(np.concatenate(s_cols)), np.sort(want))
        # one T_z term per sector with held columns, each spanning its whole block
        assert [w for w, _, _ in z_terms] == [w for w, c in enumerate(held) if c.size]
        for w, q, d in z_terms:
            assert q.size == basis.sectors[w].size and d.size == held[w].size
            assert np.all(np.abs(q) == 1.0) and np.all(d != 0)


def assert_x_and_y_from_s(traces, tol):
    """T_x = T_y and T_x + T_y = 4 Re s, to ``tol``."""
    assert abs(traces["x"] - traces["y"]) <= tol
    assert abs(traces["x"] + traces["y"] - 4.0 * traces["s"].real) <= tol


class TestTraceIdentity:
    """T_x = T_y = 2 Re s, which lets ``ed`` contract only T_z and s.

    T_x + T_y = 4 Re s holds for any channel, and T_x = T_y for an
    excitation-conserving one.  The identity is checked on the Kronecker
    oracle, which shares no code with ``ed``.
    """

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_plain_channels_with_random_site_weights(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 5
        # every pair bonded, with chain fields
        K = rng.uniform(0.2, 1.0, (n, n))
        K = K + K.T
        np.fill_diagonal(K, rng.uniform(-0.3, 0.3, n))
        U = oracles.unitary(oracles.h_from_k(K), rng.uniform(1.0, 10.0))
        if kind == "remote_z":
            U = U @ oracles.op_on(oracles.SZ, n - 1, n) @ U
        p = rng.uniform(0.0, 1.0, n)
        env = oracles.env_diag(n, 0, site_weights={q: (p[q], 1.0 - p[q]) for q in range(1, n)})
        traces = oracles.channel_traces(U, n, 0, n - 1 if kind == "single_swap" else 0, env)
        assert_x_and_y_from_s(traces, 1e-12)

    def test_encoded_protocol_with_unequal_legs(self):
        assert_x_and_y_from_s(dense_protocol_traces(dipolar_k(3), 2.0, 5.0), 1e-12)

    def test_engine_and_kinds_return_two_re_s(self):
        res = ed.EncodedProtocolEngine(dipolar_k(3)).fidelities([0.0, 2.0, 5.0])
        kinds = [ed.transfer_channel_traces(uniform_k(3, 0.5), 4.1, kind)
                 for kind in ("double_swap", "single_swap", "remote_z")]
        for traces in [r.traces for r in res] + kinds:
            assert traces["x"] == traces["y"] == complex(2 * traces["s"].real)


class TestEngineMemory:
    def test_built_engine_holds_the_overlaps_and_the_blocks(self):
        # in real sets of sector blocks: the overlaps O_w are one set, and
        # V_a is held only as its diagonal blocks (3 C(10, w)-sized squares
        # per sector at most, 0.2 sets); a dense V_a would be another set
        # (measured: 1.09 sets, and 2.02 with a dense V_a)
        N = 8
        n = N + 4
        sets = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 8
        K = dipolar_k(N)
        ed.EncodedProtocolEngine(uniform_k(2, 0.5))
        tracemalloc.start()
        try:
            engine = ed.EncodedProtocolEngine(K)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(engine._channel._eig) == n + 1
        assert held < 1.5 * sets

    def test_cap_message_quotes_the_batch_packed_peak(self):
        # below 13 spins a batch packs many times, so the batch, not the 1.1
        # held sets, sets the peak (measured: 61 sets at 10 spins, 100 times)
        N = 6
        with pytest.raises(ed.ResourceLimitError) as err:
            ed.EncodedProtocolEngine(dipolar_k(N), cap=N + 3)
        quoted = float(re.search(r"engine peaks at about ([0-9.]+) GB", str(err.value))[1]) * 1e9
        ed.EncodedProtocolEngine(uniform_k(2, 0.5)).fidelities([1.0])
        tracemalloc.start()
        try:
            engine = ed.EncodedProtocolEngine(dipolar_k(N))
            engine.fidelities(np.linspace(5.0, 15.0, engine._channel._batch))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert 0.8 * quoted <= peak <= 1.25 * quoted


class TestTransferChannelMemory:
    @pytest.mark.parametrize("kind, bound", [
        ("double_swap", 5.0), ("single_swap", 5.0), ("remote_z", 5.0),
    ])
    def test_peak_memory_at_10_spins(self, kind, bound):
        # in real sets of sector blocks; the Hamiltonian blocks are dropped
        # after the eigensolve, and no kind holds an overlap: remote_z
        # reflects between its legs with thin products of V
        # (measured: 3.78 sets for the swaps and for remote_z)
        n = 10
        K = uniform_k(n - 2, 0.4)
        sets = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 8
        # a first call in a process imports lazily loaded modules (0.75 sets)
        ed.transfer_channel_traces(K, 7.3, kind)
        tracemalloc.start()
        try:
            ed.transfer_channel_traces(K, 7.3, kind)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= bound * sets
