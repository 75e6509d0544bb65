import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from spinbus import ed


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


def full_block_traces(basis, blocks, enc, dec, env, in_site, out_site):
    """Traces of P_dec (+)_w blocks[w] P_enc, every column of every block held."""
    plan = ed._trace_plan(basis, enc, dec, basis.position, env, in_site, out_site)
    traces = ed._contract(plan, [b[:, :, None] for b in blocks], 1)
    return {key: complex(v[0]) for key, v in traces.items()}


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
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_blocks_match_dense_kron(self, seed):
        rng = np.random.default_rng(seed)
        n = 5
        J = rng.normal(size=(n, n))
        J = J + J.T
        np.fill_diagonal(J, 0.0)
        fields = rng.normal(size=n)
        H = ed.build_many_body(J, n, fields)
        dense = oracles.flip_flop_h(J, n, fields)
        assert np.allclose(sector_to_dense(H), dense.real, atol=1e-12)
        assert np.max(np.abs(dense.imag)) == 0.0

    def test_from_k_single_excitation_block(self):
        K = uniform_k(3, 0.4, register_field=0.2)
        H = ed.build_many_body_from_k(K)
        # sector of Hamming weight 1, ordered by bit position = site index
        block = H.blocks[1]
        assert np.allclose(block, K, atol=1e-12)

    def test_sector_dimensions(self):
        basis = ed.SectorBasis(6)
        assert [len(s) for s in basis.sectors] == [math.comb(6, w) for w in range(7)]

    def test_resource_cap(self):
        # one real set of sector blocks at 15 spins:
        # sum_w C(15, w)^2 * 8 B = C(30, 15) * 8 B = 1.24 GB; an exact
        # channel peaks at two to five and a half of them
        J = np.zeros((15, 15))
        tracemalloc.start()
        try:
            with pytest.raises(ed.ResourceLimitError, match=r"about 2\.5-6\.8 GB"):
                ed.build_many_body(J, 15, cap=14)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # raised before any basis or block exists
        with pytest.raises(ed.ResourceLimitError):
            ed.build_many_body_from_k(np.zeros((9, 9)), cap=8)
        # the encoded engine eigensolves 12 active sites, but 14 spins exceed a cap of 13
        with pytest.raises(ed.ResourceLimitError):
            ed.EncodedProtocolEngine(10, np.zeros((10, 10)), 0.5, cap=13)

    def test_complex_k_rejected(self):
        # an imaginary hopping would be dropped by a float cast
        K = uniform_k(3, 0.4).astype(complex)
        K[1, 2], K[2, 1] = 1j, -1j
        with pytest.raises(ValueError, match="real"):
            ed.build_many_body_from_k(K)
        with pytest.raises(ValueError, match="real"):
            ed.transfer_channel_traces(K, 2.0, "double_swap")
        # a complex dtype with no imaginary part is the real matrix
        real = uniform_k(3, 0.4)
        H = ed.build_many_body_from_k(real.astype(complex))
        assert all(np.array_equal(a, b) for a, b in
                   zip(H.blocks, ed.build_many_body_from_k(real).blocks))

    def test_asymmetric_couplings_rejected(self):
        J = np.zeros((3, 3))
        J[0, 1] = 1.0
        with pytest.raises(ValueError):
            ed.build_many_body(J, 3)

    def test_unitary_blocks(self):
        K = uniform_k(3, 0.4)
        H = ed.build_many_body_from_k(K)
        for U in oracles.sector_unitaries(H.eig(), 1.7):
            assert np.allclose(U @ U.conj().T, np.eye(U.shape[0]), atol=1e-10)


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
    def _dense_protocol_traces(self, p: ed.ProtocolSpec):
        """The full encoded protocol rebuilt from dense kron primitives."""
        n = p.n_total
        N = p.n_chain
        site = p.site_index

        # the chain sites 1..N sit between 0a and (N+1)a
        first, last = site("0a") + 1, site("(N+1)a") - 1
        chain = slice(first, last + 1)

        def leg_u(leg, t):
            J = np.zeros((n, n))
            J[chain, chain] = p.chain_couplings
            left = site("0b") if leg == "b" else site("0a")
            right = site("(N+1)b") if leg == "b" else site("(N+1)a")
            J[left, first] = J[first, left] = p.g
            J[right, last] = J[last, right] = p.g
            fields = np.zeros(n)
            if p.chain_fields is not None:
                fields[chain] = p.chain_fields
            return oracles.unitary(oracles.flip_flop_h(J, n, fields), t)

        enc = oracles.cnot(n, site("0a"), site("0b"))
        if p.readout == "b":
            dec = oracles.cnot(n, site("(N+1)b"), site("(N+1)a"))
            out_site = site("(N+1)b")
        else:
            dec = oracles.cnot(n, site("(N+1)a"), site("(N+1)b"))
            out_site = site("(N+1)a")
        U = dec @ leg_u("b", p.t_b) @ leg_u("a", p.t_a) @ enc
        env = oracles.env_diag(
            n, site("0a"),
            fixed={site("0b"): 0},
            correlated_pairs=[(site("(N+1)b"), site("(N+1)a"))],
        )
        return oracles.channel_traces(U, n, site("0a"), out_site, env)

    @pytest.mark.parametrize("readout", ["b", "a"])
    def test_matches_dense_oracle(self, readout):
        N = 3
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        p = ed.ProtocolSpec(N, J, g=0.6, t_a=4.2, t_b=4.2, readout=readout)
        res = ed.exact_channel_fidelity(p)
        want = self._dense_protocol_traces(p)
        for key in ("x", "y", "z", "s"):
            assert res.traces[key] == pytest.approx(want[key], abs=1e-10)
        assert res.fidelity == pytest.approx(oracles.avg_fidelity(want), abs=1e-10)
        assert res.fidelity_phase_corrected == pytest.approx(
            oracles.phase_corrected_fidelity(want), abs=1e-10
        )

    def test_asymmetric_leg_times(self):
        N = 2
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = ed.ProtocolSpec(N, J, g=0.5, t_a=2.0, t_b=5.0)
        res = ed.exact_channel_fidelity(p)
        want = self._dense_protocol_traces(p)
        for key in ("x", "y", "z", "s"):
            assert res.traces[key] == pytest.approx(want[key], abs=1e-10)

    def test_engine_matches_one_shot(self):
        N = 3
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        engine = ed.EncodedProtocolEngine(N, J, 0.7)
        for t in (1.0, 6.5):
            a = engine.fidelity(t)
            b = ed.exact_channel_fidelity(ed.ProtocolSpec(N, J, 0.7, t, t))
            assert a.fidelity == pytest.approx(b.fidelity, abs=1e-12)
            assert a.fidelity_phase_corrected == pytest.approx(
                b.fidelity_phase_corrected, abs=1e-12
            )

    @pytest.mark.parametrize("readout", ["a", "b"])
    @pytest.mark.parametrize("t_b", [3.7, 5.9])
    def test_engine_dipolar_fields_against_dense_oracle(self, readout, t_b):
        N = 4
        r = np.arange(N, dtype=float)
        dist = np.abs(r[:, None] - r[None, :])
        np.fill_diagonal(dist, 1.0)
        J = 1.0 / dist**3
        np.fill_diagonal(J, 0.0)
        fields = np.array([0.3, -0.2, 0.15, -0.4])
        engine = ed.EncodedProtocolEngine(N, J, 0.55, chain_fields=fields, readout=readout)
        res = engine.fidelity(3.7, t_b)
        p = ed.ProtocolSpec(N, J, 0.55, 3.7, t_b, chain_fields=fields, readout=readout)
        want = self._dense_protocol_traces(p)
        for key in ("x", "y", "z", "s"):
            assert res.traces[key] == pytest.approx(want[key], abs=1e-10)

    @pytest.mark.parametrize("couplings, fields", [
        (1.0, None),  # a scalar would broadcast into an all-to-all bus
        (np.ones((4, 4)) - np.eye(4), None),  # (N+1, N+1)
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), [0.1, 0.2]),
        (np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]), 0.1),
    ])
    def test_engine_input_shapes(self, couplings, fields):
        with pytest.raises(ValueError, match="chain_"):
            ed.EncodedProtocolEngine(3, couplings, 0.5, chain_fields=fields)

    def test_unknown_readout(self):
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="readout"):
            ed.EncodedProtocolEngine(2, J, 0.5, readout="B")

    def test_zero_time_is_identity_legs(self):
        # with no evolution the receiving pair never correlates with the
        # input, so the channel is maximally forgetful: F = 1/2
        N = 2
        J = np.array([[0.0, 1.0], [1.0, 0.0]])
        res = ed.exact_channel_fidelity(ed.ProtocolSpec(N, J, 0.5, 0.0, 0.0))
        assert res.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_fidelity_bounds(self):
        N = 3
        rng = np.random.default_rng(5)
        J = rng.normal(size=(N, N))
        J = np.abs(J + J.T)
        np.fill_diagonal(J, 0.0)
        res = ed.exact_channel_fidelity(ed.ProtocolSpec(N, J, 0.8, 3.0, 3.0))
        assert 0.0 <= res.fidelity <= 1.0
        assert res.fidelity <= res.fidelity_phase_corrected <= 1.0
        assert res.infidelity == pytest.approx(1.0 - res.fidelity)


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


def leg_hamiltonian(p: ed.ProtocolSpec, leg: str) -> ed.SectorHamiltonian:
    """Full-space Hamiltonian of one transfer leg."""
    J, fields = ed._leg_couplings(p, leg)
    return ed.build_many_body(J, p.n_total, fields)


def dipolar_spec(N):
    """Protocol on a full cube-law chain with non-zero chain fields."""
    r = np.arange(N, dtype=float)
    dist = np.abs(r[:, None] - r[None, :])
    np.fill_diagonal(dist, 1.0)
    J = 1.0 / dist**3
    np.fill_diagonal(J, 0.0)
    fields = np.random.default_rng(N).uniform(-0.4, 0.4, N)
    return ed.ProtocolSpec(N, J, 0.55, 0.0, 0.0, chain_fields=fields)


class TestFactoredEngine:
    """The one-eigensolve, live-column engine against the two-leg product."""

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_leg_swap_maps_leg_a_onto_leg_b(self, N):
        p = dipolar_spec(N)
        engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
        Ha = leg_hamiltonian(p, "a")
        Hb = leg_hamiltonian(p, "b")
        for idx, A, B in zip(Ha.basis.sectors, Ha.blocks, Hb.blocks):
            perm = Ha.basis.position[engine.leg_swap[idx]]
            assert np.array_equal(A[perm][:, perm], B)

    @pytest.mark.parametrize("n_total", [6, 8, 10, 12])
    def test_matches_two_leg_oracle(self, n_total):
        N = n_total - 4
        p = dipolar_spec(N)
        Ha = leg_hamiltonian(p, "a")
        eig_a = [np.linalg.eigh(b) for b in Ha.blocks]
        eig_b = [np.linalg.eigh(b) for b in leg_hamiltonian(p, "b").blocks]
        site = p.site_index
        in_site, b, a = site("0a"), site("(N+1)b"), site("(N+1)a")
        env = ed.mixed_environment(n_total, in_site, fixed={site("0b"): 0},
                                   correlated_pairs=[(b, a)])
        enc = ed._cnot_perm(n_total, in_site, site("0b"))
        times = ((1.3 * N, 1.3 * N), (1.1 * N, 1.6 * N))
        products = [oracles.sector_leg_product(eig_a, eig_b, *ts) for ts in times]
        for readout, (out_site, partner) in (("b", (b, a)), ("a", (a, b))):
            engine = ed.EncodedProtocolEngine(
                N, p.chain_couplings, p.g, p.chain_fields, readout=readout
            )
            for (t_a, t_b), blocks in zip(times, products):
                got = engine.fidelity(t_a, t_b).traces
                dec = ed._cnot_perm(n_total, out_site, partner)
                want = full_block_traces(Ha.basis, blocks, enc, dec, env, in_site, out_site)
                for key in ("x", "y", "z", "s"):
                    assert abs(got[key] - want[key]) <= 1e-12

    @pytest.mark.parametrize("n_total", [6, 8, 10, 12])
    def test_leg_a_eigenpairs_from_active_sites(self, n_total):
        # the eigenpairs assembled from the n - 2 active sites against
        # eigh of each n-site leg-a block (chain fields on)
        N = n_total - 4
        p = dipolar_spec(N)
        engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
        Ha = leg_hamiltonian(p, "a")
        for H, (w, V) in zip(Ha.blocks, dense_eig(engine._channel)):
            assert np.max(np.abs(np.sort(w) - np.linalg.eigvalsh(H))) <= 1e-12
            assert np.max(np.abs(V.T @ V - np.eye(len(w)))) <= 1e-12
            assert np.max(np.abs(H @ V - V * w)) <= 1e-12

    @pytest.mark.parametrize("N", [2, 4, 6])
    def test_leg_a_blocks_tile_the_idle_patterns(self, N):
        # 0b and (N+1)b are the two top bits, so each sector holds the idle
        # patterns 00, 01, 10, 11 in turn, each in its active sector's order
        p = dipolar_spec(N)
        n = p.n_total
        assert sorted((p.site_index("0b"), p.site_index("(N+1)b"))) == [n - 2, n - 1]
        engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
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
        p = dipolar_spec(N)
        engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
        held = sum(len(c) for c in engine._channel._cols)
        assert held == (1 << p.n_total) // 4
        site = p.site_index
        env = ed.mixed_environment(p.n_total, site("0a"), fixed={site("0b"): 0},
                                   correlated_pairs=[(site("(N+1)b"), site("(N+1)a"))])
        enc = ed._cnot_perm(p.n_total, site("0a"), site("0b"))
        cols, col_position = ed._held_columns(ed.SectorBasis(p.n_total), enc, env, site("0a"))
        assert all(np.array_equal(a, b) for a, b in zip(cols, engine._channel._cols))
        assert np.count_nonzero(col_position >= 0) == held

    def test_negative_time_rejected(self):
        N = 2
        engine = ed.EncodedProtocolEngine(N, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        with pytest.raises(ValueError):
            engine.fidelity(-1.0)
        with pytest.raises(ValueError):
            engine.fidelity(1.0, -1.0)
        with pytest.raises(ValueError):
            engine.fidelities([1.0, -1.0, 2.0])
        with pytest.raises(ValueError):
            engine.fidelities([1.0, 2.0], [3.0, -0.5])

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_non_finite_time_rejected(self, t):
        N = 2
        engine = ed.EncodedProtocolEngine(N, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.fidelities([t])
        with pytest.raises(ValueError, match="finite and non-negative"):
            engine.fidelities([1.0, 2.0], [3.0, t])

    def test_missing_column_rejected(self):
        K = uniform_k(2, 0.5)
        H = ed.build_many_body_from_k(K)
        identity = np.arange(1 << 4)
        col_position = H.basis.position.copy()
        col_position[5] = -1
        with pytest.raises(ValueError, match="lack a column"):
            ed._trace_plan(H.basis, identity, identity, col_position,
                           ed.mixed_environment(4, 0), 0, 3)


def assert_batch_matches_points(engine, times, t_b=None):
    """``fidelities`` against one ``fidelity`` call per time, to 1e-13."""
    batch = engine.fidelities(times, t_b)
    assert len(batch) == len(times)
    t_bs = np.broadcast_to(times if t_b is None else t_b, np.shape(times))
    for res, t, tb in zip(batch, times, t_bs):
        one = engine.fidelity(float(t), float(tb))
        for key in ("x", "y", "z", "s"):
            assert abs(res.traces[key] - one.traces[key]) <= 1e-13
        assert abs(res.fidelity - one.fidelity) <= 1e-13
        assert abs(res.fidelity_phase_corrected - one.fidelity_phase_corrected) <= 1e-13


class TestBatchedFidelities:
    """``EncodedProtocolEngine.fidelities`` is the batched form of ``fidelity``."""

    @pytest.fixture(scope="class")
    def engine(self):
        p = dipolar_spec(4)
        return ed.EncodedProtocolEngine(4, p.chain_couplings, p.g, p.chain_fields)

    def test_zero_time(self, engine):
        assert_batch_matches_points(engine, [0.0, 0.0, 3.0])
        assert engine.fidelities([0.0])[0].fidelity == pytest.approx(0.5, abs=1e-12)

    def test_uneven_times(self, engine):
        assert_batch_matches_points(engine, [0.3, 7.9, 1.1, 1.15, 25.0, 4.0])

    def test_single_time(self, engine):
        assert_batch_matches_points(engine, [5.2])

    def test_unequal_leg_b_times(self, engine):
        assert_batch_matches_points(engine, [2.0, 4.5, 6.1], [5.0, 0.0, 3.3])
        assert_batch_matches_points(engine, [2.0, 4.5, 6.1], 3.7)

    def test_empty_grid(self, engine):
        assert engine.fidelities([]) == []

    def test_grid_split_into_batches_at_12_spins(self):
        N = 8
        p = dipolar_spec(N)
        engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
        channel = engine._channel
        per_time = 16 * sum(
            V.shape[0] * len(c) for (_, V), c in zip(dense_eig(channel), channel._cols)
        )
        assert 1 < channel._batch and channel._batch * per_time <= ed._BATCH_BYTES
        times = np.linspace(0.7, 1.3, channel._batch + 2) * 1.3 * N
        assert_batch_matches_points(engine, times)


class TestTransferChannelsAgainstEvolveBlocks:
    """Factored transfer blocks against full unitary blocks (U, or U S U)."""

    @pytest.mark.parametrize("polarized", [False, True])
    @pytest.mark.parametrize("kind", ["double_swap", "single_swap", "remote_z"])
    def test_kinds(self, kind, polarized):
        rng = np.random.default_rng(7)
        n = 9
        K = rng.uniform(0.2, 1.0, (n, n)) / (1.0 + np.abs(np.subtract.outer(
            np.arange(n), np.arange(n))) ** 3)
        K = K + K.T
        np.fill_diagonal(K, rng.uniform(-0.3, 0.3, n))
        t = 7.3
        bits = rng.integers(0, 2, n - 2) if polarized else None
        got = ed.transfer_channel_traces(K, t, kind, chain_bits=bits)

        H = ed.build_many_body_from_k(K)
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
        for key in ("x", "y", "z", "s"):
            assert abs(got[key] - want[key]) <= 1e-12


class TestEngineMemory:
    def test_built_engine_holds_the_overlaps_and_the_blocks(self):
        # in real sets of sector blocks: the overlaps O_w are one set, and
        # V_a is held only as its diagonal blocks (3 C(10, w)-sized squares
        # per sector at most, 0.2 sets); a dense V_a would be another set
        # (measured: 1.09 sets, and 2.02 with a dense V_a)
        N = 8
        n = N + 4
        sets = sum(math.comb(n, w) ** 2 for w in range(n + 1)) * 8
        p = dipolar_spec(N)
        ed.EncodedProtocolEngine(2, np.array([[0.0, 1.0], [1.0, 0.0]]), 0.5)
        tracemalloc.start()
        try:
            engine = ed.EncodedProtocolEngine(N, p.chain_couplings, p.g, p.chain_fields)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(engine._channel._eig) == n + 1
        assert held < 1.5 * sets


class TestTransferChannelMemory:
    @pytest.mark.parametrize("kind, bound", [
        ("double_swap", 5.0), ("single_swap", 5.0), ("remote_z", 5.674),
    ])
    def test_peak_memory_at_10_spins(self, kind, bound):
        # in real sets of sector blocks; the Hamiltonian blocks are dropped
        # after the eigensolve, so the swaps hold no overlaps and no H
        # (measured: 4.66 sets for the swaps, 5.67 for remote_z)
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
