import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from spinbus import chains, dynamics


def uniform_k(N, g, field=0.0, register_field=None):
    spec = chains.ChainSpec(
        chains.ModelKind.XX, N, chains.Uniform(1.0),
        g_left=g, g_right=g, uniform_field=field, register_field=register_field,
    )
    return chains.build_single_particle_matrix(spec)


def elements(K, times):
    """The transfer elements of exp(-iKt) at ``times``, from one eigensolve of K."""
    return dynamics.transfer_elements(dynamics.eigenmodes(K), times)


def random_tridiagonal(n, seed):
    rng = np.random.default_rng(seed)
    d, e = rng.normal(size=n), rng.normal(size=n - 1)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


# off by 5e-6 relative: numpy's default rtol of 1e-5 would call it symmetric
NEARLY_SYMMETRIC = np.array([[0.0, 1.0], [1.0 + 5e-6, 0.0]])


class TestPropagator:
    @settings(max_examples=20, deadline=None)
    @given(t=st.floats(0.0, 50.0), seed=st.integers(0, 10**6))
    def test_unitary_and_symmetric(self, t, seed):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(6, 6))
        K = K + K.T
        M = dynamics.propagator(K, t)
        assert np.allclose(M @ M.conj().T, np.eye(6), atol=1e-10)
        # real symmetric K gives complex symmetric M
        assert np.allclose(M, M.T, atol=1e-10)

    @settings(max_examples=20, deadline=None)
    @given(t1=st.floats(0.0, 20.0), t2=st.floats(0.0, 20.0), seed=st.integers(0, 10**6))
    def test_composition(self, t1, t2, seed):
        rng = np.random.default_rng(seed)
        K = rng.normal(size=(5, 5))
        K = K + K.T
        Ma = dynamics.propagator(K, t1)
        Mb = dynamics.propagator(K, t2)
        Mab = dynamics.propagator(K, t1 + t2)
        assert np.allclose(Ma @ Mb, Mab, atol=1e-9)

    def test_zero_time_identity(self):
        K = uniform_k(4, 0.3)
        assert np.allclose(dynamics.propagator(K, 0.0), np.eye(6))

    def test_empty_k_rejected(self):
        # not left to dstevd, which raises its own error type for n = 0
        for entry in (dynamics.eigenmodes, lambda K: dynamics.propagator(K, 1.0)):
            with pytest.raises(ValueError, match="must not be empty"):
                entry(np.zeros((0, 0)))

    def test_negative_time_rejected(self):
        # the transfer elements keep the propagator's and exact engine's contract
        K = uniform_k(3, 0.1)
        with pytest.raises(ValueError, match="finite and non-negative"):
            dynamics.propagator(K, -1.0)
        for times in ([-1.0], [-1.0, -0.5], [-1.0, 0.0, 1.0]):
            with pytest.raises(ValueError, match="finite and non-negative"):
                elements(K, times)

    def test_non_square_k_rejected(self):
        for K in (np.zeros((2, 3)), np.zeros(3), np.zeros((2, 2, 2))):
            with pytest.raises(ValueError, match="square"):
                dynamics.propagator(K, 1.0)

    def test_non_finite_k_rejected(self):
        # eigh reads the lower triangle only, so a NaN above the diagonal
        # would be ignored
        K = uniform_k(3, 0.1)
        K[0, 1] = math.nan
        with pytest.raises(ValueError, match="finite"):
            dynamics.propagator(K, 1.0)

    def test_non_hermitian_k_rejected(self):
        # eigh would read [[0, 0], [0, 0]] and return the identity
        with pytest.raises(ValueError, match="Hermitian"):
            dynamics.propagator([[0.0, 1.0], [0.0, 0.0]], 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            dynamics.propagator([[0.0, 1j], [1j, 0.0]], 1.0)
        with pytest.raises(ValueError, match="Hermitian"):
            dynamics.propagator(NEARLY_SYMMETRIC, 1.0)

    @pytest.mark.parametrize("n", [1, 2, 5, 30, 102])
    def test_tridiagonal_matches_dense_eigh(self, n, monkeypatch):
        # the tridiagonal K goes to dstevd; the reference is an independent
        # dense eigh, so the two solvers check each other
        K = random_tridiagonal(n, n)
        w, v = np.linalg.eigh(K)
        times = (0.0, 0.37, 5.0, 3.0 * n)
        refs = [(v * np.exp(-1j * w * t)) @ v.T for t in times]

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a tridiagonal K")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        for t, ref in zip(times, refs):
            assert np.max(np.abs(dynamics.propagator(K, t) - ref)) <= 1e-12

    def test_dense_k_never_reaches_dstevd(self, no_dstevd):
        positions = chains.sample_positions(chains.DisorderSpec(0.1), 8)
        K = chains.couplings_from_positions(positions, chains.RangeRule.FULL_DIPOLAR)
        M = dynamics.propagator(K, 1.3)
        assert np.allclose(M @ M.conj().T, np.eye(8), atol=1e-12)

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    def test_non_finite_time_rejected(self, t):
        K = uniform_k(3, 0.1)
        with pytest.raises(ValueError):
            dynamics.propagator(K, t)
        for times in ([t], [0.0, t], [t, 0.0, 1.0]):
            with pytest.raises(ValueError):
                elements(K, times)

    def test_elements_match_full_propagator(self):
        K = uniform_k(5, 0.4)
        times = np.linspace(0.7, 12.9, 7)
        m00, m0R, mRR, leak = elements(K, times)
        for i, t in enumerate(times):
            M = dynamics.propagator(K, t)
            assert m00[i] == pytest.approx(M[0, 0], abs=1e-12)
            assert m0R[i] == pytest.approx(M[0, -1], abs=1e-12)
            assert mRR[i] == pytest.approx(M[-1, -1], abs=1e-12)
            assert leak[i] == pytest.approx(np.dot(M[-1, 1:-1], M[1:-1, 0]), abs=1e-12)


    # 600 times is the strong-scan default; 47 is neither a square nor a
    # multiple of its phase-grid block size 7
    @pytest.mark.parametrize("n_times", [600, 47, 1])
    @pytest.mark.parametrize("N", [2, 7, 100])
    def test_elements_match_full_propagator_on_grid(self, N, n_times):
        rng = np.random.default_rng(N)
        K = uniform_k(N, 0.6, register_field=0.05)
        K[np.arange(N + 1), np.arange(1, N + 2)] *= rng.uniform(0.8, 1.2, N + 1)
        K[np.diag_indices(N + 2)] += rng.uniform(-0.1, 0.1, N + 2)
        K = np.triu(K) + np.triu(K, 1).T  # random real symmetric tridiagonal
        times = np.linspace(N / 2.0, 2.0 * N, n_times)
        m00, m0R, mRR, leak = elements(K, times)
        for i, t in enumerate(times):
            M = dynamics.propagator(K, t)
            ref = (M[0, 0], M[0, -1], M[-1, -1], np.dot(M[-1, 1:-1], M[1:-1, 0]))
            got = (m00[i], m0R[i], mRR[i], leak[i])
            assert np.max(np.abs(np.subtract(got, ref))) <= 1e-12, (i, t)

    @pytest.mark.parametrize("n_times", [600, 47, 1])
    @pytest.mark.parametrize("N", [2, 7, 100])
    def test_one_eigensolve_serves_every_time(self, N, n_times):
        # the strong-scan polish eigensolves once per coupling and then
        # asks for the elements at a grid of times and at single times
        K = uniform_k(N, 0.6, register_field=0.05)
        times = np.linspace(N / 2.0, 2.0 * N, n_times)
        modes = dynamics.eigenmodes(K)
        for i in (0, n_times // 2, n_times - 1):
            M = dynamics.propagator(K, times[i])
            got = np.ravel(dynamics.transfer_elements(modes, times[i]))
            ref = (M[0, 0], M[0, -1], M[-1, -1], np.dot(M[-1, 1:-1], M[1:-1, 0]))
            assert np.max(np.abs(got - ref)) <= 1e-12

    def test_elements_reject_uneven_times(self):
        modes = dynamics.eigenmodes(uniform_k(5, 0.4))
        for times in ([0.7, 3.1, 12.9], [math.nan], [0.0, math.inf], [], [[1.0, 2.0]]):
            with pytest.raises(ValueError, match="times"):
                dynamics.transfer_elements(modes, times)

    def test_elements_reject_complex_modes(self):
        # M_{R,0} = M_{0,R} holds for a real symmetric K only
        e = np.array([1.0 + 0.5j, 0.7 - 0.2j, 1.3j])
        H = np.diag(np.arange(4.0)) + np.diag(e, 1) + np.diag(e.conj(), -1)
        with pytest.raises(ValueError, match="real"):
            dynamics.transfer_elements(dynamics.eigenmodes(H), [1.0])

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 41, 102])
    def test_elements_bit_equal_with_eigh_tridiagonal(self, n, monkeypatch):
        # eigenmodes calls LAPACK dstevd itself; swapping in
        # scipy's eigh_tridiagonal (whose driver for all eigenpairs is
        # dstevd) must not change a bit of the transfer elements
        from scipy.linalg import eigh_tridiagonal, lapack

        K = random_tridiagonal(n, n)
        times = np.linspace(0.0, 3.0 * n, 37)
        got = elements(K, times)
        calls = []

        def via_eigh_tridiagonal(d, e):
            calls.append(len(d))
            return (*eigh_tridiagonal(d, e[: len(d) - 1]), 0)

        monkeypatch.setattr(lapack, "dstevd", via_eigh_tridiagonal)
        want = elements(K, times)
        assert calls == [n]
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def end_coupled_chain(n, g):
    """A zero-diagonal chain of n >= 1 sites: unit bonds and end bonds g, as uniform_k(n - 2, g)."""
    e = np.ones(n - 1)
    if n > 1:
        e[[0, -1]] = g
    return np.diag(e, 1) + np.diag(e, -1)


def full_sum(modes, times):
    """The transfer elements as the plain complex sum over all n modes."""
    w, vL, vR = modes.energies, modes.psi_left, modes.psi_right
    P = np.exp(-1j * np.outer(times, w))
    m00, m0R, mRR = P @ (vL * vL), P @ (vL * vR), P @ (vR * vR)
    return m00, m0R, mRR, (P * P) @ (vL * vR) - m0R * (m00 + mRR)


class TestChiralFold:
    """``transfer_elements`` over the upper half of a symmetric spectrum."""

    def assert_fold_matches_full_sum(self, K):
        modes = dynamics.eigenmodes(K)
        assert modes.chiral
        n = K.shape[0]
        for n_times in (1, 2, 47, 600):
            times = np.linspace(n / 2.0, 2.0 * n, n_times)
            got, want = elements(K, times), full_sum(modes, times)
            assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-12, n_times

    # g = 0 decouples the end sites: their two zero modes (three, at odd n)
    # are degenerate, and dstevd returns any basis of them
    @pytest.mark.parametrize("g", [0.0, 1e-300, 0.3, 5.0])
    @pytest.mark.parametrize("n", [*range(1, 13), 41, 100, 101, 102])
    def test_end_coupled_chain(self, n, g):
        self.assert_fold_matches_full_sum(end_coupled_chain(n, g))

    @pytest.mark.parametrize("n", [3, 8, 41, 100, 101])
    def test_random_chain_with_a_zero_bond(self, n):
        rng = np.random.default_rng(n)
        e = rng.uniform(0.2, 1.5, n - 1)
        e[rng.integers(n - 1)] = 0.0  # two uncoupled pieces
        self.assert_fold_matches_full_sum(np.diag(e, 1) + np.diag(e, -1))

    @pytest.mark.parametrize("n", [1, 2, 7, 102])
    def test_phase_grid_spans_the_upper_modes(self, n, monkeypatch):
        sizes = []
        phase_grid = dynamics._phase_grid
        monkeypatch.setattr(
            dynamics, "_phase_grid", lambda w, times: sizes.append(w.size) or phase_grid(w, times)
        )
        elements(end_coupled_chain(n, 0.6), np.linspace(0.0, 5.0, 9))
        assert sizes == [n - n // 2]

    @pytest.mark.parametrize("n", [1, 2, 7, 102])
    def test_other_sets_keep_every_mode(self, n, monkeypatch):
        # with a field no mode has a partner: the fold is the full sum
        sizes = []
        phase_grid = dynamics._phase_grid
        monkeypatch.setattr(
            dynamics, "_phase_grid", lambda w, times: sizes.append(w.size) or phase_grid(w, times)
        )
        modes = dynamics.eigenmodes(end_coupled_chain(n, 0.6) + np.diag(np.full(n, 0.05)))
        assert not modes.chiral
        times = np.linspace(0.0, 5.0, 9)
        got, want = dynamics.transfer_elements(modes, times), full_sum(modes, times)
        assert sizes == [n]
        assert max(np.max(np.abs(a - b)) for a, b in zip(got, want)) <= 1e-12

    def test_uniform_chain_is_chiral(self):
        assert dynamics.eigenmodes(uniform_k(10, 0.7)).chiral
        assert not dynamics.eigenmodes(uniform_k(10, 0.7, register_field=0.05)).chiral

    @pytest.mark.parametrize("site", [0, 5, 11])
    def test_any_diagonal_entry_takes_the_full_sum(self, site):
        K = uniform_k(10, 0.7)
        K[site, site] = 1e-300
        assert not dynamics.eigenmodes(K).chiral

    def test_other_matrices_take_the_full_sum(self):
        # a dense K with a zero diagonal goes to eigh, and is not bipartite
        positions = chains.sample_positions(chains.DisorderSpec(0.1), 8)
        K = chains.couplings_from_positions(positions, chains.RangeRule.FULL_DIPOLAR)
        assert not np.diagonal(K).any()
        assert not dynamics.eigenmodes(K).chiral
        modes = dynamics.eigenmodes(uniform_k(4, 0.7))
        assert not dynamics.EigenmodeSet(modes.energies, modes.vectors).chiral


@pytest.fixture
def no_dstevd(monkeypatch):
    """Fail the test if a matrix reaches LAPACK dstevd."""
    from scipy.linalg import lapack

    def fail(*args, **kwargs):
        raise AssertionError("dstevd called on a matrix that is not real symmetric tridiagonal")

    monkeypatch.setattr(lapack, "dstevd", fail)


class TestEigenmodes:
    def test_uniform_chain_spectrum(self):
        # energies 2 kappa cos(pi k / (N+1)) for the isolated uniform chain
        N = 9
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        expect = np.sort(2.0 * np.cos(np.pi * np.arange(1, N + 1) / (N + 1)))
        assert np.allclose(modes.energies, expect, atol=1e-12)

    def test_mirror_symmetric_end_amplitudes(self):
        N = 8
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        assert np.allclose(np.abs(modes.psi_left), np.abs(modes.psi_right), atol=1e-12)

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            dynamics.eigenmodes(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(ValueError, match="Hermitian"):
            dynamics.eigenmodes(NEARLY_SYMMETRIC)

    @pytest.mark.parametrize("stream", [0, 1, 2])
    def test_disordered_chain_takes_dstevd(self, stream, monkeypatch):
        # a nearest-neighbour chain is real symmetric tridiagonal, so it
        # never reaches eigh; its modes are eigh's, up to each mode's sign
        spec = chains.DisorderSpec(1.0 / 6.0, master_seed=0)  # sigma = d/6
        J = chains.couplings_from_positions(chains.sample_positions(spec, 51, stream))
        w, v = oracles.signed_eigh(J)

        def no_eigh(*args, **kwargs):
            raise AssertionError("eigh called on a tridiagonal chain")

        monkeypatch.setattr(np.linalg, "eigh", no_eigh)
        modes = dynamics.eigenmodes(J)
        assert np.max(np.abs(modes.energies - w)) <= 1e-12
        assert np.max(np.abs(oracles.fix_signs(modes.vectors) - v)) <= 1e-12

    @pytest.mark.parametrize("kind", ["complex-tridiagonal", "full-dipolar"])
    def test_other_matrices_keep_eigh(self, kind, no_dstevd):
        if kind == "complex-tridiagonal":
            e = np.array([1.0 + 0.5j, 0.7 - 0.2j, 1.3j, 0.4])
            H = np.diag(np.arange(5.0)) + np.diag(e, 1) + np.diag(e.conj(), -1)
        else:
            positions = chains.sample_positions(chains.DisorderSpec(0.1), 12)
            H = chains.couplings_from_positions(positions, chains.RangeRule.FULL_DIPOLAR)

        modes = dynamics.eigenmodes(H)
        w, v = oracles.signed_eigh(H)
        assert modes.energies.tobytes() == w.tobytes()
        assert oracles.fix_signs(modes.vectors).tobytes() == v.tobytes()

    def test_asymmetric_tridiagonal_rejected(self, no_dstevd):
        # same nonzero pattern as a chain, unequal off-diagonals: the
        # structure test sends it to the Hermitian check, never to dstevd
        K = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
        K[3, 2] = 2.0
        with pytest.raises(ValueError, match="must be Hermitian"):
            dynamics.eigenmodes(K)

    def test_non_finite_chain_rejected(self):
        K = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
        K[2, 3] = K[3, 2] = math.nan
        with pytest.raises(ValueError, match="must be finite"):
            dynamics.eigenmodes(K)


def assert_end_rows_match(K, modes, tol):
    """``modes`` has the energies and the end rows of ``eigenmodes(K)``, to ``tol``."""
    ref = dynamics.eigenmodes(K)
    assert modes.vectors.shape == (2, K.shape[0])
    assert modes.chiral == ref.chiral
    L, R, rL, rR = modes.psi_left, modes.psi_right, ref.psi_left, ref.psi_right
    assert np.max(np.abs(modes.energies - ref.energies)) <= tol
    assert np.max(np.abs(L * L - rL * rL)) <= tol
    assert np.max(np.abs(R * R - rR * rR)) <= tol
    assert np.max(np.abs(L * R - rL * rR)) <= tol


class TestEndModes:
    """``end_modes``: the end rows from the spectrum of a mirror-symmetric chain."""

    def test_matches_eigenmodes_on_the_strong_scan_grid(self):
        # the default strong-scan grid: n = N + 2 odd and even
        for N in range(10, 101, 5):
            for g in np.linspace(0.25, 1.2, 39):
                K = uniform_k(N, g)
                modes = dynamics.end_modes(K)
                assert modes.from_spectrum and modes.chiral, (N, g)
                assert_end_rows_match(K, modes, 1e-13)

    @pytest.mark.parametrize("n", [1, 2, 3, 12, 13])
    def test_spectrum_route_forms_no_eigenvectors(self, n, no_dstevd):
        assert dynamics.end_modes(end_coupled_chain(n, 0.7)).from_spectrum

    @pytest.mark.parametrize("N", [1, 2, 9, 10, 51])
    @pytest.mark.parametrize("field", [0.3, -0.5])
    def test_register_field_is_not_chiral(self, N, field):
        # a field on both registers keeps the mirror symmetry but not the
        # symmetric spectrum: both parity halves are solved
        K = uniform_k(N, 0.6, register_field=field)
        modes = dynamics.end_modes(K)
        assert modes.from_spectrum and not modes.chiral
        assert_end_rows_match(K, modes, 1e-13)

    @pytest.mark.parametrize("diag", [0.0, 0.4])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_smallest_chains(self, n, diag):
        K = end_coupled_chain(n, -0.7) + np.diag(np.full(n, diag))
        modes = dynamics.end_modes(K)
        assert modes.from_spectrum and modes.chiral == (diag == 0.0)
        assert_end_rows_match(K, modes, 1e-15)

    @pytest.mark.parametrize("g", [0.6, -0.6])
    def test_negative_bonds(self, g):
        K = end_coupled_chain(14, g)
        K[5, 6] = K[6, 5] = K[8, 7] = K[7, 8] = -1.0
        modes = dynamics.end_modes(K)
        assert modes.from_spectrum
        assert_end_rows_match(K, modes, 1e-13)

    def test_weights_stay_finite_at_600_sites(self):
        # bonds of 4: prod b_i and p'(lambda_k) both pass 1e308 near n = 500
        K = 4.0 * uniform_k(598, 0.7)
        modes = dynamics.end_modes(K)
        assert modes.from_spectrum and np.isfinite(modes.vectors).all()
        assert abs(np.sum(modes.psi_left**2) - 1.0) <= 1e-13
        assert_end_rows_match(K, modes, 1e-13)

    def test_end_rows_serve_the_transfer_elements_and_the_budget(self):
        K = uniform_k(41, 0.55)
        ref, modes = dynamics.eigenmodes(K), dynamics.end_modes(K)
        times = np.linspace(20.0, 80.0, 31)
        for a, b in zip(dynamics.transfer_elements(modes, times),
                        dynamics.transfer_elements(ref, times)):
            assert np.max(np.abs(a - b)) <= 1e-13
        got = dynamics.mode_budget(modes).errors(1.0, 1e4)
        want = dynamics.mode_budget(ref).errors(1.0, 1e4)
        for a, b in zip(got, want):
            np.testing.assert_allclose(a, b, rtol=1e-10)

    @pytest.mark.parametrize("N", [10, 11, 100])
    @pytest.mark.parametrize("g", [0.0, 1e-8, 1e-300])
    def test_vanishing_end_bond_takes_dstevd(self, N, g):
        # g = 0 is a zero bond; g -> 0 leaves a near-degenerate register
        # pair (a triple at odd N) whose weights the spectrum cannot bound
        self.assert_fallback(uniform_k(N, g))

    def test_other_chains_take_the_fallback(self):
        self.assert_fallback(random_tridiagonal(12, 0))  # not mirror-symmetric
        K = uniform_k(10, 0.6)
        K[0, 1] = K[1, 0] = 0.61  # g_left != g_right
        self.assert_fallback(K)
        K = uniform_k(10, 0.6)
        K[0, 0] = 1e-300  # a field on one end only
        self.assert_fallback(K)
        positions = chains.sample_positions(chains.DisorderSpec(0.1), 8)
        dense = chains.couplings_from_positions(positions, chains.RangeRule.FULL_DIPOLAR)
        dense = (dense + dense[::-1, ::-1]) / 2.0  # mirror-symmetric, not tridiagonal
        self.assert_fallback(dense)

    @staticmethod
    def assert_fallback(K):
        modes, ref = dynamics.end_modes(K), dynamics.eigenmodes(K)
        assert not modes.from_spectrum
        assert modes.chiral == ref.chiral
        assert modes.energies.tobytes() == ref.energies.tobytes()
        assert modes.vectors.tobytes() == ref.vectors[[0, -1]].tobytes()


class TestResonantModeSelection:
    def test_matched_coupling_and_time(self):
        N = 7
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        z = 3  # the zero mode of the odd uniform chain
        choice = dynamics.mode_budget(modes).select(0.1, math.inf)[0]
        assert choice.mode_index == z
        aL = abs(modes.psi_left[z])
        aR = abs(modes.psi_right[z])
        assert choice.g_left == pytest.approx(0.1)
        assert choice.g_left * aL == pytest.approx(choice.g_right * aR)
        assert choice.transfer_time == pytest.approx(
            math.pi / (math.sqrt(2.0) * 0.1 * aL)
        )
        assert abs(choice.energy) < 1e-12

    def test_min_error_picks_central_mode_without_t1(self):
        # With T1 = inf the budget is pure off-resonant leakage, smallest
        # for the spectrally-central zero mode of an odd uniform chain.
        N = 9
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        choice = dynamics.mode_budget(modes).select(0.05, math.inf)[0]
        assert abs(choice.energy) < 1e-12

    def test_degenerate_mode_raises(self):
        # Two uncoupled bonds give a doubly degenerate spectrum; pick a
        # basis in the degenerate subspace with weight on both chain ends.
        r = 1.0 / math.sqrt(2.0)
        vectors = np.array([
            [r * r, r * r, -r * r, -r * r],
            [r * r, r * r, r * r, r * r],
            [r * r, -r * r, -r * r, r * r],
            [r * r, -r * r, r * r, -r * r],
        ])
        modes = dynamics.EigenmodeSet(np.array([-1.0, -1.0, 1.0, 1.0]), vectors)
        with pytest.raises(dynamics.NoTransferModeError):
            dynamics.mode_budget(modes).select(0.1, math.inf)

    def test_degenerate_pair_skipped_in_min_error(self):
        # Realization 74 of a 50-site chain at sigma/d = 1, master seed 0:
        # two nearly decoupled odd segments leave a pair of modes 8e-13
        # apart, whose off-resonant sums divide by a vanishing gap.
        spec = chains.DisorderSpec(1.0, master_seed=0)
        J = chains.couplings_from_positions(chains.sample_positions(spec, 50, 74))
        modes = dynamics.eigenmodes(J)
        gaps = np.diff(modes.energies)
        pair = int(np.argmin(gaps))
        assert gaps[pair] < 1e-12
        budget = dynamics.mode_budget(modes)
        assert not budget.candidate[pair] and not budget.candidate[pair + 1]
        choice = budget.select(0.5, 1e4)[0]
        assert choice.mode_index not in (pair, pair + 1)
        assert budget.candidate[choice.mode_index]

    def test_finite_t1_reduces_coupling_below_cap(self):
        N = 11
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        modes = dynamics.eigenmodes(J)
        budget = dynamics.mode_budget(modes)
        loose = budget.select(10.0, 1e4)[0]
        assert loose.g_left < 10.0  # optimum, not the cap
        capped = budget.select(1e-4, 1e4)[0]
        assert capped.g_left == pytest.approx(1e-4)

    def test_invalid_inputs(self):
        J = np.diag(np.ones(2), 1) + np.diag(np.ones(2), -1)
        budget = dynamics.mode_budget(dynamics.eigenmodes(J))
        with pytest.raises(ValueError):
            budget.select(0.0, math.inf)
        with pytest.raises(ValueError, match="g_max"):
            budget.select(math.nan, math.inf)


class TestBdG:
    def _diag(self, N=6, B=2.0):
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, N, chains.Uniform(1.0), uniform_field=B
        )
        return dynamics.bdg_diagonalize(chains.build_bdg_matrix(spec))

    def test_orthogonal_and_diagonalizes(self):
        N, B = 6, 2.0
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, N, chains.Uniform(1.0), uniform_field=B
        )
        A = chains.build_bdg_matrix(spec)
        d = dynamics.bdg_diagonalize(A)
        assert np.allclose(d.O @ d.O.T, np.eye(2 * N), atol=1e-10)
        assert np.allclose(d.O @ A @ d.O.T, np.diag(d.energies), atol=1e-10)

    def test_interleaved_particle_hole_pairs(self):
        d = self._diag()
        e = d.energies
        assert np.all(e[::2] > 0)
        assert np.allclose(e[::2], -e[1::2], atol=1e-10)
        assert np.all(np.diff(e[::2]) >= -1e-12)  # ascending positive branch

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            dynamics.bdg_diagonalize(np.zeros((3, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_non_finite_pairing_matrix_rejected(self, value):
        # symmetric and particle-hole structured, so only finiteness fails
        A = chains.build_bdg_matrix(chains.ChainSpec(chains.ModelKind.TFIM, 3, chains.Uniform(1.0)))
        A[0, 0], A[3, 3] = value, -value
        with pytest.raises(ValueError, match="finite"):
            dynamics.bdg_diagonalize(A)

    def test_pairing_structure_required(self):
        # symmetric, but the hole block is not -alpha
        with pytest.raises(ValueError, match="particle-hole"):
            dynamics.bdg_diagonalize(np.diag([1.0, 2.0, -1.0, -3.0]))
        # the -alpha block off by 2e-6 relative, within numpy's default rtol
        A = chains.build_bdg_matrix(
            chains.ChainSpec(chains.ModelKind.TFIM, 3, chains.Uniform(1.0), uniform_field=2.0)
        )
        A[3:, 3:] *= 1.0 + 2e-6
        with pytest.raises(ValueError, match="particle-hole"):
            dynamics.bdg_diagonalize(A)

    @pytest.mark.parametrize("N", [10, 20, 30, 40])
    def test_majorana_regime_partners(self, N):
        # B = 0.3 < kappa: the zero-mode splitting ~ 0.3^N falls below
        # rounding from N ~ 30 on, where eigh mixes the +eps and -eps
        # vectors of the Majorana pair
        A = chains.build_bdg_matrix(
            chains.ChainSpec(chains.ModelKind.TFIM, N, chains.Uniform(1.0), uniform_field=0.3)
        )
        d = dynamics.bdg_diagonalize(A)
        tau_x = np.roll(d.O[0::2], N, axis=1)
        assert np.array_equal(d.O[1::2], tau_x)
        assert np.max(np.abs(d.O @ d.O.T - np.eye(2 * N))) <= 1e-12
        assert np.max(np.abs(d.O @ A @ d.O.T - np.diag(d.energies))) <= 1e-12
        eps = d.positive_energies
        assert np.all(eps >= 0) and np.all(np.diff(eps) >= 0)
        assert np.array_equal(d.energies[1::2], -eps)
        assert eps[0] <= max(0.3**N, 1e-14)
        assert eps[1] > 0.5  # the bulk gap |kappa - B| stays open

    def test_effective_swap_paramagnetic_regime(self):
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, 7, chains.Uniform(1.0),
            g_left=0.02, uniform_field=2.0,
        )
        res = dynamics.bdg_effective_swap_check(spec)
        assert res.exchange_amplitude > 0.99
        assert res.leakage < 0.02

    def test_effective_swap_majorana_collapse(self):
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, 10, chains.Uniform(1.0),
            g_left=0.02, uniform_field=0.3,
        )
        res = dynamics.bdg_effective_swap_check(spec)
        assert res.exchange_amplitude < 1e-3


class TestBosonic:
    def test_zero_temperature_passthrough(self):
        # registers and chain all in their ground state: nothing leaks in
        K = uniform_k(5, 0.3)
        M = dynamics.propagator(K, 2.0)
        res = dynamics.bosonic_swap_and_thermal_error(M, 0.0)
        assert res.n_out == 0.0
        assert res.epsilon == pytest.approx(1.0 - abs(M[-1, 0]) ** 2)

    def test_chain_weight_sets_output_occupation(self):
        # by unitarity the chain carries the weight 1 - |M_R0|^2 - |M_RR|^2
        # of the output mode, each chain mode at occupation 3
        K = uniform_k(5, 0.3)
        M = dynamics.propagator(K, 2.0)
        res = dynamics.bosonic_swap_and_thermal_error(M, 3.0)
        chain_weight = 1.0 - abs(M[-1, 0]) ** 2 - abs(M[-1, -1]) ** 2
        assert res.n_out == pytest.approx(3.0 * chain_weight, abs=1e-12)

    def test_occupation_conserved_bound(self):
        K = uniform_k(5, 0.3)
        M = dynamics.propagator(K, 2.0)
        res = dynamics.bosonic_swap_and_thermal_error(M, 3.0)
        # leaked-in noise cannot exceed the hottest mode occupation
        assert 0.0 <= res.n_out <= 3.0
        assert 0.0 <= res.epsilon <= 1.0


class TestParticipationRatio:
    def test_localized_mode(self):
        psi = np.zeros(10)
        psi[4] = 1.0
        assert dynamics.participation_ratio(psi) == pytest.approx(1.0)

    def test_uniform_mode(self):
        psi = np.full(16, 0.25)
        assert dynamics.participation_ratio(psi) == pytest.approx(16.0)

    def test_uniform_chain_sine_mode(self):
        # sine modes of the uniform chain have N_PR = 2(N+1)/3 exactly
        N = 11
        i = np.arange(1, N + 1)
        psi = np.sqrt(2.0 / (N + 1)) * np.sin(np.pi * i / (N + 1))
        assert dynamics.participation_ratio(psi) == pytest.approx(
            2.0 * (N + 1) / 3.0, abs=1e-10
        )

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            dynamics.participation_ratio(np.ones(4))

    def test_matrix_of_modes(self):
        N = 11
        modes = dynamics.eigenmodes(np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1))
        pr = dynamics.participation_ratio(modes.vectors)
        assert pr.shape == (N,)
        for k in range(N):  # each column as if alone, to the last bit
            assert pr[k] == dynamics.participation_ratio(modes.vectors[:, k])

    def test_unnormalized_column_rejected(self):
        psi = np.eye(4)
        psi[:, 2] *= 2.0
        with pytest.raises(ValueError):
            dynamics.participation_ratio(psi)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(2, 30))
    def test_bounds(self, seed, n):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        pr = dynamics.participation_ratio(psi)
        assert 1.0 - 1e-9 <= pr <= n + 1e-9


def scalar_errors(modes, g_max, n_chain, T1):
    """eps of every candidate mode from the scalar closed forms, one mode at a time."""
    eps = {}
    for z in range(len(modes.energies)):
        try:  # unusable and degenerate modes are no candidates
            oracles.matched_choice(modes, z, g_max)
        except ValueError:
            continue
        gL = g_max
        if math.isfinite(T1):
            gL = min(oracles.optimal_coupling(modes, z, n_chain, T1)[0], g_max)
        choice = oracles.matched_choice(modes, z, gL)
        eps[z] = oracles.error_budget(modes, choice, n_chain, T1).total
    return eps


def scalar_selection(modes, g_max, n_chain, T1):
    """The lowest eps, on equal eps the smaller |E|, on both equal the lower index."""
    eps = scalar_errors(modes, g_max, n_chain, T1)
    return min(eps, key=lambda z: (eps[z], abs(modes.energies[z])))


class TestModeBudget:
    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 60),
        seed=st.integers(0, 2**32 - 1),
        T1=st.one_of(st.just(math.inf), st.floats(1e1, 1e7)),
        g_max=st.one_of(st.sampled_from([1e-8, 1e6]), st.floats(1e-3, 10.0)),
    )
    @example(n=2, seed=0, T1=math.inf, g_max=0.5)
    @example(n=51, seed=1, T1=1e4, g_max=0.5)
    @example(n=60, seed=2, T1=1e4, g_max=1e-8)  # the cap binds for every mode
    @example(n=59, seed=3, T1=1e4, g_max=1e6)  # the cap binds for none
    def test_matches_scalar_loop(self, n, seed, T1, g_max):
        # Random on-site fields break the +-E pairing of a bipartite chain,
        # whose partner modes tie in eps.
        rng = np.random.default_rng(seed)
        bonds = rng.uniform(0.2, 2.0, n - 1)
        K = np.diag(bonds, 1) + np.diag(bonds, -1) + np.diag(rng.normal(0.0, 0.3, n))
        modes = dynamics.eigenmodes(K)
        budget = dynamics.mode_budget(modes)
        ref = scalar_errors(modes, g_max, n, T1)
        eps = budget.errors(g_max, T1)[-1]
        assert sorted(ref) == list(np.flatnonzero(budget.candidate))
        for z, e in ref.items():
            assert abs(eps[z] - e) <= 1e-12 * e
        choice, best = budget.select(g_max, T1)
        z_ref = scalar_selection(modes, g_max, n, T1)
        assert abs(best - ref[z_ref]) <= 1e-12 * best
        # Modes whose eps agree to rounding are a tie that rounding breaks
        # (every 2-site chain at the optimal coupling is one); elsewhere
        # the selected index must be the scalar one.
        runner_up = min((e for z, e in ref.items() if z != z_ref), default=math.inf)
        if runner_up > ref[z_ref] * (1.0 + 1e-9):
            assert choice.mode_index == z_ref

    @pytest.mark.parametrize("T1", [math.inf, 1e3])
    def test_equal_error_broken_by_smaller_energy(self, T1):
        # Modes 0 and 2 see one another at the same gap with the same end
        # amplitudes, and mode 1 has no end amplitude, so eps_0 == eps_2
        # exactly; the tie goes to mode 2 (|E| = 0), not to the lower index.
        r = 1.0 / math.sqrt(2.0)
        vectors = np.array([[r, 0.0, r], [0.0, 1.0, 0.0], [r, 0.0, -r]])
        modes = dynamics.EigenmodeSet(np.array([-2.0, -1.0, 0.0]), vectors)
        budget = dynamics.mode_budget(modes)
        eps = budget.errors(0.1, T1)[-1]
        assert eps[0] == eps[2] and math.isinf(eps[1])
        choice, _ = budget.select(0.1, T1)
        assert choice.mode_index == 2
        assert scalar_selection(modes, 0.1, 3, T1) == 2

    @pytest.mark.parametrize("T1", [1e4, math.inf])
    @pytest.mark.parametrize("g_max", [-1.0, 0.0, math.nan, math.inf])
    def test_g_max_must_be_finite_and_positive(self, g_max, T1):
        # -1 would match a negative coupling and time, 0 would score an
        # uncoupled register as a perfect transfer, and NaN and inf would
        # fail later with errors that misname the fault
        modes = dynamics.eigenmodes(np.diag(np.ones(6), 1) + np.diag(np.ones(6), -1))
        budget = dynamics.mode_budget(modes)
        with pytest.raises(ValueError, match="g_max must be finite and positive") as err:
            budget.errors(g_max, T1)
        assert err.type is ValueError
        with pytest.raises(ValueError, match="g_max"):
            budget.select(g_max, T1)

    def test_no_candidate_raises(self):
        vectors = np.array([[1.0, 0.0], [0.0, 1.0]])  # each mode lives on one end
        modes = dynamics.EigenmodeSet(np.array([-1.0, 1.0]), vectors)
        with pytest.raises(dynamics.NoTransferModeError):
            dynamics.mode_budget(modes).select(0.1, 1e3)

    @pytest.mark.parametrize("T1", [math.inf, 1e4])
    @pytest.mark.parametrize("n", [2, 3, 12, 51])
    def test_stacked_budget_is_each_chains_budget(self, n, T1):
        # cube-law chains of the disorder sweep, a uniform chain, and one
        # whose end bonds are 0: its end sites are a degenerate pair of zero
        # modes (the decoupled registers of g = 0), and its other modes have
        # no amplitude on the ends, so it has no candidate
        spec = chains.DisorderSpec(0.3, master_seed=5)
        bonds = [chains.nearest_neighbor_bonds(chains.sample_positions(spec, n, s)) for s in range(4)]
        ends_off = np.ones(n - 1)
        ends_off[[0, -1]] = 0.0
        bonds += [np.ones(n - 1), ends_off]
        singles = [dynamics.eigenmodes(np.diag(b, 1) + np.diag(b, -1)) for b in bonds]
        stack = dynamics.EigenmodeSet(
            np.array([m.energies for m in singles]), np.array([m.vectors for m in singles])
        )
        stacked = dynamics.mode_budget(stack)
        rows = stacked.errors(0.5, T1)
        for r, modes in enumerate(singles):
            budget = dynamics.mode_budget(modes)
            assert stacked.candidate[r].tobytes() == budget.candidate.tobytes()
            for got, ref in zip(rows, budget.errors(0.5, T1)):
                assert got[r].tobytes() == ref.tobytes()
            ref = scalar_errors(modes, 0.5, n, T1)
            assert sorted(ref) == list(np.flatnonzero(budget.candidate))
            for z, e in ref.items():
                assert abs(rows[-1][r, z] - e) <= 1e-12 * e
        assert stacked.candidate[:-1].any(axis=-1).all() and not stacked.candidate[-1].any()
        with pytest.raises(ValueError, match="one chain"):
            stacked.select(0.5, T1)
