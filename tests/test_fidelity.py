import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinbus import chains, dynamics, fidelity


def uniform_k(N, g, register_field=None):
    spec = chains.ChainSpec(
        chains.ModelKind.XX, N, chains.Uniform(1.0),
        g_left=g, g_right=g, register_field=register_field,
    )
    return chains.build_single_particle_matrix(spec)


def random_propagator(seed, n=6, t=None):
    rng = np.random.default_rng(seed)
    K = rng.normal(size=(n, n))
    K = K + K.T
    return dynamics.propagator(K, rng.uniform(0.5, 20.0) if t is None else t)


def ideal_mirror(n):
    """Unitary, symmetric, with perfect 0 <-> n-1 transfer."""
    M = np.zeros((n, n), dtype=complex)
    M[0, -1] = M[-1, 0] = 1.0
    for i in range(1, n - 1):
        M[i, n - 1 - i] = 1.0
    return M


class TestClosedForms:
    def test_double_swap_endpoints(self):
        M = np.eye(4, dtype=complex)
        assert fidelity.f_double_swap(M) == pytest.approx(1.0)
        M[0, 0] = -1.0
        assert fidelity.f_double_swap(M) == pytest.approx(1.0 / 3.0)

    def test_single_swap_endpoints(self):
        M = ideal_mirror(5)
        assert fidelity.f_single_swap(M, 0.0) == pytest.approx(2.0 / 3.0)
        assert fidelity.f_single_swap(M, 1.0) == pytest.approx(1.0)
        assert fidelity.f_single_swap(M, -1.0) == pytest.approx(1.0 / 3.0)

    def test_single_swap_parity_validated(self):
        with pytest.raises(ValueError):
            fidelity.f_single_swap(np.eye(3), 1.5)

    def test_encoded_endpoints(self):
        M = ideal_mirror(6)
        assert fidelity.f_encoded(M, "weak") == pytest.approx(1.0)
        assert fidelity.f_encoded(M, "strong") == pytest.approx(1.0)
        # no transfer at all: the output pair never sees the input, F = 1/2
        I = np.eye(6, dtype=complex)
        assert fidelity.f_encoded(I, "weak") == pytest.approx(0.5)
        assert fidelity.f_encoded(I, "strong") == pytest.approx(0.5)

    def test_encoded_strong_absorbs_phase(self):
        # a register phase hurts the weak variant but not the strong one
        M = ideal_mirror(6)
        M[0, -1] = M[-1, 0] = np.exp(0.7j)
        assert fidelity.f_encoded(M, "strong") == pytest.approx(1.0)
        assert fidelity.f_encoded(M, "weak") < 1.0

    def test_encoded_variant_validated(self):
        with pytest.raises(ValueError):
            fidelity.f_encoded(np.eye(4), "medium")

    def test_remote_z_perfect_mirror(self):
        # swap out, flip, swap back: m = (M S M)_00 = -1, so F = 1
        assert fidelity.f_remote_z(ideal_mirror(5)) == pytest.approx(1.0)

    def test_remote_z_requires_symmetric(self):
        M = np.eye(4, dtype=complex)
        M[0, 1] = 0.5
        with pytest.raises(ValueError):
            fidelity.f_remote_z(M)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_all_fidelities_in_range(self, seed):
        M = random_propagator(seed)
        rng = np.random.default_rng(seed + 1)
        parity = rng.uniform(-1.0, 1.0)
        for f in (
            fidelity.f_double_swap(M), fidelity.f_single_swap(M, parity),
            fidelity.f_encoded(M, "weak"), fidelity.f_encoded(M, "strong"), fidelity.f_remote_z(M),
        ):
            assert 0.0 <= f <= 1.0 + 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_strong_dominates_weak(self, seed):
        M = random_propagator(seed)
        assert fidelity.f_encoded(M, "strong") >= fidelity.f_encoded(M, "weak") - 1e-12


class TestEncodedElementForm:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(3, 40), n_times=st.integers(1, 60))
    def test_element_form_matches_matrix_form(self, seed, n, n_times):
        rng = np.random.default_rng(seed)
        e = rng.uniform(-1.5, 1.5, n - 1)
        K = np.diag(rng.uniform(-1.0, 1.0, n)) + np.diag(e, 1) + np.diag(e, -1)
        times = np.linspace(0.0, rng.uniform(1.0, 50.0), n_times)
        w, v = dynamics.tridiagonal_eigenpairs(K)
        elements = dynamics.transfer_elements(w, v[0], v[-1], times)
        for variant in ("weak", "strong"):
            F = fidelity.f_encoded(elements, variant)
            assert F.shape == times.shape
            ref = [fidelity.f_encoded(dynamics.propagator(K, t), variant) for t in times]
            assert np.max(np.abs(F - ref)) <= 1e-13


class TestErrorBudget:
    """``dynamics.ModeBudget.errors`` against the scalar oracles."""

    def _modes(self, N=7):
        J = np.diag(np.ones(N - 1), 1) + np.diag(np.ones(N - 1), -1)
        return dynamics.eigenmodes(J)

    def test_hand_computed_off_resonant(self):
        modes = self._modes(3)
        gL, gR, _, _, eps = dynamics.mode_budget(modes).errors(0.1, 3, math.inf)
        z = 1
        assert gL[z] == 0.1
        expect = sum(
            (0.1**2 * abs(modes.psi_left[k]) ** 2 + gR[z] ** 2 * abs(modes.psi_right[k]) ** 2)
            / (modes.energies[k] - modes.energies[z]) ** 2
            for k in (0, 2)
        )
        assert eps[z] == pytest.approx(expect, rel=1e-12)
        ref = oracles.error_budget(modes, oracles.matched_choice(modes, z, 0.1), 3, math.inf)
        assert ref.decoherence == 0.0
        assert ref.total == pytest.approx(expect, rel=1e-12)

    def test_decoherence_term(self):
        modes = self._modes(5)
        budget = dynamics.mode_budget(modes)
        z = 2
        gL, _, _, tau, eps = budget.errors(0.05, 5, 100.0)
        off = budget.errors(gL[z], 5, math.inf)[-1][z]
        assert eps[z] - off == pytest.approx(5 * tau[z] / 100.0, rel=1e-12)
        ref = oracles.error_budget(modes, oracles.matched_choice(modes, z, gL[z]), 5, 100.0)
        assert ref.decoherence == pytest.approx(5 * tau[z] / 100.0, rel=1e-12)
        assert eps[z] == pytest.approx(ref.total, rel=1e-12)

    def test_quadratic_in_coupling(self):
        modes = self._modes(7)
        budget = dynamics.mode_budget(modes)
        e1 = budget.errors(0.02, 7, math.inf)[-1]
        e2 = budget.errors(0.04, 7, math.inf)[-1]
        assert np.isfinite(e1).sum() >= 3
        assert e2[budget.candidate] == pytest.approx(4.0 * e1[budget.candidate], rel=1e-12)
        ref = oracles.error_budget(modes, oracles.matched_choice(modes, 3, 0.04), 7, math.inf)
        assert e2[3] == pytest.approx(ref.off_resonant, rel=1e-12)

    def test_invalid_t1(self):
        budget = dynamics.mode_budget(self._modes(3))
        for T1 in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError):
                budget.errors(0.1, 3, T1)

    def test_optimal_coupling_is_stationary(self):
        modes = self._modes(9)
        z = 4
        T1 = 2.0e4
        gL, gR, _, _, eps = dynamics.mode_budget(modes).errors(10.0, 9, T1)
        assert gL[z] < 10.0  # the optimum, not the cap
        ref = oracles.optimal_coupling(modes, z, 9, T1)
        assert (gL[z], gR[z]) == pytest.approx(ref, rel=1e-12)

        def total(g):
            return oracles.error_budget(modes, oracles.matched_choice(modes, z, g), 9, T1).total

        best = total(gL[z])
        assert eps[z] == pytest.approx(best, rel=1e-12)
        assert best < total(0.9 * gL[z])
        assert best < total(1.1 * gL[z])


class TestPerturbative:
    def test_warning_outside_window(self):
        with pytest.warns(UserWarning):
            fidelity.perturbative_infidelity(25, 0.5)

    def test_no_warning_inside_window(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fidelity.perturbative_infidelity(25, 0.01)

    def test_odd_chain_fields(self):
        est = fidelity.perturbative_infidelity(11, 0.01)
        assert est.delta == 0.0 and est.register_field == 0.0
        assert est.mode_index == 6
        assert est.transfer_time == pytest.approx(
            math.sqrt(12.0) * math.pi / 0.02
        )
        assert est.return_deficit is not None

    def test_even_chain_has_detuning(self):
        est = fidelity.perturbative_infidelity(10, 0.01)
        assert est.return_deficit is None
        assert est.register_field == pytest.approx(
            2.0 * math.cos(math.pi * 5 / 11) + est.delta
        )
        # the detuning is a second-order (g^2) shift
        est2 = fidelity.perturbative_infidelity(10, 0.02)
        assert est2.delta == pytest.approx(4.0 * est.delta, rel=1e-12)

    def test_matches_exact_weak_coupling(self):
        # the real accuracy sweep is an acceptance test; spot-check one point
        N, g = 21, 0.005
        est = fidelity.perturbative_infidelity(N, g)
        K = uniform_k(N, g)
        M = dynamics.propagator(K, est.transfer_time)
        exact = 1.0 - abs(M[0, -1]) ** 2
        assert est.transfer_infidelity == pytest.approx(exact, rel=0.1)

    def test_estimates_nonnegative(self):
        for N in (9, 10, 33, 34):
            est = fidelity.perturbative_infidelity(N, 0.01)
            assert est.transfer_infidelity >= 0.0
            if est.return_deficit is not None:
                assert est.return_deficit >= 0.0
