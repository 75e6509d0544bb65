import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from spinbus import chains


class TestEngineeredCouplings:
    def test_values_small_chain(self):
        # N = 2: bonds (1/2)sqrt((i+1)(3-i)) for i = 0, 1, 2
        J = chains.engineered_couplings(2)
        assert np.allclose(J, [np.sqrt(3) / 2, 1.0, np.sqrt(3) / 2])

    def test_symmetric_profile(self):
        J = chains.engineered_couplings(10)
        assert np.allclose(J, J[::-1])

    def test_linear_spectrum(self):
        # The engineered profile makes the (N+2)-site spectrum exactly linear.
        spec = chains.ChainSpec(chains.ModelKind.XX, 7, chains.Engineered())
        K = chains.build_single_particle_matrix(spec)
        w = np.linalg.eigvalsh(K)
        gaps = np.diff(w)
        assert np.allclose(gaps, gaps[0], atol=1e-12)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            chains.engineered_couplings(-1)


class TestPositionsAndDisorder:
    def test_sampling_reproducible(self):
        spec = chains.DisorderSpec(0.1, master_seed=7)
        a = chains.sample_positions(spec, 12, stream=3)
        b = chains.sample_positions(spec, 12, stream=3)
        assert np.array_equal(a, b)

    def test_streams_independent_of_order(self):
        spec = chains.DisorderSpec(0.1, master_seed=7)
        late = chains.sample_positions(spec, 12, stream=9)
        again = chains.sample_positions(spec, 12, stream=9)
        other = chains.sample_positions(spec, 12, stream=2)
        assert np.array_equal(late, again)
        assert not np.array_equal(late, other)

    def test_minimum_spacing_clamp(self):
        # Huge sigma forces many redraws; every gap must still clear the
        # floor of 0.2 mean spacings.
        spec = chains.DisorderSpec(2.0, master_seed=1)
        pos = chains.sample_positions(spec, 40)
        assert np.all(np.diff(pos) >= 0.2)

    def test_zero_sigma_is_uniform(self):
        pos = chains.sample_positions(chains.DisorderSpec(0.0), 6)
        assert np.array_equal(pos, np.arange(6.0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            chains.DisorderSpec(-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_rejected(self, value):
        # NaN and inf would otherwise give NaN or inf positions
        with pytest.raises(ValueError, match="sigma must be finite"):
            chains.DisorderSpec(value)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), stream=st.integers(0, 1000))
    def test_positions_strictly_increasing(self, seed, stream):
        spec = chains.DisorderSpec(0.4, master_seed=seed)
        pos = chains.sample_positions(spec, 9, stream)
        assert np.all(np.diff(pos) > 0)

    def test_cube_law_value(self):
        # positions in mean spacings, couplings in kappa: J = 1 / r^3
        J = chains.couplings_from_positions((0.0, 2.0))
        assert J[0, 1] == 1.0 / 8.0

    def test_range_rules(self):
        x = (0.0, 1.0, 2.0, 3.0)
        nn = chains.couplings_from_positions(x, chains.RangeRule.NEAREST_NEIGHBOR)
        full = chains.couplings_from_positions(x, chains.RangeRule.FULL_DIPOLAR)
        nnn = chains.couplings_from_positions(x, chains.RangeRule.NNN_CANCELLED)
        assert nn[0, 2] == 0.0 and nn[0, 1] == 1.0
        assert full[0, 2] == pytest.approx(1.0 / 8.0)
        assert full[0, 3] == pytest.approx(1.0 / 27.0)
        assert nnn[0, 2] == 0.0 and nnn[0, 3] == pytest.approx(1.0 / 27.0)
        for J in (nn, full, nnn):
            assert np.allclose(J, J.T)
            assert np.all(np.diag(J) == 0.0)

    def test_non_increasing_positions_rejected(self):
        with pytest.raises(ValueError):
            chains.FromPositions((0.0, 1.0, 1.0))


class TestChainSpecValidation:
    def test_explicit_bond_count(self):
        with pytest.raises(ValueError):
            chains.ChainSpec(chains.ModelKind.XX, 4, chains.Explicit((1.0, 1.0)))

    def test_from_positions_count(self):
        # the chain sites only: the registers couple through g_left and g_right
        for x in ((0.0, 1.0, 2.0), (0.0, 1.0, 2.0, 3.0, 4.0, 5.0)):
            with pytest.raises(ValueError, match="N=4 coordinates"):
                chains.ChainSpec(chains.ModelKind.XX, 4, chains.FromPositions(x))

    @pytest.mark.parametrize(
        "field", ["g_left", "g_right", "register_field", "uniform_field"]
    )
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            chains.ChainSpec(chains.ModelKind.XX, 3, chains.Uniform(), **{field: value})

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_uniform_kappa_rejected(self, value):
        with pytest.raises(ValueError, match="kappa must be finite"):
            chains.Uniform(value)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_explicit_bond_rejected(self, value):
        with pytest.raises(ValueError, match="values must be finite"):
            chains.Explicit((1.0, value))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_position_rejected(self, value):
        # NaN passes the increasing-order check, and inf ends an increasing list
        positions = (0.0, 1.0, value) if value > 0 else (0.0, value, 2.0)
        with pytest.raises(ValueError, match="positions must be finite"):
            chains.FromPositions(positions)

    def test_negative_coupling_rejected(self):
        with pytest.raises(ValueError):
            chains.ChainSpec(chains.ModelKind.XX, 3, chains.Uniform(), g_left=-0.1)

    def test_model_kind_coercion(self):
        spec = chains.ChainSpec("XX", 3, chains.Uniform())
        assert spec.model_kind is chains.ModelKind.XX


class TestSingleParticleMatrix:
    def test_uniform_structure(self):
        spec = chains.ChainSpec(
            chains.ModelKind.XX, 3, chains.Uniform(2.0),
            g_left=0.1, g_right=0.3, uniform_field=0.5, register_field=1.5,
        )
        K = chains.build_single_particle_matrix(spec)
        assert K.shape == (5, 5)
        assert K[0, 1] == 0.1 and K[3, 4] == 0.3
        assert K[1, 2] == K[2, 3] == 2.0
        assert K[0, 0] == K[4, 4] == 1.5
        assert np.all(np.diag(K)[1:-1] == 0.5)
        assert np.allclose(K, K.T)

    def test_tfim_spec_rejected(self):
        spec = chains.ChainSpec(chains.ModelKind.TFIM, 3, chains.Uniform())
        with pytest.raises(ValueError):
            chains.build_single_particle_matrix(spec)

    def test_long_range_rule_fills_matrix(self):
        x = (0.0, 1.0, 2.0, 3.0)
        spec = chains.ChainSpec(
            chains.ModelKind.XX,
            4,
            chains.FromPositions(x, chains.RangeRule.FULL_DIPOLAR),
            g_left=0.2,
            g_right=0.2,
        )
        K = chains.build_single_particle_matrix(spec)
        assert K[1, 3] == pytest.approx(1.0 / 8.0)  # chain sites 0 and 2
        assert K[0, 1] == 0.2 and K[4, 5] == 0.2
        assert K[0, 2] == 0.0  # registers stay nearest-neighbor coupled


class TestBdGMatrix:
    def test_xx_spec_rejected(self):
        spec = chains.ChainSpec(chains.ModelKind.XX, 3, chains.Uniform())
        with pytest.raises(ValueError):
            chains.build_bdg_matrix(spec)

    def test_block_structure(self):
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, 4, chains.Uniform(1.0), uniform_field=0.7
        )
        A = chains.build_bdg_matrix(spec)
        n = 4
        alpha = A[:n, :n]
        beta = A[:n, n:]
        assert np.allclose(A, A.T)
        assert np.allclose(A[n:, n:], -alpha)
        assert np.allclose(beta, -beta.T)
        assert alpha[0, 0] == 0.7 and alpha[0, 1] == -0.5

    @pytest.mark.parametrize("B", [0.3, 1.0, 2.5])
    def test_ground_state_energy_matches_dense(self, B):
        # Minus the summed positive quasiparticle energies must equal the
        # exact many-body ground state energy of the dense chain.
        n = 6
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, n, chains.Uniform(1.0), uniform_field=B
        )
        A = chains.build_bdg_matrix(spec)
        w = np.linalg.eigvalsh(A)
        e_quad = -np.sum(w[w > 0])
        H = oracles.tfim_h(np.ones(n - 1), B, n)
        e_exact = np.linalg.eigvalsh(H)[0]
        assert e_quad == pytest.approx(e_exact, abs=1e-10)

    def test_registers_appended_hopping_only(self):
        spec = chains.ChainSpec(
            chains.ModelKind.TFIM, 3, chains.Uniform(1.0),
            g_left=0.2, g_right=0.4, uniform_field=0.9, register_field=1.1,
        )
        A = chains.build_bdg_matrix(spec, include_registers=True)
        m = 5
        alpha = A[:m, :m]
        beta = A[:m, m:]
        assert alpha[0, 1] == 0.1 and alpha[3, 4] == 0.2
        assert beta[0, 1] == 0.0  # registers carry no pairing terms
        assert alpha[0, 0] == alpha[4, 4] == 1.1
        assert alpha[1, 1] == 0.9

    @pytest.mark.parametrize("rule", [chains.RangeRule.FULL_DIPOLAR, chains.RangeRule.NNN_CANCELLED])
    def test_long_range_positions_rejected(self, rule):
        # the pairing matrix holds nearest-neighbour bonds only, so a
        # long-range rule would lose its |i - j| > 1 couplings unnoticed
        x = (0.0, 1.0, 2.0, 3.0, 4.0)
        spec = chains.ChainSpec(chains.ModelKind.TFIM, 5, chains.FromPositions(x, rule))
        for include_registers in (False, True):
            with pytest.raises(ValueError, match=rule.value):
                chains.build_bdg_matrix(spec, include_registers=include_registers)
        nn = chains.ChainSpec(chains.ModelKind.TFIM, 5, chains.FromPositions(x))
        A = chains.build_bdg_matrix(nn)
        assert A[0, 1] == -0.5 and A[0, 2] == 0.0

    @pytest.mark.parametrize(
        "pattern",
        [
            chains.Uniform(1.3),
            chains.Engineered(),
            chains.Explicit((0.8, 1.7)),
            chains.FromPositions((0.0, 1.1, 2.0)),
        ],
        ids=["uniform", "engineered", "explicit", "chain-positions"],
    )
    def test_register_bonds_are_those_of_k(self, pattern):
        # the registers couple through the same bonds as in the XX twin's K
        fields = dict(g_left=0.3, g_right=0.45, uniform_field=0.9)
        K = chains.build_single_particle_matrix(
            chains.ChainSpec(chains.ModelKind.XX, 3, pattern, **fields)
        )
        A = chains.build_bdg_matrix(
            chains.ChainSpec(chains.ModelKind.TFIM, 3, pattern, **fields), include_registers=True
        )
        assert abs(A[0, 1]) == K[0, 1] / 2.0 and abs(A[3, 4]) == K[3, 4] / 2.0
        assert A[1, 0] == A[0, 1] and A[4, 3] == A[3, 4]

    def test_engineered_registers_ignore_g(self):
        # an Engineered profile includes its register bonds, J_0 = J_N = sqrt(N+1)/2
        spec = chains.ChainSpec(chains.ModelKind.TFIM, 3, chains.Engineered(), g_left=0.3)
        A = chains.build_bdg_matrix(spec, include_registers=True)
        assert A[0, 1] == A[3, 4] == 0.5

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 11])
    @pytest.mark.parametrize("register_field", [None, 0.7])
    def test_chain_only_is_the_chain_block_of_the_register_matrix(self, n, register_field):
        rng = np.random.default_rng(n)
        for pattern in (chains.Uniform(1.3), chains.Explicit(tuple(rng.uniform(0.2, 2.0, n - 1)))):
            spec = chains.ChainSpec(
                chains.ModelKind.TFIM, n, pattern, g_left=0.3, g_right=0.45,
                uniform_field=-0.4, register_field=register_field,
            )
            full = chains.build_bdg_matrix(spec, include_registers=True)
            chain = np.r_[1 : n + 1, n + 3 : 2 * n + 3]  # chain particle, then hole rows
            assert chains.build_bdg_matrix(spec).tobytes() == full[np.ix_(chain, chain)].tobytes()
