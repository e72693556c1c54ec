"""States, multiport unitaries, and the two probability paths."""

import math
import warnings
from functools import reduce

import numpy as np
import pytest

from quditbell.optimize import optimal_angles
from quditbell.quantum import (
    DENSE_DIMENSION_LIMIT,
    PSD_EIGENVALUE_FLOOR,
    DenseLimitError,
    DensityMatrix,
    PhaseConfiguration,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
    mix_with_noise,
    multiport_unitary,
    product_state,
)
from quditbell.scenario import (
    BellScenario,
    JointProbabilityTable,
    all_setting_strings,
    bell_value,
    coefficient_by_residue,
    outcome_index,
    outcome_sums_mod_d,
    t_count,
)
from conftest import outcome_from_index, random_config, random_density


def maximally_mixed(scenario):
    dim = scenario.n_outcome_tuples
    return DensityMatrix(scenario, np.eye(dim, dtype=complex) / dim)


def kron_joint_probabilities(rho, config):
    """Oracle: rotate the whole state once per setting string.

    U_s is the Kronecker product of the parties' multiport unitaries, party 1
    in the fastest basis digit, and P(x|s) is the diagonal of U_s rho U_s^dag:
    2^N products of d^N x d^N matrices.
    """
    n = rho.scenario.n_parties
    probs = {}
    for s in all_setting_strings(n):
        ops = [multiport_unitary(config.vector(p, int(s[p - 1]))) for p in range(1, n + 1)]
        u = reduce(np.kron, ops[::-1])
        probs[s] = np.real(np.diagonal(u @ rho.matrix @ u.conj().T)).copy()
    return JointProbabilityTable(rho.scenario, probs)


def worst_entry_difference(table, reference):
    return max(
        float(np.max(np.abs(table.probs_for(s) - reference.probs_for(s))))
        for s in all_setting_strings(table.scenario.n_parties)
    )


def loop_ghz_residue_probs(config, setting):
    """Oracle: GHZ probability per outcome-sum residue class for one setting.

    The d branches interfere coherently: with Phi_j the j-th phase of the
    chosen settings summed over the parties, residue class r has probability
    |sum_j exp(i [Phi_j + 2 pi j r/d])|^2 / d^(N+1) per outcome tuple.
    """
    scenario = config.scenario
    d = scenario.dimension
    chosen = np.array([int(c) - 1 for c in setting])
    total_phase = config.phases[np.arange(scenario.n_parties), chosen].sum(axis=0)
    j = np.arange(d)
    angles = total_phase[None, :] + 2.0 * np.pi * np.outer(j, j) / d  # rows: residue r
    amps = np.exp(1j * angles).sum(axis=1)
    return np.abs(amps) ** 2 / d ** (scenario.n_parties + 1)


def loop_ghz_bell_value(config):
    """Oracle: the Bell value summed setting string by setting string.

    Each of the 2^N strings contributes its t-count's residue coefficients
    against the per-setting residue probabilities, times the d^(N-1) outcome
    tuples per residue class.
    """
    scenario = config.scenario
    d = scenario.dimension
    per_residue_count = d ** (scenario.n_parties - 1)
    value = 0.0
    for s in all_setting_strings(scenario.n_parties):
        coeffs = coefficient_by_residue(t_count(s), d)
        value -= per_residue_count * float(coeffs @ loop_ghz_residue_probs(config, s))
    return value


class TestGhzState:
    def test_two_qubit_bell_state(self):
        rho = ghz_state(BellScenario(2, 2))
        expected = np.zeros((4, 4))
        for i in (0, 3):
            for j in (0, 3):
                expected[i, j] = 0.5
        np.testing.assert_allclose(rho.matrix, expected, atol=1e-15)

    def test_three_qutrit_support(self):
        rho = ghz_state(BellScenario(3, 3))
        assert rho.matrix.shape == (27, 27)
        nonzero = np.abs(rho.matrix) > 1e-15
        assert nonzero.sum() == 9
        assert np.allclose(rho.matrix[nonzero], 1 / 3)

    def test_purity(self):
        for n, d in ((2, 2), (3, 3), (4, 2)):
            rho = ghz_state(BellScenario(n, d)).matrix
            assert np.trace(rho @ rho).real == pytest.approx(1.0)


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(BellScenario(2, 2), mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(BellScenario(2, 2), np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="semidefinite"):
            DensityMatrix(BellScenario(2, 2), mat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.25, np.nan)])
    def test_rejects_non_finite_entry(self, bad):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                DensityMatrix(BellScenario(2, 2), mat)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 2), (2, 5), (4, 3), (8, 2)])
    def test_built_states_are_positive_semidefinite(self, rng, n, d):
        # the builders skip the eigvalsh check: their states are PSD by construction
        ghz = ghz_state(BellScenario(n, d))
        states = [ghz] + [mix_with_noise(ghz, v) for v in (0.0, 0.3, 0.7, 1.0)]
        if n > 1:
            rho_a = random_density(BellScenario(1, d), rng)
            states.append(product_state(rho_a, mix_with_noise(ghz_state(BellScenario(n - 1, d)), 0.5)))
        for rho in states:
            assert np.linalg.eigvalsh(rho.matrix)[0] >= PSD_EIGENVALUE_FLOOR


class TestMultiportUnitary:
    def test_zero_phase_qubit_case(self):
        u = multiport_unitary([0.0, 0.0])
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    def test_zero_phase_is_fourier(self):
        d = 3
        u = multiport_unitary(np.zeros(d))
        omega = np.exp(2j * np.pi / d)
        expected = omega ** np.outer(np.arange(d), np.arange(d)) / math.sqrt(d)
        np.testing.assert_allclose(u, expected, atol=1e-12)

    @pytest.mark.parametrize("d", [2, 3, 5, 8])
    def test_unbiased_and_unitary(self, d, rng):
        u = multiport_unitary(rng.uniform(0, 2 * np.pi, d))
        np.testing.assert_allclose(np.abs(u), 1 / math.sqrt(d), atol=1e-12)
        np.testing.assert_allclose(u @ u.conj().T, np.eye(d), atol=1e-12)

    def test_rejects_short_vector(self):
        with pytest.raises(ValueError):
            multiport_unitary([0.0])


class TestJointProbabilities:
    def test_matches_kron_oracle(self, rng):
        # d^N <= 256, single parties included
        cases = [(n, d) for n in range(1, 9) for d in range(2, 257) if d**n <= 256]
        assert len(cases) == 283
        for n, d in cases:
            scen = BellScenario(n, d)
            rho, config = random_density(scen, rng), random_config(scen, rng)
            worst = worst_entry_difference(
                joint_probabilities(rho, config), kron_joint_probabilities(rho, config)
            )
            assert worst <= 1e-12, (n, d, worst)

    def test_product_state_matches_kron_oracle(self, rng):
        d = 3
        rho = product_state(
            random_density(BellScenario(1, d), rng), random_density(BellScenario(2, d), rng)
        )
        config = random_config(rho.scenario, rng)
        assert len({tuple(v) for v in config.phases.reshape(-1, d)}) == 6
        worst = worst_entry_difference(
            joint_probabilities(rho, config), kron_joint_probabilities(rho, config)
        )
        assert worst <= 1e-12

    def test_beyond_the_kron_oracle(self, rng):
        # d^N = 729: the Kronecker path takes seconds here, the contraction ms
        scen = BellScenario(6, 3)
        config = random_config(scen, rng)
        rho = ghz_state(scen)
        worst = worst_entry_difference(joint_probabilities(rho, config), ghz_table(config))
        assert worst <= 1e-12
        noisy = joint_probabilities(mix_with_noise(rho, 0.7), config)
        assert bell_value(noisy) == pytest.approx(0.7 * ghz_bell_value(config), abs=1e-10)

    def test_maximally_mixed_is_uniform(self, rng):
        scen = BellScenario(2, 3)
        table = joint_probabilities(maximally_mixed(scen), random_config(scen, rng))
        for s in all_setting_strings(2):
            np.testing.assert_allclose(table.probs_for(s), 1 / 9, atol=1e-12)

    def test_ghz_zero_phases_supported_on_zero_sum(self):
        scen = BellScenario(3, 3)
        table = joint_probabilities(ghz_state(scen), PhaseConfiguration.zero(scen))
        for s in all_setting_strings(3):
            row = table.probs_for(s)
            for idx, p in enumerate(row):
                if sum(outcome_from_index(idx, scen)) % 3 == 0:
                    assert p == pytest.approx(1 / 9, abs=1e-12)
                else:
                    assert p == pytest.approx(0.0, abs=1e-12)

    def test_two_qubit_max_violation(self):
        scen = BellScenario(2, 2)
        table = joint_probabilities(ghz_state(scen), optimal_angles(scen))
        assert bell_value(table) == pytest.approx(2 * math.sqrt(2), abs=1e-9)

    def test_scenario_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            joint_probabilities(
                maximally_mixed(BellScenario(2, 2)),
                random_config(BellScenario(2, 3), rng),
            )

    def test_dense_limit_guard(self, monkeypatch):
        # shrink the guardrail rather than paying for a >4096-dim state
        monkeypatch.setattr("quditbell.quantum.DENSE_DIMENSION_LIMIT", 8)
        scen = BellScenario(2, 3)
        rho = ghz_state(scen)
        with pytest.raises(DenseLimitError, match="ghz_table"):
            joint_probabilities(rho, PhaseConfiguration.zero(scen))
        assert DENSE_DIMENSION_LIMIT == 4096

    def test_global_phase_invariance(self, rng):
        # adding a constant to one party's phase vector changes nothing
        scen = BellScenario(2, 3)
        config = random_config(scen, rng)
        shifted = config.phases.copy()
        shifted[1, 0, :] += 1.234
        table_a = joint_probabilities(ghz_state(scen), config)
        table_b = joint_probabilities(ghz_state(scen), PhaseConfiguration(scen, shifted))
        for s in all_setting_strings(2):
            np.testing.assert_allclose(
                table_a.probs_for(s), table_b.probs_for(s), atol=1e-12
            )


class TestClosedForm:
    def test_zero_phase_coherent_sum(self):
        table = ghz_table(PhaseConfiguration.zero(BellScenario(3, 3)))
        row = table.probs_for("111")
        assert row[outcome_index((0, 0, 0), 3)] == pytest.approx(1 / 9, abs=1e-14)
        assert row[outcome_index((0, 0, 1), 3)] == pytest.approx(0.0, abs=1e-14)

    def test_table_matches_setting_loop(self, rng):
        # every (N, d) with 2^N d^N <= 10^5 table entries and d <= 158, the
        # largest d that N = 2 admits; N = 1 alone would admit d up to 50,000,
        # whose d x d Fourier matrices would take 40 GB
        cases = [
            (n, d)
            for n in range(1, 9)
            for d in range(2, 159)
            if 2**n * d**n <= 10**5
        ]
        assert len(cases) == 351
        for n, d in cases:
            scen = BellScenario(n, d)
            config = random_config(scen, rng)
            table, sums = ghz_table(config), outcome_sums_mod_d(n, d)
            for s in all_setting_strings(n):
                expected = loop_ghz_residue_probs(config, s)[sums]
                worst = float(np.max(np.abs(table.probs_for(s) - expected)))
                assert worst <= 1e-12, (n, d, s, worst)

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_matches_dense_path(self, n, d, rng):
        scen = BellScenario(n, d)
        for _ in range(5):
            config = random_config(scen, rng)
            dense = joint_probabilities(ghz_state(scen), config)
            closed = ghz_table(config)
            for s in all_setting_strings(n):
                np.testing.assert_allclose(
                    closed.probs_for(s), dense.probs_for(s), atol=1e-10
                )

    def test_fast_bell_value_matches_table(self, rng):
        # 2^N d^N <= 10^5 table entries: N <= 8, and d <= 158 at N = 2
        cases = [
            (n, d)
            for n in range(2, 9)
            for d in range(2, 159)
            if 2**n * d**n <= 10**5
        ]
        assert len(cases) == 194
        for n, d in cases:
            scen = BellScenario(n, d)
            config = random_config(scen, rng)
            assert ghz_bell_value(config) == pytest.approx(
                bell_value(ghz_table(config)), abs=1e-11
            )

    @pytest.mark.parametrize("symmetric", [False, True], ids=["free", "symmetric"])
    def test_fast_bell_value_matches_setting_loop(self, symmetric, rng):
        for n in range(2, 10):
            for d in range(2, 8):
                scen = BellScenario(n, d)
                for _ in range(2):
                    if symmetric:
                        pair = rng.uniform(0.0, 2.0 * np.pi, (2, d))
                        config = PhaseConfiguration.from_party_vectors(scen, *pair)
                    else:
                        config = random_config(scen, rng)
                    # each of the 2^N setting terms lies in [-1, 1], and a random
                    # value can cancel to near zero: the floor is relative to 2^N
                    assert ghz_bell_value(config) == pytest.approx(
                        loop_ghz_bell_value(config), rel=1e-12, abs=1e-12 * 2**n
                    ), (n, d)


class TestNoiseMixing:
    def test_full_visibility_is_identity(self):
        rho = ghz_state(BellScenario(2, 3))
        np.testing.assert_allclose(mix_with_noise(rho, 1.0).matrix, rho.matrix)

    def test_zero_visibility_is_maximally_mixed(self):
        scen = BellScenario(2, 3)
        rho = mix_with_noise(ghz_state(scen), 0.0)
        np.testing.assert_allclose(rho.matrix, np.eye(9) / 9, atol=1e-15)

    def test_rejects_out_of_range(self):
        rho = ghz_state(BellScenario(2, 2))
        for v in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mix_with_noise(rho, v)

    def test_bell_value_affine_in_visibility(self):
        scen = BellScenario(2, 3)
        config = optimal_angles(scen)
        rho = ghz_state(scen)
        pure = bell_value(joint_probabilities(rho, config))
        for v in (0.25, 0.5, 0.75):
            mixed = bell_value(joint_probabilities(mix_with_noise(rho, v), config))
            assert mixed == pytest.approx(v * pure, abs=1e-10)


class TestProductState:
    def test_mixed_times_mixed(self):
        rho = product_state(
            maximally_mixed(BellScenario(1, 3)), maximally_mixed(BellScenario(2, 3))
        )
        assert rho.scenario == BellScenario(3, 3)
        np.testing.assert_allclose(rho.matrix, np.eye(27) / 27, atol=1e-15)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            product_state(
                maximally_mixed(BellScenario(1, 2)), maximally_mixed(BellScenario(2, 3))
            )

    @pytest.mark.parametrize("m", [1, 2])
    def test_probabilities_factorize(self, m, rng):
        # P(x|s) = P_A(x_A|s_A) * P_B(x_B|s_B) for every setting and outcome
        n, d = 3, 3
        scen = BellScenario(n, d)
        scen_a, scen_b = BellScenario(m, d), BellScenario(n - m, d)
        rho_a, rho_b = random_density(scen_a, rng), random_density(scen_b, rng)
        config = random_config(scen, rng)
        config_a = PhaseConfiguration(scen_a, config.phases[:m])
        config_b = PhaseConfiguration(scen_b, config.phases[m:])
        table = joint_probabilities(product_state(rho_a, rho_b), config)
        table_a = joint_probabilities(rho_a, config_a)
        table_b = joint_probabilities(rho_b, config_b)
        worst = 0.0
        for s in all_setting_strings(n):
            for idx in range(scen.n_outcome_tuples):
                o = outcome_from_index(idx, scen)
                expected = (
                    table_a.probs_for(s[:m])[outcome_index(o[:m], d)]
                    * table_b.probs_for(s[m:])[outcome_index(o[m:], d)]
                )
                worst = max(worst, abs(table.probs_for(s)[idx] - expected))
        assert worst <= 1e-10

    def test_ghz_times_single_qudit(self, rng):
        # fully entangled block times a trivial pure qudit still factorizes
        d = 3
        rho = product_state(ghz_state(BellScenario(2, d)), ghz_state(BellScenario(1, d)))
        scen = rho.scenario
        config = random_config(scen, rng)
        table = joint_probabilities(rho, config)
        table_a = joint_probabilities(
            ghz_state(BellScenario(2, d)), PhaseConfiguration(BellScenario(2, d), config.phases[:2])
        )
        table_b = joint_probabilities(
            ghz_state(BellScenario(1, d)), PhaseConfiguration(BellScenario(1, d), config.phases[2:])
        )
        for s in all_setting_strings(3):
            for idx in range(scen.n_outcome_tuples):
                o = outcome_from_index(idx, scen)
                assert table.probs_for(s)[idx] == pytest.approx(
                    table_a.probs_for(s[:2])[outcome_index(o[:2], d)]
                    * table_b.probs_for(s[2:])[outcome_index(o[2:], d)],
                    abs=1e-10,
                )


class TestPhaseConfiguration:
    def test_json_round_trip(self, rng):
        config = random_config(BellScenario(3, 4), rng)
        back = PhaseConfiguration.from_json_dict(config.to_json_dict())
        np.testing.assert_allclose(back.phases, config.phases)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("phases", [1.0, 2.0]),
            ("phases", "party-1"),
            ("party-1", [0.0, 0.0]),
            ("party-2", None),
            ("setting-1", 0.5),
            ("setting-2", ["x", 0.0]),
            ("n", True),
            ("n", 2.5),
            ("d", False),
            ("d", "2"),
        ],
    )
    def test_bad_payload_raises_value_error(self, field, value):
        payload = PhaseConfiguration.zero(BellScenario(2, 2)).to_json_dict()
        if field in ("n", "d", "phases"):
            payload[field] = value
        elif field.startswith("party"):
            payload["phases"][field] = value
        else:
            payload["phases"]["party-1"][field] = value
        with pytest.raises(ValueError):
            PhaseConfiguration.from_json_dict(payload)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PhaseConfiguration(BellScenario(2, 2), np.zeros((2, 2, 3)))

    def test_vector_accessor_bounds(self):
        config = PhaseConfiguration.zero(BellScenario(2, 2))
        with pytest.raises(ValueError):
            config.vector(3, 1)
        with pytest.raises(ValueError):
            config.vector(1, 0)
