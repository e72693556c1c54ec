"""States, multiport unitaries, and the two probability paths."""

import math
import re
import tracemalloc
import warnings
from functools import reduce

import numpy as np
import pytest

from quditbell import quantum
from quditbell.optimize import max_violation, optimal_angles
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
    TableFormatError,
    all_setting_strings,
    bell_value,
    outcome_index,
    outcome_sums_mod_d,
)
from conftest import (
    outcome_from_index,
    random_config,
    random_density,
    residue_coefficients,
    t_count,
)


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
    rows = []
    for s in all_setting_strings(n):
        ops = [multiport_unitary(config.phases[p, int(c) - 1]) for p, c in enumerate(s)]
        u = reduce(np.kron, ops[::-1])
        rows.append(np.real(np.diagonal(u @ rho.matrix @ u.conj().T)))
    return JointProbabilityTable(rho.scenario, rows)


def broadcast_joint_probabilities(rho, config):
    """Oracle: the contraction as one broadcast matmul per party, settings leading.

    From party N down, each party's K_pc[x, (a, b)] = U_pc[x, a] conj(U_pc[x, b]),
    shaped (2, 1, d, d^2), meets the state read as (settings and outcomes so
    far, pair p, pairs below): every step prepends the party's setting axis
    and puts its outcome axis after the earlier parties', so the result is
    already in the table's row order.
    """
    n, d = rho.scenario.n_parties, rho.scenario.dimension
    units = multiport_unitary(config.phases)
    if n == 1:
        state = np.sum((units[0] @ rho.matrix) * units[0].conj(), axis=-1)
    else:
        pairs = [axis for p in range(n) for axis in (p, n + p)]
        state = rho.matrix.reshape((d,) * (2 * n)).transpose(pairs)
        for p in reversed(range(n)):
            u = units[p]
            k = (u[:, :, :, None] * u[:, :, None, :].conj()).reshape(2, 1, d, d * d)
            state = np.matmul(k, state.reshape(-1, d * d, d ** (2 * p)))
    return JointProbabilityTable(rho.scenario, np.real(state).reshape(2**n, d**n))


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
        coeffs = residue_coefficients(t_count(s), d)
        value -= per_residue_count * float(coeffs @ loop_ghz_residue_probs(config, s))
    return value


def product_by_t(phases):
    """Oracle: the z^t coefficients of prod_p (f_p1 + z f_p2), halved factors, multiplied
    out party by party: (N, 2, d) -> (N+1, d, d), O(N^2 d^2)."""
    n, d = phases.shape[0], phases.shape[2]
    factors = quantum._branch_factors(phases)  # (N, 2, d, d)
    by_t = np.empty((n + 1, d, d), dtype=complex)
    by_t[:2] = factors[0]  # party 1 alone: f_11 + z f_12
    for p, (f1, f2) in enumerate(factors[1:], start=1):
        by_t[p + 1] = by_t[p] * f2
        by_t[1 : p + 1] = by_t[1 : p + 1] * f1 + by_t[:p] * f2
        by_t[0] *= f1
    return by_t


def product_ghz_bell_value(config):
    """Oracle: the free GHZ value as 2^N Re sum_t <W[t], by_t>, W the branch-pair weights
    and by_t the multiplied-out product, for any phases."""
    n, d = config.scenario.n_parties, config.scenario.dimension
    by_t = product_by_t(config.phases)
    return math.ldexp(float((quantum._ghz_weights(n, d).reshape(-1) @ by_t.reshape(-1)).real), n)


def shared_config(n, d, rng):
    """Random phases that every party shares."""
    pair = rng.uniform(0.0, 2.0 * np.pi, (2, d))
    return PhaseConfiguration(BellScenario(n, d), np.tile(pair, (n, 1, 1)))


def gauge_twin(config):
    """The same value through the fold over the parties: a constant added to one
    setting vector changes no factor e^(i(phi_j - phi_k)), but makes party 1 differ."""
    phases = config.phases.copy()
    phases[0, 0] += 0.7
    return PhaseConfiguration(config.scenario, phases)


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


class TestStateBytes:
    """The builders write the bytes of the formulas they replace."""

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 3), (3, 2), (2, 7), (3, 4), (5, 3)])
    def test_ghz_state_and_mixtures(self, n, d, rng):
        scen, dim = BellScenario(n, d), d**n
        vec = np.zeros(dim, dtype=complex)
        vec[np.arange(d) * ((dim - 1) // (d - 1))] = 1.0 / math.sqrt(d)
        ghz = ghz_state(scen)
        assert ghz.matrix.tobytes() == np.outer(vec, vec.conj()).tobytes()
        user = random_density(scen, rng)
        for rho in (ghz, user):
            for v in (0.0, 0.3, 0.7, 1.0):
                expected = v * rho.matrix + (1.0 - v) * np.eye(dim) / dim
                mixed = mix_with_noise(rho, v).matrix
                if rho is user and v == 0.0:
                    # 0 times a negative entry is -0.0, which adding the identity's
                    # +0.0 made +0.0: equal values, not equal bytes
                    np.testing.assert_array_equal(mixed, expected)
                else:
                    assert mixed.tobytes() == expected.tobytes(), (v, rho is user)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 3)])
    def test_column_major_user_states_mix_and_contract(self, n, d, rng):
        # a transpose or np.asfortranarray hands over a column-major matrix
        scen, dim = BellScenario(n, d), d**n
        row_major = random_density(scen, rng).matrix
        user = DensityMatrix(scen, np.asfortranarray(row_major))
        assert user.matrix.flags.c_contiguous
        assert user.matrix.tobytes() == row_major.tobytes()
        for v in (0.0, 0.5, 1.0):
            expected = v * row_major + (1.0 - v) * np.eye(dim) / dim
            np.testing.assert_array_equal(mix_with_noise(user, v).matrix, expected)
        config = random_config(scen, rng)
        reference = joint_probabilities(DensityMatrix(scen, row_major), config)
        assert joint_probabilities(user, config).rows.tobytes() == reference.rows.tobytes()

    def test_mixing_writes_the_diagonal_of_any_layout(self):
        # the package's own states are row-major; a column-major one still mixes
        scen = BellScenario(2, 2)
        column_major = np.asfortranarray(np.eye(4, dtype=complex) / 4)
        column_major[0, 1] = column_major[1, 0] = 0.1
        rho = DensityMatrix._positive_by_construction(scen, column_major)
        expected = 0.5 * column_major + 0.5 * np.eye(4) / 4
        np.testing.assert_array_equal(mix_with_noise(rho, 0.5).matrix, expected)


class TestDensityMatrixInvariants:
    def test_refusals_keep_their_text_and_order(self):
        # each matrix has its refusal's fault and every fault checked after it
        scen = BellScenario(2, 2)
        bad_trace = np.eye(4, dtype=complex) / 2
        non_hermitian = bad_trace.copy()
        non_hermitian[0, 1] = 0.1
        cases = [(np.full((4, 2), np.nan), "expected a 2^2 x 2^2 matrix, got shape (4, 2)")]
        for bad in (np.nan, np.inf, -np.inf):
            non_finite = non_hermitian.copy()
            non_finite[3, 2] = bad
            cases.append((non_finite, "matrix entries must be finite"))
        cases += [
            (non_hermitian, "matrix is not Hermitian (deviation 1.000e-01)"),
            (bad_trace, "trace is (2+0j), expected 1"),
        ]
        for mat, message in cases:
            for build in (DensityMatrix, DensityMatrix._positive_by_construction):
                with pytest.raises(ValueError) as info:
                    build(scen, mat.copy())
                assert str(info.value) == message

    def test_built_states_are_checked_in_place(self):
        # a package-built state keeps the array it was handed: no copy
        scen = BellScenario(2, 3)
        mat = np.eye(9, dtype=complex) / 9
        rho = DensityMatrix._positive_by_construction(scen, mat)
        assert rho.matrix is mat and not mat.flags.writeable
        user = np.eye(9, dtype=complex) / 9
        assert DensityMatrix(scen, user).matrix is not user and user.flags.writeable

    def test_build_peak(self):
        # the GHZ projector, its mixture and band-sized check temporaries; the
        # full-matrix checks peaked at 5.1 times the matrix
        tracemalloc.start()
        try:
            rho = mix_with_noise(ghz_state(BellScenario(5, 3)), 0.9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * rho.matrix.nbytes

    def test_hermiticity_deviation_is_the_full_maximum_bit_for_bit(self, rng):
        # every size up to 300, so every last band, partial or whole, is met
        for dim in range(1, 301):
            last, near = dim - 1, max(dim - 2, 0)
            square = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            hermitian = square + square.conj().T
            # above and below the diagonal, in the last band and across the bands
            spots = [(near, last), (last, near), (last, last), (0, last), (last, 0), (0, 1 % dim)]
            matrices = [square, hermitian]
            for i, j in spots:
                bad = hermitian.copy()
                bad[i, j] += 0.001 + 0.002j
                matrices.append(bad)
            for mat in matrices:
                full = float(np.max(np.abs(mat - mat.conj().T)))
                assert quantum._hermiticity_deviation(mat).hex() == full.hex(), dim

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix(BellScenario(2, 2), mat)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 2), (16, 16), (4,)])
    def test_rejects_wrong_shape(self, shape):
        with pytest.raises(ValueError, match=r"expected a 2\^2 x 2\^2 matrix"):
            DensityMatrix(BellScenario(2, 2), np.zeros(shape))

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

    @pytest.mark.parametrize("bad", [None, np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # a cast to float reads None as NaN, and either would fill the unitary with NaNs
        with pytest.raises(ValueError, match="^phases must be finite$"):
            multiport_unitary([0.1, bad])

    def test_stacked_phases_match_vector_calls(self, rng):
        phases = rng.uniform(0, 2 * np.pi, (4, 2, 3))
        stacked = multiport_unitary(phases)
        assert stacked.shape == (4, 2, 3, 3)
        for p in range(4):
            for c in range(2):
                np.testing.assert_array_equal(stacked[p, c], multiport_unitary(phases[p, c]))


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

    def test_matches_broadcast_oracle(self, rng):
        # every d^N <= 1024 with N >= 2; a single party reads the diagonal of
        # U rho U^dag at 2 d^3 multiply-adds per setting, so there d <= 64
        cases = [
            (n, d) for n in range(1, 11) for d in range(2, 65) if d**n <= 1024
        ]
        assert len(cases) == 116
        for n, d in cases:
            scen = BellScenario(n, d)
            config = random_config(scen, rng)
            ghz = ghz_state(scen)
            states = [ghz, mix_with_noise(ghz, 0.6), mix_with_noise(ghz, 0.0)]
            if n > 1:
                rest = mix_with_noise(ghz_state(BellScenario(n - 1, d)), 0.5)
                states.append(product_state(random_density(BellScenario(1, d), rng), rest))
            for rho in states:
                table = joint_probabilities(rho, config)
                worst = float(np.max(np.abs(table.rows - broadcast_joint_probabilities(rho, config).rows)))
                assert worst <= 1e-14, (n, d, worst)

    def test_peak_is_the_pair_copy_and_the_first_step(self, rng):
        # (1 + 2/d) times rho: 1.67 at d = 3, as the broadcast contraction peaked
        # for a user's column-major matrix too, which the state stores row-major
        scen = BellScenario(5, 3)
        built, config = mix_with_noise(ghz_state(scen), 0.9), random_config(scen, rng)
        for rho in (built, DensityMatrix(scen, np.asfortranarray(built.matrix))):
            tracemalloc.start()
            try:
                joint_probabilities(rho, config)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 1.68 * rho.matrix.nbytes

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
        # shrink the guardrail rather than paying for a >4096-dim state; ghz_state checks
        # it too, so the state is built first
        scen = BellScenario(2, 3)
        rho = ghz_state(scen)
        monkeypatch.setattr("quditbell.quantum.DENSE_DIMENSION_LIMIT", 8)
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

    def test_builds_one_table(self):
        # the gathered rows are checked in place and become the table: no copy
        config = optimal_angles(BellScenario(8, 3))
        tracemalloc.start()
        try:
            table = ghz_table(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2 * table.rows.nbytes

    def test_refuses_a_table_past_the_limit_before_allocating(self):
        # 2^12 * 7^12 entries would take 103 GiB
        config = optimal_angles(BellScenario(12, 7))
        tracemalloc.start()
        try:
            with pytest.raises(DenseLimitError, match=r"2\^12\*7\^12 entries"):
                ghz_table(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_fourier_matrix_built_once_read_only(self):
        first, again = quantum._fourier(5), quantum._fourier(5)
        assert first is again
        assert not first.flags.writeable
        assert quantum._fourier.cache_parameters()["maxsize"] is not None

    def test_ghz_weights_built_once_read_only(self):
        first, again = quantum._ghz_weights(4, 3), quantum._ghz_weights(4, 3)
        assert first is again
        assert not first.flags.writeable
        # a search reads one table: (N+1) d^2 entries per size kept would add up
        assert quantum._ghz_weights.cache_parameters()["maxsize"] == 1

    def test_free_values_at_several_sizes_hold_one_weights_table(self, rng):
        quantum._ghz_weights.cache_clear()
        for n, d in [(3, 3), (4, 5), (6, 2), (5, 40)]:
            ghz_bell_value(random_config(BellScenario(n, d), rng))
        assert quantum._ghz_weights.cache_info().currsize == 1

    def test_ghz_lags_built_once_read_only(self):
        first, again = quantum._ghz_lags(4, 3), quantum._ghz_lags(4, 3)
        assert first is again
        assert not first.flags.writeable
        maxsize = quantum._ghz_lags.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize == quantum._fourier.cache_parameters()["maxsize"]

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
                        config = shared_config(n, d, rng)
                    else:
                        config = random_config(scen, rng)
                    # each of the 2^N setting terms lies in [-1, 1], and a random
                    # value can cancel to near zero: the floor is relative to 2^N
                    assert ghz_bell_value(config) == pytest.approx(
                        loop_ghz_bell_value(config), rel=1e-12, abs=1e-12 * 2**n
                    ), (n, d)


class TestFreeFold:
    """ghz_bell_value's fold of the weights through the parties, against the product
    multiplied out to its N + 1 coefficients, at sizes the setting loop cannot reach."""

    @staticmethod
    def assert_matches_product(config):
        # as against the setting loop: the floor is relative to 2^N
        n = config.scenario.n_parties
        assert ghz_bell_value(config) == pytest.approx(
            product_ghz_bell_value(config), rel=1e-12, abs=math.ldexp(1e-12, n)
        ), config.scenario

    def test_matches_the_product(self, rng):
        # at N = 1 every block is party 1's, and the residue rows answer
        for n in range(1, 13):
            for d in range(2, 8):
                self.assert_matches_product(random_config(BellScenario(n, d), rng))

    @pytest.mark.parametrize("n,d", [(30, 8), (100, 4), (12, 100), (1024, 2)])
    def test_matches_the_product_at_large_sizes(self, n, d, rng):
        # a random value cancels to near the floor; near the optimum the relative tolerance binds
        scen = BellScenario(n, d)
        self.assert_matches_product(random_config(scen, rng))
        near = optimal_angles(scen).phases + rng.uniform(-1e-3, 1e-3, (n, 2, d))
        config = PhaseConfiguration(scen, near)
        assert ghz_bell_value(config) > 0.9 * max_violation(scen)
        self.assert_matches_product(config)

    @pytest.mark.parametrize("d", [2, 7])
    def test_one_ulp_off_the_optimum_at_n_1024(self, d):
        scen = BellScenario(1024, d)
        phases = optimal_angles(scen).phases.copy()
        phases[-1, 1, 1] = np.nextafter(phases[-1, 1, 1], np.inf)
        value = ghz_bell_value(PhaseConfiguration(scen, phases))
        assert value == pytest.approx(max_violation(scen), rel=1e-13)

    @pytest.mark.parametrize("n,d,calls", [(8, 300, 2), (3, 600, 3), (20, 3, 1)])
    def test_the_fold_builds_factors_in_bounded_blocks(self, monkeypatch, rng, n, d, calls):
        # all 8 parties' factors at (8, 300) would be 1.44e6 entries; the blocks fold to
        # the value of one build bit for bit
        config = random_config(BellScenario(n, d), rng)
        bound = quantum._FACTOR_ENTRIES
        monkeypatch.setattr(quantum, "_FACTOR_ENTRIES", 2**62)
        whole = ghz_bell_value(config)
        monkeypatch.setattr(quantum, "_FACTOR_ENTRIES", bound)
        built = []
        real = quantum._branch_factors

        def counted(phases):
            built.append(phases.size * phases.shape[-1])
            return real(phases)

        monkeypatch.setattr(quantum, "_branch_factors", counted)
        assert ghz_bell_value(config) == whole
        assert len(built) == calls
        assert sum(built) == 2 * n * d * d
        assert max(built) <= bound


class TestSharedPhases:
    """ghz_bell_value's residue rows, for phases every party shares, against the fold."""

    @staticmethod
    def assert_matches_twin(config):
        n = config.scenario.n_parties
        assert ghz_bell_value(config) == pytest.approx(
            ghz_bell_value(gauge_twin(config)), rel=1e-12, abs=math.ldexp(1e-12, n)
        ), config.scenario

    def test_matches_gauge_twin(self, rng):
        for n in range(1, 13):
            for d in range(2, 8):
                self.assert_matches_twin(shared_config(n, d, rng))

    @pytest.mark.parametrize("n,d", [(60, 3), (200, 20), (1024, 7)])
    def test_matches_gauge_twin_at_large_n(self, n, d, rng):
        self.assert_matches_twin(shared_config(n, d, rng))

    def test_shared_phases_skip_the_product(self, monkeypatch, rng):
        calls = []
        real = quantum._branch_factors

        def counted(phases):
            calls.append(phases.shape)
            return real(phases)

        monkeypatch.setattr(quantum, "_branch_factors", counted)
        scen = BellScenario(3, 3)
        assert ghz_bell_value(optimal_angles(scen)) == pytest.approx(max_violation(scen), rel=1e-13)
        assert calls == []
        ghz_bell_value(random_config(scen, rng))
        assert len(calls) == 1
        # one ulp off shared, and a -0.0 against a 0.0, take the product
        phases = optimal_angles(scen).phases.copy()
        phases[2, 1, 2] = np.nextafter(phases[2, 1, 2], np.inf)
        off = PhaseConfiguration(scen, phases)
        assert ghz_bell_value(off) == pytest.approx(max_violation(scen), rel=1e-12)
        assert len(calls) == 2
        phases = optimal_angles(scen).phases.copy()
        phases[1, 0, 0] = -0.0
        assert ghz_bell_value(PhaseConfiguration(scen, phases)) == pytest.approx(
            max_violation(scen), rel=1e-12
        )
        assert len(calls) == 3

    @pytest.mark.parametrize("n", [2, 30, 200, 1024])
    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_closed_form_at_optimal_angles(self, n, d):
        scen = BellScenario(n, d)
        assert ghz_bell_value(optimal_angles(scen)) == pytest.approx(max_violation(scen), rel=1e-13)

    @pytest.mark.parametrize("n,d", [(3, 3), (60, 300), (1024, 7)])
    def test_shared_phases_never_build_the_weights(self, monkeypatch, n, d):
        # the value comes from the N+1 residue rows, not the (N+1, d, d) weight tensor
        def weights(n_parties, dimension):
            pytest.fail("shared phases built the branch-pair weights")

        monkeypatch.setattr(quantum, "_ghz_weights", weights)
        scen = BellScenario(n, d)
        assert ghz_bell_value(optimal_angles(scen)) == pytest.approx(max_violation(scen), rel=1e-13)

    def test_shared_phases_at_large_d_stay_small(self):
        # (61, 300, 300) complex entries would take 88 MB; 61 rows of 300 take 0.3 MB
        config = optimal_angles(BellScenario(60, 300))
        tracemalloc.start()
        try:
            ghz_bell_value(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20

    def test_past_the_float_range_both_paths_overflow(self):
        config = optimal_angles(BellScenario(1025, 2))
        for c in (config, gauge_twin(config)):
            with pytest.raises(OverflowError):
                ghz_bell_value(c)


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


@pytest.mark.parametrize(
    "build,error",
    [
        (lambda: PhaseConfiguration(BellScenario(2, 2), np.full((2, 2, 2), 1 + 1j)), ValueError),
        (lambda: JointProbabilityTable(BellScenario(2, 2), np.full((4, 4), 0.25 + 0.5j)), TableFormatError),
        (lambda: multiport_unitary(np.full(3, 0.5 + 0.5j)), ValueError),
    ],
    ids=["phases", "table", "multiport"],
)
def test_complex_input_is_refused(build, error):
    # a cast to float would keep only the real parts, with no more than a warning
    with pytest.raises(error, match="must be real") as info:
        build()
    assert info.type is error
    assert len(str(info.value)) < 100


@pytest.mark.parametrize(
    "build,error,values,text",
    [
        (lambda values: PhaseConfiguration(BellScenario(2, 2), values), ValueError,
         np.full((2, 2, 2), 0.5), "phases must be real numbers"),
        (lambda values: JointProbabilityTable(BellScenario(2, 2), values), TableFormatError,
         np.eye(4), "probabilities must be real numbers"),
        (lambda values: DensityMatrix(BellScenario(1, 2), values), ValueError,
         np.eye(2) / 2, "matrix entries must be numbers"),
        (multiport_unitary, ValueError, np.array([0.1, 0.2]), "phases must be real numbers"),
    ],
    ids=["phases", "table", "state", "multiport"],
)
@pytest.mark.parametrize("kind", [str, bytes, bool])
def test_text_and_truth_values_are_refused(build, error, values, text, kind):
    # a cast to float would read '0.5' as 0.5 rad, and the identity of bools as a table whose
    # bell_value is -2; a cast to complex reads text and truth values as numbers too
    values = values.astype(kind)
    with pytest.raises(error, match=re.escape(f"{text}, got dtype {values.dtype}")):
        build(values)


def test_a_complex_hermitian_state_loads():
    # complex is a density matrix's own dtype: the rule that refuses it for phases and tables
    # must not refuse it here, whether it comes as an array or as nested lists
    scen = BellScenario(1, 2)
    matrix = np.array([[0.5, 0.25j], [-0.25j, 0.5]])
    for given in (matrix, matrix.tolist()):
        rho = DensityMatrix(scen, given)
        assert rho.matrix.dtype == complex and rho.matrix.tobytes() == matrix.tobytes()
        assert rho.matrix is not given


class TestPhaseConfiguration:
    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            PhaseConfiguration(BellScenario(2, 2), np.zeros((2, 2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        phases = np.zeros((2, 2, 2))
        phases[1, 0, 1] = bad
        with pytest.raises(ValueError, match="phases must be finite"):
            PhaseConfiguration(BellScenario(2, 2), phases)
