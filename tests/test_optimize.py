"""Closed-form maxima, critical visibilities, and the phase search."""

import math
import warnings

import numpy as np
import pytest

from quditbell.optimize import (
    SVETLICHNY_VISIBILITY,
    _free_sweep,
    _symmetric_sweep,
    cglmp_max_closed_form,
    critical_visibility,
    max_violation,
    optimal_angles,
    optimize_phases,
    optimize_with_restarts,
)
from quditbell.quantum import (
    PhaseConfiguration,
    _ghz_weights,
    ghz_bell_value,
    ghz_state,
    joint_probabilities,
)
from quditbell.scenario import BellScenario, bell_value
from conftest import random_config


class TestClosedFormMax:
    def test_qubit_value(self):
        assert cglmp_max_closed_form(2) == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_qutrit_value(self):
        assert cglmp_max_closed_form(3) == pytest.approx(
            (12 + 8 * math.sqrt(3)) / 9, abs=1e-12
        )

    def test_strictly_increasing_in_dimension(self):
        values = [cglmp_max_closed_form(d) for d in range(2, 11)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_small_dimension(self):
        with pytest.raises(ValueError):
            cglmp_max_closed_form(1)

    def test_d4_matches_dense_simulation(self):
        scen = BellScenario(2, 4)
        table = joint_probabilities(ghz_state(scen), optimal_angles(scen))
        assert cglmp_max_closed_form(4) == pytest.approx(bell_value(table), abs=1e-6)


class TestMaxViolation:
    def test_doubles_per_party(self):
        assert max_violation(BellScenario(3, 2)) == pytest.approx(
            4 * math.sqrt(2), abs=1e-12
        )
        assert max_violation(BellScenario(4, 3)) == pytest.approx(
            4 * (12 + 8 * math.sqrt(3)) / 9, abs=1e-12
        )

    def test_two_parties_is_base_case(self):
        for d in (2, 3, 5):
            assert max_violation(BellScenario(2, d)) == cglmp_max_closed_form(d)


class TestOptimalAngles:
    def test_two_qubit_vectors(self):
        config = optimal_angles(BellScenario(2, 2))
        np.testing.assert_allclose(config.vector(1, 1), [0.0, 7.5 * math.pi / 4])
        np.testing.assert_allclose(config.vector(1, 2), [0.0, 1.5 * math.pi / 4])

    def test_first_entry_always_zero(self):
        for n, d in ((2, 2), (3, 5), (4, 3)):
            config = optimal_angles(BellScenario(n, d))
            assert np.all(config.phases[:, :, 0] == 0.0)

    def test_identical_across_parties(self):
        config = optimal_angles(BellScenario(4, 3))
        for p in (2, 3, 4):
            np.testing.assert_array_equal(config.phases[p - 1], config.phases[0])

    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_attains_closed_form_max(self, n, d):
        scen = BellScenario(n, d)
        assert ghz_bell_value(optimal_angles(scen)) == pytest.approx(
            max_violation(scen), abs=1e-9
        )


class TestCriticalVisibility:
    def test_qubit_threshold(self):
        report = critical_visibility(BellScenario(3, 2))
        assert report.critical_visibility == pytest.approx(0.7071, abs=1e-4)
        assert not report.beats_svetlichny

    def test_qutrit_threshold(self):
        report = critical_visibility(BellScenario(3, 3))
        assert report.critical_visibility == pytest.approx(0.696, abs=5e-4)
        assert report.beats_svetlichny

    def test_independent_of_party_count(self):
        for d in (2, 3, 5):
            values = {
                critical_visibility(BellScenario(n, d)).critical_visibility
                for n in (2, 3, 4, 5)
            }
            assert max(values) - min(values) < 1e-12

    def test_flag_exactly_when_d_at_least_three(self):
        for d in range(2, 9):
            report = critical_visibility(BellScenario(3, d))
            assert report.beats_svetlichny == (d >= 3)

    def test_ratio_consistency(self):
        report = critical_visibility(BellScenario(4, 3))
        assert report.ratio == pytest.approx(report.max_value / 8.0)
        assert report.critical_visibility == pytest.approx(1.0 / report.ratio)
        assert SVETLICHNY_VISIBILITY == 1.0 / math.sqrt(2.0)

    def test_genuine_violation_for_every_dimension(self):
        for d in range(2, 11):
            assert critical_visibility(BellScenario(3, d)).ratio > 1.0


class TestPhaseSearch:
    def test_start_at_optimum_stays_there(self):
        scen = BellScenario(2, 2)
        config, value = optimize_phases(scen, optimal_angles(scen), budget=5000)
        assert value == pytest.approx(2 * math.sqrt(2), abs=1e-6)

    def test_never_below_start(self, rng):
        scen = BellScenario(2, 3)
        for _ in range(3):
            start = random_config(scen, rng)
            start_value = ghz_bell_value(start)
            _, value = optimize_phases(scen, start, budget=2000)
            assert value >= start_value - 1e-12

    def test_never_above_closed_form(self, rng):
        scen = BellScenario(2, 3)
        _, value = optimize_phases(scen, random_config(scen, rng), budget=5000)
        assert value <= max_violation(scen) + 1e-6

    def test_budget_must_be_positive(self):
        scen = BellScenario(2, 2)
        with pytest.raises(ValueError):
            optimize_phases(scen, optimal_angles(scen), budget=0)

    def test_tiny_budget_still_returns_consistent_pair(self, rng):
        scen = BellScenario(2, 2)
        start = random_config(scen, rng)
        config, value = optimize_phases(scen, start, budget=7)
        assert ghz_bell_value(config) == pytest.approx(value, abs=1e-12)

    def test_symmetric_mode_ties_parties(self, rng):
        scen = BellScenario(3, 2)
        config, value = optimize_phases(
            scen, random_config(scen, rng), budget=3000, mode="symmetric"
        )
        for p in (2, 3):
            np.testing.assert_array_equal(config.phases[p - 1], config.phases[0])
        assert value <= max_violation(scen) + 1e-6

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_symmetric_mode_reaches_the_maximum(self, rng, n):
        scen = BellScenario(n, 3)
        _, value = optimize_phases(
            scen, random_config(scen, rng), budget=2000, mode="symmetric"
        )
        assert value == pytest.approx(max_violation(scen), abs=1e-6)

    def test_rejects_unknown_mode(self, rng):
        scen = BellScenario(2, 2)
        with pytest.raises(ValueError):
            optimize_phases(scen, random_config(scen, rng), budget=10, mode="annealed")

    def test_restarts_find_qubit_maximum(self):
        scen = BellScenario(2, 2)
        result = optimize_with_restarts(scen, restarts=5, budget=4000, seed=3)
        assert result.value == pytest.approx(2 * math.sqrt(2), abs=1e-6)
        assert len(result.restart_values) == 5
        assert result.value == max(result.restart_values)

    def test_warns_when_passing_the_closed_form(self, monkeypatch):
        scen = BellScenario(2, 2)
        monkeypatch.setattr("quditbell.optimize.max_violation", lambda scenario: 2.0)
        with pytest.warns(UserWarning, match="exceeded the closed-form maximum"):
            optimize_phases(scen, optimal_angles(scen), budget=50)

    def test_single_party_is_refused_without_a_warning(self):
        # 2^(N-2) times the two-qudit maximum is no ceiling at N = 1, where
        # the search reaches 2.0 against 1.4365 at d = 3
        scen = BellScenario(1, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="at least 2 parties"):
                max_violation(scen)
            with pytest.raises(ValueError, match="at least 2 parties"):
                optimize_phases(scen, PhaseConfiguration.zero(scen), budget=100)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_ordinary_search_warns_nothing(self, rng, mode):
        scen = BellScenario(3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize_phases(scen, random_config(scen, rng), budget=2000, mode=mode)
            optimize_phases(scen, optimal_angles(scen), budget=2000, mode=mode)

    def test_restarts_deterministic_in_seed(self):
        scen = BellScenario(2, 2)
        a = optimize_with_restarts(scen, restarts=2, budget=1500, seed=11)
        b = optimize_with_restarts(scen, restarts=2, budget=1500, seed=11)
        assert a.value == b.value
        np.testing.assert_array_equal(a.config.phases, b.config.phases)


def _objective(scen, mode):
    """The search's objective on its flat parameter vector, with its degree."""
    n, d = scen.n_parties, scen.dimension
    if mode == "free":
        return (lambda p: ghz_bell_value(PhaseConfiguration(scen, p.reshape(n, 2, d)))), 1
    return (
        lambda p: ghz_bell_value(
            PhaseConfiguration(scen, np.tile(p.reshape(2, d), (n, 1, 1)))
        )
    ), n


def _params_of(config, mode):
    """The search's flat parameter vector of a configuration."""
    return (config.phases if mode == "free" else config.phases[0]).reshape(-1).copy()


def _start_params(scen, mode, rng):
    return _params_of(random_config(scen, rng), mode)


def _read_coefficients(scen, mode, params):
    """Every coordinate's polynomial as the search reads it, params held still."""
    n, d = scen.n_parties, scen.dimension
    sweep, shape = (_free_sweep, (n, 2, d)) if mode == "free" else (_symmetric_sweep, (2, d))
    return dict(sweep(_ghz_weights(n, d), params.reshape(shape)))


def sampled_trig_step(f, params, coord, f0, degree):
    """Maximize f along one coordinate in place from 2m+1 samples; returns the new best value.

    Along the coordinate f is a trigonometric polynomial of degree m, fixed
    by 2m+1 equispaced samples (f0 is the first).  Its stationary points are
    the roots of e^(imt) f'(t), a degree-2m polynomial in e^(it); f is
    evaluated once more at the best of them and the best evaluated point kept.
    """
    x0, size = params[coord], 2 * degree + 1
    offsets = 2.0 * np.pi * np.arange(size) / size
    samples = [f0]
    for t in offsets[1:]:
        params[coord] = x0 + t
        samples.append(f(params))
    # DFT of the samples: c[k + m] is the coefficient of e^(ikt), k = -m..m
    k = np.arange(-degree, degree + 1)
    c = np.exp(-1j * np.outer(k, offsets)) @ samples / size
    best = int(np.argmax(samples))
    best_t, best_f = offsets[best], samples[best]
    roots = np.angle(np.roots((1j * k * c)[::-1]))
    if roots.size:
        t = roots[np.argmax((np.exp(1j * np.outer(roots, k)) @ c).real)]
        params[coord] = x0 + t
        ft = f(params)
        if ft > best_f:
            best_t, best_f = t, ft
    params[coord] = x0 + best_t
    return best_f


def sampled_search(scen, start, mode, budget=20_000):
    """Coordinate ascent by sampled_trig_step, swept until a cycle gains < 1e-9.

    A step takes up to 2m+1 evaluations; the search stops before a step that
    could overrun the budget.
    """
    f, m = _objective(scen, mode)
    params = _params_of(start, mode)
    used = 0

    def counted(p):
        nonlocal used
        used += 1
        return f(p)

    best = counted(params)
    improved = True
    while improved:
        sweep_start = best
        for coord in range(params.size):
            if used + 2 * m + 1 > budget:
                return best
            best = sampled_trig_step(counted, params, coord, best, m)
        improved = best - sweep_start > 1e-9
    return best


def count_objective_calls(monkeypatch):
    """Count the search's ghz_bell_value calls; returns the growing call list."""
    calls = []

    def counted(config):
        calls.append(config)
        return ghz_bell_value(config)

    monkeypatch.setattr("quditbell.optimize.ghz_bell_value", counted)
    return calls


class TestTrigStep:
    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 2), (5, 2)])
    def test_objective_is_a_trig_polynomial_of_the_step_degree(self, rng, mode, n, d):
        # a degree-m fit through 2m+1 points reproduces every off-grid value
        scen = BellScenario(n, d)
        f, m = _objective(scen, mode)
        params = _start_params(scen, mode, rng)
        k = np.arange(1, m + 1)

        def basis(theta):
            theta = np.atleast_1d(theta)[:, None]
            return np.hstack([np.ones_like(theta), np.cos(k * theta), np.sin(k * theta)])

        def along(theta):
            p = params.copy()
            p[coord] = theta
            return f(p)

        for coord in rng.choice(params.size, 3, replace=False):
            grid = rng.uniform(0.0, 2.0 * np.pi) + 2.0 * np.pi * np.arange(2 * m + 1) / (2 * m + 1)
            fit = np.linalg.solve(basis(grid), [along(t) for t in grid])
            for theta in rng.uniform(0.0, 2.0 * np.pi, 4):
                assert basis(theta)[0] @ fit == pytest.approx(along(theta), abs=1e-12)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_read_coefficients_match_the_sampled_dft(self, rng, mode, n, d):
        scen = BellScenario(n, d)
        f, m = _objective(scen, mode)
        params = _start_params(scen, mode, rng)
        read = _read_coefficients(scen, mode, params)
        assert sorted(read) == list(range(params.size))
        size, k = 2 * m + 1, np.arange(1, m + 1)
        offsets = 2.0 * np.pi * np.arange(size) / size
        for coord, a in read.items():
            samples = []
            for t in offsets:
                p = params.copy()
                p[coord] += t
                samples.append(f(p))
            # e^(ikt) of f(x0 + t) is 2^N a_k e^(ik x0) / 2 for the k > 0 terms
            dft = np.exp(-1j * np.outer(k, offsets)) @ samples / size
            expected = 2.0**n * a * np.exp(1j * k * params[coord]) / 2
            np.testing.assert_allclose(expected, dft, rtol=0, atol=1e-12)

    @pytest.mark.parametrize(
        "n,d,mode", [(2, 5, "free"), (2, 3, "symmetric"), (3, 2, "symmetric")]
    )
    def test_one_step_reaches_the_scanned_maximum(self, rng, n, d, mode):
        # with a budget of two the search moves only the sweep's first coordinate
        scen = BellScenario(n, d)
        f, _ = _objective(scen, mode)
        start = random_config(scen, rng)
        params = _params_of(start, mode)
        scan = []
        for theta in np.linspace(0.0, 2.0 * np.pi, 10_000, endpoint=False):
            p = params.copy()
            p[0] = theta
            scan.append(f(p))
        config, value = optimize_phases(scen, start, budget=2, mode=mode)
        moved = _params_of(config, mode)
        np.testing.assert_array_equal(moved[1:], params[1:])
        assert value >= max(scan) - 1e-9
        assert f(moved) == value

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_coordinate_costs_one_evaluation(self, rng, monkeypatch, mode, n):
        scen = BellScenario(n, 3)
        start = random_config(scen, rng)
        params = _params_of(start, mode)
        calls = count_objective_calls(monkeypatch)
        for moves in (1, 2, 3):
            calls.clear()
            config, _ = optimize_phases(scen, start, budget=1 + moves, mode=mode)
            assert len(calls) == 1 + moves  # the start, then one per move
            assert np.count_nonzero(_params_of(config, mode) != params) <= moves

    def test_flat_coordinate_keeps_the_start(self, rng, monkeypatch):
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        calls = count_objective_calls(monkeypatch)

        def one_flat_coordinate(weights, phases):
            yield 0, np.zeros(2, dtype=complex)

        for mode in ("free", "symmetric"):
            monkeypatch.setattr(f"quditbell.optimize._{mode}_sweep", one_flat_coordinate)
            calls.clear()
            config, value = optimize_phases(scen, start, budget=100, mode=mode)
            assert len(calls) == 1  # the start only
            np.testing.assert_array_equal(_params_of(config, mode), _params_of(start, mode))
            assert value == ghz_bell_value(config)

    def test_move_the_objective_rejects_is_undone(self, rng, monkeypatch):
        # the read-off peak is only a proposal: a lower confirmed value keeps the start
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        calls = []

        def lower_after_the_start(config):
            calls.append(config)
            return 2.0 if len(calls) == 1 else 1.0

        monkeypatch.setattr("quditbell.optimize.ghz_bell_value", lower_after_the_start)
        for mode in ("free", "symmetric"):
            calls.clear()
            config, value = optimize_phases(scen, start, budget=100, mode=mode)
            assert len(calls) > 1
            assert value == 2.0
            np.testing.assert_array_equal(_params_of(config, mode), _params_of(start, mode))

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
    def test_budget_counts_every_evaluation(self, rng, monkeypatch, mode, n, d):
        scen = BellScenario(n, d)
        start = random_config(scen, rng)
        calls = count_objective_calls(monkeypatch)
        optimize_phases(scen, start, budget=10**6, mode=mode)
        full = len(calls)
        previous = -math.inf
        for budget in range(1, full + 2):
            calls.clear()
            config, value = optimize_phases(scen, start, budget=budget, mode=mode)
            assert len(calls) == min(budget, full)
            assert value >= previous
            assert ghz_bell_value(config) == value
            previous = value

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
    def test_search_ends_where_the_sampling_search_does(self, rng, mode, n, d):
        scen = BellScenario(n, d)
        start = random_config(scen, rng)
        _, value = optimize_phases(scen, start, budget=20_000, mode=mode)
        assert value == pytest.approx(sampled_search(scen, start, mode), rel=0, abs=1e-12)
