"""Closed-form maxima, critical visibilities, and the phase search."""

import cmath
import gc
import math
import tracemalloc
import warnings

import numpy as np
import pytest

import quditbell.optimize
from quditbell.bounds import Bipartition, build_grouping
from quditbell.optimize import (
    SVETLICHNY_VISIBILITY,
    _climb,
    _free_sweep,
    _grid,
    _others,
    _peak,
    _shared_taylor,
    _symmetric_newton,
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
    _binomials,
    _branch_factors,
    _fold,
    _ghz_lags,
    _ghz_weights,
    ghz_bell_value,
    ghz_state,
    ghz_table,
    joint_probabilities,
)
from quditbell.scenario import BellScenario, all_setting_strings, bell_value, correlations
from conftest import random_config


def cglmp_loop(d):
    """The oracle: the closed form's d/2 terms summed one by one in Python floats."""

    def q(c):
        return 1.0 / (2.0 * d**3 * math.sin(math.pi * (c + 0.25) / d) ** 2)

    return 4.0 * d * sum((1.0 - 2.0 * k / (d - 1)) * (q(k) - q(-(k + 1))) for k in range(d // 2))


class TestClosedFormMax:
    def test_matches_the_term_by_term_loop(self):
        errors = {d: abs(cglmp_max_closed_form(d) / cglmp_loop(d) - 1) for d in range(2, 4001)}
        assert max(errors.values()) <= 1e-14, max(errors, key=errors.get)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 9, 17, 64, 256, 500, 1103, 1500, 3000, 4000])
    def test_matches_a_40_digit_sum(self, d):
        import mpmath

        def q(c):
            return 1 / (2 * mpmath.mpf(d) ** 3 * mpmath.sin(mpmath.pi * (c + 0.25) / d) ** 2)

        with mpmath.workdps(40):
            exact = 4 * d * mpmath.fsum(
                (1 - mpmath.mpf(2 * k) / (d - 1)) * (q(k) - q(-(k + 1))) for k in range(d // 2)
            )
            assert abs(cglmp_max_closed_form(d) - exact) <= 1e-15 * exact

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
        np.testing.assert_allclose(config.phases[0, 0], [0.0, 7.5 * math.pi / 4])
        np.testing.assert_allclose(config.phases[0, 1], [0.0, 1.5 * math.pi / 4])

    def test_first_entry_always_zero(self):
        for n, d in ((2, 2), (3, 5), (4, 3)):
            config = optimal_angles(BellScenario(n, d))
            assert np.all(config.phases[:, :, 0] == 0.0)

    def test_identical_across_parties(self):
        config = optimal_angles(BellScenario(4, 3))
        for p in (2, 3, 4):
            np.testing.assert_array_equal(config.phases[p - 1], config.phases[0])

    def test_bytes_match_the_tiled_pair(self):
        # one (N, 2, d) array filled per setting, against np.tile of the two ramps
        for n in range(1, 40):
            for d in range(2, 30):
                m1 = 15.0 / n
                ramp = np.arange(d) * math.pi / (2.0 * d)
                tiled = np.tile([m1 * ramp, (m1 - 6.0) * ramp], (n, 1, 1))
                assert optimal_angles(BellScenario(n, d)).phases.tobytes() == tiled.tobytes()

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

    def test_budget_must_be_an_integer(self, monkeypatch):
        # a budget of 2.5 once ran 13 evaluations, as the spent test compares with ==
        scen = BellScenario(2, 3)
        calls = count_objective_calls(monkeypatch)
        for budget in (2.5, 3.0, True):
            with pytest.raises(ValueError, match=f"integer, got {budget!r}"):
                optimize_phases(scen, optimal_angles(scen), budget=budget)
        assert calls == []
        config, value = optimize_phases(scen, optimal_angles(scen), budget=np.int64(3))
        assert ghz_bell_value(config) == value

    def test_restarts_must_be_an_integer(self):
        scen = BellScenario(2, 2)
        for restarts in (2.0, True):
            with pytest.raises(ValueError, match=f"integer, got {restarts!r}"):
                optimize_with_restarts(scen, restarts=restarts, budget=50)
        assert len(optimize_with_restarts(scen, restarts=np.int64(2), budget=50).restart_values) == 2

    def test_restarts_refuse_a_bad_seed_before_any_start(self, monkeypatch):
        # numpy's own refusal of -1 names neither the function nor the seed
        scen = BellScenario(2, 2)
        with monkeypatch.context() as patched:
            patched.setattr(np.random, "default_rng", lambda seed: pytest.fail("a start was drawn"))
            for seed in (-1, 2.0, True, None):
                message = f"seed must be a non-negative integer, got {seed!r}"
                with pytest.raises(ValueError, match=message):
                    optimize_with_restarts(scen, restarts=2, budget=50, seed=seed)
        values = [
            optimize_with_restarts(scen, restarts=2, budget=50, seed=seed).restart_values
            for seed in (3, np.int64(3))
        ]
        assert values[0] == values[1]

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

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_start_from_another_scenario_is_refused(self, monkeypatch, mode):
        # symmetric mode would otherwise search 5 parties from a 2-party start's vectors
        scen = BellScenario(5, 3)
        calls = count_objective_calls(monkeypatch)
        for other in (BellScenario(2, 3), BellScenario(5, 4)):
            with pytest.raises(ValueError, match="start is for"):
                optimize_phases(scen, optimal_angles(other), budget=200, mode=mode)
        assert calls == []

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
            with pytest.raises(ValueError, match="^n_parties must be an integer >= 2, got 1$"):
                max_violation(scen)
            with pytest.raises(ValueError, match="^n_parties must be an integer >= 2, got 1$"):
                optimize_phases(scen, PhaseConfiguration.zero(scen), budget=100)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_ordinary_search_warns_nothing(self, rng, mode):
        scen = BellScenario(3, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            optimize_phases(scen, random_config(scen, rng), budget=2000, mode=mode)
            optimize_phases(scen, optimal_angles(scen), budget=2000, mode=mode)
            # at large N an absolute 1e-6 lies below one ulp of the value
            for n, d in ((30, 2), (40, 2), (40, 3)):
                large = BellScenario(n, d)
                optimize_phases(large, optimal_angles(large), budget=2000, mode=mode)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_one_sweep_ends_a_search_started_at_the_optimum(self, monkeypatch, mode):
        # the stop rule scales with the value: 1e-9 would keep sweeping on rounding at N = 40
        scen = BellScenario(40, 2)
        calls = count_objective_calls(monkeypatch)
        optimize_phases(scen, optimal_angles(scen), budget=2000, mode=mode)
        assert len(calls) <= 1 + (2 * 40 if mode == "free" else 2)

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


def _stack(scen, mode, params):
    """A one-row stack of the search's (R, N, 2, d) phases from its flat parameter vector."""
    n, d = scen.n_parties, scen.dimension
    if mode == "free":
        return params.reshape(1, n, 2, d)
    return np.tile(params.reshape(2, d), (1, n, 1, 1))


def _read_moves(scen, mode, params, sweep=None):
    """Every coordinate's (peak, rise) as the search reads it, params held still: by the
    search's own sweep, or by the given one."""
    n, d = scen.n_parties, scen.dimension
    if sweep is None and mode == "free":
        sweep = _free_sweep(_ghz_weights(n, d))
    elif sweep is None:
        sweep = _symmetric_sweep(_ghz_lags(n, d))
    return {
        coord: (theta, rise)
        for coord, moves in sweep(_stack(scen, mode, params))
        for _, _, theta, rise in moves
    }


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
    """Coordinate ascent by sampled_trig_step, swept until a cycle gains < 1e-9 * 2^(N-2).

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
        improved = best - sweep_start > math.ldexp(1e-9, scen.n_parties - 2)
    return best


def count_objective_calls(monkeypatch):
    """Count the search's ghz_bell_value calls; returns the growing call list."""
    calls = []

    def counted(config):
        calls.append(config)
        return ghz_bell_value(config)

    monkeypatch.setattr("quditbell.optimize.ghz_bell_value", counted)
    return calls


def patch_moves(monkeypatch, change=lambda move: move):
    """Pass every (coordinate, peak, rise) move the search's sweeps yield through change,
    and record each Newton step the search takes as ("newton", phases, rise); returns the
    growing list of the moves the search received."""
    received = []

    def newton(lags):
        steps = _symmetric_newton(lags)

        def recorded(block):
            for moved, rise in steps(block):
                received.append(("newton", moved, rise))
                yield moved, rise

        return recorded

    def patched(build):
        def built(weights):
            sweep = build(weights)

            def changed(phases):
                for coord, moves in sweep(phases):
                    changed_moves = []
                    for row, x0, *move in moves:
                        received.append(change((coord, *move)))
                        changed_moves.append((row, x0, *received[-1][1:]))
                    yield coord, changed_moves

            return changed

        return built

    for sweep in (_free_sweep, _symmetric_sweep):
        monkeypatch.setattr(f"quditbell.optimize.{sweep.__name__}", patched(sweep))
    monkeypatch.setattr("quditbell.optimize._symmetric_newton", newton)
    return received


def flat_phase_zero(build, dropped):
    """build, a sweep builder, with phase 0 of every setting made flat: its sweeps yield no
    move there, and each coordinate whose moves they drop is appended to dropped.

    In symmetric mode no table makes one phase flat alone: every phase reads
    every nonzero lag.
    """

    def built(table):
        sweep = build(table)

        def flat(phases):
            for coord, moves in sweep(phases):
                if coord % phases.shape[-1] == 0 and moves:
                    dropped.append(coord)
                    moves = []
                yield coord, moves

        return flat

    return built


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
        # each move is the peak of the polynomial the samples' DFT fixes, and its rise
        # is that polynomial's change from the current phase, over 2^N
        scen = BellScenario(n, d)
        f, m = _objective(scen, mode)
        params = _start_params(scen, mode, rng)
        read = _read_moves(scen, mode, params)
        # at d = 2 only phase 0 of each setting moves; phase 1 is its gauge image
        assert sorted(read) == list(range(0, params.size, 2 if d == 2 else 1))
        size, k = 2 * m + 1, np.arange(-m, m + 1)
        offsets = 2.0 * np.pi * np.arange(size) / size
        grid = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
        for coord, (theta, rise) in read.items():
            x0, samples = params[coord], []
            for t in offsets:
                p = params.copy()
                p[coord] = x0 + t
                samples.append(f(p))
            dft = np.exp(-1j * np.outer(k, offsets)) @ samples / size

            def along(phi):  # the value at phase phi, from the samples alone
                return (np.exp(1j * np.outer(np.atleast_1d(phi) - x0, k)) @ dft).real

            assert along(theta)[0] >= along(grid).max() - 1e-9 * 2.0**n
            tol = 1e-12 * 2.0**n
            assert math.ldexp(rise, n) == pytest.approx(along(theta)[0] - samples[0], abs=tol)

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
        # a move costs one unit of the budget; the objective runs at the start and the end
        scen = BellScenario(n, 3)
        start = random_config(scen, rng)
        params = _params_of(start, mode)
        calls = count_objective_calls(monkeypatch)
        yielded = patch_moves(monkeypatch)
        for moves in (1, 2, 3):
            calls.clear()
            yielded.clear()
            config, _ = optimize_phases(scen, start, budget=1 + moves, mode=mode)
            assert len(yielded) == moves
            assert len(calls) == 2  # a random start's first move is kept
            assert np.count_nonzero(_params_of(config, mode) != params) <= moves

    def test_flat_coordinate_keeps_the_start(self, rng, monkeypatch):
        # a flat coordinate yields no move, so it costs no budget and moves nothing
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        weights = _ghz_weights(2, 3).copy()
        weights[:, 0] = 0.0  # phase 0 of every setting drops out of the free search's objective
        dropped = []
        sweeps = {
            "free": _free_sweep(weights),
            "symmetric": flat_phase_zero(_symmetric_sweep, dropped)(_ghz_lags(2, 3)),
        }
        for mode in ("free", "symmetric"):
            params = _start_params(scen, mode, rng)
            coords = list(_read_moves(scen, mode, params, sweeps[mode]))
            assert coords == [c for c in range(params.size) if c % 3]
        assert dropped == [0, 3]  # the symmetric sweep itself moves phase 0 of both settings
        calls = count_objective_calls(monkeypatch)
        yielded = patch_moves(monkeypatch)
        monkeypatch.setattr("quditbell.optimize._ghz_weights", lambda n, d: 0.0 * weights)
        monkeypatch.setattr("quditbell.optimize._ghz_lags", lambda n, d: 0.0 * _ghz_lags(n, d))
        for mode in ("free", "symmetric"):
            calls.clear()
            config, value = optimize_phases(scen, start, budget=100, mode=mode)
            assert yielded == []
            assert len(calls) == 1  # the start only
            np.testing.assert_array_equal(_params_of(config, mode), _params_of(start, mode))
            assert value == ghz_bell_value(config)

    def test_a_peak_the_read_off_rejects_is_not_taken(self, rng, monkeypatch):
        # the peak is only a proposal: a move whose rise is negative keeps the phase
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        calls = count_objective_calls(monkeypatch)
        yielded = patch_moves(monkeypatch, lambda move: (*move[:2], -abs(move[2])))
        for mode in ("free", "symmetric"):
            calls.clear()
            yielded.clear()
            config, value = optimize_phases(scen, start, budget=100, mode=mode)
            assert len(yielded) == (12 if mode == "free" else 6)  # one sweep, every phase
            assert len(calls) == 1  # no move kept: the start's evaluation is the value
            np.testing.assert_array_equal(_params_of(config, mode), _params_of(start, mode))
            assert value == ghz_bell_value(config)

    def test_move_the_objective_rejects_is_undone(self, rng, monkeypatch):
        # the end's evaluation is checked against the start's: a lower one returns the start
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        calls = []

        def lower_after_the_start(config):
            calls.append(config)
            return 2.0 if len(calls) == 1 else 1.0

        monkeypatch.setattr("quditbell.optimize.ghz_bell_value", lower_after_the_start)
        for mode in ("free", "symmetric"):
            calls.clear()
            # five moves within the first sweep, each gaining clearly from a random start
            config, value = optimize_phases(scen, start, budget=6, mode=mode)
            assert len(calls) == 2
            assert not np.array_equal(calls[-1].phases, calls[0].phases)  # the end moved
            assert value == 2.0
            expected = start.phases if mode == "free" else np.tile(start.phases[0], (2, 1, 1))
            np.testing.assert_array_equal(config.phases, expected)

    def test_a_gain_within_rounding_is_decided_by_the_objective(self, monkeypatch):
        # at the optimum every read-off gain is rounding, so each move is evaluated once and
        # the last evaluation is the value: no end evaluation follows
        scen = BellScenario(2, 2)
        start = optimal_angles(scen)
        calls = count_objective_calls(monkeypatch)
        for budget in (2, 3, 5):
            calls.clear()
            config, value = optimize_phases(scen, start, budget=budget)
            assert len(calls) == budget
            assert value == ghz_bell_value(config) >= ghz_bell_value(start)

    def test_a_move_within_rounding_the_objective_rejects_is_undone(self, monkeypatch):
        scen = BellScenario(2, 2)
        start = optimal_angles(scen)
        calls = []

        def lower_after_the_start(config):
            calls.append(config)
            return 2.0 if len(calls) == 1 else 1.0

        monkeypatch.setattr("quditbell.optimize.ghz_bell_value", lower_after_the_start)
        config, value = optimize_phases(scen, start, budget=5)
        assert len(calls) == 5  # the start and four confirmations, all rejected
        assert value == 2.0
        np.testing.assert_array_equal(config.phases, start.phases)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_a_spent_budget_solves_no_further_peak(self, rng, monkeypatch, mode):
        # the budget is checked before the sweep reads the next coordinate: it counts the
        # start and every move
        scen = BellScenario(2, 3)
        start = random_config(scen, rng)
        yielded = patch_moves(monkeypatch)
        for budget in (2, 5, 13):
            yielded.clear()
            optimize_phases(scen, start, budget=budget, mode=mode)
            assert len(yielded) == budget - 1  # the start needs none

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2)])
    def test_budget_counts_every_move(self, rng, monkeypatch, mode, n, d):
        scen = BellScenario(n, d)
        start = random_config(scen, rng)
        yielded = patch_moves(monkeypatch)
        optimize_phases(scen, start, budget=10**6, mode=mode)
        full = 1 + len(yielded)
        previous = -math.inf
        for budget in range(1, full + 2):
            yielded.clear()
            config, value = optimize_phases(scen, start, budget=budget, mode=mode)
            assert len(yielded) == min(budget, full) - 1
            assert value >= previous
            assert ghz_bell_value(config) == value
            previous = value

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 3), (5, 2)])
    def test_each_kept_gain_is_the_objective_difference(self, rng, monkeypatch, mode, n, d):
        # the search scores a move by its polynomial; the objective before and after agrees
        scen = BellScenario(n, d)
        start = random_config(scen, rng)
        f, _ = _objective(scen, mode)
        yielded = patch_moves(monkeypatch)
        previous_params, previous = _params_of(start, mode), f(_params_of(start, mode))
        kept = 0
        for moves in range(1, 31):
            yielded.clear()
            config, value = optimize_phases(scen, start, budget=1 + moves, mode=mode)
            if len(yielded) < moves:
                break  # the search ended before this budget
            params = _params_of(config, mode)
            gain, tol = math.ldexp(yielded[-1][2], n), math.ldexp(1e-12, n - 2)
            if gain >= -tol:  # a gain within rounding of zero changes the value by rounding at most
                kept += gain > tol
                assert value - previous == pytest.approx(gain, rel=0, abs=tol)
            else:
                np.testing.assert_array_equal(params, previous_params)
            previous_params, previous = params, value
        assert kept > 0

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(30, 2), (40, 3)])
    def test_search_at_the_optimum_returns_its_evaluation(self, mode, n, d):
        # near the optimum a kept move may read an ulp lower: the value never drops below the start
        scen = BellScenario(n, d)
        start = optimal_angles(scen)
        config, value = optimize_phases(scen, start, budget=2000, mode=mode)
        assert value >= ghz_bell_value(start)
        assert ghz_bell_value(config) == value

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (4, 2)])
    def test_search_ends_where_the_sampling_search_does(self, rng, mode, n, d):
        scen = BellScenario(n, d)
        start = random_config(scen, rng)
        config, value = optimize_phases(scen, start, budget=20_000, mode=mode)
        if mode == "free":
            assert value == pytest.approx(sampled_search(scen, start, mode), rel=0, abs=1e-12)
            return
        # Newton steps carry a symmetric search past where sweeps stop at 1e-9 a sweep: it
        # ends no lower than the sampled one, at a fixed point of the sampled ascent
        assert value >= sampled_search(scen, start, mode) - 1e-12
        assert sampled_search(scen, config, mode) <= value + 1e-12


# restart_values of optimize_with_restarts(BellScenario(n, d), restarts=3, seed=0,
# mode=mode) at the default budget, recorded from the search when it still
# rebuilt its index sets, exponents and companion matrices on every move; the
# (6, 3) and (8, 3) ones when it still evaluated the objective after every move,
# and the (3, 5), (4, 4) and (5, 6) ones when the free value still multiplied out
# the product's N + 1 coefficients; the (13, 3) and (20, 3) ones when the free sweep
# still contracted a prefix product with suffix folds; the symmetric ones once Newton
# steps on the shared phases followed each sweep (the sweeps alone had stopped 2e-13 to
# 3.5e-12 below the maximum)
PINNED_RESTART_VALUES = {
    ("free", 2, 2): (2.8284271247461907, 2.8284271247461907, 2.82842712474619),
    ("free", 2, 3): (2.872934051172121, 2.872934051168908, 2.8729340511721118),
    ("free", 3, 3): (5.745868102329277, 5.74586810233318, 5.74586810234108),
    ("free", 4, 2): (11.31370849898476, 11.31370849898476, 11.31370849898476),
    ("free", 6, 3): (45.96694481873246, 45.96694481869381, 31.999999999995634),
    ("free", 8, 3): (127.99999999963276, 183.8677792750169, 127.99999999951422),
    ("free", 3, 5): (5.821089616141924, 5.821089616141267, 5.821089616131865),
    ("free", 4, 4): (11.5849728738289, 11.584972873832072, 11.584972873828216),
    ("free", 5, 6): (19.97645019850081, 17.96311447182127, 17.50990301089644),
    ("free", 13, 3): (5883.768936781913, 4095.999999990428, 4095.9999999936417),
    ("free", 20, 3): (524287.9999993073, 524287.9999989816, 524287.9999992143),
    ("symmetric", 2, 2): (2.82842712474618, 2.82842712474619, 2.8284271247461903),
    ("symmetric", 2, 3): (2.8729340511723, 2.8729340511723356, 2.872934051172336),
    ("symmetric", 3, 3): (5.745868102344669, 5.745868102344671, 5.74586810234467),
    ("symmetric", 4, 2): (11.313708498984758, 11.313708498984754, 11.313708498984766),
}


@pytest.mark.parametrize("mode,n,d", sorted(PINNED_RESTART_VALUES))
def test_restart_values_are_pinned(mode, n, d):
    result = optimize_with_restarts(BellScenario(n, d), restarts=3, seed=0, mode=mode)
    np.testing.assert_allclose(
        result.restart_values, PINNED_RESTART_VALUES[mode, n, d], rtol=1e-12, atol=0
    )
    if mode == "symmetric":  # every symmetric restart ends on the maximum
        top = max_violation(BellScenario(n, d))
        np.testing.assert_allclose(PINNED_RESTART_VALUES[mode, n, d], top, rtol=1e-13, atol=0)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 3)])
def test_symmetric_search_stays_on_the_binomial_path(rng, monkeypatch, n, d):
    # each move is written into every party's block, so the blocks stay byte-equal
    def free_path(phases):
        pytest.fail("a symmetric search evaluated party-dependent phases")

    monkeypatch.setattr("quditbell.quantum._branch_factors", free_path)
    scen = BellScenario(n, d)
    start = random_config(scen, rng)
    _, value = optimize_phases(scen, start, budget=20_000, mode="symmetric")
    assert value == pytest.approx(max_violation(scen), abs=1e-6)


def symmetric_sweep_on_weights(weights):
    """The oracle: the symmetric sweep as it was built on the (N+1, d, d) weights of
    _ghz_weights, each phase's weights a copy of its row of pairs (j, k)."""
    n, d = weights.shape[0] - 1, weights.shape[1]
    t = np.arange(n + 1.0)
    powers = (t[:, None] * [-1.0, 1.0] + [n, 0.0])[:, None]  # (N+1, 1, 2): N - t and t
    pairs = 2.0 * _binomials(n)[:, None, None] * weights + 0j  # (N+1, j, k)
    pairs[:, range(d), range(d)] = 0.0  # the pair (j, j) holds no phase
    ramps = (1j * t[:, None, None]) ** np.arange(4)  # (i e)^p for row e: _peak's terms
    orders = (slice(None, None, -1), slice(None))  # setting 1's and 2's rows in order of e
    reads = [
        (s, j, powers[e], pairs[e, j, :, None] * ramps)
        for s, e in enumerate(orders)
        for j in range(len(_others(d)))
    ]
    grid = _grid(n)

    def sweep(phases):
        shared = phases[:, :1]  # (R, 1, 2, d): each row's party-1 block
        for s, j, p, w in reads:
            row = shared[..., j, None] - shared  # phi_j - phi_k, 0 at k = j
            terms = np.exp(1j * (p @ row)) @ w  # (R, N+1, 1, 4)
            moves = []
            for i, x0 in enumerate(shared[:, 0, s, j].tolist()):
                move = _peak(terms[i, 1:, 0], grid)
                if move is not None:
                    moves.append((i, x0, x0 + move[0], move[1]))
            yield s * d + j, moves

    return sweep


@pytest.mark.parametrize(
    "n,d", [(n, d) for n in range(2, 9) for d in range(2, 8)] + [(12, 6), (3, 11)]
)
def test_symmetric_sweep_on_lags_is_the_weights_one_bit_for_bit(rng, n, d):
    # both sweeps read stacks of 1-3 rows, each move written into every party's block of
    # its own copy between yields, as the search writes a kept one
    for count in (1, 2, 3):
        starts = rng.uniform(0.0, 2.0 * np.pi, (count, 1, 2, d))
        stacks = [np.repeat(starts, n, axis=1) for _ in range(2)]
        sweeps = _symmetric_sweep(_ghz_lags(n, d)), symmetric_sweep_on_weights(_ghz_weights(n, d))
        coords = []
        for (coord, moves), oracle in zip(*(sweep(stack) for sweep, stack in zip(sweeps, stacks))):
            assert repr((coord, moves)) == repr(oracle)
            coords.append(coord)
            for stack in stacks:
                for i, _, theta, _ in moves:
                    stack[i, :, coord // d, coord % d] = theta
        assert coords == [s * d + j for s in (0, 1) for j in range(len(_others(d)))]
        assert stacks[0].tobytes() == stacks[1].tobytes()


@pytest.mark.parametrize("n,d", sorted((n, d) for m, n, d in PINNED_RESTART_VALUES if m != "free"))
def test_symmetric_search_reads_no_branch_pair_weights(monkeypatch, n, d):
    # the search's sweep reads the (N+1, d) lags and its objective the N+1 residue rows
    def weights(n, d):
        pytest.fail("a symmetric search read the (N+1, d, d) weights")

    monkeypatch.setattr("quditbell.quantum._ghz_weights", weights)
    monkeypatch.setattr("quditbell.optimize._ghz_weights", weights)
    result = optimize_with_restarts(BellScenario(n, d), restarts=3, seed=0, mode="symmetric")
    np.testing.assert_allclose(
        result.restart_values, PINNED_RESTART_VALUES["symmetric", n, d], rtol=1e-12, atol=0
    )


def test_symmetric_search_memory_grows_with_n_d_not_n_d_squared(rng, monkeypatch):
    # the (N+1, d, d) weights alone are 19.8 MB at (30, 200), and a copy per phase adds more.
    # From a random start the shared block's Hessian is not definite after one sweep; from
    # near the optimum the sweep is followed by Newton steps
    scen = BellScenario(30, 200)
    near = optimal_angles(scen).phases + 1e-2 * rng.normal(size=(1, 2, 200))
    moves = patch_moves(monkeypatch)
    for start in (random_config(scen, rng), PhaseConfiguration(scen, near)):
        _ghz_lags.cache_clear()  # the table's build is part of the search's peak
        tracemalloc.start()
        try:
            optimize_phases(scen, start, budget=2 * 200 + 5, mode="symmetric")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
    assert any(move[0] == "newton" for move in moves)


def test_a_symmetric_search_past_the_newton_cap_holds_one_evaluation(rng, monkeypatch):
    # at d = 514 the shared block's (2d - 2)^2 matrix is past 2^20 entries: the search takes
    # no Newton step, and its peak is 12.3 MiB, of which one evaluation's is 8.1.  A Newton
    # attempt's (4, d, d) Hessian, its copy and its Cholesky factor hold 8 MiB each
    d = 514

    def refused(lags):
        pytest.fail("the search built Newton steps past the cap")

    monkeypatch.setattr("quditbell.optimize._symmetric_newton", refused)
    scen = BellScenario(2, d)
    start = PhaseConfiguration(scen, np.tile(rng.uniform(0.0, 2.0 * np.pi, (1, 2, d)), (2, 1, 1)))
    _ghz_lags.cache_clear()
    tracemalloc.start()
    try:
        optimize_phases(scen, start, budget=4 * (d - 1) + 5, mode="symmetric")  # two sweeps
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


@pytest.mark.parametrize("n,d", [(2, 2), (3, 5), (8, 3), (100, 2)])
def test_shared_taylor_is_the_central_difference(rng, n, d):
    # the value's gradient and Hessian in phases 0..d-2 of each setting, against central
    # differences of ghz_bell_value (step 1e-4, whose error grows as N^3 with the derivatives)
    scen = BellScenario(n, d)
    block = rng.uniform(0.0, 2.0 * np.pi, (2, d))
    m = d - 1

    def f(x):
        moved = block.copy()
        moved[:, :m] = x.reshape(2, m)
        return ghz_bell_value(PhaseConfiguration(scen, np.tile(moved, (n, 1, 1))))

    _, slope, curve = _shared_taylor(_ghz_lags(n, d))(block)
    h = 1e-4
    x, unit = block[:, :m].ravel(), h * np.eye(2 * m)
    slope_fd = [(f(x + e) - f(x - e)) / (2 * h) for e in unit]
    curve_fd = [
        [(f(x + a + b) - f(x + a - b) - f(x - a + b) + f(x - a - b)) / (4 * h * h) for b in unit]
        for a in unit
    ]
    scale = math.ldexp(1e-7, n)
    np.testing.assert_allclose(math.ldexp(1.0, n) * slope, slope_fd, rtol=0, atol=scale * n)
    np.testing.assert_allclose(math.ldexp(-1.0, n) * curve, curve_fd, rtol=0, atol=scale * n**2)
    np.testing.assert_allclose(curve, curve.T, rtol=0, atol=1e-14 * np.abs(curve).max())


def _stack_starts(scen, rng, count=4):
    """Random (N, 2, d) starts as one (R, N, 2, d) stack, with row 1 at optimal_angles, where
    every move is within rounding and so decided by an evaluation."""
    starts = rng.uniform(0.0, 2.0 * np.pi, (count, scen.n_parties, 2, scen.dimension))
    starts[1] = optimal_angles(scen).phases
    return starts


def assert_rows_are_single_searches(scen, starts, mode, budgets=(2, 3, 7, 200)):
    # budgets of 2, 3 and 7 run out in the first sweep; 200 ends some searches by the stop
    # rule and runs out mid-sweep in others
    for budget in budgets:
        phases, values = _climb(scen, starts, budget, mode)
        for start, row, value in zip(starts, phases, values):
            config, single = optimize_phases(scen, PhaseConfiguration(scen, start), budget, mode)
            assert row.tobytes() == config.phases.tobytes()
            assert value == single


def patch_stack_sizes(monkeypatch):
    """Record the number of rows of the stack each sweep reads; returns the growing list."""
    sizes = []

    def patched(build):
        def built(weights):
            sweep = build(weights)

            def counted(phases):
                sizes.append(len(phases))
                yield from sweep(phases)

            return counted

        return built

    for sweep in (_free_sweep, _symmetric_sweep):
        monkeypatch.setattr(f"quditbell.optimize.{sweep.__name__}", patched(sweep))
    return sizes


class TestStack:
    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("d", range(2, 6))
    def test_each_row_is_its_single_search_bit_for_bit(self, rng, mode, n, d):
        scen = BellScenario(n, d)
        assert_rows_are_single_searches(scen, _stack_starts(scen, rng), mode)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_flat_coordinates_cost_no_row_any_budget(self, rng, monkeypatch, mode):
        # phase 0 of every setting is flat: no row moves it or pays for it
        scen = BellScenario(3, 3)
        sizes = patch_stack_sizes(monkeypatch)
        dropped = []
        if mode == "free":
            weights = _ghz_weights(3, 3).copy()
            weights[:, 0] = 0.0
            monkeypatch.setattr("quditbell.optimize._ghz_weights", lambda n, d: weights)
        else:
            flat = flat_phase_zero(quditbell.optimize._symmetric_sweep, dropped)
            monkeypatch.setattr("quditbell.optimize._symmetric_sweep", flat)
        assert_rows_are_single_searches(scen, _stack_starts(scen, rng), mode)
        assert 4 in sizes
        # the search read the flattened sweep: phase 0 had moves, and they were dropped
        assert (mode == "symmetric") == bool(dropped)
        assert all(coord % 3 == 0 for coord in dropped)

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    @pytest.mark.parametrize("n,d", [(2, 3), (3, 2), (4, 3)])
    def test_stacking_changes_no_restart(self, monkeypatch, mode, n, d):
        # restarts stacked five, two or one at a time give the same values and the same best
        scen = BellScenario(n, d)
        kwargs = dict(restarts=5, budget=300, mode=mode, seed=17)
        sizes = patch_stack_sizes(monkeypatch)
        expected = optimize_with_restarts(scen, **kwargs)
        assert sizes[0] == 5
        starts = np.random.default_rng(17).uniform(0.0, 2.0 * np.pi, (5, n, 2, d))
        singles = [optimize_phases(scen, PhaseConfiguration(scen, s), 300, mode)[1] for s in starts]
        assert expected.restart_values == tuple(singles)
        for size in (1, 2):
            monkeypatch.setattr("quditbell.optimize._STACK_ENTRIES", size * (n + 1) ** 2 * d**2)
            sizes.clear()
            result = optimize_with_restarts(scen, **kwargs)
            assert max(sizes) == size
            assert result.restart_values == expected.restart_values
            assert result.value == expected.value
            assert result.config.phases.tobytes() == expected.config.phases.tobytes()

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_a_restart_that_stops_leaves_the_stack(self, monkeypatch, mode):
        # each sweep reads exactly the restarts still climbing
        scen = BellScenario(3, 3)
        sizes = patch_stack_sizes(monkeypatch)
        sweeps = []
        for start in np.random.default_rng(23).uniform(0.0, 2.0 * np.pi, (5, 3, 2, 3)):
            sizes.clear()
            optimize_phases(scen, PhaseConfiguration(scen, start), 20_000, mode)
            sweeps.append(len(sizes))
        assert len(set(sweeps)) > 1  # the restarts stop after different sweeps
        sizes.clear()
        optimize_with_restarts(scen, restarts=5, mode=mode, seed=23)
        assert sizes == [sum(count > k for count in sweeps) for k in range(max(sweeps))]

    def test_a_spent_row_takes_no_further_move(self, monkeypatch):
        # row i has a move at every (i + 1)-th coordinate only, so the rows spend their budget
        # at different coordinates of one sweep: each takes budget - 1 moves, no more
        sweeps = []

        def sweep_builder(weights):
            def sweep(phases):
                sweeps.append(len(phases))
                if len(sweeps) > 1:
                    pytest.fail("every row's budget ends in the first sweep")
                for coord in range(phases[0].size):
                    yield coord, [
                        (i, row.flat[coord], row.flat[coord] + 1.0, 1.0)
                        for i, row in enumerate(phases)
                        if coord % (i + 1) == 0
                    ]

            return sweep

        monkeypatch.setattr("quditbell.optimize._free_sweep", sweep_builder)
        monkeypatch.setattr("quditbell.optimize.ghz_bell_value", lambda config: 0.0)
        phases, values = _climb(BellScenario(2, 3), np.zeros((3, 2, 2, 3)), 5, "free")
        moved = [np.flatnonzero(row).tolist() for row in phases]
        assert moved == [[0, 1, 2, 3], [0, 2, 4, 6], [0, 3, 6, 9]]
        assert values == [0.0] * 3

    @pytest.mark.parametrize("mode", ["free", "symmetric"])
    def test_a_random_start_costs_two_evaluations(self, monkeypatch, mode):
        # the start and the end: a stack shares numpy calls, not evaluations
        calls = count_objective_calls(monkeypatch)
        optimize_with_restarts(BellScenario(3, 3), restarts=6, mode=mode, seed=5)
        assert len(calls) == 12

    def test_the_closed_form_warning_points_at_the_caller(self, monkeypatch):
        # the caller's line, for a restart too: not a line inside optimize_with_restarts
        scen = BellScenario(2, 2)
        monkeypatch.setattr("quditbell.optimize.max_violation", lambda scenario: 2.0)
        for search in (
            lambda: optimize_with_restarts(scen, restarts=3, budget=50),
            lambda: optimize_phases(scen, optimal_angles(scen), budget=50),
        ):
            with pytest.warns(UserWarning, match="exceeded the closed-form maximum") as record:
                search()
            caller = (__file__, search.__code__.co_firstlineno)
            assert [(w.filename, w.lineno) for w in record] == [caller] * len(record)


@pytest.mark.parametrize("p", [0, 1, 4])
@pytest.mark.parametrize("d", [2, 3, 5])
def test_a_stacked_party_step_is_each_rows_step_bit_for_bit(rng, p, d):
    # the free sweep folds a (T, R, d, d) stack through p + 1 parties, a single search one row
    stack = rng.normal(size=(p + 2, 4, d, d)) + 1j * rng.normal(size=(p + 2, 4, d, d))
    phases = rng.uniform(0.0, 2.0 * np.pi, (p + 1, 2, 4, d))
    folded = _fold(stack, phases)
    assert folded.shape == (1, 4, d, d)
    for r in range(4):
        row = _fold(stack[:, r].copy(), phases[:, :, r].copy())
        assert row.tobytes() == folded[:, r].tobytes()


def _times_party(by_t, f1, f2, p):
    """Multiply (f1 + z f2) into the z^0..z^p coefficients by_t[:p + 1], in place."""
    by_t[p + 1] = by_t[p] * f2
    by_t[1 : p + 1] = by_t[1 : p + 1] * f1 + by_t[:p] * f2
    by_t[0] *= f1


def free_sweep_by_prefix_and_suffix(weights):
    """The oracle: the free sweep as it was built from prefix products and suffix folds.

    Party p's gradient contracts the product of the parties before it, multiplied
    out into its z^t coefficients, with W folded through the parties after it."""
    d = weights.shape[1]
    reads = [(j, (j * d + k)[None], k[:, None]) for j, k in enumerate(_others(d))]

    def sweep(phases):
        count = len(phases)
        settings = phases.reshape(count, -1, d)
        rest = [weights[:, None]]
        for f in _branch_factors(phases[:, :0:-1]).swapaxes(0, 1):  # party N first
            rest.append(f[:, 0] * rest[-1][:-1] + f[:, 1] * rest[-1][1:])
        rest.reverse()
        by_t = np.empty((len(rest), count, d, d), dtype=complex)
        by_t[0] = 1.0
        for p, r in enumerate(rest):
            prefix = by_t[: p + 1]
            gradient = (prefix * r[:-1]).sum(axis=0), (prefix * r[1:]).sum(axis=0)
            for s, g in enumerate(gradient):
                g = g.reshape(count, d * d)
                setting = settings[:, 2 * p + s]
                for j, pair, cols in reads:
                    a = (g.take(pair, axis=1) @ np.exp(-1j * setting.take(cols, axis=1))).ravel()
                    moves = []
                    for i, (ai, arg, x0) in enumerate(
                        zip(a.tolist(), np.arctan2(a.imag, a.real).tolist(), setting[:, j].tolist())
                    ):
                        if ai:
                            theta = -arg
                            rise = ai * (cmath.exp(1j * theta) - cmath.exp(1j * x0))
                            moves.append((i, x0, theta, rise.real))
                    yield (2 * p + s) * d + j, moves
            if p + 1 < len(rest):
                f = _branch_factors(phases[:, p])
                _times_party(by_t, f[:, 0], f[:, 1], p)

    return sweep


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n,d", [(2, 2), (3, 3), (5, 4), (7, 2), (8, 3), (13, 5), (30, 8)])
def test_free_sweep_by_halving_is_the_prefix_suffix_one(rng, n, d, count):
    # both sweeps read their own copy of the stack, each move written into both between
    # yields: the same coordinates and rows, the peaks and rises within rounding
    starts = rng.uniform(0.0, 2.0 * np.pi, (count, n, 2, d))
    stacks = [starts.copy() for _ in range(2)]
    weights = _ghz_weights(n, d)
    sweeps = _free_sweep(weights)(stacks[0]), free_sweep_by_prefix_and_suffix(weights)(stacks[1])
    coords = []
    for (coord, moves), (oracle_coord, oracle) in zip(*sweeps):
        assert coord == oracle_coord
        assert [(i, x0) for i, x0, _, _ in moves] == [(i, x0) for i, x0, _, _ in oracle]
        for (_, _, theta, rise), (_, _, want, oracle_rise) in zip(moves, oracle):
            assert abs(np.angle(np.exp(1j * (theta - want)))) <= 1e-9
            assert rise == pytest.approx(oracle_rise, rel=0, abs=1e-13 / 4)
        coords.append(coord)
        for stack in stacks:
            for i, _, theta, _ in moves:
                stack.reshape(count, -1)[i, coord] = theta
    moving = len(_others(d))
    assert coords == [c * d + j for c in range(2 * n) for j in range(moving)]
    assert stacks[0].tobytes() == stacks[1].tobytes()


def test_free_search_memory_grows_with_n_d_squared_not_n_squared_d_squared():
    # the suffix folds of a sweep held (N+1)^2 d^2 / 2 entries: 88.5 MiB at (60, 50)
    scen = BellScenario(60, 50)
    start = PhaseConfiguration(scen, np.random.default_rng(1).uniform(0.0, 2.0 * np.pi, (60, 2, 50)))
    _ghz_weights(60, 50)  # the cached weights are not the search's to hold
    tracemalloc.start()
    try:
        optimize_phases(scen, start, budget=2 * 60 * 50 + 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_a_finished_free_sweep_holds_nothing(rng):
    # its partial folds and the factors each fold builds, up to 0.4 MB here, go when it
    # ends, not at a later collection
    weights, phases = _ghz_weights(8, 40), rng.uniform(0.0, 2.0 * np.pi, (2, 8, 2, 40))
    gc.disable()
    tracemalloc.start()
    try:
        for _ in _free_sweep(weights)(phases):
            pass
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        gc.enable()
    assert held < 2**16


def test_a_free_sweep_builds_no_more_than_half_the_parties_factors_at_once(rng, monkeypatch):
    # each fold builds the factors of the parties it folds through, from the phases as
    # they are then: the largest covers one half of the parties, not all of them
    n, d, count = 8, 3, 2
    covered = []
    real = _branch_factors

    def counted(phases):
        covered.append(phases.size // (2 * count * d))  # parties, for any batch shape
        return real(phases)

    monkeypatch.setattr("quditbell.quantum._branch_factors", counted)
    # and a build the sweep would make through a binding of its own
    monkeypatch.setattr("quditbell.optimize._branch_factors", counted, raising=False)
    phases = rng.uniform(0.0, 2.0 * np.pi, (count, n, 2, d))
    for coord, moves in _free_sweep(_ghz_weights(n, d))(phases):
        for i, _, theta, _ in moves:
            phases.reshape(count, -1)[i, coord] = theta
    assert covered and max(covered) <= n // 2


@pytest.mark.parametrize("d", range(2, 9))
def test_the_closed_form_is_the_two_party_free_searchs_ceiling(d):
    ceiling = cglmp_max_closed_form(d) * (1 + 1e-14)
    result = optimize_with_restarts(BellScenario(2, d), restarts=20, seed=0)
    assert max(result.restart_values) <= ceiling


@pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 3), (4, 5), (5, 4)])
def test_each_quadruple_of_the_ghz_value_is_at_most_the_two_qudit_maximum(rng, n, d):
    # the quadruples that flip parties 1 and 2 leave the other N - 2 parties measured:
    # each is the N = 2 functional on a maximally entangled pair under multiport phases
    scen = BellScenario(n, d)
    index = {s: i for i, s in enumerate(all_setting_strings(n))}
    grouping = build_grouping(scen, Bipartition.from_block(n, (1,)))
    groups = [[index[s] for s in group] for group in grouping.groups]
    top = cglmp_max_closed_form(d)

    def quadruples(config):
        values = -correlations(ghz_table(config))[groups].sum(axis=1)
        assert values.sum() == pytest.approx(ghz_bell_value(config), rel=1e-12, abs=0)
        assert values.max() <= top * (1 + 1e-12)
        return values

    for _ in range(5):
        quadruples(random_config(scen, rng))
    quadruples(optimize_with_restarts(scen, restarts=3, seed=1).config)
    np.testing.assert_allclose(quadruples(optimal_angles(scen)), top, rtol=1e-12, atol=0)


def roots_peak(a):
    """The peak by np.roots, the companion-matrix solver _peak replaces; the oracle."""
    if not a.any():
        return None
    m = np.arange(1, a.size + 1)
    roots = np.angle(np.roots(np.concatenate([(1j * m * a)[::-1], [0.0], -1j * m * a.conj()])))
    return roots[np.argmax((np.exp(1j * np.outer(roots, m)) @ a).real)]


def peak_terms(a):
    """_peak's terms of a: a_m (i m)^p, p = 0..3, the coefficients of f and its derivatives."""
    return a[:, None] * (1j * np.arange(1, a.size + 1)[:, None]) ** np.arange(4)


def trig_value(a, theta):
    """Re sum_m a[m-1] e^(i m theta)."""
    return (np.exp(1j * np.arange(1, a.size + 1) * theta) @ a).real


def peak_cases(rng, degree):
    """One polynomial of each family _peak must solve, by name."""
    m = np.arange(1, degree + 1)

    def normal():
        return rng.normal(size=degree) + 1j * rng.normal(size=degree)

    yield "random", normal()
    yield "decaying", normal() * 10.0 ** (-rng.uniform(0.5, 3.0) * m)
    dominant = 1e-3 * normal()
    dominant[-1] = 10.0 * normal()[0]
    yield "dominant top term", dominant
    # degree maxima equal to within 1e-9
    single = np.zeros(degree, dtype=complex)
    single[-1] = np.exp(1j * rng.uniform(-np.pi, np.pi))
    single[0] += 1e-9 * np.exp(1j * rng.uniform(-np.pi, np.pi))
    yield "single top term", single
    zeroed = normal()
    zeroed[rng.integers(1, degree + 1) :] = 0.0
    yield "zeroed top terms", zeroed
    # a large-N symmetric row: C(N, t)/2^N spans 30 decades at N = 100
    binomial = np.array([math.comb(degree, t) for t in m]) / 2.0**degree
    yield "binomial", binomial * np.exp(1j * m * rng.uniform(-np.pi, np.pi))
    if degree > 1:
        # cos(k x) - cos(2k x)/4: k equal maxima, each flat to fourth order
        k, shift = degree // 2, rng.uniform(-np.pi, np.pi)
        flat = np.zeros(degree, dtype=complex)
        flat[k - 1], flat[2 * k - 1] = np.exp(1j * k * shift), -0.25 * np.exp(2j * k * shift)
        yield "flat tops", flat


class TestPeak:
    @pytest.mark.parametrize("degree", range(1, 65))
    def test_reaches_the_np_roots_peak(self, rng, degree):
        # _peak reads the polynomial centred on x0, as a sweep builds it: its peak and rise
        # are a move from x0, and the peak is worth at least the oracle's.  The oracle's
        # eigenvalues cost degree^3: 20 trials up to degree 16, then fewer, down to 2
        grid = _grid(degree)
        m = np.arange(1, degree + 1)
        for _ in range(min(20, max(2, 5120 // degree**2))):
            for family, a in peak_cases(rng, degree):
                x0 = rng.uniform(-np.pi, np.pi)
                psi, rise = _peak(peak_terms(a * np.exp(1j * m * x0)), grid)
                theta = x0 + psi
                size = np.abs(a).sum()
                assert trig_value(a, theta) >= trig_value(a, roots_peak(a)) - 1e-14 * size, family
                expected = ((np.exp(1j * m * theta) - np.exp(1j * m * x0)) @ a).real
                assert rise == pytest.approx(expected, rel=0, abs=1e-12), family
        assert _peak(np.zeros((degree, 4), dtype=complex), grid) is None

    def test_a_top_flat_to_fourth_order_keeps_its_grid_angle(self):
        # f = cos t - cos 2t / 4 = 3/4 - t^4/8 + ...: f'' is 0 at the grid angle 0, where
        # the parabola's vertex falls, so the climb takes no step and 0 is the peak
        assert _peak(peak_terms(np.array([1.0, -0.25], dtype=complex)), _grid(2)) == (0.0, 0.0)

    @pytest.mark.parametrize("degree", [1, 2, 3, 8, 64])
    def test_the_table_holds_8_degree_squared_entries(self, degree):
        assert _grid(degree)[0].size == 8 * degree**2  # twice a 2m x 2m matrix


def refuse_lapack(monkeypatch):
    """Make every numpy eigenvalue and polynomial-root solver raise."""

    def refused(*args, **kwargs):
        pytest.fail("the search called a LAPACK eigenvalue solver")

    for name in ("numpy.linalg.eigvals", "numpy.linalg.eig", "numpy.roots"):
        monkeypatch.setattr(name, refused)


@pytest.mark.parametrize("n,d", [(2, 3), (4, 3), (3, 5)])
def test_the_symmetric_search_solves_no_eigenvalue_problem(rng, monkeypatch, n, d):
    # _peak needs none; the Newton steps factor and solve one (2d - 2)^2 matrix each
    refuse_lapack(monkeypatch)
    scen = BellScenario(n, d)
    top, tol = max_violation(scen), 1e-6 * 2.0 ** (n - 2)
    _, value = optimize_phases(scen, random_config(scen, rng), budget=20_000, mode="symmetric")
    assert value == pytest.approx(top, rel=0, abs=tol)
    result = optimize_with_restarts(scen, restarts=3, seed=0, mode="symmetric")
    assert result.value == pytest.approx(top, rel=0, abs=tol)


@pytest.mark.parametrize("n,d", [(70, 2), (100, 2), (80, 3)])
def test_symmetric_restarts_reach_the_maximum_at_large_n(n, d):
    # the coefficients span 30 decades at (100, 2); every restart ends on the maximum
    scen = BellScenario(n, d)
    result = optimize_with_restarts(scen, restarts=3, seed=0, mode="symmetric")
    for value in result.restart_values:
        assert value == pytest.approx(max_violation(scen), rel=1e-7, abs=0)


@pytest.mark.parametrize("mode", ["free", "symmetric"])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_phase_one_is_the_gauge_image_of_phase_zero_at_d2(rng, mode, n):
    # moving phi_1 of a setting by t gives the value of moving phi_0 by -t
    scen = BellScenario(n, 2)
    f, _ = _objective(scen, mode)
    params = _start_params(scen, mode, rng)
    for first in range(0, params.size, 2):
        for t in rng.uniform(-np.pi, np.pi, 3):
            p0, p1 = params.copy(), params.copy()
            p0[first] -= t
            p1[first + 1] += t
            assert f(p1) == pytest.approx(f(p0), rel=0, abs=1e-12)
