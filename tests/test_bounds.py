"""Deterministic-strategy search, bound certification, and the grouping."""

import functools
import itertools
from fractions import Fraction

import numpy as np
import pytest

from quditbell.bounds import (
    Bipartition,
    BudgetExceededError,
    DeterministicStrategy,
    bipartitions,
    build_grouping,
    group_deterministic_max,
    hlnhv_bound,
    lhv_bound,
    strategy_bell_value,
    _group_blocks,
    _min_class_sum,
)
from quditbell.scenario import (
    BellScenario,
    _numerator_row,
    all_setting_strings,
    bell_value,
    point_mass_table,
    t_count,
)
from conftest import (
    coefficient_exact,
    g1_exact,
    g2_exact,
    random_strategy,
    strategy_delta_table,
    t_coefficient,
)


def odometer_hlnhv(scenario, partition):
    """Brute-force oracle: scan every strategy in lexicographic digit order.

    Digits are the xi values in block-A combination order, then the zeta
    values; the first strict maximum is kept, so the witness is the
    lexicographically least one.  Coefficients come straight from
    coefficient_exact, the t-count of a setting being the sum of its blocks'.
    """
    partition = partition.canonical()
    d = scenario.dimension
    combos_a = all_setting_strings(len(partition.block_a))
    combos_b = all_setting_strings(len(partition.block_b))
    num = [
        [
            [int((d - 1) * coefficient_exact(t_count(ca) + t_count(cb), r, d)) for r in range(d)]
            for cb in combos_b
        ]
        for ca in combos_a
    ]
    ka, kb = len(combos_a), len(combos_b)
    best_sum, best_digits = None, None
    for digits in itertools.product(range(d), repeat=ka + kb):
        total = 0
        for i in range(ka):
            row, x = num[i], digits[i]
            for j in range(kb):
                total += row[j][(x + digits[ka + j]) % d]
        if best_sum is None or total < best_sum:
            best_sum, best_digits = total, digits
    witness = DeterministicStrategy(
        partition,
        dict(zip(combos_a, best_digits[:ka])),
        dict(zip(combos_b, best_digits[ka:])),
    )
    return Fraction(-best_sum, d - 1), witness


# Every bipartition for N=2..4, d=2..5 whose strategy space the odometer
# scans in well under a second
ODOMETER_CASES = [
    pytest.param(n, d, part.describe(), id=f"{n}-{d}-{part.describe()}")
    for n in range(2, 5)
    for d in range(2, 6)
    for part in bipartitions(n)
    if d ** (2 ** len(part.block_a) + 2 ** len(part.block_b)) <= 2 * 10**5
]


@functools.lru_cache(maxsize=None)
def brute_force_lhv(scenario):
    """Brute-force oracle: scan every local assignment in lexicographic order.

    The digits are (a_1, b_1, ..., a_N, b_N), party p's setting-1 and
    setting-2 outcomes; the first strict maximum is kept, so the witness is
    the lexicographically least one.  Coefficients come straight from
    coefficient_exact.
    """
    n, d = scenario.n_parties, scenario.dimension
    settings = all_setting_strings(n)
    nums = {
        s: [int((d - 1) * coefficient_exact(t_count(s), r, d)) for r in range(d)]
        for s in settings
    }
    # the digit of party p at setting s[p] sits at 2p + (s[p] == "2")
    slots = {s: [2 * p + (c == "2") for p, c in enumerate(s)] for s in settings}
    best_sum, best_digits = None, None
    for digits in itertools.product(range(d), repeat=2 * n):
        total = 0
        for s in settings:
            total += nums[s][sum(map(digits.__getitem__, slots[s])) % d]
        if best_sum is None or total < best_sum:
            best_sum, best_digits = total, digits
    witness = tuple((best_digits[2 * p], best_digits[2 * p + 1]) for p in range(n))
    return Fraction(-best_sum, d - 1), witness


# Every N=1..5, d=2..6 whose d^(2N) assignments the brute force scans quickly
LHV_ORACLE_CASES = [
    (n, d) for n in range(1, 6) for d in range(2, 7) if d ** (2 * n) <= 2 * 10**5
]


def row_search_hlnhv(scenario, partition):
    """Mid-size oracle: one row per block-A assignment, with no t-class argument.

    Fixes xi at block A's first combination to 0 (the gauge) and evaluates
    every remaining xi in lexicographic order, d^(2^|A|-1) rows, minimising
    each zeta independently per row; the first strict row minimum and the
    first minimiser of each zeta give the lexicographically least witness.
    """
    partition = partition.canonical()
    d = scenario.dimension
    combos_a = all_setting_strings(len(partition.block_a))
    combos_b = all_setting_strings(len(partition.block_b))
    num = np.array(
        [[_numerator_row(t_count(ca) + t_count(cb), d) for cb in combos_b] for ca in combos_a]
    )
    ka, kb = len(combos_a), len(combos_b)
    x = np.array([(0, *rest) for rest in itertools.product(range(d), repeat=ka - 1)])
    # sums[row, j, w]: sum_i num[i, j, (x_i + w) mod d], zeta_j = w
    residues = (x[:, :, None, None] + np.arange(d)) % d
    sums = num[np.arange(ka)[:, None, None], np.arange(kb)[:, None], residues].sum(axis=1)
    costs = sums.min(axis=2).sum(axis=1)
    row = int(costs.argmin())
    witness = DeterministicStrategy(
        partition,
        dict(zip(combos_a, map(int, x[row]))),
        dict(zip(combos_b, map(int, sums[row].argmin(axis=1)))),
    )
    return Fraction(-int(costs[row]), d - 1), witness


def row_walk_lhv(scenario):
    """Mid-size oracle: one row per (b_1, ..., b_(N-1)), with no symmetry argument.

    Fixes a_1 = ... = a_(N-1) = 0 (the gauge), walks all d^(N-1) rows in
    lexicographic order through every combination of parties 1..N-1, and
    minimises a_N and b_N independently per row.
    """
    n, d = scenario.n_parties, scenario.dimension
    rows = np.array(list(itertools.product(range(d), repeat=n - 1)))
    twos = np.array(list(itertools.product((0, 1), repeat=n - 1)))
    sigma = rows @ twos.T % d
    nums = np.array([_numerator_row(t, d) for t in range(n + 1)])
    column = np.arange(len(twos))[:, None]
    # costs[i][row, w]: the row's terms with party N on setting i + 1, outcome w
    costs = [
        nums[twos.sum(axis=1) + i][column, (sigma[:, :, None] + np.arange(d)) % d].sum(axis=1)
        for i in (0, 1)
    ]
    totals = costs[0].min(axis=1) + costs[1].min(axis=1)
    row = int(totals.argmin())
    last = (int(costs[0][row].argmin()), int(costs[1][row].argmin()))
    witness = tuple((0, int(b)) for b in rows[row]) + (last,)
    return Fraction(-int(totals[row]), d - 1), witness


def local_witness_value(scenario, witness):
    """Bell value of the point-mass table a local assignment induces."""
    outcomes = {
        s: tuple(witness[p][int(c) - 1] for p, c in enumerate(s))
        for s in scenario.setting_strings()
    }
    return bell_value(point_mass_table(scenario, outcomes))


def fold_local_witness(scenario, witness):
    """The local assignment as a two-block strategy: party 1 against parties 2..N.

    Block B's value per setting combination is its parties' outcome sum.
    """
    n, d = scenario.n_parties, scenario.dimension
    zeta = {
        combo: sum(witness[p + 1][int(c) - 1] for p, c in enumerate(combo)) % d
        for combo in all_setting_strings(n - 1)
    }
    xi = {"1": witness[0][0], "2": witness[0][1]}
    return DeterministicStrategy(Bipartition.from_block(n, (1,)), xi, zeta)


def local_value_by_t_count(scenario, witness):
    """Exact value of a local assignment from its setting strings' counts.

    Counts the strings per (t-count, outcome sum mod d) party by party in
    Python integers, so it reaches N far past a loop over the 2^N strings.
    """
    d = scenario.dimension
    counts = {(0, 0): 1}
    for a, b in witness:
        grown = {}
        for (t, s), c in counts.items():
            for key in ((t, (s + a) % d), (t + 1, (s + b) % d)):
                grown[key] = grown.get(key, 0) + c
        counts = grown
    return -sum(c * coefficient_exact(t, s, d) for (t, s), c in counts.items())


def _group_value(group, xi_pair, zeta_pair, dimension) -> Fraction:
    """Direct four-term sum of -Q over a quadruple, exact."""
    (xa, xa2), (zb, zb2) = xi_pair, zeta_pair
    sums = (xa + zb, xa + zb2, xa2 + zb, xa2 + zb2)
    return -sum(
        coefficient_exact(t_count(s), total, dimension)
        for s, total in zip(group, sums)
    )


def verify_group_cglmp(group, strategy, scenario) -> Fraction:
    """Oracle: one quadruple's value under a strategy, cross-checked in two-party form.

    After shifting the block-A sums by a multiple of 3 fixed by the parity of
    the base t-count, the four terms become exactly the two-party functional
    whose deterministic maximum is 2.  Both evaluations are exact; a mismatch
    means the quadruple is not one of build_grouping's and raises.
    """
    strategy.validate_for(scenario)
    d = scenario.dimension
    part = strategy.partition
    base_a, flip_a, base_b, flip_b = _group_blocks(group, part)
    xi_pair = (strategy.xi[base_a], strategy.xi[flip_a])
    zeta_pair = (strategy.zeta[base_b], strategy.zeta[flip_b])
    direct = _group_value(group, xi_pair, zeta_pair, d)

    k = t_count(group[0])
    if k % 2 == 0:
        half = k // 2
        alpha1 = xi_pair[0] - 3 * half
        alpha2 = xi_pair[1] - 3 * half
    else:
        half = (k + 1) // 2
        alpha1 = xi_pair[1] - 3 * half
        alpha2 = xi_pair[0] - 3 * (half - 1)
    beta1, beta2 = zeta_pair
    reduced = -(
        g1_exact(alpha1 + beta1 + 3, d)
        + g2_exact(alpha1 + beta2 + 3, d)
        + g2_exact(alpha2 + beta1 + 3, d)
        + g1_exact(alpha2 + beta2, d)
    )
    if direct != reduced:
        raise ValueError(
            f"quadruple {group} does not reduce to the two-party form "
            f"({direct} vs {reduced})"
        )
    return direct


def fraction_group_max(group, dimension):
    """Brute-force oracle: the quadruple's exact value at every point of Z_d^4."""
    return max(
        _group_value(group, (xa, xa2), (zb, zb2), dimension)
        for xa, xa2, zb, zb2 in itertools.product(range(dimension), repeat=4)
    )


class TestBipartition:
    def test_parse(self):
        part = Bipartition.parse("1,3/2,4", 4)
        assert part.block_a == (1, 3)
        assert part.block_b == (2, 4)

    def test_parse_rejects_garbage(self):
        for text in ("1,2", "1,2/2,3", "1//2", "a/b", "1/2/3"):
            with pytest.raises(ValueError):
                Bipartition.parse(text, 3)

    def test_parse_rejects_wrong_party_count(self):
        with pytest.raises(ValueError, match="expected 4"):
            Bipartition.parse("1,2/3", 4)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Bipartition((1, 2), ())

    def test_canonical_puts_party_one_first(self):
        part = Bipartition((2, 3), (1,)).canonical()
        assert part.block_a == (1,)
        assert part.block_b == (2, 3)

    def test_bipartitions_count(self):
        # 2^(N-1) - 1 canonical splits
        assert len(list(bipartitions(3))) == 3
        assert len(list(bipartitions(4))) == 7


class TestStrategyValue:
    def test_all_zero_three_qubits(self):
        # with every block sum 0 the eight coefficients cancel pairwise
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1, 2))
        strategy = DeterministicStrategy(
            part, {c: 0 for c in all_setting_strings(2)}, {c: 0 for c in all_setting_strings(1)}
        )
        assert strategy_bell_value(strategy, scen) == 0

    def test_matches_delta_table_oracle(self, rng):
        # the direct block-sum evaluation against the full table evaluation
        cases = [(3, 2), (3, 3), (4, 2), (2, 5), (4, 3)]
        for n, d in cases:
            scen = BellScenario(n, d)
            for part in bipartitions(n):
                for _ in range(10):
                    strategy = random_strategy(scen, part, rng)
                    direct = strategy_bell_value(strategy, scen)
                    table = strategy_delta_table(strategy, scen)
                    assert float(direct) == pytest.approx(bell_value(table), abs=1e-12)

    def test_validates_values_in_range(self):
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1,))
        bad = DeterministicStrategy(
            part, {"1": 5, "2": 0}, {c: 0 for c in all_setting_strings(2)}
        )
        with pytest.raises(ValueError, match="outside"):
            strategy_bell_value(bad, scen)

    def test_validates_domain_cover(self):
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1,))
        bad = DeterministicStrategy(part, {"1": 0}, {c: 0 for c in all_setting_strings(2)})
        with pytest.raises(ValueError, match="combinations"):
            strategy_bell_value(bad, scen)


class TestHlnhvBound:
    @pytest.mark.parametrize(
        "n,d,block_a",
        [(3, 3, (1, 2)), (4, 2, (1, 2)), (2, 5, (1,)), (3, 2, (1,)), (3, 4, (1, 2))],
    )
    def test_equals_half_the_settings(self, n, d, block_a):
        scen = BellScenario(n, d)
        bound, witness = hlnhv_bound(scen, Bipartition.from_block(n, block_a))
        assert bound == Fraction(2 ** (n - 1))
        # the witness actually achieves the bound
        assert strategy_bell_value(witness, scen) == bound

    def test_partition_invariance(self):
        scen = BellScenario(3, 3)
        values = {hlnhv_bound(scen, part)[0] for part in bipartitions(3)}
        assert values == {Fraction(4)}

    def test_budget_guard_reports_required(self):
        scen = BellScenario(6, 5)
        part = Bipartition.from_block(6, (1, 2, 3, 4, 5))
        with pytest.raises(BudgetExceededError) as err:
            hlnhv_bound(scen, part)
        assert err.value.dimension**err.value.exponent == 5**32 * 5**2
        assert err.value.budget == 10**8

    def test_huge_budget_refusal_stays_bounded(self):
        # a budget past Python's 4,300-digit str() limit is written as a power of two
        scen, part = BellScenario(30, 2), Bipartition.from_block(30, [1])
        with pytest.raises(BudgetExceededError) as err:
            hlnhv_bound(scen, part, budget=10**5000)
        assert len(str(err.value)) < 100
        assert "budget allows about 2^16610" in str(err.value)
        assert err.value.budget == 10**5000

    def test_witness_is_lexicographically_least(self):
        # scanning in index order with strict improvement keeps the first argmax
        scen = BellScenario(2, 2)
        part = Bipartition.from_block(2, (1,))
        bound, witness = hlnhv_bound(scen, part)
        digits = [witness.xi["1"], witness.xi["2"], witness.zeta["1"], witness.zeta["2"]]
        best = strategy_bell_value(witness, scen)
        assert best == bound
        # no strategy with a smaller digit tuple reaches the bound
        import itertools

        for cand in itertools.product(range(2), repeat=4):
            if list(cand) >= digits:
                break
            strategy = DeterministicStrategy(
                part, {"1": cand[0], "2": cand[1]}, {"1": cand[2], "2": cand[3]}
            )
            assert strategy_bell_value(strategy, scen) < bound

    @pytest.mark.parametrize("n,d,partition", ODOMETER_CASES)
    def test_matches_odometer_oracle(self, n, d, partition):
        scen = BellScenario(n, d)
        part = Bipartition.parse(partition, n)
        assert hlnhv_bound(scen, part) == odometer_hlnhv(scen, part)

    @pytest.mark.parametrize(
        "n,d,partition", [(3, 4, "1,2/3"), (3, 5, "1/2,3"), (4, 3, "1,2,3/4"), (4, 3, "1,2/3,4")]
    )
    def test_row_search_oracle_matches_odometer(self, n, d, partition):
        scen = BellScenario(n, d)
        part = Bipartition.parse(partition, n)
        assert row_search_hlnhv(scen, part) == odometer_hlnhv(scen, part)

    @pytest.mark.parametrize(
        "n,d,partition", [(5, 3, "1,2/3,4,5"), (6, 3, "1,2,3/4,5,6"), (5, 4, "1,2/3,4,5")]
    )
    def test_matches_row_search_oracle(self, n, d, partition):
        # 3^12, 3^16 and 4^12 strategies, past the odometer: the row search
        # walks 3^3, 3^7 and 4^3 rows of every block-A combination
        scen = BellScenario(n, d)
        part = Bipartition.parse(partition, n)
        assert hlnhv_bound(scen, part) == row_search_hlnhv(scen, part)

    def test_beyond_the_row_search(self):
        # 3^128 strategies, for the row search 3^63 rows; the class search
        # walks 3^6
        scen = BellScenario(12, 3)
        part = Bipartition.parse("1,2,3,4,5,6/7,8,9,10,11,12", 12)
        bound, witness = hlnhv_bound(scen, part, budget=3**130)
        assert bound == 2048
        assert strategy_bell_value(witness, scen) == bound

    @pytest.mark.parametrize(
        "n,d,partition", [(5, 3, "1,2/3,4,5"), (6, 3, "1,2,3/4,5,6"), (4, 6, "1,2,3/4")]
    )
    def test_beyond_the_odometer(self, n, d, partition):
        # 3^12, 3^16 and 6^10 strategies, the last the largest space the
        # default budget accepts: far past what the odometer scans in a test
        scen = BellScenario(n, d)
        bound, witness = hlnhv_bound(scen, Bipartition.parse(partition, n))
        assert bound == Fraction(2 ** (n - 1))
        assert strategy_bell_value(witness, scen) == bound

    def test_noncanonical_partition_same_bound(self):
        scen = BellScenario(3, 2)
        bound_a, _ = hlnhv_bound(scen, Bipartition((2, 3), (1,)))
        bound_b, _ = hlnhv_bound(scen, Bipartition((1,), (2, 3)))
        assert bound_a == bound_b == Fraction(4)


class TestLhvBound:
    def test_two_qubits(self):
        bound, witness = lhv_bound(BellScenario(2, 2))
        assert bound == 2
        assert len(witness) == 2

    def test_two_qutrits(self):
        assert lhv_bound(BellScenario(2, 3))[0] == 2

    def test_three_qubits(self):
        # frozen from the exhaustive 2^6 enumeration; also the hlnhv value here
        bound, _ = lhv_bound(BellScenario(3, 2))
        assert bound == 4
        assert bound <= Fraction(2**2)

    def test_never_above_hlnhv(self):
        for n, d in ((2, 2), (2, 3), (3, 2), (3, 3)):
            scen = BellScenario(n, d)
            lhv, _ = lhv_bound(scen)
            for part in bipartitions(n):
                hlnhv, _ = hlnhv_bound(scen, part)
                assert lhv <= hlnhv <= Fraction(2**n)

    def test_budget_guard(self):
        with pytest.raises(BudgetExceededError):
            lhv_bound(BellScenario(7, 5))

    @pytest.mark.parametrize("n,d", LHV_ORACLE_CASES)
    def test_matches_brute_force_oracle(self, n, d):
        scen = BellScenario(n, d)
        assert lhv_bound(scen) == brute_force_lhv(scen)

    @pytest.mark.parametrize("n,d", [(3, 4), (4, 3), (5, 2), (3, 5)])
    def test_row_walk_oracle_matches_brute_force(self, n, d):
        scen = BellScenario(n, d)
        assert row_walk_lhv(scen) == brute_force_lhv(scen)

    @pytest.mark.parametrize("n,d", [(8, 3), (6, 4), (10, 2)])
    def test_matches_row_walk_oracle(self, n, d):
        # 3^16, 4^12 and 2^20 assignments, past the brute force: the row walk
        # visits every one of the 3^7, 4^5 and 2^9 rows, sorted or not
        scen = BellScenario(n, d)
        assert lhv_bound(scen) == row_walk_lhv(scen)

    def test_largest_default_budget_case(self):
        # 2^26 assignments, the largest space the default budget accepts; a
        # point-mass table would hold 2^26 entries, so the witness is folded
        scen = BellScenario(13, 2)
        bound, witness = lhv_bound(scen)
        assert bound == 128
        assert strategy_bell_value(fold_local_witness(scen, witness), scen) == bound

    @pytest.mark.parametrize("n", [62, 63, 64, 128])
    def test_past_int64(self, n):
        # at d=2 the partial sums may reach 2^N, so the search leaves int64
        # from N=63 on; int64 row costs would wrap at N=128.  The bound
        # 2^ceil(N/2) is frozen from the search at N <= 21 and checked
        # against the oracles up to N=13 (above and in the row-walk cases)
        scen = BellScenario(n, 2)
        bound, witness = lhv_bound(scen, budget=2 ** (2 * n))
        assert bound == 2 ** ((n + 1) // 2)
        assert local_value_by_t_count(scen, witness) == bound

    @pytest.mark.parametrize("n,d,expected", [(8, 3, Fraction(128)), (6, 4, Fraction(88, 3))])
    def test_beyond_the_brute_force(self, n, d, expected):
        # 3^16 and 4^12 assignments, far past what the brute force scans in a
        # test; the expected values are frozen from the search, and the
        # witness check below is the independent part
        scen = BellScenario(n, d)
        bound, witness = lhv_bound(scen)
        assert bound == expected
        assert bound <= 2 ** (n - 1)
        assert local_witness_value(scen, witness) == pytest.approx(float(bound), abs=1e-9)

    def test_witness_achieves_bound(self):
        scen = BellScenario(3, 2)
        bound, witness = lhv_bound(scen)
        assert strategy_bell_value(fold_local_witness(scen, witness), scen) == bound

    @pytest.mark.parametrize("n,d", [(3, 2), (4, 3), (5, 2)])
    def test_value_by_t_count_matches_table(self, n, d):
        scen = BellScenario(n, d)
        witness = lhv_bound(scen)[1]
        assert float(local_value_by_t_count(scen, witness)) == pytest.approx(
            local_witness_value(scen, witness), abs=1e-9
        )


class TestClassSearch:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 2, 3), (2, 4, 3), (4, 3, 2)])
    def test_least_optimum_of_the_whole_space(self, shape, rng):
        # weights from {-1, 0, 1} tie often, so the tie-break decides
        ka, kb, d = shape
        for _ in range(5):
            weights = rng.integers(-1, 2, size=shape)
            best = None
            for digits in itertools.product(range(d), repeat=ka + kb):
                x, z = digits[:ka], digits[ka:]
                total = sum(
                    weights[a, b, (x[a] + z[b]) % d] for a in range(ka) for b in range(kb)
                )
                if best is None or total < best[0]:
                    best = (int(total), list(x), list(z))
            assert _min_class_sum(weights) == best

    def test_python_ints_match_int64(self, rng):
        for shape in [(2, 2, 2), (4, 3, 3), (3, 5, 4)]:
            weights = rng.integers(-20, 21, size=shape)
            assert _min_class_sum(weights.astype(object)) == _min_class_sum(weights)


class TestNumeratorRow:
    @pytest.mark.parametrize("d", range(2, 13))
    def test_integer_row_matches_fraction_coefficients(self, d):
        # t past 2d covers a whole period of the shift's residue and parity
        for t in range(max(13, 3 * d + 1)):
            expected = tuple((d - 1) * coefficient_exact(t, r, d) for r in range(d))
            assert _numerator_row(t, d) == expected


class TestGrouping:
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_partition_of_settings(self, n):
        scen = BellScenario(n, 2)
        part = Bipartition.from_block(n, tuple(range(1, n // 2 + 1)))
        grouping = build_grouping(scen, part)
        assert len(grouping.groups) == 2 ** (n - 2)
        flat = [s for group in grouping.groups for s in group]
        assert sorted(flat) == sorted(all_setting_strings(n))

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_quadruple_shape(self, n):
        scen = BellScenario(n, 3)
        part = Bipartition.from_block(n, (1,))
        for group in build_grouping(scen, part).groups:
            k = t_count(group[0])
            assert tuple(t_count(s) for s in group) == (k, k + 1, k + 1, k + 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_multiplicities_match_alternating_sum(self, n):
        scen = BellScenario(n, 2)
        part = Bipartition.from_block(n, (1, 2))
        grouping = build_grouping(scen, part)
        expected = tuple(t_coefficient(n, k) for k in range(n - 1))
        assert grouping.multiplicities == expected
        assert sum(grouping.multiplicities) == 2 ** (n - 2)

    def test_group_values_sum_to_strategy_value(self, rng):
        for n, d in ((3, 2), (4, 3), (5, 2)):
            scen = BellScenario(n, d)
            part = Bipartition.from_block(n, (1, 2))
            grouping = build_grouping(scen, part)
            for _ in range(20):
                strategy = random_strategy(scen, part, rng)
                total = sum(
                    verify_group_cglmp(g, strategy, scen) for g in grouping.groups
                )
                assert total == strategy_bell_value(strategy, scen)

    def test_group_value_at_most_two(self, rng):
        for n, d in ((3, 3), (4, 2)):
            scen = BellScenario(n, d)
            part = Bipartition.from_block(n, (1,))
            grouping = build_grouping(scen, part)
            for _ in range(50):
                strategy = random_strategy(scen, part, rng)
                for group in grouping.groups:
                    assert verify_group_cglmp(group, strategy, scen) <= 2

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2), (4, 3), (5, 2), (5, 3)])
    def test_exhaustive_group_max_is_two(self, n, d):
        scen = BellScenario(n, d)
        part = Bipartition.from_block(n, tuple(range(1, n // 2 + 1)))
        grouping = build_grouping(scen, part)
        for group in grouping.groups:
            assert group_deterministic_max(group, scen, part) == 2

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_integer_group_max_matches_fraction_brute_force(self, n, d):
        scen = BellScenario(n, d)
        part = Bipartition.from_block(n, tuple(range(1, n // 2 + 1)))
        for group in build_grouping(scen, part).groups:
            assert group_deterministic_max(group, scen, part) == fraction_group_max(group, d)

    def test_malformed_quadruple_rejected(self, rng):
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1, 2))
        strategy = random_strategy(scen, part, rng)
        with pytest.raises(ValueError, match="malformed"):
            verify_group_cglmp(("111", "112", "121", "211"), strategy, scen)
