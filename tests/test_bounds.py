"""Deterministic-strategy search, bound certification, and the grouping."""

import functools
import itertools
import re
from fractions import Fraction

import numpy as np
import pytest

import quditbell.bounds
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
)
from quditbell.quantum import DenseLimitError
from quditbell.scenario import (
    BellScenario,
    _numerator_row,
    all_setting_strings,
    bell_value,
    point_mass_table,
)
from conftest import (
    coefficient_exact,
    g1_exact,
    g2_exact,
    random_strategy,
    strategy_delta_table,
    substring,
    t_coefficient,
    t_count,
)


def loop_strategy_bell_value(strategy, scenario, row=_numerator_row) -> Fraction:
    """Oracle: the strategy's exact value, setting string by setting string.

    Each of the 2^N strings reads its block combinations' values and adds
    the integer numerator row(t, d) of its t-count at their sum.
    """
    strategy.validate_for(scenario)
    part, d = strategy.partition, scenario.dimension
    total = 0
    for s in all_setting_strings(scenario.n_parties):
        xi = strategy.xi[substring(s, part.block_a)]
        zeta = strategy.zeta[substring(s, part.block_b)]
        total += row(t_count(s), d)[(xi + zeta) % d]
    return Fraction(-total, d - 1)


def exact_row(t, d):
    """Oracle: the integer numerator row of t-count t, straight from coefficient_exact."""
    return [int((d - 1) * coefficient_exact(t, r, d)) for r in range(d)]


def odometer_hlnhv(scenario, partition, row=exact_row):
    """Brute-force oracle: scan every strategy in lexicographic digit order.

    Digits are the xi values in block-A combination order, then the zeta
    values; the first strict maximum is kept, so the witness is the
    lexicographically least one.  Coefficients come from row(t, d), by
    default straight from coefficient_exact, the t-count of a setting being
    the sum of its blocks'.
    """
    partition = partition.canonical()
    d = scenario.dimension
    combos_a = all_setting_strings(len(partition.block_a))
    combos_b = all_setting_strings(len(partition.block_b))
    num = [[row(t_count(ca) + t_count(cb), d) for cb in combos_b] for ca in combos_a]
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
def brute_force_lhv(scenario, row=exact_row):
    """Brute-force oracle: scan every local assignment in lexicographic order.

    The digits are (a_1, b_1, ..., a_N, b_N), party p's setting-1 and
    setting-2 outcomes; the first strict maximum is kept, so the witness is
    the lexicographically least one.  Coefficients come from row(t, d), by
    default straight from coefficient_exact.
    """
    n, d = scenario.n_parties, scenario.dimension
    settings = all_setting_strings(n)
    nums = {s: row(t_count(s), d) for s in settings}
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


def group_blocks(group, partition):
    """Block combinations (base A, flipped A, base B, flipped B) of a quadruple.

    Raises unless the quadruple pairs two block-A combinations, the second
    one t-count higher, with two such block-B combinations.
    """
    base_a, base_b = substring(group[0], partition.block_a), substring(group[0], partition.block_b)
    flip_a, flip_b = substring(group[2], partition.block_a), substring(group[1], partition.block_b)
    if (
        substring(group[1], partition.block_a) != base_a
        or substring(group[2], partition.block_b) != base_b
        or substring(group[3], partition.block_a) != flip_a
        or substring(group[3], partition.block_b) != flip_b
        or t_count(flip_a) != t_count(base_a) + 1
        or t_count(flip_b) != t_count(base_b) + 1
    ):
        raise ValueError(f"malformed quadruple {group}")
    return base_a, flip_a, base_b, flip_b


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
    base_a, flip_a, base_b, flip_b = group_blocks(group, part)
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


# the brute-force oracle reads a quadruple only through its t-counts, so a string of
# t twos stands for each member
@functools.lru_cache(maxsize=None)
def fraction_group_max_by_t_counts(t_counts, dimension):
    return fraction_group_max(tuple("2" * t for t in t_counts), dimension)


# N = 3..5 at d = 2..6 and N = 6 at d <= 4, with every split
GROUP_SIZES = [(n, d) for n in (3, 4, 5) for d in range(2, 7)] + [(6, d) for d in (2, 3, 4)]


class TestBipartition:
    def test_parse(self):
        part = Bipartition.parse("1,3/2,4", 4)
        assert part.block_a == (1, 3)
        assert part.block_b == (2, 4)

    def test_parse_rejects_garbage(self):
        for text in ("1,2", "1,2/2,3", "1//2", "a/b", "1/2/3", "1,,2/3", "1,2,/3"):
            with pytest.raises(ValueError):
                Bipartition.parse(text, 3)

    def test_parse_rejects_wrong_party_count(self):
        with pytest.raises(ValueError, match="expected 4"):
            Bipartition.parse("1,2/3", 4)

    @pytest.mark.parametrize("block_a, covered", [((3,), 3), ((1, 3, 4), 4)], ids=["3", "1,3,4"])
    def test_from_block_rejects_wrong_party_count(self, block_a, covered):
        # the rest of 1..2 plus block A would partition 1..covered
        with pytest.raises(ValueError, match=f"covers {covered} parties, expected 2"):
            Bipartition.from_block(2, block_a)

    def test_rejects_empty_block(self):
        with pytest.raises(ValueError):
            Bipartition((1, 2), ())

    @pytest.mark.parametrize("block_a,block_b", [((1,), (3,)), ((2,), (3,)), ((1, 4), (2,))])
    def test_rejects_blocks_that_leave_a_gap(self, block_a, block_b):
        with pytest.raises(ValueError, match="do not partition"):
            Bipartition(block_a, block_b)

    @pytest.mark.parametrize("party", [1.5, 1.0, True, np.True_, "1", None], ids=repr)
    def test_rejects_a_party_that_is_not_an_integer(self, party):
        # int() would read 1.5 and True as party 1
        with pytest.raises(ValueError, match="parties must be integers"):
            Bipartition((party,), (2,))
        with pytest.raises(ValueError, match="parties must be integers"):
            Bipartition((1,), (party,))
        with pytest.raises(ValueError, match="parties must be integers"):
            Bipartition.from_block(2, (party,))

    def test_accepts_numpy_integer_parties(self):
        part = Bipartition(np.array([3, 1]), (np.int64(2),))
        assert part.block_a == (1, 3) and part.block_b == (2,)
        assert all(type(p) is int for p in part.block_a + part.block_b)
        assert Bipartition.from_block(3, np.array([1, 3])) == part

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

    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_loop_oracle(self, n, rng):
        # exact equality with the setting-string loop, every split, d=2..5
        for d in range(2, 6):
            scen = BellScenario(n, d)
            for part in bipartitions(n):
                for _ in range(3):
                    strategy = random_strategy(scen, part, rng)
                    assert strategy_bell_value(strategy, scen) == loop_strategy_bell_value(
                        strategy, scen
                    )

    def test_eighteen_qutrits_one_against_rest(self):
        # 2^17 block-B combinations; the budget bypassed, as it counts 3^(2 + 2^17)
        scen = BellScenario(18, 3)
        part = Bipartition.from_block(18, (1,))
        bound, witness = hlnhv_bound(scen, part, budget=3 ** (2 + 2**17))
        assert bound == 131072
        assert strategy_bell_value(witness, scen) == 131072

    def test_validate_returns_arrays_by_block_index(self):
        scen = BellScenario(3, 3)
        part = Bipartition.from_block(3, (2,))
        strategy = DeterministicStrategy(
            part, {"1": 2, "2": 1}, {"11": 0, "12": 1, "21": 2, "22": 0}
        )
        xi, zeta = strategy.validate_for(scen)
        assert xi.tolist() == [2, 1]
        assert zeta.tolist() == [0, 1, 2, 0]

    def test_validates_values_in_range(self):
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1,))
        bad = DeterministicStrategy(
            part, {"1": 5, "2": 0}, {c: 0 for c in all_setting_strings(2)}
        )
        with pytest.raises(ValueError, match="outside"):
            strategy_bell_value(bad, scen)

    @pytest.mark.parametrize("value", [1.5, 1.0, True, False, "1", None])
    def test_validates_integer_values(self, value):
        # an array would read 1.5 and True as 1: each is refused, named by its entry
        scen = BellScenario(3, 3)
        part = Bipartition.from_block(3, (1,))
        bad = DeterministicStrategy(part, {"1": 0, "2": 0}, {"11": 0, "12": value, "21": 0, "22": 0})
        with pytest.raises(ValueError, match=r"zeta\[12\] = .* outside the integers 0..2"):
            strategy_bell_value(bad, scen)

    def test_validates_domain_cover(self):
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1,))
        bad = DeterministicStrategy(part, {"1": 0}, {c: 0 for c in all_setting_strings(2)})
        with pytest.raises(ValueError, match=r"mismatch in xi: 1 missing \['2'\], 0 unexpected"):
            strategy_bell_value(bad, scen)

    def test_domain_refusal_stays_short(self):
        # the 2^17 block-B combinations are counted, not listed
        part = Bipartition.from_block(18, (1,))
        bad = DeterministicStrategy(part, {"1": 0, "2": 0}, {"1" * 17: 0})
        with pytest.raises(ValueError, match=r"mismatch in zeta: 1 given, 2\^17 expected") as err:
            bad.validate_for(BellScenario(18, 3))
        assert len(str(err.value)) < 200


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

    @pytest.mark.parametrize("n", [2, 4])
    def test_partition_for_another_n_refused(self, n):
        part = Bipartition.from_block(n, (1,))
        with pytest.raises(ValueError, match=f"covers {n} parties, expected 3"):
            hlnhv_bound(BellScenario(3, 2), part)

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

    def test_budget_must_be_an_integer(self):
        # 1e9 once failed on float.bit_length, and True read as a budget of 1
        scen, part = BellScenario(3, 2), Bipartition.from_block(3, [1])
        for budget in (1e9, 2.5, True):
            for bound in (lambda b: hlnhv_bound(scen, part, budget=b), lambda b: lhv_bound(scen, budget=b)):
                with pytest.raises(ValueError, match=f"integer, got {budget!r}"):
                    bound(budget)
        assert hlnhv_bound(scen, part, budget=np.int64(10**8)) == hlnhv_bound(scen, part)
        assert lhv_bound(scen, budget=np.int64(10**8)) == lhv_bound(scen)

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


def patch_any_rows(monkeypatch, rng, n, d):
    """Seeded integer rows from {-1, 0, 1} in place of the functional's, as row(t, d)."""
    rows = [tuple(int(v) for v in rng.integers(-1, 2, d)) for _ in range(n + 1)]
    row = lambda t, dim: rows[t]  # noqa: E731
    monkeypatch.setattr(quditbell.bounds, "_numerator_row", row)
    return row


class TestSearchesOnAnyRows:
    """Both searches keep the brute force's least optimum on rows that tie often, so
    the tie-break decides, and on Python ints as on int64."""

    @staticmethod
    def same_on_python_ints(monkeypatch, search, expected):
        assert search() == expected
        with monkeypatch.context() as patched:
            patched.setattr(quditbell.bounds, "_exact_dtype", lambda n, d: object)
            assert search() == expected

    @pytest.mark.parametrize("n,d", [(3, 2), (3, 3), (4, 2)])
    def test_hlnhv_on_every_bipartition(self, n, d, rng, monkeypatch):
        scen = BellScenario(n, d)
        for _ in range(10):
            row = patch_any_rows(monkeypatch, rng, n, d)
            for part in bipartitions(n):
                expected = odometer_hlnhv(scen, part, row)
                self.same_on_python_ints(monkeypatch, lambda: hlnhv_bound(scen, part), expected)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
    def test_lhv(self, n, d, rng, monkeypatch):
        scen = BellScenario(n, d)
        for _ in range(10):
            expected = brute_force_lhv(scen, patch_any_rows(monkeypatch, rng, n, d))
            self.same_on_python_ints(monkeypatch, lambda: lhv_bound(scen), expected)


@pytest.mark.parametrize("search", [
    # at N = 2 each search's table holds 4 d^2 entries: d = 2048 is the largest
    # allowed; at d = 2 the LHV subset counts hold 2 N^2: N = 2896 is
    lambda: hlnhv_bound(BellScenario(2, 2049), Bipartition((1,), (2,)), budget=2049**4),
    lambda: lhv_bound(BellScenario(2, 2049), budget=2049**4),
    lambda: lhv_bound(BellScenario(2897, 2), budget=4**2897),
], ids=["hlnhv", "lhv-d", "lhv-n"])
def test_arrays_past_the_table_limit_refused(search):
    with pytest.raises(DenseLimitError,
                       match=r"^the search needs \d+ entries, over the 16777216 allowed$"):
        search()


def svetlichny_row(t, d):
    """The Svetlichny functional's numerator row at d = 2: a setting with t twos has
    coefficient (-1)^(t(t-1)/2) (-1)^r (Svetlichny, PRD 35, 3066 (1987))."""
    sign = (-1) ** (t * (t - 1) // 2)
    return (sign, -sign)


class TestSvetlichnyRows:
    """A second functional through the searches' one reader of the rows, checked
    against its published bounds rather than the package's own."""

    @pytest.fixture(autouse=True)
    def svetlichny(self, monkeypatch):
        monkeypatch.setattr(quditbell.bounds, "_numerator_row", svetlichny_row)

    @pytest.mark.parametrize("n", range(2, 8))
    def test_hlnhv_bound_is_the_published_one(self, n):
        # 2^(N-1) on every bipartition: Collins, Gisin, Popescu, Roberts & Scarani,
        # PRL 88, 170405 (2002)
        scen = BellScenario(n, 2)
        for part in bipartitions(n):
            bound, witness = hlnhv_bound(scen, part, budget=2 ** (2**n + 2))
            assert bound == 2 ** (n - 1)
            assert loop_strategy_bell_value(witness, scen, svetlichny_row) == bound

    @pytest.mark.parametrize("n", range(2, 8))
    def test_lhv_bound_at_most_hlnhv(self, n):
        # no published LHV value is checked here, only the order of the models
        scen = BellScenario(n, 2)
        bound, witness = lhv_bound(scen)
        assert bound <= 2 ** (n - 1)
        folded = fold_local_witness(scen, witness)
        assert loop_strategy_bell_value(folded, scen, svetlichny_row) == bound

    @pytest.mark.parametrize("n", range(3, 7))
    def test_every_quadruple_reads_two(self, n):
        scen = BellScenario(n, 2)
        for part in bipartitions(n):
            for group in build_grouping(scen, part).groups:
                assert group_deterministic_max(group, scen, part) == 2


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

    @pytest.mark.parametrize("n,d", GROUP_SIZES, ids=[f"{d}-{n}" for n, d in GROUP_SIZES])
    def test_integer_group_max_matches_fraction_brute_force(self, n, d):
        # every split, party 1 on either side
        scen = BellScenario(n, d)
        for canonical in bipartitions(n):
            for part in (canonical, Bipartition(canonical.block_b, canonical.block_a)):
                for group in build_grouping(scen, part).groups:
                    expected = fraction_group_max_by_t_counts(tuple(map(t_count, group)), d)
                    assert group_deterministic_max(group, scen, part) == expected

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
    def test_search_covers_every_point_on_any_rows(self, d, rng, monkeypatch):
        # the functional's rows peak at xa' = 0 for every quadruple, so a search that
        # skipped the other d - 1 values would still read 2 above; random rows need them all
        scen = BellScenario(4, d)
        part = Bipartition.from_block(4, (1, 3))
        for _ in range(5):
            rows = {t: tuple(int(v) for v in rng.integers(-9, 10, d)) for t in range(5)}
            monkeypatch.setattr(quditbell.bounds, "_numerator_row", lambda t, dim: rows[t])
            for group in build_grouping(scen, part).groups:
                low, mid, high = (rows[t_count(group[0]) + i] for i in range(3))
                best = min(low[(xa + zb) % d] + mid[(xa + zb2) % d] + mid[(xa2 + zb) % d]
                           + high[(xa2 + zb2) % d]
                           for xa, xa2, zb, zb2 in itertools.product(range(d), repeat=4))
                assert group_deterministic_max(group, scen, part) == Fraction(-best, d - 1)

    @pytest.mark.parametrize("part", [Bipartition((1, 4), (2, 3)), Bipartition((1,), (2, 3, 4))],
                             ids=Bipartition.describe)
    def test_partition_for_another_n_refused(self, part):
        # a 4-party split read against 3 parties: the party bits would run past the index
        with pytest.raises(ValueError, match="covers 4 parties, expected 3"):
            group_deterministic_max(("111", "112", "211", "212"), BellScenario(3, 2), part)

    def test_malformed_quadruple_rejected(self, rng):
        # parties 1,2 against 3: the well-formed quadruple of base 111 is
        # (111, 112, 211, 212); each shape below breaks one condition
        scen = BellScenario(3, 2)
        part = Bipartition.from_block(3, (1, 2))
        assert group_deterministic_max(("111", "112", "211", "212"), scen, part) == 2
        for group in [
            ("111", "121", "211", "221"),  # block B's flip moves a block-A party
            ("112", "111", "212", "212"),  # block B's flip goes from setting 2 to 1
            ("111", "112", "221", "222"),  # two parties flipped at once
            ("111", "112", "211", "222"),  # the fourth member is not both flips
        ]:
            with pytest.raises(ValueError, match="malformed"):
                group_deterministic_max(group, scen, part)
        with pytest.raises(ValueError, match="invalid setting"):
            group_deterministic_max(("111", "112", "211", "2122"), scen, part)
        # not four settings: too few, too many, or no sequence at all
        for group, written in [
            (("111", "112", "211"), "('111', '112', '211')"),
            (("111", "112", "211", "212", "212"), "('111', '112', '211', '212', '212')"),
            (None, "None"),
            (7, "7"),
        ]:
            with pytest.raises(ValueError, match=re.escape(f"malformed quadruple {written}")):
                group_deterministic_max(group, scen, part)
        # an endless group is refused after its fifth entry
        read = []
        endless = (read.append(s) or s for s in itertools.cycle(("111", "112", "211", "212")))
        with pytest.raises(ValueError, match="malformed quadruple <generator"):
            group_deterministic_max(endless, scen, part)
        assert len(read) == 5
        strategy = random_strategy(scen, part, rng)
        with pytest.raises(ValueError, match="malformed"):
            verify_group_cglmp(("111", "112", "121", "211"), strategy, scen)
