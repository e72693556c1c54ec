"""Hidden-variable bounds by exact search over deterministic strategies.

A hybrid local-nonlocal model splits the parties into two blocks that may be
arbitrarily correlated inside but only classically across.  Every coefficient
of the Bell functional depends on the outcomes only through their sum, and
on the setting string only through its t-count t (parties on setting 2).  So
a block's behaviour collapses to one Z_d value per block setting combination,
xi_i for block A's and zeta_j for block B's, and a strategy's value is
-(1/(d-1)) * sum_ij num[t(i) + t(j)][(xi_i + zeta_j) mod d] with integer num:
the maximum is an exact rational and bound checks are equalities.

hlnhv_bound minimises that sum over the d^(2^|A| + 2^|B|) strategies by a
search over class vectors x in Z_d^(|A|+1), z in Z_d^(|B|+1), one value per
t-count, where it reads sum_ab C(|A|,a) C(|B|,b) num[a + b][(x_a + z_b) mod d].
For fixed x each z_b is an independent minimum over its d values, and
(x + c, z - c) has the same value for every c, so x_0 = 0: one numpy step
evaluates the d^|A| rows x, holding d^|A| * (|B|+1) * d partial sums.  It
returns the lexicographically least optimal strategy (xi digits in
all_setting_strings order, then zeta digits), the one a scan of every
strategy keeps:

- The least optimum is class-constant.  Given its zeta, xi_i's terms depend
  on i only through t(i), and xi_i is their first minimiser: another value
  either raises the sum or ties it, and the first minimiser would then give
  a smaller optimum.  Given its xi, the same holds for zeta.
- all_setting_strings meets the t-classes in the order 0, 1, ..., k (class a
  first appears at 1^(k-a) 2^a), so two class-constant strategies first
  differ in the least class where their class vectors differ: their order
  is the lexicographic order of (x, z).
- The least optimal (x, z) has x_0 = 0, as (x - x_0, z + x_0) is also
  optimal.  The rows are walked in lexicographic order, so the first strict
  row minimum is its x, and its z takes the first minimiser of each z_b.

lhv_bound does the same for fully local models, where party p fixes one
outcome per setting, a_p and b_p: d^(2N) strategies.  Shifting party p's two
outcomes by c_p, with sum_p c_p = 0 mod d, changes no outcome sum, so
a_1 = ... = a_(N-1) = 0.  Then a_N enters only the strings where party N
plays setting 1 and b_N only the others, so for a row (b_1, ..., b_(N-1))
each is an independent minimum, and the row's value depends only on how many
subsets of parties 1..N-1 have each size t and b-sum s mod d.  The search
counts those subsets for all C(N+d-2, d-1) sorted rows b_1 <= ... <= b_(N-1)
at once in N-1 numpy steps, and one matrix product turns the counts into
costs.  It returns the least optimum in the order (a_1, b_1, ..., a_N, b_N):

- Every gauge class has exactly one member with a_1 = ... = a_(N-1) = 0, and
  it is the class's least (party N absorbing the shifts), so the least
  optimum is the least canonical one.
- A row's value depends only on its multiset, whose least arrangement is the
  sorted one, so the least optimal row is sorted.  The sorted rows come in
  lexicographic order, so it is the first strict row minimum, followed by
  the first minimisers of a_N and b_N.

Every partial sum is at most 2^N * (d - 1) in magnitude; past int64 the
searches run on Python integers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .scenario import BellScenario, _numerator_row, all_setting_strings, t_count

DEFAULT_BUDGET = 10**8

__all__ = [
    "DEFAULT_BUDGET",
    "Bipartition",
    "BudgetExceededError",
    "DeterministicStrategy",
    "Grouping",
    "bipartitions",
    "build_grouping",
    "group_deterministic_max",
    "hlnhv_bound",
    "lhv_bound",
    "strategy_bell_value",
    "strategy_space_exponent",
]


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured strategy budget."""

    def __init__(self, dimension: int, exponent: int, budget: int):
        # d^exponent stays unexpanded and a huge budget is written as a power of
        # two: in full either can run to millions of digits, and str() of an
        # int past 4,300 digits raises
        allows = budget if abs(budget) < 10**18 else f"about 2^{round(math.log2(abs(budget)))}"
        super().__init__(
            f"enumeration needs {dimension}^{exponent} strategies, budget allows {allows}"
        )
        self.dimension, self.exponent, self.budget = dimension, exponent, budget


def strategy_space_exponent(scenario: BellScenario, partition=None) -> int:
    """Exponent e of the d^e strategies: 2^|A| + 2^|B| for a partition, else 2N (LHV)."""
    if partition is None:
        return 2 * scenario.n_parties
    return 2 ** len(partition.block_a) + 2 ** len(partition.block_b)


def _check_budget(scenario: BellScenario, partition, budget: int) -> None:
    # d^e >= 2^e exceeds every budget of fewer than e bits: refuse without forming d^e
    d, e = scenario.dimension, strategy_space_exponent(scenario, partition)
    if e > budget.bit_length() or d**e > budget:
        raise BudgetExceededError(d, e, budget)


@dataclass(frozen=True)
class Bipartition:
    """Split of parties 1..N into two non-empty blocks."""

    block_a: tuple[int, ...]
    block_b: tuple[int, ...]

    def __post_init__(self):
        a = tuple(sorted(int(p) for p in self.block_a))
        b = tuple(sorted(int(p) for p in self.block_b))
        if not a or not b:
            raise ValueError("both blocks must be non-empty")
        n = len(a) + len(b)
        if set(a) & set(b):
            raise ValueError(f"blocks overlap: {set(a) & set(b)}")
        if set(a) | set(b) != set(range(1, n + 1)):
            raise ValueError(f"blocks {a} and {b} do not partition 1..{n}")
        object.__setattr__(self, "block_a", a)
        object.__setattr__(self, "block_b", b)

    @property
    def n_parties(self) -> int:
        return len(self.block_a) + len(self.block_b)

    @classmethod
    def from_block(cls, n_parties: int, block_a) -> "Bipartition":
        block_a = tuple(sorted(int(p) for p in block_a))
        block_b = tuple(p for p in range(1, n_parties + 1) if p not in block_a)
        return cls(block_a, block_b)

    @classmethod
    def parse(cls, text: str, n_parties: int) -> "Bipartition":
        """Parse the CLI syntax '1,2/3' (1-indexed parties)."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"partition must look like '1,2/3', got {text!r}")
        try:
            blocks = [tuple(int(x) for x in part.split(",") if x) for part in parts]
        except ValueError as exc:
            raise ValueError(f"partition has non-integer parties: {text!r}") from exc
        partition = cls(blocks[0], blocks[1])
        if partition.n_parties != n_parties:
            raise ValueError(
                f"partition {text!r} covers {partition.n_parties} parties, expected {n_parties}"
            )
        return partition

    def canonical(self) -> "Bipartition":
        """Equivalent partition with party 1 in block A."""
        if 1 in self.block_a:
            return self
        return Bipartition(self.block_b, self.block_a)

    def describe(self) -> str:
        return ",".join(map(str, self.block_a)) + "/" + ",".join(map(str, self.block_b))


def bipartitions(n_parties: int):
    """All canonical bipartitions of 1..N (party 1 in block A), by block size."""
    rest = range(2, n_parties + 1)
    for size_a in range(1, n_parties):
        for extra in itertools.combinations(rest, size_a - 1):
            yield Bipartition.from_block(n_parties, (1,) + extra)


@dataclass(frozen=True)
class DeterministicStrategy:
    """Predetermined outcome sums per block setting combination.

    xi maps block A's 2^|A| setting combinations (strings over {1,2}) to a
    value in Z_d, zeta does the same for block B.
    """

    partition: Bipartition
    xi: Mapping[str, int]
    zeta: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "xi", dict(self.xi))
        object.__setattr__(self, "zeta", dict(self.zeta))

    def validate_for(self, scenario: BellScenario) -> None:
        if self.partition.n_parties != scenario.n_parties:
            raise ValueError(
                f"strategy partition covers {self.partition.n_parties} parties, "
                f"scenario has {scenario.n_parties}"
            )
        for name, mapping, block in (
            ("xi", self.xi, self.partition.block_a),
            ("zeta", self.zeta, self.partition.block_b),
        ):
            expected = all_setting_strings(len(block))
            if set(mapping) != set(expected):
                raise ValueError(f"{name} must cover exactly the combinations {expected}")
            for combo, value in mapping.items():
                if not 0 <= int(value) < scenario.dimension:
                    raise ValueError(
                        f"{name}[{combo}] = {value} outside [0, {scenario.dimension - 1}]"
                    )


def _substring(setting: str, parties: tuple[int, ...]) -> str:
    return "".join(setting[p - 1] for p in parties)


def strategy_bell_value(
    strategy: DeterministicStrategy, scenario: BellScenario
) -> Fraction:
    """Bell functional value of the delta table the strategy induces, exact."""
    strategy.validate_for(scenario)
    part, d = strategy.partition, scenario.dimension
    total = 0
    for s in all_setting_strings(scenario.n_parties):
        xi = strategy.xi[_substring(s, part.block_a)]
        zeta = strategy.zeta[_substring(s, part.block_b)]
        total += _numerator_row(t_count(s), d)[(xi + zeta) % d]
    return Fraction(-total, d - 1)


def _exact_dtype(n_parties: int, d: int):
    """int64 while every partial sum, at most 2^N * (d - 1), fits; else Python ints."""
    return np.int64 if (d - 1) << n_parties < 1 << 63 else object


def _numerator_rows(n_parties: int, d: int, dtype) -> np.ndarray:
    return np.array([_numerator_row(t, d) for t in range(n_parties + 1)], dtype=dtype)


def _min_class_sum(weights: np.ndarray) -> tuple[int, list[int], list[int]]:
    """Least sum_ab weights[a, b, (x_a + z_b) mod d] over x with x_0 = 0 and z.

    Returns the minimum and the lexicographically least (x, z) attaining it:
    the rows x go in lexicographic order, the first strict minimum is kept,
    and each z_b is its own first minimiser.
    """
    _, kb, d = weights.shape
    # shifted[a, v, b, z]: the (a, b) term when x_a = v and z_b = z
    shifted = weights[:, :, (np.arange(d)[:, None] + np.arange(d)) % d].transpose(0, 2, 1, 3)
    # sums[row, b, z]: the row's terms of class b summed, at z_b = z
    sums = shifted[0, :1]
    for block in shifted[1:]:
        sums = (sums[:, None] + block[None]).reshape(-1, kb, d)
    costs = sums.min(axis=2).sum(axis=1)
    row = int(costs.argmin())
    x = [0, *np.unravel_index(row, (d,) * (len(weights) - 1))]
    return int(costs[row]), [int(v) for v in x], [int(v) for v in sums[row].argmin(axis=1)]


def hlnhv_bound(
    scenario: BellScenario,
    partition: Bipartition,
    budget: int = DEFAULT_BUDGET,
) -> tuple[Fraction, DeterministicStrategy]:
    """Exact maximum of the Bell functional over one partition's strategies.

    Returns the maximum and its lexicographically least witness (xi digits
    in block-A combination order, then zeta digits).  The search visits
    d^|A| t-count class rows rather than every strategy and keeps the same
    witness (see the module docstring); the budget still counts the space
    it certifies, d^(2^|A|) * d^(2^|B|), and a larger one raises
    BudgetExceededError.
    """
    if partition.n_parties != scenario.n_parties:
        raise ValueError(
            f"partition covers {partition.n_parties} parties, scenario has {scenario.n_parties}"
        )
    partition = partition.canonical()
    n, d = scenario.n_parties, scenario.dimension
    _check_budget(scenario, partition, budget)

    ka, kb = len(partition.block_a), len(partition.block_b)
    dtype = _exact_dtype(n, d)
    # weights[a, b]: the numerator row of t-count a + b, once per pair of
    # block combinations with t-counts a and b
    pair_counts = np.array(
        [[math.comb(ka, a) * math.comb(kb, b) for b in range(kb + 1)] for a in range(ka + 1)],
        dtype=dtype,
    )
    t = np.arange(ka + 1)[:, None] + np.arange(kb + 1)
    weights = pair_counts[:, :, None] * _numerator_rows(n, d, dtype)[t]
    total, x, z = _min_class_sum(weights)
    witness = DeterministicStrategy(
        partition,
        {c: x[t_count(c)] for c in all_setting_strings(ka)},
        {c: z[t_count(c)] for c in all_setting_strings(kb)},
    )
    return Fraction(-total, d - 1), witness


def lhv_bound(
    scenario: BellScenario, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, tuple[tuple[int, int], ...]]:
    """Exact maximum over fully local deterministic assignments.

    Each party predetermines one outcome per setting: d^(2N) strategies.
    Returns the maximum and the lexicographically least witness as a tuple of
    (setting-1 outcome, setting-2 outcome) pairs per party.  The search fixes
    a_1 = ... = a_(N-1) = 0, visits the C(N+d-2, d-1) sorted rows
    b_1 <= ... <= b_(N-1) and minimises a_N and b_N independently per row
    (see the module docstring); the budget still counts the d^(2N)
    strategies it certifies.
    """
    n, d = scenario.n_parties, scenario.dimension
    _check_budget(scenario, None, budget)
    dtype = _exact_dtype(n, d)
    rows = np.array(list(itertools.combinations_with_replacement(range(d), n - 1)))
    m = len(rows)
    # counts[row, t, s]: subsets of parties 1..N-1 with t members whose b's
    # sum to s mod d; party p joins each subset of t - 1 members and b-sum
    # s - b_p
    counts = np.zeros((m, n, d), dtype=dtype)
    counts[:, 0, 0] = 1
    each_row, each_size = np.arange(m)[:, None, None], np.arange(n - 1)[:, None]
    for before in (np.arange(d) - rows.T[:, :, None, None]) % d:
        counts[:, 1:] += counts[each_row, each_size, before]
    # table[t, s, i * d + w]: the term of a t-subset on setting 2 with b-sum s
    # and party N on setting i + 1 with outcome w
    nums = _numerator_rows(n, d, dtype)
    cyclic = (np.arange(d)[:, None] + np.arange(d)) % d
    table = np.concatenate([nums[:-1, cyclic], nums[1:, cyclic]], axis=2)
    costs = counts.reshape(m, n * d) @ table.reshape(n * d, 2 * d)
    setting_1, setting_2 = costs[:, :d], costs[:, d:]
    totals = setting_1.min(axis=1) + setting_2.min(axis=1)
    row = int(totals.argmin())
    a_n, b_n = int(setting_1[row].argmin()), int(setting_2[row].argmin())
    witness = tuple((0, int(b)) for b in rows[row]) + ((a_n, b_n),)
    return Fraction(-int(totals[row]), d - 1), witness


@dataclass(frozen=True)
class Grouping:
    """Partition of the 2^N setting strings into CGLMP-shaped quadruples.

    Each quadruple (AB, AB', A'B, A'B') pairs a block-A setting combination
    with its flip and likewise for block B, so its t-counts run
    (k, k+1, k+1, k+2).
    """

    scenario: BellScenario
    partition: Bipartition
    groups: tuple[tuple[str, str, str, str], ...]
    multiplicities: tuple[int, ...]  # count of quadruples per base t-count k


def build_grouping(scenario: BellScenario, partition: Bipartition) -> Grouping:
    """Group the setting strings by flipping each block's first party.

    A base string has both first parties on setting 1; its quadruple flips
    block B's, then block A's, then both to setting 2.  Each flip raises a
    block's t-count by one, so the 2^(N-2) quadruples, in the order of their
    bases, cover every setting string once.
    """
    if partition.n_parties != scenario.n_parties:
        raise ValueError(
            f"partition covers {partition.n_parties} parties, scenario has {scenario.n_parties}"
        )
    n = scenario.n_parties
    a1 = partition.block_a[0] - 1
    b1 = partition.block_b[0] - 1

    def flip(s, i):
        return s[:i] + "2" + s[i + 1 :]

    groups = [
        (s, flip(s, b1), flip(s, a1), flip(flip(s, a1), b1))
        for s in all_setting_strings(n)
        if s[a1] == "1" and s[b1] == "1"
    ]
    counts = [0] * (n - 1)
    for group in groups:
        counts[t_count(group[0])] += 1
    return Grouping(scenario, partition, tuple(groups), tuple(counts))


def _group_blocks(group, partition):
    """Block combinations (base A, flipped A, base B, flipped B) of a quadruple."""
    base_a = _substring(group[0], partition.block_a)
    base_b = _substring(group[0], partition.block_b)
    flip_a = _substring(group[2], partition.block_a)
    flip_b = _substring(group[1], partition.block_b)
    if (
        _substring(group[1], partition.block_a) != base_a
        or _substring(group[2], partition.block_b) != base_b
        or _substring(group[3], partition.block_a) != flip_a
        or _substring(group[3], partition.block_b) != flip_b
        or t_count(flip_a) != t_count(base_a) + 1
        or t_count(flip_b) != t_count(base_b) + 1
    ):
        raise ValueError(f"malformed quadruple {group}")
    return base_a, flip_a, base_b, flip_b


def group_deterministic_max(
    group, scenario: BellScenario, partition: Bipartition
) -> Fraction:
    """Exact deterministic maximum of one quadruple's value.

    Only the four block values (xa, xa', zb, zb') the quadruple reads
    influence it, so minimising its integer numerator over Z_d^4 is
    exhaustive over the full strategy space.  The search uses the HLNHV
    gauge (xa = 0) and decoupling (zb and zb' are independent given xa').
    """
    d = scenario.dimension
    _group_blocks(group, partition)  # shape check
    # the quadruple's t-counts are (k, k+1, k+1, k+2)
    low, mid, high = (_numerator_row(t_count(group[0]) + i, d) for i in range(3))
    best = min(
        min(low[zb] + mid[(xa2 + zb) % d] for zb in range(d))
        + min(mid[zb2] + high[(xa2 + zb2) % d] for zb2 in range(d))
        for xa2 in range(d)
    )
    return Fraction(-best, d - 1)
