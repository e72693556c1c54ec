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
  optimal.  The rows x are walked in lexicographic order.

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
  lexicographic order.

Both searches build their terms with _table, as costs[row, class, value]
with each class's value free given the row (z_b; a_N and b_N), and _least
reads the least optimum off them: the first strict row minimum of the summed
per-class minima, then each class's first minimiser.

The searches read the functional only through _numerator_row.  Every
partial sum is at most 2^N * (d - 1) in magnitude; past int64 they run on
Python integers.  Before allocating, each refuses arrays past
DENSE_DIMENSION_LIMIT**2 entries, the limit of a probability table.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from operator import add
from typing import Mapping

import numpy as np

from .quantum import DENSE_DIMENSION_LIMIT, DenseLimitError
from .scenario import (
    BellScenario,
    _brief,
    _by_setting,
    _count,
    _exceeds,
    _is_int,
    _numerator_row,
    _numerator_rows,
    _power,
    all_setting_strings,
    setting_index,
    t_counts,
)

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
        # d^exponent stays unexpanded and each number past 18 digits is written as
        # a power of two: in full one can run to millions of digits
        super().__init__(f"enumeration needs {_power(dimension, exponent)} strategies, "
                         f"budget allows {_brief(budget)}")
        self.dimension, self.exponent, self.budget = dimension, exponent, budget


def strategy_space_exponent(scenario: BellScenario, partition=None) -> int:
    """Exponent e of the d^e strategies: 2^|A| + 2^|B| for a partition, else 2N (LHV)."""
    if partition is None:
        return 2 * scenario.n_parties
    return 2 ** len(partition.block_a) + 2 ** len(partition.block_b)


def _check_budget(scenario: BellScenario, partition, budget: int) -> None:
    budget = _count(budget, "budget", 1)
    n, d, e = scenario.n_parties, scenario.dimension, strategy_space_exponent(scenario, partition)
    if _exceeds(d, e, budget):
        raise BudgetExceededError(d, e, budget)
    # the largest array a search builds: its rows x (N-k+1) x d partial sums or subset
    # counts, or its (k+1) x d x (N-k+1) x d table; HLNHV has k = |A| and d^k rows, LHV
    # k = 1 and C(N+d-2, d-1) rows, both fewer than the d^e strategies the budget admits
    k = 1 if partition is None else len(partition.block_a)
    rows = math.comb(n + d - 2, d - 1) if partition is None else d**k
    entries = max(rows, (k + 1) * d) * (n - k + 1) * d
    if entries > DENSE_DIMENSION_LIMIT**2:
        raise DenseLimitError(f"the search needs {_brief(entries)} entries, "
                              f"over the {DENSE_DIMENSION_LIMIT**2} allowed")


@dataclass(frozen=True)
class Bipartition:
    """Split of parties 1..N into two non-empty blocks."""

    block_a: tuple[int, ...]
    block_b: tuple[int, ...]

    def __post_init__(self):
        # int() would truncate 1.5 to party 1 and read True as party 1
        for p in (*self.block_a, *self.block_b):
            if not _is_int(p):
                raise ValueError(f"parties must be integers, got {_brief(p)}")
        a, b = (tuple(sorted(map(int, block))) for block in (self.block_a, self.block_b))
        if not a or not b:
            raise ValueError("both blocks must be non-empty")
        n = len(a) + len(b)
        if set(a) & set(b):
            raise ValueError(f"blocks overlap: {_brief(set(a) & set(b))}")
        if set(a) | set(b) != set(range(1, n + 1)):
            raise ValueError(f"blocks {_brief(a)} and {_brief(b)} do not partition 1..{n}")
        object.__setattr__(self, "block_a", a)
        object.__setattr__(self, "block_b", b)

    @property
    def n_parties(self) -> int:
        return len(self.block_a) + len(self.block_b)

    def _covering(self, n_parties: int) -> "Bipartition":
        """This partition if it covers n_parties parties, else ValueError naming it."""
        if self.n_parties != n_parties:
            raise ValueError(f"partition {_brief(self.describe())} covers "
                             f"{_brief(self.n_parties)} parties, expected {_brief(n_parties)}")
        return self

    @classmethod
    def from_block(cls, n_parties: int, block_a) -> "Bipartition":
        """Block A and the rest of 1..N; the constructor checks and sorts the parties."""
        n_parties, block_a = _count(n_parties, "n_parties", 2), tuple(block_a)
        if n_parties > sys.maxsize:  # the most items a tuple can hold: refused before the walk
            raise ValueError(f"n_parties must be at most {sys.maxsize}, got {_brief(n_parties)}")
        taken = {p for p in block_a if _is_int(p)}  # the constructor refuses the rest
        block_b = tuple(p for p in range(1, n_parties + 1) if p not in taken)
        return cls(block_a, block_b)._covering(n_parties)

    @classmethod
    def parse(cls, text: str, n_parties: int) -> "Bipartition":
        """Parse the CLI syntax '1,2/3' (1-indexed parties)."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"partition must look like '1,2/3', got {_brief(text)}")
        try:
            # int() refuses an empty entry ('1,,2/3'), the constructor an empty block ('1,2/')
            blocks = [tuple(int(x) for x in part.split(",")) if part else () for part in parts]
        except ValueError as exc:
            raise ValueError(f"partition has non-integer parties: {_brief(text)}") from exc
        return cls(blocks[0], blocks[1])._covering(n_parties)

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

    def validate_for(self, scenario: BellScenario) -> tuple[np.ndarray, np.ndarray]:
        """Check the maps against the scenario; return xi and zeta as int arrays by block
        index, which reads a block combination in binary with setting 1 as 0, as a row's does."""
        part = self.partition._covering(scenario.n_parties)
        d, arrays = scenario.dimension, []
        for name, mapping, block in (("xi", self.xi, part.block_a),
                                     ("zeta", self.zeta, part.block_b)):
            values = _by_setting(mapping, len(block), name)
            for combo, v in zip(all_setting_strings(len(block)), values):
                if not (_is_int(v) and 0 <= v < d):
                    raise ValueError(f"{name}[{combo}] = {_brief(v)} outside the integers "
                                     f"0..{_brief(d - 1)}")
            arrays.append(np.array(values, dtype=np.int64))
        return arrays[0], arrays[1]


def strategy_bell_value(
    strategy: DeterministicStrategy, scenario: BellScenario
) -> Fraction:
    """Bell functional value of the delta table the strategy induces, exact: the outer
    sum over block indices i, j of num[t(i) + t(j)][(xi_i + zeta_j) mod d], over -(d - 1)."""
    xi, zeta = strategy.validate_for(scenario)
    n, d = scenario.n_parties, scenario.dimension
    t = t_counts(n).reshape(len(xi), len(zeta))  # t(i) + t(j), the joined index's popcount
    nums = _numerator_rows(n, d, _exact_dtype(n, d))
    return Fraction(-int(nums[t, (xi[:, None] + zeta) % d].sum()), d - 1)


def _exact_dtype(n_parties: int, d: int):
    """int64 while every partial sum, at most 2^N * (d - 1), fits; else Python ints."""
    return np.int64 if (d - 1) << n_parties < 1 << 63 else object


def _table(n: int, d: int, first, last: int) -> np.ndarray:
    """table[t, s, a, z] = first[t] * C(last, a) * num[t + a][(s + z) mod d], contiguous.

    Each (t, s) block is contiguous, so the sums that add blocks run on
    contiguous memory: on a fancy index's strided result they ran 2.3 times
    slower at shape (6, 2, 5).
    """
    rows = np.array([c * v for t, f in enumerate(first) for a in range(last + 1)
                     for c in [f * math.comb(last, a)] for v in _numerator_row(t + a, d)],
                    dtype=_exact_dtype(n, d)).reshape(len(first), last + 1, d)
    r = np.arange(d)  # the take reads index s + z mod d
    return np.ascontiguousarray(np.take(rows, r[:, None] + r, axis=2, mode="wrap").swapaxes(1, 2))


def _least(costs: np.ndarray) -> tuple[int, int, list[int]]:
    """The least optimum of costs[row, class, value], each class's value free given the row.

    Returns the least sum of per-class minima, the first row attaining it and each
    class's first minimiser in that row.
    """
    totals = costs.min(axis=2).sum(axis=1)
    row = int(totals.argmin())
    return int(totals[row]), row, costs[row].argmin(axis=1).tolist()


def hlnhv_bound(
    scenario: BellScenario, partition: Bipartition, budget: int = DEFAULT_BUDGET
) -> tuple[Fraction, DeterministicStrategy]:
    """Exact maximum of the Bell functional over one partition's strategies.

    Returns the maximum and its lexicographically least witness (xi digits
    in block-A combination order, then zeta digits).  The search visits
    d^|A| t-count class rows rather than every strategy and keeps the same
    witness (see the module docstring); the budget still counts the space
    it certifies, d^(2^|A|) * d^(2^|B|), and a larger one raises
    BudgetExceededError.  A search whose arrays would hold more than
    DENSE_DIMENSION_LIMIT**2 entries raises DenseLimitError before any is built.
    """
    partition = partition._covering(scenario.n_parties).canonical()
    n, d = scenario.n_parties, scenario.dimension
    _check_budget(scenario, partition, budget)
    ka, kb = len(partition.block_a), len(partition.block_b)
    # table[a, v, b, z]: the (a, b) term when x_a = v and z_b = z, once per pair of
    # block combinations with t-counts a and b; sums[row, b, z]: the row's class-b
    # terms summed, at z_b = z
    table = _table(n, d, [math.comb(ka, a) for a in range(ka + 1)], kb)
    sums = table[0, :1]
    for block in table[1:]:
        sums = (sums[:, None] + block).reshape(-1, kb + 1, d)
    total, row, z = _least(sums)
    x = [row // d**k % d for k in range(ka, -1, -1)]  # x_0 = 0, then the row's base-d digits
    xi = {c: x[c.count("2")] for c in all_setting_strings(ka)}
    zeta = {c: z[c.count("2")] for c in all_setting_strings(kb)}
    return Fraction(-total, d - 1), DeterministicStrategy(partition, xi, zeta)


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
    strategies it certifies.  Arrays past DENSE_DIMENSION_LIMIT**2 entries
    raise DenseLimitError before any is built.
    """
    n, d = scenario.n_parties, scenario.dimension
    _check_budget(scenario, None, budget)
    rows = np.array(list(itertools.combinations_with_replacement(range(d), n - 1)))
    m = len(rows)
    # counts[row, t, s]: subsets of parties 1..N-1 with t members whose b's
    # sum to s mod d; party p joins each subset of t - 1 members and b-sum
    # s - b_p
    counts = np.zeros((m, n, d), dtype=_exact_dtype(n, d))
    counts[:, 0, 0] = 1
    each_row, each_size = np.arange(m)[:, None, None], np.arange(n - 1)[:, None]
    for before in (np.arange(d) - rows.T[:, :, None, None]) % d:
        counts[:, 1:] += counts[each_row, each_size, before]
    # costs[row, i, w]: party N on setting i + 1 with outcome w; the table's [t, s, i, w]
    # is the term of a t-subset on setting 2 with b-sum s and party N so placed
    costs = counts.reshape(m, n * d) @ _table(n, d, [1] * n, 1).reshape(n * d, 2 * d)
    total, row, (a_n, b_n) = _least(costs.reshape(m, 2, d))
    return Fraction(-total, d - 1), tuple((0, int(b)) for b in rows[row]) + ((a_n, b_n),)


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

    A base index has both first parties' bits clear (setting 1); its quadruple
    sets block B's, then block A's, then both.  Each flip raises a block's
    t-count by one, so the 2^(N-2) quadruples, in the order of their bases,
    cover every setting once.  The bases are free in the other N - 2 parties,
    so C(N-2, k) of them have t-count k.
    """
    partition._covering(scenario.n_parties)
    n, strings = scenario.n_parties, all_setting_strings(scenario.n_parties)
    a, b = 1 << (n - partition.block_a[0]), 1 << (n - partition.block_b[0])
    groups = tuple(
        (strings[i], strings[i | b], strings[i | a], strings[i | a | b])
        for i in range(1 << n)
        if not i & (a | b)
    )
    return Grouping(scenario, partition, groups, tuple(math.comb(n - 2, k) for k in range(n - 1)))


def group_deterministic_max(
    group, scenario: BellScenario, partition: Bipartition
) -> Fraction:
    """Exact deterministic maximum of one quadruple's value.

    Only the four block values (xa, xa', zb, zb') the quadruple reads
    influence it, so minimising its integer numerator over Z_d^4 is
    exhaustive over the full strategy space.  The search uses the HLNHV
    gauge (xa = 0) and decoupling (zb and zb' are independent given xa'):
    each of the d values of xa' takes two (min,+) passes of a row against
    the next row rotated by xa'.
    """
    partition._covering(scenario.n_parties)
    n, d = scenario.n_parties, scenario.dimension
    try:
        settings = list(itertools.islice(group, 5))  # a fifth entry is enough to refuse
    except TypeError:  # not iterable
        settings = ()
    if len(settings) != 4:
        raise ValueError(f"malformed quadruple {_brief(group)}")
    base, flip_b, flip_a, both = [setting_index(s, n) for s in settings]
    bit_a, bit_b = flip_a ^ base, flip_b ^ base
    # each flip moves one party of its block from setting 1 to 2 (party p's bit has
    # length N + 1 - p), the fourth member both
    if not (bit_a.bit_count() == bit_b.bit_count() == 1
            and n + 1 - bit_a.bit_length() in partition.block_a
            and n + 1 - bit_b.bit_length() not in partition.block_a
            and not base & (bit_a | bit_b) and both == base | bit_a | bit_b):
        raise ValueError(f"malformed quadruple {_brief(group)}")
    # the quadruple's t-counts are (k, k+1, k+1, k+2); a doubled row's slice [x, x + d)
    # is the row rotated by x
    k = base.bit_count()
    low, mid, high = _numerator_row(k, d), _numerator_row(k + 1, d), _numerator_row(k + 2, d)
    mid2, high2 = mid + mid, high + high
    best = min(min(map(add, low, mid2[x:x + d])) + min(map(add, mid, high2[x:x + d]))
               for x in range(d))
    return Fraction(-best, d - 1)
