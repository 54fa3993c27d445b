"""Combinatorial geometry of Specht-ideal vanishing loci.

Points with a given equality pattern are encoded by set partitions of [n].
Whether such a point lies in the vanishing locus is the coloring condition:
every tableau of the shape has a column with two letters from one block.
Three decision procedures are provided: a bipartite-placement feasibility
test (dominance inequalities, with an augmenting-path max-flow reference),
evaluation of all Specht generators at the pattern point, and brute force
over fillings; they agree and are cross-checked in the test suite.

Minimality of partition primes is decided over one-step refinements: the
coloring condition is monotone under coarsening (merging blocks preserves
every forced collision), so failure of all one-step refinements settles
minimality.  The coloring condition reads only the block sizes, and the
size profiles of a partition's one-step refinements depend only on its own
profile, so minimality is a property of block-size profiles.  By
Gale-Ryser it reads off the partial sums of the profile and the shape, and
the minimal profiles are found by a prefix search that never enumerates
the p(n) integer partitions.  The set partitions of the minimal profiles
are then listed block by block and sorted into the order of the full
Bell(n) enumeration ``set_partitions``, which is never run.  A profile
b_1..b_k has n! / (prod b_i! prod m_j!) set partitions (m_j the
multiplicity of size j), so the length of a listing is counted profile by
profile before it starts; past ``_LISTING_CAP`` letters it is refused, at
the profile that crosses the cap.  Heights, purity and e(V), the number
of minimal primes of height lambda_1, read only the profiles and their
counts (a prime's height is n minus its number of blocks), so
``height_and_purity`` lists nothing and has no cap.  No verdict path
lists the primes either, so the cap guards only the ``minimal-primes``
command.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import factorial

from .tableaux import Partition, enumerate_standard_tableaux


class ResourceLimitError(RuntimeError):
    """An exhaustive enumeration was refused as too large."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed: a bug, never a finding."""


# Letters minimal_primes may list: primes times n.  Only the minimal-primes
# command lists them.  The listing and its CLI report cost in proportion to
# it: `minimal-primes --shape 9,9` (43,758 primes, 787,644 letters) takes
# 1.1-1.5 s and 212 MB end to end, about 0.5 s of it the listing and 0.8 s
# the report, while 3,3,3,3,3,3,3,3,3,3 (27,405 primes of 30 letters) is
# refused from the count in 0.1-0.2 s at 18 MB (Python 3.11, one CLI
# process on 2 cores).
_LISTING_CAP = 800_000


@dataclass(frozen=True)
class SetPartition:
    """A partition of {1..n} into disjoint nonempty blocks.

    Canonical form: blocks sorted by minimum, elements sorted.  The height
    of the associated partition ideal is n minus the number of blocks.
    """

    n: int
    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0]))
        object.__setattr__(self, "blocks", blocks)
        seen = sorted(v for b in blocks for v in b)
        if seen != list(range(1, self.n + 1)):
            raise ValueError(f"blocks must partition 1..{self.n}: {blocks}")

    @classmethod
    def _canonical(cls, n: int, blocks: tuple[tuple[int, ...], ...]) -> "SetPartition":
        """A partition from blocks already in canonical form, taken as they
        are: no sorting and no validation.  Only listings that build their
        blocks canonically call it; user input goes through the constructor."""
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "blocks", blocks)
        return self

    @property
    def height(self) -> int:
        return self.n - len(self.blocks)

    def block_sizes(self) -> list[int]:
        return sorted((len(b) for b in self.blocks), reverse=True)

    def block_of(self) -> dict[int, int]:
        out = {}
        for idx, b in enumerate(self.blocks):
            for v in b:
                out[v] = idx
        return out

    @staticmethod
    def from_text(text: str, n: int | None = None) -> "SetPartition":
        try:
            blocks = tuple(
                tuple(int(t) for t in part.split(",")) for part in text.split("|")
            )
        except ValueError as exc:
            raise ValueError(f"cannot parse blocks {text!r}") from exc
        total = sum(len(b) for b in blocks)
        return SetPartition(n if n is not None else total, blocks)

    def text(self) -> str:
        return "|".join(",".join(str(v) for v in b) for b in self.blocks)

    def __str__(self):
        return self.text()


def set_partitions(n: int):
    """All set partitions of [n] (restricted-growth enumeration)."""
    if n < 1:
        raise ValueError("n must be positive")

    def rec(i: int, blocks: list[list[int]]):
        if i > n:
            yield SetPartition(n, tuple(tuple(b) for b in blocks))
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    yield from rec(1, [])


def one_step_refinements(pi: SetPartition):
    """All partitions obtained by splitting one block into two nonempty parts."""
    for bi, block in enumerate(pi.blocks):
        if len(block) < 2:
            continue
        rest = [b for j, b in enumerate(pi.blocks) if j != bi]
        first = block[0]
        others = block[1:]
        for r in range(len(others) + 1):
            for keep in combinations(others, r):
                part_a = (first,) + keep
                part_b = tuple(v for v in block if v not in set(part_a))
                if not part_b:
                    continue
                yield SetPartition(pi.n, tuple(rest) + (part_a, part_b))


# ---------------------------------------------------------------------------
# The coloring condition


def placement_feasible_dominance(counts, capacities) -> bool:
    """Gale-Ryser test: can each color i be placed counts[i] times, at most
    once per column, with column j holding exactly capacities[j] boxes?"""
    counts = sorted(counts, reverse=True)
    if sum(counts) != sum(capacities):
        return False
    caps = list(capacities)
    for t in range(1, len(counts) + 1):
        if sum(counts[:t]) > sum(min(c, t) for c in caps):
            return False
    return True


def placement_feasible_flow(counts, capacities) -> bool:
    """Max-flow reference for the same feasibility question: shortest
    augmenting paths on source -> color i (capacity counts[i]) -> column j
    (capacity 1) -> sink (capacity capacities[j])."""
    total = sum(counts)
    if total != sum(capacities):
        return False
    m = len(counts)
    sink = m + len(capacities) + 1  # 0 is the source, then colors, columns
    residual = [[0] * (sink + 1) for _ in range(sink + 1)]
    for i, c in enumerate(counts, 1):
        residual[0][i] = c
        for j in range(m + 1, sink):
            residual[i][j] = 1
    for j, cap in enumerate(capacities, m + 1):
        residual[j][sink] = cap
    flow = 0
    while True:
        parent = [-1] * (sink + 1)
        parent[0] = 0
        queue = [0]
        for u in queue:  # breadth-first: the queue grows while it is read
            for v, r in enumerate(residual[u]):
                if r > 0 and parent[v] < 0:
                    parent[v] = u
                    queue.append(v)
        if parent[sink] < 0:
            return flow == total
        path, v = [], sink
        while v != 0:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        flow += push


def condition_star(pi: SetPartition, shape: Partition, engine: str = "dominance") -> bool:
    """True iff every tableau of the shape has two letters of one block in a
    common column, i.e. the pattern point lies in the vanishing locus.

    Equivalently: there is no placement of the blocks as colors on the
    diagram with all columns rainbow, decided by the chosen engine.
    """
    if pi.n != shape.n:
        raise ValueError(f"partition of {pi.n} against shape of {shape.n}")
    counts = pi.block_sizes()
    caps = list(shape.conjugate().parts)
    if engine == "dominance":
        return not placement_feasible_dominance(counts, caps)
    if engine == "flow":
        return not placement_feasible_flow(counts, caps)
    if engine == "brute":
        return not _rainbow_filling_exists(pi, shape)
    raise ValueError(f"unknown engine {engine!r}")


def _rainbow_filling_exists(pi: SetPartition, shape: Partition) -> bool:
    """Backtracking over column contents: columns must avoid block repeats."""
    block = pi.block_of()
    caps = list(shape.conjugate().parts)
    letters = list(range(1, pi.n + 1))

    def fill(col: int, remaining: frozenset) -> bool:
        if col == len(caps):
            return True
        need = caps[col]
        for chosen in combinations(sorted(remaining), need):
            if len({block[v] for v in chosen}) < need:
                continue
            if fill(col + 1, remaining - frozenset(chosen)):
                return True
        return False

    return fill(0, frozenset(letters))


def evaluation_oracle(pi: SetPartition, shape: Partition) -> bool:
    """Evaluate every standard Specht generator at the pattern point
    (block index as coordinate value); true iff all vanish.

    Standard Specht polynomials span all of them, so vanishing of the
    standard family decides membership in the vanishing locus.
    """
    if pi.n != shape.n:
        raise ValueError(f"partition of {pi.n} against shape of {shape.n}")
    block = pi.block_of()
    for t in enumerate_standard_tableaux(shape):
        value = 1
        for col in t.columns():
            for a, b in combinations(col, 2):
                value *= block[a] - block[b]
                if value == 0:
                    break
            if value == 0:
                break
        if value != 0:
            return False
    return True


# ---------------------------------------------------------------------------
# Minimal primes, heights, purity


def _minimal_profiles(shape: Partition):
    """Yield the block-size profiles whose set partitions index the minimal
    primes: mu has the coloring condition and every one-step refinement
    (one part b split into a and b - a) loses it.

    The coloring condition for mu is mu not dominated by the shape (the
    Gale-Ryser test of ``placement_feasible_dominance``), and the most
    dominant one-step refinement splits the last part b >= 2 into (b - 1, 1).
    With M_k and L_k the partial sums of mu and the shape, mu qualifies
    exactly when mu = (mu_1, ..., mu_j, 1^r) with mu_j >= 2, M_k <= L_k for
    k < j and M_j = L_j + 1.  The search extends prefixes by parts >= 2 and
    keeps a prefix only while M_j = L_j + 1 can still be reached, so every
    prefix it visits leads to a profile it yields.
    """
    n, rows = shape.n, shape.parts
    last = len(rows) - 1  # M_j = L_j + 1 <= n needs j < len(rows)

    def reachable(k, gap, m):
        # parts of size m close the gap L - M fastest; where one would
        # overshoot, a smaller part lands on L_j + 1 exactly
        for lam in rows[k:last]:
            gap += lam - m
            if gap < 0:
                return True
        return False

    def search(prefix, gap, m):
        k = len(prefix)
        if k == last:
            return
        top = gap + rows[k] + 1  # the next part with M = L + 1
        if top <= m:
            yield prefix + (top,) + (1,) * (n - sum(prefix) - top)
        for p in range(min(m, top - 1), 1, -1):
            if not reachable(k + 1, gap + rows[k] - p, p):
                break  # a smaller part reaches less
            yield from search(prefix + (p,), gap + rows[k] - p, p)

    yield from search((), 0, n)


def _profile_count(profile) -> int:
    """Number of set partitions of [n] with the given block sizes:
    n! / (prod b_i! prod m_k!), m_k the multiplicity of size k."""
    out = factorial(sum(profile))
    for b in profile:
        out //= factorial(b)
    for m in Counter(profile).values():
        out //= factorial(m)
    return out


def _profile_listing(n: int, profiles) -> list[SetPartition]:
    """The set partitions of [n] whose block sizes form one of the profiles,
    in the order of ``set_partitions``.

    Each profile is listed block by block: the least letter not yet placed
    opens the next block and takes its other letters from the letters after
    it, so every set partition of the profile comes once, its blocks in
    canonical order; once only singletons are left they close it at once.
    ``set_partitions`` lists in lexicographic order of the restricted-growth
    word (letter i -> the index of its block), so the listing is sorted by
    that word.
    """
    found: list[list[tuple[int, ...]]] = []

    def rec(rest, sizes, blocks):
        if not sizes or sizes[0] == 1:  # sizes stay sorted descending
            found.append(blocks + [(v,) for v in rest])
            return
        first, others = rest[0], rest[1:]
        for s in sorted(set(sizes), reverse=True):
            left = list(sizes)
            left.remove(s)
            for mates in combinations(others, s - 1):
                taken = set(mates)
                rec([v for v in others if v not in taken], left, blocks + [(first, *mates)])

    for t in profiles:
        rec(list(range(1, n + 1)), sorted(t, reverse=True), [])

    def growth_word(blocks):
        word = [0] * n
        for index, block in enumerate(blocks):
            for v in block:
                word[v - 1] = index
        return word

    found.sort(key=growth_word)
    return [SetPartition._canonical(n, tuple(blocks)) for blocks in found]


def minimal_primes(shape: Partition) -> list[SetPartition]:
    """Set partitions Pi with the coloring condition that lose it under every
    one-step refinement; these index the minimal partition primes.

    Listed profile by profile (module docstring); a listing longer than
    ``_LISTING_CAP`` letters is refused from the closed-form count, before
    it starts.
    """
    profiles, count = [], 0
    for mu in _minimal_profiles(shape):
        profiles.append(mu)
        count += _profile_count(mu)
        if count * shape.n > _LISTING_CAP:
            raise ResourceLimitError(
                f"the minimal primes of {shape} run past {_LISTING_CAP} letters "
                f"(primes times n); listing them is refused"
            )
    return _profile_listing(shape.n, profiles)


@dataclass
class PurityReport:
    shape: Partition
    height: int
    pure: bool
    heights_seen: tuple[int, ...]
    closed_form_pure: bool
    top_primes: int  # e(V): the minimal primes of height lambda_1

    def check_consistency(self) -> None:
        if self.pure != self.closed_form_pure:
            raise SelfCheckError(
                f"purity verdict {self.pure} disagrees with the closed form "
                f"for {self.shape}"
            )
        if self.height != self.shape.parts[0]:
            raise SelfCheckError(
                f"height {self.height} != lambda_1 for {self.shape}"
            )


def height_and_purity(shape: Partition) -> PurityReport:
    """Height (min over minimal primes), purity, e(V), and the closed-form
    verdict (pure iff the next-to-last part equals the first, or the second
    part is 1), read off the minimal profiles and their counts."""
    if shape.is_trivial:
        raise ValueError("the trivial shape is excluded")
    primes_of_height: Counter = Counter()
    for mu in _minimal_profiles(shape):
        primes_of_height[shape.n - len(mu)] += _profile_count(mu)
    heights = tuple(sorted(primes_of_height))
    parts = shape.parts
    report = PurityReport(
        shape=shape,
        height=heights[0],
        pure=len(heights) == 1,
        heights_seen=heights,
        closed_form_pure=parts[-2] == parts[0] or parts[1] == 1,
        top_primes=primes_of_height[parts[0]],
    )
    report.check_consistency()
    return report


def expected_minimal_primes(shape: Partition) -> list[SetPartition]:
    """The family {P_F, F of size lambda_1 + 1, padded by singletons}.

    These are the minimal primes of I^Sp_lambda only when every row but the
    last has length lambda_1, as for (a,b), (a,a,1) and (a,1); the tests
    use it for those shapes.  Other shapes differ, hooks with a leg of 2 or
    more among them: (4,1,1) has 31 top primes, not these 6."""
    n = shape.n
    size = shape.parts[0] + 1
    out = []
    for members in combinations(range(1, n + 1), size):
        rest = [(v,) for v in range(1, n + 1) if v not in set(members)]
        out.append(SetPartition(n, (tuple(members),) + tuple(rest)))
    return out
