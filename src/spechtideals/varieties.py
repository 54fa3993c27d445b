"""Combinatorial geometry of Specht-ideal vanishing loci.

Points with a given equality pattern are encoded by set partitions of [n].
Whether such a point lies in the vanishing locus is the coloring condition:
every tableau of the shape has a column with two letters from one block.
Three decision procedures are provided: a bipartite-placement feasibility
test (dominance inequalities, with a max-flow reference), evaluation of all
Specht generators at the pattern point, and brute force over fillings; they
agree and are cross-checked in the test suite.

Minimality of partition primes is decided over one-step refinements: the
coloring condition is monotone under coarsening (merging blocks preserves
every forced collision), so failure of all one-step refinements settles
minimality.  The coloring condition reads only the block sizes, and the
size profiles of a partition's one-step refinements depend only on its own
profile, so minimality is decided once per block-size profile (p(n)
decisions) and reused for every set partition of that profile (Bell(n)).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .tableaux import Partition, enumerate_standard_tableaux


class ResourceLimitError(RuntimeError):
    """An exhaustive enumeration was refused as too large."""


class SelfCheckError(RuntimeError):
    """An internal consistency check failed: a bug, never a finding."""


_MINIMAL_PRIME_CAP = 9  # Bell(9) = 21147 partitions; beyond that, refuse


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
    """Max-flow reference for the same feasibility question."""
    import networkx as nx  # only this reference engine needs it

    total = sum(counts)
    if total != sum(capacities):
        return False
    g = nx.DiGraph()
    for i, c in enumerate(counts):
        g.add_edge("s", ("c", i), capacity=c)
        for j in range(len(capacities)):
            g.add_edge(("c", i), ("k", j), capacity=1)
    for j, cap in enumerate(capacities):
        g.add_edge(("k", j), "t", capacity=cap)
    value = nx.maximum_flow_value(g, "s", "t")
    return value == total


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


def minimal_primes(shape: Partition) -> list[SetPartition]:
    """Set partitions Pi with the coloring condition that lose it under every
    one-step refinement; these index the minimal partition primes."""
    n = shape.n
    if n > _MINIMAL_PRIME_CAP:
        raise ResourceLimitError(
            f"minimal-prime enumeration over Bell({n}) partitions is refused; "
            f"the cap is n <= {_MINIMAL_PRIME_CAP}"
        )
    minimal: dict[tuple[int, ...], bool] = {}  # block-size profile -> verdict
    out = []
    for pi in set_partitions(n):
        profile = tuple(pi.block_sizes())
        if profile not in minimal:
            minimal[profile] = (
                len(pi.blocks) < n  # the generic point: P is (0), never contains the ideal
                and condition_star(pi, shape)
                and not any(condition_star(r, shape) for r in one_step_refinements(pi))
            )
        if minimal[profile]:
            out.append(pi)
    return out


@dataclass
class PurityReport:
    shape: Partition
    height: int
    pure: bool
    heights_seen: tuple[int, ...]
    closed_form_pure: bool
    minimal_primes: list[SetPartition]

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
    """Height (min over minimal primes), purity, and the closed-form verdict
    (pure iff the next-to-last part equals the first, or the second part
    is 1)."""
    if shape.is_trivial:
        raise ValueError("the trivial shape is excluded")
    primes = minimal_primes(shape)
    heights = tuple(sorted({p.height for p in primes}))
    parts = shape.parts
    closed = parts[-2] == parts[0] or parts[1] == 1
    report = PurityReport(
        shape=shape,
        height=min(heights),
        pure=len(heights) == 1,
        heights_seen=heights,
        closed_form_pure=closed,
        minimal_primes=primes,
    )
    report.check_consistency()
    return report


def expected_minimal_primes(shape: Partition) -> list[SetPartition]:
    """The family {P_F, F of size lambda_1 + 1, padded by singletons}."""
    n = shape.n
    size = shape.parts[0] + 1
    out = []
    for members in combinations(range(1, n + 1), size):
        rest = [(v,) for v in range(1, n + 1) if v not in set(members)]
        out.append(SetPartition(n, (tuple(members),) + tuple(rest)))
    return out
