"""Partitions, Young tableaux, standard enumeration and hook-length counts.

Boxes are indexed (row, column), 1-based, English convention: row 1 is the
longest.  A tableau is a bijective filling of the diagram by 1..n.  Letter
orders: natural (1 < 2 < ... < n) or inverse (n before n-1 before ... 1).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial


@dataclass(frozen=True)
class Partition:
    """A partition of n: weakly decreasing positive parts."""

    parts: tuple[int, ...]

    def __post_init__(self):
        parts = tuple(int(p) for p in self.parts)
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if any(p < 1 for p in parts):
            raise ValueError(f"parts must be positive: {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be weakly decreasing: {parts}")

    @property
    def n(self) -> int:
        return sum(self.parts)

    @property
    def length(self) -> int:
        return len(self.parts)

    @property
    def is_trivial(self) -> bool:
        """The one-row partition (n), excluded from Specht-ideal statements."""
        return len(self.parts) == 1

    def conjugate(self) -> "Partition":
        return Partition(
            tuple(
                sum(1 for p in self.parts if p > i) for i in range(self.parts[0])
            )
        )

    @staticmethod
    def from_text(text: str) -> "Partition":
        try:
            parts = tuple(int(t) for t in text.split(","))
        except ValueError as exc:
            raise ValueError(f"cannot parse partition {text!r}") from exc
        return Partition(parts)

    def text(self) -> str:
        return ",".join(str(p) for p in self.parts)

    def __iter__(self):
        return iter(self.parts)

    def __getitem__(self, i):
        return self.parts[i]

    def __len__(self):
        return len(self.parts)

    def __str__(self):
        return f"({self.text()})"


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse-lexicographic order, (n) first."""
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")

    def gen(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield prefix
            return
        for part in range(min(cap, remaining), 0, -1):
            yield from gen(remaining - part, part, prefix + (part,))

    return [Partition(parts) for parts in gen(n, n, ())]


@dataclass(frozen=True)
class LetterOrder:
    """Total order on the letters 1..n: natural or inverse."""

    kind: str = "natural"

    def __post_init__(self):
        if self.kind not in ("natural", "inverse"):
            raise ValueError(f"unknown letter order {self.kind!r}")

    def rank(self, letter: int, n: int) -> int:
        """1-based position of the letter in this order."""
        return letter if self.kind == "natural" else n + 1 - letter

    def letter_at(self, rank: int, n: int) -> int:
        return rank if self.kind == "natural" else n + 1 - rank


NATURAL = LetterOrder("natural")
INVERSE = LetterOrder("inverse")


@dataclass(frozen=True)
class Tableau:
    """A bijective filling of a Young diagram by 1..n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(v) for v in row) for row in self.rows)
        object.__setattr__(self, "rows", rows)
        lengths = [len(r) for r in rows]
        Partition(tuple(lengths))  # validates the shape
        n = sum(lengths)
        seen = sorted(v for row in rows for v in row)
        if seen != list(range(1, n + 1)):
            raise ValueError(f"entries must be a bijection onto 1..{n}: {rows}")

    @property
    def shape(self) -> Partition:
        return Partition(tuple(len(r) for r in self.rows))

    @property
    def n(self) -> int:
        return sum(len(r) for r in self.rows)

    def columns(self) -> list[tuple[int, ...]]:
        ncols = len(self.rows[0])
        return [
            tuple(row[j] for row in self.rows if len(row) > j) for j in range(ncols)
        ]

    def is_standard(self, order: LetterOrder = NATURAL) -> bool:
        n = self.n
        rk = lambda v: order.rank(v, n)
        for row in self.rows:
            if any(rk(row[j]) >= rk(row[j + 1]) for j in range(len(row) - 1)):
                return False
        for col in self.columns():
            if any(rk(col[j]) >= rk(col[j + 1]) for j in range(len(col) - 1)):
                return False
        return True

    @staticmethod
    def from_text(text: str) -> "Tableau":
        try:
            rows = tuple(
                tuple(int(t) for t in part.split(",")) for part in text.split("/")
            )
        except ValueError as exc:
            raise ValueError(f"cannot parse tableau {text!r}") from exc
        return Tableau(rows)

    def text(self) -> str:
        return "/".join(",".join(str(v) for v in row) for row in self.rows)

    def __str__(self):
        return self.text()


def _standard_fillings(parts: tuple[int, ...]):
    """Yield row-tuples of natural-standard tableaux of the given shape."""
    n = sum(parts)
    nrows = len(parts)
    grid = [[0] * parts[i] for i in range(nrows)]
    fill = [0] * nrows  # boxes already used in each row

    def place(value: int):
        if value > n:
            yield tuple(tuple(row) for row in grid)
            return
        for i in range(nrows):
            j = fill[i]
            if j >= parts[i]:
                continue
            if i > 0 and fill[i - 1] <= j:
                continue
            grid[i][j] = value
            fill[i] += 1
            yield from place(value + 1)
            fill[i] -= 1

    yield from place(1)


def enumerate_standard_tableaux(
    shape: Partition, order: LetterOrder = NATURAL
) -> list[Tableau]:
    """All standard tableaux of the shape with respect to the letter order."""
    n = shape.n
    out = []
    for rows in _standard_fillings(shape.parts):
        if order.kind == "natural":
            out.append(Tableau(rows))
        else:
            relabeled = tuple(
                tuple(order.letter_at(v, n) for v in row) for row in rows
            )
            out.append(Tableau(relabeled))
    return out


@lru_cache(maxsize=None)
def _hook_count(parts: tuple[int, ...]) -> int:
    n = sum(parts)
    conj = Partition(parts).conjugate().parts
    product = 1
    for i, row_len in enumerate(parts):
        for j in range(row_len):
            product *= (row_len - j) + (conj[j] - i) - 1
    return factorial(n) // product


def count_standard_tableaux(shape: Partition) -> int:
    """Number of standard tableaux, by the hook length formula."""
    return _hook_count(shape.parts)

