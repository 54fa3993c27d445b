"""Graded Betti numbers of R/I via Koszul homology, and CM/Gorenstein verdicts.

beta_{i,j} is the degree-j dimension of the i-th homology of the Koszul
complex on all variables tensored with R/I.  When every generator of I is a
polynomial in the differences x_i - x_n, the last variable is a regular
element on R/I and the computation drops to the specialization in one
fewer variable with the same Betti table; the reduction repeats while it
applies, which keeps the worked fixtures small.

Characteristic zero is computed over the two large primes of
``fields.PROXY_PRIMES``, whose tables must agree (a disagreement raises,
never resolves silently); an exact-rational run is available behind a flag.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import combinations
from math import comb

from .fields import PROXY_PRIMES, Field, QQ, field_of
from .ideals import GeneratedIdeal, Ideal, QuotientRing, specht_ideal
from .linalg import Echelon, add_scaled
from .specht import specht_poly_degree
from .tableaux import Partition
from .varieties import ResourceLimitError

_DEFAULT_COLUMN_CAP = 20_000


class ProxyDisagreement(RuntimeError):
    """The two large-prime proxies produced different Betti tables."""


@dataclass
class BettiTable:
    """Graded Betti numbers beta_{i,j} of R/I up to internal degree j_max."""

    n: int
    characteristic: int
    entries: dict[tuple[int, int], int]
    j_max: int
    reduced_to: int = 0  # variables left after regular-element reduction

    @property
    def pd(self) -> int:
        return max((i for (i, _) in self.entries), default=0)

    @property
    def closed_off(self) -> bool:
        """No entry sits on the top computed degree, so the strands ended."""
        return all(j < self.j_max for (_, j) in self.entries)

    def totals(self) -> list[int]:
        out = [0] * (self.pd + 1)
        for (i, _), v in self.entries.items():
            out[i] += v
        return out

    def entry(self, i: int, j: int) -> int:
        return self.entries.get((i, j), 0)

    def max_row(self) -> int:
        return max((j - i for (i, j) in self.entries), default=0)

    def m2_lines(self) -> list[str]:
        """The Macaulay2-style diagram: rows are j - i, columns are i."""
        pd = self.pd
        rows = self.max_row()
        cells = [["." for _ in range(pd + 1)] for _ in range(rows + 1)]
        for (i, j), v in self.entries.items():
            cells[j - i][i] = str(v)
        totals = [str(t) for t in self.totals()]
        widths = [
            max(len(totals[i]), max(len(cells[r][i]) for r in range(rows + 1)))
            for i in range(pd + 1)
        ]
        lines = [
            "total: " + " ".join(t.rjust(w) for t, w in zip(totals, widths))
        ]
        for r in range(rows + 1):
            body = " ".join(cells[r][i].rjust(widths[i]) for i in range(pd + 1))
            lines.append(f"{str(r).rjust(5)}: {body}")
        return lines

    def to_jsonable(self) -> dict:
        return {
            "n": self.n,
            "characteristic": self.characteristic,
            "j_max": self.j_max,
            "closed_off": self.closed_off,
            "entries": [
                {"i": i, "j": j, "beta": v}
                for (i, j), v in sorted(self.entries.items())
            ],
            "totals": self.totals(),
        }


def _reduce_while_invariant(ideal: Ideal) -> Ideal:
    current = ideal
    while isinstance(current, GeneratedIdeal):
        red = current._translation_reduction()
        if red is None:
            break
        current = red
    return current


def koszul_betti(
    ideal: Ideal,
    j_max: int,
    max_columns: int = _DEFAULT_COLUMN_CAP,
) -> BettiTable:
    """Betti table of R/I for internal degrees <= j_max.

    ``max_columns`` caps the Koszul matrices; exceeding it raises a
    ResourceLimitError rather than grinding.
    """
    original_n = ideal.nvars
    work = _reduce_while_invariant(ideal)
    m = work.nvars
    q = QuotientRing(work)
    qdim = [q.quotient_dim(t) for t in range(j_max + 1)]

    def chain_dim(i: int, j: int) -> int:
        t = j - i
        if i < 0 or i > m or t < 0 or t > j_max:
            return 0
        return comb(m, i) * qdim[t]

    subsets = {i: list(combinations(range(m), i)) for i in range(m + 1)}
    subset_pos = {i: {s: p for p, s in enumerate(subsets[i])} for i in range(m + 1)}

    ranks: dict[tuple[int, int], int] = {}
    for j in range(j_max + 1):
        for i in range(1, min(m, j) + 1):
            rows_dim = chain_dim(i, j)
            cols_dim = chain_dim(i - 1, j)
            if rows_dim == 0 or cols_dim == 0:
                ranks[(i, j)] = 0
                continue
            if cols_dim > max_columns:
                raise ResourceLimitError(
                    f"Koszul matrix at (i={i}, j={j}) has {cols_dim} columns; "
                    f"cap is {max_columns}"
                )
            t = j - i
            tgt_block = qdim[t + 1]
            ech = Echelon(work.field)
            maps = [q.mult_map(s, t) for s in range(m)]
            for S in subsets[i]:
                smaller = [
                    (-1 if pos % 2 else 1, subset_pos[i - 1][S[:pos] + S[pos + 1 :]], s)
                    for pos, s in enumerate(S)
                ]
                for src in range(qdim[t]):
                    row: dict = {}
                    for sign, s_idx, s in smaller:
                        add_scaled(row, sign, maps[s][src], ech.p, s_idx * tgt_block)
                    ech.insert(row)
            ranks[(i, j)] = ech.rank

    entries: dict[tuple[int, int], int] = {}
    for j in range(j_max + 1):
        for i in range(0, min(m, j) + 1):
            beta = (
                chain_dim(i, j)
                - ranks.get((i, j), 0)
                - ranks.get((i + 1, j), 0)
            )
            if beta < 0:
                raise AssertionError(f"negative Betti number at {(i, j)}")
            if beta:
                entries[(i, j)] = beta
    return BettiTable(
        n=original_n,
        characteristic=work.field.characteristic,
        entries=entries,
        j_max=j_max,
        reduced_to=m,
    )


@dataclass
class CmVerdict:
    """Projective dimension, depth, dimension, and CM/Gorenstein flags."""

    shape: Partition
    characteristic: int
    pd: int
    depth: int
    dim: int
    is_cm: bool
    is_gorenstein: bool
    table: BettiTable
    proxy_primes: tuple[int, ...] = ()
    trace: list[str] = dc_field(default_factory=list)


def default_j_max(shape: Partition) -> int:
    return specht_poly_degree(shape) + (shape.n - shape.parts[0]) + 3


def resolve_j_max(shape: Partition, j_max: int | None) -> int:
    """The Koszul degree bound for the shape: ``default_j_max`` when None.

    A bound below the generator degree sees no generator, so its table
    would describe R itself; it is refused rather than reported.
    """
    if j_max is None:
        return default_j_max(shape)
    degree = specht_poly_degree(shape)
    if j_max < degree:
        raise ValueError(
            f"j_max={j_max} is below the generator degree {degree} of {shape}"
        )
    return j_max


def cm_verdict(
    shape: Partition,
    characteristic: int,
    j_max: int | None = None,
    exact_rational: bool = False,
) -> CmVerdict:
    """CM and Gorenstein verdicts from the Betti table.

    depth is defined as n - pd (graded Auslander-Buchsbaum); dim R/I is
    n - lambda_1 (the height theorem); CM is their equality; Gorenstein is
    CM with final total Betti number 1.  Characteristic 0 runs over two
    large primes that must agree; set ``exact_rational`` to also run the
    fraction-free rational computation and compare.
    """
    if shape.is_trivial:
        raise ValueError("the trivial shape is excluded")
    n = shape.n
    jm = resolve_j_max(shape, j_max)
    trace: list[str] = []

    def table_over(fld: Field) -> BettiTable:
        ideal = specht_ideal(shape, fld)
        bound = jm
        for _ in range(3):
            table = koszul_betti(ideal, bound)
            if table.closed_off:
                return table
            bound += 2
            trace.append(f"extending j_max to {bound} (strand not closed)")
        raise ResourceLimitError(
            f"Betti strands of {shape} not closed off by j_max={bound}"
        )

    if characteristic == 0:
        tables = [table_over(field_of(p)) for p in PROXY_PRIMES]
        if tables[0].entries != tables[1].entries:
            raise ProxyDisagreement(
                f"proxy primes {PROXY_PRIMES} disagree for {shape}: "
                f"{tables[0].entries} vs {tables[1].entries}"
            )
        if exact_rational:
            exact = table_over(QQ)
            if exact.entries != tables[0].entries:
                raise ProxyDisagreement(
                    f"rational table disagrees with proxies for {shape}"
                )
            trace.append("exact rational table agrees with both proxies")
        table = tables[0]
        proxy = PROXY_PRIMES
    else:
        table = table_over(field_of(characteristic))
        proxy = ()

    pd = table.pd
    depth = n - pd
    dim = n - shape.parts[0]
    is_cm = depth == dim
    totals = table.totals()
    is_gorenstein = is_cm and totals[-1] == 1
    return CmVerdict(
        shape=shape,
        characteristic=characteristic,
        pd=pd,
        depth=depth,
        dim=dim,
        is_cm=is_cm,
        is_gorenstein=is_gorenstein,
        table=table,
        proxy_primes=proxy,
        trace=trace,
    )
