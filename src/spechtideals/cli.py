"""Command-line frontend: verdict commands with JSON/markdown/m2 reports.

Exit codes: 0 verdict-true or success, 1 verdict-false (a finding, not an
error), 2 usage error, 3 resource cap, 4 internal error (a failed
self-check such as disagreeing proxy primes; never a finding).  A reader
that closes the pipe early (``specht gens ... | head``) does not change
the code: the command's own exit code is returned and no traceback is
printed.  Reports are deterministic for a fixed configuration:
``timing_ms`` stays null unless --timing is given, so byte-identical
reruns are the default.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time
from dataclasses import dataclass, field as dc_field, replace
from json.encoder import encode_basestring_ascii as _escape
from math import comb

from . import __version__
from .fields import PROXY_PRIMES, field_of
from .betti import (
    Certificate,
    agreed_table,
    artinian_field,
    artinian_reduction,
    cm_verdict,
    koszul_betti,
    koszul_bounds,
    radical_by_length,
    resolve_j_max,
)
from .ideals import (
    IntersectionInk,
    SquarefreeDegreeIdeal,
    equal_up_to_degree,
    hilbert_function,
    mult_injective,
    series_expand,
    socle,
    specht_ideal,
    sum_ideal,
)
from .poly import Polynomial, dim_degree
from .specht import (
    independence_rank,
    specht_poly,
    straighten_quasi_h,
    tableau_to_class,
)
from .tableaux import INVERSE, NATURAL, Partition, Tableau, count_standard_tableaux, enumerate_standard_tableaux
from .varieties import (
    ResourceLimitError,
    SelfCheckError,
    SetPartition,
    condition_star,
    height_and_purity,
    minimal_primes,
)

SCHEMA_VERSION = 1


# -- JSON text ------------------------------------------------------------------
#
# ``json.dumps(obj, sort_keys=True, indent=2)`` falls back to json's
# pure-Python generator encoder whenever an indent is given, and rendering
# then costs more than the mathematics of a large listing.  ``_json_text``
# writes the same text, byte for byte, in one recursive pass into a list,
# with json's C string escaper: separators "," and ": ", the items of a
# dict sorted before their keys are converted, int, float, bool and None
# keys, ``float.__repr__`` with NaN and Infinity, tuples written as lists,
# and a TypeError for any other type.

_INF = float("inf")


def _json_text(obj) -> str:
    """``json.dumps(obj, sort_keys=True, indent=2)``, byte for byte."""
    out: list[str] = []
    _emit(obj, out, "\n")
    return "".join(out)


def _emit(obj, out: list, nl: str) -> None:
    # strings and exact ints, most of a report, are written inline
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, v in sorted(obj.items()):
            head = sep + _escape(key if type(key) is str else _key_text(key)) + ": "
            if type(v) is str:
                out.append(head + _escape(v))
            elif type(v) is int:
                out.append(head + int.__repr__(v))
            else:
                out.append(head)
                _emit(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in obj:
            if type(v) is int:
                out.append(sep + int.__repr__(v))
            elif type(v) is str:
                out.append(sep + _escape(v))
            else:
                out.append(sep)
                _emit(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    else:
        out.append(_scalar_text(obj))


def _scalar_text(obj) -> str:
    if isinstance(obj, str):
        return _escape(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if obj != obj:
            return "NaN"
        if obj in (_INF, -_INF):
            return "Infinity" if obj > 0 else "-Infinity"
        return float.__repr__(obj)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _key_text(key) -> str:
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):  # bool is an int
        return _scalar_text(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


@dataclass
class RunConfig:
    command: str
    shape: str | None = None
    characteristic: int = 0
    max_degree: int | None = None
    output_format: str = "json"
    extras: dict = dc_field(default_factory=dict)

    def to_jsonable(self) -> dict:
        out = {
            "command": self.command,
            "characteristic": self.characteristic,
            "format": self.output_format,
        }
        if self.shape is not None:
            out["shape"] = self.shape
        if self.max_degree is not None:
            out["max_degree"] = self.max_degree
        out.update(self.extras)
        return out


@dataclass
class Report:
    command: str
    config: RunConfig
    verdicts: list = dc_field(default_factory=list)
    tables: dict = dc_field(default_factory=dict)
    timing_ms: int | None = None

    def add(self, name: str, value, provenance: str) -> None:
        self.verdicts.append(
            {"name": name, "value": value, "provenance": provenance}
        )

    def to_jsonable(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "version": __version__,
            "command": self.command,
            "config": self.config.to_jsonable(),
            "verdicts": self.verdicts,
            "tables": self.tables,
            "timing_ms": self.timing_ms,
        }

    def render(self, fmt: str) -> str:
        if fmt == "json":
            return _json_text(self.to_jsonable())
        if fmt == "md":
            return self._render_md()
        if fmt == "m2":
            lines = self.tables.get("betti_diagram")
            if lines is None and self.command in ("betti", "cm-check"):
                # a refused or failed run has no diagram: its verdict stands in
                lines = [
                    f"{v['name']}: {v['value']}" for v in self.verdicts
                    if v["name"] in ("resource_cap", "internal_error")
                ]
            if not lines:
                raise ValueError("m2 format applies to betti/cm-check reports")
            return "\n".join(lines)
        raise ValueError(f"unknown format {fmt!r}")

    def _render_md(self) -> str:
        lines = [f"# {self.command}", ""]
        cfg = self.config.to_jsonable()
        lines.append("| option | value |")
        lines.append("| --- | --- |")
        for k in sorted(cfg):
            lines.append(f"| {k} | {cfg[k]} |")
        lines.append("")
        lines.append("| verdict | value | provenance |")
        lines.append("| --- | --- | --- |")
        for v in self.verdicts:
            lines.append(f"| {v['name']} | {v['value']} | {v['provenance']} |")
        for name, table in sorted(self.tables.items()):
            lines.append("")
            lines.append(f"## {name}")
            if isinstance(table, list) and table and isinstance(table[0], str):
                lines.append("```")
                lines.extend(table)
                lines.append("```")
            else:
                lines.append("```json")
                lines.append(_json_text(table))
                lines.append("```")
        return "\n".join(lines)


@functools.cache  # one parser per process: building it costs more than a small query
def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="specht",
        description="Exact verification toolkit for Specht ideals",
    )
    top.add_argument("--version", action="version", version=__version__)
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, shape=True, char=True, maxdeg=False):
        if shape:
            p.add_argument("--shape", required=True, help="partition, e.g. 3,3")
        if char:
            p.add_argument("--char", type=int, default=0, help="0 or a prime")
        if maxdeg:
            p.add_argument("--max-deg", type=int, default=None)
        p.add_argument("--format", choices=("json", "md", "m2"), default="json")
        p.add_argument("--timing", action="store_true", help="include timings (breaks byte-identical reruns)")

    p = sub.add_parser("gens", help="standard Specht generators")
    common(p)
    p.add_argument("--order", choices=("natural", "inverse"), default="natural")

    p = sub.add_parser("hilbert", help="Hilbert function of R/I^Sp")
    common(p, maxdeg=True)

    p = sub.add_parser("radical-check", help="I^Sp vs I_{n,l1+1} up to a degree")
    common(p, maxdeg=True)

    p = sub.add_parser("minimal-primes", help="minimal partition primes")
    common(p, char=False)

    p = sub.add_parser("purity", help="height and purity verdict")
    common(p, char=False)

    p = sub.add_parser("betti", help="Koszul Betti table")
    common(p, maxdeg=True)

    p = sub.add_parser("cm-check", help="Cohen-Macaulay / Gorenstein verdict")
    common(p, maxdeg=True)
    p.add_argument(
        "--exact-rational", action="store_true",
        help="also compute the table over QQ and compare it (characteristic 0 only)",
    )

    p = sub.add_parser("catalan", help="Catalan generator counts")
    common(p, shape=False, char=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("straighten", help="straighten a two-row tableau")
    common(p, shape=False)
    p.add_argument("--tableau", required=True, help="rows, e.g. 1,4,5/3,6")
    p.add_argument("--prefix", type=int, default=0, help="prefix length k")

    p = sub.add_parser("condition-star", help="vanishing-locus membership of a pattern point")
    common(p, char=False)
    p.add_argument("--blocks", required=True, help='e.g. "1,2,3|4,5|6"')
    p.add_argument("--engine", choices=("dominance", "flow", "brute"), default="dominance")

    p = sub.add_parser("socle-probe", help="socle and e1-injectivity of S/(I^Sp_mu + I_<m>)")
    common(p, maxdeg=False)
    p.add_argument("--squarefree-deg", type=int, default=3)
    p.add_argument("--deg", type=int, default=2)

    p = sub.add_parser("experiment", help="CM verdicts over small primes vs the characteristic conjecture")
    common(p, shape=False, char=False)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--primes", default="2,3,5", help="comma-separated primes")
    return top


# -- command bodies -------------------------------------------------------------


def _cmd_gens(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    fld = field_of(args.char)
    order = NATURAL if args.order == "natural" else INVERSE
    tabs = enumerate_standard_tableaux(shape, order)
    rows = [{"tableau": t.text(), "polynomial": str(specht_poly(t, fld))} for t in tabs]
    expected = count_standard_tableaux(shape)
    report.tables["generators"] = rows
    report.add(
        "generator_count_matches_hook_formula",
        len(tabs) == expected,
        f"tableaux.count_standard_tableaux({shape})",
    )
    report.add("generator_count", len(tabs), f"tableaux.enumerate_standard_tableaux({shape}, {args.order})")
    return 0 if len(tabs) == expected else 1


def _cmd_hilbert(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    fld = field_of(args.char)
    d_max = args.max_deg if args.max_deg is not None else shape.parts[0] + 4
    if d_max < 0:
        raise ValueError(f"--max-deg must be nonnegative, got {d_max}")
    ideal = specht_ideal(shape, fld)
    dims = hilbert_function(ideal, d_max)
    report.tables["hilbert_function"] = dims
    provenance = f"ideals.hilbert_function(I^Sp_{shape}, {d_max}, char={args.char})"
    report.add("hilbert_function_computed", True, provenance)
    if len(shape.parts) == 2 and shape.parts[1] == 2:
        n = shape.n
        expected = series_expand([1, n - 2, 1], 2, d_max)
        ok = dims == expected
        report.tables["expected_series_expansion"] = expected
        report.add(
            "matches_two_row_series",
            ok,
            f"ideals.series_expand((1+(n-2)t+t^2)/(1-t)^2, n={n})",
        )
        return 0 if ok else 1
    return 0


def _cmd_radical_check(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    if shape.is_trivial:  # I^Sp is R itself, and k = n + 1 exceeds n
        raise ValueError("the trivial shape is excluded")
    fld = field_of(args.char)
    d_bound = args.max_deg if args.max_deg is not None else shape.parts[0] + 4
    if d_bound < 0:
        raise ValueError(f"--max-deg must be nonnegative, got {d_bound}")
    n, k = shape.n, shape.parts[0] + 1
    cert = radical_by_length(shape, args.char)
    if cert is not None:
        # both ideals have Hilbert series h(t) / (1 - t)^(n - lambda_1)
        series = series_expand(cert.h_vector, n - k + 1, d_bound)
        dims = [dim_degree(n, d) - v for d, v in enumerate(series)]
        report.tables["component_dimensions"] = {"specht": dims, "intersection": dims}
        report.add("equal_up_to_degree", True, cert.provenance)
        report.add("equal_in_every_degree", True, cert.provenance)
        report.tables["certificate"] = cert.to_jsonable()
        return 0
    rep = equal_up_to_degree(shape, fld, d_bound)
    report.tables["component_dimensions"] = {
        "specht": rep.dims_left,
        "intersection": rep.dims_right,
    }
    provenance = (
        f"ideals.equal_up_to_degree(I^Sp_{shape}, I_{{{n},{k}}}, "
        f"D={d_bound}, char={args.char})"
    )
    report.add("equal_up_to_degree", rep.equal, provenance)
    if not rep.equal:
        report.add("first_disagreeing_degree", rep.first_disagreement, provenance)
        report.add("separating_polynomial", str(rep.separating), provenance)
        report.add("equal_in_every_degree", False, provenance)
    kind = "bounded-degree" if rep.equal else "separating-polynomial"
    report.tables["certificate"] = Certificate(kind, provenance, (repr(fld),), d_bound).to_jsonable()
    return 0 if rep.equal else 1


def _cmd_minimal_primes(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    primes = minimal_primes(shape)
    # the blocks stay tuples: the report writes them as lists
    report.tables["minimal_primes"] = [{"blocks": p.blocks, "height": p.height} for p in primes]
    report.add(
        "minimal_prime_count",
        len(primes),
        f"varieties.minimal_primes({shape})",
    )
    return 0


def _cmd_purity(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    rep = height_and_purity(shape)
    provenance = f"varieties.height_and_purity({shape})"
    report.add("height", rep.height, provenance)
    report.add("pure", rep.pure, provenance)
    report.add("closed_form_pure", rep.closed_form_pure, provenance)
    report.tables["heights_seen"] = list(rep.heights_seen)
    return 0 if rep.pure else 1


def _cmd_betti(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    if shape.is_trivial:  # I^Sp is R itself, in every characteristic
        raise ValueError("the trivial shape is excluded")
    jm = resolve_j_max(shape, args.max_deg)
    # the complete table, when the Artinian reduction proves it, read up to
    # the bound; in characteristic 0 over both proxy primes, which must
    # agree, and up to the first bound of the Koszul path's extension that
    # closes it off
    if args.char == 0:
        fields, bounds = [field_of(p) for p in PROXY_PRIMES], koszul_bounds(jm)
    else:
        fields, bounds = [artinian_field(shape, args.char)], (jm,)
    certified, _ = artinian_reduction(shape, fields)
    over = " and ".join(map(str, fields))
    if certified is not None:
        cuts = [agreed_table(shape, fields, certified).up_to(b) for b in bounds]
        table = next((cut for cut in cuts if cut.closed_off), cuts[-1])
        source = agree = f"betti.artinian_reduction({shape}) over {over}, j<= {table.j_max}"
    elif args.char == 0:
        table = cm_verdict(shape, 0, j_max=jm).table
        source = f"betti.koszul_betti(I^Sp_{shape}, j_max={table.j_max}, char=0)"
        agree = f"betti.cm_verdict over {over}, j<= {table.j_max}"
    else:
        table = koszul_betti(specht_ideal(shape, field_of(args.char)), jm)
        source = f"betti.koszul_betti(I^Sp_{shape}, j_max={jm}, char={args.char})"
    table = replace(table, characteristic=args.char)
    if args.char == 0:
        report.add("proxy_primes_agree", True, agree)
    report.tables["betti"] = table.to_jsonable()
    report.tables["betti_diagram"] = table.m2_lines()
    report.add("top_strand_closed_off", table.closed_off, source)
    return 0


def _cmd_cm_check(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    verdict = cm_verdict(
        shape, args.char, j_max=args.max_deg, exact_rational=args.exact_rational
    )
    provenance = f"betti.cm_verdict({shape}, char={args.char})"
    report.add("pd", verdict.pd, provenance)
    report.add("depth", verdict.depth, provenance)
    report.add("dim", verdict.dim, provenance)
    report.add("is_cm", verdict.is_cm, provenance)
    report.add("is_gorenstein", verdict.is_gorenstein, provenance)
    cert = verdict.certificate
    report.add("certificate", cert.kind, cert.provenance)
    report.tables["certificate"] = cert.to_jsonable()
    report.tables["betti"] = verdict.table.to_jsonable()
    report.tables["betti_diagram"] = verdict.table.m2_lines()
    return 0 if verdict.is_cm else 1


def _cmd_catalan(args, report: Report) -> int:
    n = args.n
    if n < 1:
        raise ValueError("--n must be positive")
    cn = comb(2 * n + 1, n) // (2 * n + 1)
    fld = field_of(args.char)
    r_even = independence_rank(Partition((n, n)), fld)
    r_odd = independence_rank(Partition((n, n - 1)), fld) if n >= 2 else 1
    report.add("catalan_number", cn, "C_n = binom(2n+1, n) / (2n+1)")
    report.add(
        "rank_shape_n_n",
        r_even,
        f"specht.independence_rank(({n},{n}), char={args.char})",
    )
    report.add(
        "rank_shape_n_n_minus_1",
        r_odd,
        f"specht.independence_rank(({n},{n - 1}), char={args.char})",
    )
    ok = r_even == cn and r_odd == cn
    if n <= 5:
        ink = IntersectionInk(2 * n, n + 1, fld)
        dims = [ink.dim(d) for d in range(n + 1)]
        mu = dims[n]
        report.add(
            "minimal_generators_I_2n_n1",
            mu,
            f"ideals.IntersectionInk.dim(I_{{{2 * n},{n + 1}}}, d <= {n}, char={args.char})",
        )
        report.tables["intersection_dims"] = dims
        ok = ok and mu == cn and all(v == 0 for v in dims[:n])
    return 0 if ok else 1


def _cmd_straighten(args, report: Report) -> int:
    t = Tableau.from_text(args.tableau)
    fld = field_of(args.char)
    cls, sign = tableau_to_class(t)
    out = straighten_quasi_h(cls, args.prefix)
    rec = Polynomial.zero(cls.nvars, fld)
    for c, ocls in out:
        rec = rec + ocls.f(fld).scale(c)
    ok = rec == cls.f(fld)
    report.tables["combination"] = [
        {"coefficient": c, "class": ocls.text()} for c, ocls in out
    ]
    report.add("input_class", cls.text(), "specht.tableau_to_class")
    report.add("normalization_sign", sign, "specht.tableau_to_class")
    report.add(
        "identity_verified",
        ok,
        f"specht.straighten_quasi_h(k={args.prefix}, char={args.char})",
    )
    return 0 if ok else 1


def _cmd_condition_star(args, report: Report) -> int:
    shape = Partition.from_text(args.shape)
    pi = SetPartition.from_text(args.blocks, shape.n)
    value = condition_star(pi, shape, args.engine)
    report.add(
        "condition_star",
        value,
        f"varieties.condition_star({pi}, {shape}, engine={args.engine})",
    )
    return 0 if value else 1


def _cmd_socle_probe(args, report: Report) -> int:
    mu = Partition.from_text(args.shape)
    if args.squarefree_deg < 1:
        raise ValueError("--squarefree-deg must be positive")
    if args.deg < 0:
        raise ValueError("--deg must be nonnegative")
    fld = field_of(args.char)
    m = mu.n
    ideal = sum_ideal(
        specht_ideal(mu, fld), SquarefreeDegreeIdeal(m, args.squarefree_deg, fld)
    )
    d = args.deg
    quotient = f"S/(I^Sp_{mu} + I_<{args.squarefree_deg}>), d={d}, char={args.char}"
    provenance = f"ideals.socle({quotient})"
    soc = socle(ideal, d)
    report.add("socle_dimension", soc.dimension, provenance)
    report.tables["socle_basis"] = [str(v) for v in soc.vectors()]
    if m >= 3 and d == 2:
        x = lambda i: Polynomial.variable(m, i - 1, fld)
        witness = x(1) * x(2) + x(2) * x(3) + x(3) * x(1)
        nf = ideal.quotient_ring().normal_form(witness)
        # a witness that is 0 in the quotient names no socle element
        report.add(
            "witness_x1x2+x2x3+x3x1_in_socle",
            not nf.is_zero() and soc.contains(nf),
            provenance,
        )
    e1 = Polynomial.zero(m, fld)
    for i in range(m):
        e1 = e1 + Polynomial.variable(m, i, fld)
    mult = mult_injective(e1, ideal, d)
    mult_provenance = f"ideals.mult_injective(e1, {quotient})"
    report.add("e1_injective", mult.injective, mult_provenance)
    report.add("e1_bijective", mult.bijective, mult_provenance)
    report.tables["e1_map"] = {
        "rank": mult.rank,
        "dim_source": mult.dim_source,
        "dim_target": mult.dim_target,
    }
    report.tables["quotient_dims"] = [ideal.quotient_dim(e) for e in range(d + 4)]
    return 0 if soc.dimension == 0 else 1


def _cmd_experiment(args, report: Report) -> int:
    n_max = args.n_max
    if n_max < 4:
        raise ValueError(f"--n-max must be at least 4, the smallest n of the grid, got {n_max}")
    primes = []
    for tok in str(args.primes).split(","):
        tok = tok.strip()
        if tok:
            primes.append(int(tok))
    if not primes:
        raise ValueError(f"--primes lists no prime, got {args.primes!r}")
    if len(set(primes)) < len(primes):
        raise ValueError(f"--primes lists a prime twice, got {args.primes!r}")
    shapes = []
    for n in range(4, n_max + 1):
        for d in range(2, n // 2 + 1):
            shapes.append(Partition((n - d, d)))
    for a in range(2, (n_max - 1) // 2 + 1):
        shapes.append(Partition((a, a, 1)))
    verdicts: dict = {}  # (shape, p) -> its verdict, or the resource cap that refused it

    def verdict_of(shape, p):
        if (shape, p) not in verdicts:
            try:
                verdicts[shape, p] = cm_verdict(shape, p)
            except ResourceLimitError as exc:
                verdicts[shape, p] = exc
        return verdicts[shape, p]

    grid = []
    for shape in shapes:
        for p in primes:
            cell = {"shape": shape.text(), "p": p}
            verdict = verdict_of(shape, p)
            if isinstance(verdict, ResourceLimitError):
                cell["resource_cap"] = str(verdict)
            else:
                predicted = p == 0 or p >= shape.n - shape.parts[0]
                cell["is_cm"] = verdict.is_cm
                cell["conjecture_predicts_cm"] = predicted
                cell["consistent"] = verdict.is_cm == predicted
            grid.append(cell)
    report.tables["experiment"] = grid
    # second observation: (a,a,1) quotients in characteristic 0 and whether
    # the nonzero entries sit on the (a+2)-linear strand beta_{i, i+a+1}
    linear = []
    for shape in shapes:
        if len(shape.parts) != 3:
            continue
        a = shape.parts[0]
        cell = {"shape": shape.text(), "p": 0}
        verdict = verdict_of(shape, 0)
        if isinstance(verdict, ResourceLimitError):
            cell["resource_cap"] = str(verdict)
        else:
            strand = all(j == i + a + 1 for (i, j) in verdict.table.entries if i >= 1)
            cell["linear_resolution"] = strand
            cell["betti_totals"] = verdict.table.totals()
        linear.append(cell)
    if linear:
        report.tables["aa1_linear_resolution"] = linear
    decided = [c for c in grid if "consistent" in c]
    report.add(
        "cells_computed",
        len(decided),
        f"betti.cm_verdict over shapes of n <= {n_max}",
    )
    report.add(
        "all_consistent_with_characteristic_conjecture",
        all(c["consistent"] for c in decided),
        "observation only; no assertion",
    )
    return 0


_COMMANDS = {
    "gens": _cmd_gens,
    "hilbert": _cmd_hilbert,
    "radical-check": _cmd_radical_check,
    "minimal-primes": _cmd_minimal_primes,
    "purity": _cmd_purity,
    "betti": _cmd_betti,
    "cm-check": _cmd_cm_check,
    "catalan": _cmd_catalan,
    "straighten": _cmd_straighten,
    "condition-star": _cmd_condition_star,
    "socle-probe": _cmd_socle_probe,
    "experiment": _cmd_experiment,
}


def run(argv) -> tuple[Report | None, int]:
    """Parse and execute; returns (report, exit code)."""
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return None, (0 if exc.code == 0 else 2)
    extras = {k: v for k, v in vars(args).items() if v is not None and k != "timing"}
    config = RunConfig(
        command=extras.pop("command"),
        shape=extras.pop("shape", None),
        characteristic=extras.pop("char", 0),
        max_degree=extras.pop("max_deg", None),
        output_format=extras.pop("format"),
        extras=extras,
    )
    report = Report(command=args.command, config=config)
    start = time.monotonic()
    try:
        if config.characteristic:
            field_of(config.characteristic)  # validates primality
        code = _COMMANDS[args.command](args, report)
    except ResourceLimitError as exc:
        report.add("resource_cap", str(exc), "resource limit")
        return report, 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, 2
    except (SelfCheckError, AssertionError) as exc:
        # a failed self-check (ProxyDisagreement included) is no finding:
        # drop whatever the command had reported before it
        report.verdicts, report.tables = [], {}
        report.add("internal_error", f"{type(exc).__name__}: {exc}", "internal self-check")
        return report, 4
    if args.timing:
        report.timing_ms = int((time.monotonic() - start) * 1000)
    return report, code


def main(argv=None) -> None:
    report, code = run(sys.argv[1:] if argv is None else argv)
    if report is not None:
        try:
            print(report.render(report.config.output_format))
            sys.stdout.flush()
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            sys.exit(2)
        except BrokenPipeError:
            # the reader left; keep the interpreter's final flush quiet
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
