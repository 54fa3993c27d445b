"""Hand-written expected verdicts for every query the benchmark sends.

Nothing here imports ``spechtideals``: each rule is a closed form stated in
the paper's summary and the acceptance suite, or a table copied from it.

* CM in characteristic 0 exactly for hook, two-row and (a,a,1) shapes
  (Yanagawa's classification, which the CLI's shape trichotomy encodes).
* dim R/I = n - lambda_1 (height = lambda_1), depth = n - pd.
* The ideal is minimally generated by the f^lambda standard Specht
  polynomials, all of degree sum_j C(lambda'_j, 2), in every characteristic.
* The Betti polynomial K(t) = sum (-1)^i beta_ij t^j vanishes to order
  exactly lambda_1 at t = 1 (its order there is the codimension).
* The Betti tables of (3,3) in characteristics 0 and 2; Gorenstein
  verdicts of (2,2), (3,2), (4,2) in characteristic 0.
* Purity iff lambda_{l-1} = lambda_1 or lambda_2 = 1; C(n, lambda_1 + 1)
  minimal primes P_F when lambda_{l-1} = lambda_1.
* Pattern points: a set partition lies in the vanishing locus iff its
  block-size type is not dominated by the shape (Gale-Ryser).
* Hilbert series (1 + (n-2)t + t^2)/(1-t)^2 for (n-2, 2); C_n standard
  generators for (n, n) and (n, n-1); radical equality of the criterion-5
  fixtures; dim A_m = 2(n-1) and the socle witness of criteria 8 and 9.

``check_cli`` returns the list of mismatches for one CLI query (empty when
every verdict is as expected).
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import comb, factorial

# Betti tables of R/I^Sp_(3,3) (acceptance criterion 7), keyed by characteristic.
BETTI_33 = {
    0: {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5},
    2: {(0, 0): 1, (1, 3): 5, (2, 5): 9, (3, 6): 5, (3, 7): 1, (4, 7): 1},
}
# Gorenstein in characteristic 0 (acceptance criterion 10).
GORENSTEIN_CHAR0 = {(2, 2), (3, 2), (4, 2)}
# I^Sp = I_{n, lambda_1 + 1} up to the stated degree in characteristics 0, 2, 3
# (acceptance criterion 5 plus (5,2) and (4,4)).
RADICAL_FIXTURES = {
    (2, 2): 6, (3, 2): 6, (4, 2): 6, (3, 3): 7, (4, 3): 7, (2, 2, 1): 6,
    (3, 3, 1): 7, (5, 2): 7, (4, 4): 6,
}
# Not equal to I_{n, lambda_1 + 1}: (3,2,1) has the height-4 minimal prime
# P_{123|456}, which no P_F with |F| = 4 covers.
NOT_RADICAL = {(3, 2, 1): 7}


def parse_shape(text: str) -> tuple[int, ...]:
    return tuple(int(t) for t in text.split(","))


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for p in parts if p > j) for j in range(parts[0]))


def standard_count(parts) -> int:
    """f^lambda by the hook length formula."""
    conj = conjugate(parts)
    hooks = 1
    for i, row in enumerate(parts):
        for j in range(row):
            hooks *= (row - j - 1) + (conj[j] - i - 1) + 1
    return factorial(sum(parts)) // hooks


def specht_degree(parts) -> int:
    return sum(comb(c, 2) for c in conjugate(parts))


def cm_in_char0(parts) -> bool:
    hook = parts[1] == 1
    two_row = len(parts) == 2
    aa1 = len(parts) == 3 and parts[0] == parts[1] and parts[2] == 1
    return hook or two_row or aa1


def pure(parts) -> bool:
    return parts[-2] == parts[0] or parts[1] == 1


def dominated(a, b) -> bool:
    """a <= b in dominance order (both partitions of the same n)."""
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True


def catalan(n: int) -> int:
    return comb(2 * n, n) // (n + 1)


def two_row_series(n: int, d_max: int) -> list[int]:
    """Coefficients of (1 + (n-2)t + t^2) / (1-t)^2 up to t^d_max."""
    num = [1, n - 2, 1]
    return [sum(num[i] * (d - i + 1) for i in range(3) if i <= d) for d in range(d_max + 1)]


def zero_order_at_one(coeffs: dict[int, int]) -> int:
    """Order of vanishing at t = 1 of sum coeffs[j] t^j (nonzero polynomial)."""
    top = max(coeffs)
    poly = [coeffs.get(j, 0) for j in range(top + 1)]
    order = 0
    while any(poly) and sum(poly) == 0:
        # synthetic division by (t - 1), highest degree first
        quot, acc = [], 0
        for c in reversed(poly):
            acc += c
            quot.append(acc)
        poly = list(reversed(quot[:-1]))
        order += 1
    return order


def _opt(argv, flag, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _verdicts(report) -> dict:
    return {v["name"]: v["value"] for v in report["verdicts"]}


def _betti_rules(parts, ch, table, errs) -> None:
    entries = {(e["i"], e["j"]): e["beta"] for e in table["entries"]}
    n = sum(parts)
    if entries.get((0, 0)) != 1:
        errs.append("beta_00 != 1")
    gens = {j: b for (i, j), b in entries.items() if i == 1}
    if gens != {specht_degree(parts): standard_count(parts)}:
        errs.append(f"beta_1 {gens} is not f^lambda in degree {specht_degree(parts)}")
    if table["n"] != n:
        errs.append("table n mismatch")
    if table["closed_off"]:
        k = {}
        for (i, j), b in entries.items():
            k[j] = k.get(j, 0) + (-1) ** i * b
        if zero_order_at_one(k) != parts[0]:
            errs.append("K(t) does not vanish to order lambda_1 at t = 1")
    if parts == (3, 3) and ch in BETTI_33 and entries != BETTI_33[ch]:
        errs.append(f"(3,3) Betti table in char {ch} differs")


def _check_betti(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    ch = int(_opt(argv, "--char", "0"))
    table = report["tables"]["betti"]
    _betti_rules(parts, ch, table, errs)
    if code != 0:
        errs.append(f"exit code {code}")
    if ch == 0 and _verdicts(report).get("proxy_primes_agree") is not True:
        errs.append("proxy primes disagree")


def _check_cm(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    ch = int(_opt(argv, "--char", "0"))
    v = _verdicts(report)
    n = sum(parts)
    table = report["tables"]["betti"]
    _betti_rules(parts, ch, table, errs)
    if not table["closed_off"]:
        errs.append("CM verdict from a table that is not closed off")
    pd = max(e["i"] for e in table["entries"])
    if v["pd"] != pd or v["depth"] != n - pd or v["dim"] != n - parts[0]:
        errs.append("pd/depth/dim do not match the table and n - lambda_1")
    if v["is_cm"] != (v["depth"] == v["dim"]):
        errs.append("is_cm is not depth == dim")
    if v["is_gorenstein"] and not (v["is_cm"] and table["totals"][-1] == 1):
        errs.append("Gorenstein without CM and last total 1")
    if ch == 0:
        if v["is_cm"] != cm_in_char0(parts):
            errs.append(f"is_cm {v['is_cm']} contradicts the char-0 classification")
        if parts in GORENSTEIN_CHAR0 and not v["is_gorenstein"]:
            errs.append("expected Gorenstein")
    if code != (0 if v["is_cm"] else 1):
        errs.append(f"exit code {code}")


def _check_radical(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    bound = int(_opt(argv, "--max-deg"))
    v = _verdicts(report)
    dims = report["tables"]["component_dimensions"]
    if parts in RADICAL_FIXTURES and bound <= RADICAL_FIXTURES[parts]:
        if v["equal_up_to_degree"] is not True or code != 0:
            errs.append("expected I^Sp = I_{n,l1+1}")
        if dims["specht"] != dims["intersection"]:
            errs.append("component dimensions differ")
    elif parts in NOT_RADICAL and bound >= NOT_RADICAL[parts]:
        first = v.get("first_disagreeing_degree")
        if v["equal_up_to_degree"] is not False or code != 1:
            errs.append("expected a negative radicality verdict")
        elif not isinstance(first, int) or first > bound:
            errs.append("missing first disagreeing degree")
        elif not v.get("separating_polynomial"):
            errs.append("missing separating polynomial")
    else:
        errs.append("no expectation for this radical-check query")


def _check_hilbert(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    d_max = int(_opt(argv, "--max-deg"))
    if len(parts) != 2 or parts[1] != 2 or _opt(argv, "--char", "0") != "0":
        errs.append("no expectation for this hilbert query")
        return
    if report["tables"]["hilbert_function"] != two_row_series(sum(parts), d_max):
        errs.append("Hilbert function is not the (n-2,2) series")
    if _verdicts(report).get("matches_two_row_series") is not True or code != 0:
        errs.append("series verdict false")


def _check_catalan(argv, code, report, errs) -> None:
    n = int(_opt(argv, "--n"))
    v = _verdicts(report)
    cn = catalan(n)
    for name in ("catalan_number", "rank_shape_n_n", "rank_shape_n_n_minus_1",
                 "minimal_generators_I_2n_n1"):
        if v.get(name) != cn:
            errs.append(f"{name} {v.get(name)} != C_{n} = {cn}")
    if any(report["tables"]["intersection_dims"][:n]) or code != 0:
        errs.append("I_{2n,n+1} has generators below degree n")


def _check_socle(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    ch = int(_opt(argv, "--char", "0"))
    m = sum(parts)
    if len(parts) != 2 or parts[1] != 2 or ch not in (0, 2):
        errs.append("no expectation for this socle-probe query")
        return
    v = _verdicts(report)
    if report["tables"]["quotient_dims"][3:6] != [2 * m] * 3:
        errs.append("dim A_d != 2(n-1) for d = 3, 4, 5")
    if ch == 2:
        if not (v["socle_dimension"] > 0 and v["witness_x1x2+x2x3+x3x1_in_socle"]):
            errs.append("char-2 socle witness missing")
        if code != 1:
            errs.append(f"exit code {code}")
    else:
        e1 = report["tables"]["e1_map"]
        if not (v["e1_bijective"] and e1["dim_source"] == e1["dim_target"] == 2 * m):
            errs.append("e1 is not a bijection of 2(n-1)-dimensional pieces")
        if v["socle_dimension"] != 0 or code != 0:
            errs.append("injective e1 leaves no degree-2 socle")


def _check_purity(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    v = _verdicts(report)
    if v["height"] != parts[0] or min(report["tables"]["heights_seen"]) != parts[0]:
        errs.append("height != lambda_1")
    if v["pure"] != pure(parts) or v["closed_form_pure"] != pure(parts):
        errs.append("purity trichotomy violated")
    if code != (0 if pure(parts) else 1):
        errs.append(f"exit code {code}")


def _check_minimal_primes(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    n = sum(parts)
    primes = report["tables"]["minimal_primes"]
    if min(p["height"] for p in primes) != parts[0]:
        errs.append("least height != lambda_1")
    if parts[-2] == parts[0]:
        count = comb(n, parts[0] + 1)
        if _verdicts(report)["minimal_prime_count"] != count or len(primes) != count:
            errs.append(f"minimal prime count != C({n}, {parts[0] + 1})")
        for p in primes:
            sizes = sorted((len(b) for b in p["blocks"]), reverse=True)
            if sizes != [parts[0] + 1] + [1] * (n - parts[0] - 1):
                errs.append(f"{p['blocks']} is not a P_F")
                break
    if code != 0:
        errs.append(f"exit code {code}")


def _check_condition_star(argv, code, report, errs) -> None:
    parts = parse_shape(_opt(argv, "--shape"))
    blocks = _opt(argv, "--blocks").split("|")
    sizes = sorted((len(b.split(",")) for b in blocks), reverse=True)
    expected = not dominated(sizes, parts)
    if _verdicts(report)["condition_star"] != expected:
        errs.append(f"condition star should be {expected}")
    if code != (0 if expected else 1):
        errs.append(f"exit code {code}")


def parse_class(text: str) -> tuple[list[tuple[int, int]], list[int]]:
    """'[1:4 2:5 | 3,6]' -> ([(1, 4), (2, 5)], [3, 6])."""
    pairs_txt, singles_txt = text.strip("[]").split("|")
    pairs = [tuple(int(x) for x in p.split(":")) for p in pairs_txt.split()]
    singles = [int(s) for s in singles_txt.split(",") if s.strip()]
    return pairs, singles


def pair_product(pairs, point) -> int:
    out = 1
    for a, b in pairs:
        out *= point[a] - point[b]
    return out


def _check_straighten(argv, code, report, errs) -> None:
    rows = [[int(x) for x in r.split(",")] for r in _opt(argv, "--tableau").split("/")]
    k = int(_opt(argv, "--prefix", "0"))
    nvars = sum(len(r) for r in rows)
    columns = list(zip(rows[0], rows[1]))
    v = _verdicts(report)
    combo = report["tables"]["combination"]
    rng = random.Random(" ".join(argv))
    for _ in range(3):
        point = {i: rng.randrange(-10**6, 10**6) for i in range(1, nvars + 1)}
        lhs = v["normalization_sign"] * pair_product(columns, point)
        rhs = sum(
            c["coefficient"] * pair_product(parse_class(c["class"])[0], point)
            for c in combo
        )
        if lhs != rhs:
            errs.append("straightened combination does not evaluate to f_T")
            break
    prefix = sorted((min(a, b), max(a, b)) for a, b in columns)[:k]
    for c in combo:
        if c["coefficient"] not in (1, -1) or parse_class(c["class"])[0][:k] != prefix:
            errs.append("output is not a +/-1 combination keeping the prefix")
            break
    if v["identity_verified"] is not True or code != 0:
        errs.append("identity not verified")


_CHECKS = {
    "betti": _check_betti,
    "cm-check": _check_cm,
    "radical-check": _check_radical,
    "hilbert": _check_hilbert,
    "catalan": _check_catalan,
    "socle-probe": _check_socle,
    "purity": _check_purity,
    "minimal-primes": _check_minimal_primes,
    "condition-star": _check_condition_star,
    "straighten": _check_straighten,
}


def check_cli(argv, code: int, report: dict | None) -> list[str]:
    """Mismatches between a CLI report and the expectations above."""
    if report is None:
        return [f"no report (exit code {code})"]
    if code == 3:
        return ["refused by a resource cap"]
    errs: list[str] = []
    try:
        _CHECKS[argv[0]](list(argv), code, report, errs)
    except (KeyError, TypeError, ValueError) as exc:
        errs.append(f"report lacks an expected field: {exc!r}")
    return errs


def replay_target(prefix_letters, combo, point) -> Fraction:
    """x^a * sum c_T f_T at a point, for two-row classes given as pair lists."""
    xa = 1
    for i in prefix_letters:
        xa *= point[i]
    return xa * sum(Fraction(c) * pair_product(pairs, point) for pairs, c in combo)
