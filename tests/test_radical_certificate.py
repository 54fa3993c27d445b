"""The Artinian-length proof of I^Sp = I_{n,lambda_1+1} in every degree.

``betti.radical_by_length`` proves the equality for two-row and (a,a,1)
shapes from one Artinian length, and ``radical-check`` then reads both
columns of its component dimensions off the h-vector.  These tests hold
those columns against today's bounded comparison (``equal_up_to_degree``)
for every such shape with n <= 8 in characteristics 0, 2 and 3, pin the
cases where the length exceeds e(V) and the bounded path runs instead, and
check each gate on its own.
"""

from math import comb

import pytest

from spechtideals import betti, cli
from spechtideals.betti import radical_by_length
from spechtideals.fields import draw_field, field_of
from spechtideals.ideals import equal_up_to_degree
from spechtideals.tableaux import Partition, enumerate_partitions
from spechtideals.varieties import _minimal_profiles

SHAPES = [(a, b) for n in range(2, 9) for b in range(1, n // 2 + 1) for a in [n - b]]
SHAPES += [(a, a, 1) for a in range(1, 4)]

# L > e(V): R/I is not CM over GF(p), so the bounded comparison runs.  They
# agree with the paper's remark that (n-3,3) is not CM in characteristic 2,
# and with the pattern p >= n - lambda_1
FALLBACK = {
    (2, (3, 3)), (2, (4, 3)), (2, (5, 3)), (2, (4, 4)), (2, (2, 2, 1)), (2, (3, 3, 1)),
    (3, (4, 4)), (3, (3, 3, 1)),
}


def _radical_check(parts, char, bound):
    shape = ",".join(map(str, parts))
    report, code = cli.run(["radical-check", "--shape", shape, "--max-deg", str(bound), "--char", str(char)])
    return report.to_jsonable(), code


@pytest.mark.parametrize("char", [0, 2, 3])
@pytest.mark.parametrize("parts", SHAPES, ids=lambda parts: ",".join(map(str, parts)))
def test_certified_tables_equal_the_bounded_comparison(parts, char):
    shape = Partition(parts)
    n, k = shape.n, parts[0] + 1
    cert = radical_by_length(shape, char)
    assert (cert is None) == ((char, parts) in FALLBACK)
    if cert is None:
        payload, code = _radical_check(parts, char, k)
        assert code == 0 and payload["tables"]["certificate"]["kind"] == "bounded-degree"
        return
    assert cert.kind == "artinian-length"
    assert cert.length == cert.multiplicity == sum(cert.h_vector) == comb(n, k)
    bound = 6 if n == 8 else 8
    payload, code = _radical_check(parts, char, bound)
    fld = field_of(char)
    rep = equal_up_to_degree(shape, fld, bound)
    assert rep.equal and code == 0
    assert payload["tables"]["component_dimensions"] == {
        "specht": rep.dims_left,
        "intersection": rep.dims_right,
    }
    assert payload["tables"]["certificate"] == cert.to_jsonable()


@pytest.mark.parametrize("parts", [(3, 2, 1), (4, 1, 1), (2, 1, 1), (3, 1, 1), (2, 2, 1, 1), (4, 2, 1)])
@pytest.mark.parametrize("char", [0, 2])
def test_other_profiles_draw_nothing(monkeypatch, parts, char):
    # hooks with a leg of 2 or more and non-radical shapes have top
    # profiles besides (lambda_1 + 1, 1, ...): the gate refuses them before
    # any form is drawn
    monkeypatch.setattr(betti, "artinian_draw", lambda *a: pytest.fail("drew forms"))
    trace = []
    assert radical_by_length(Partition(parts), char, trace) is None
    assert trace == ["the minimal primes are not exactly the P_F with |F| = lambda_1 + 1"]


@pytest.mark.parametrize("parts, floor, e_v", [((2, 2, 2), 21, 20), ((2, 2, 2, 1), 45, 35)])
def test_one_profile_but_not_cm(monkeypatch, parts, floor, e_v):
    # (a,...,a) shapes have the one profile too, but R/I is not CM: the
    # length floor C(lambda_1 + D - 1, lambda_1) already exceeds e(V), so no
    # form is drawn, and the bounded path runs
    monkeypatch.setattr(betti, "artinian_draw", lambda *a: pytest.fail("drew forms"))
    trace = []
    assert radical_by_length(Partition(parts), 0, trace) is None
    assert trace == [f"length at least {floor} exceeds e(V) = {e_v}"]


def test_length_floor_refuses_exactly_nine_shapes():
    # among the shapes with n <= 10 that pass the profile gate, the floor
    # exceeds e(V) for these nine; every other one is drawn for
    refused = []
    for n in range(2, 11):
        for shape in enumerate_partitions(n):
            lam1 = shape.parts[0]
            if shape.is_trivial or list(_minimal_profiles(shape)) != [(lam1 + 1,) + (1,) * (n - lam1 - 1)]:
                continue
            if betti._length_floor(shape) > comb(n, lam1 + 1):
                refused.append(shape.parts)
    assert refused == [
        (2, 2, 2), (2, 2, 2, 1), (3, 3, 2), (2, 2, 2, 2), (3, 3, 3), (2, 2, 2, 2, 1),
        (4, 4, 2), (3, 3, 3, 1), (2, 2, 2, 2, 2),
    ]


def test_length_floor_is_attained():
    # the floor is a true lower bound: (2,2,2,1)'s accepted draw has L = 45,
    # the floor itself, and (2,2,2)'s has L = 23 >= 21
    for parts, length in [((2, 2, 2), 23), ((2, 2, 2, 1), 45)]:
        shape = Partition(parts)
        drawn = betti.artinian_draw(shape, draw_field(0), [])
        assert sum(drawn[2]) == length >= betti._length_floor(shape)


def test_not_radical_keeps_the_separating_polynomial():
    payload, code = _radical_check((3, 2, 1), 0, 4)
    verdicts = {v["name"]: v["value"] for v in payload["verdicts"]}
    assert code == 1 and verdicts["equal_up_to_degree"] is False
    assert verdicts["equal_in_every_degree"] is False and verdicts["first_disagreeing_degree"] == 3
    assert payload["tables"]["certificate"]["kind"] == "separating-polynomial"


@pytest.mark.parametrize("excess", [1, 2])
def test_length_past_e_v_is_no_proof(monkeypatch, excess):
    # one more than e(V) means the forms are not a regular sequence
    real = betti.artinian_draw

    def longer(shape, fld, trace):
        images, art, h = real(shape, fld, trace)
        return images, art, h[:-1] + [h[-1] + excess]

    monkeypatch.setattr(betti, "artinian_draw", longer)
    trace = []
    assert radical_by_length(Partition((3, 3)), 0, trace) is None
    assert trace == [f"length {15 + excess} over GF(32003) exceeds e(V) = 15"]


def test_length_below_e_v_is_an_internal_error(monkeypatch):
    real = betti.artinian_draw
    monkeypatch.setattr(
        betti, "artinian_draw", lambda shape, fld, trace: (*real(shape, fld, trace)[:2], [1, 2])
    )
    with pytest.raises(betti.SelfCheckError):
        radical_by_length(Partition((3, 2)), 2)


def test_no_system_of_parameters_falls_back(monkeypatch):
    monkeypatch.setattr(betti, "artinian_draw", lambda shape, fld, trace: None)
    payload, code = _radical_check((3, 2), 2, 5)
    assert code == 0 and payload["tables"]["certificate"]["kind"] == "bounded-degree"
    assert "equal_in_every_degree" not in {v["name"] for v in payload["verdicts"]}


def test_forms_come_from_the_draw_field():
    fields = [radical_by_length(Partition((3, 3)), p).fields for p in (0, 3)]
    assert fields == [("GF(32003)",), ("GF(3^5)",)]
    assert radical_by_length(Partition((3, 2)), 2).fields == ("GF(2^8)",)
