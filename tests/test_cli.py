"""CLI subcommands: verdicts, exit codes, report schema, determinism."""

import importlib
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from spechtideals import betti, cli, ideals, linalg, specht, varieties
from spechtideals.betti import ProxyDisagreement, SelfCheckError
from spechtideals.cli import _COMMANDS, run
from spechtideals.tableaux import Partition


def run_json(argv):
    report, code = run(argv)
    assert report is not None
    return json.loads(report.render("json")), code


def verdict(payload, name):
    for v in payload["verdicts"]:
        if v["name"] == name:
            return v["value"]
    raise KeyError(name)


class TestCommands:
    def test_gens(self):
        payload, code = run_json(["gens", "--shape", "2,2"])
        assert code == 0
        assert verdict(payload, "generator_count") == 2
        assert len(payload["tables"]["generators"]) == 2

    def test_gens_inverse_order(self):
        payload, code = run_json(["gens", "--shape", "3,2", "--order", "inverse"])
        assert code == 0 and verdict(payload, "generator_count") == 5

    def test_hilbert_two_row(self):
        payload, code = run_json(
            ["hilbert", "--shape", "3,2", "--max-deg", "6"]
        )
        assert code == 0
        assert payload["tables"]["hilbert_function"] == [1, 5, 10, 15, 20, 25, 30]
        assert verdict(payload, "matches_two_row_series") is True

    @pytest.mark.parametrize("char", ["0", "2"])
    def test_hilbert_unit_ideal(self, char):
        # the trivial shape's Specht polynomial is 1, so S/I = 0 in every degree
        payload, code = run_json(["hilbert", "--shape", "3", "--max-deg", "5", "--char", char])
        assert code == 0
        assert payload["tables"]["hilbert_function"] == [0] * 6

    def test_radical_check_true(self):
        payload, code = run_json(
            ["radical-check", "--shape", "3,3", "--max-deg", "7", "--char", "0"]
        )
        assert code == 0
        assert verdict(payload, "equal_up_to_degree") is True

    def test_radical_check_golden_dims(self):
        # componentwise dimensions serialize as plain JSON arrays
        payload, _ = run_json(["radical-check", "--shape", "2,2", "--max-deg", "6"])
        dims = payload["tables"]["component_dimensions"]
        assert dims["specht"] == [0, 0, 2, 8, 19, 36, 60]
        assert dims["intersection"] == dims["specht"]

    def test_radical_check_false_exit_one(self):
        payload, code = run_json(
            ["radical-check", "--shape", "3,2,1", "--max-deg", "4"]
        )
        assert code == 1
        assert verdict(payload, "equal_up_to_degree") is False
        assert verdict(payload, "first_disagreeing_degree") == 3

    def test_minimal_primes(self):
        payload, code = run_json(["minimal-primes", "--shape", "2,2"])
        assert code == 0
        primes = payload["tables"]["minimal_primes"]
        assert len(primes) == 4
        assert all(p["height"] == 2 for p in primes)

    def test_purity_exit_codes(self):
        _, code = run_json(["purity", "--shape", "3,3"])
        assert code == 0
        _, code = run_json(["purity", "--shape", "4,2,1"])
        assert code == 1

    def test_loci_at_n10(self):
        payload, code = run_json(["minimal-primes", "--shape", "5,4,1"])
        assert code == 0 and verdict(payload, "minimal_prime_count") == 336
        assert len(payload["tables"]["minimal_primes"]) == 336
        payload, code = run_json(["purity", "--shape", "6,3,1"])
        assert code == 1
        assert verdict(payload, "height") == 6 and verdict(payload, "pure") is False
        assert payload["tables"]["heights_seen"] == [6, 8]

    @pytest.mark.parametrize(
        "shape, code, heights", [("12,12", 0, [12]), ("20,5,1", 1, [20, 24])]
    )
    def test_purity_past_the_listing_cap(self, shape, code, heights):
        # heights and purity read the profiles, so a shape whose minimal
        # primes would not be listed still gets its verdict
        payload, got = run_json(["purity", "--shape", shape])
        assert got == code
        assert verdict(payload, "height") == heights[0]
        assert payload["tables"]["heights_seen"] == heights

    def test_betti_char2(self):
        payload, code = run_json(["betti", "--shape", "3,3", "--char", "2"])
        assert code == 0
        assert payload["tables"]["betti"]["totals"] == [1, 5, 9, 6, 1]

    def test_betti_artinian_socle_past_the_bound(self):
        payload, _ = run_json(["betti", "--shape", "6,2", "--char", "3"])
        assert payload["tables"]["betti"]["closed_off"] is False

    @pytest.mark.parametrize("shape", [
        "1,1", "2,1", "1,1,1", "3,1", "2,2", "2,1,1", "1,1,1,1",
        "4,1", "3,2", "3,1,1", "2,2,1", "2,1,1,1", "1,1,1,1,1",
        "5,2", "4,1,1", "3,3",
    ])
    def test_betti_char0_is_the_koszul_pair_table(self, shape):
        # the certified table, read as far as the Koszul path's extension
        # reaches, is the table the two primes' Koszul path reported
        payload, code = run_json(["betti", "--shape", shape, "--char", "0"])
        part = Partition.from_text(shape)
        koszul = betti.cm_verdict(part, 0, j_max=betti.default_j_max(part)).table
        assert code == 0
        assert payload["tables"]["betti"] == koszul.to_jsonable()
        assert payload["tables"]["betti_diagram"] == koszul.m2_lines()
        assert verdict(payload, "top_strand_closed_off") is koszul.closed_off
        assert verdict(payload, "proxy_primes_agree") is True

    @pytest.mark.parametrize("shape, j_max", [("5,2", 9), ("4,1,1", 10)])
    def test_betti_char0_names_the_extended_bound(self, shape, j_max):
        # the strands close only past the default bound (7 and 8), so the
        # certified table is read as far as the Koszul path's extension
        # reaches; both provenances name its producer, both proxy primes
        # and the bound of the table beside them
        payload, code = run_json(["betti", "--shape", shape, "--char", "0"])
        assert code == 0 and payload["tables"]["betti"]["j_max"] == j_max
        assert verdict(payload, "top_strand_closed_off") is True
        provenance = {v["name"]: v["provenance"] for v in payload["verdicts"]}
        expected = (
            f"betti.artinian_reduction(({shape})) over GF(32003) and GF(1000003), j<= {j_max}"
        )
        assert provenance["proxy_primes_agree"] == expected
        assert provenance["top_strand_closed_off"] == expected

    def test_betti_char0_without_a_certificate_takes_the_koszul_pair(self):
        # (3,2,1) is not CM (L = 20 > e(V) = 15): the table is the Koszul
        # table of cm_verdict over both proxy primes
        shape = Partition((3, 2, 1))
        payload, code = run_json(["betti", "--shape", "3,2,1", "--char", "0"])
        koszul = betti.cm_verdict(shape, 0, j_max=betti.default_j_max(shape)).table
        assert code == 0
        assert payload["tables"]["betti"] == koszul.to_jsonable()
        provenance = {v["name"]: v["provenance"] for v in payload["verdicts"]}
        assert provenance["top_strand_closed_off"] == (
            f"betti.koszul_betti(I^Sp_(3,2,1), j_max={koszul.j_max}, char=0)"
        )
        assert provenance["proxy_primes_agree"] == (
            f"betti.cm_verdict over GF(32003) and GF(1000003), j<= {koszul.j_max}"
        )

    @pytest.mark.parametrize("argv, fields", [
        (["betti", "--shape", "1,1,1", "--char", "0"], ["GF(32003)", "GF(1000003)"]),
        (["cm-check", "--shape", "4,1,1", "--char", "0"], ["GF(32003)", "GF(1000003)"]),
        (["cm-check", "--shape", "2,2", "--exact-rational"], ["GF(32003)", "QQ"]),
    ])
    def test_each_field_draws_its_own_reduction(self, monkeypatch, argv, fields):
        # every field of a certified table draws and certifies its own forms;
        # QQ draws the integers GF(32003) draws
        drawn = []
        real = betti.artinian_draw

        def spy(shape, fld, trace):
            out = real(shape, fld, trace)
            drawn.append((repr(fld), out and out[0]))
            return out

        monkeypatch.setattr(betti, "artinian_draw", spy)
        _, code = run(argv)
        assert code == 0
        assert [fld for fld, _ in drawn] == fields
        assert all(images is not None for _, images in drawn)
        if fields[-1] == "QQ":
            assert drawn[0][1] == drawn[1][1]

    def test_betti_m2_format(self):
        report, code = run(["betti", "--shape", "3,3", "--char", "2", "--format", "m2"])
        assert code == 0
        text = report.render("m2")
        assert text.splitlines()[0] == "total: 1 5 9 6 1"

    def test_cm_check(self):
        payload, code = run_json(["cm-check", "--shape", "2,2"])
        assert code == 0
        assert verdict(payload, "is_gorenstein") is True
        _, code = run_json(["cm-check", "--shape", "3,3", "--char", "2"])
        assert code == 1

    def test_cm_check_names_its_certificate(self):
        payload, code = run_json(["cm-check", "--shape", "3,3,1"])
        assert code == 0
        assert verdict(payload, "certificate") == "artinian-length"
        assert payload["tables"]["certificate"] == {
            "kind": "artinian-length",
            "fields": ["GF(32003)"],
            "j_max": 8,
            "length": 35,
            "e_V": 35,
            "h_vector": [1, 3, 6, 10, 15],
        }
        payload, code = run_json(["cm-check", "--shape", "3,3", "--char", "2"])
        assert verdict(payload, "certificate") == "heuristic"
        assert payload["tables"]["certificate"]["fields"] == ["GF(2)"]

    @pytest.mark.parametrize("shape, char, j_max", [("3,3", 2, 9), ("2,2,2", 3, 13)])
    def test_failed_attempt_leaves_no_trace(self, shape, char, j_max):
        # L > e(V) over GF(p^k): the Koszul table's certificate names GF(p)
        # alone and keeps nothing the attempt measured over GF(p^k)
        payload, code = run_json(["cm-check", "--shape", shape, "--char", str(char)])
        assert code == 1 and verdict(payload, "is_cm") is False
        assert payload["tables"]["certificate"] == {
            "kind": "heuristic",
            "fields": [f"GF({char})"],
            "j_max": j_max,
            "length": None,
            "e_V": None,
            "h_vector": None,
        }

    @pytest.mark.parametrize("shape, char, field, length", [
        ("3,3", 3, "GF(3^5)", 15),
        ("5,3", 3, "GF(3^5)", 28),
        ("3,3,1", 5, "GF(5^4)", 35),
    ])
    def test_cm_check_certified_in_positive_characteristic(self, shape, char, field, length):
        payload, code = run_json(["cm-check", "--shape", shape, "--char", str(char)])
        assert code == 0 and verdict(payload, "is_cm") is True
        cert = payload["tables"]["certificate"]
        assert (cert["kind"], cert["fields"]) == ("artinian-length", [field])
        assert cert["length"] == cert["e_V"] == length
        assert payload["tables"]["betti"]["closed_off"] is True

    def test_betti_names_the_artinian_reduction(self):
        # the certified table, read up to the default bound, is the Koszul
        # table; the flag beside it names its real producer
        payload, code = run_json(["betti", "--shape", "2,2,1", "--char", "3"])
        assert code == 0
        assert payload["tables"]["betti"]["entries"] == [
            {"i": 0, "j": 0, "beta": 1}, {"i": 1, "j": 4, "beta": 5}, {"i": 2, "j": 5, "beta": 4},
        ]
        provenance = {v["name"]: v["provenance"] for v in payload["verdicts"]}
        assert provenance["top_strand_closed_off"] == (
            "betti.artinian_reduction((2,2,1)) over GF(3^5), j<= 10"
        )
        payload, _ = run_json(["betti", "--shape", "2,2,1", "--char", "2"])
        provenance = {v["name"]: v["provenance"] for v in payload["verdicts"]}
        assert provenance["top_strand_closed_off"] == "betti.koszul_betti(I^Sp_(2,2,1), j_max=10, char=2)"

    def test_catalan(self):
        payload, code = run_json(["catalan", "--n", "4"])
        assert code == 0
        assert verdict(payload, "catalan_number") == 14
        assert verdict(payload, "rank_shape_n_n") == 14
        assert verdict(payload, "minimal_generators_I_2n_n1") == 14
        assert payload["tables"]["intersection_dims"][:4] == [0, 0, 0, 0]

    @pytest.mark.parametrize(
        "argv", [["catalan", "--n", "3"], ["radical-check", "--shape", "3,2,1", "--max-deg", "4"]]
    )
    def test_char0_collapse_ranks_are_over_qq(self, monkeypatch, argv):
        # over the rationals every collapse rank of I_{n,k} is the exact
        # rational one: no prime field stands in for it.  (3,2,1) is not
        # radical, so radical-check takes the bounded path and ranks
        from spechtideals import ideals
        from spechtideals.fields import QQ

        expected, code = run_json(argv)
        seen = []
        orig = ideals.rank_sparse

        def spy(rows, fld):
            seen.append(fld)
            return orig(rows, fld)

        monkeypatch.setattr(ideals, "rank_sparse", spy)
        payload, again = run_json(argv)
        assert code == again == {"catalan": 0, "radical-check": 1}[argv[0]]
        assert payload == expected
        assert seen and set(seen) == {QQ}

    def test_certified_radical_check_ranks_nothing(self, monkeypatch):
        # the Artinian-length certificate builds neither I^Sp nor I_{n,k}:
        # no collapse rank and no bounded comparison
        from spechtideals import ideals

        calls = []
        for mod, name in [(ideals, "rank_sparse"), (linalg, "rank_sparse"), (cli, "equal_up_to_degree"),
                          (cli, "specht_ideal"), (cli, "IntersectionInk")]:
            monkeypatch.setattr(mod, name, lambda *a, _name=name, **k: calls.append(_name))
        payload, code = run_json(["radical-check", "--shape", "3,3", "--max-deg", "6"])
        assert code == 0 and calls == []
        assert payload["tables"]["certificate"]["kind"] == "artinian-length"
        assert verdict(payload, "equal_in_every_degree") is True

    def test_straighten(self):
        payload, code = run_json(
            ["straighten", "--tableau", "1,4,2/5,3", "--prefix", "1"]
        )
        assert code == 0
        assert verdict(payload, "identity_verified") is True
        assert len(payload["tables"]["combination"]) >= 2

    def test_condition_star(self):
        _, code = run_json(
            ["condition-star", "--shape", "2,1", "--blocks", "1,2,3"]
        )
        assert code == 0
        _, code = run_json(
            ["condition-star", "--shape", "2,2", "--blocks", "1,2|3,4"]
        )
        assert code == 1

    def test_socle_probe(self):
        payload, code = run_json(
            ["socle-probe", "--shape", "2,2", "--char", "2"]
        )
        assert code == 1  # nonzero socle is the finding
        assert verdict(payload, "socle_dimension") == 1
        assert verdict(payload, "witness_x1x2+x2x3+x3x1_in_socle") is True
        payload, code = run_json(["socle-probe", "--shape", "2,2", "--char", "0"])
        assert code == 0
        assert verdict(payload, "e1_bijective") is True

    @pytest.mark.parametrize("shape, char", [("2,1", "3"), ("3", "0"), ("3", "2")])
    def test_socle_probe_zero_witness_is_not_in_the_socle(self, shape, char):
        # the witness's normal form is 0: it names no socle element
        payload, _ = run_json(["socle-probe", "--shape", shape, "--char", char])
        assert verdict(payload, "witness_x1x2+x2x3+x3x1_in_socle") is False

    def test_socle_probe_builds_one_quotient_ring(self, monkeypatch):
        # the socle, the witness's normal form and the e1 map share R/I
        built = []
        init = ideals.QuotientRing.__init__

        def counting(self, ideal):
            built.append(ideal)
            init(self, ideal)

        monkeypatch.setattr(ideals.QuotientRing, "__init__", counting)
        _, code = run(["socle-probe", "--shape", "4,2", "--char", "0"])
        assert code == 0 and len(built) == 1

    def test_experiment(self):
        payload, code = run_json(
            ["experiment", "--n-max", "6", "--primes", "2,5"]
        )
        assert code == 0
        grid = payload["tables"]["experiment"]
        cells = {(c["shape"], c["p"]): c for c in grid if "is_cm" in c}
        assert cells[("3,3", 2)]["is_cm"] is False
        assert cells[("3,3", 2)]["consistent"] is True
        assert cells[("3,3", 5)]["is_cm"] is True
        assert cells[("3,3", 5)]["consistent"] is True
        assert verdict(payload, "all_consistent_with_characteristic_conjecture") is True

    @pytest.mark.parametrize("capped", [None, "2,2,1"])
    def test_experiment_computes_each_verdict_once(self, monkeypatch, capped):
        # the (a,a,1) pass reads the grid's char-0 verdicts, and its
        # resource caps, instead of computing them again
        calls = []
        real = cli.cm_verdict

        def spy(shape, p, **kwargs):
            calls.append((shape.text(), p))
            if shape.text() == capped:
                raise varieties.ResourceLimitError("capped for the test")
            return real(shape, p, **kwargs)

        monkeypatch.setattr(cli, "cm_verdict", spy)
        payload, code = run_json(["experiment", "--n-max", "6", "--primes", "0,2"])
        assert code == 0
        assert len(calls) == len(set(calls)) == 10  # five shapes, two primes
        (aa1,) = payload["tables"]["aa1_linear_resolution"]
        grid = {(c["shape"], c["p"]): c for c in payload["tables"]["experiment"]}
        if capped:
            assert aa1["resource_cap"] == grid["2,2,1", 0]["resource_cap"] == "capped for the test"
        else:
            assert aa1["linear_resolution"] is True and "is_cm" in grid["2,2,1", 0]


class TestReports:
    def test_schema_keys(self):
        payload, _ = run_json(["purity", "--shape", "2,2"])
        assert set(payload) == {
            "schema",
            "version",
            "command",
            "config",
            "verdicts",
            "tables",
            "timing_ms",
        }
        for v in payload["verdicts"]:
            assert set(v) == {"name", "value", "provenance"}

    def test_byte_identical_reruns(self):
        a, _ = run(["purity", "--shape", "3,2"])
        b, _ = run(["purity", "--shape", "3,2"])
        assert a.render("json") == b.render("json")

    def test_timing_opt_in(self):
        report, _ = run(["purity", "--shape", "2,2", "--timing"])
        payload = json.loads(report.render("json"))
        assert payload["timing_ms"] is not None

    def test_markdown_render(self):
        report, _ = run(["purity", "--shape", "2,2", "--format", "md"])
        text = report.render("md")
        assert text.startswith("# purity")
        assert "| height | 2 |" in text

    def test_m2_rejected_for_non_betti(self):
        report, code = run(["purity", "--shape", "2,2", "--format", "m2"])
        assert code == 0
        with pytest.raises(ValueError):
            report.render("m2")


# One or more runs per subcommand; together they reach every provenance string.
_PROVENANCE_RUNS = {
    "gens": [["gens", "--shape", "2,2"]],
    "hilbert": [["hilbert", "--shape", "3,2", "--max-deg", "4"]],
    "radical-check": [["radical-check", "--shape", "3,2,1", "--max-deg", "4"]],
    "minimal-primes": [["minimal-primes", "--shape", "2,2"]],
    "purity": [["purity", "--shape", "2,2"]],
    "betti": [["betti", "--shape", "2,2"], ["betti", "--shape", "2,2", "--char", "2"]],
    "cm-check": [["cm-check", "--shape", "2,2"], ["cm-check", "--shape", "2,2", "--char", "2"]],
    "catalan": [["catalan", "--n", "2"], ["catalan", "--n", "2", "--char", "2"]],
    "straighten": [["straighten", "--tableau", "1,4,2/5,3", "--prefix", "1"]],
    "condition-star": [["condition-star", "--shape", "2,2", "--blocks", "1,2|3,4"]],
    "socle-probe": [["socle-probe", "--shape", "2,2", "--char", "2"]],
    "experiment": [["experiment", "--n-max", "4", "--primes", "2"]],
}

# module.attr[.attr...], not preceded by a letter, digit, underscore or dot
_DOTTED = re.compile(r"(?<![\w.])([a-z_]+)\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


class TestProvenance:
    def test_every_command_covered(self):
        assert set(_PROVENANCE_RUNS) == set(_COMMANDS)

    @pytest.mark.parametrize("command", sorted(_PROVENANCE_RUNS))
    def test_dotted_names_resolve(self, command):
        names = []
        for argv in _PROVENANCE_RUNS[command]:
            report, _ = run(argv)
            names += [m for v in report.verdicts for m in _DOTTED.findall(v["provenance"])]
        assert names, f"{command} names no module.function"
        for module, path in names:
            obj = importlib.import_module(f"spechtideals.{module}")
            for attr in path.split("."):
                assert hasattr(obj, attr), f"spechtideals.{module}.{path}"
                obj = getattr(obj, attr)


class TestErrors:
    def test_usage_error_exit_two(self):
        _, code = run(["radical-check"])  # missing --shape
        assert code == 2

    def test_bad_shape_exit_two(self):
        _, code = run(["purity", "--shape", "zebra"])
        assert code == 2

    def test_nonprime_char_exit_two(self):
        _, code = run(["hilbert", "--shape", "2,2", "--char", "6"])
        assert code == 2

    def test_strong_pseudoprime_char_exit_two(self):
        # 2047 = 23 * 89 passes the Miller-Rabin test to base 2
        _, code = run(["cm-check", "--shape", "2,2", "--char", "2047"])
        assert code == 2

    def test_resource_cap_exit_three(self):
        # C(24, 13) minimal primes: refused from the closed-form count
        _, code = run(["minimal-primes", "--shape", "12,12"])
        assert code == 3

    def test_catalan_past_the_term_cap_exits_three_at_once(self):
        # C_8 * 2^8 = 366,080 Specht polynomial terms: refused before any is built
        start = time.monotonic()
        out = _cli_process(["catalan", "--n", "8"], stdout=subprocess.PIPE)
        assert time.monotonic() - start < 2
        assert out.returncode == 3
        assert [v["name"] for v in json.loads(out.stdout)["verdicts"]] == ["resource_cap"]

    def test_unknown_command_exit_two(self):
        _, code = run(["frobnicate"])
        assert code == 2


def _cli_process(argv, **kwargs):
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "spechtideals.cli", *argv],
        env=env, stderr=subprocess.PIPE, text=True, timeout=300, **kwargs
    )


class TestRefusedInput:
    @pytest.mark.parametrize(
        "argv",
        [
            # a Koszul bound below the generator degree sees no generator
            ["cm-check", "--shape", "3,3", "--max-deg", "2", "--char", "0"],
            ["betti", "--shape", "2,2", "--char", "3", "--max-deg", "-1"],
            # a negative degree bound compares no degree
            ["radical-check", "--shape", "2,2", "--max-deg", "-1"],
            # the trivial shape is refused as by cm-check, betti and purity
            ["radical-check", "--shape", "3"],
            ["straighten", "--tableau", "1,2,3/4,5", "--prefix", "-1"],
            # the quotient has no component in a negative degree
            ["socle-probe", "--shape", "2,2", "--deg", "-1"],
            # the grid starts at n = 4: a smaller bound holds no cell
            ["experiment", "--n-max", "0"],
            ["experiment", "--n-max", "3", "--primes", "2"],
            # an empty prime list holds no cell either
            ["experiment", "--n-max", "4", "--primes", ""],
            ["experiment", "--n-max", "4", "--primes", ","],
            # a repeated prime would print its cells twice
            ["experiment", "--n-max", "4", "--primes", "0,0"],
            # an exact rational table exists only in characteristic 0
            ["cm-check", "--shape", "2,2", "--char", "2", "--exact-rational"],
        ],
    )
    def test_exit_two_without_traceback(self, argv):
        out = _cli_process(argv, stdout=subprocess.PIPE)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr.startswith("error: ") and "Traceback" not in out.stderr

    @pytest.mark.parametrize("char", ["0", "2"])
    def test_betti_refuses_the_trivial_shape(self, char):
        # R/I = 0: a refusal in every characteristic, not an internal error
        out = _cli_process(["betti", "--shape", "3", "--char", char], stdout=subprocess.PIPE)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: the trivial shape is excluded\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_socle_probe_names_the_squarefree_degree(self, value):
        argv = ["socle-probe", "--shape", "2,2", "--squarefree-deg", value]
        out = _cli_process(argv, stdout=subprocess.PIPE)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: --squarefree-deg must be positive\n"

    @pytest.mark.parametrize("command", ["hilbert", "radical-check"])
    def test_max_deg_names_its_flag(self, command):
        argv = [command, "--shape", "2,2", "--max-deg", "-1"]
        out = _cli_process(argv, stdout=subprocess.PIPE)
        assert out.returncode == 2
        assert out.stdout == ""
        assert out.stderr == "error: --max-deg must be nonnegative, got -1\n"

    def test_bounds_at_the_edge_stay_valid(self):
        payload, code = run_json(["cm-check", "--shape", "3,3", "--max-deg", "3"])
        assert code == 0 and verdict(payload, "is_cm") is True
        _, code = run_json(["radical-check", "--shape", "2,2", "--max-deg", "0"])
        assert code == 0
        _, code = run_json(["straighten", "--tableau", "1,4,2/5,3", "--prefix", "0"])
        assert code == 0
        payload, code = run_json(["socle-probe", "--shape", "2,2", "--deg", "0"])
        assert code == 0 and verdict(payload, "socle_dimension") == 0
        payload, code = run_json(["experiment", "--n-max", "4", "--primes", "2"])
        assert code == 0 and verdict(payload, "cells_computed") == 1


class TestInternalError:
    @pytest.mark.parametrize(
        "exc",
        [
            ProxyDisagreement("proxy tables differ"),
            AssertionError("negative Betti number"),
            SelfCheckError("self-check failed"),
        ],
    )
    def test_exit_four_not_a_finding(self, monkeypatch, exc):
        def broken(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli, "cm_verdict", broken)
        payload, code = run_json(["cm-check", "--shape", "2,2"])
        assert code == 4
        assert [v["name"] for v in payload["verdicts"]] == ["internal_error"]
        assert str(exc) in verdict(payload, "internal_error")
        assert payload["tables"] == {}

    def test_other_errors_are_not_self_checks(self, monkeypatch):
        # a crash that is no self-check keeps its class and traceback
        def broken(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli, "cm_verdict", broken)
        with pytest.raises(RecursionError):
            run(["cm-check", "--shape", "2,2"])

    def test_certified_table_with_wrong_pd(self, monkeypatch):
        # a certified CM table must have pd = lambda_1 (Auslander-Buchsbaum)
        real = betti.artinian_reduction

        def skewed(*args, **kwargs):
            tables, measured = real(*args, **kwargs)
            return [replace(t, entries={**t.entries, (5, 9): 1}) for t in tables], measured

        monkeypatch.setattr(betti, "artinian_reduction", skewed)
        payload, code = run_json(["cm-check", "--shape", "2,2"])
        assert code == 4
        assert "pd 5 != lambda_1" in verdict(payload, "internal_error")

    def test_straightening_depth_bound(self, monkeypatch):
        monkeypatch.setattr(specht, "_MAX_STRAIGHTEN_DEPTH", -1)
        payload, code = run_json(["straighten", "--tableau", "1,4,2/5,3", "--prefix", "1"])
        assert code == 4
        assert [v["name"] for v in payload["verdicts"]] == ["internal_error"]
        assert "depth bound" in verdict(payload, "internal_error")

    def test_purity_closed_form_disagreement(self, monkeypatch):
        # the purity verdict is checked against the closed form; a
        # disagreement is a failed self-check, not a finding
        real = varieties.PurityReport

        def flipped(**fields):
            return real(**{**fields, "closed_form_pure": not fields["closed_form_pure"]})

        monkeypatch.setattr(varieties, "PurityReport", flipped)
        payload, code = run_json(["purity", "--shape", "4,2,1"])
        assert code == 4
        assert [v["name"] for v in payload["verdicts"]] == ["internal_error"]
        assert "disagrees with the closed form" in verdict(payload, "internal_error")
        assert payload["tables"] == {}

    def test_components_that_differ_without_a_separating_vector(self, monkeypatch):
        # degree 3 of (3,2,1) differs by dimension, so a basis vector of the
        # larger component must lie outside the smaller one
        monkeypatch.setattr(linalg.GradedBasis, "contains", lambda self, p: True)
        payload, code = run_json(["radical-check", "--shape", "3,2,1", "--max-deg", "4"])
        assert code == 4
        assert [v["name"] for v in payload["verdicts"]] == ["internal_error"]
        assert "no degree-3 vector separates" in verdict(payload, "internal_error")

    def test_frontier_in_a_process(self):
        out = _cli_process(["cm-check", "--shape", "3,3,1", "--char", "0"], stdout=subprocess.PIPE)
        assert out.returncode == 0 and out.stderr == ""
        assert verdict(json.loads(out.stdout), "is_cm") is True

    def test_positive_characteristic_frontier_in_a_process(self):
        # the Koszul path took 2.6 s here; the Artinian length over GF(5^4)
        # answers in about 0.1 s
        start = time.monotonic()
        out = _cli_process(["cm-check", "--shape", "3,3,1", "--char", "5"], stdout=subprocess.PIPE)
        assert time.monotonic() - start < 2
        assert out.returncode == 0 and out.stderr == ""
        assert verdict(json.loads(out.stdout), "certificate") == "artinian-length"


class TestM2Failures:
    """A refused or failed betti/cm-check has no diagram: ``--format m2``
    prints its verdict instead and keeps the exit code."""

    def _main(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        out = capsys.readouterr()
        return exc.value.code, out.out, out.err

    def test_refused_betti(self, monkeypatch, capsys):
        monkeypatch.setattr(betti, "_COLUMN_CAP", 10)
        code, out, err = self._main(["betti", "--shape", "3,3", "--char", "2", "--format", "m2"], capsys)
        assert (code, err) == (3, "")
        assert re.fullmatch(r"resource_cap: [^\n]*cap is 10\n", out)

    def test_failed_self_check(self, monkeypatch, capsys):
        real = betti.artinian_reduction

        def skewed(*args, **kwargs):
            tables, measured = real(*args, **kwargs)
            return [replace(t, entries={**t.entries, (5, 9): 1}) for t in tables], measured

        monkeypatch.setattr(betti, "artinian_reduction", skewed)
        code, out, err = self._main(["cm-check", "--shape", "2,2", "--format", "m2"], capsys)
        assert (code, err) == (4, "")
        assert re.fullmatch(r"internal_error: SelfCheckError: [^\n]*pd 5 != lambda_1[^\n]*\n", out)


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv, code",
        [(["gens", "--shape", "4,4,1"], 0), (["purity", "--shape", "4,2,1"], 1)],
    )
    def test_command_exit_code_kept(self, argv, code):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader is gone before the first write
        try:
            out = _cli_process(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert out.returncode == code
        assert out.stderr == ""


class TestParser:
    def test_one_parser_serves_a_sequence(self):
        # the parser is built at the first run and reused: no argv, a
        # refused one included, leaves state behind for the next
        argvs = [
            ["hilbert", "--shape", "2,2", "--max-deg", "4"],
            ["hilbert", "--shape", "2,2", "--max-deg", "4", "--char", "3", "--format", "md"],
            ["radical-check", "--shape", "2,2", "--no-such-flag"],
            ["cm-check", "--shape", "2,2", "--exact-rational", "--format", "m2"],
            ["cm-check", "--shape", "2,2"],
            ["gens", "--shape", "2,1", "--order", "inverse", "--format", "md"],
            ["gens", "--shape", "2,1"],
            ["cm-check", "--shape", "2,2", "--char", "4"],
            ["hilbert", "--shape", "2,2", "--max-deg", "4"],
        ]

        def outcome(argv):
            report, code = run(argv)
            return code, report and report.render(report.config.output_format)

        fresh = []
        for argv in argvs:
            cli._parser.cache_clear()
            fresh.append(outcome(argv))
        cli._parser.cache_clear()
        reused = [outcome(argv) for argv in argvs]
        assert cli._parser.cache_info().misses == 1
        assert reused == fresh
        assert [code for code, _ in reused] == [0, 0, 2, 0, 0, 0, 0, 2, 0]


class TestImport:
    def test_cli_import_leaves_networkx_unloaded(self):
        # the max-flow reference engine is pure Python: nothing loads networkx
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        code = "import sys, spechtideals.cli; print('networkx' in sys.modules)"
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert out.stdout.strip() == "False"

    def test_export_list(self):
        import spechtideals

        names = spechtideals.__all__
        assert len(names) == len(set(names))
        assert [n for n in names if not hasattr(spechtideals, n)] == []
        star: dict = {}
        exec("from spechtideals import *", star)
        assert set(names) <= set(star)
