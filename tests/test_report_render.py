"""The report's JSON text: ``cli._json_text`` writes what
``json.dumps(obj, sort_keys=True, indent=2)`` writes, byte for byte."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from spechtideals import cli
from spechtideals.cli import _COMMANDS, _json_text, run


def reference(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2)


# control characters, the escaped ones, DEL, non-ASCII and astral code points
_AWKWARD = st.sampled_from('"\\/\x00\x01\x08\x0c\x1f\x7f\n\r\t é \ud800\U0001f600a')
_TEXT = st.one_of(st.text(), st.text(alphabet=_AWKWARD))
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    _TEXT,
)


def _containers(children):
    # the keys of one dict come from one family that sorts: text, numbers
    # (int, bool and float, NaN and +-inf among them) or None
    number_keys = st.one_of(st.integers(), st.booleans(), st.floats(allow_nan=True))
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_TEXT, children, max_size=4),
        st.dictionaries(number_keys, children, max_size=4),
        st.dictionaries(st.none(), children, max_size=1),
    )


_VALUES = st.recursive(_SCALARS, _containers, max_leaves=25)


class TestJsonText:
    @settings(max_examples=400, deadline=None)
    @given(_VALUES)
    def test_equals_json_dumps(self, obj):
        assert _json_text(obj) == reference(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": ()},
            [[[]], {"x": [{}]}],
            {1: "int", 2.5: "float", False: "bool"},
            {None: [None, True, False]},
            [float("nan"), float("inf"), -float("inf"), -0.0, 1e16, 0.1],
            {float("nan"): 1, float("inf"): 2, -float("inf"): 3},
            "é\x00\"\\\n\ud800\U0001f600",
            ((1, 2), (3,)),
        ],
    )
    def test_edge_cases(self, obj):
        assert _json_text(obj) == reference(obj)

    @pytest.mark.parametrize(
        "bad",
        [
            Fraction(1, 2),
            {1, 2},
            {"k": [Fraction(3)]},
            [{2}],
            # keys: other types, and families that do not sort together
            {Fraction(1, 2): 1},
            {(1, 2): 1},
            {"a": 1, 2: 3},
        ],
    )
    def test_other_types_raise_type_error(self, bad):
        with pytest.raises(TypeError) as ours:
            _json_text(bad)
        with pytest.raises(TypeError) as theirs:
            reference(bad)
        assert str(ours.value) == str(theirs.value)


# one run per subcommand, each with at least one table
_RUNS = {
    "gens": ["gens", "--shape", "2,2"],
    "hilbert": ["hilbert", "--shape", "3,2", "--max-deg", "4"],
    "radical-check": ["radical-check", "--shape", "3,2,1", "--max-deg", "4"],
    "minimal-primes": ["minimal-primes", "--shape", "3,1,1"],
    "purity": ["purity", "--shape", "3,2,2"],
    "betti": ["betti", "--shape", "2,2", "--char", "2"],
    "cm-check": ["cm-check", "--shape", "2,2"],
    "catalan": ["catalan", "--n", "2"],
    "straighten": ["straighten", "--tableau", "1,4,2/5,3", "--prefix", "1"],
    "condition-star": ["condition-star", "--shape", "2,2", "--blocks", "1,2|3,4"],
    "socle-probe": ["socle-probe", "--shape", "2,2", "--char", "2"],
    "experiment": ["experiment", "--n-max", "4", "--primes", "2"],
}


class TestReports:
    def test_every_command_covered(self):
        assert set(_RUNS) == set(_COMMANDS)

    @pytest.mark.parametrize("fmt", ["json", "md"])
    @pytest.mark.parametrize("command", sorted(_RUNS))
    def test_renders_as_json_dumps_did(self, monkeypatch, command, fmt):
        report, _ = run(_RUNS[command] + ["--format", fmt])
        text = report.render(fmt)
        monkeypatch.setattr(cli, "_json_text", reference)
        assert text == report.render(fmt)
