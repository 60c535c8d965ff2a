"""Hand-worked cases for the benchmark's reference computations."""

import json

import pytest

import oracle
from elas import syntax
from elas.syntax import parse_formula
from workloads import ROOT, SYNTAX_CLASSES

CTORS = {name: getattr(syntax, name) for name in SYNTAX_CLASSES}


def doc(name):
    return json.loads((ROOT / "fixtures" / name).read_text())


@pytest.mark.parametrize("fixture, world, text, expected", [
    # a names j at s1; j cannot tell s1 from s2, and only m1 has P(j) at s2.
    ("m1.json", "s1", "[?x := a] Kh{a} P(?x)", True),
    ("m2.json", "s1", "[?x := a] Kh{a} P(?x)", False),
    ("m1.json", "s1", "P(a)", False),
    # a names i at s2, i sees only s2, where i is P: de dicto knowledge.
    ("m1.json", "s2", "K{a} P(a)", True),
    # de re at s1: of j, the bearer of a, j does not know P (not P at s1).
    ("m1.json", "s1", "[?x := a] K{a} P(?x)", False),
])
def test_paper_cases(fixture, world, text, expected):
    assert oracle.DocModel(doc(fixture)).holds(parse_formula(text), world, {}) is expected


def test_frame_check():
    oracle.check_frame(doc("m1.json"), 2, 2)
    broken = doc("m1.json")
    broken["relations"]["i"] = [["s1", "s1"]]
    with pytest.raises(oracle.CheckError, match="not reflexive"):
        oracle.check_frame(broken, 2, 2)
    with pytest.raises(oracle.CheckError, match="bound 1"):
        oracle.check_frame(doc("m1.json"), 1, 2)


def test_closed_form_count():
    assert [oracle.bell(n) for n in range(1, 6)] == [1, 2, 5, 15, 52]
    # P unary, one agent: 1 world gives 2 models, 2 worlds give 2 * 2**2
    # models pointed at 2 worlds.
    assert oracle.pointed_models_covered({"P": 1}, 0, 0, 2, 1) == 2 + 16


def test_separation_models_need_a_binder():
    d1, d2 = doc("m1.json"), doc("m2.json")
    p1 = (oracle.DocModel(d1), "s1", {"x": "i"})
    p2 = (oracle.DocModel(d2), "s1", {"x": "i"})
    oracle.no_distinguisher(p1, p2, 9, False, CTORS)
    with pytest.raises(oracle.CheckError, match="separates"):
        oracle.no_distinguisher(p1, p2, 9, True, CTORS)
