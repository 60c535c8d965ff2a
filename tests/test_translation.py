import ast
import random

import pytest

from reference import ROOT

from elas.randgen import (
    random_epistemic_model, random_formula, random_model, random_sigma,
)
from elas.semantics import Signature, eval_formula
from elas.syntax import Not, Top, free_vars, is_el_fragment, parse_formula
from elas.translation import (
    _holds, AgentVar, FolEvalError, ForallWorld, SortError, WorldVar,
    check_sorts, fol_eval, induce_structure, print_fol, translate,
    translate_universal,
)


class TestTranslationClauses:
    def test_knowledge_clause(self):
        out = print_fol(translate(parse_formula("K{a} P(?x)")))
        assert out == "forall_w v0. (R(w, v0, f_a(w)) -> Q_P(v0, x))"

    def test_self_assignment_collapses(self):
        out = print_fol(translate(parse_formula("[?x := ?x] P(?x)")))
        assert out == "Q_P(w, x)"

    def test_assignment_existential(self):
        out = print_fol(translate(parse_formula("[?x := b] P(?x)")))
        assert out == "exists_a x. (x = f_b(w) & Q_P(w, x))"

    def test_assignment_universal(self):
        out = print_fol(translate_universal(parse_formula("[?x := b] P(?x)")))
        assert out == "forall_a x. (x = f_b(w) -> Q_P(w, x))"

    def test_forms_agree_on_binder_free_input(self):
        rng = random.Random(9)
        for _ in range(100):
            phi = random_formula(rng, ("x",), ("a",), {"P": 1},
                                 depth=3, allow_assign=False)
            assert is_el_fragment(phi)
            assert translate(phi) == translate_universal(phi)

    def test_fresh_world_variables_left_to_right(self):
        out = print_fol(translate(parse_formula("K{a} P(b) & K{a} Q(b)")))
        assert "v0" in out and "v1" in out

    def test_world_variables_avoid_formula_variables(self):
        out = print_fol(translate(parse_formula("K{a} P(?v0) & K{?v1} P(?w)")))
        assert out == ("(forall_w v2. (R(w, v2, f_a(w)) -> Q_P(v2, v0)) & "
                       "forall_w v3. (R(w, v3, v1) -> Q_P(v3, w)))")

    def test_world_variables_avoid_world_var(self):
        out = print_fol(translate(parse_formula("K{a} P(a)"), "v0"))
        assert out == "forall_w v1. (R(v0, v1, f_a(v0)) -> Q_P(v1, f_a(v1)))"

    def test_nested_boxes(self):
        out = print_fol(translate(parse_formula("K{a} K{?x} P(?x)")))
        assert out == ("forall_w v0. (R(w, v0, f_a(w)) -> "
                       "forall_w v1. (R(v0, v1, x) -> Q_P(v1, x)))")


class TestInducedStructure:
    def test_name_function(self, m1):
        s = induce_structure(m1)
        assert s.names[("a", "s1")] == "j"
        assert s.names[("a", "s2")] == "i"

    def test_relation_size_is_tagged_union(self, m1):
        s = induce_structure(m1)
        assert len(s.rel) == sum(len(r) for r in m1.relations.values())

    def test_predicate_tuples(self, m1):
        s = induce_structure(m1)
        assert s.preds["P"] == {("s2", "i"), ("s2", "j")}


class TestFolEval:
    def test_quantifier_over_empty_matrix(self, m1):
        s = induce_structure(m1)
        assert fol_eval(s, {}, ForallWorld("u", Top())) is True

    def test_separating_formula(self, m1, m2):
        phi = translate(parse_formula("[?x := a] Kh{a} P(?x)"))
        assert fol_eval(induce_structure(m1), {"w": "s1", "x": "i"}, phi) is True
        assert fol_eval(induce_structure(m2), {"w": "s1", "x": "i"}, phi) is False

    def test_unbound_variable(self, m1):
        phi = translate(parse_formula("P(?x)"))
        with pytest.raises(FolEvalError):
            fol_eval(induce_structure(m1), {"w": "s1"}, phi)

    def test_world_var_v0_agrees_with_checker(self, m1):
        phi = parse_formula("K{a} P(a)")
        s = induce_structure(m1)
        for world in m1.worlds:
            expected = eval_formula(m1, world, {}, phi)
            for tr in (translate, translate_universal):
                assert fol_eval(s, {"v0": world}, tr(phi, "v0")) is expected

    def test_sorts_are_separate_namespaces(self, m1):
        phi = parse_formula("K{a} P(?w) & [?v0 := a] P(?v0)")
        s = induce_structure(m1)
        for world in m1.worlds:
            for agent in m1.agents:
                expected = eval_formula(m1, world, {"w": agent}, phi)
                valuation = {WorldVar("w"): world, AgentVar("w"): agent}
                assert fol_eval(s, valuation, translate(phi)) is expected
                assert fol_eval(s, valuation, translate_universal(phi)) is expected

    def test_sort_mismatch(self, m1):
        phi = translate(parse_formula("P(?x)"))
        with pytest.raises(SortError):
            fol_eval(induce_structure(m1), {"w": "s1", "x": "s1"}, phi)

    def test_not_a_formula(self, m1):
        s = induce_structure(m1)
        for bad in ("P(a)", 5, Not(5)):
            with pytest.raises(TypeError, match="not a first-order formula"):
                _holds(s, {}, {}, bad)
            with pytest.raises(TypeError, match="not a first-order formula"):
                fol_eval(s, {}, bad)
            with pytest.raises(TypeError, match="not a formula"):
                translate(bad)


class TestOracleAgreement:
    def test_random_cases(self):
        rng = random.Random(4242)
        sig = Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))
        for trial in range(1000):
            sample = random_epistemic_model if trial % 2 else random_model
            model = sample(rng, sig, 3, 3)
            phi = random_formula(rng, ("x", "y"), ("a", "b"),
                                 {"P": 1, "Q": 2}, depth=4)
            sigma = random_sigma(rng, sorted(free_vars(phi)), model)
            world = rng.choice(model.worlds)
            expected = eval_formula(model, world, sigma, phi)
            structure = induce_structure(model)
            valuation = dict(sigma)
            valuation["w"] = world
            assert fol_eval(structure, valuation, translate(phi)) == expected
            assert fol_eval(structure, valuation,
                            translate_universal(phi)) == expected


class TestSortChecker:
    def test_translations_are_well_sorted(self):
        rng = random.Random(5150)
        for _ in range(200):
            phi = random_formula(rng, ("x", "y", "w", "v0"), ("a",), {"P": 1},
                                 depth=4)
            out = translate(phi)
            assert check_sorts(out, world_vars={"w"},
                               agent_vars=free_vars(phi)) == []

    def test_detects_misuse(self):
        from elas.translation import AgentEq
        bad = AgentEq(WorldVar("w"), AgentVar("x"))
        assert check_sorts(bad, world_vars={"w"}, agent_vars={"x"})

    def test_detects_variable_bound_at_other_sort(self):
        phi = translate(parse_formula("P(?w)"))
        assert check_sorts(phi, world_vars={"w"}) == [
            "agent variable w is not bound at agent sort"]


class TestEvaluatorLayering:
    """fol_eval and the tests' naive_eval stay independent of the reference
    evaluator: neither module may take anything else from semantics."""

    @staticmethod
    def _from_semantics(path) -> set:
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                if (node.module or "").rpartition(".")[2] == "semantics":
                    names |= {alias.name for alias in node.names}
                else:
                    names |= {"semantics" for alias in node.names
                              if alias.name == "semantics"}
            elif isinstance(node, ast.Import):
                names |= {"semantics" for alias in node.names
                          if alias.name.rpartition(".")[2] == "semantics"}
        return names

    def test_translation_takes_only_the_model_type(self):
        assert self._from_semantics(ROOT / "src" / "elas" / "translation.py") == {"KripkeModel"}

    def test_naive_eval_takes_only_the_loader(self):
        # the m1/m2 fixtures load their files with load_model
        assert self._from_semantics(ROOT / "tests" / "conftest.py") <= {"load_model"}
