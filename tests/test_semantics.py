import json
import pickle
import random

import pytest

from reference import FIXTURES, naive_eval

from elas.randgen import (
    random_epistemic_model, random_formula, random_model, random_sigma,
)
from elas.semantics import (
    EvalError, ModelError, Signature, denote, digit_mask, eval_all_worlds,
    eval_formula, is_epistemic, load_model, make_model, model_from_dict,
    model_to_dict, validate_model,
)
from elas.syntax import (
    Assign, Name, Not, Var, all_vars, free_vars, parse_formula, reletter,
    substitute,
)

DISTINGUISHER = "[?x := a] Kh{a} P(?x)"


def small_sig():
    return Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))


class TestValidation:
    def test_fixtures_are_clean(self, m1, m2):
        assert validate_model(m1) == []
        assert validate_model(m2) == []

    def test_eta_totality(self, m1):
        broken = make_model(m1.worlds, m1.agents, m1.relations, m1.rho,
                            {("a", "s1"): "j"}, m1.signature)
        assert any("eta not total" in v for v in validate_model(broken))

    def test_rho_arity(self, m1):
        broken = make_model(m1.worlds, m1.agents, m1.relations,
                            {("P", "s1"): frozenset({("i", "j")})},
                            m1.eta, m1.signature)
        assert any("arity" in v for v in validate_model(broken))

    def test_relation_endpoints(self, m1):
        broken = make_model(m1.worlds, m1.agents,
                            {"i": {("s1", "nowhere")}}, m1.rho, m1.eta,
                            m1.signature)
        assert any("endpoint" in v for v in validate_model(broken))

    def test_loader_rejects_false_epistemic_claim(self, tmp_path):
        doc = json.loads((FIXTURES / "m1.json").read_text())
        doc["relations"]["j"] = [["s1", "s2"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ModelError, match="equivalence"):
            load_model(str(path))

    def test_round_trip_dict(self, m1):
        assert model_from_dict(model_to_dict(m1)) == m1


class TestImmutability:
    def test_mappings_are_read_only(self, m1):
        for mapping, key in ((m1.eta, ("a", "s1")), (m1.rho, ("P", "s2")),
                             (m1.relations, "i")):
            with pytest.raises(TypeError):
                mapping[key] = mapping[key]

    def test_successors_filled_at_construction(self):
        m = random_model(random.Random(4), small_sig(), 4, 3)
        for agent in m.agents:
            for w in m.worlds:
                expected = tuple(sorted(v for u, v in m.relations.get(agent, ())
                                        if u == w))
                assert m.successors(agent, w) == expected

    def test_hash_agrees_with_equality(self, m1, m2):
        again = load_model(str(FIXTURES / "m1.json"))
        assert again == m1 and hash(again) == hash(m1)
        assert len({m1, again, m2}) == 2

    def test_pickle_round_trip(self, m1):
        back = pickle.loads(pickle.dumps(m1))
        assert back == m1 and hash(back) == hash(m1)
        assert back.successors("j", "s1") == m1.successors("j", "s1")


class TestEpistemic:
    def test_fixture(self, m1):
        assert is_epistemic(m1)

    def test_not_reflexive(self, m1):
        broken = make_model(m1.worlds, m1.agents, {"i": {("s1", "s2")}},
                            m1.rho, m1.eta, m1.signature)
        assert not is_epistemic(broken)

    def test_single_reflexive_world(self):
        m = make_model(("s1",), ("i",), {"i": {("s1", "s1")}}, {}, {},
                       Signature({}, frozenset()))
        assert is_epistemic(m)


class TestDenotation:
    def test_names_are_world_relative(self, m1):
        assert denote(m1, {}, "s1", Name("a")) == "j"
        assert denote(m1, {}, "s2", Name("a")) == "i"

    def test_variables_are_rigid(self, m1):
        assert denote(m1, {"x": "i"}, "s1", Var("x")) == "i"
        assert denote(m1, {"x": "i"}, "s2", Var("x")) == "i"

    def test_errors(self, m1):
        with pytest.raises(EvalError, match=r"\?x"):
            denote(m1, {}, "s1", Var("x"))
        with pytest.raises(EvalError, match="zz"):
            denote(m1, {}, "s1", Name("zz"))


class TestEval:
    def test_separation(self, m1, m2):
        phi = parse_formula(DISTINGUISHER)
        assert eval_formula(m1, "s1", {"x": "i"}, phi) is True
        assert eval_formula(m2, "s1", {"x": "i"}, phi) is False

    def test_reflexive_equality(self, m1):
        for w in m1.worlds:
            assert eval_formula(m1, w, {}, parse_formula("a = a"))

    def test_rigid_equality_instance(self, m1):
        phi = parse_formula("?x = ?y -> K{a} ?x = ?y")
        doc = model_to_dict(m1)
        for w in m1.worlds:
            for gx in m1.agents:
                for gy in m1.agents:
                    sigma = {"x": gx, "y": gy}
                    got = eval_formula(m1, w, sigma, phi)
                    assert got == naive_eval(doc, w, sigma, phi)
                    assert got is True

    def test_all_worlds(self, m1, m2):
        phi = parse_formula("P(a)")
        assert eval_all_worlds(m1, {}, phi) == {"s1": False, "s2": True}
        assert eval_all_worlds(m2, {}, phi) == {"s1": False, "s2": True}
        assert eval_all_worlds(m1, {}, parse_formula("a = a")) == \
            {"s1": True, "s2": True}

    def test_coverage_failures(self, m1):
        with pytest.raises(EvalError, match=r"\?x"):
            eval_formula(m1, "s1", {}, parse_formula("K{a} P(?x)"))
        with pytest.raises(EvalError, match="name b"):
            eval_formula(m1, "s1", {}, parse_formula("P(b)"))
        with pytest.raises(EvalError, match="predicate Q"):
            eval_formula(m1, "s1", {}, parse_formula("Q(a)"))
        with pytest.raises(EvalError, match="arity"):
            eval_formula(m1, "s1", {}, parse_formula("P(a, a)"))
        with pytest.raises(EvalError, match="world"):
            eval_formula(m1, "zz", {}, parse_formula("a = a"))

    def test_uncovered_variable_is_an_error_even_when_unreachable(self, m1):
        # no default value: missing sigma entries fail loudly
        with pytest.raises(EvalError):
            eval_formula(m1, "s1", {}, parse_formula("P(?x) | ~P(?x)"))


class TestDigitMask:
    @pytest.mark.parametrize("rows, weight, base, value", [
        # truth-table columns: atom p over 2 ** atoms rows
        (2, 1, 2, 1), (8, 1, 2, 1), (8, 4, 2, 1), (1 << 16, 1 << 15, 2, 1),
        (1 << 16, 1, 2, 1),
        # scan-index digits: any base, any value, rows a multiple of the period
        (3, 1, 3, 0), (3, 1, 3, 2), (27, 3, 3, 1), (54, 27, 2, 1),
        (72, 8, 3, 2), (59049, 6561, 3, 1), (64, 1, 1, 0),
        # rows below the period, and rows no power of two times it
        (5, 4, 2, 1), (45, 1, 3, 2),
    ])
    def test_matches_row_by_row(self, rows, weight, base, value):
        expected = sum(1 << r for r in range(rows) if r // weight % base == value)
        assert digit_mask(rows, weight, base, value) == expected


class TestAgainstIndependentEvaluator:
    def test_random_agreement(self):
        rng = random.Random(2024)
        sig = small_sig()
        for trial in range(300):
            sample = random_epistemic_model if trial % 2 else random_model
            model = sample(rng, sig, 3, 3)
            phi = random_formula(rng, ("x", "y"), ("a", "b"),
                                 {"P": 1, "Q": 2}, depth=3)
            sigma = random_sigma(rng, sorted(free_vars(phi)), model)
            world = rng.choice(model.worlds)
            doc = model_to_dict(model)
            assert eval_formula(model, world, sigma, phi) == \
                naive_eval(doc, world, sigma, phi)


class TestSemanticProperties:
    def _cases(self, seed, count, depth=3, allow_assign=True):
        rng = random.Random(seed)
        sig = small_sig()
        made = 0
        while made < count:
            model = random_epistemic_model(rng, sig, 3, 3)
            phi = random_formula(rng, ("x", "y", "z"), ("a", "b"),
                                 {"P": 1, "Q": 2}, depth, allow_assign)
            sigma = random_sigma(rng, ("x", "y", "z"), model)
            world = rng.choice(model.worlds)
            yield rng, model, world, sigma, phi
            made += 1

    def test_assignment_self_duality(self):
        for rng, model, world, sigma, phi in self._cases(31, 250):
            var = rng.choice(("x", "y"))
            term = rng.choice((Var("y"), Name("a")))
            box = Assign(var, term, phi)
            diamond = Not(Assign(var, term, Not(phi)))
            assert eval_formula(model, world, sigma, box) == \
                eval_formula(model, world, sigma, diamond)

    def test_substitution_lemma(self):
        from elas.syntax import is_admissible
        done = 0
        for rng, model, world, sigma, phi in self._cases(32, 600):
            if not is_admissible(phi, "y", "x"):
                continue
            moved = dict(sigma)
            moved["x"] = sigma["y"]
            assert eval_formula(model, world, sigma, substitute(phi, "y", "x")) \
                == eval_formula(model, world, moved, phi)
            done += 1
        assert done >= 250

    def test_sigma_irrelevance(self):
        for rng, model, world, sigma, phi in self._cases(33, 250):
            base = eval_formula(model, world, sigma, phi)
            noisy = dict(sigma)
            for v in ("u", "v"):
                noisy[v] = rng.choice(model.agents)
            for v in set(noisy) - free_vars(phi):
                noisy[v] = rng.choice(model.agents)
            assert eval_formula(model, world, noisy, phi) == base

    def test_relettering_invariance(self):
        done = 0
        for rng, model, world, sigma, phi in self._cases(34, 800):
            if not isinstance(phi, Assign) or "w" in all_vars(phi):
                continue
            assert eval_formula(model, world, sigma, phi) == \
                eval_formula(model, world, sigma, reletter(phi, "w"))
            done += 1
        assert done >= 90

    def test_name_indexed_factivity_on_epistemic_models(self):
        from elas.syntax import Implies, Knows
        for rng, model, world, sigma, phi in self._cases(35, 300):
            index = Name(rng.choice(("a", "b"))) if rng.random() < 0.7 \
                else Var(rng.choice(("x", "y")))
            instance = Implies(Knows(index, phi), phi)
            assert eval_formula(model, world, sigma, instance)
