import os
import random
import subprocess
import sys
import time

import pytest

from reference import PROOFS, ROOT

from elas.proofkit import (
    AXIOM_IDS, BUNDLED, _LEMMA_BUILDERS, AtomBudgetError, Axiom, Lemma, MP,
    NecAs, NecK, ProofScript, ProofStep, ScriptError, Taut, bundled_theorems,
    check_proof, check_step, check_taut, connective_mutations,
    instantiate_lemma, load_script, match_axiom, parse_script, print_script,
)
from elas.randgen import random_epistemic_model, random_sigma
from elas.semantics import Signature, eval_formula
from elas.suites import random_axiom_instance
from elas.syntax import (
    And, Assign, Eq, Iff, Implies, Knows, Name, Not, Or, Pred, Var,
    formula_signature, free_vars, parse_formula,
)


def quick_reject(script: ProofScript) -> bool:
    """True when check_proof would reject; bails at the first failure."""
    if script.steps[-1].formula != script.goal:
        return True
    for step in script.steps:
        if not check_step(script, step.index).ok:
            return True
    return False


class TestMatchAxiom:
    def test_efas(self):
        assert match_axiom("EFAS", parse_formula("[?x := b] ?x = b"))

    def test_rigidp_demands_variables(self):
        assert match_axiom("RIGIDP", parse_formula("?x = ?y -> K{b} ?x = ?y"))
        assert match_axiom("RIGIDP", parse_formula("?x = a -> K{b} ?x = a")) is None

    def test_sub2as_admissibility(self):
        good = parse_formula("K{?y} P(?y) -> [?x := ?y] K{?x} P(?x)")
        assert match_axiom("SUB2AS", good)
        captured = parse_formula("[?y := c] P(?y) -> [?x := ?y] [?y := c] P(?x)")
        assert match_axiom("SUB2AS", captured) is None

    def test_subp_with_equality_predicate(self):
        phi = parse_formula("(a = b & a = a) -> (a = a <-> b = a)")
        witness = match_axiom("SUBP", phi)
        assert witness and witness["P"] == "="

    def test_subp_vector(self):
        phi = parse_formula("(?x = a & ?y = b) -> (Q(?x, ?y) <-> Q(a, b))")
        assert match_axiom("SUBP", phi)
        wrong = parse_formula("(?x = a) -> (Q(?x, ?y) <-> Q(a, b))")
        assert match_axiom("SUBP", wrong) is None

    def test_das_needs_truth_constant(self):
        assert match_axiom("DAS", parse_formula("<?x := a> true"))
        assert match_axiom("DAS", parse_formula("<?x := a> P(b)")) is None

    def test_s5_axioms_demand_variable_index(self):
        assert match_axiom("Tx", parse_formula("K{?x} P(a) -> P(a)"))
        assert match_axiom("Tx", parse_formula("K{a} P(a) -> P(a)")) is None
        assert match_axiom("4x", parse_formula(
            "K{?x} P(a) -> K{?x} K{?x} P(a)"))
        assert match_axiom("4x", parse_formula(
            "K{a} P(a) -> K{a} K{a} P(a)")) is None

    def test_unknown_axiom(self):
        with pytest.raises(ValueError):
            match_axiom("FOO", parse_formula("a = a"))

    def test_random_instances_accepted(self):
        rng = random.Random(99)
        for axiom_id in AXIOM_IDS:
            for _ in range(1000):
                phi = random_axiom_instance(axiom_id, rng)
                assert match_axiom(axiom_id, phi) is not None, (axiom_id, phi)

    def test_random_side_condition_violations_rejected(self):
        from elas.randgen import random_formula
        from elas.syntax import is_admissible

        def naive_subst(phi, y, x):
            """Capture-permitting textual substitution (what an instance
            built from an inadmissible binding would look like)."""
            match phi:
                case Var(v):
                    return Var(y) if v == x else phi
                case Name(_):
                    return phi
                case Pred(sym, args):
                    return Pred(sym, tuple(naive_subst(t, y, x) for t in args))
                case Eq(l, r):
                    return Eq(naive_subst(l, y, x), naive_subst(r, y, x))
                case Not(body):
                    return Not(naive_subst(body, y, x))
                case And(l, r):
                    return And(naive_subst(l, y, x), naive_subst(r, y, x))
                case Or(l, r):
                    return Or(naive_subst(l, y, x), naive_subst(r, y, x))
                case Implies(l, r):
                    return Implies(naive_subst(l, y, x), naive_subst(r, y, x))
                case Iff(l, r):
                    return Iff(naive_subst(l, y, x), naive_subst(r, y, x))
                case Knows(agent, body):
                    return Knows(naive_subst(agent, y, x), naive_subst(body, y, x))
                case Assign(var, term, body):
                    inner = body if var == x else naive_subst(body, y, x)
                    return Assign(var, naive_subst(term, y, x), inner)
            return phi

        rng = random.Random(202)
        rejected = 0
        while rejected < 200:
            phi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=3)
            if is_admissible(phi, "y", "x"):
                continue
            candidate = Implies(naive_subst(phi, "y", "x"),
                                Assign("x", Var("y"), phi))
            assert match_axiom("SUB2AS", candidate) is None
            rejected += 1
        # name indices never instantiate the variable-only schemas
        for _ in range(200):
            body = random_formula(rng, ("x",), ("a", "b"), {"P": 1}, depth=2)
            named_t = Implies(Knows(Name("a"), body), body)
            assert match_axiom("Tx", named_t) is None
            eq = Eq(Var("x"), Name("a"))
            assert match_axiom("RIGIDP", Implies(eq, Knows(Name("b"), eq))) is None
            assert match_axiom("RIGIDN",
                               Implies(Not(eq), Knows(Name("b"), Not(eq)))) is None


class TestCheckTaut:
    def test_excluded_middle(self):
        assert check_taut(parse_formula("K{a} P(b) | ~K{a} P(b)"))

    def test_distinct_atoms(self):
        assert not check_taut(parse_formula("P(a) -> P(b)"))

    def test_modus_ponens_shape(self):
        assert check_taut(parse_formula("(P(a) & (P(a) -> Q(b))) -> Q(b)"))

    def test_atom_budget(self):
        literals = [f"P(a{i}) " for i in range(17)]
        text = "(" + "& ".join(literals) + ") -> P(a0)"
        with pytest.raises(AtomBudgetError):
            check_taut(parse_formula(text))

    def test_sixteen_atoms_within_budget(self):
        # the 2 ** 16-row table is evaluated in one pass over bit vectors
        conjunction = "(" + " & ".join(f"P(a{i})" for i in range(16)) + ")"
        start = time.perf_counter()
        assert check_taut(parse_formula(conjunction + " -> P(a15)"))
        assert not check_taut(parse_formula(conjunction + " -> ~P(a0)"))
        assert time.perf_counter() - start < 0.5

    def test_modal_subformulas_are_opaque(self):
        # K{a}(P & Q) -> K{a}P is valid but not propositionally so
        assert not check_taut(parse_formula("K{a} (P & Q) -> K{a} P"))


class TestBundledScripts:
    def test_all_check(self):
        for name, script in bundled_theorems().items():
            report = check_proof(script)
            assert report.ok, (name, [v for v in report.steps if not v.ok])

    def test_expected_goals(self):
        goals = {name: script.goal for name, script in bundled_theorems().items()}
        assert goals["T"] == parse_formula("K{a} P(b) -> P(b)")
        assert goals["EX"] == parse_formula("[?x := ?x] P(?x) <-> P(?x)")
        assert goals["DBASEQ"] == parse_formula(
            "<?x := a> P(?x) <-> [?x := a] P(?x)")
        assert goals["SUBASEQ"] == parse_formula(
            "K{?y} P(?y) <-> [?x := ?y] K{?x} P(?x)")
        assert goals["RELETTER"] == parse_formula(
            "[?x := a] K{?x} P(?x) <-> [?z := a] K{?z} P(?z)")

    def test_lemmas_cite_only_earlier_scripts(self):
        assert set(_LEMMA_BUILDERS) <= set(BUNDLED)
        for pos, (name, script) in enumerate(bundled_theorems().items()):
            for step in script.steps:
                if isinstance(step.just, Lemma):
                    assert step.just.name in BUNDLED[:pos], (name, step.index)

    def test_every_step_is_used(self):
        for name, script in bundled_theorems().items():
            cited = set()
            for step in script.steps:
                match step.just:
                    case MP(i, j):
                        cited |= {i, j}
                    case NecK(i, _) | NecAs(i, _, _):
                        cited.add(i)
            dead = [s.index for s in script.steps[:-1] if s.index not in cited]
            assert not dead, (name, dead)

    def test_corrupted_step_is_rejected(self):
        script = bundled_theorems()["T"]
        steps = list(script.steps)
        steps[4] = ProofStep(steps[4].index, parse_formula("P(a)"),
                             steps[4].just)
        report = check_proof(ProofScript(script.goal, tuple(steps)))
        assert not report.ok
        assert any(v.index == steps[4].index for v in report.failures())


class TestRules:
    def test_mp(self):
        script = ProofScript(parse_formula("Q(b)"), (
            ProofStep(1, parse_formula("P(a) | ~P(a)"), Taut()),
            ProofStep(2, parse_formula("(P(a) | ~P(a)) -> Q(b)"), Taut()),
            ProofStep(3, parse_formula("Q(b)"), MP(1, 2)),
        ))
        assert check_step(script, 3).ok
        assert not check_step(script, 2).ok          # not a tautology
        assert not check_proof(script).ok

    def test_mp_operand_order(self):
        script = ProofScript(parse_formula("Q(b)"), (
            ProofStep(1, parse_formula("P(a) | ~P(a)"), Taut()),
            ProofStep(2, parse_formula("(P(a) | ~P(a)) -> Q(b)"), Taut()),
            ProofStep(3, parse_formula("Q(b)"), MP(2, 1)),
        ))
        assert not check_step(script, 3).ok

    def test_neck(self):
        script = ProofScript(parse_formula("K{b} (a = a)"), (
            ProofStep(1, parse_formula("a = a"), Axiom("ID")),
            ProofStep(2, parse_formula("K{b} (a = a)"), NecK(1, Name("b"))),
        ))
        assert check_proof(script).ok
        wrong = ProofScript(parse_formula("K{c} (a = a)"), (
            ProofStep(1, parse_formula("a = a"), Axiom("ID")),
            ProofStep(2, parse_formula("K{c} (a = a)"), NecK(1, Name("b"))),
        ))
        assert not check_proof(wrong).ok

    def test_necas_side_condition(self):
        premise = parse_formula("P(?x) -> P(?x)")
        conclusion = parse_formula("P(?x) -> [?x := a] P(?x)")
        script = ProofScript(conclusion, (
            ProofStep(1, premise, Taut()),
            ProofStep(2, conclusion, NecAs(1, "x", Name("a"))),
        ))
        verdict = check_step(script, 2)
        assert not verdict.ok and "side condition" in verdict.message

    def test_necas_accepts_when_var_not_free_in_antecedent(self):
        premise = parse_formula("P(a) -> P(?x)")
        conclusion = parse_formula("P(a) -> [?x := a] P(?x)")
        script = ProofScript(conclusion, (
            ProofStep(1, premise, Taut()),          # deliberately not checked here
            ProofStep(2, conclusion, NecAs(1, "x", Name("a"))),
        ))
        assert check_step(script, 2).ok

    def test_forward_reference_rejected(self):
        script = ProofScript(parse_formula("P(a)"), (
            ProofStep(1, parse_formula("P(a)"), MP(1, 2)),
            ProofStep(2, parse_formula("P(a) -> P(a)"), Taut()),
        ))
        assert not check_step(script, 1).ok


class TestLemmaCitations:
    def test_instantiation(self):
        goal = instantiate_lemma("EAS", {"x": "z", "t": Name("a"),
                                         "phi": parse_formula("P(b)")})
        assert goal == parse_formula("[?z := a] P(b) <-> P(b)")

    def test_side_condition_enforced(self):
        with pytest.raises(ScriptError, match="free"):
            instantiate_lemma("EAS", {"x": "x", "t": Name("a"),
                                      "phi": parse_formula("P(?x)")})
        with pytest.raises(ScriptError, match="admissible"):
            instantiate_lemma("SUBASEQ", {
                "x": "x", "y": "y",
                "phi": parse_formula("[?y := c] P(?x)")})
        with pytest.raises(ScriptError, match="fresh"):
            instantiate_lemma("RELETTER", {
                "x": "x", "t": Name("a"), "z": "z",
                "phi": parse_formula("K{?z} P(?x)")})

    def test_wrong_instance_rejected(self):
        step = ProofStep(1, parse_formula("[?z := a] P(b) <-> P(c)"),
                         Lemma("EAS", (("phi", parse_formula("P(b)")),
                                       ("t", Name("a")), ("x", Var("z")))))
        script = ProofScript(step.formula, (step,))
        verdict = check_step(script, 1)
        assert not verdict.ok and "instantiates" in verdict.message

    def test_unknown_lemma(self):
        step = ProofStep(1, parse_formula("a = a"), Lemma("NOPE", ()))
        script = ProofScript(step.formula, (step,))
        assert not check_step(script, 1).ok


class TestScriptText:
    def test_round_trip_all_bundled(self):
        for script in bundled_theorems().values():
            assert parse_script(print_script(script)) == script

    def test_comments_and_errors(self):
        text = "# a comment\ngoal: a = a\n1. a = a ; axiom ID\n"
        script = parse_script(text)
        assert check_proof(script).ok
        with pytest.raises(ScriptError):
            parse_script("1. a = a ; axiom ID\n")        # no goal
        with pytest.raises(ScriptError):
            parse_script("goal: a = a\n1. a = a ; axiom NOPE\n")
        with pytest.raises(ScriptError):
            parse_script("goal: a = a\n")                # no steps
        for just in ("lemma SYM with t1 := a, t2 := b, t1 := c",  # key twice
                     "lemma SYM with",                # no bindings
                     "lemma SYM t1 := a, t2 := b",    # no 'with'
                     "lemma SYM with t1 := a, := b",  # empty key
                     "lemma",                         # no name
                     "lemma NOPE with t := a"):       # unknown name
            with pytest.raises(ScriptError):
                parse_script(f"goal: a = b -> b = a\n1. a = b -> b = a ; {just}\n")

    def test_load_shipped_file(self):
        script = load_script(str(PROOFS / "sym.selas"))
        assert check_proof(script).ok


class TestInstalledLayout:
    def test_root_proofs_is_the_package_copy(self):
        assert PROOFS.resolve() == (ROOT / "src" / "elas" / "proofs").resolve()

    def test_build_ships_the_scripts(self, tmp_path):
        pytest.importorskip("setuptools")
        lib, egg_base = tmp_path / "lib", tmp_path / "egg"
        egg_base.mkdir()
        subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()", "-q",
             "egg_info", "-e", str(egg_base), "build_py", "-d", str(lib)],
            cwd=ROOT, check=True, capture_output=True, timeout=120)
        shipped = sorted(p.name for p in (lib / "elas" / "proofs").iterdir())
        assert shipped == sorted(f"{name.lower()}.selas" for name in BUNDLED)
        loaded = subprocess.run(
            [sys.executable, "-c", "import elas.proofkit as p; "
             "print(p.__file__); print(*p.bundled_theorems())"],
            env={**os.environ, "PYTHONPATH": str(lib)},
            check=True, capture_output=True, text=True, timeout=120).stdout.splitlines()
        assert loaded == [str(lib / "elas" / "proofkit.py"), " ".join(BUNDLED)]


class TestMutationRobustness:
    def test_small_scripts_reject_all_mutants(self):
        theorems = bundled_theorems()
        for name in ("SYM", "TRANS", "EX", "NECAS_PRIME", "CNECAS_PATTERN",
                     "SUBASEQ", "EAS"):
            for description, mutant in connective_mutations(theorems[name]):
                assert quick_reject(mutant), (name, description)


class TestSoundnessBridge:
    def test_axiom_instances_hold_on_random_epistemic_models(self):
        rng = random.Random(321)
        for axiom_id in AXIOM_IDS:
            for _ in range(40):
                phi = random_axiom_instance(axiom_id, rng)
                sig = formula_signature(phi)
                sig = Signature(dict(sig.predicates), sig.names)
                model = random_epistemic_model(rng, sig, 3, 3)
                sigma = random_sigma(rng, sorted(free_vars(phi)), model)
                world = rng.choice(model.worlds)
                assert eval_formula(model, world, sigma, phi), (axiom_id, phi)

    def test_rule_steps_preserve_truth(self):
        rng = random.Random(654)
        for name, script in bundled_theorems().items():
            formulas = {s.index: s.formula for s in script.steps}
            sig_parts = {}
            for f in formulas.values():
                sig = formula_signature(f)
                sig_parts.update(sig.predicates)
            names = frozenset().union(
                *(formula_signature(f).names for f in formulas.values()))
            variables = set().union(
                *(free_vars(f) for f in formulas.values()))
            sig = Signature(sig_parts, names)
            for _ in range(15):
                model = random_epistemic_model(rng, sig, 2, 2)
                sigma = random_sigma(rng, sorted(variables), model)
                world = rng.choice(model.worlds)
                for step in script.steps:
                    match step.just:
                        case MP(i, j):
                            premises = [formulas[i], formulas[j]]
                        case NecAs(i, _, _) | NecK(i, _):
                            premises = [formulas[i]]
                        case _:
                            continue
                    if all(eval_formula(model, world, sigma, p)
                           for p in premises):
                        if isinstance(step.just, (NecK, NecAs)):
                            # necessitation premises are theorems: check on
                            # every world before requiring the conclusion
                            if not all(eval_formula(model, w, sigma, premises[0])
                                       for w in model.worlds):
                                continue
                        assert eval_formula(model, world, sigma, step.formula), \
                            (name, step.index)
