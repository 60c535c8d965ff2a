"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one pass/fail line (run pytest with -s to see the lines as they
happen).  Seeds are fixed here; nothing is left to later calibration.

1. Two-model separation: the binder formula distinguishes the two fixture
   models while no binder-free formula of at most 9 nodes does.
2. Validity table: 10 invalid entries produce verified countermodels
   within (3, 3, epistemic); 10 valid entries survive exhaustive search
   plus 10,000 seeded random epistemic trials each.  Zero tolerance.
3. Proof checking: all bundled derivations check, and every single-step
   connective mutation of each is rejected.  Exact.
4. Translation oracle: on 10,000 seeded random cases the model checker,
   the existential translation and the universal translation agree.  The
   variables include ?w and ?v0, which share names with the translation's
   world variables.  Zero tolerance.
5. Axiom soundness: 10,000 seeded random schema instances hold on random
   epistemic models; name-indexed introspection failures are exhibited on
   non-equivalence frames.  Zero tolerance on the positive half.
6. Story corpus: the four satisfiable story formulas get verified
   witnesses within (3, 3, epistemic); at least 3 of the 6 pairs of nested
   knowledge readings are separated by verified models.
7. Property suites: substitution lemma, assignment irrelevance,
   relettering invariance and assignment self-duality each pass at least
   1,000 seeded random cases.
"""

import random
import time

from elas.modelsearch import SearchBounds, el_distinguishes
from elas.proofkit import (
    bundled_theorems, check_proof, check_step, connective_mutations,
)
from elas.randgen import random_epistemic_model, random_formula, random_sigma
from elas.semantics import (
    PointedModel, Signature, eval_formula, model_to_dict,
)
from elas.suites import (
    corpus_suite, separation_models, soundness_suite, validity_table_suite,
)
from elas.syntax import (
    Assign, Name, Not, Var, all_vars, free_vars, is_admissible,
    is_el_fragment, node_count, parse_formula, reletter, substitute,
)
from elas.translation import AgentVar, WorldVar, fol_eval, \
    induce_structure, translate, translate_universal

BOUNDS = SearchBounds(3, 3, True)


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} failed"


def test_criterion_1_two_model_separation(m1, m2):
    started = time.monotonic()
    sigma = {"x": "i"}
    phi = parse_formula("[?x := a] Kh{a} P(?x)")
    in_code_m1, in_code_m2 = separation_models()
    fixtures_match = (model_to_dict(m1) == model_to_dict(in_code_m1)
                      and model_to_dict(m2) == model_to_dict(in_code_m2))
    true_at_m1 = eval_formula(m1, "s1", sigma, phi) is True
    false_at_m2 = eval_formula(m2, "s1", sigma, phi) is False
    p1 = PointedModel(m1, "s1", sigma)
    p2 = PointedModel(m2, "s1", sigma)
    none_found = el_distinguishes(p1, p2, max_size=9, language="el") is None
    found = el_distinguishes(p1, p2, max_size=9, language="elas")
    binder_found = (found is not None and not is_el_fragment(found)
                    and node_count(found) <= 9)
    elapsed = time.monotonic() - started
    ok = (fixtures_match and true_at_m1 and false_at_m2 and none_found
          and binder_found and elapsed < 120.0)
    report(1, "two-model separation and bounded indistinguishability", ok)


def test_criterion_2_validity_table():
    started = time.monotonic()
    result = validity_table_suite(bounds=BOUNDS, trials=10000, seed=0)
    elapsed = time.monotonic() - started
    invalid = [e for e in result["entries"] if e["expectation"] == "invalid"]
    valid = [e for e in result["entries"] if e["expectation"] == "valid"]
    ok = (result["ok"] and len(invalid) == 10 and len(valid) == 10
          and elapsed < 600.0)
    report(2, "validity table with verified countermodels", ok)


def test_criterion_3_proof_checking():
    theorems = bundled_theorems()
    expected = {"T", "SYM", "TRANS", "DBASEQ", "SUBASEQ", "EAS",
                "NECAS_PRIME", "EX", "CNECAS_PATTERN", "RELETTER"}
    ok = expected <= set(theorems)
    for name, script in theorems.items():
        ok = ok and check_proof(script).ok
    for name, script in theorems.items():
        for description, mutant in connective_mutations(script):
            rejected = mutant.steps[-1].formula != mutant.goal or any(
                not check_step(mutant, step.index).ok for step in mutant.steps)
            if not rejected:
                print(f"  surviving mutant in {name}: {description}")
                ok = False
    report(3, "bundled derivations check and reject all mutations", ok)


def test_criterion_4_translation_oracle():
    started = time.monotonic()
    rng = random.Random(11)
    sig = Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))
    from elas.randgen import random_model
    failures = 0
    for trial in range(10000):
        sample = random_epistemic_model if trial % 2 else random_model
        model = sample(rng, sig, 3, 3)
        phi = random_formula(rng, ("x", "y", "w", "v0"), ("a", "b"),
                             {"P": 1, "Q": 2}, depth=4)
        sigma = random_sigma(rng, sorted(free_vars(phi)), model)
        world = rng.choice(model.worlds)
        expected = eval_formula(model, world, sigma, phi)
        structure = induce_structure(model)
        valuation = {AgentVar(v): a for v, a in sigma.items()}
        valuation[WorldVar("w")] = world
        if fol_eval(structure, valuation, translate(phi)) != expected:
            failures += 1
        elif fol_eval(structure, valuation, translate_universal(phi)) != expected:
            failures += 1
    elapsed = time.monotonic() - started
    ok = failures == 0 and elapsed < 300.0
    report(4, "translation agrees with the model checker on 10000 cases", ok)


def test_criterion_5_axiom_soundness():
    result = soundness_suite(trials=10000, seed=7)
    exhibited = result["name_introspection_failures"]
    ok = (result["ok"]
          and sum(result["instances_per_axiom"].values()) == 10000
          and set(exhibited) == {"4x", "5x"}
          and all(rec.get("world") for rec in exhibited.values()))
    report(5, "axiom schemas sound on epistemic models", ok)


def test_criterion_6_story_corpus():
    result = corpus_suite(bounds=BOUNDS)
    witnesses_ok = all(w["ok"] for w in result["witnesses"])
    ok = (result["ok"] and witnesses_ok and len(result["witnesses"]) == 4
          and result["pairs_separated"] == 6)
    report(6, "story formulas satisfiable and readings separated", ok)


def _property_cases(seed, needed, predicate=None, allow_assign=True, depth=3):
    rng = random.Random(seed)
    sig = Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))
    produced = 0
    while produced < needed:
        model = random_epistemic_model(rng, sig, 3, 3)
        phi = random_formula(rng, ("x", "y", "z"), ("a", "b"),
                             {"P": 1, "Q": 2}, depth, allow_assign)
        if predicate is not None and not predicate(phi):
            continue
        sigma = random_sigma(rng, ("x", "y", "z"), model)
        world = rng.choice(model.worlds)
        yield rng, model, world, sigma, phi
        produced += 1


def test_criterion_7_property_suites():
    failures = []

    count = 0
    for rng, model, world, sigma, phi in _property_cases(
            71, 1000, predicate=lambda f: is_admissible(f, "y", "x")):
        moved = dict(sigma)
        moved["x"] = sigma["y"]
        if eval_formula(model, world, sigma, substitute(phi, "y", "x")) != \
                eval_formula(model, world, moved, phi):
            failures.append(("substitution", phi))
        count += 1
    assert count == 1000

    for rng, model, world, sigma, phi in _property_cases(72, 1000):
        noisy = dict(sigma)
        for extra in ("u", "v"):
            noisy[extra] = rng.choice(model.agents)
        for var in set(noisy) - free_vars(phi):
            noisy[var] = rng.choice(model.agents)
        if eval_formula(model, world, noisy, phi) != \
                eval_formula(model, world, sigma, phi):
            failures.append(("irrelevance", phi))

    for rng, model, world, sigma, phi in _property_cases(
            73, 1000,
            predicate=lambda f: isinstance(f, Assign) and "w" not in all_vars(f)):
        if eval_formula(model, world, sigma, phi) != \
                eval_formula(model, world, sigma, reletter(phi, "w")):
            failures.append(("relettering", phi))

    for rng, model, world, sigma, phi in _property_cases(74, 1000):
        var = rng.choice(("x", "y"))
        term = rng.choice((Var("z"), Name("a")))
        box = Assign(var, term, phi)
        diamond = Not(Assign(var, term, Not(phi)))
        if eval_formula(model, world, sigma, box) != \
                eval_formula(model, world, sigma, diamond):
            failures.append(("self-duality", phi))

    ok = not failures
    report(7, "semantic property suites, 1000 seeded cases each", ok)
