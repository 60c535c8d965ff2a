"""Built-in reproduction suites.

* validity-table: the catalogue of valid and invalid schemas that separate
  rigid variables from non-rigid names (positive/negative introspection
  with a name index, first-level substitution limits, the failing Barcan
  analogue for a name, and so on).  Invalid entries must produce a verified
  countermodel within the bounds; valid entries must survive exhaustive
  search within the bounds plus seeded random trials on larger models.
* prop24: the two fixture models that agree on every binder-free formula
  yet are separated by a formula that rebinds a variable to a non-rigid
  name.
* soundness: seeded random instances of every axiom schema evaluated on
  random epistemic models, plus exhibited failures of the name-indexed
  introspection shapes on non-equivalence frames.
* corpus: satisfiable story formulas (anonymous knowledge, co-referring
  names, witnesses who cannot name anyone) and the pairwise separation of
  the four readings of nested knowledge with uncertain names.
"""

from __future__ import annotations

import random
import time

from .modelsearch import (
    Countermodel, NoCountermodelUpTo, SearchBounds, Witness, el_distinguishes,
    find_countermodel, find_witness,
)
from .proofkit import AXIOM_IDS, instantiate_axiom, match_axiom
from .randgen import (
    random_epistemic_model, random_formula, random_model, random_sigma,
)
from .semantics import (
    KripkeModel, PointedModel, Signature, eval_formula, make_model,
    model_to_dict,
)
from .syntax import (
    And, Eq, Formula, Iff, Name, Not, Pred, Var, formula_signature,
    is_admissible, knows_who, parse_formula, print_formula,
)

DEFAULT_BOUNDS = SearchBounds(3, 3, True)
RANDOM_TRIAL_BOUNDS = (4, 3)


# ---------------------------------------------------------------------------
# Validity table

def _entry(ident, row, expectation, *formulas):
    return {"id": ident, "row": row, "expectation": expectation,
            "formulas": formulas}


VALIDITY_TABLE = (
    _entry("rigid-eq", 1, "valid", "?x = ?y -> K{a} ?x = ?y"),
    _entry("rigid-neq", 1, "valid", "~(?x = ?y) -> K{?z} ~(?x = ?y)"),
    _entry("pos-introspection-var", 2, "valid",
           "K{?x} P(?x) -> K{?x} K{?x} P(?x)",
           "K{?x} P(a) -> K{?x} K{?x} P(a)"),
    _entry("neg-introspection-var", 2, "valid",
           "~K{?x} P(?x) -> K{?x} ~K{?x} P(?x)",
           "~K{?x} P(a) -> K{?x} ~K{?x} P(a)"),
    _entry("factivity", 2, "valid",
           "K{a} P(?x) -> P(?x)",
           "K{a} P(a) -> P(a)"),
    _entry("assign-substitute", 3, "valid", "[?x := ?y] P(?x) -> P(?y)"),
    _entry("index-swap-eq", 4, "valid",
           "?x = a -> (K{?x} P(?x) -> K{a} P(?x))",
           "?x = a -> (K{?x} P(a) -> K{a} P(a))"),
    _entry("first-level-subst", 4, "valid", "a = b -> (P(a) -> P(b))"),
    _entry("barcan-var-name-knower", 5, "valid",
           "[?x := ?y] K{a} P(?x) -> K{a} [?x := ?y] P(?x)"),
    _entry("barcan-var-var-knower", 5, "valid",
           "[?x := ?y] K{?z} P(?x) -> K{?z} [?x := ?y] P(?x)"),
    _entry("nonrigid-eq", 1, "invalid", "?x = a -> K{b} ?x = a"),
    _entry("nonrigid-neq", 1, "invalid", "~(?x = a) -> K{b} ~(?x = a)"),
    _entry("conames-eq", 1, "invalid", "a = b -> K{c} a = b"),
    _entry("pos-introspection-name", 2, "invalid",
           "K{a} P(?x) -> K{a} K{a} P(?x)",
           "K{a} P(b) -> K{a} K{a} P(b)"),
    _entry("neg-introspection-name", 2, "invalid",
           "~K{a} P(?x) -> K{a} ~K{a} P(?x)",
           "~K{a} P(b) -> K{a} ~K{a} P(b)"),
    _entry("assign-name-export", 3, "invalid",
           "[?x := a] K{b} P(?x) -> K{b} P(a)"),
    _entry("subst-under-modality", 4, "invalid",
           "?x = a -> (K{b} P(?x) -> K{a} P(a))"),
    _entry("conames-under-modality", 4, "invalid",
           "a = b -> (K{c} P(a) -> K{c} P(b))"),
    _entry("barcan-name", 5, "invalid",
           "[?x := b] K{a} P(?x) -> K{a} [?x := b] P(?x)"),
    _entry("barcan-name-var-knower", 5, "invalid",
           "[?x := b] K{?y} P(?x) -> K{?y} [?x := b] P(?x)"),
)


def _pointed_to_dict(pointed: PointedModel) -> dict:
    out = model_to_dict(pointed.model)
    out["world"] = pointed.world
    out["sigma"] = {"?" + v: a for v, a in sorted(pointed.sigma.items())}
    return out


def _random_trials(phi: Formula, trials: int, rng: random.Random,
                   sample=random_epistemic_model, bounds=RANDOM_TRIAL_BOUNDS) -> int:
    """Evaluate phi at random pointed models, each drawn as a model from
    sample within bounds, an assignment of phi's free variables and a
    world; returns how many trials ran before a failure (== trials when
    none failed)."""
    sig = formula_signature(phi)
    sig, free = Signature(dict(sig.predicates), sig.names), sorted(sig.variables)
    for t in range(trials):
        model = sample(rng, sig, *bounds)
        sigma = random_sigma(rng, free, model)
        if not eval_formula(model, rng.choice(model.worlds), sigma, phi):
            return t
    return trials


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise ValueError(f"trials must be at least 0, not {trials}")


def validity_table_suite(bounds: SearchBounds = DEFAULT_BOUNDS,
                         trials: int = 10000, seed: int = 0) -> dict:
    """Check every table entry; invalid rows must yield verified
    countermodels, valid rows must exhaust the bounds and survive the
    random trials."""
    _check_trials(trials)
    rng = random.Random(seed)
    entries = []
    all_ok = True
    for entry in VALIDITY_TABLE:
        instances = []
        entry_ok = True
        for text in entry["formulas"]:
            phi = parse_formula(text)
            started = time.monotonic()
            verdict = find_countermodel(phi, bounds)
            record = {"formula": text,
                      "expectation": entry["expectation"]}
            if entry["expectation"] == "invalid":
                ok = isinstance(verdict, Countermodel)
                record["verdict"] = ("countermodel" if ok else "no-countermodel")
                if ok:
                    record["countermodel"] = _pointed_to_dict(verdict.pointed)
            else:
                ok = isinstance(verdict, NoCountermodelUpTo)
                record["verdict"] = ("no-countermodel" if ok else "countermodel")
                if ok and trials:
                    survived = _random_trials(phi, trials, rng)
                    record["random_trials"] = survived
                    ok = survived == trials
                elif not ok:
                    record["countermodel"] = _pointed_to_dict(verdict.pointed)
            record["elapsed_ms"] = int((time.monotonic() - started) * 1000)
            record["ok"] = ok
            entry_ok = entry_ok and ok
            instances.append(record)
        entries.append({"id": entry["id"], "row": entry["row"],
                        "expectation": entry["expectation"],
                        "instances": instances, "ok": entry_ok})
        all_ok = all_ok and entry_ok
    return {
        "suite": "validity-table",
        "bounds": {"worlds": bounds.max_worlds, "agents": bounds.max_agents,
                   "epistemic": bounds.epistemic},
        "trials": trials,
        "seed": seed,
        "valid_entries": sum(1 for e in entries if e["expectation"] == "valid"),
        "invalid_entries": sum(1 for e in entries if e["expectation"] == "invalid"),
        "entries": entries,
        "ok": all_ok,
    }


# ---------------------------------------------------------------------------
# The two-model separation suite

def _two_world_model(rho_s2) -> KripkeModel:
    sig = Signature({"P": 1}, frozenset({"a"}))
    return make_model(
        worlds=("s1", "s2"),
        agents=("i", "j"),
        relations={"i": {("s1", "s1"), ("s2", "s2")},
                   "j": {("s1", "s1"), ("s1", "s2"), ("s2", "s1"), ("s2", "s2")}},
        rho={("P", "s2"): frozenset(rho_s2)},
        eta={("a", "s1"): "j", ("a", "s2"): "i"},
        signature=sig,
    )


def separation_models() -> tuple:
    """The pair of epistemic models that only a variable-rebinding formula
    can tell apart: they differ in whether agent j falls under P at s2, but
    the name a points at j only at s1."""
    return (_two_world_model([("i",), ("j",)]), _two_world_model([("i",)]))


SEPARATING_FORMULA = "[?x := a] Kh{a} P(?x)"


def prop24_suite(max_size: int = 9) -> dict:
    m1, m2 = separation_models()
    sigma = {"x": "i"}
    phi = parse_formula(SEPARATING_FORMULA)
    value1 = eval_formula(m1, "s1", sigma, phi)
    value2 = eval_formula(m2, "s1", sigma, phi)
    p1, p2 = PointedModel(m1, "s1", sigma), PointedModel(m2, "s1", sigma)
    started = time.monotonic()
    el = el_distinguishes(p1, p2, max_size, language="el")
    el_ms = int((time.monotonic() - started) * 1000)
    elas = el_distinguishes(p1, p2, max_size, language="elas")
    ok = (value1 is True and value2 is False and el is None and elas is not None)
    return {
        "suite": "prop24",
        "max_size": max_size,
        "separating_formula": SEPARATING_FORMULA,
        "value_at_m1": value1,
        "value_at_m2": value2,
        "el_distinguisher": print_formula(el) if el is not None else None,
        "el_elapsed_ms": el_ms,
        "elas_distinguisher": print_formula(elas) if elas is not None else None,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Soundness spot checks

_VARS = ("x", "y", "z")
_NAMES = ("a", "b", "c")
_PREDS = {"P": 1, "Q": 2}


def _rand_term(rng):
    if rng.random() < 0.5:
        return Var(rng.choice(_VARS))
    return Name(rng.choice(_NAMES))


def _rand_formula(rng, depth=2):
    return random_formula(rng, _VARS, _NAMES, _PREDS, depth)


def random_axiom_instance(axiom_id: str, rng: random.Random) -> Formula:
    """A random instance of the schema with its side conditions satisfied."""
    t, u = _rand_term(rng), _rand_term(rng)
    x, y = rng.choice(_VARS), rng.choice(_VARS)
    p, q = _rand_formula(rng), _rand_formula(rng)
    binding = {"t": t, "u": u, "x": x, "y": y, "p": p, "q": q}
    if axiom_id == "SUBP":
        if rng.random() < 0.25:
            sym, arity = "=", 2
        else:
            sym, arity = rng.choice(sorted(_PREDS.items()))
        ts = [_rand_term(rng) for _ in range(arity)]
        binding = {"P": sym, "ts": ts, "us": [_rand_term(rng) for _ in range(arity)]}
    elif axiom_id == "SUB2AS":
        for _ in range(50):
            if is_admissible(p, y, x):
                break
            p = _rand_formula(rng)
        else:
            p = Pred("P", (Var(x),))
        binding["p"] = p
    return instantiate_axiom(axiom_id, binding)


_S5_ONLY = ("Tx", "4x", "5x")


def _exhibit_name_introspection_failure(shape: str, rng) -> dict:
    """A non-equivalence frame falsifying the name-indexed introspection
    shape (4 or 5); these are the invalid introspection table entries."""
    if shape == "4x":
        phi = parse_formula("K{a} P(b) -> K{a} K{a} P(b)")
    else:
        phi = parse_formula("~K{a} P(b) -> K{a} ~K{a} P(b)")
    sig = Signature({"P": 1}, frozenset({"a", "b"}))
    for attempt in range(100000):
        model = random_model(rng, sig, 3, 3)
        for world in model.worlds:
            if not eval_formula(model, world, {}, phi):
                out = model_to_dict(model)
                out["world"] = world
                out["attempts"] = attempt + 1
                return out
    raise RuntimeError(f"no non-epistemic failure found for {shape}")


def soundness_suite(trials: int = 10000, seed: int = 7) -> dict:
    """Every axiom schema, random instances on random epistemic models; the
    matcher must accept each instance and the evaluator must find it true."""
    _check_trials(trials)
    rng = random.Random(seed)
    per_axiom = {axiom_id: 0 for axiom_id in AXIOM_IDS}
    violations = []
    match_failures = []
    for trial in range(trials):
        axiom_id = AXIOM_IDS[trial % len(AXIOM_IDS)]
        phi = random_axiom_instance(axiom_id, rng)
        if match_axiom(axiom_id, phi) is None:
            match_failures.append({"axiom": axiom_id,
                                   "formula": print_formula(phi)})
            continue
        if not _random_trials(phi, 1, rng, bounds=(3, 3)):
            violations.append({"axiom": axiom_id,
                               "formula": print_formula(phi)})
        per_axiom[axiom_id] += 1
    arbitrary_violations = []
    arbitrary_ids = tuple(a for a in AXIOM_IDS if a not in _S5_ONLY)
    for trial in range(trials // 10):
        axiom_id = arbitrary_ids[trial % len(arbitrary_ids)]
        phi = random_axiom_instance(axiom_id, rng)
        if not _random_trials(phi, 1, rng, random_model, (3, 3)):
            arbitrary_violations.append({"axiom": axiom_id,
                                         "formula": print_formula(phi)})
    exhibited = {shape: _exhibit_name_introspection_failure(shape, rng)
                 for shape in ("4x", "5x")}
    ok = not violations and not match_failures and not arbitrary_violations
    return {
        "suite": "soundness",
        "trials": trials,
        "seed": seed,
        "instances_per_axiom": per_axiom,
        "violations": violations,
        "match_failures": match_failures,
        "arbitrary_frame_violations": arbitrary_violations,
        "name_introspection_failures": exhibited,
        "ok": ok,
    }


# ---------------------------------------------------------------------------
# Story corpus

def corpus_formulas() -> dict:
    """The satisfiable story formulas, with knowing-who spelled out."""
    a, b, c, d = Name("a"), Name("b"), Name("c"), Name("d")
    return {
        "v-anonymous-self": Not(knows_who(a, "a")),
        "vi-two-names": And(Eq(b, c),
                            And(knows_who(a, "b"), Not(knows_who(a, "c")))),
        "vii-witness": parse_formula(
            "[?x := b] [?y := a] (K{c} M(?x, ?y) & ~K{c} (a = ?x & ?y = b))"),
        "viii-newspaper": And(parse_formula("K{d} M(b, a)"),
                              And(Not(knows_who(d, "a")),
                                  Not(knows_who(d, "b")))),
    }


def robot_readings() -> dict:
    """The four readings of 'a knows that b knows that a needs help'."""
    return {
        "i-both-de-dicto": parse_formula("K{a} K{b} H(a)"),
        "ii-helped-de-re": parse_formula("[?x := a] K{a} K{b} H(?x)"),
        "iii-helper-de-re": parse_formula("[?y := b] K{a} K{?y} H(a)"),
        "iv-both-de-re": parse_formula("[?x := a] [?y := b] K{a} K{?y} H(?x)"),
    }


def corpus_suite(bounds: SearchBounds = DEFAULT_BOUNDS) -> dict:
    witnesses = []
    all_ok = True
    for label, phi in corpus_formulas().items():
        started = time.monotonic()
        verdict = find_witness(phi, bounds)
        ok = isinstance(verdict, Witness)
        record = {"formula": print_formula(phi), "label": label, "ok": ok,
                  "elapsed_ms": int((time.monotonic() - started) * 1000)}
        if ok:
            record["witness"] = _pointed_to_dict(verdict.pointed)
        witnesses.append(record)
        all_ok = all_ok and ok
    readings = robot_readings()
    labels = list(readings)
    pairs = []
    separated = 0
    for i in range(len(labels)):
        for j in range(i + 1, len(labels)):
            phi = Not(Iff(readings[labels[i]], readings[labels[j]]))
            verdict = find_witness(phi, bounds)
            ok = isinstance(verdict, Witness)
            record = {"pair": [labels[i], labels[j]], "separated": ok}
            if ok:
                pointed = verdict.pointed
                record["model"] = _pointed_to_dict(pointed)
                record["values"] = {
                    labels[i]: eval_formula(pointed.model, pointed.world,
                                            pointed.sigma, readings[labels[i]]),
                    labels[j]: eval_formula(pointed.model, pointed.world,
                                            pointed.sigma, readings[labels[j]]),
                }
                separated += 1
            pairs.append(record)
    all_ok = all_ok and separated == len(pairs)
    return {
        "suite": "corpus",
        "bounds": {"worlds": bounds.max_worlds, "agents": bounds.max_agents,
                   "epistemic": bounds.epistemic},
        "witnesses": witnesses,
        "reading_pairs": pairs,
        "pairs_separated": separated,
        "ok": all_ok,
    }


SUITES = {
    "validity-table": validity_table_suite,
    "prop24": prop24_suite,
    "soundness": soundness_suite,
    "corpus": corpus_suite,
}
