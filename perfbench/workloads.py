"""The four workloads.

Each workload has a ``setup`` that builds its inputs (through the library's
own parsers and loaders, via ``Layers``) and a ``round`` that returns the
ops of one round.  An op is an ``Op`` whose ``run`` is timed and whose
``check`` verifies the result against ``oracle`` afterwards; ``check``
returns the counts the op contributes to per-layer metrics.  Every round
of a workload holds the same number of ops of the same kinds, so a run
attempts whole rounds.

``per_slot`` marks the workloads whose rounds repeat one fixed catalogue:
their percentiles are taken over each catalogue entry's median time, so
that a tail percentile cannot jump between two entries from run to run.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from pathlib import Path

import gen
import oracle
from oracle import require

ROOT = Path(__file__).resolve().parent.parent
SYNTAX_CLASSES = ("Var", "Name", "Top", "Bot", "Eq", "Pred", "Not", "And",
                  "Or", "Implies", "Iff", "Knows", "Assign")

# Valid table formulas whose 4/3 search took at most about 2 s when the
# benchmark was written (the others take 7 s to several minutes).
FOUR_BY_THREE = (
    "~(?x = ?y) -> K{?z} ~(?x = ?y)",
    "K{?x} P(?x) -> K{?x} K{?x} P(?x)",
    "~K{?x} P(?x) -> K{?x} ~K{?x} P(?x)",
    "[?x := ?y] P(?x) -> P(?y)",
    "[?x := ?y] K{?z} P(?x) -> K{?z} [?x := ?y] P(?x)",
)
DISTINGUISH_SIZE = 9
SEEDED_PAIRS = 4


@dataclass
class Op:
    slot: str               # identity of the op within a round
    run: object             # () -> result; this call is timed
    check: object           # (result) -> counts dict; raises CheckError
    kept_fault: bool = False


def _table(modules, expectation):
    return [text for entry in modules["suites"].VALIDITY_TABLE
            if entry["expectation"] == expectation for text in entry["formulas"]]


def _ctors(modules):
    return {name: getattr(modules["syntax"], name) for name in SYNTAX_CLASSES}


def _renaming(rng, phi):
    syms = oracle.symbols(phi)
    return gen.Renaming(rng, syms["names"], syms["vars"], syms["preds"])


def _rendered(L, pointed) -> dict:
    """A pointed model as `elas valid --json` prints it."""
    doc = L.model_to_dict(pointed.model)
    doc["world"] = pointed.world
    doc["sigma"] = {"?" + v: a for v, a in sorted(pointed.sigma.items())}
    return doc


# ---------------------------------------------------------------------------
# exhaust: valid formulas, whole bounded spaces

class Exhaust:
    name = "exhaust"
    per_slot = True

    def setup(self, modules, L, seed):
        ms = modules["modelsearch"]
        b33, b43 = ms.SearchBounds(3, 3, True), ms.SearchBounds(4, 3, True)
        valid = _table(modules, "valid")
        require(set(FOUR_BY_THREE) <= set(valid), "4/3 entries left the table")
        catalogue = [(f"table:{t}@3/3", t, b33) for t in valid]
        catalogue += [(f"table:{t}@4/3", t, b43) for t in FOUR_BY_THREE]
        catalogue += [(f"axiom:{axiom_id}@3/3", gen.text(f), b33)
                      for axiom_id, f in gen.axiom_instances(random.Random(seed))]
        return {"modules": modules,
                "catalogue": [(slot, L.parse_formula(text), bounds)
                              for slot, text, bounds in catalogue]}

    def round(self, state, L, rng):
        ops = []
        for slot, phi, bounds in state["catalogue"]:
            psi = _renaming(rng, phi).formula(phi)
            ops.append(Op(slot, functools.partial(L.find_countermodel, psi, bounds),
                          functools.partial(self.check, state["modules"], psi, bounds)))
        return ops

    @staticmethod
    def check(modules, phi, bounds, verdict):
        require(type(verdict).__name__ == "NoCountermodelUpTo",
                f"{type(verdict).__name__} for a valid formula")
        require(verdict.bounds == bounds, "verdict speaks for other bounds")
        syms = oracle.symbols(phi)
        n_free = len(oracle.free_vars(phi))
        covered = oracle.pointed_models_covered(
            syms["preds"], len(syms["names"]), n_free,
            bounds.max_worlds, bounds.max_agents)
        sig = modules["syntax"].Signature(syms["preds"], frozenset(syms["names"]))
        library = sum(modules["modelsearch"].count_models(sig, n, k, True) * n * k ** n_free
                      for n in range(1, bounds.max_worlds + 1)
                      for k in range(1, bounds.max_agents + 1))
        require(library == covered, f"count_models gives {library}, closed form {covered}")
        return {"models_covered": covered}


# ---------------------------------------------------------------------------
# refute: first canonical hits, and distinguishing formulas

class Refute:
    name = "refute"
    per_slot = True

    def setup(self, modules, L, seed):
        bounds = modules["modelsearch"].SearchBounds(3, 3, True)
        texts = [(f"invalid:{t}", t, "countermodel") for t in _table(modules, "invalid")]
        texts += [(f"story:{label}", L.print_formula(phi), "witness")
                  for label, phi in L.corpus_formulas().items()]
        readings = {label: L.print_formula(phi) for label, phi in L.robot_readings().items()}
        labels = list(readings)
        texts += [(f"pair:{a}/{b}", f"~(({readings[a]}) <-> ({readings[b]}))", "witness")
                  for i, a in enumerate(labels) for b in labels[i + 1:]]
        searches = [(slot, L.parse_formula(text), kind) for slot, text, kind in texts]

        m1, m2 = L.separation_models()
        pairs = [("separation", L.model_to_dict(m1), L.model_to_dict(m2),
                  "s1", {"x": "i"}, True)]
        rng = random.Random(seed)
        for i in range(SEEDED_PAIRS):
            doc = gen.random_s5_doc(rng, 2, 2, {"P": 1}, ["a"])
            pairs.append((f"seeded{i}", doc, gen.flip_rho(doc, rng), "w1",
                          {"x": rng.choice(doc["agents"])}, False))
        return {"bounds": bounds, "searches": searches, "pairs": pairs,
                "ctors": _ctors(modules), "pointed": modules["semantics"].PointedModel}

    def round(self, state, L, rng):
        bounds = state["bounds"]
        ops = []
        for slot, phi, kind in state["searches"]:
            psi = _renaming(rng, phi).formula(phi)
            search = L.find_countermodel if kind == "countermodel" else L.find_witness
            ops.append(Op(slot, functools.partial(self.search, L, search, psi, bounds),
                          functools.partial(self.check_search, psi, kind)))
        for label, d1, d2, world, sigma, separation in state["pairs"]:
            r = gen.Renaming(rng, d1["signature"]["names"], sigma,
                             d1["signature"]["predicates"])
            r1, r2, rsigma = r.doc(d1), r.doc(d2), r.sigma(sigma)
            p1 = state["pointed"](L.model_from_dict(r1), world, rsigma)
            p2 = state["pointed"](L.model_from_dict(r2), world, rsigma)
            for language in ("el", "elas"):
                ops.append(Op(
                    f"distinguish:{label}:{language}",
                    functools.partial(L.el_distinguishes, p1, p2, DISTINGUISH_SIZE, language),
                    functools.partial(self.check_distinguisher, state["ctors"],
                                      (oracle.DocModel(r1), world, rsigma),
                                      (oracle.DocModel(r2), world, rsigma),
                                      language, separation)))
        return ops

    @staticmethod
    def search(L, search, phi, bounds):
        verdict = search(phi, bounds)
        pointed = getattr(verdict, "pointed", None)
        return verdict, None if pointed is None else _rendered(L, pointed)

    @staticmethod
    def check_search(phi, kind, result):
        verdict, rendered = result
        expected = "Countermodel" if kind == "countermodel" else "Witness"
        require(type(verdict).__name__ == expected,
                f"{type(verdict).__name__}, expected a {expected}")
        oracle.pointed_check(rendered, phi, kind == "witness", 3, 3)
        return {}

    @staticmethod
    def check_distinguisher(ctors, p1, p2, language, separation, found):
        binders = language == "elas"
        if found is None:
            require(not (separation and binders),
                    "no binder distinguisher for the separation models")
            oracle.no_distinguisher(p1, p2, DISTINGUISH_SIZE, binders, ctors)
            return {}
        require(not (separation and not binders),
                "a binder-free formula separates the separation models")
        require(oracle.size(found) <= DISTINGUISH_SIZE, "distinguisher too large")
        require(binders or not oracle.has_binder(found), "binder in an el distinguisher")
        require(not separation or oracle.has_binder(found),
                "separation distinguisher has no binder")
        v1 = p1[0].holds(found, p1[1], p1[2])
        v2 = p2[0].holds(found, p2[1], p2[2])
        require(v1 != v2, "returned formula does not distinguish the models")
        return {}


# ---------------------------------------------------------------------------
# trials: seeded random models, axiom instances and translation cases

TRIAL_SIG = {"P": 1, "Q": 2}
TRIAL_NAMES = ("a", "b")
KEPT_POOL = ("x", "y", "w", "v0")
KEPT_CASES = 4
KEPT_SEED = 18050385
BLOCK = 24                    # seeded ops between two kept cases


class Trials:
    name = "trials"
    per_slot = False

    def setup(self, modules, L, seed):
        S = modules["syntax"]
        valid = []
        for text in _table(modules, "valid"):
            phi = L.parse_formula(text)
            sig = L.formula_signature(phi)
            valid.append((phi, S.Signature(dict(sig.predicates), sig.names),
                          sorted(L.free_vars(phi))))
        sig = S.Signature(dict(TRIAL_SIG), frozenset(TRIAL_NAMES))
        # The kept cases draw ?w and ?v0, which the translation captures; they
        # are fixed (independent of the seed) and count as failed while the
        # capture lasts.
        fixed = random.Random(KEPT_SEED)
        kept = []
        while len(kept) < KEPT_CASES:
            f = gen.random_formula(fixed, KEPT_POOL, TRIAL_NAMES, TRIAL_SIG, 4)
            if {"w", "v0"} & oracle.symbols(gen.to_syntax(f, S))["vars"]:
                kept.append((gen.to_syntax(f, S), fixed.randrange(1 << 30), len(kept) % 2))
        return {"modules": modules, "valid": valid, "sig": sig, "kept": kept,
                "axioms": modules["proofkit"].AXIOM_IDS}

    def round(self, state, L, rng):
        modules, S = state["modules"], state["modules"]["syntax"]
        axioms = state["axioms"]
        ops = []
        for block, (phi, model_seed, epistemic) in enumerate(state["kept"]):
            for i in range(BLOCK):
                kind = i % 3
                if kind == 0:
                    case = rng.choice(state["valid"])
                    ops.append(Op("validity", functools.partial(
                        self.validity, L, rng, *case),
                        functools.partial(self.check_validity, modules, case[0])))
                elif kind == 1:
                    axiom_id = axioms[(block * BLOCK + i) // 3 % len(axioms)]
                    ops.append(Op("soundness", functools.partial(
                        self.soundness, L, rng, axiom_id),
                        functools.partial(self.check_soundness, modules)))
                else:
                    f = gen.to_syntax(gen.random_formula(
                        rng, ("x", "y"), TRIAL_NAMES, TRIAL_SIG, 4), S)
                    ops.append(Op("oracle", functools.partial(
                        self.oracle_case, L, rng, state["sig"], f,
                        sorted(oracle.free_vars(f)), (i // 3) % 2),
                        functools.partial(self.check_oracle, modules, f)))
            ops.append(Op("kept", functools.partial(
                self.oracle_case, L, random.Random(model_seed), state["sig"], phi,
                sorted(oracle.free_vars(phi)), epistemic),
                functools.partial(self.check_oracle, modules, phi), kept_fault=True))
        return ops

    @staticmethod
    def validity(L, rng, phi, sig, free):
        model = L.random_epistemic_model(rng, sig, 4, 3)
        sigma = {v: rng.choice(model.agents) for v in free}
        world = rng.choice(model.worlds)
        return model, world, sigma, L.eval_formula(model, world, sigma, phi)

    @staticmethod
    def soundness(L, rng, axiom_id):
        phi = L.random_axiom_instance(axiom_id, rng)
        binding = L.match_axiom(axiom_id, phi)
        found = L.formula_signature(phi)
        sig = type(found)(dict(found.predicates), found.names)
        model = L.random_epistemic_model(rng, sig, 3, 3)
        sigma = {v: rng.choice(model.agents) for v in sorted(L.free_vars(phi))}
        world = rng.choice(model.worlds)
        return (phi, binding, model, world, sigma,
                L.eval_formula(model, world, sigma, phi))

    @staticmethod
    def oracle_case(L, rng, sig, phi, free, epistemic):
        sample = L.random_epistemic_model if epistemic else L.random_model
        model = sample(rng, sig, 3, 3)
        sigma = {v: rng.choice(model.agents) for v in free}
        world = rng.choice(model.worlds)
        expected = L.eval_formula(model, world, sigma, phi)
        structure = L.induce_structure(model)
        valuation = dict(sigma)
        valuation["w"] = world
        existential = L.fol_eval(structure, valuation, L.translate(phi))
        universal = L.fol_eval(structure, valuation, L.translate_universal(phi))
        return model, world, sigma, epistemic, (expected, existential, universal)

    @staticmethod
    def check_validity(modules, phi, result):
        model, world, sigma, value = result
        return _check_true(modules, phi, model, world, sigma, value, 4)

    @staticmethod
    def check_soundness(modules, result):
        phi, binding, model, world, sigma, value = result
        require(binding is not None, "the matcher rejects an instance of its schema")
        return _check_true(modules, phi, model, world, sigma, value, 3)

    @staticmethod
    def check_oracle(modules, phi, result):
        model, world, sigma, epistemic, values = result
        doc = modules["semantics"].model_to_dict(model)
        oracle.check_frame(doc, 3, 3, epistemic=bool(epistemic))
        reference = oracle.DocModel(doc).holds(phi, world, sigma)
        require(values == (reference,) * 3,
                f"checker, translations and reference give {values} and {reference}")
        return {}


def _check_true(modules, phi, model, world, sigma, value, max_worlds):
    """phi, valid over S5, was found true on an S5 model of at most
    max_worlds worlds and 3 agents, and the reference agrees."""
    doc = modules["semantics"].model_to_dict(model)
    oracle.check_frame(doc, max_worlds, 3)
    require(value is True, "a valid formula is false on an S5 model")
    require(oracle.DocModel(doc).holds(phi, world, sigma) is True,
            "reference evaluator disagrees")
    return {}


# ---------------------------------------------------------------------------
# prove: bundled derivations and their connective mutants

class Prove:
    name = "prove"
    per_slot = True

    def setup(self, modules, L, seed):
        scripts = [(path.stem, L.load_script(str(path)))
                   for path in sorted((ROOT / "proofs").glob("*.selas"))]
        require(len(scripts) == 10, f"{len(scripts)} bundled scripts, expected 10")
        catalogue = [(f"script:{name}", script, True) for name, script in scripts]
        for name, script in scripts:
            catalogue += [(f"mutant:{name}:{i}", mutant, False)
                          for i, (_d, mutant) in enumerate(L.connective_mutations(script))]
        return {"modules": modules, "scripts": scripts, "catalogue": catalogue,
                "seed": seed}

    def round(self, state, L, rng):
        return [Op(slot, functools.partial(L.check_proof, script),
                   functools.partial(self.check, script, accepted))
                for slot, script, accepted in state["catalogue"]]

    @staticmethod
    def check(script, accepted, report):
        if accepted:
            require(report.ok, f"bundled script rejected: {report.message}")
        else:
            require(not report.ok, "a connective mutant is accepted")
        return {"steps_checked": len(script.steps)}

    @staticmethod
    def final_check(state):
        """Once per run: every step of each bundled script feeds its last
        step, the last step is the goal, and each goal holds on seeded S5
        models under the reference evaluator."""
        rng = random.Random(state["seed"])
        for name, script in state["scripts"]:
            require(script.steps[-1].formula == script.goal, f"{name}: last step is not the goal")
            by_index = {step.index: step for step in script.steps}
            used, todo = set(), [script.steps[-1].index]
            while todo:
                index = todo.pop()
                if index in used:
                    continue
                used.add(index)
                just = by_index[index].just
                todo += [getattr(just, a) for a in ("i", "j") if hasattr(just, a)]
            require(used == set(by_index), f"{name}: steps {sorted(set(by_index) - used)} "
                                           "do not feed the goal")
            syms = oracle.symbols(script.goal)
            free = sorted(oracle.free_vars(script.goal))
            for _ in range(20):
                doc = gen.random_s5_doc(rng, rng.randint(1, 3), rng.randint(1, 3),
                                        syms["preds"], syms["names"])
                model = oracle.DocModel(doc)
                sigma = {v: rng.choice(doc["agents"]) for v in free}
                for world in doc["worlds"]:
                    require(model.holds(script.goal, world, sigma),
                            f"{name}: goal false on an S5 model")


WORKLOADS = {w.name: w for w in (Exhaust(), Refute(), Trials(), Prove())}
