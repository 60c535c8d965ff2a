"""Bundled derivations for the derived theorems and the relettering law.

Each script is a fully elaborated Hilbert-style derivation of a
representative instance; routine normality reasoning for the assignment
binder (which one would usually wave through) is spelled out as explicit
KAS / taut / mp steps so that every line is machine-checkable.  Derived
theorems established earlier in the registry order may be cited by later
scripts through `lemma` steps.

The same scripts are shipped in text form under proofs/ at the repository
root; `render_all` regenerates those files.
"""

from __future__ import annotations

from functools import lru_cache

from .proofkit import (
    Axiom, Lemma, MP, NecAs, NecK, ProofScript, ProofStep, Taut, check_proof,
    instantiate_axiom, instantiate_lemma, print_script,
)
from .syntax import (
    And, Assign, Eq, Formula, Iff, Implies, Knows, Name, Not, Or, Pred, Term,
    Top, Var,
)


class Builder:
    """Accumulates steps; every emitted step is meant to be cited later
    (dead steps would weaken mutation testing)."""

    def __init__(self):
        self.steps = []

    def _add(self, formula: Formula, just) -> int:
        index = len(self.steps) + 1
        self.steps.append(ProofStep(index, formula, just))
        return index

    def formula(self, i: int) -> Formula:
        return self.steps[i - 1].formula

    def axiom(self, axiom_id: str, **binding) -> int:
        return self._add(instantiate_axiom(axiom_id, binding), Axiom(axiom_id))

    def taut(self, formula: Formula) -> int:
        return self._add(formula, Taut())

    def mp(self, i: int, j: int) -> int:
        impl = self.formula(j)
        assert isinstance(impl, Implies) and impl.lhs == self.formula(i), \
            f"mp {i} {j} does not fit"
        return self._add(impl.rhs, MP(i, j))

    def neck(self, i: int, agent: Term) -> int:
        return self._add(Knows(agent, self.formula(i)), NecK(i, agent))

    def necas(self, i: int, var: str, term: Term) -> int:
        f = self.formula(i)
        assert isinstance(f, Implies)
        return self._add(Implies(f.lhs, Assign(var, term, f.rhs)),
                         NecAs(i, var, term))

    def lemma(self, name: str, **bindings) -> int:
        goal = instantiate_lemma(name, bindings)
        stored = {p: Var(v) if isinstance(v, str) else v for p, v in bindings.items()}
        return self._add(goal, Lemma(name, tuple(sorted(stored.items()))))

    def script(self, goal: Formula) -> ProofScript:
        assert self.steps and self.steps[-1].formula == goal
        return ProofScript(goal, tuple(self.steps))

    # -- derived moves, each expanded into primitive steps ----------------

    def imp_trans(self, i: int, j: int) -> int:
        """From A -> B and B -> C conclude A -> C."""
        ab, bc = self.formula(i), self.formula(j)
        a, b, c = ab.lhs, ab.rhs, bc.rhs
        assert bc.lhs == b
        k = self.taut(Implies(ab, Implies(bc, Implies(a, c))))
        return self.mp(j, self.mp(i, k))

    def contrapose(self, i: int) -> int:
        """From A -> B conclude ~B -> ~A."""
        ab = self.formula(i)
        k = self.taut(Implies(ab, Implies(Not(ab.rhs), Not(ab.lhs))))
        return self.mp(i, k)

    def iff_intro(self, i: int, j: int) -> int:
        """From A -> B and B -> A conclude A <-> B."""
        ab, ba = self.formula(i), self.formula(j)
        assert ab.lhs == ba.rhs and ab.rhs == ba.lhs
        k = self.taut(Implies(ab, Implies(ba, Iff(ab.lhs, ab.rhs))))
        return self.mp(j, self.mp(i, k))

    def iff_sym(self, i: int) -> int:
        f = self.formula(i)
        k = self.taut(Implies(f, Iff(f.rhs, f.lhs)))
        return self.mp(i, k)

    def iff_trans(self, i: int, j: int) -> int:
        """From A <-> B and B <-> C conclude A <-> C."""
        ab, bc = self.formula(i), self.formula(j)
        assert ab.rhs == bc.lhs
        k = self.taut(Implies(ab, Implies(bc, Iff(ab.lhs, bc.rhs))))
        return self.mp(j, self.mp(i, k))

    def necas_prime(self, i: int, var: str, term: Term) -> int:
        """From the theorem A conclude [?var := term] A, routed through a
        vacuous antecedent so the plain necas rule applies."""
        a = self.formula(i)
        k = self.taut(Implies(a, Implies(Top(), a)))
        guarded = self.mp(i, k)
        boxed = self.necas(guarded, var, term)
        top = self.taut(Top())
        return self.mp(top, boxed)

    def box_mono(self, i: int, var: str, term: Term) -> int:
        """From A -> B conclude [?var := term]A -> [?var := term]B."""
        ab = self.formula(i)
        assert isinstance(ab, Implies)
        boxed = self.necas_prime(i, var, term)
        kas = self.axiom("KAS", x=var, t=term, p=ab.lhs, q=ab.rhs)
        return self.mp(boxed, kas)

    def box_iff(self, i: int, var: str, term: Term) -> int:
        """From A <-> B conclude [?var := term]A <-> [?var := term]B."""
        iff = self.formula(i)
        assert isinstance(iff, Iff)
        fwd_taut = self.taut(Implies(iff, Implies(iff.lhs, iff.rhs)))
        fwd = self.box_mono(self.mp(i, fwd_taut), var, term)
        bwd_taut = self.taut(Implies(iff, Implies(iff.rhs, iff.lhs)))
        bwd = self.box_mono(self.mp(i, bwd_taut), var, term)
        return self.iff_intro(fwd, bwd)

    def box_to_diamond(self, var: str, term: Term, phi: Formula) -> int:
        """The theorem [?var := term]phi -> ~[?var := term]~phi, from the
        executability axiom DAS."""
        box = lambda f: Assign(var, term, f)
        collapse = self.taut(Implies(Not(phi), Implies(phi, Not(Top()))))
        boxed = self.necas_prime(collapse, var, term)
        kas1 = self.axiom("KAS", x=var, t=term, p=Not(phi),
                          q=Implies(phi, Not(Top())))
        chain1 = self.mp(boxed, kas1)
        kas2 = self.axiom("KAS", x=var, t=term, p=phi, q=Not(Top()))
        chain2 = self.imp_trans(chain1, kas2)
        das = self.axiom("DAS", x=var, t=term)
        shuffle = self.taut(Implies(
            self.formula(chain2),
            Implies(Not(box(Not(Top()))),
                    Implies(box(phi), Not(box(Not(phi)))))))
        return self.mp(das, self.mp(chain2, shuffle))

    def box_absorb_efas(self, var: str, term: Term, phi: Formula) -> int:
        """The theorem [?v := t]phi <-> [?v := t](?v = t & phi)."""
        box = lambda f: Assign(var, term, f)
        guard = Eq(Var(var), term)
        expand = self.taut(Implies(phi, Implies(guard, And(guard, phi))))
        boxed = self.necas_prime(expand, var, term)
        kas1 = self.axiom("KAS", x=var, t=term, p=phi,
                          q=Implies(guard, And(guard, phi)))
        step1 = self.mp(boxed, kas1)
        kas2 = self.axiom("KAS", x=var, t=term, p=guard, q=And(guard, phi))
        step2 = self.imp_trans(step1, kas2)
        efas = self.axiom("EFAS", x=var, t=term)
        shuffle = self.taut(Implies(self.formula(step2),
                                    Implies(box(guard),
                                            Implies(box(phi), box(And(guard, phi))))))
        fwd = self.mp(efas, self.mp(step2, shuffle))
        drop = self.taut(Implies(And(guard, phi), phi))
        drop_boxed = self.box_mono(drop, var, term)
        return self.iff_intro(fwd, drop_boxed)


# ---------------------------------------------------------------------------
# The bundled scripts (representative instances)

_Pb = Pred("P", (Name("b"),))
_Px = Pred("P", (Var("x"),))
_Pa = Pred("P", (Name("a"),))
_a, _b, _c = Name("a"), Name("b"), Name("c")


def _build_sym() -> ProofScript:
    b = Builder()
    goal = Implies(Eq(_a, _b), Eq(_b, _a))
    subp = b.axiom("SUBP", P="=", ts=(_a, _a), us=(_b, _a))
    ident = b.axiom("ID", t=_a)
    shuffle = b.taut(Implies(b.formula(subp), Implies(Eq(_a, _a), goal)))
    b.mp(ident, b.mp(subp, shuffle))
    return b.script(goal)


def _build_trans() -> ProofScript:
    b = Builder()
    goal = Implies(And(Eq(_a, _b), Eq(_b, _c)), Eq(_a, _c))
    subp = b.axiom("SUBP", P="=", ts=(_b, _c), us=(_a, _c))
    sym = b.lemma("SYM", t1=_a, t2=_b)
    ident = b.axiom("ID", t=_c)
    shuffle = b.taut(Implies(b.formula(subp),
                             Implies(b.formula(sym),
                                     Implies(Eq(_c, _c), goal))))
    b.mp(ident, b.mp(sym, b.mp(subp, shuffle)))
    return b.script(goal)


def _build_dbaseq() -> ProofScript:
    b = Builder()
    goal = Iff(Not(Assign("x", _a, Not(_Px))), Assign("x", _a, _Px))
    detas = b.axiom("DETAS", x="x", t=_a, p=_Px)
    back = b.box_to_diamond("x", _a, _Px)
    b.iff_intro(detas, back)
    return b.script(goal)


def _build_subaseq() -> ProofScript:
    b = Builder()
    phi = Knows(Var("x"), _Px)
    phi_y = Knows(Var("y"), Pred("P", (Var("y"),)))
    goal = Iff(phi_y, Assign("x", Var("y"), phi))
    fwd = b.axiom("SUB2AS", x="x", y="y", p=phi)
    neg = b.axiom("SUB2AS", x="x", y="y", p=Not(phi))
    dual = b.lemma("DBASEQ", x="x", t=Var("y"), phi=phi)
    shuffle = b.taut(Implies(b.formula(fwd),
                             Implies(b.formula(neg),
                                     Implies(b.formula(dual), goal))))
    b.mp(dual, b.mp(neg, b.mp(fwd, shuffle)))
    return b.script(goal)


def _build_eas() -> ProofScript:
    b = Builder()
    box = lambda f: Assign("x", _a, f)
    goal = Iff(box(_Pb), _Pb)
    refl = b.taut(Implies(_Pb, _Pb))
    into = b.necas(refl, "x", _a)
    neg = b.taut(Implies(Not(_Pb), Not(_Pb)))
    neg_boxed = b.necas(neg, "x", _a)
    dual = b.lemma("DBASEQ", x="x", t=_a, phi=_Pb)
    shuffle = b.taut(Implies(b.formula(neg_boxed),
                             Implies(b.formula(dual),
                                     Implies(box(_Pb), _Pb))))
    outof = b.mp(dual, b.mp(neg_boxed, shuffle))
    b.iff_intro(outof, into)
    return b.script(goal)


def _build_t() -> ProofScript:
    b = Builder()
    kz = Knows(Var("z"), _Pb)
    ka = Knows(_a, _Pb)
    guard = Eq(Var("z"), _a)
    box = lambda f: Assign("z", _a, f)
    goal = Implies(ka, _Pb)
    subk = b.axiom("SUBK", t=Var("z"), u=_a, p=_Pb)
    shuffle1 = b.taut(Implies(b.formula(subk), Implies(ka, Implies(guard, kz))))
    hypo = b.mp(subk, shuffle1)
    boxed = b.necas(hypo, "z", _a)
    efas = b.axiom("EFAS", x="z", t=_a)
    kas = b.axiom("KAS", x="z", t=_a, p=guard, q=kz)
    shuffle2 = b.taut(Implies(b.formula(boxed),
                              Implies(b.formula(kas),
                                      Implies(box(guard), Implies(ka, box(kz))))))
    to_boxed_k = b.mp(efas, b.mp(kas, b.mp(boxed, shuffle2)))
    tx = b.axiom("Tx", x="z", p=_Pb)
    tx_boxed = b.necas_prime(tx, "z", _a)
    kas2 = b.axiom("KAS", x="z", t=_a, p=kz, q=_Pb)
    unbox = b.mp(tx_boxed, kas2)
    chained = b.imp_trans(to_boxed_k, unbox)
    eas = b.lemma("EAS", x="z", t=_a, phi=_Pb)
    finish = b.taut(Implies(b.formula(chained),
                            Implies(b.formula(eas), goal)))
    b.mp(eas, b.mp(chained, finish))
    return b.script(goal)


def _build_ex() -> ProofScript:
    b = Builder()
    goal = Iff(Assign("x", Var("x"), _Px), _Px)
    sub = b.lemma("SUBASEQ", x="x", y="x", phi=_Px)
    b.iff_sym(sub)
    return b.script(goal)


def _build_necas_prime() -> ProofScript:
    b = Builder()
    body = Or(_Pa, Not(_Pa))
    goal = Assign("x", _b, body)
    start = b.taut(body)
    b.necas_prime(start, "x", _b)
    return b.script(goal)


def _build_cnecas_pattern() -> ProofScript:
    b = Builder()
    ante = And(_Px, _Pa)
    box = Assign("x", _b, ante)
    goal = Implies(box, _Pa)
    weaken = b.taut(Implies(ante, _Pa))
    contra = b.contrapose(weaken)
    boxed = b.necas(contra, "x", _b)
    dual = b.lemma("DBASEQ", x="x", t=_b, phi=ante)
    shuffle = b.taut(Implies(b.formula(boxed),
                             Implies(b.formula(dual), goal)))
    b.mp(dual, b.mp(boxed, shuffle))
    return b.script(goal)


def _build_reletter() -> ProofScript:
    b = Builder()
    phi = Knows(Var("x"), _Px)
    phi_z = Knows(Var("z"), Pred("P", (Var("z"),)))
    renamed = Assign("x", Var("z"), phi)         # [?x := ?z] phi
    box_t = Assign("x", _a, phi)                 # [?x := a] phi
    goal = Iff(box_t, Assign("z", _a, phi_z))
    guard = Eq(Var("z"), _a)

    sub = b.lemma("SUBASEQ", x="x", y="z", phi=phi)          # phi_z <-> renamed
    lifted = b.box_iff(sub, "z", _a)             # [z:=a]phi_z <-> [z:=a]renamed
    absorb = b.box_absorb_efas("z", _a, renamed)  # [z:=a]renamed <-> [z:=a](guard & renamed)
    subas = b.axiom("SUBAS", t=Var("z"), u=_a, x="x", p=phi)
    inner = b.taut(Implies(b.formula(subas),
                           Iff(And(guard, renamed), And(guard, box_t))))
    inner_iff = b.mp(subas, inner)
    boxed_inner = b.box_iff(inner_iff, "z", _a)
    release = b.box_absorb_efas("z", _a, box_t)   # [z:=a]box_t <-> [z:=a](guard & box_t)
    release_rev = b.iff_sym(release)
    eas = b.lemma("EAS", x="z", t=_a, phi=box_t)  # [z:=a]box_t <-> box_t

    chain = b.iff_trans(lifted, absorb)
    chain = b.iff_trans(chain, boxed_inner)
    chain = b.iff_trans(chain, release_rev)
    chain = b.iff_trans(chain, eas)               # [z:=a]phi_z <-> box_t
    b.iff_sym(chain)
    return b.script(goal)


_BUILDERS = (
    ("SYM", _build_sym),
    ("TRANS", _build_trans),
    ("DBASEQ", _build_dbaseq),
    ("SUBASEQ", _build_subaseq),
    ("EAS", _build_eas),
    ("T", _build_t),
    ("EX", _build_ex),
    ("NECAS_PRIME", _build_necas_prime),
    ("CNECAS_PATTERN", _build_cnecas_pattern),
    ("RELETTER", _build_reletter),
)

_HEADERS = {
    "SYM": "Symmetry of equality, from ID and SUBP (with = in the predicate slot).",
    "TRANS": "Transitivity of equality, from ID, SUBP and SYM.",
    "DBASEQ": "Self-duality of the assignment binder: <?x := t> and [?x := t]\n"
              "coincide.  Forward direction is DETAS; the converse threads the\n"
              "executability axiom DAS through two KAS steps.",
    "SUBASEQ": "Substitution equivalence: phi[?y/?x] <-> [?x := ?y] phi for an\n"
               "admissible substitution, from SUB2AS applied to phi and ~phi\n"
               "plus self-duality.",
    "EAS": "Vacuous assignment: [?x := t] phi <-> phi when ?x is not free in\n"
           "phi.  Left-to-right goes through self-duality, right-to-left is a\n"
           "single necas step.",
    "T": "Factivity for an arbitrary index term: K{t} phi -> phi.  A fresh ?z\n"
         "is equated with the index via SUBK, boxed by necas, discharged with\n"
         "EFAS and the variable-indexed axiom Tx, then stripped with EAS.",
    "EX": "Self-assignment is invisible: [?x := ?x] phi <-> phi, the y := x\n"
          "instance of SUBASEQ.",
    "NECAS_PRIME": "Unconditional necessitation for the assignment binder:\n"
                   "from a theorem phi infer [?x := t] phi, routed through a\n"
                   "vacuous 'true ->' antecedent so plain necas applies.",
    "CNECAS_PATTERN": "Reverse necessitation pattern: from phi -> psi with ?x\n"
                      "not free in psi, infer [?x := t] phi -> psi via\n"
                      "contraposition, necas and self-duality.",
    "RELETTER": "Relettering a bound variable: [?x := t] phi is equivalent to\n"
                "[?z := t] phi[?z/?x] for fresh ?z.  The renamed body is\n"
                "re-expressed through SUBASEQ, the binder's equation ?z = t is\n"
                "absorbed and released around a SUBAS swap of the inner term.",
}


@lru_cache(maxsize=None)
def bundled_theorems() -> dict:
    """Name -> fully elaborated script; every script passes check_proof."""
    out = {}
    for name, build in _BUILDERS:
        script = build()
        report = check_proof(script)
        if not report.ok:
            bad = ", ".join(f"{v.index}: {v.message}" for v in report.failures())
            raise AssertionError(f"bundled script {name} failed: {bad or report.message}")
        out[name] = script
    return out


def render_all(directory: str) -> list:
    """Write the text form of every bundled script into directory; returns
    the file paths."""
    import os

    paths = []
    for name, script in bundled_theorems().items():
        path = os.path.join(directory, name.lower() + ".selas")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(print_script(script, header=_HEADERS[name]))
        paths.append(path)
    return paths
