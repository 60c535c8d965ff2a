"""Checker for Hilbert-style derivations.

A proof script is a numbered list of steps, each carrying a formula and a
justification: an axiom-schema instance, a propositional tautology, modus
ponens, necessitation for ``K{t}``, necessitation for ``[?x := t]`` (with
its freshness side condition), or a citation of a previously established
derived theorem instantiated at concrete formulas and terms.

Axiom schemas, with their side conditions:

====== =======================================================
DISTK  K{t}(p -> q) -> (K{t}p -> K{t}q)
Tx     K{?x}p -> p
4x     K{?x}p -> K{?x}K{?x}p
5x     ~K{?x}p -> K{?x}~K{?x}p
ID     t = t
SUBP   pointwise equalities -> (P(ts) <-> P(ts'));  P may be =
SUBK   t = t' -> (K{t}p <-> K{t'}p)
SUBAS  t = t' -> ([?x := t]p <-> [?x := t']p)
RIGIDP ?x = ?y -> K{t} ?x = ?y          (variables only)
RIGIDN ~(?x = ?y) -> K{t} ~(?x = ?y)    (variables only)
KAS    [?x := t](p -> q) -> ([?x := t]p -> [?x := t]q)
DETAS  <?x := t>p -> [?x := t]p
DAS    <?x := t>true
EFAS   [?x := t] ?x = t
SUB2AS p[?y/?x] -> [?x := ?y]p          (substitution admissible)
====== =======================================================

Rules: ``mp i j`` (step j must be step i -> this step), ``neck i K{t}``
(this step must be K{t} of step i), ``necas i [?x := t]`` (step i must be
p -> q, this step p -> [?x := t]q, with x not free in p).

Script text format, one step per line; ``#`` starts a comment::

    goal: <formula>
    1. <formula> ; axiom EFAS
    2. <formula> ; taut
    3. <formula> ; mp 1 2
    4. <formula> ; neck 1 K{a}
    5. <formula> ; necas 3 [?x := a]
    6. <formula> ; lemma EAS with x := ?z, t := a, phi := P(b)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .syntax import (
    BOOLEAN, And, Assign, Bot, Eq, Formula, Iff, Implies, Knows, Name, Not,
    Or, Pred, Term, Top, Var, all_vars, children, free_vars, is_admissible,
    parse_formula, parse_term, print_formula, print_term, rebuild,
    substitute, term_vars,
)


class ScriptError(Exception):
    """A proof-script file is malformed."""


class AtomBudgetError(Exception):
    """The tautology check would need more than the supported number of
    distinct atoms."""


AXIOM_IDS = ("DISTK", "Tx", "4x", "5x", "ID", "SUBP", "SUBK", "SUBAS",
             "RIGIDP", "RIGIDN", "KAS", "DETAS", "DAS", "EFAS", "SUB2AS")


# ---------------------------------------------------------------------------
# Axiom-schema matching

def _flatten_and(phi: Formula) -> list:
    if isinstance(phi, And):
        return _flatten_and(phi.lhs) + _flatten_and(phi.rhs)
    return [phi]


def match_axiom(axiom_id: str, phi: Formula):
    """A metavariable binding when phi instantiates the schema, else None.

    Schema metavariables t, t' range over terms, x, y over variables only,
    p, q over formulas; all side conditions are enforced here.
    """
    if axiom_id not in AXIOM_IDS:
        raise ValueError(f"unknown axiom {axiom_id}")
    match axiom_id, phi:
        case "DISTK", Implies(Knows(t1, Implies(p, q)),
                              Implies(Knows(t2, p2), Knows(t3, q2))):
            if t1 == t2 == t3 and p == p2 and q == q2:
                return {"t": t1, "p": p, "q": q}
        case "Tx", Implies(Knows(Var(x), p), p2):
            if p == p2:
                return {"x": x, "p": p}
        case "4x", Implies(Knows(Var(x1), p),
                           Knows(Var(x2), Knows(Var(x3), p2))):
            if x1 == x2 == x3 and p == p2:
                return {"x": x1, "p": p}
        case "5x", Implies(Not(Knows(Var(x1), p)),
                           Knows(Var(x2), Not(Knows(Var(x3), p2)))):
            if x1 == x2 == x3 and p == p2:
                return {"x": x1, "p": p}
        case "ID", Eq(lhs, rhs):
            if lhs == rhs:
                return {"t": lhs}
        case "SUBP", Implies(lhs, Iff(Pred(sym1, ts), Pred(sym2, ts2))):
            if sym1 == sym2 and len(ts) == len(ts2) and len(ts) >= 1:
                want = [Eq(a, b) for a, b in zip(ts, ts2)]
                if _flatten_and(lhs) == want:
                    return {"P": sym1, "ts": ts, "ts'": ts2}
        case "SUBP", Implies(lhs, Iff(Eq(a1, a2), Eq(b1, b2))):
            # the predicate position may itself be equality (arity 2)
            if _flatten_and(lhs) == [Eq(a1, b1), Eq(a2, b2)]:
                return {"P": "=", "ts": (a1, a2), "ts'": (b1, b2)}
        case "SUBK", Implies(Eq(t1, t2), Iff(Knows(t3, p), Knows(t4, p2))):
            if t1 == t3 and t2 == t4 and p == p2:
                return {"t": t1, "t'": t2, "p": p}
        case "SUBAS", Implies(Eq(t1, t2),
                              Iff(Assign(x1, t3, p), Assign(x2, t4, p2))):
            if t1 == t3 and t2 == t4 and x1 == x2 and p == p2:
                return {"t": t1, "t'": t2, "x": x1, "p": p}
        case "RIGIDP", Implies(Eq(Var(x1), Var(y1)),
                               Knows(t, Eq(Var(x2), Var(y2)))):
            if x1 == x2 and y1 == y2:
                return {"x": x1, "y": y1, "t": t}
        case "RIGIDN", Implies(Not(Eq(Var(x1), Var(y1))),
                               Knows(t, Not(Eq(Var(x2), Var(y2))))):
            if x1 == x2 and y1 == y2:
                return {"x": x1, "y": y1, "t": t}
        case "KAS", Implies(Assign(x1, t1, Implies(p, q)),
                            Implies(Assign(x2, t2, p2), Assign(x3, t3, q2))):
            if x1 == x2 == x3 and t1 == t2 == t3 and p == p2 and q == q2:
                return {"x": x1, "t": t1, "p": p, "q": q}
        case "DETAS", Implies(Not(Assign(x1, t1, Not(p))), Assign(x2, t2, p2)):
            if x1 == x2 and t1 == t2 and p == p2:
                return {"x": x1, "t": t1, "p": p}
        case "DAS", Not(Assign(x, t, Not(Top()))):
            return {"x": x, "t": t}
        case "EFAS", Assign(x, t, Eq(Var(x2), t2)):
            if x == x2 and t == t2:
                return {"x": x, "t": t}
        case "SUB2AS", Implies(p_sub, Assign(x, Var(y), p)):
            if is_admissible(p, y, x) and substitute(p, y, x) == p_sub:
                return {"x": x, "y": y, "p": p}
    return None


# ---------------------------------------------------------------------------
# Propositional tautologies

def _abstract(phi: Formula, atoms: dict):
    """Map maximal non-Boolean subformulas to shared atom indices."""
    if isinstance(phi, (Top, Bot)):
        return phi
    if isinstance(phi, BOOLEAN):
        return type(phi)(*(_abstract(kid, atoms) for kid in children(phi)))
    if phi not in atoms:
        atoms[phi] = len(atoms)
    return Pred(f"@{atoms[phi]}", ())


def _truth(phi: Formula, row: dict) -> bool:
    match phi:
        case Top():
            return True
        case Bot():
            return False
        case Pred(sym, ()):
            return row[sym]
        case Not(body):
            return not _truth(body, row)
        case And(l, r):
            return _truth(l, row) and _truth(r, row)
        case Or(l, r):
            return _truth(l, row) or _truth(r, row)
        case Implies(l, r):
            return (not _truth(l, row)) or _truth(r, row)
        case Iff(l, r):
            return _truth(l, row) == _truth(r, row)
    raise TypeError(f"unexpected abstracted formula: {phi!r}")


def check_taut(phi: Formula, max_atoms: int = 16) -> bool:
    """Truth-table check over the abstracted atoms; identical subformulas
    share an atom."""
    atoms: dict = {}
    skeleton = _abstract(phi, atoms)
    if len(atoms) > max_atoms:
        raise AtomBudgetError(
            f"{len(atoms)} distinct atoms exceed the budget of {max_atoms}")
    syms = [f"@{i}" for i in range(len(atoms))]
    for values in itertools.product((False, True), repeat=len(syms)):
        if not _truth(skeleton, dict(zip(syms, values))):
            return False
    return True


# ---------------------------------------------------------------------------
# Scripts

@dataclass(frozen=True)
class Axiom:
    id: str


@dataclass(frozen=True)
class Taut:
    pass


@dataclass(frozen=True)
class MP:
    i: int
    j: int


@dataclass(frozen=True)
class NecK:
    i: int
    agent: Term


@dataclass(frozen=True)
class NecAs:
    i: int
    var: str
    term: Term


@dataclass(frozen=True)
class Lemma:
    name: str
    bindings: tuple        # ((param, Term | Formula), ...)


@dataclass(frozen=True)
class ProofStep:
    index: int
    formula: Formula
    just: object       # Axiom | Taut | MP | NecK | NecAs | Lemma


@dataclass(frozen=True)
class ProofScript:
    goal: Formula
    steps: tuple


@dataclass
class StepVerdict:
    index: int
    ok: bool
    message: str = "ok"


@dataclass
class ProofReport:
    ok: bool
    steps: list
    message: str = "ok"

    def failures(self):
        return [v for v in self.steps if not v.ok]


# ---------------------------------------------------------------------------
# Derived-theorem schemas (citable via `lemma`)

@dataclass(frozen=True)
class LemmaSchema:
    name: str
    params: tuple                  # ((param name, "var" | "term" | "formula"), ...)
    build: object = field(compare=False)       # bindings dict -> Formula
    side: object = field(compare=False, default=None)   # bindings -> error or None


def _schema_sym(b):
    return Implies(Eq(b["t1"], b["t2"]), Eq(b["t2"], b["t1"]))


def _schema_trans(b):
    return Implies(And(Eq(b["t1"], b["t2"]), Eq(b["t2"], b["t3"])),
                   Eq(b["t1"], b["t3"]))


def _schema_dbaseq(b):
    return Iff(Not(Assign(b["x"], b["t"], Not(b["phi"]))),
               Assign(b["x"], b["t"], b["phi"]))


def _schema_subaseq(b):
    return Iff(substitute(b["phi"], b["y"], b["x"]),
               Assign(b["x"], Var(b["y"]), b["phi"]))


def _side_subaseq(b):
    if not is_admissible(b["phi"], b["y"], b["x"]):
        return f"substituting ?{b['y']} for ?{b['x']} is not admissible here"
    return None


def _schema_eas(b):
    return Iff(Assign(b["x"], b["t"], b["phi"]), b["phi"])


def _side_eas(b):
    if b["x"] in free_vars(b["phi"]):
        return f"?{b['x']} must not occur free in the body"
    return None


def _schema_t(b):
    return Implies(Knows(b["t"], b["phi"]), b["phi"])


def _schema_ex(b):
    return Iff(Assign(b["x"], Var(b["x"]), b["phi"]), b["phi"])


def _schema_reletter(b):
    return Iff(Assign(b["x"], b["t"], b["phi"]),
               Assign(b["z"], b["t"], substitute(b["phi"], b["z"], b["x"])))


def _side_reletter(b):
    if b["z"] in all_vars(b["phi"]) | term_vars(b["t"]) | {b["x"]}:
        return f"?{b['z']} must be fresh for the formula and the term"
    return None


LEMMA_SCHEMAS = {
    "SYM": LemmaSchema("SYM", (("t1", "term"), ("t2", "term")), _schema_sym),
    "TRANS": LemmaSchema("TRANS", (("t1", "term"), ("t2", "term"), ("t3", "term")),
                         _schema_trans),
    "DBASEQ": LemmaSchema("DBASEQ", (("x", "var"), ("t", "term"), ("phi", "formula")),
                          _schema_dbaseq),
    "SUBASEQ": LemmaSchema("SUBASEQ", (("x", "var"), ("y", "var"), ("phi", "formula")),
                           _schema_subaseq, _side_subaseq),
    "EAS": LemmaSchema("EAS", (("x", "var"), ("t", "term"), ("phi", "formula")),
                       _schema_eas, _side_eas),
    "T": LemmaSchema("T", (("t", "term"), ("phi", "formula")), _schema_t),
    "EX": LemmaSchema("EX", (("x", "var"), ("phi", "formula")), _schema_ex),
    "RELETTER": LemmaSchema("RELETTER",
                            (("x", "var"), ("t", "term"), ("z", "var"),
                             ("phi", "formula")),
                            _schema_reletter, _side_reletter),
}


def instantiate_lemma(name: str, bindings: dict) -> Formula:
    """The goal of a named derived theorem at the given metavariable values."""
    schema = LEMMA_SCHEMAS.get(name)
    if schema is None:
        raise ScriptError(f"unknown lemma {name}")
    values = {}
    for param, kind in schema.params:
        if param not in bindings:
            raise ScriptError(f"lemma {name} needs a binding for {param}")
        value = bindings[param]
        if kind == "var":
            if isinstance(value, Var):
                value = value.id
            if not isinstance(value, str):
                raise ScriptError(f"{param} of lemma {name} must be a variable")
        elif kind == "term":
            if not isinstance(value, (Var, Name)):
                raise ScriptError(f"{param} of lemma {name} must be a term")
        elif kind == "formula":
            if isinstance(value, (Var, Name)):
                raise ScriptError(f"{param} of lemma {name} must be a formula")
        values[param] = value
    extra = set(bindings) - {p for p, _ in schema.params}
    if extra:
        raise ScriptError(f"lemma {name} does not take {sorted(extra)}")
    if schema.side is not None:
        problem = schema.side(values)
        if problem:
            raise ScriptError(f"lemma {name}: {problem}")
    return schema.build(values)


# ---------------------------------------------------------------------------
# Step and proof checking

def check_step(script: ProofScript, index: int) -> StepVerdict:
    """Validate the justification of one step against the steps before it."""
    return _check_step({s.index: s for s in script.steps}, index)


def _check_step(by_index: dict, index: int) -> StepVerdict:
    step = by_index.get(index)
    if step is None:
        return StepVerdict(index, False, f"no step {index}")

    def premise(i):
        prem = by_index.get(i)
        if prem is None or prem.index >= step.index:
            return None
        return prem

    just = step.just
    phi = step.formula
    match just:
        case Axiom(axiom_id):
            try:
                witness = match_axiom(axiom_id, phi)
            except ValueError as exc:
                return StepVerdict(index, False, str(exc))
            if witness is None:
                return StepVerdict(index, False,
                                   f"not an instance of {axiom_id}")
            return StepVerdict(index, True)
        case Taut():
            try:
                if check_taut(phi):
                    return StepVerdict(index, True)
            except AtomBudgetError as exc:
                return StepVerdict(index, False, str(exc))
            return StepVerdict(index, False, "not a propositional tautology")
        case MP(i, j):
            pi, pj = premise(i), premise(j)
            if pi is None or pj is None:
                return StepVerdict(index, False, "mp premises must be earlier steps")
            if pj.formula != Implies(pi.formula, phi):
                return StepVerdict(
                    index, False,
                    f"step {j} is not (step {i} -> step {index})")
            return StepVerdict(index, True)
        case NecK(i, agent):
            pi = premise(i)
            if pi is None:
                return StepVerdict(index, False, "neck premise must be an earlier step")
            if phi != Knows(agent, pi.formula):
                return StepVerdict(
                    index, False,
                    f"expected K{{{print_term(agent)}}} applied to step {i}")
            return StepVerdict(index, True)
        case NecAs(i, var, term):
            pi = premise(i)
            if pi is None:
                return StepVerdict(index, False, "necas premise must be an earlier step")
            if not isinstance(pi.formula, Implies):
                return StepVerdict(index, False, f"step {i} is not an implication")
            ante, cons = pi.formula.lhs, pi.formula.rhs
            if phi != Implies(ante, Assign(var, term, cons)):
                return StepVerdict(
                    index, False,
                    f"expected {print_formula(ante)} -> "
                    f"[?{var} := {print_term(term)}] {print_formula(cons)}")
            if var in free_vars(ante):
                return StepVerdict(
                    index, False,
                    f"side condition violated: ?{var} occurs free in the antecedent")
            return StepVerdict(index, True)
        case Lemma(name, bindings):
            try:
                expected = instantiate_lemma(name, dict(bindings))
            except ScriptError as exc:
                return StepVerdict(index, False, str(exc))
            if expected != phi:
                return StepVerdict(
                    index, False,
                    f"lemma {name} instantiates to {print_formula(expected)}")
            return StepVerdict(index, True)
    return StepVerdict(index, False, f"unknown justification {just!r}")


def check_proof(script: ProofScript) -> ProofReport:
    """Check every step and the goal; all failures are reported."""
    verdicts: list = []
    if not script.steps:
        return ProofReport(False, [], "empty script")
    previous = 0
    structural_ok = True
    for step in script.steps:
        if step.index <= previous:
            verdicts.append(StepVerdict(step.index, False,
                                        "step indices must strictly increase"))
            structural_ok = False
        previous = step.index
    by_index = {s.index: s for s in script.steps}
    for step in script.steps:
        verdicts.append(_check_step(by_index, step.index))
    ok = structural_ok and all(v.ok for v in verdicts)
    message = "ok"
    if script.steps[-1].formula != script.goal:
        ok = False
        message = "last step does not establish the goal"
    elif not ok:
        message = "some steps failed"
    return ProofReport(ok, verdicts, message)


# ---------------------------------------------------------------------------
# Text format

def _split_top_level(text: str, sep: str = ",") -> list:
    parts, depth, current = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            depth -= 1
        if ch == sep and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return parts


def _parse_binding_value(text: str):
    text = text.strip()
    try:
        return parse_term(text)
    except Exception:
        return parse_formula(text)


def _parse_justification(text: str):
    text = text.strip()
    if text == "taut":
        return Taut()
    head, _, rest = text.partition(" ")
    rest = rest.strip()
    if head == "axiom":
        if rest not in AXIOM_IDS:
            raise ScriptError(f"unknown axiom {rest!r}")
        return Axiom(rest)
    if head == "mp":
        try:
            i, j = rest.split()
            return MP(int(i), int(j))
        except ValueError:
            raise ScriptError(f"malformed mp justification {text!r}") from None
    if head == "neck":
        i, _, spec = rest.partition(" ")
        spec = spec.strip()
        if not (spec.startswith("K{") and spec.endswith("}")):
            raise ScriptError(f"neck needs K{{term}}, got {spec!r}")
        return NecK(int(i), parse_term(spec[2:-1]))
    if head == "necas":
        i, _, spec = rest.partition(" ")
        spec = spec.strip()
        if not (spec.startswith("[") and spec.endswith("]")):
            raise ScriptError(f"necas needs [?x := term], got {spec!r}")
        var_part, _, term_part = spec[1:-1].partition(":=")
        var_part = var_part.strip()
        if not var_part.startswith("?"):
            raise ScriptError("necas binder must be a variable")
        return NecAs(int(i), var_part[1:], parse_term(term_part.strip()))
    if head == "lemma":
        name, _, with_part = rest.partition(" with ")
        name = name.strip()
        bindings = []
        if with_part.strip():
            for item in _split_top_level(with_part):
                param, sep, value = item.partition(":=")
                if not sep:
                    raise ScriptError(f"malformed lemma binding {item!r}")
                bindings.append((param.strip(), _parse_binding_value(value)))
        return Lemma(name, tuple(bindings))
    raise ScriptError(f"unknown justification {text!r}")


def parse_script(text: str) -> ProofScript:
    goal = None
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("goal:"):
            if goal is not None:
                raise ScriptError(f"line {lineno}: duplicate goal")
            goal = parse_formula(line[len("goal:"):].strip())
            continue
        head, sep, rest = line.partition(".")
        if not sep or not head.strip().isdigit():
            raise ScriptError(f"line {lineno}: expected '<index>. <formula> ; <justification>'")
        index = int(head)
        formula_text, sep, just_text = rest.rpartition(";")
        if not sep:
            raise ScriptError(f"line {lineno}: missing ';' before the justification")
        try:
            formula = parse_formula(formula_text.strip())
            just = _parse_justification(just_text)
        except Exception as exc:
            raise ScriptError(f"line {lineno}: {exc}") from exc
        steps.append(ProofStep(index, formula, just))
    if goal is None:
        raise ScriptError("missing 'goal:' line")
    if not steps:
        raise ScriptError("script has no steps")
    return ProofScript(goal, tuple(steps))


def _print_binding_value(value) -> str:
    if isinstance(value, (Var, Name)):
        return print_term(value)
    return print_formula(value)


def print_justification(just) -> str:
    match just:
        case Axiom(axiom_id):
            return f"axiom {axiom_id}"
        case Taut():
            return "taut"
        case MP(i, j):
            return f"mp {i} {j}"
        case NecK(i, agent):
            return f"neck {i} K{{{print_term(agent)}}}"
        case NecAs(i, var, term):
            return f"necas {i} [?{var} := {print_term(term)}]"
        case Lemma(name, bindings):
            if not bindings:
                return f"lemma {name}"
            parts = ", ".join(f"{p} := {_print_binding_value(v)}" for p, v in bindings)
            return f"lemma {name} with {parts}"
    raise TypeError(f"unknown justification {just!r}")


def print_script(script: ProofScript, header: str = None) -> str:
    lines = []
    if header:
        lines.extend("# " + h for h in header.splitlines())
    lines.append(f"goal: {print_formula(script.goal)}")
    for step in script.steps:
        lines.append(f"{step.index}. {print_formula(step.formula)} ; "
                     f"{print_justification(step.just)}")
    return "\n".join(lines) + "\n"


def load_script(path: str) -> ProofScript:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


# ---------------------------------------------------------------------------
# Mutations (test support: a checked script must not survive any of these)

_FLIPS = {And: Or, Or: And, Implies: Iff, Iff: Implies}


def _mutants(phi: Formula):
    """Every formula obtained by flipping exactly one connective."""
    if isinstance(phi, Not):
        yield phi.body                       # drop the negation
    kids = children(phi)
    if type(phi) in _FLIPS:
        yield _FLIPS[type(phi)](*kids)
    for i, kid in enumerate(kids):
        for m in _mutants(kid):
            yield rebuild(phi, kids[:i] + (m,) + kids[i + 1:])


def connective_mutations(script: ProofScript):
    """Yield (description, script) pairs, one per single-connective flip of
    a single step's formula."""
    for pos, step in enumerate(script.steps):
        for mutant in _mutants(step.formula):
            steps = list(script.steps)
            steps[pos] = ProofStep(step.index, mutant, step.just)
            yield (f"step {step.index}: {print_formula(mutant)}",
                   ProofScript(script.goal, tuple(steps)))
