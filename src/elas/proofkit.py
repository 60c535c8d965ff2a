"""Checker for Hilbert-style derivations.

A proof script is a numbered list of steps, each carrying a formula and a
justification: an axiom-schema instance, a propositional tautology, modus
ponens, necessitation for ``K{t}``, necessitation for ``[?x := t]`` (with
its freshness side condition), or a citation of a previously established
derived theorem instantiated at concrete formulas and terms.  A tautology
is checked on the truth table over its maximal non-Boolean subformulas (at
most ``MAX_ATOMS``, 16) in one walk over bit vectors that computes each
distinct node's vector once: formulas are hash-consed, so equal
subformulas are one node.  The atoms' columns come from a fixed table of
2 ** 6 rows; a formula of more than six atoms is walked once more at its
exact width.  Hash-consing also lets a rule compare a step with its
premises by identity.

The axiom schemas are the table ``AXIOMS`` and the derived theorems the
table ``LEMMAS``, both written in the formula syntax; SUBP, SUB2AS,
SUBASEQ and RELETTER take any arity or substitute, and are built in code.

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

The ten bundled derivations are scripts in this format, shipped as package
data under ``elas/proofs/``; ``bundled_theorems`` loads and checks them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from importlib.resources import files

from .semantics import digit_mask
from .syntax import (
    BINARY, And, Assign, Bot, Eq, Formula, FreshnessError, Iff, Implies, Knows,
    Name, Not, Or, ParseError, Pred, SubstitutionError, Term, Top, Var,
    children, free_vars, parse_formula, parse_term, print_formula, print_term,
    rebuild, reletter, subformulas, substitute, terms_of,
)


class ScriptError(Exception):
    """A proof-script file is malformed."""


class AtomBudgetError(Exception):
    """The tautology check would need more than the supported number of
    distinct atoms."""


MAX_ATOMS = 16           # check_taut's truth table has up to 2 ** 16 rows

AXIOM_IDS = ("DISTK", "Tx", "4x", "5x", "ID", "SUBP", "SUBK", "SUBAS",
             "RIGIDP", "RIGIDN", "KAS", "DETAS", "DAS", "EFAS", "SUB2AS")


# ---------------------------------------------------------------------------
# Schemas: matching and instantiation

# A name is a term metavariable, a variable (free or binding) a
# variable-only one and a 0-ary predicate a formula metavariable keyed by
# its lower-cased symbol.  Built in code: SUBP, t1 = u1 & ... & tn = un ->
# (P(t1..tn) <-> P(u1..un)) with P possibly =, and SUB2AS, p[?y/?x] ->
# [?x := ?y] p with the substitution admissible.
AXIOMS = {
    "DISTK": "K{t} (P -> Q) -> (K{t} P -> K{t} Q)",
    "Tx": "K{?x} P -> P",
    "4x": "K{?x} P -> K{?x} K{?x} P",
    "5x": "~K{?x} P -> K{?x} ~K{?x} P",
    "ID": "t = t",
    "SUBK": "t = u -> (K{t} P <-> K{u} P)",
    "SUBAS": "t = u -> ([?x := t] P <-> [?x := u] P)",
    "RIGIDP": "?x = ?y -> K{t} ?x = ?y",
    "RIGIDN": "~(?x = ?y) -> K{t} ~(?x = ?y)",
    "KAS": "[?x := t] (P -> Q) -> ([?x := t] P -> [?x := t] Q)",
    "DETAS": "<?x := t> P -> [?x := t] P",
    "DAS": "<?x := t> true",
    "EFAS": "[?x := t] ?x = t",
}

# Derived theorems citable by `lemma`; EAS needs ?x not free in phi.  Built
# in code: SUBASEQ, phi[?y/?x] <-> [?x := ?y] phi with the substitution
# admissible, and RELETTER, [?x := t] phi <-> [?z := t] phi[?z/?x], ?z fresh.
LEMMAS = {
    "SYM": "t1 = t2 -> t2 = t1",
    "TRANS": "t1 = t2 & t2 = t3 -> t1 = t3",
    "DBASEQ": "<?x := t> PHI <-> [?x := t] PHI",
    "EAS": "[?x := t] PHI <-> PHI",
    "T": "K{t} PHI -> PHI",
    "EX": "[?x := ?x] PHI <-> PHI",
}


def _metavariables(schema: Formula) -> dict:
    """Each metavariable mapped to "variable", "term" or "formula", in order
    of first occurrence."""
    kinds = {}
    for f in subformulas(schema):
        if isinstance(f, Pred):
            kinds.setdefault(f.sym.lower(), "formula")
        if isinstance(f, Assign):
            kinds.setdefault(f.var, "variable")
        for t in terms_of(f):
            kinds.setdefault(t.id, "variable" if isinstance(t, Var) else "term")
    return kinds


_AXIOM_SCHEMAS = {key: parse_formula(text) for key, text in AXIOMS.items()}
_LEMMA_SCHEMAS = {key: parse_formula(text) for key, text in LEMMAS.items()}


def _match(schema: Formula, phi, binding: dict) -> bool:
    """Extend binding so that the schema instantiates to phi."""
    node = type(schema)
    if node is Pred:
        bound = binding.setdefault(schema.sym.lower(), phi)
        return bound is phi and not isinstance(phi, (Var, Name))
    if type(phi) is not node:
        return False
    if node in BINARY:                  # no terms of its own
        return (_match(schema.lhs, phi.lhs, binding)
                and _match(schema.rhs, phi.rhs, binding))
    if node is Not:
        return _match(schema.body, phi.body, binding)
    if node is Assign and binding.setdefault(schema.var, phi.var) != phi.var:
        return False
    for meta, t in zip(terms_of(schema), terms_of(phi)):
        if type(meta) is Var:
            if type(t) is not Var:
                return False
            t = t.id
        bound = binding.setdefault(meta.id, t)
        if bound is not t and bound != t:
            return False
    for s, f in zip(children(schema), children(phi)):
        if not _match(s, f, binding):
            return False
    return True


def _fill(schema: Formula, values: dict) -> Formula:
    """The schema with every metavariable replaced by its value."""
    if isinstance(schema, Pred):
        return values[schema.sym.lower()]
    phi = rebuild(schema, [_fill(kid, values) for kid in children(schema)],
                  lambda t: Var(values[t.id]) if isinstance(t, Var) else values[t.id])
    return Assign(values[phi.var], phi.term, phi.body) if isinstance(phi, Assign) else phi


def match_axiom(axiom_id: str, phi: Formula):
    """A metavariable binding (a variable as its id) when phi instantiates
    the schema, else None; all side conditions are enforced here."""
    schema = _AXIOM_SCHEMAS.get(axiom_id)
    if schema is not None:
        binding = {}
        return binding if _match(schema, phi, binding) else None
    if axiom_id not in AXIOM_IDS:
        raise ValueError(f"unknown axiom {axiom_id}")
    match axiom_id, phi:
        case "SUBP", Implies(lhs, Iff(Eq() | Pred() as left, right)):
            sym, ts, us = getattr(left, "sym", "="), terms_of(left), terms_of(right)
            conjuncts = [f for f in subformulas(lhs) if not isinstance(f, And)]
            if (type(right) is type(left) and getattr(right, "sym", "=") == sym and ts
                    and len(ts) == len(us) and conjuncts == list(map(Eq, ts, us))):
                return {"P": sym, "ts": ts, "us": us}
        case "SUB2AS", Implies(p_sub, Assign(x, Var(y), p)):
            try:
                if substitute(p, y, x) == p_sub:
                    return {"x": x, "y": y, "p": p}
            except SubstitutionError:
                pass
    return None


def instantiate_axiom(axiom_id: str, binding: dict) -> Formula:
    """The instance of the schema at the metavariable values (a variable as
    its id), the inverse of match_axiom; keys the schema does not use are
    ignored."""
    if axiom_id == "SUBP":
        sym, ts, us = binding["P"], tuple(binding["ts"]), tuple(binding["us"])
        sides = (Eq(*ts), Eq(*us)) if sym == "=" else (Pred(sym, ts), Pred(sym, us))
        return Implies(functools.reduce(And, map(Eq, ts, us)), Iff(*sides))
    if axiom_id == "SUB2AS":           # SubstitutionError when not admissible
        x, y, p = binding["x"], binding["y"], binding["p"]
        return Implies(substitute(p, y, x), Assign(x, Var(y), p))
    if axiom_id not in _AXIOM_SCHEMAS:
        raise ValueError(f"unknown axiom {axiom_id}")
    return _fill(_AXIOM_SCHEMAS[axiom_id], binding)


# ---------------------------------------------------------------------------
# Propositional tautologies

# Truth-table columns of atoms 0-5 over 2 ** 6 rows, row r giving atom i
# bit i of r.  A formula of fewer atoms is decided on these rows too: its
# vector repeats with period 2 ** atoms, so every row is some assignment.
_TABLE_ATOMS = 6
_TABLE_COLUMNS = tuple(digit_mask(1 << _TABLE_ATOMS, 1 << i, 2, 1)
                       for i in range(_TABLE_ATOMS))
_TABLE_FULL = (1 << (1 << _TABLE_ATOMS)) - 1


def _truth_vector(phi: Formula, columns, full: int):
    """phi's truth table as a bit vector over the atom columns given, and
    its number of distinct atoms, numbered in order of first occurrence;
    the vector means nothing when the atoms outnumber the columns.  Each
    distinct node is evaluated once."""
    vectors: dict = {}
    atoms = 0

    def vec(f):
        nonlocal atoms
        v = vectors.get(f)
        if v is not None:
            return v
        node = type(f)
        if node is Not:
            v = vec(f.body) ^ full
        elif node is And:
            v = vec(f.lhs) & vec(f.rhs)
        elif node is Or:
            v = vec(f.lhs) | vec(f.rhs)
        elif node is Implies:
            v = (vec(f.lhs) ^ full) | vec(f.rhs)
        elif node is Iff:
            v = vec(f.lhs) ^ vec(f.rhs) ^ full
        elif node is Top:
            v = full
        elif node is Bot:
            v = 0
        else:                                   # a maximal non-Boolean subformula
            v = columns[atoms] if atoms < len(columns) else 0
            atoms += 1
        vectors[f] = v
        return v

    vector = vec(phi)
    return vector, atoms


def check_taut(phi: Formula) -> bool:
    """Truth-table check over the maximal non-Boolean subformulas (the
    atoms; equal ones are one node), with a bit per row, in one walk that
    computes each distinct node's vector once.  The walk reads the atoms'
    columns from a table of 2 ** 6 rows; a formula of more atoms is walked
    once more at its exact width, 2 ** atoms rows."""
    full = _TABLE_FULL
    vector, atoms = _truth_vector(phi, _TABLE_COLUMNS, full)
    if atoms > _TABLE_ATOMS:
        if atoms > MAX_ATOMS:
            raise AtomBudgetError(
                f"{atoms} distinct atoms exceed the budget of {MAX_ATOMS}")
        rows = 1 << atoms
        full = (1 << rows) - 1
        columns = [digit_mask(rows, 1 << i, 2, 1) for i in range(atoms)]
        vector = _truth_vector(phi, columns, full)[0]
    return vector == full


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
# Derived theorems (citable via `lemma`)

# name -> (metavariable kinds, goal builder)
_LEMMA_BUILDERS = {
    **{name: (_metavariables(schema), functools.partial(_fill, schema))
       for name, schema in _LEMMA_SCHEMAS.items()},
    "SUBASEQ": ({"x": "variable", "y": "variable", "phi": "formula"},
                lambda v: Iff(*children(instantiate_axiom("SUB2AS", {**v, "p": v["phi"]})))),
    "RELETTER": ({"x": "variable", "t": "term", "z": "variable", "phi": "formula"},
                 lambda v: Iff(Assign(v["x"], v["t"], v["phi"]),
                               reletter(Assign(v["x"], v["t"], v["phi"]), v["z"]))),
}


def instantiate_lemma(name: str, bindings: dict) -> Formula:
    """The goal of a named derived theorem at the given metavariable values."""
    if name not in _LEMMA_BUILDERS:
        raise ScriptError(f"unknown lemma {name}")
    kinds, build = _LEMMA_BUILDERS[name]
    v = {}                              # the values, a variable as its id
    for key, kind in kinds.items():
        if key not in bindings:
            raise ScriptError(f"lemma {name} needs a binding for {key}")
        value = bindings[key]
        if kind == "variable" and isinstance(value, Var):
            value = value.id
        is_term = isinstance(value, (Var, Name))
        if not {"variable": isinstance(value, str), "term": is_term,
                "formula": not is_term}[kind]:
            raise ScriptError(f"{key} of lemma {name} must be a {kind}")
        v[key] = value
    extra = set(bindings) - set(kinds)
    if extra:
        raise ScriptError(f"lemma {name} does not take {sorted(extra)}")
    if name == "EAS" and v["x"] in free_vars(v["phi"]):
        raise ScriptError(f"lemma EAS: ?{v['x']} must not occur free in the body")
    try:
        return build(v)
    except SubstitutionError:           # SUBASEQ's substitution
        raise ScriptError(f"lemma SUBASEQ: substituting ?{v['y']} for ?{v['x']} "
                          "is not admissible here") from None
    except FreshnessError:              # RELETTER's new variable
        raise ScriptError(f"lemma RELETTER: ?{v['z']} must be fresh for the "
                          "formula and the term") from None


# ---------------------------------------------------------------------------
# Step and proof checking

def check_step(script: ProofScript, index: int) -> StepVerdict:
    """Validate the justification of one step (the last line with that
    index) against the lines before it."""
    steps = script.steps
    for pos in reversed(range(len(steps))):
        if steps[pos].index == index:
            return _check_step({s.index: s for s in steps[:pos]}, steps[pos])
    return StepVerdict(index, False, f"no step {index}")


def _check_step(by_index: dict, step: ProofStep) -> StepVerdict:
    """The verdict on step, its premises looked up by index in by_index,
    which maps an index to the latest line before step.  Formulas are
    hash-consed, so a premise is compared by identity."""
    index, phi, just = step.index, step.formula, step.just

    def premise(i):
        prem = by_index.get(i)
        if prem is None or prem.index >= index:
            return None
        return prem

    rule = type(just)
    if rule is Taut:
        try:
            if check_taut(phi):
                return StepVerdict(index, True)
        except AtomBudgetError as exc:
            return StepVerdict(index, False, str(exc))
        return StepVerdict(index, False, "not a propositional tautology")
    if rule is MP:
        i, j = just.i, just.j
        pi, pj = premise(i), premise(j)
        if pi is None or pj is None:
            return StepVerdict(index, False, "mp premises must be earlier steps")
        f = pj.formula
        if not (type(f) is Implies and f.lhs is pi.formula and f.rhs is phi):
            return StepVerdict(
                index, False,
                f"step {j} is not (step {i} -> step {index})")
        return StepVerdict(index, True)
    if rule is Axiom:
        try:
            witness = match_axiom(just.id, phi)
        except ValueError as exc:
            return StepVerdict(index, False, str(exc))
        if witness is None:
            return StepVerdict(index, False, f"not an instance of {just.id}")
        return StepVerdict(index, True)
    if rule is NecK:
        i, agent = just.i, just.agent
        pi = premise(i)
        if pi is None:
            return StepVerdict(index, False, "neck premise must be an earlier step")
        if not (type(phi) is Knows and phi.agent is agent and phi.body is pi.formula):
            return StepVerdict(
                index, False,
                f"expected K{{{print_term(agent)}}} applied to step {i}")
        return StepVerdict(index, True)
    if rule is NecAs:
        i, var, term = just.i, just.var, just.term
        pi = premise(i)
        if pi is None:
            return StepVerdict(index, False, "necas premise must be an earlier step")
        if type(pi.formula) is not Implies:
            return StepVerdict(index, False, f"step {i} is not an implication")
        ante, cons = pi.formula.lhs, pi.formula.rhs
        bound = phi.rhs if type(phi) is Implies and phi.lhs is ante else None
        if not (type(bound) is Assign and bound.var == var
                and bound.term is term and bound.body is cons):
            return StepVerdict(
                index, False,
                f"expected {print_formula(ante)} -> "
                f"[?{var} := {print_term(term)}] {print_formula(cons)}")
        if var in free_vars(ante):
            return StepVerdict(
                index, False,
                f"side condition violated: ?{var} occurs free in the antecedent")
        return StepVerdict(index, True)
    if rule is Lemma:
        try:
            expected = instantiate_lemma(just.name, dict(just.bindings))
        except ScriptError as exc:
            return StepVerdict(index, False, str(exc))
        if expected != phi:
            return StepVerdict(
                index, False,
                f"lemma {just.name} instantiates to {print_formula(expected)}")
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
    by_index = {}                       # index -> the latest line so far
    for step in script.steps:
        verdicts.append(_check_step(by_index, step))
        by_index[step.index] = step
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


def _premise(index: str, text: str) -> int:
    """The premise line number of the neck or necas justification text."""
    try:
        return int(index)
    except ValueError:
        raise ScriptError(f"malformed {text.split()[0]} justification {text!r}") from None


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
        return NecK(_premise(i, text), parse_term(spec[2:-1]))
    if head == "necas":
        i, _, spec = rest.partition(" ")
        spec = spec.strip()
        if not (spec.startswith("[") and spec.endswith("]")):
            raise ScriptError(f"necas needs [?x := term], got {spec!r}")
        var_part, _, term_part = spec[1:-1].partition(":=")
        var_part = var_part.strip()
        if not var_part.startswith("?"):
            raise ScriptError("necas binder must be a variable")
        return NecAs(_premise(i, text), var_part[1:], parse_term(term_part.strip()))
    if head == "lemma":
        name, _, more = rest.partition(" ")
        if name not in _LEMMA_BUILDERS:
            raise ScriptError(f"unknown lemma {name!r}")
        keyword, _, with_part = more.strip().partition(" ")
        if not keyword:
            return Lemma(name, ())
        if keyword != "with":
            raise ScriptError(f"expected 'with' after lemma {name}")
        bindings = {}
        for item in _split_top_level(with_part):
            param, sep, value = item.partition(":=")
            param = param.strip()
            if not sep or not param:
                raise ScriptError(f"malformed lemma binding {item!r}")
            if param in bindings:
                raise ScriptError(f"lemma {name} binds {param} twice")
            bindings[param] = _parse_binding_value(value)
        return Lemma(name, tuple(bindings.items()))
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
            try:
                goal = parse_formula(line[len("goal:"):].strip())
            except ParseError as exc:
                raise ScriptError(f"line {lineno}: {exc}") from exc
            continue
        head, sep, rest = line.partition(".")
        if not sep or not head.strip().isdecimal():
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


def print_script(script: ProofScript) -> str:
    lines = [f"goal: {print_formula(script.goal)}"]
    for step in script.steps:
        lines.append(f"{step.index}. {print_formula(step.formula)} ; "
                     f"{print_justification(step.just)}")
    return "\n".join(lines) + "\n"


def load_script(path: str) -> ProofScript:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_script(fh.read())


# ---------------------------------------------------------------------------
# Bundled derivations

# Fully elaborated derivations of representative instances, shipped as
# elas/proofs/<name>.selas; routine binder reasoning is spelled out as
# KAS / taut / mp steps so that every line is machine-checkable.  A script
# cites by `lemma` only theorems established before it in this order.
BUNDLED = ("SYM", "TRANS", "DBASEQ", "SUBASEQ", "EAS", "T", "EX",
           "NECAS_PRIME", "CNECAS_PATTERN", "RELETTER")


@functools.lru_cache(maxsize=None)
def bundled_theorems() -> dict:
    """Name -> bundled script, in BUNDLED order; every script passes
    check_proof."""
    out, proofs = {}, files("elas") / "proofs"
    for name in BUNDLED:
        script = parse_script((proofs / f"{name.lower()}.selas").read_text(encoding="utf-8"))
        report = check_proof(script)
        if not report.ok:
            bad = ", ".join(f"{v.index}: {v.message}" for v in report.failures())
            raise AssertionError(f"bundled script {name} failed: {bad or report.message}")
        out[name] = script
    return out


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
