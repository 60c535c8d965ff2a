"""Translation into two-sorted first-order logic, and a finite evaluator.

The target language has a world sort and an agent sort, a ternary relation
``R(w, v, i)`` (world v is accessible from w for agent i), one function
symbol ``f_a`` per name (the agent named a at a world) and one relation
symbol ``Q_P`` per predicate, taking a world followed by agents.  The
Boolean layer carries over unchanged: target formulas are built from the
same ``Top``, ``Bot``, ``Not``, ``And``, ``Or``, ``Implies`` and ``Iff``
nodes as ``elas.syntax``, over the first-order atoms and quantifiers below.

The interesting clauses, for a current world term w:

* ``K{t} phi``   becomes  ``forall_w v. (R(w, v, tr(t)) -> tr_v(phi))``
* ``[?x := t] phi`` with t distinct from ?x becomes
  ``exists_a x. (x = tr(t) & tr_w(phi))``, or equivalently the universal
  form ``forall_a x. (x = tr(t) -> tr_w(phi))``: the value of tr(t) is
  unique, so the two quantifiers agree;
* ``[?x := ?x] phi`` collapses to ``tr_w(phi)``.

Every finite Kripke model induces a finite structure for this language, and
Tarskian evaluation over that structure is an independent second route to
the truth value a formula gets from the model checker.  The translation
itself is purely syntactic (no simplification), so its output is stable
enough to pin in golden tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .semantics import KripkeModel
from .syntax import (
    BINARY, BOOLEAN, INFIX, And, Assign, Bot, Eq, Formula, Iff, Implies,
    Knows, Not, Or, Pred, Term, Top, Var, children, interned,
)


class SortError(Exception):
    """A term or variable is used at the wrong sort."""


class FolEvalError(Exception):
    """Evaluation hit an unbound variable or an unknown symbol."""


# ---------------------------------------------------------------------------
# Two-sorted first-order syntax: the atoms, terms and quantifiers, hash-consed
# like the modal nodes; the connectives are those of elas.syntax.

_CONNECTIVES = (Top, Bot) + BOOLEAN


@interned
class WorldVar:
    __slots__ = ("id", "__weakref__")
    id: str


@interned
class AgentVar:
    __slots__ = ("id", "__weakref__")
    id: str


@interned
class NameApp:
    __slots__ = ("name", "world", "__weakref__")
    name: str
    world: "FOLTerm"


FOLTerm = object


@interned
class AgentEq:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: FOLTerm
    rhs: FOLTerm


@interned
class PredApp:
    __slots__ = ("sym", "world", "args", "__weakref__")
    sym: str
    world: FOLTerm
    args: tuple


@interned
class RelApp:
    __slots__ = ("src", "dst", "agent", "__weakref__")
    src: FOLTerm
    dst: FOLTerm
    agent: FOLTerm


@interned
class ForallWorld:
    __slots__ = ("var", "body", "__weakref__")
    var: str
    body: "FOLFormula"


@interned
class ExistsAgent:
    __slots__ = ("var", "body", "__weakref__")
    var: str
    body: "FOLFormula"


@interned
class ForallAgent:
    __slots__ = ("var", "body", "__weakref__")
    var: str
    body: "FOLFormula"


FOLFormula = object


# ---------------------------------------------------------------------------
# Translation

class _Translator:
    def __init__(self, universal_assign: bool, avoid):
        self.universal = universal_assign
        self.avoid = avoid
        self.counter = 0
        self.made = set()         # world variables generated
        self.seen = set()         # variables of the input met on the way

    def fresh_world(self) -> str:
        while f"v{self.counter}" in self.avoid:
            self.counter += 1
        self.counter += 1
        self.made.add(f"v{self.counter - 1}")
        return f"v{self.counter - 1}"

    def term(self, t: Term, w: str) -> FOLTerm:
        if isinstance(t, Var):
            self.seen.add(t.id)
            return AgentVar(t.id)
        return NameApp(t.id, WorldVar(w))

    def formula(self, phi: Formula, w: str) -> FOLFormula:
        try:
            rule = _TRANSLATIONS[type(phi)]
        except KeyError:
            raise TypeError(f"not a formula: {phi!r}") from None
        return rule(self, phi, w)

    def knows(self, phi: Knows, w: str) -> FOLFormula:
        v = self.fresh_world()
        guard = RelApp(WorldVar(w), WorldVar(v), self.term(phi.agent, w))
        return ForallWorld(v, Implies(guard, self.formula(phi.body, v)))

    def assign(self, phi: Assign, w: str) -> FOLFormula:
        var, term = phi.var, phi.term
        self.seen.add(var)
        if isinstance(term, Var) and term.id == var:
            return self.formula(phi.body, w)
        value = self.term(term, w)
        inner = self.formula(phi.body, w)
        if self.universal:
            return ForallAgent(var, Implies(AgentEq(AgentVar(var), value), inner))
        return ExistsAgent(var, And(AgentEq(AgentVar(var), value), inner))


def _binary(tr: _Translator, phi: Formula, w: str) -> FOLFormula:
    return type(phi)(tr.formula(phi.lhs, w), tr.formula(phi.rhs, w))


# The translation clause of each node class, called with (translator, node,
# current world variable).
_TRANSLATIONS = {
    Top: lambda tr, phi, w: phi,
    Bot: lambda tr, phi, w: phi,
    Not: lambda tr, phi, w: Not(tr.formula(phi.body, w)),
    **dict.fromkeys(BINARY, _binary),
    Eq: lambda tr, phi, w: AgentEq(tr.term(phi.lhs, w), tr.term(phi.rhs, w)),
    Pred: lambda tr, phi, w: PredApp(phi.sym, WorldVar(w),
                                     tuple(tr.term(a, w) for a in phi.args)),
    Knows: _Translator.knows,
    Assign: _Translator.assign,
}


def _translate(phi: Formula, world_var: str, universal_assign: bool) -> FOLFormula:
    if not world_var.isidentifier():
        raise ValueError(f"world variable must be an identifier, not {world_var!r}")
    # One pass avoids only world_var; if a generated name turns out to be a
    # variable of phi, a second pass avoids all of them.  Both give what
    # avoiding all_vars(phi) from the start gives, without that extra walk.
    tr = _Translator(universal_assign, {world_var})
    out = tr.formula(phi, world_var)
    if tr.made & tr.seen:
        tr = _Translator(universal_assign, tr.seen | {world_var})
        out = tr.formula(phi, world_var)
    return out


def translate(phi: Formula, world_var: str = "w") -> FOLFormula:
    """Standard translation, existential form for the assignment binder.
    Bound world variables are the first of v0, v1, ... that are neither
    variables of phi nor world_var, in left-to-right order."""
    return _translate(phi, world_var, False)


def translate_universal(phi: Formula, world_var: str = "w") -> FOLFormula:
    """Standard translation using the universal form of the assignment
    clause; agrees with translate on every model."""
    return _translate(phi, world_var, True)


# ---------------------------------------------------------------------------
# Induced structures and evaluation

@dataclass(frozen=True)
class FOLStructure:
    worlds: tuple
    agents: tuple
    rel: frozenset            # triples (w, v, agent)
    preds: dict               # sym -> frozenset of (world, agent...) tuples
    names: dict               # (name, world) -> agent


def induce_structure(m: KripkeModel) -> FOLStructure:
    """Repackage a Kripke model as a first-order structure: R collects the
    tagged union of the per-agent relations, Q_P prepends the world to each
    rho tuple, f_a is eta."""
    rel = frozenset((w, v, agent) for agent, pairs in m.relations.items()
                    for (w, v) in pairs)
    preds: dict = {p: set() for p in m.signature.predicates}
    for (pred, world), tuples in m.rho.items():
        for tup in tuples:
            preds[pred].add((world, *tup))
    return FOLStructure(
        worlds=m.worlds,
        agents=m.agents,
        rel=rel,
        preds={p: frozenset(ts) for p, ts in preds.items()},
        names=dict(m.eta),
    )


def _eval_term(s: FOLStructure, worlds: dict, agents: dict, t: FOLTerm) -> str:
    if isinstance(t, WorldVar):
        value = worlds.get(t.id)
        if value in s.worlds:
            return value
        raise _variable_error(t.id, value, agents, "world")
    if isinstance(t, AgentVar):
        value = agents.get(t.id)
        if value in s.agents:
            return value
        raise _variable_error(t.id, value, worlds, "agent")
    if isinstance(t, NameApp):
        w = _eval_term(s, worlds, agents, t.world)
        key = (t.name, w)
        if key not in s.names:
            raise FolEvalError(f"no interpretation for f_{t.name} at {w}")
        return s.names[key]
    raise TypeError(f"not a first-order term: {t!r}")


def _variable_error(var: str, value, other_sort: dict, sort: str) -> Exception:
    if value is None:
        value = other_sort.get(var)
    if value is None:
        return FolEvalError(f"unbound {sort} variable {var}")
    article = "an" if sort == "agent" else "a"
    return SortError(f"{var} is bound to {value}, not {article} {sort}")


def fol_eval(s: FOLStructure, valuation: dict, phi: FOLFormula) -> bool:
    """Classical satisfaction; quantifiers range over the finite domains.

    World and agent variables live in separate namespaces, so a world
    variable never shadows an agent variable of the same name.  A
    valuation key is a WorldVar or AgentVar, binding at that sort, or a
    plain name, bound at the sort of its value (at both if the value is
    both a world and an agent, or neither).
    """
    worlds, agents = {}, {}
    for key, value in valuation.items():
        if isinstance(key, WorldVar):
            worlds[key.id] = value
        elif isinstance(key, AgentVar):
            agents[key.id] = value
        else:
            if value in s.worlds or value not in s.agents:
                worlds[key] = value
            if value in s.agents or value not in s.worlds:
                agents[key] = value
    return _holds(s, worlds, agents, phi)


def _holds(s: FOLStructure, worlds: dict, agents: dict, phi: FOLFormula) -> bool:
    try:
        rule = _CLAUSES[type(phi)]
    except KeyError:
        raise TypeError(f"not a first-order formula: {phi!r}") from None
    return rule(s, worlds, agents, phi)


def _pred_app(s, worlds, agents, phi):
    if phi.sym not in s.preds:
        raise FolEvalError(f"unknown relation Q_{phi.sym}")
    tup = (_eval_term(s, worlds, agents, phi.world),
           *(_eval_term(s, worlds, agents, a) for a in phi.args))
    return tup in s.preds[phi.sym]


# The satisfaction clause of each node class, called with (structure, world
# valuation, agent valuation, node); separate from semantics._eval, so that
# the two evaluators stay independent.
_CLAUSES = {
    Top: lambda s, worlds, agents, phi: True,
    Bot: lambda s, worlds, agents, phi: False,
    AgentEq: lambda s, worlds, agents, phi: (_eval_term(s, worlds, agents, phi.lhs)
                                             == _eval_term(s, worlds, agents, phi.rhs)),
    PredApp: _pred_app,
    RelApp: lambda s, worlds, agents, phi: (
        _eval_term(s, worlds, agents, phi.src), _eval_term(s, worlds, agents, phi.dst),
        _eval_term(s, worlds, agents, phi.agent)) in s.rel,
    Not: lambda s, worlds, agents, phi: not _holds(s, worlds, agents, phi.body),
    And: lambda s, worlds, agents, phi: (_holds(s, worlds, agents, phi.lhs)
                                         and _holds(s, worlds, agents, phi.rhs)),
    Or: lambda s, worlds, agents, phi: (_holds(s, worlds, agents, phi.lhs)
                                        or _holds(s, worlds, agents, phi.rhs)),
    Implies: lambda s, worlds, agents, phi: (not _holds(s, worlds, agents, phi.lhs)
                                             or _holds(s, worlds, agents, phi.rhs)),
    Iff: lambda s, worlds, agents, phi: (_holds(s, worlds, agents, phi.lhs)
                                         == _holds(s, worlds, agents, phi.rhs)),
    ForallWorld: lambda s, worlds, agents, phi: all(
        _holds(s, {**worlds, phi.var: w}, agents, phi.body) for w in s.worlds),
    ExistsAgent: lambda s, worlds, agents, phi: any(
        _holds(s, worlds, {**agents, phi.var: a}, phi.body) for a in s.agents),
    ForallAgent: lambda s, worlds, agents, phi: all(
        _holds(s, worlds, {**agents, phi.var: a}, phi.body) for a in s.agents),
}


# ---------------------------------------------------------------------------
# Printing and sort checking

def print_fol_term(t: FOLTerm) -> str:
    if isinstance(t, (WorldVar, AgentVar)):
        return t.id
    if isinstance(t, NameApp):
        return f"f_{t.name}({print_fol_term(t.world)})"
    raise TypeError(f"not a first-order term: {t!r}")


_SYMBOLS = {node: symbol for symbol, node, _ in INFIX}


def print_fol(phi: FOLFormula) -> str:
    """Fixed text rendering: binary connectives always parenthesised,
    quantifiers written forall_w / exists_a / forall_a."""
    if isinstance(phi, BINARY):
        return f"({print_fol(phi.lhs)} {_SYMBOLS[type(phi)]} {print_fol(phi.rhs)})"
    match phi:
        case Top():
            return "true"
        case Bot():
            return "false"
        case AgentEq(lhs, rhs):
            return f"{print_fol_term(lhs)} = {print_fol_term(rhs)}"
        case PredApp(sym, world, args):
            inner = ", ".join([print_fol_term(world)] + [print_fol_term(a) for a in args])
            return f"Q_{sym}({inner})"
        case RelApp(src, dst, agent):
            return f"R({print_fol_term(src)}, {print_fol_term(dst)}, {print_fol_term(agent)})"
        case Not(body):
            inner = print_fol(body)
            if isinstance(body, (*BINARY, AgentEq)):
                inner = "(" + inner + ")"
            return "~" + inner
        case ForallWorld(var, body):
            return f"forall_w {var}. {_quant_body(body)}"
        case ExistsAgent(var, body):
            return f"exists_a {var}. {_quant_body(body)}"
        case ForallAgent(var, body):
            return f"forall_a {var}. {_quant_body(body)}"
    raise TypeError(f"not a first-order formula: {phi!r}")


def _quant_body(body: FOLFormula) -> str:
    s = print_fol(body)
    if not s.startswith("("):
        s = "(" + s + ")"
    return s


def check_sorts(phi: FOLFormula, world_vars=frozenset(), agent_vars=frozenset()) -> list:
    """Sort problems in the formula, as strings.  World and agent variables
    live in separate namespaces (as in fol_eval): every variable must be
    bound at the sort it is used at, by a quantifier or by the given
    world_vars / agent_vars."""
    problems: list = []

    def term(t, kind, worlds, agents):
        if isinstance(t, WorldVar):
            if kind != "world":
                problems.append(f"world variable {t.id} used at agent sort")
            elif t.id not in worlds:
                problems.append(f"world variable {t.id} is not bound at world sort")
        elif isinstance(t, AgentVar):
            if kind != "agent":
                problems.append(f"agent variable {t.id} used at world sort")
            elif t.id not in agents:
                problems.append(f"agent variable {t.id} is not bound at agent sort")
        elif isinstance(t, NameApp):
            term(t.world, "world", worlds, agents)
        else:
            problems.append(f"unknown term {t!r}")

    def walk(f, worlds, agents):
        if isinstance(f, _CONNECTIVES):
            for kid in children(f):
                walk(kid, worlds, agents)
            return
        match f:
            case AgentEq(lhs, rhs):
                term(lhs, "agent", worlds, agents)
                term(rhs, "agent", worlds, agents)
            case PredApp(_, world, args):
                term(world, "world", worlds, agents)
                for a in args:
                    term(a, "agent", worlds, agents)
            case RelApp(src, dst, agent):
                term(src, "world", worlds, agents)
                term(dst, "world", worlds, agents)
                term(agent, "agent", worlds, agents)
            case ForallWorld(var, body):
                walk(body, worlds | {var}, agents)
            case ExistsAgent(var, body) | ForallAgent(var, body):
                walk(body, worlds, agents | {var})
            case _:
                problems.append(f"unknown formula {f!r}")

    walk(phi, frozenset(world_vars), frozenset(agent_vars))
    return problems
