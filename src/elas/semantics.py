"""Finite constant-domain Kripke models and the model checker.

A model carries a finite set of worlds, a finite domain of agents shared by
all worlds, one accessibility relation per agent, a world-relative
interpretation of predicates (``rho``) and a world-relative interpretation
of names (``eta``).  Variables are interpreted by an assignment ``sigma``
that does not depend on the world: variables are rigid, names are not.

Truth at a pointed model (model, world, sigma):

* ``t = t'`` iff both terms denote the same agent at the world;
* ``P(t1..tn)`` iff the tuple of denotations is in ``rho(P, world)``;
* Booleans are classical;
* ``K{t} phi`` iff phi holds at every world accessible for the agent that
  t denotes *at the current world*;
* ``[?x := t] phi`` iff phi holds at the same world once sigma maps x to
  the current denotation of t.

Models are immutable after construction (their mappings are read-only) and
evaluation is pure, so a model may be shared freely between threads.

Only ``make_model`` normalises foreign input (model files go through it and
then ``validate_model``).  The library's own samplers and search already
build their containers in its normal form and hand them to ``normal_model``,
which takes them over without copying.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from types import MappingProxyType

from .syntax import (
    And, Assign, Bot, Eq, Formula, Iff, Implies, Knows, Not, Or, Pred,
    Signature, Term, Top, Var, formula_signature,
)


class EvalError(Exception):
    """A formula refers to a variable, name or predicate the pointed model
    does not cover."""


class ModelError(Exception):
    """A model file is malformed or fails validation."""


@dataclass(frozen=True)
class KripkeModel:
    """Built by make_model or normal_model; the mappings are read-only."""
    worlds: tuple
    agents: tuple
    relations: MappingProxyType   # agent -> frozenset of (world, world)
    rho: MappingProxyType         # (predicate, world) -> frozenset of agent tuples
    eta: MappingProxyType         # (name, world) -> agent
    signature: Signature
    _succ: dict = field(repr=False, compare=False)   # (agent, world) -> sorted successors

    def __hash__(self):
        return hash((self.worlds, self.agents, *(frozenset(m.items()) for m in (
            self.relations, self.rho, self.eta))))

    def __reduce__(self):
        return make_model, (self.worlds, self.agents, dict(self.relations),
                            dict(self.rho), dict(self.eta), self.signature)

    def successors(self, agent: str, world: str) -> tuple:
        return self._succ.get((agent, world), ())

    def rho_at(self, pred: str, world: str) -> frozenset:
        return self.rho.get((pred, world), frozenset())


def make_model(worlds, agents, relations, rho, eta, signature) -> KripkeModel:
    """Normalise plain containers into a KripkeModel (worlds and agents are
    kept sorted so iteration order is deterministic)."""
    relations = {a: frozenset(map(tuple, rel)) for a, rel in relations.items()}
    succ: dict = {}
    for agent, rel in relations.items():
        for u, v in rel:
            succ.setdefault((agent, u), []).append(v)
    return normal_model(
        tuple(sorted(worlds)), tuple(sorted(agents)), relations,
        {k: frozenset(map(tuple, v)) for k, v in rho.items() if v},   # empty is the default
        dict(eta), signature, {key: tuple(sorted(vs)) for key, vs in succ.items()})


def normal_model(worlds: tuple, agents: tuple, relations: dict, rho: dict,
                 eta: dict, signature: Signature, succ: dict) -> KripkeModel:
    """A KripkeModel over containers already in make_model's normal form,
    taken over without a copy: sorted worlds and agents, relations and rho
    as frozensets of tuples with no empty rho entry, and succ mapping each
    (agent, world) with a successor to its successors in sorted order.
    The library's samplers and search build models this way; input from
    elsewhere goes through make_model."""
    return KripkeModel(worlds, agents, MappingProxyType(relations),
                       MappingProxyType(rho), MappingProxyType(eta), signature, succ)


@dataclass(frozen=True)
class PointedModel:
    model: KripkeModel
    world: str
    sigma: dict


def validate_model(m: KripkeModel) -> list:
    """All invariant violations, as human-readable strings; empty when the
    model is well formed."""
    out = []
    if not m.worlds:
        out.append("worlds: must be non-empty")
    if not m.agents:
        out.append("agents: must be non-empty")
    worlds, agents = set(m.worlds), set(m.agents)
    for agent, rel in m.relations.items():
        if agent not in agents:
            out.append(f"relations: unknown agent {agent}")
        for pair in rel:
            if len(pair) != 2 or pair[0] not in worlds or pair[1] not in worlds:
                out.append(f"relations: endpoint outside worlds in {agent}: {pair}")
    for (pred, world), tuples in m.rho.items():
        if pred not in m.signature.predicates:
            out.append(f"rho: unknown predicate {pred}")
            continue
        if world not in worlds:
            out.append(f"rho: unknown world {world} under {pred}")
            continue
        arity = m.signature.predicates[pred]
        for tup in tuples:
            if len(tup) != arity:
                out.append(f"rho: arity violation, {pred}/{arity} holds tuple {tup} at {world}")
            elif any(a not in agents for a in tup):
                out.append(f"rho: tuple member outside agents in {pred} at {world}: {tup}")
    for name in sorted(m.signature.names):
        for world in m.worlds:
            if (name, world) not in m.eta:
                out.append(f"eta not total: no denotation for {name} at {world}")
    for (name, world), agent in m.eta.items():
        if name not in m.signature.names:
            out.append(f"eta: unknown name {name}")
        elif world not in worlds:
            out.append(f"eta: unknown world {world} under {name}")
        elif agent not in agents:
            out.append(f"eta: value {agent} outside agents for {name} at {world}")
    for arity in m.signature.predicates.values():
        if arity < 0:
            out.append("signature: negative arity")
    return out


def is_epistemic(m: KripkeModel) -> bool:
    """True iff every agent's relation is an equivalence relation on the
    worlds."""
    worlds = m.worlds
    for agent in m.agents:
        rel = m.relations.get(agent, frozenset())
        if any((w, w) not in rel for w in worlds):
            return False
        if any((v, u) not in rel for (u, v) in rel):
            return False
        for (u, v) in rel:
            for (v2, w) in rel:
                if v2 == v and (u, w) not in rel:
                    return False
    return True


def denote(m: KripkeModel, sigma: dict, world: str, t: Term) -> str:
    """The agent a term picks out at a world: sigma for variables, eta for
    names."""
    if isinstance(t, Var):
        try:
            return sigma[t.id]
        except KeyError:
            raise EvalError(f"unbound variable ?{t.id}") from None
    try:
        return m.eta[(t.id, world)]
    except KeyError:
        raise EvalError(f"unknown name {t.id} at world {world}") from None


def _check_coverage(m: KripkeModel, sigma: dict, phi: Formula) -> None:
    sig = formula_signature(phi)
    for v in sorted(sig.variables):
        if v not in sigma:
            raise EvalError(f"unbound variable ?{v}")
    for n in sorted(sig.names):
        if n not in m.signature.names:
            raise EvalError(f"unknown name {n}")
    for p, arity in sorted(sig.predicates.items()):
        have = m.signature.predicates.get(p)
        if have is None:
            raise EvalError(f"unknown predicate {p}")
        if have != arity:
            raise EvalError(f"predicate {p} has arity {have} in the model, formula uses {arity}")
    for v, a in sigma.items():
        if a not in m.agents:
            raise EvalError(f"sigma maps ?{v} to {a}, which is not an agent")


def _eval(m: KripkeModel, world: str, sigma: dict, phi: Formula) -> bool:
    try:
        rule = _RULES[type(phi)]
    except KeyError:
        raise TypeError(f"not a formula: {phi!r}") from None
    return rule(m, world, sigma, phi)


def _knows(m, world, sigma, phi):
    i = denote(m, sigma, world, phi.agent)
    return all(_eval(m, v, sigma, phi.body) for v in m.successors(i, world))


def _assign(m, world, sigma, phi):
    value = denote(m, sigma, world, phi.term)
    return _eval(m, world, {**sigma, phi.var: value}, phi.body)


# The truth clause of each node class, called with (model, world, sigma, node).
_RULES = {
    Top: lambda m, world, sigma, phi: True,
    Bot: lambda m, world, sigma, phi: False,
    Eq: lambda m, world, sigma, phi: (denote(m, sigma, world, phi.lhs)
                                      == denote(m, sigma, world, phi.rhs)),
    Pred: lambda m, world, sigma, phi: tuple(
        denote(m, sigma, world, a) for a in phi.args) in m.rho_at(phi.sym, world),
    Not: lambda m, world, sigma, phi: not _eval(m, world, sigma, phi.body),
    And: lambda m, world, sigma, phi: (_eval(m, world, sigma, phi.lhs)
                                       and _eval(m, world, sigma, phi.rhs)),
    Or: lambda m, world, sigma, phi: (_eval(m, world, sigma, phi.lhs)
                                      or _eval(m, world, sigma, phi.rhs)),
    Implies: lambda m, world, sigma, phi: (not _eval(m, world, sigma, phi.lhs)
                                           or _eval(m, world, sigma, phi.rhs)),
    Iff: lambda m, world, sigma, phi: (_eval(m, world, sigma, phi.lhs)
                                       == _eval(m, world, sigma, phi.rhs)),
    Knows: _knows,
    Assign: _assign,
}


def eval_formula(m: KripkeModel, world: str, sigma: dict, phi: Formula) -> bool:
    """Truth of phi at (m, world, sigma).

    sigma must cover the free variables of phi and the model's signature
    must cover its names and predicates; a gap raises EvalError rather than
    defaulting to false.
    """
    if world not in m.worlds:
        raise EvalError(f"unknown world {world}")
    _check_coverage(m, sigma, phi)
    return _eval(m, world, sigma, phi)


def eval_all_worlds(m: KripkeModel, sigma: dict, phi: Formula) -> dict:
    """Truth of phi at every world under the same sigma."""
    _check_coverage(m, sigma, phi)
    return {w: _eval(m, w, sigma, phi) for w in m.worlds}


# The connectives over bit vectors: an int holds one truth value per row,
# and full has a bit for every row.
BIT_OPS = {
    Top: lambda full: full,
    Bot: lambda full: 0,
    Not: lambda full, p: p ^ full,
    And: lambda full, p, q: p & q,
    Or: lambda full, p, q: p | q,
    Implies: lambda full, p, q: (p ^ full) | q,
    Iff: lambda full, p, q: p ^ q ^ full,
}


def digit_mask(rows: int, weight: int, base: int, value: int) -> int:
    """Bit vector of the rows r < rows whose digit of the given weight,
    (r // weight) % base, equals value.  Atom p's truth-table column, row r
    giving atom i bit i of r, is digit_mask(rows, 2 ** p, 2, 1)."""
    width = weight * base
    mask = ((1 << weight) - 1) << (value * weight)
    while width < rows:
        mask |= mask << width
        width *= 2
    return mask if width == rows else mask & ((1 << rows) - 1)


# ---------------------------------------------------------------------------
# Model files

def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise ModelError(f"malformed model document: {message}")


def model_from_dict(data: dict) -> KripkeModel:
    """Build and validate a model from the JSON document structure.

    Keys: worlds, agents, relations {agent: [[w, v], ...]},
    rho {pred: {world: [[agent, ...], ...]}}, eta {name: {world: agent}},
    signature {predicates: {pred: arity}, names: [...]}, epistemic (bool).

    When "epistemic" is true the relations must already be equivalence
    relations; no closure is applied on the loader's behalf.  Any other
    document, including one with wrongly typed values or repeated worlds
    or agents, raises ModelError.
    """
    try:
        for key in ("worlds", "agents"):
            _require(_is_strings(data[key]), f"{key} must be a list of strings")
            _require(len(set(data[key])) == len(data[key]), f"duplicate {key}")
        predicates = data["signature"].get("predicates", {})
        _require(all(type(a) is int and a >= 0 for a in predicates.values()),
                 "arities must be non-negative integers")
        names = data["signature"].get("names", [])
        _require(_is_strings(names), "names must be a list of strings")
        sig = Signature(predicates=dict(predicates), names=frozenset(names))
        epistemic = data.get("epistemic", False)
        _require(type(epistemic) is bool, "epistemic must be true or false")
        relations = data.get("relations", {})
        for agent, pairs in relations.items():
            _require(isinstance(pairs, list)
                     and all(_is_strings(p) and len(p) == 2 for p in pairs),
                     f"relation of {agent} must be a list of world pairs")
        rho = {}
        for pred, per_world in data.get("rho", {}).items():
            for world, tuples in per_world.items():
                _require(isinstance(tuples, list) and all(map(_is_strings, tuples)),
                         f"rho of {pred} at {world} must be a list of agent lists")
                rho[(pred, world)] = frozenset(tuple(t) for t in tuples)
        eta = {}
        for name, per_world in data.get("eta", {}).items():
            for world, agent in per_world.items():
                _require(isinstance(agent, str),
                         f"eta of {name} at {world} must be an agent")
                eta[(name, world)] = agent
        m = make_model(
            worlds=data["worlds"],
            agents=data["agents"],
            relations=relations,
            rho=rho,
            eta=eta,
            signature=sig,
        )
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model document: {exc}") from exc
    problems = validate_model(m)
    if problems:
        raise ModelError("invalid model: " + "; ".join(problems))
    if epistemic and not is_epistemic(m):
        raise ModelError(
            "model is declared epistemic but some relation is not an "
            "equivalence relation (no closure is applied automatically)")
    return m


def model_to_dict(m: KripkeModel) -> dict:
    rho: dict = {}
    for (pred, world), tuples in sorted(m.rho.items()):
        rho.setdefault(pred, {})[world] = sorted(list(t) for t in tuples)
    eta: dict = {}
    for (name, world), agent in sorted(m.eta.items()):
        eta.setdefault(name, {})[world] = agent
    return {
        "worlds": list(m.worlds),
        "agents": list(m.agents),
        "relations": {a: sorted(list(p) for p in rel)
                      for a, rel in sorted(m.relations.items())},
        "rho": rho,
        "eta": eta,
        "signature": {
            "predicates": dict(sorted(m.signature.predicates.items())),
            "names": sorted(m.signature.names),
        },
        "epistemic": is_epistemic(m),
    }


def pointed_to_dict(pointed: PointedModel) -> dict:
    """model_to_dict of the model, with the world and sigma, as ?v: agent."""
    out = model_to_dict(pointed.model)
    out["world"] = pointed.world
    out["sigma"] = {"?" + v: a for v, a in sorted(pointed.sigma.items())}
    return out


def read_model_file(path: str) -> dict:
    """A model file's JSON document; ModelError if it nests too deeply."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ModelError("malformed model document: nested too deeply") from None


def load_model(path: str) -> KripkeModel:
    return model_from_dict(read_model_file(path))
