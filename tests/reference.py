"""Repository paths, the independent reference evaluator, the
unreduced model stream and the generic target walk.

naive_eval works from the plain JSON document structure of a model rather
than the library's internal representation, with its own recursion; it
exists so semantics tests have a second, independently written route to a
truth value.  enumerate_models yields every model of the searches'
canonical order, with none of the reductions the searches make, for tests
to compare the searches against.  reference_target reads a search
target with the generic tree helpers, children, terms_of and rebuild, and
a second walk for the signature; modelsearch._target must read the same
fields in its one typed walk.
"""

import itertools
import math
from pathlib import Path

from elas import modelsearch
from elas.semantics import BIT_OPS
from elas.syntax import (
    And, Assign, Bot, Eq, Iff, Implies, Knows, Not, Or, Pred, Signature, Top,
    Var, children, formula_signature, rebuild, terms_of,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
PROOFS = ROOT / "proofs"


def naive_eval(doc: dict, world: str, sigma: dict, phi) -> bool:
    """Truth at (doc, world, sigma) computed directly over the JSON layout."""

    def value(term, w):
        if isinstance(term, Var):
            return sigma_env[term.id]
        return doc["eta"][term.id][w]

    sigma_env = dict(sigma)

    def holds(f, w):
        if isinstance(f, Top):
            return True
        if isinstance(f, Bot):
            return False
        if isinstance(f, Eq):
            return value(f.lhs, w) == value(f.rhs, w)
        if isinstance(f, Pred):
            rows = doc.get("rho", {}).get(f.sym, {}).get(w, [])
            return [value(t, w) for t in f.args] in [list(r) for r in rows]
        if isinstance(f, Not):
            return not holds(f.body, w)
        if isinstance(f, And):
            return holds(f.lhs, w) and holds(f.rhs, w)
        if isinstance(f, Or):
            return holds(f.lhs, w) or holds(f.rhs, w)
        if isinstance(f, Implies):
            return holds(f.rhs, w) if holds(f.lhs, w) else True
        if isinstance(f, Iff):
            return holds(f.lhs, w) is holds(f.rhs, w)
        if isinstance(f, Knows):
            agent = value(f.agent, w)
            pairs = doc.get("relations", {}).get(agent, [])
            return all(holds(f.body, v) for (u, v) in pairs if u == w)
        if isinstance(f, Assign):
            saved = dict(sigma_env)
            sigma_env[f.var] = value(f.term, w)
            try:
                return holds(f.body, w)
            finally:
                sigma_env.clear()
                sigma_env.update(saved)
        raise TypeError(f)

    return holds(phi, world)


def enumerate_models(sig, bounds):
    """Yield every model over the signature within the bounds, in the
    canonical order.  The searches walk the same order but skip what
    cannot hold a first hit: relation tuples that are not orbit-minimal,
    and world and agent counts above the formula's caps (see the
    modelsearch docstring).  The stream is exponential in the bounds; it
    is meant for desk-scale signatures."""
    arities = tuple(arity for _, arity in sorted(sig.predicates.items()))
    for n in range(1, bounds.max_worlds + 1):
        pool = modelsearch._relation_pool(n, bounds.epistemic)
        for k in range(1, bounds.max_agents + 1):
            shape = modelsearch._shape(n, k, arities, len(sig.names), 0, (),
                                       modelsearch._LANES)
            for succ in itertools.product(pool, repeat=k):
                for index in range(shape.etas << shape.rho_bits):
                    yield shape.build_model(sig, succ, index)


_CONSTANT = {Top: 1, Bot: 0}       # a constant's class -> its bit


def _constant(node: type, kids: tuple, epistemic: bool):
    """Top() or Bot() if a node of class node over the folded kids is
    constant on the frame class, else None."""
    if node is Knows:
        body = type(kids[0])
        return kids[0] if body is Top or (epistemic and body is Bot) else None
    if node is Assign:
        return kids[0] if type(kids[0]) in _CONSTANT else None
    # each distinct non-constant kid takes both values, equal kids together
    free = list(dict.fromkeys(kid for kid in kids if type(kid) not in _CONSTANT))
    if len(free) == len(kids):
        return None
    values = set()
    for bits in itertools.product((0, 1), repeat=len(free)):
        bit = dict(zip(free, bits))
        values.add(BIT_OPS[node](1, *(bit.get(kid, _CONSTANT.get(type(kid))) for kid in kids)))
    return (Top() if values.pop() else Bot()) if len(values) == 1 else None


def reference_target(phi, want_false: bool, epistemic: bool) -> dict:
    """Every field of modelsearch._target(phi, want_false, epistemic) but
    the K supports, read by a generic walk over children and terms_of and
    a formula_signature walk (the folding rules are in the modelsearch
    docstring)."""
    variables, hoisted = set(), []

    def walk(f):
        """f folded, its modal depth and its K occurrences."""
        if type(f) is Assign:
            variables.add(f.var)
        variables.update(t.id for t in terms_of(f) if type(t) is Var)
        kids = children(f)
        if not kids:
            return (Top() if type(f) is Eq and f.lhs is f.rhs else f), 0, 0
        mark = len(hoisted)
        walked = [walk(kid) for kid in kids]
        folded = tuple(kid for kid, _, _ in walked)
        constant = _constant(type(f), folded, epistemic)
        if constant is not None:
            del hoisted[mark:]
            return constant, 0, 0
        if type(f) in (And, Or) and folded[0] is folded[1]:
            return walked[0]        # psi & psi and psi | psi are psi
        if epistemic and type(f) is Knows and type(f.agent) is Var:
            inner = folded[0].body if type(folded[0]) is Not else folded[0]
            if type(inner) is Knows and inner.agent is f.agent:
                return walked[0]    # K{?x} K{?x} psi and K{?x} ~K{?x} psi
        d = max(kd for _, kd, _ in walked) + (type(f) is Knows)
        if d:
            hoisted.extend(kid for kid, kd, _ in walked if kd == 0)
        ks = sum(kk for _, _, kk in walked) + (type(f) is Knows)
        return (f if folded == kids else rebuild(f, folded)), d, ks

    formula, md, ks = walk(Not(phi) if want_false else phi)
    worlds = 0 if type(formula) is Bot else 1 + ks if md <= 1 else math.inf
    sig = formula_signature(phi)
    var_pos, name_pos, pred_pos = ({sym: i for i, sym in enumerate(sorted(symbols))}
                                   for symbols in (variables, sig.names, sig.predicates))
    key = (tuple(sig.predicates[sym] for sym in pred_pos), len(name_pos), len(var_pos),
           tuple(var_pos[v] for v in sorted(sig.variables)))
    return {"formula": formula, "sig": Signature(dict(sig.predicates), sig.names),
            "free": sig.variables, "worlds": worlds,
            "hoisted": tuple(dict.fromkeys(hoisted)) if md else (formula,),
            "var_pos": var_pos, "name_pos": name_pos, "pred_pos": pred_pos, "key": key}
