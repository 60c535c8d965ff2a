"""Repository paths, the independent reference evaluator and the
unreduced model stream.

naive_eval works from the plain JSON document structure of a model rather
than the library's internal representation, with its own recursion; it
exists so semantics tests have a second, independently written route to a
truth value.  enumerate_models yields every model of the searches'
canonical order, with none of the reductions the searches make, for tests
to compare the searches against.
"""

import itertools
from pathlib import Path

from elas import modelsearch
from elas.syntax import (
    And, Assign, Bot, Eq, Iff, Implies, Knows, Not, Or, Pred, Top, Var,
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
