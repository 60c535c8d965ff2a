"""Repository paths and the independent reference evaluator.

naive_eval works from the plain JSON document structure of a model rather
than the library's internal representation, with its own recursion; it
exists so semantics tests have a second, independently written route to a
truth value.
"""

from pathlib import Path

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
