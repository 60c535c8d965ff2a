"""The benchmark's own reference computations.

Every correctness check of the benchmark goes through this module.  It does
not call the library under test: it reads models in the JSON layout that
``semantics.model_to_dict`` and ``elas valid --json`` emit, walks formula
trees with its own recursion (dispatching on node class names, so it works
with whichever copy of ``elas.syntax`` built them), checks S5 frames itself
and computes the closed-form size of the bounded search space itself.
"""

from __future__ import annotations

import itertools


class CheckError(Exception):
    """An operation's output contradicts the reference computation."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Models in the JSON layout

class DocModel:
    """A model document indexed for evaluation."""

    def __init__(self, doc: dict):
        self.doc = doc
        self.worlds = list(doc["worlds"])
        self.agents = list(doc["agents"])
        self.succ = {}
        for agent, pairs in doc.get("relations", {}).items():
            for u, v in pairs:
                self.succ.setdefault((agent, u), []).append(v)
        self.rho = {}
        for pred, per_world in doc.get("rho", {}).items():
            for world, rows in per_world.items():
                self.rho[(pred, world)] = {tuple(r) for r in rows}
        self.eta = {(name, world): agent
                    for name, per_world in doc.get("eta", {}).items()
                    for world, agent in per_world.items()}

    def holds(self, phi, world: str, sigma: dict) -> bool:
        """Truth of phi at (world, sigma); sigma maps variable ids (no '?')
        to agents."""
        return _holds(self, phi, world, dict(sigma))


def _value(m: DocModel, term, world, sigma):
    if type(term).__name__ == "Var":
        return sigma[term.id]
    return m.eta[(term.id, world)]


def _holds(m: DocModel, f, w, sigma) -> bool:
    kind = type(f).__name__
    if kind == "Top":
        return True
    if kind == "Bot":
        return False
    if kind == "Eq":
        return _value(m, f.lhs, w, sigma) == _value(m, f.rhs, w, sigma)
    if kind == "Pred":
        row = tuple(_value(m, t, w, sigma) for t in f.args)
        return row in m.rho.get((f.sym, w), ())
    if kind == "Not":
        return not _holds(m, f.body, w, sigma)
    if kind == "And":
        return _holds(m, f.lhs, w, sigma) and _holds(m, f.rhs, w, sigma)
    if kind == "Or":
        return _holds(m, f.lhs, w, sigma) or _holds(m, f.rhs, w, sigma)
    if kind == "Implies":
        return _holds(m, f.rhs, w, sigma) if _holds(m, f.lhs, w, sigma) else True
    if kind == "Iff":
        return _holds(m, f.lhs, w, sigma) is _holds(m, f.rhs, w, sigma)
    if kind == "Knows":
        agent = _value(m, f.agent, w, sigma)
        return all(_holds(m, f.body, v, sigma) for v in m.succ.get((agent, w), ()))
    if kind == "Assign":
        inner = dict(sigma)
        inner[f.var] = _value(m, f.term, w, sigma)
        return _holds(m, f.body, w, inner)
    raise TypeError(f"not a formula: {f!r}")


def check_frame(doc: dict, max_worlds: int, max_agents: int,
                epistemic: bool = True) -> None:
    """The document is a well-formed model within the bounds and, when
    epistemic, every agent's relation is an equivalence on the worlds."""
    worlds, agents = list(doc["worlds"]), list(doc["agents"])
    require(0 < len(worlds) <= max_worlds, f"{len(worlds)} worlds, bound {max_worlds}")
    require(0 < len(agents) <= max_agents, f"{len(agents)} agents, bound {max_agents}")
    require(len(set(worlds)) == len(worlds) and len(set(agents)) == len(agents),
            "duplicate worlds or agents")
    ws, ags = set(worlds), set(agents)
    for name, per_world in doc.get("eta", {}).items():
        require(set(per_world) == ws, f"eta of {name} is not total")
        require(set(per_world.values()) <= ags, f"eta of {name} leaves the agents")
    for pred, per_world in doc.get("rho", {}).items():
        for world, rows in per_world.items():
            require(world in ws, f"rho of {pred} at unknown world {world}")
            require(all(set(r) <= ags for r in rows), f"rho of {pred} leaves the agents")
    if not epistemic:
        return
    rels = doc.get("relations", {})
    for agent in agents:
        rel = {tuple(p) for p in rels.get(agent, [])}
        require(all((w, w) in rel for w in worlds), f"{agent}: not reflexive")
        require(all((v, u) in rel for u, v in rel), f"{agent}: not symmetric")
        require(all((u, x) in rel for u, v in rel for v2, x in rel if v == v2),
                f"{agent}: not transitive")


def pointed_check(pointed: dict, phi, expected: bool, max_worlds: int,
                  max_agents: int, epistemic: bool = True) -> None:
    """A rendered pointed model (model document plus "world" and "sigma"
    keys, as `elas valid --json` prints it) is within the bounds and gives
    phi the expected value."""
    check_frame(pointed, max_worlds, max_agents, epistemic)
    sigma = {k.lstrip("?"): v for k, v in pointed["sigma"].items()}
    require(free_vars(phi) <= set(sigma), "sigma does not cover the free variables")
    require(set(sigma.values()) <= set(pointed["agents"]), "sigma leaves the agents")
    require(pointed["world"] in pointed["worlds"], "pointed world is not a world")
    got = DocModel(pointed).holds(phi, pointed["world"], sigma)
    require(got is expected, f"formula is {got} at the pointed model, expected {expected}")


# ---------------------------------------------------------------------------
# Formula facts

def free_vars(f) -> set:
    kind = type(f).__name__
    if kind in ("Top", "Bot"):
        return set()
    if kind == "Eq":
        return _term_vars((f.lhs, f.rhs))
    if kind == "Pred":
        return _term_vars(f.args)
    if kind == "Not":
        return free_vars(f.body)
    if kind in ("And", "Or", "Implies", "Iff"):
        return free_vars(f.lhs) | free_vars(f.rhs)
    if kind == "Knows":
        return _term_vars((f.agent,)) | free_vars(f.body)
    if kind == "Assign":
        return (free_vars(f.body) - {f.var}) | _term_vars((f.term,))
    raise TypeError(f"not a formula: {f!r}")


def _term_vars(terms) -> set:
    return {t.id for t in terms if type(t).__name__ == "Var"}


def symbols(f, acc=None) -> dict:
    """{"names": set, "vars": set (every variable, bound ones too),
    "preds": {sym: arity}} of a formula."""
    if acc is None:
        acc = {"names": set(), "vars": set(), "preds": {}}
    kind = type(f).__name__

    def terms(ts):
        for t in ts:
            (acc["vars"] if type(t).__name__ == "Var" else acc["names"]).add(t.id)

    if kind == "Eq":
        terms((f.lhs, f.rhs))
    elif kind == "Pred":
        acc["preds"][f.sym] = len(f.args)
        terms(f.args)
    elif kind == "Not":
        symbols(f.body, acc)
    elif kind in ("And", "Or", "Implies", "Iff"):
        symbols(f.lhs, acc)
        symbols(f.rhs, acc)
    elif kind == "Knows":
        terms((f.agent,))
        symbols(f.body, acc)
    elif kind == "Assign":
        acc["vars"].add(f.var)
        terms((f.term,))
        symbols(f.body, acc)
    return acc


def size(f) -> int:
    """Node count, terms included; a binder's variable counts with the
    binder (the measure `el_distinguishes` bounds)."""
    kind = type(f).__name__
    if kind in ("Top", "Bot"):
        return 1
    if kind == "Eq":
        return 3
    if kind == "Pred":
        return 1 + len(f.args)
    if kind == "Not":
        return 1 + size(f.body)
    if kind in ("And", "Or", "Implies", "Iff"):
        return 1 + size(f.lhs) + size(f.rhs)
    if kind in ("Knows", "Assign"):
        return 2 + size(f.body)
    raise TypeError(f"not a formula: {f!r}")


def has_binder(f) -> bool:
    kind = type(f).__name__
    if kind == "Assign":
        return True
    if kind in ("Not", "Knows"):
        return has_binder(f.body)
    if kind in ("And", "Or", "Implies", "Iff"):
        return has_binder(f.lhs) or has_binder(f.rhs)
    return False


# ---------------------------------------------------------------------------
# Closed-form size of the bounded search space

def bell(n: int) -> int:
    """Number of partitions of an n-set (equivalence relations), by the
    Bell triangle."""
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[-1]


def pointed_models_covered(preds: dict, n_names: int, n_free: int,
                           max_worlds: int, max_agents: int) -> int:
    """Pointed models an exhausted S5 search covers: for every block of
    n worlds and k agents, (relations per agent)^k * 2^(rho bits) *
    k^(names * n) models, each pointed at n worlds under k^free
    assignments of the free variables."""
    total = 0
    for n in range(1, max_worlds + 1):
        for k in range(1, max_agents + 1):
            rho_bits = sum(n * k ** arity for arity in preds.values())
            models = bell(n) ** k * 2 ** rho_bits * k ** (n_names * n)
            total += models * n * k ** n_free
    return total


# ---------------------------------------------------------------------------
# Distinguishing formulas, by truth profiles

def no_distinguisher(p1: tuple, p2: tuple, max_size: int, binders: bool,
                     ctors) -> None:
    """Raise CheckError when some formula of at most max_size nodes (binder
    free unless binders) separates the pointed models p1 and p2, each a
    (DocModel, world, sigma) triple over the same symbols.

    Formulas are enumerated by their truth profile over all cells (model,
    world, assignment of the shared variables); two formulas with one
    profile are interchangeable inside any larger formula, so keeping one
    per profile is exhaustive.  ctors maps node class names to the syntax
    constructors, used to build the witness reported on failure.
    """
    shared = sorted(set(p1[2]) & set(p2[2]))
    models = (p1[0], p2[0])
    cells, index = [], {}
    for mi, (m, world, sigma) in enumerate((p1, p2)):
        combos = (itertools.product(m.agents, repeat=len(shared)) if binders
                  else [tuple(sigma[v] for v in shared)])
        for combo in combos:
            for w in m.worlds:
                index[(mi, w, combo)] = len(cells)
                cells.append((mi, w, combo))
    starts = [index[(mi, p[1], tuple(p[2][v] for v in shared))]
              for mi, p in enumerate((p1, p2))]
    full = (1 << len(cells)) - 1

    def den(mi, w, combo, term):
        if type(term).__name__ == "Var":
            return combo[shared.index(term.id)]
        return models[mi].eta[(term.id, w)]

    def profile_of(f):
        bits = 0
        for i, (mi, w, combo) in enumerate(cells):
            if models[mi].holds(f, w, dict(zip(shared, combo))):
                bits |= 1 << i
        return bits

    signature = models[0].doc["signature"]
    terms = [ctors["Var"](v) for v in shared]
    terms += [ctors["Name"](nm) for nm in sorted(signature["names"])]
    preds = sorted(signature["predicates"].items())
    atoms = [ctors["Top"](), ctors["Bot"]()]
    atoms += [ctors["Eq"](a, b) for a in terms for b in terms]
    atoms += [ctors["Pred"](sym, args) for sym, arity in preds
              for args in itertools.product(terms, repeat=arity)]

    def box_map(term):
        return [[index[(mi, v, combo)]
                 for v in models[mi].succ.get((den(mi, w, combo, term), w), ())]
                for (mi, w, combo) in cells]

    def move_map(var, term):
        out = []
        for (mi, w, combo) in cells:
            moved = list(combo)
            moved[shared.index(var)] = den(mi, w, combo, term)
            out.append(index[(mi, w, tuple(moved))])
        return out

    boxes = [(t, box_map(t)) for t in terms]
    moves = ([(v, t, move_map(v, t)) for v in shared for t in terms]
             if binders else [])
    seen, by_size = {}, {}

    def add(bits, f, n):
        if bits in seen:
            return
        seen[bits] = f
        by_size.setdefault(n, []).append(bits)
        a, b = starts
        if (bits >> a) & 1 != (bits >> b) & 1:
            raise CheckError(f"a formula of {n} nodes separates the models: {f!r}")

    for n in range(1, max_size + 1):
        for f in atoms:
            if size(f) == n:
                add(profile_of(f), f, n)
        for bits in list(by_size.get(n - 1, ())):
            add(bits ^ full, ctors["Not"](seen[bits]), n)
        for bits in list(by_size.get(n - 2, ())):
            for t, cmap in boxes:
                out = 0
                for i, sources in enumerate(cmap):
                    if all((bits >> s) & 1 for s in sources):
                        out |= 1 << i
                add(out, ctors["Knows"](t, seen[bits]), n)
            for v, t, cmap in moves:
                out = 0
                for i, s in enumerate(cmap):
                    out |= ((bits >> s) & 1) << i
                add(out, ctors["Assign"](v, t, seen[bits]), n)
        for left in range(1, n - 1):
            for bl in list(by_size.get(left, ())):
                for br in list(by_size.get(n - 1 - left, ())):
                    fl, fr = seen[bl], seen[br]
                    add(bl & br, ctors["And"](fl, fr), n)
                    add(bl | br, ctors["Or"](fl, fr), n)
                    add((bl ^ full) | br, ctors["Implies"](fl, fr), n)
                    add((bl ^ br) ^ full, ctors["Iff"](fl, fr), n)
