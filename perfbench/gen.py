"""Seeded inputs the benchmark builds itself.

Formulas are first built as small tuples of this module's own shape, so
that their symbol profile can be measured before anything is handed to
the library; they are then rendered as text (for the parser) or converted
to syntax trees.  Every function takes an explicit random.Random.

Tuple shapes: ("top",), ("bot",), ("eq", t, u), ("pred", sym, (t, ...)),
("not", f), ("and"|"or"|"imp"|"iff", f, g), ("K", t, f), ("as", x, t, f).
A term is a string: "?x" for a variable, "a" for a name.
"""

from __future__ import annotations

import random
import string

BINARY = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}
BINARY_CLASS = {"and": "And", "or": "Or", "imp": "Implies", "iff": "Iff"}


def text(f) -> str:
    """Fully parenthesised concrete syntax."""
    op = f[0]
    if op == "top":
        return "true"
    if op == "bot":
        return "false"
    if op == "eq":
        return f"{f[1]} = {f[2]}"
    if op == "pred":
        return f"{f[1]}({', '.join(f[2])})" if f[2] else f[1]
    if op == "not":
        return f"~({text(f[1])})"
    if op in BINARY:
        return f"({text(f[1])}) {BINARY[op]} ({text(f[2])})"
    if op == "K":
        return f"K{{{f[1]}}} ({text(f[2])})"
    if op == "as":
        return f"[?{f[1]} := {f[2]}] ({text(f[3])})"
    raise ValueError(f)


def to_syntax(f, S):
    """The same formula as a tree of the syntax module S."""
    def term(t):
        return S.Var(t[1:]) if t.startswith("?") else S.Name(t)

    op = f[0]
    if op == "top":
        return S.Top()
    if op == "bot":
        return S.Bot()
    if op == "eq":
        return S.Eq(term(f[1]), term(f[2]))
    if op == "pred":
        return S.Pred(f[1], tuple(term(t) for t in f[2]))
    if op == "not":
        return S.Not(to_syntax(f[1], S))
    if op in BINARY:
        return getattr(S, BINARY_CLASS[op])(to_syntax(f[1], S), to_syntax(f[2], S))
    if op == "K":
        return S.Knows(term(f[1]), to_syntax(f[2], S))
    if op == "as":
        return S.Assign(f[1], term(f[2]), to_syntax(f[3], S))
    raise ValueError(f)


def profile(f) -> tuple:
    """What the cost of an exhaustive search depends on: distinct names,
    variables (bound ones too), free variables, and the counts of nodes,
    knowledge operators, binders, predicate atoms and equalities."""
    names, variables = set(), set()
    counts = {"nodes": 0, "K": 0, "as": 0, "pred": 0, "eq": 0}

    def terms(*ts):
        for t in ts:
            (variables if t.startswith("?") else names).add(t)

    def walk(g):
        counts["nodes"] += 1
        op = g[0]
        if op in ("eq", "pred"):
            counts[op] += 1
        if op == "eq":
            terms(g[1], g[2])
        elif op == "pred":
            terms(*g[2])
        elif op == "not":
            walk(g[1])
        elif op in BINARY:
            walk(g[1])
            walk(g[2])
        elif op == "K":
            counts["K"] += 1
            terms(g[1])
            walk(g[2])
        elif op == "as":
            counts["as"] += 1
            variables.add("?" + g[1])
            terms(g[2])
            walk(g[3])

    walk(f)
    return (len(names), len(variables), len(free(f)), counts["nodes"],
            counts["K"], counts["as"], counts["pred"], counts["eq"])


def free(f) -> set:
    op = f[0]
    if op in ("top", "bot"):
        return set()
    if op == "eq":
        return {t for t in f[1:] if t.startswith("?")}
    if op == "pred":
        return {t for t in f[2] if t.startswith("?")}
    if op == "not":
        return free(f[1])
    if op in BINARY:
        return free(f[1]) | free(f[2])
    if op == "K":
        return {t for t in (f[1],) if t.startswith("?")} | free(f[2])
    return (free(f[3]) - {"?" + f[1]}) | ({f[2]} if f[2].startswith("?") else set())


def _subst(f, y: str, x: str):
    """Binder-free f with variable y for variable x."""
    op = f[0]
    sw = (lambda t: y if t == x else t)
    if op in ("top", "bot"):
        return f
    if op == "eq":
        return ("eq", sw(f[1]), sw(f[2]))
    if op == "pred":
        return ("pred", f[1], tuple(sw(t) for t in f[2]))
    if op == "not":
        return ("not", _subst(f[1], y, x))
    if op in BINARY:
        return (op, _subst(f[1], y, x), _subst(f[2], y, x))
    if op == "K":
        return ("K", sw(f[1]), _subst(f[2], y, x))
    raise ValueError(f)


# ---------------------------------------------------------------------------
# Axiom-schema instances for exhaustive search

AXIOM_TERMS = ("a", "?x", "?y")
AXIOM_VARS = ("x", "y")


def _literal(rng):
    t = rng.choice(AXIOM_TERMS)
    kind = rng.randrange(4)
    if kind == 0:
        return ("pred", "P", (t,))
    if kind == 1:
        return ("not", ("pred", "P", (t,)))
    if kind == 2:
        return ("eq", t, rng.choice(AXIOM_TERMS))
    return ("K", t, ("pred", "P", (rng.choice(AXIOM_TERMS),)))


def axiom_instance(axiom_id: str, rng):
    """A random instance of one of the paper's fifteen S5 axiom schemas over
    the unary predicate P, the name a and the variables ?x, ?y."""
    t, t2 = rng.choice(AXIOM_TERMS), rng.choice(AXIOM_TERMS)
    x, y = rng.choice(AXIOM_VARS), rng.choice(AXIOM_VARS)
    vx, vy = "?" + x, "?" + y
    p, q = _literal(rng), _literal(rng)
    imp = lambda a, b: ("imp", a, b)
    K = lambda s, f: ("K", s, f)
    A = lambda v, s, f: ("as", v, s, f)
    if axiom_id == "DISTK":
        return imp(K(t, imp(p, q)), imp(K(t, p), K(t, q)))
    if axiom_id == "Tx":
        return imp(K(vx, p), p)
    if axiom_id == "4x":
        return imp(K(vx, p), K(vx, K(vx, p)))
    if axiom_id == "5x":
        return imp(("not", K(vx, p)), K(vx, ("not", K(vx, p))))
    if axiom_id == "ID":
        return ("eq", t, t)
    if axiom_id == "SUBP":
        if rng.random() < 0.25:
            u, u2 = rng.choice(AXIOM_TERMS), rng.choice(AXIOM_TERMS)
            return imp(("and", ("eq", t, t2), ("eq", u, u2)),
                       ("iff", ("eq", t, u), ("eq", t2, u2)))
        return imp(("eq", t, t2), ("iff", ("pred", "P", (t,)), ("pred", "P", (t2,))))
    if axiom_id == "SUBK":
        return imp(("eq", t, t2), ("iff", K(t, p), K(t2, p)))
    if axiom_id == "SUBAS":
        return imp(("eq", t, t2), ("iff", A(x, t, p), A(x, t2, p)))
    if axiom_id == "RIGIDP":
        return imp(("eq", vx, vy), K(t, ("eq", vx, vy)))
    if axiom_id == "RIGIDN":
        return imp(("not", ("eq", vx, vy)), K(t, ("not", ("eq", vx, vy))))
    if axiom_id == "KAS":
        return imp(A(x, t, imp(p, q)), imp(A(x, t, p), A(x, t, q)))
    if axiom_id == "DETAS":
        return imp(("not", A(x, t, ("not", p))), A(x, t, p))
    if axiom_id == "DAS":
        return ("not", A(x, t, ("not", ("top",))))
    if axiom_id == "EFAS":
        return A(x, t, ("eq", vx, t))
    if axiom_id == "SUB2AS":
        return imp(_subst(p, vy, vx), A(x, vy, p))
    raise ValueError(axiom_id)


AXIOM_IDS = ("DISTK", "Tx", "4x", "5x", "ID", "SUBP", "SUBK", "SUBAS",
             "RIGIDP", "RIGIDN", "KAS", "DETAS", "DAS", "EFAS", "SUB2AS")
PROFILE_SEED = 20180510


def axiom_instances(rng) -> list:
    """One instance per schema.  Each schema's instance is drawn from rng
    until its profile equals that of the instance a fixed seed draws, so
    the cost of exhausting it does not depend on the run's seed."""
    fixed = random.Random(PROFILE_SEED)
    out = []
    for axiom_id in AXIOM_IDS:
        target = profile(axiom_instance(axiom_id, fixed))
        while True:
            f = axiom_instance(axiom_id, rng)
            if profile(f) == target:
                out.append((axiom_id, f))
                break
    return out


# ---------------------------------------------------------------------------
# Random formulas for the translation oracle

def random_formula(rng, variables, names, preds: dict, depth: int):
    """Operator depth at most depth; binders and knowledge included."""
    terms = ["?" + v for v in variables] + list(names)
    if depth <= 0 or rng.randrange(8) == 0:
        kind = rng.randrange(8)
        if kind == 0:
            return ("top",)
        if kind == 1:
            return ("bot",)
        if kind in (2, 3):
            return ("eq", rng.choice(terms), rng.choice(terms))
        sym, arity = rng.choice(sorted(preds.items()))
        return ("pred", sym, tuple(rng.choice(terms) for _ in range(arity)))
    sub = lambda: random_formula(rng, variables, names, preds, depth - 1)
    kind = rng.randrange(7)
    if kind == 0:
        return ("not", sub())
    if kind <= 4:
        return (("and", "or", "imp", "iff")[kind - 1], sub(), sub())
    if kind == 5:
        return ("K", rng.choice(terms), sub())
    return ("as", rng.choice(variables), rng.choice(terms), sub())


# ---------------------------------------------------------------------------
# Random S5 model documents

def random_s5_doc(rng, n: int, k: int, preds: dict, names) -> dict:
    """A model in the model_to_dict layout: worlds w1..wn, agents i1..ik,
    one random partition of the worlds per agent."""
    worlds = [f"w{i}" for i in range(1, n + 1)]
    agents = [f"i{i}" for i in range(1, k + 1)]
    relations = {}
    for agent in agents:
        block = [rng.randrange(n) for _ in worlds]
        relations[agent] = [[u, v] for i, u in enumerate(worlds)
                            for j, v in enumerate(worlds) if block[i] == block[j]]
    rho = {}
    for sym, arity in sorted(preds.items()):
        rows = _tuples(agents, arity)
        for w in worlds:
            chosen = [list(r) for r in rows if rng.random() < 0.5]
            if chosen:
                rho.setdefault(sym, {})[w] = chosen
    eta = {nm: {w: rng.choice(agents) for w in worlds} for nm in sorted(names)}
    return {"worlds": worlds, "agents": agents, "relations": relations,
            "rho": rho, "eta": eta,
            "signature": {"predicates": dict(preds), "names": sorted(names)},
            "epistemic": True}


def _tuples(agents, arity):
    rows = [()]
    for _ in range(arity):
        rows = [r + (a,) for r in rows for a in agents]
    return rows


def flip_rho(doc: dict, rng) -> dict:
    """A copy of doc with one predicate tuple toggled at one world."""
    out = {**doc, "rho": {p: {w: list(rows) for w, rows in per.items()}
                          for p, per in doc["rho"].items()}}
    sym, arity = rng.choice(sorted(doc["signature"]["predicates"].items()))
    world = rng.choice(doc["worlds"])
    row = list(rng.choice(_tuples(doc["agents"], arity)))
    rows = out["rho"].setdefault(sym, {}).setdefault(world, [])
    if row in rows:
        rows.remove(row)
    else:
        rows.append(row)
    return out


# ---------------------------------------------------------------------------
# Order-preserving renaming

def _identifiers(rng, count: int, first) -> list:
    chosen = set()
    while len(chosen) < count:
        chosen.add(rng.choice(first) + "".join(
            rng.choice(string.ascii_lowercase) for _ in range(5)))
    return sorted(chosen)


class Renaming:
    """A seeded injective renaming of names, variables and predicate
    symbols.  It preserves the sorted order of each kind of symbol, and the
    library enumerates models in that order, so a renamed input costs the
    same search as the original while sharing no symbol with it."""

    def __init__(self, rng, names, variables, preds):
        self.names = dict(zip(sorted(names), _identifiers(
            rng, len(names), string.ascii_lowercase)))
        self.vars = dict(zip(sorted(variables), _identifiers(
            rng, len(variables), string.ascii_lowercase)))
        self.preds = dict(zip(sorted(preds), _identifiers(
            rng, len(preds), string.ascii_uppercase)))

    def term(self, t):
        if type(t).__name__ == "Var":
            return type(t)(self.vars[t.id])
        return type(t)(self.names[t.id])

    def formula(self, f):
        kind = type(f).__name__
        cls = type(f)
        if kind in ("Top", "Bot"):
            return f
        if kind == "Eq":
            return cls(self.term(f.lhs), self.term(f.rhs))
        if kind == "Pred":
            return cls(self.preds[f.sym], tuple(self.term(t) for t in f.args))
        if kind == "Not":
            return cls(self.formula(f.body))
        if kind in ("And", "Or", "Implies", "Iff"):
            return cls(self.formula(f.lhs), self.formula(f.rhs))
        if kind == "Knows":
            return cls(self.term(f.agent), self.formula(f.body))
        if kind == "Assign":
            return cls(self.vars[f.var], self.term(f.term), self.formula(f.body))
        raise TypeError(f"not a formula: {f!r}")

    def doc(self, doc: dict) -> dict:
        """A model document with its names and predicates renamed."""
        return {**doc,
                "rho": {self.preds[p]: per for p, per in doc.get("rho", {}).items()},
                "eta": {self.names[n]: per for n, per in doc.get("eta", {}).items()},
                "signature": {
                    "predicates": {self.preds[p]: a for p, a in
                                   doc["signature"]["predicates"].items()},
                    "names": sorted(self.names[n] for n in doc["signature"]["names"])}}

    def sigma(self, sigma: dict) -> dict:
        return {self.vars[v]: a for v, a in sigma.items()}
