"""Bounded model enumeration, countermodel and witness search.

The search space for a formula is every model over exactly the symbols the
formula mentions, with worlds labelled w1..wn and agents i1..ik, up to the
requested bounds.  Enumeration order is fixed and documented: world count,
then agent count, then the per-agent relations, then the predicate
interpretation, then the name interpretation, each lexicographically; a
model's worlds and then the covering assignments are scanned in order too.
For a fixed relation tuple, the predicate and name interpretations are
numbered by one scan index, rho_index * k ** (names * worlds) + eta_pos.

``enumerate_models`` materialises that stream.  ``find_countermodel`` and
``find_witness`` walk the same order but skip every tuple of per-agent
relations that is not the lexicographic minimum of its orbit under
permutations of the worlds and of the agents (lex-leader symmetry
breaking, as in SEM's least-number heuristic and in MACE-style finders).
This is exact: an isomorphic copy of a hit is a hit, because every world,
predicate and name interpretation and free assignment is scanned, and the
relation tuple is the outermost key of the order, so the first hit always
lies on an orbit-minimal tuple.  The orbit-minimal tuples of a world
count are built once per search, each agent count extending the tuples
of the one before (_Orbits).  They also keep the candidate model in a
compact form: for a fixed relation tuple the formula's truth value at
every (world, assignment) cell is computed for a chunk of consecutive scan
indices at once, one bitmask lane per index (Python integers as bit
vectors), so the lowest set bit of a cell is its first hit.  That hit is
rebuilt as a real model and re-verified with the reference evaluator
before it is returned; the fast path is never trusted on its own.

The searches also skip every pointed world that the formula cannot tell
from a smaller model.  Names, predicates and assignments never move the
point of evaluation; only K{t} does, to a successor.  So a formula of
modal depth d (its deepest nesting of K) sees, at w, only the ball of
worlds within d steps of w along the union of the agents' relations.
Proof sketch, by induction on the formula: cut the model down to the
ball (relations, names and predicates restricted to its worlds); then a
subformula of modal depth at most d - i has the same value at every
world v within i steps of w, under every assignment.  Atoms, binders and
connectives read v only; K{t} psi at v has i < d, so every successor of
v lies in the ball, within i + 1 steps, and psi has depth at most
d - i - 1.  The cut-down model has the same agents and symbols and stays
in the frame class (an equivalence relation restricted to a subset is
one), so if the ball misses a world, a hit at w is also a hit, after
renaming the worlds, in a block with fewer worlds and the same agents,
which comes earlier in the order.  A search that reaches block (n, k)
therefore has no hit at such a w: only a tuple's centres, the worlds
whose ball holds every world, are pointed worlds, a tuple without one is
skipped, and at depth 0 (the ball is {w}) the search stops after the
one-world blocks.  The first hit is unchanged.  A subformula without K
reads no relation at all, so its masks depend on the chunk of scan
indices alone: the compiled scan keeps them for the last chunk index it
saw instead of recomputing them for every relation tuple, once for all
occurrences of the same subformula.

The agent count stops at what the formula's terms can name.  An agent
enters the evaluation only as the denotation of a term, sigma(x) for a
variable or eta(a, w) for a name at a world: atoms, K{t} and [x := t]
read nothing else, and a binder assigns a denoted agent.  So with n
worlds the formula reaches at most cap(n) = |free(phi)| + |names(phi)| * n
agents, the free variables' values and the names' values at each world.
Proof sketch: cut the model down to the denoted agents D (their relations
kept, predicates restricted to tuples over D, names unchanged, as their
values lie in D); by induction on the formula, every subformula has the
same value at every world under every assignment that agrees with sigma
on the free variables and sends the bound ones into D, the only
assignments evaluation reaches.  The cut-down model has the same worlds
and stays in the frame class, so a hit in block (n, k) with k > cap(n) is
also a hit, after renaming the agents, in block (n, |D|), which comes
earlier.  The search therefore scans agent counts only up to
max(1, cap(n)); the first hit is unchanged, and a negative verdict still
speaks for the requested bounds.

The target is read in one walk (_target).  It folds every subformula
whose value no model, world or assignment can change into true or false,
such as false & psi, psi -> true, K{t} true or an assignment over a
constant; K{t} false stays, as it is true at a world without successors.
On the way back up it gives each folded node its modal depth, records the
maximal subtrees without K for the scan to hoist, and collects every
variable it meets.  Each fold rule keeps the value at every pointed model
on any frame, so the folded target has the same hits in the same order
and the first hit is unchanged; its modal depth can only fall, and the
pruning above holds for any formula equivalent to phi.  The signature and
the agent cap are still read from phi, and a hit is re-verified against
phi.  A target folded to false has no hit, and the search returns at once
instead of scanning every block.

Bounded search is deliberately incomplete: a negative answer only speaks
for the models within the bounds, and verdicts say so.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass

from .randgen import agent_labels, set_partitions, world_labels
from .randgen import count_models  # noqa: F401  (part of this module's API)
from .semantics import (
    BIT_OPS, KripkeModel, PointedModel, denote, digit_mask, eval_all_worlds,
    eval_formula, make_model,
)
from .syntax import (
    BINARY, And, Assign, Bot, Eq, Formula, Iff, Implies, Knows, Name, Not, Or,
    Pred, Signature, Top, Var, children, formula_signature, node_count,
    rebuild, terms_of,
)

_LANES = 1 << 16         # scan indices per compiled pass, at most


@dataclass(frozen=True)
class SearchBounds:
    max_worlds: int = 3
    max_agents: int = 3
    epistemic: bool = True

    def __post_init__(self):
        if self.max_worlds < 1 or self.max_agents < 1:
            raise ValueError("bounds must allow at least one world and one agent")


@dataclass(frozen=True)
class Countermodel:
    pointed: PointedModel


@dataclass(frozen=True)
class NoCountermodelUpTo:
    bounds: SearchBounds


@dataclass(frozen=True)
class Witness:
    pointed: PointedModel


@dataclass(frozen=True)
class UnsatisfiableUpTo:
    bounds: SearchBounds


# ---------------------------------------------------------------------------
# Block layout: everything that is fixed once (n, k, signature) are chosen

class _Layout:
    def __init__(self, sig: Signature, n: int, k: int, rel_pool: list,
                 variables, free):
        self.n, self.k = n, k
        self.worlds = world_labels(n)
        self.agents = agent_labels(k)
        self.preds = sorted(sig.predicates.items())
        self.names = sorted(sig.names)

        # rho bit layout: blocks in (predicate, world) order, first block in
        # the most significant position so that the integer enumeration of
        # interpretations matches nested lexicographic choice.
        self.tuples = {sym: list(itertools.product(range(k), repeat=arity))
                       for sym, arity in self.preds}
        blocks = [(sym, w) for sym, _ in self.preds for w in range(n)]
        self.offsets = {}
        position = 0
        for sym, w in reversed(blocks):
            self.offsets[(sym, w)] = position
            position += len(self.tuples[sym])
        self.rho_bits = position
        # eta digit ni * n + w, base k, is name ni's agent at world w; the
        # first digit is the most significant.
        self.eta_digits = len(self.names) * n
        self.etas = k ** self.eta_digits

        # A chunk is `lanes` consecutive scan indices.  Its lane digits are the
        # lowest digits of the index (the eta digits, last first, then the rho
        # bits) whose product stays within the cap; every higher digit, of
        # weight >= lanes, is constant within a chunk.
        lanes = 1
        for base in [k] * self.eta_digits + [2] * self.rho_bits:
            if lanes * base > _LANES:
                break
            lanes *= base
        self.lanes, self.all_mask = lanes, (1 << lanes) - 1
        self.chunks = (self.etas << self.rho_bits) // lanes
        # Per eta digit its weight and, for a lane digit, its (lane mask, agent)
        # pairs, None for a mask meaning every lane; per rho bit its weight and
        # lane mask.
        self.eta_lanes = [(w, tuple((digit_mask(lanes, w, k, j), j) for j in range(k))
                           if w < lanes else None)
                          for w in (k ** e for e in reversed(range(self.eta_digits)))]
        self.rho_lanes = [(w, digit_mask(lanes, w, 2, 1) if w < lanes else None)
                          for w in (self.etas << p for p in range(self.rho_bits))]

        self.rel_pool = rel_pool

        # assignment grid: one column per total assignment of the formula's
        # variables (bound ones included); scanning covers the free ones.
        self.vars = sorted(variables)
        self.var_pos = {v: i for i, v in enumerate(self.vars)}
        self.sigmas = list(itertools.product(range(k), repeat=len(self.vars)))
        self.S = len(self.sigmas)
        self.strides = [k ** (len(self.vars) - 1 - i) for i in range(len(self.vars))]
        # cell c = w * S + s is grid[c]; a variable's column lists the agent
        # it denotes under each assignment s
        self.grid = [(w, s) for w in range(n) for s in range(self.S)]
        self.columns = {v: [sigma[i] for sigma in self.sigmas]
                        for i, v in enumerate(self.vars)}
        self.free = sorted(free)
        self.free_cells = [sum(self.strides[self.var_pos[v]] * g for v, g in zip(self.free, combo))
                           for combo in itertools.product(range(k), repeat=len(self.free))]

    def chunk_digits(self, chunk: int):
        """Per eta digit its (lane mask, agent) pairs and per rho bit its
        lane mask, within the given chunk."""
        first = chunk * self.lanes
        eta = [pairs or ((None, first // w % self.k),) for w, pairs in self.eta_lanes]
        rho = [mask if mask is not None else self.all_mask if first // w & 1 else 0
               for w, mask in self.rho_lanes]
        return eta, rho

    def build_model(self, sig: Signature, rel_combo, index: int) -> KripkeModel:
        """The model at a scan index under the given relation tuple."""
        relations = {agent: frozenset((self.worlds[w], self.worlds[v])
                                      for w, succ in enumerate(self.rel_pool[r])
                                      for v in succ)
                     for agent, r in zip(self.agents, rel_combo)}
        rho_index, eta_pos = divmod(index, self.etas)
        rho = {}
        for (sym, w), offset in self.offsets.items():
            chosen = frozenset(tuple(self.agents[d] for d in digits)
                               for t, digits in enumerate(self.tuples[sym])
                               if rho_index >> (offset + t) & 1)
            if chosen:
                rho[(sym, self.worlds[w])] = chosen
        eta_map = {(self.names[d // self.n], self.worlds[d % self.n]):
                   self.agents[eta_pos // weight % self.k]
                   for d, (weight, _) in enumerate(self.eta_lanes)}
        return make_model(self.worlds, self.agents, relations, rho, eta_map, sig)


def _meet(a, b):
    """Intersection of two lane masks, None standing for every lane."""
    return b if a is None else a if b is None else a & b


def _join(parts: list, full: int) -> int:
    """Union of lane masks, None standing for every lane."""
    if None in parts:
        return full
    return functools.reduce(operator.or_, parts) if parts else 0


def _last_chunk(run):
    """run, keeping its masks for the last chunk index it was called on."""
    seen = [None, None]

    def cached(ctx):
        if seen[0] != ctx[4]:
            seen[:] = ctx[4], run(ctx)
        return seen[1]
    return cached


def _compile(phi: Formula, lay: _Layout, hoisted: dict):
    """Compile a formula to a function ctx -> list of per-cell bitmasks over
    one chunk's lanes, where ctx = (succ, groups, eta, rho, chunk): the
    relation tuple's successor tuples and _groups, one per agent, eta and
    rho as chunk_digits gives them for the chunk, and the chunk index.

    A term's per-cell denotation takes one of two forms.  A variable
    denotes one agent in each assignment column, fixed by the layout, so
    an atom or binder whose terms are all variables becomes a list of cell
    or rho indices gathered per pass, and K{?v} ANDs each group of worlds
    sharing a successor set once under the relation of the column's agent.
    A name denotes a (lane mask, agent) pair per agent its eta digit takes
    within the chunk, and nodes with a name term join the masks of those
    pairs per cell.

    A node of phi that is a key of hoisted has no K, so its masks depend on
    the chunk alone: it computes them once per run of equal chunk indices,
    not once per relation tuple.  Equal subformulas are one node, so every
    occurrence of such a node shares the one function kept in hoisted."""
    if phi in hoisted:
        if hoisted[phi] is None:
            hoisted[phi] = _last_chunk(_compile(phi, lay, {}))
        return hoisted[phi]
    n, S, k, grid = lay.n, lay.S, lay.k, lay.grid
    ALL, columns = lay.all_mask, lay.columns

    def den(term):
        """(eta, w, s) -> the term's (lane mask, agent) pairs."""
        if isinstance(term, Var):
            by_s = [((None, a),) for a in columns[term.id]]
            return lambda eta, w, s: by_s[s]
        ni = lay.names.index(term.id)
        return lambda eta, w, s: eta[ni * n + w]

    def variables(*terms):
        return all(isinstance(t, Var) for t in terms)

    match phi:
        case Top():
            cells = [ALL] * len(grid)
            return lambda ctx: cells
        case Bot():
            cells = [0] * len(grid)
            return lambda ctx: cells
        case Eq(lhs, rhs) if variables(lhs, rhs):
            c1, c2 = columns[lhs.id], columns[rhs.id]
            cells = [ALL if c1[s] == c2[s] else 0 for w, s in grid]
            return lambda ctx: cells
        case Eq(lhs, rhs):
            d1, d2 = den(lhs), den(rhs)
            return lambda ctx: [
                _join([_meet(m1, m2) for m1, a1 in d1(ctx[2], w, s)
                       for m2, a2 in d2(ctx[2], w, s) if a1 == a2], ALL)
                for w, s in grid]
        case Pred(sym, args) if variables(*args):
            cols = [columns[a.id] for a in args]

            def slot(w, s):
                t = 0
                for col in cols:
                    t = t * k + col[s]
                return lay.offsets[(sym, w)] + t
            slots = [slot(w, s) for w, s in grid]
            return lambda ctx: [ctx[3][i] for i in slots]
        case Pred(sym, args):
            dens = [den(a) for a in args]
            offsets = [lay.offsets[(sym, w)] for w in range(n)]

            def run(ctx):
                _, _, eta, rho, _ = ctx
                out = []
                for w, s in grid:
                    parts = []
                    for combo in itertools.product(*(d(eta, w, s) for d in dens)):
                        mask, t = None, 0
                        for m, a in combo:
                            mask, t = _meet(mask, m), t * k + a
                        parts.append(_meet(mask, rho[offsets[w] + t]))
                    out.append(_join(parts, ALL))
                return out
            return run
        # Inline, not BIT_OPS: a call per cell cut exhaust ops_per_s 37 -> 31-33.
        case Not(body):
            sub = _compile(body, lay, hoisted)
            return lambda ctx: [m ^ ALL for m in sub(ctx)]
        case And(l, r):
            sl, sr = _compile(l, lay, hoisted), _compile(r, lay, hoisted)
            return lambda ctx: [a & b for a, b in zip(sl(ctx), sr(ctx))]
        case Or(l, r):
            sl, sr = _compile(l, lay, hoisted), _compile(r, lay, hoisted)
            return lambda ctx: [a | b for a, b in zip(sl(ctx), sr(ctx))]
        case Implies(l, r):
            sl, sr = _compile(l, lay, hoisted), _compile(r, lay, hoisted)
            return lambda ctx: [(a ^ ALL) | b for a, b in zip(sl(ctx), sr(ctx))]
        case Iff(l, r):
            sl, sr = _compile(l, lay, hoisted), _compile(r, lay, hoisted)
            return lambda ctx: [(a ^ b) ^ ALL for a, b in zip(sl(ctx), sr(ctx))]
        case Knows(agent, body) if variables(agent):
            sub, col = _compile(body, lay, hoisted), columns[agent.id]
            # per agent, the assignment columns in which the variable names it
            by_agent = [(a, cols) for a in range(k)
                        if (cols := [s for s in range(S) if col[s] == a])]

            def run(ctx):
                groups = ctx[1]
                bm = sub(ctx)
                out = [ALL] * len(grid)     # a world without successors
                for a, cols in by_agent:
                    for rows, targets in groups[a]:
                        for s in cols:
                            m = ALL
                            for row in rows:
                                m &= bm[row + s]
                                if not m:
                                    break
                            for row in targets:
                                out[row + s] = m
                return out
            return run
        case Knows(agent, body):
            d, sub = den(agent), _compile(body, lay, hoisted)

            def run(ctx):
                succ, _, eta, _, _ = ctx
                bm = sub(ctx)
                out = []
                for w, s in grid:
                    parts = []
                    for m, a in d(eta, w, s):
                        for v in succ[a][w]:
                            m = bm[v * S + s] if m is None else m & bm[v * S + s]
                            if m == 0:
                                break
                        parts.append(m)
                    out.append(_join(parts, ALL))
                return out
            return run
        case Assign(var, term, body):
            sub = _compile(body, lay, hoisted)
            pos = lay.var_pos[var]
            stride = lay.strides[pos]
            base = [w * S + s - lay.sigmas[s][pos] * stride for w, s in grid]
            if variables(term):
                col = columns[term.id]
                cells = [b + col[s] * stride for b, (w, s) in zip(base, grid)]

                def run(ctx):
                    bm = sub(ctx)
                    return [bm[c] for c in cells]
                return run
            d = den(term)

            def run(ctx):
                bm = sub(ctx)
                return [_join([_meet(m, bm[base[c] + g * stride])
                               for m, g in d(ctx[2], w, s)], ALL)
                        for c, (w, s) in enumerate(grid)]
            return run
    raise TypeError(f"not a formula: {phi!r}")


def _relation_pool(n: int, epistemic: bool) -> list:
    """Every per-agent relation on n worlds, as a successor tuple, in
    enumeration order: the set partitions for epistemic frames, every
    subset of n x n (bit w*n+v set for the pair (w, v)) otherwise."""
    if epistemic:
        return [tuple(tuple(v for v in range(n) if rgs[v] == rgs[w])
                      for w in range(n))
                for rgs in set_partitions(n)]
    return [tuple(tuple(v for v in range(n) if (r >> (w * n + v)) & 1)
                  for w in range(n))
            for r in range(1 << (n * n))]


class _Orbits:
    """The orbit-minimal tuples of pool relations on n worlds, built once
    per search and world count.

    Permuting agents permutes a tuple, so an orbit minimum is sorted.  A
    world permutation maps every pool relation to another one; one table
    row per non-identity permutation holds that map, and a sorted tuple is
    orbit-minimal when no row sends it to a smaller sorted tuple.

    Prefix closure (as in Read's orderly generation and McKay's canonical
    augmentation): the prefix of an orbit-minimal sorted k-tuple is an
    orbit-minimal (k-1)-tuple.  If a row sends the prefix p to a smaller
    sorted tuple q, it sends the tuple p + (r,) to sorted(q + [x]), whose
    i-th entry is at most q[i]; so that image is smaller than p + (r,) at
    or before the first position where q is below p.  The k-tuples are
    therefore the orbit-minimal extensions p + (r,), r >= p[-1], of the
    (k-1)-tuples, and extending them in order keeps lexicographic order.
    """

    def __init__(self, pool: list, n: int):
        # a relation as its pairs (w, v), numbered w * n + v
        pairs = [[w * n + v for w, succ in enumerate(rel) for v in succ]
                 for rel in pool]
        index = {sum(1 << p for p in rel): i for i, rel in enumerate(pairs)}
        self.pool = pool
        self.table = []
        for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
            moved = [1 << (perm[w] * n + perm[v]) for w in range(n) for v in range(n)]
            self.table.append([index[sum(map(moved.__getitem__, rel))] for rel in pairs])
        self.done = [[()]]      # per agent count, every representative

    def representatives(self, k: int):
        """Yield, in lexicographic order, the orbit-minimal k-tuples of pool
        indices."""
        while len(self.done) < k:
            for _ in self.representatives(len(self.done)):
                pass
        if len(self.done) > k:
            yield from self.done[k]
            return
        found = []
        for prefix in self.done[k - 1]:
            for r in range(prefix[-1] if prefix else 0, len(self.pool)):
                rels = prefix + (r,)
                if self._minimal(rels):
                    found.append(rels)
                    yield rels
        if len(self.done) == k:
            self.done.append(found)

    def _minimal(self, rels: tuple) -> bool:
        """Whether no row sends the sorted tuple to a smaller one; an image
        whose least entry differs from rels[0] is decided by that entry."""
        first = rels[0]
        for row in self.table:
            moved = [row[r] for r in rels]
            least = min(moved)
            if least < first or least == first and tuple(sorted(moved)) < rels:
                return False
        return True


def _groups(rel: tuple, S: int) -> list:
    """The worlds of a relation that have successors, grouped by successor
    set: (successor rows, world rows) per group, the row of world w being
    w * S, the index of its first cell."""
    by_succ = {}
    for w, succ in enumerate(rel):
        if succ:
            by_succ.setdefault(succ, []).append(w * S)
    return [(tuple(v * S for v in succ), tuple(rows))
            for succ, rows in by_succ.items()]


@dataclass(frozen=True)
class _Target:
    """What a search scans for, and what every block needs to know of it."""
    formula: Formula        # phi, or ~phi for a countermodel, folded
    sig: Signature          # phi's predicates and names; variables live in sigma
    variables: frozenset    # every variable of phi, bound ones included
    free: frozenset
    depth: int              # modal depth: the radius of the visible ball
    hoisted: tuple          # the maximal subtrees without K, as nodes of formula


_CONSTANT = {Top: (1,), Bot: (0,)}       # a constant's class -> its one bit


def _constant(node: type, kids: tuple):
    """Top() or Bot() if a node of class node over the folded kids is
    constant (see the module docstring), else None."""
    if node is Knows:
        return kids[0] if type(kids[0]) is Top else None
    if node is Assign:
        return kids[0] if type(kids[0]) in _CONSTANT else None
    if not any(type(kid) in _CONSTANT for kid in kids):
        return None
    values = {BIT_OPS[node](1, *bits) for bits in itertools.product(
        *(_CONSTANT.get(type(kid), (0, 1)) for kid in kids))}
    return (Top() if values.pop() else Bot()) if len(values) == 1 else None


def _target(phi: Formula, want_false: bool) -> _Target:
    """The target of a search for phi false (want_false) or true, read in
    one walk (see the module docstring)."""
    variables, hoisted = set(), []

    def walk(f):
        """f folded, and its modal depth.  A node none of whose children
        changed is returned itself.  The K-free children of a node with K
        below it are hoisted; a subtree that folds to a constant drops
        what its own nodes hoisted."""
        if type(f) is Assign:
            variables.add(f.var)
        variables.update(t.id for t in terms_of(f) if type(t) is Var)
        kids = children(f)
        if not kids:
            return f, 0
        mark = len(hoisted)
        walked = [walk(kid) for kid in kids]
        folded = tuple(kid for kid, _ in walked)
        constant = _constant(type(f), folded)
        if constant is not None:
            del hoisted[mark:]
            return constant, 0
        d = max(kd for _, kd in walked) + (type(f) is Knows)
        if d:
            hoisted.extend(kid for kid, kd in walked if kd == 0)
        return (f if folded == kids else rebuild(f, folded)), d

    formula, md = walk(Not(phi) if want_false else phi)
    sig = formula_signature(phi)
    return _Target(formula, Signature(sig.predicates, sig.names), frozenset(variables),
                   sig.variables, md, tuple(hoisted) if md else (formula,))


def _centres(succ, depth: int) -> list:
    """The worlds w from which every world lies within depth steps along
    the union of the relations succ (one successor tuple per agent): the
    only pointed worlds a formula of modal depth `depth` needs."""
    n = len(succ[0])
    out = []
    for w in range(n):
        ball = frontier = {w}
        for _ in range(depth):
            frontier = {v for u in frontier for rel in succ for v in rel[u]} - ball
            ball = ball | frontier
        if len(ball) == n:
            out.append(w)
    return out


def _scan_block(target: _Target, n: int, k: int, pool: list, combos):
    """Scan the given relation tuples (indices into pool) of block (n, k)
    in order; return the pointed model of the canonically first hit, or
    None.

    The block's layout fixes every variable's denotation per cell, and
    _compile builds those in; per relation tuple the scan passes the
    successor groups that K over a variable folds (computed once per pool
    relation it meets) and, per chunk, the lane masks of the eta digits,
    the names' denotations.  Only the tuple's centres are pointed worlds
    (see the module docstring).
    """
    lay = _Layout(target.sig, n, k, pool, target.variables, target.free)
    run = _compile(target.formula, lay, dict.fromkeys(target.hoisted))
    groups_of = {}          # pool index -> _groups, for the relations scanned
    for rel_combo in combos:
        succ = tuple(pool[i] for i in rel_combo)
        centres = _centres(succ, target.depth)
        if not centres:
            continue
        for i in rel_combo:
            if i not in groups_of:
                groups_of[i] = _groups(pool[i], lay.S)
        groups = tuple(groups_of[i] for i in rel_combo)
        for chunk in range(lay.chunks):
            masks = run((succ, groups, *lay.chunk_digits(chunk), chunk))
            keys = [((m & -m).bit_length() - 1, w, cell_pos)
                    for w in centres for cell_pos, s in enumerate(lay.free_cells)
                    if (m := masks[w * lay.S + s])]
            if keys:
                lane, w, cell_pos = min(keys)
                index = chunk * lay.lanes + lane
                s = lay.sigmas[lay.free_cells[cell_pos]]
                sigma = {v: lay.agents[s[lay.var_pos[v]]] for v in lay.free}
                model = lay.build_model(target.sig, rel_combo, index)
                return PointedModel(model, lay.worlds[w], sigma)
    return None


def _agent_cap(target: _Target, n: int) -> int:
    """The most agents a first hit with n worlds can have: one per free
    variable and one per name and world (see the module docstring)."""
    return max(1, len(target.free) + len(target.sig.names) * n)


def _search(phi: Formula, bounds: SearchBounds, want_false: bool):
    target = _target(phi, want_false)
    if isinstance(target.formula, Bot):
        return None         # no interpretation makes the target true
    for n in range(1, bounds.max_worlds + 1):
        if n > 1 and target.depth == 0:
            break       # a depth-0 ball is {w}: no world is a centre
        orbits = _Orbits(_relation_pool(n, bounds.epistemic), n)
        for k in range(1, min(bounds.max_agents, _agent_cap(target, n)) + 1):
            pointed = _scan_block(target, n, k, orbits.pool, orbits.representatives(k))
            if pointed is not None:
                value = eval_formula(pointed.model, pointed.world, pointed.sigma, phi)
                if value == want_false:
                    raise RuntimeError(
                        "internal error: fast scan and reference evaluator disagree")
                return pointed
    return None


def find_countermodel(phi: Formula,
                      bounds: SearchBounds) -> Countermodel | NoCountermodelUpTo:
    """First pointed model within the bounds where phi is false, scanning
    the canonical enumeration; the hit is re-verified by the reference
    evaluator."""
    pointed = _search(phi, bounds, want_false=True)
    if pointed is None:
        return NoCountermodelUpTo(bounds)
    return Countermodel(pointed)


def find_witness(phi: Formula, bounds: SearchBounds) -> Witness | UnsatisfiableUpTo:
    """Dual of find_countermodel: first pointed model where phi is true."""
    pointed = _search(phi, bounds, want_false=False)
    if pointed is None:
        return UnsatisfiableUpTo(bounds)
    return Witness(pointed)


def enumerate_models(sig: Signature, bounds: SearchBounds):
    """Yield every model over the signature within the bounds, in the
    canonical order.  The searches walk the same order but skip what
    cannot hold a first hit: relation tuples that are not orbit-minimal,
    pointed worlds that are not centres of their tuple, and agent counts
    above the formula's cap (see the module docstring).  The stream is
    exponential in the bounds; it is meant for desk-scale signatures."""
    for n in range(1, bounds.max_worlds + 1):
        pool = _relation_pool(n, bounds.epistemic)
        for k in range(1, bounds.max_agents + 1):
            lay = _Layout(sig, n, k, pool, (), ())
            for rel_combo in itertools.product(range(len(pool)), repeat=k):
                for index in range(lay.etas << lay.rho_bits):
                    yield lay.build_model(sig, rel_combo, index)


# ---------------------------------------------------------------------------
# Distinguishing two pointed models by enumerated formulas

class _ProfileSpace:
    """Truth profiles of formulas over two pointed models.

    A profile has one bit per (model, world, assignment) cell.  The ranging
    variables take every value among the model's agents; the other shared
    variables keep their value in the pointed assignment, so with no
    ranging variables there is one cell per world.  Profiles compose:
    every connective acts on profiles, so formula enumeration can
    deduplicate semantically and saturate.
    """

    def __init__(self, p1: PointedModel, p2: PointedModel, ranging):
        shared = sorted(set(p1.sigma) & set(p2.sigma))
        self.vars = sorted(ranging)
        self.models = (p1.model, p2.model)
        self.cells = []          # (model index, world, sigma dict)
        self.cell_index = {}     # (model index, world, ranging values) -> cell
        self.assignments = []    # (model index, ranging values, sigma dict)
        self.start = []
        for mi, pointed in enumerate((p1, p2)):
            model = pointed.model
            fixed = {v: pointed.sigma[v] for v in shared}
            sigmas = [(combo, {**fixed, **dict(zip(self.vars, combo))}) for combo
                      in itertools.product(model.agents, repeat=len(self.vars))]
            self.assignments += [(mi, combo, sigma) for combo, sigma in sigmas]
            for w in model.worlds:
                for combo, sigma in sigmas:
                    self.cell_index[(mi, w, combo)] = len(self.cells)
                    if w == pointed.world and sigma == fixed:
                        self.start.append(len(self.cells))
                    self.cells.append((mi, w, sigma))
        if len(self.start) != 2:
            raise ValueError("pointed assignments must cover the shared variables")
        self.all_mask = (1 << len(self.cells)) - 1

    def atom_profile(self, phi: Formula) -> int:
        bits = 0
        for mi, combo, sigma in self.assignments:
            for w, value in eval_all_worlds(self.models[mi], sigma, phi).items():
                if value:
                    bits |= 1 << self.cell_index[(mi, w, combo)]
        return bits

    def knows_map(self, term) -> list:
        """For each cell, the mask of the cells the box quantifies over."""
        out = []
        for (mi, w, sigma) in self.cells:
            agent = denote(self.models[mi], sigma, w, term)
            key = tuple(sigma[v] for v in self.vars)
            out.append(sum(1 << self.cell_index[(mi, v, key)]
                           for v in self.models[mi].successors(agent, w)))
        return out

    def assign_map(self, var, term) -> list:
        """For each cell, the mask of the cell the binding moves it to."""
        out = []
        for (mi, w, sigma) in self.cells:
            key = tuple(denote(self.models[mi], sigma, w, term) if v == var
                        else sigma[v] for v in self.vars)
            out.append(1 << self.cell_index[(mi, w, key)])
        return out

    @staticmethod
    def apply(p: int, cellmap: list) -> int:
        """Cell i is set iff p sets every cell of the mask cellmap[i]."""
        bits = 0
        for idx, m in enumerate(cellmap):
            if p & m == m:
                bits |= 1 << idx
        return bits

    def distinguishes(self, p: int) -> bool:
        a, b = self.start
        return ((p >> a) & 1) != ((p >> b) & 1)


def el_distinguishes(p1: PointedModel, p2: PointedModel, max_size: int,
                     language: str = "el"):
    """Smallest formula (by node count, up to max_size) with different truth
    values at the two pointed models, or None.

    With language="el" only binder-free formulas are enumerated; with
    language="elas" assignment binders over the shared variables are
    allowed as well.  Enumeration is by truth profile, which is exhaustive:
    two formulas with the same profile are interchangeable inside every
    larger formula over these two models.
    """
    if language not in ("el", "elas"):
        raise ValueError("language must be 'el' or 'elas'")
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, not {max_size}")
    sig1, sig2 = p1.model.signature, p2.model.signature
    if sig1.predicates != sig2.predicates or sig1.names != sig2.names:
        raise ValueError("pointed models must share a signature")
    # sigma never changes below a binder-free formula, so the el profile
    # only needs the given assignments; variables still occur as terms.
    shared = sorted(set(p1.sigma) & set(p2.sigma))
    variables = shared if language == "elas" else []
    space = _ProfileSpace(p1, p2, variables)

    terms = [Var(v) for v in shared]
    terms += [Name(nm) for nm in sorted(sig1.names)]

    atoms = [Top(), Bot()]
    atoms += [Eq(a, b) for a in terms for b in terms]
    for sym, arity in sorted(sig1.predicates.items()):
        atoms += [Pred(sym, args)
                  for args in itertools.product(terms, repeat=arity)]
    atoms_by_size: dict = {}
    for atom in atoms:
        atoms_by_size.setdefault(node_count(atom), []).append(atom)

    ops = [(functools.partial(Knows, t), space.knows_map(t)) for t in terms]
    ops += [(functools.partial(Assign, v, t), space.assign_map(v, t))
            for v in variables for t in terms]
    full = space.all_mask
    by_size: dict = {}         # size -> [(formula, profile)], first found first

    def candidates(size):
        """(profile, constructor, arguments) per candidate, in order; the
        formula itself is built only if its profile is new."""
        for atom in atoms_by_size.get(size, ()):
            yield space.atom_profile(atom), _same, (atom,)
        for sub, p in by_size.get(size - 1, ()):
            yield BIT_OPS[Not](full, p), Not, (sub,)
        for sub, p in by_size.get(size - 2, ()):
            for ctor, cellmap in ops:
                yield space.apply(p, cellmap), ctor, (sub,)
        for left_size in range(1, size - 1):
            for fl, pl in by_size.get(left_size, ()):
                for fr, pr in by_size.get(size - 1 - left_size, ()):
                    for ctor in BINARY:
                        yield BIT_OPS[ctor](full, pl, pr), ctor, (fl, fr)

    seen = set()
    for size in range(1, max_size + 1):
        by_size[size] = []
        for profile, ctor, args in candidates(size):
            if profile in seen:
                continue
            formula = ctor(*args)
            if space.distinguishes(profile):
                return _verified(formula, p1, p2)
            seen.add(profile)
            by_size[size].append((formula, profile))
    return None


def _same(formula):
    return formula


def _verified(formula, p1, p2):
    v1 = eval_formula(p1.model, p1.world, p1.sigma, formula)
    v2 = eval_formula(p2.model, p2.world, p2.sigma, formula)
    if v1 == v2:
        raise RuntimeError("internal error: profile search returned a "
                           "non-distinguishing formula")
    return formula
