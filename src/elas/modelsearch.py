"""Bounded model enumeration, countermodel and witness search.

The search space for a formula is every model over exactly the symbols the
formula mentions, with worlds labelled w1..wn and agents i1..ik, up to the
requested bounds.  Enumeration order is fixed and documented: world count,
then agent count, then the per-agent relations, then the predicate
interpretation, then the name interpretation, each lexicographically; a
model's worlds and then the covering assignments are scanned in order too.
For a fixed relation tuple, the predicate and name interpretations are
numbered by one scan index, rho_index * k ** (names * worlds) + eta_pos.

``find_countermodel`` and ``find_witness`` walk that order but skip every
tuple of per-agent relations that is not the lexicographic minimum of its
orbit under permutations of the worlds and of the agents (lex-leader
symmetry breaking, as in SEM's least-number heuristic and in MACE-style
finders).
This is exact: an isomorphic copy of a hit is a hit, because every world,
predicate and name interpretation and free assignment is scanned, and the
relation tuple is the outermost key of the order, so the first hit always
lies on an orbit-minimal tuple.  Not depending on the formula, they are
built per world count (_Frames) with the relation pool and permutation
table they are read from, each agent count extending the tuples of the
one before: once per process on epistemic frames, once per search on
arbitrary ones.  A search binds the formula's symbols to
positions once (_target): its variables, names and predicate symbols,
each kind in sorted order.  The other tables of a block (labels, the rho and eta
layout, lane masks, the assignment grid, and the index lists kernels
build from positions) depend only on its shape: n, k, the predicate
arities in position order, the numbers of names and variables, the free
variables' positions and the lane cap.  _shape keeps the 128 shapes used
last (a benchmark search workload meets at most 67; one holds under 1 KB
to about 0.2 MB, mostly lane masks, and 30 rounds of either search
workload leave 0.4-0.5 MB held in all), and _groups the 4,096 successor
groupings used last.  These tables are filled without a lock, so a
search runs in one thread at a time.  The scan keeps the candidate model
in a compact form: for a fixed relation tuple the formula's truth value
at every (world, assignment) cell is computed for a chunk of consecutive
scan indices at once, one bitmask lane per index (Python integers as bit
vectors), so the lowest set bit of a cell is its first hit.  That hit is
rebuilt as a real model and re-verified with the reference evaluator
before it is returned; the fast path is never trusted on its own.

The world count stops at what the formula can see.  Names, predicates and
assignments never move the point of evaluation; only K{t} does, to a
successor.  So a target of modal depth at most 1 (no K below another K)
has a hit with at most W = 1 + #K worlds if it has one at all, #K being
its K occurrences counted in the tree (a shared node counts once per
occurrence): a selective submodel (Blackburn, de Rijke & Venema, Modal
Logic, ch. 2; for one S5 agent, Ladner's bound).  Proof sketch: take a hit
at (w, sigma) and keep w and, for each K occurrence false at w, one
successor where its body is false.  Each occurrence is evaluated at w
under exactly one assignment, as [x := t] is deterministic.  Restrict the
relations, names and predicates to the kept worlds.  Every value at w is
unchanged: atoms and binders read w only; a false K keeps its witness,
whose body, free of K, reads that world only; a true K stays true on fewer
successors.  The cut-down model has the same agents and symbols and stays
in the frame class (an equivalence relation restricted to a subset is
still one), so the hit is also a hit, after renaming the worlds, in a
block with at most W worlds, which comes earlier in the order.  The search
therefore scans world counts only up to min(max_worlds, W): at depth 0
that is the one-world blocks, and for a deeper target W is unbounded.  The
first hit is unchanged.  A subformula without K reads no relation at all,
so its masks depend on the chunk of scan indices alone: the scan computes
them with the chunk's digits whenever the chunk index changes, once for
all occurrences of the same subformula; a block of one chunk computes
them once for all its relation tuples.

A K node's masks are computed once per representative column of its
free variables, the assignment column that agrees with a column on them
and puts every other variable at agent 0, and stored in every column
that agrees with it there: a formula's value under an assignment reads
the assignment only at its free variables.  So in [?x := ?y] K{a} P(?x)
over ?x and ?y, K{a} P(?x) is computed for each agent of ?x alone, one
cell in k per world.  _target records each K node's free variables (its
support) in the walk that folds it.

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
max(1, cap(n)); the first hit is unchanged.

The target is read in one walk (_target).  It folds every subformula whose
value no model of the frame class, world or assignment can change into
true or false, such as false & psi, psi -> true, psi -> psi, psi <-> psi,
K{t} true, t = t or an assignment over a constant.  A connective is
evaluated over its distinct children, each taking both values: equal
children are one node, as nodes are hash-consed; for the same reason
psi & psi and psi | psi fold to psi, a rule whose result need not be
constant.  Three rules hold on epistemic frames only.  K{t} false is
false there, as every world is its own successor; on arbitrary frames it
stays, as it is true at a world without successors.  And introspection
folds under a variable index: K{?x} K{?x} psi is K{?x} psi (axioms 4 and
T) and K{?x} ~K{?x} psi is ~K{?x} psi (5 and T), as each agent's
relation is an equivalence and ?x denotes the same agent at every world.
A name is read at each world, so K{a} K{a} psi is kept (table row
pos-introspection-name is invalid), and so is K{?x} [?x := t] K{?x} psi,
whose inner ?x may denote another agent.  On the way back up it counts
each folded node's K occurrences and modal depth, which give the world
cap W, records the maximal subtrees without K for the scan to hoist and
each kept K node's free variables, and reads phi's signature: every
variable, bound ones included, the names, the predicate arities and the
free variables, passing down the variables bound above (a binder's own
term is read outside its scope).  Each fold rule keeps the value at every pointed model
of the frame class it is used for, so the folded target has the same hits
in the same order and the first hit is unchanged; its modal depth and K
count can only fall, and the cap above holds for any formula equivalent to
phi on the frame class.  The signature and the agent cap are still those
of phi, read in the same walk, and a hit is re-verified against phi.  A target folded to false
has W = 0: no block is scanned.

Bounded search is incomplete in general: a negative answer speaks for
the models within the bounds, and verdicts say so.  It speaks for every
model of the frame class, of any size, when the target's world cap W is
finite, max_worlds >= W and max_agents >= cap(W): then every hit would
have a copy within the bounds, by the two caps above.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .randgen import agent_labels, set_partitions, world_labels
from .randgen import count_models  # noqa: F401  (part of this module's API)
from .semantics import (
    BIT_OPS, KripkeModel, PointedModel, denote, digit_mask, eval_all_worlds,
    eval_formula, normal_model,
)
from .syntax import (
    BINARY, BOOLEAN, And, Assign, Bot, Eq, Formula, Implies, Knows, Name, Not,
    Or, Pred, Signature, Top, Var, node_count,
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
# Block shape: every table that is fixed once n, k and the positions are chosen

_SHAPES = 128       # block shapes kept per process (one workload meets <= 67)


class _Shape:
    """Every table of a block that the formula does not choose.  Symbols
    enter only as the positions _target binds them to: the predicates'
    arities in position order, the numbers of names and of variables, and
    the free variables' positions.  With n, k and the lane cap they are
    the key of _shape, so one shape serves every search whose block has
    it.  Shared, it is read-only; memo holds the index lists that kernels
    build from positions (see _memo)."""

    def __init__(self, n: int, k: int, arities: tuple, names: int,
                 variables: int, free: tuple, cap: int):
        self.n, self.k = n, k
        self.worlds, self.agents = world_labels(n), agent_labels(k)

        # rho bit layout: blocks in (predicate, world) order, first block in
        # the most significant position so that the integer enumeration of
        # interpretations matches nested lexicographic choice.
        self.arity_tuples = {a: list(itertools.product(range(k), repeat=a)) for a in arities}
        self.slot_offsets = [[0] * n for _ in arities]  # per (predicate position, world)
        position = 0
        for p in reversed(range(len(arities))):
            for w in reversed(range(n)):
                self.slot_offsets[p][w] = position
                position += k ** arities[p]
        self.rho_bits = position
        # eta digit ni * n + w, base k, is name ni's agent at world w; the
        # first digit is the most significant.
        self.eta_digits = names * n
        self.etas = k ** self.eta_digits

        # A chunk is `lanes` consecutive scan indices.  Its lane digits are the
        # lowest digits of the index (the eta digits, last first, then the rho
        # bits) whose product stays within the cap; every higher digit, of
        # weight >= lanes, is constant within a chunk.
        lanes = 1
        for base in [k] * self.eta_digits + [2] * self.rho_bits:
            if lanes * base > cap:
                break
            lanes *= base
        self.lanes, self.all_mask = lanes, (1 << lanes) - 1
        self.chunks = (self.etas << self.rho_bits) // lanes
        # Per eta digit its weight and, for a lane digit, its (lane mask, agent)
        # pairs; per rho bit its weight and, for a lane digit, its lane mask.
        # A digit constant within a chunk has None here (see chunk_digits).
        self.eta_lanes = [(w, tuple((digit_mask(lanes, w, k, j), j) for j in range(k))
                           if w < lanes else None)
                          for w in (k ** e for e in reversed(range(self.eta_digits)))]
        self.rho_lanes = [(w, digit_mask(lanes, w, 2, 1) if w < lanes else None)
                          for w in (self.etas << p for p in range(self.rho_bits))]

        # assignment grid: one column per total assignment of the formula's
        # variables (bound ones included); scanning covers the free ones.
        self.sigmas = list(itertools.product(range(k), repeat=variables))
        self.S = len(self.sigmas)
        self.strides = [k ** (variables - 1 - i) for i in range(variables)]
        # cell c = w * S + s is grid[c]; a variable's column lists the agent
        # it denotes under each assignment s
        self.grid = [(w, s) for w in range(n) for s in range(self.S)]
        self.var_columns = [[sigma[i] for sigma in self.sigmas] for i in range(variables)]
        self.free_cells = self.columns(free)
        self.memo = {}

    def columns(self, positions):
        """In order, the assignment columns whose variables are at agent 0
        except those at the given positions."""
        return [sum(self.strides[i] * g for i, g in zip(positions, combo))
                for combo in itertools.product(range(self.k), repeat=len(positions))]

    def chunk_digits(self, chunk: int):
        """Per eta digit its (lane mask, agent) pairs and per rho bit its
        lane mask, within the given chunk."""
        first = chunk * self.lanes
        eta = [pairs or ((self.all_mask, first // w % self.k),) for w, pairs in self.eta_lanes]
        rho = [mask if mask is not None else self.all_mask if first // w & 1 else 0
               for w, mask in self.rho_lanes]
        return eta, rho

    def build_model(self, sig: Signature, succ, index: int) -> KripkeModel:
        """The model over sig at a scan index under the successor tuples succ."""
        worlds, agents = self.worlds, self.agents
        relations = {agent: frozenset((worlds[w], worlds[v])
                                      for w, row in enumerate(rel) for v in row)
                     for agent, rel in zip(agents, succ)}
        successors = {(agent, worlds[w]): tuple(sorted(worlds[v] for v in row))
                      for agent, rel in zip(agents, succ)
                      for w, row in enumerate(rel) if row}
        rho_index, eta_pos = divmod(index, self.etas)
        rho = {}
        for (sym, arity), row in zip(sorted(sig.predicates.items()), self.slot_offsets):
            for w, offset in enumerate(row):
                chosen = frozenset(tuple(agents[d] for d in digits)
                                   for t, digits in enumerate(self.arity_tuples[arity])
                                   if rho_index >> (offset + t) & 1)
                if chosen:
                    rho[(sym, worlds[w])] = chosen
        names = sorted(sig.names)
        eta_map = {(names[d // self.n], worlds[d % self.n]): agents[eta_pos // weight % self.k]
                   for d, (weight, _) in enumerate(self.eta_lanes)}
        return normal_model(tuple(sorted(worlds)), tuple(sorted(agents)),
                            relations, rho, eta_map, sig, successors)


_shape = functools.lru_cache(maxsize=_SHAPES)(_Shape)     # see the module docstring


def _compile(phi: Formula, shape: _Shape, target: _Target, hoisted: dict):
    """Compile a formula to a function ctx -> list of per-cell bitmasks over
    one chunk's lanes, where ctx = (succ, groups, eta, rho, k_free): the
    relation tuple's successor tuples and _groups, one per agent, eta and
    rho as chunk_digits gives them for the chunk, and the masks of each
    hoisted subtree over the chunk.
    _KERNELS holds the builder of each node class, which reads a symbol's
    position from the target and the tables at it from the shape.

    A term's per-cell denotation takes one of two forms.  A variable
    denotes one agent in each assignment column, fixed by the shape, so
    an atom or binder whose terms are all variables becomes a list of cell
    or rho indices gathered per pass, and K{?v} ANDs each group of worlds
    sharing a successor set once under the relation of the column's agent.
    Both K kernels compute only the representative columns of the node's
    support and store each mask at every column that shares it.
    A name at world w denotes the (lane mask, agent) pairs of its eta digit
    eta[ni * n + w], one per agent the digit takes within the chunk; they
    never hold None, and nodes with a name term OR their masks per cell.

    hoisted maps a subtree without K to its position in k_free: its masks
    depend on the chunk alone, so _scan_block computes them once per chunk
    stage and the compiled node reads them.  Equal subformulas are one
    node, so every occurrence of such a node reads the same masks."""
    if phi in hoisted:
        i = hoisted[phi]
        return lambda ctx: ctx[4][i]
    try:
        kernel = _KERNELS[type(phi)]
    except KeyError:
        raise TypeError(f"not a formula: {phi!r}") from None
    return kernel(phi, shape, target, hoisted)


def _memo(shape: _Shape, key: tuple, build):
    """The shape's index list for key, built by build() on the first call.
    A key holds the positions the list is built from, never a symbol, and
    build reads only shape fields; kernels never mutate what it returns."""
    if key not in shape.memo:
        shape.memo[key] = build()
    return shape.memo[key]


def _fixed(cells: list):
    """Masks that neither the chunk nor the relation tuple change."""
    return lambda ctx: cells


def _connective(phi, shape: _Shape, target: _Target, hoisted: dict):
    # Inline, not BIT_OPS: a call per cell cut exhaust ops_per_s 37 -> 31-33.
    ALL, node = shape.all_mask, type(phi)
    if node is Not:
        sub = _compile(phi.body, shape, target, hoisted)
        return lambda ctx: [m ^ ALL for m in sub(ctx)]
    sl, sr = (_compile(kid, shape, target, hoisted) for kid in (phi.lhs, phi.rhs))
    if node is And:
        return lambda ctx: [a & b for a, b in zip(sl(ctx), sr(ctx))]
    if node is Or:
        return lambda ctx: [a | b for a, b in zip(sl(ctx), sr(ctx))]
    if node is Implies:
        return lambda ctx: [(a ^ ALL) | b for a, b in zip(sl(ctx), sr(ctx))]
    return lambda ctx: [(a ^ b) ^ ALL for a, b in zip(sl(ctx), sr(ctx))]


def _eq(phi: Eq, shape: _Shape, target: _Target, hoisted: dict):
    n, S, var_pos = shape.n, shape.S, target.var_pos
    lhs, rhs = (phi.rhs, phi.lhs) if type(phi.lhs) is Var else (phi.lhs, phi.rhs)
    if type(lhs) is Var:
        i, j = var_pos[lhs.id], var_pos[rhs.id]
        c1, c2 = shape.var_columns[i], shape.var_columns[j]
        return _fixed(_memo(shape, ("eq", i, j), lambda: [
            shape.all_mask if c1[s] == c2[s] else 0 for w, s in shape.grid]))
    # lhs is a name; rhs is a variable, read from its column, or a name
    d = target.name_pos[lhs.id] * n
    col = shape.var_columns[var_pos[rhs.id]] if type(rhs) is Var else None
    e = target.name_pos[rhs.id] * n if col is None else None

    def run(ctx):
        eta, out = ctx[2], []
        for w in range(n):
            of = {a: m for m, a in eta[d + w]}      # lhs's lane mask per agent
            if col is not None:
                out += [of.get(a, 0) for a in col]
                continue
            m = 0
            for m2, a in eta[e + w]:
                m |= m2 & of.get(a, 0)
            out += [m] * S
        return out
    return run


def _pred(phi: Pred, shape: _Shape, target: _Target, hoisted: dict):
    n, k, S, args, ALL = shape.n, shape.k, shape.S, phi.args, shape.all_mask
    weights = [k ** e for e in reversed(range(len(args)))]
    p = target.pred_pos[phi.sym]
    at = tuple(target.var_pos[a.id] if type(a) is Var else None for a in args)

    def slots():
        # per assignment column, what the variable arguments add to the tuple index
        fixed = [sum(shape.var_columns[i][s] * wt for i, wt in zip(at, weights) if i is not None)
                 for s in range(S)]
        return [shape.slot_offsets[p][w] + fixed[s] for w, s in shape.grid]
    slots = _memo(shape, ("pred", p, at), slots)
    named = [(target.name_pos[a.id] * n, wt) for a, wt in zip(args, weights) if type(a) is Name]
    if not named:
        return lambda ctx: list(map(ctx[3].__getitem__, slots))

    def run(ctx):
        eta, rho, out = ctx[2], ctx[3], []
        for w in range(n):
            combos = [(ALL, 0)]     # (lanes, index part) per choice of the names' agents
            for d, wt in named:
                combos = [(mask & m, t + a * wt) for mask, t in combos for m, a in eta[d + w]]
            for slot in slots[w * S:(w + 1) * S]:
                m = 0
                for mask, t in combos:
                    m |= mask & rho[slot + t]
                out.append(m)
        return out
    return run


def _knows(phi: Knows, shape: _Shape, target: _Target, hoisted: dict):
    sub = _compile(phi.body, shape, target, hoisted)
    n, S, ALL = shape.n, shape.S, shape.all_mask
    # K's masks read only its free variables: computed in the columns that
    # put every other variable at agent 0, stored at each offset of theirs
    support = target.support[phi]
    reps, offsets = _memo(shape, ("knows", support), lambda: (
        shape.columns(support),
        shape.columns([i for i in range(len(shape.strides)) if i not in support])))
    if type(phi.agent) is Var:
        i = target.var_pos[phi.agent.id]
        col = shape.var_columns[i]
        # per agent, the representative columns in which the variable names it
        by_agent = _memo(shape, ("knows", i, support), lambda: [
            (a, cols) for a in range(shape.k) if (cols := [s for s in reps if col[s] == a])])

        def run(ctx):
            groups, bm = ctx[1], sub(ctx)
            out = [ALL] * (n * S)       # a world without successors
            for a, cols in by_agent:
                for rows, targets in groups[a]:
                    for s in cols:
                        m = ALL
                        for row in rows:
                            m &= bm[row + s]
                            if not m:
                                break
                        for row in targets:
                            row += s
                            for o in offsets:
                                out[row + o] = m
            return out
        return run
    d = target.name_pos[phi.agent.id] * n

    def run(ctx):
        succ, eta, bm, out = ctx[0], ctx[2], sub(ctx), [0] * (n * S)
        for w in range(n):
            pairs, row = eta[d + w], w * S
            for s in reps:
                acc = 0
                for m, a in pairs:
                    for v in succ[a][w]:
                        m &= bm[v * S + s]
                        if not m:
                            break
                    acc |= m
                if acc:
                    for o in offsets:
                        out[row + s + o] = acc
        return out
    return run


def _assign(phi: Assign, shape: _Shape, target: _Target, hoisted: dict):
    sub, S, grid = _compile(phi.body, shape, target, hoisted), shape.S, shape.grid
    i = target.var_pos[phi.var]
    own, stride = shape.var_columns[i], shape.strides[i]
    base = _memo(shape, ("assign", i), lambda: [      # the variable at agent 0
        w * S + s - own[s] * stride for w, s in grid])
    if type(phi.term) is Var:
        j = target.var_pos[phi.term.id]
        col = shape.var_columns[j]
        cells = _memo(shape, ("assign", i, j), lambda: [
            b + col[s] * stride for b, (w, s) in zip(base, grid)])
        return lambda ctx: list(map(sub(ctx).__getitem__, cells))
    d = target.name_pos[phi.term.id] * shape.n

    def run(ctx):
        eta, bm, out = ctx[2], sub(ctx), []
        for b, (w, s) in zip(base, grid):
            m = 0
            for mi, g in eta[d + w]:
                m |= mi & bm[b + g * stride]
            out.append(m)
        return out
    return run


# The kernel builder of each node class, called with (node, shape, target, hoisted).
_KERNELS = {
    Top: lambda phi, shape, target, hoisted: _fixed([shape.all_mask] * len(shape.grid)),
    Bot: lambda phi, shape, target, hoisted: _fixed([0] * len(shape.grid)),
    Eq: _eq,
    Pred: _pred,
    **dict.fromkeys(BOOLEAN, _connective),
    Knows: _knows,
    Assign: _assign,
}


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


class _Frames:
    """The frame side of every block with n worlds in one frame class: the
    pool of per-agent relations and, per agent count, the orbit-minimal
    relation tuples.  It does not depend on the formula (see _frames).

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

    def __init__(self, n: int, epistemic: bool):
        self.pool = _relation_pool(n, epistemic)
        # a relation as its pairs (w, v), numbered w * n + v
        pairs = [[w * n + v for w, succ in enumerate(rel) for v in succ]
                 for rel in self.pool]
        index = {sum(1 << p for p in rel): i for i, rel in enumerate(pairs)}
        self.table = []
        for perm in itertools.islice(itertools.permutations(range(n)), 1, None):
            moved = [1 << (perm[w] * n + perm[v]) for w in range(n) for v in range(n)]
            self.table.append([index[sum(map(moved.__getitem__, rel))] for rel in pairs])
        self.done = [[((), ())]]    # per agent count, every tuple yielded

    def tuples(self, k: int):
        """Yield, in lexicographic order, each orbit-minimal k-tuple rels of
        pool indices as (rels, succ), succ its successor tuples, after every
        (k-1)-tuple was yielded; the k-tuples are kept once all of them are."""
        if len(self.done) > k:
            yield from self.done[k]
            return
        found = []
        for prefix, succ in self.done[k - 1]:
            for r in range(prefix[-1] if prefix else 0, len(self.pool)):
                rels = prefix + (r,)
                if self._minimal(rels):
                    found.append((rels, succ + (self.pool[r],)))
                    yield found[-1]
        if len(self.done) == k:
            self.done.append(found)

    def _minimal(self, rels: tuple) -> bool:
        """Whether no row sends the sorted tuple to a smaller one."""
        return all(tuple(sorted(row[r] for r in rels)) >= rels for row in self.table)


_frames = functools.cache(_Frames)      # epistemic frames only (44 KB), see _search


@functools.lru_cache(maxsize=1 << 12)
def _groups(rel: tuple, S: int) -> tuple:
    """The worlds of a relation that have successors, grouped by successor
    set: (successor rows, world rows) per group, the row of world w being
    w * S, the index of its first cell."""
    by_succ = {}
    for w, succ in enumerate(rel):
        if succ:
            by_succ.setdefault(succ, []).append(w * S)
    return tuple((tuple(v * S for v in succ), tuple(rows))
                 for succ, rows in by_succ.items())


@dataclass(frozen=True)
class _Target:
    """What a search scans for, and what every block needs to know of it.
    Each kind of symbol has its own positions, in sorted order, bound once
    per search: ?a, a and P may share an identifier."""
    formula: Formula        # phi, or ~phi for a countermodel, folded
    sig: Signature          # phi's predicates and names; variables live in sigma
    free: frozenset
    worlds: float           # the most worlds a first hit can have, or inf
    hoisted: tuple          # the maximal subtrees without K, each once
    var_pos: dict           # every variable of phi, bound ones included
    name_pos: dict
    pred_pos: dict
    support: dict           # per K node, the positions of its free variables
    key: tuple              # arities, names, variables, free positions (see _Shape)


_CONSTANT = {Top: 1, Bot: 0}       # a constant's class -> its bit


def _constant(node: type, lhs, rhs):
    """Top() or Bot() if the connective node over the folded lhs and rhs is
    constant (see the module docstring), else None."""
    kids = (lhs, rhs)
    # each distinct non-constant kid takes both values, equal kids together
    free = list(dict.fromkeys(kid for kid in kids if type(kid) not in _CONSTANT))
    values = set()
    for bits in itertools.product((0, 1), repeat=len(free)):
        bit = dict(zip(free, bits))
        values.add(BIT_OPS[node](1, *(bit.get(kid, _CONSTANT.get(type(kid))) for kid in kids)))
    return (Top() if values.pop() else Bot()) if len(values) == 1 else None


def _target(phi: Formula, want_false: bool, epistemic: bool) -> _Target:
    """The target of a search for phi false (want_false) or true on the
    frame class, read in one walk (see the module docstring)."""
    variables, free, names, arities = set(), set(), set(), {}
    hoisted, knows = [], []     # knows: (K node, its free variables) per kept occurrence
    none = frozenset()

    def read(t, bound):
        """Record the term t, read under the variables bound above it."""
        if type(t) is Var:
            variables.add(t.id)
            if t.id not in bound:
                free.add(t.id)
        else:
            names.add(t.id)

    def walk(f, bound):
        """f folded, its modal depth, its K occurrences and the free
        variables of the folded node.  A node none of whose children
        changed is returned itself, and a conjunction or disjunction of one
        folded node with itself is that node, as is, on epistemic frames,
        K{?x} over a folded K{?x} or its negation.  The K-free children of
        a node with K below it are hoisted; a subtree that folds to a
        constant drops what its own nodes hoisted and the K nodes they
        kept."""
        node = type(f)
        if node in BINARY:
            mark, kept = len(hoisted), len(knows)
            lw, rw = walk(f.lhs, bound), walk(f.rhs, bound)
            lhs, rhs = lw[0], rw[0]
            if lhs is rhs or type(lhs) in _CONSTANT or type(rhs) in _CONSTANT:
                constant = _constant(node, lhs, rhs)
                if constant is not None:
                    del hoisted[mark:], knows[kept:]
                    return constant, 0, 0, none
                if lhs is rhs and node in (And, Or):
                    return lw       # psi & psi and psi | psi are psi
            d = max(lw[1], rw[1])
            if d:
                hoisted.extend(kid for kid, kd, _, _ in (lw, rw) if kd == 0)
            same = lhs is f.lhs and rhs is f.rhs
            return f if same else node(lhs, rhs), d, lw[2] + rw[2], lw[3] | rw[3]
        if node is Not:
            body, d, ks, fv = walk(f.body, bound)
            if type(body) in _CONSTANT:
                return (Bot() if type(body) is Top else Top()), 0, 0, none
            return f if body is f.body else Not(body), d, ks, fv
        if node is Knows:
            agent = f.agent
            read(agent, bound)
            walked = body, d, ks, fv = walk(f.body, bound)
            if type(body) is Top or (epistemic and type(body) is Bot):
                return body, 0, 0, none
            if type(agent) is Var:
                inner = body.body if type(body) is Not else body
                if epistemic and type(inner) is Knows and inner.agent is agent:
                    return walked   # K{?x} K{?x} psi and K{?x} ~K{?x} psi
                fv = fv | {agent.id}
            if not d:
                hoisted.append(body)
            f = f if body is f.body else Knows(agent, body)
            knows.append((f, fv))
            return f, d + 1, ks + 1, fv
        if node is Assign:
            read(f.term, bound)     # outside the binder's scope
            variables.add(f.var)
            body, d, ks, fv = walk(f.body, bound | {f.var})
            if type(body) in _CONSTANT:
                return body, 0, 0, none
            fv = fv - {f.var}
            if type(f.term) is Var:
                fv = fv | {f.term.id}
            return f if body is f.body else Assign(f.var, f.term, body), d, ks, fv
        if node is Pred:
            arities[f.sym] = len(f.args)
            for t in f.args:
                read(t, bound)
            return f, 0, 0, {t.id for t in f.args if type(t) is Var}
        if node is Eq:
            read(f.lhs, bound)
            read(f.rhs, bound)
            if f.lhs is f.rhs:
                return Top(), 0, 0, none
            return f, 0, 0, {t.id for t in (f.lhs, f.rhs) if type(t) is Var}
        return f, 0, 0, none        # Top, Bot, or not a formula (see _compile)

    formula, md, ks, _ = walk(Not(phi) if want_false else phi, none)
    worlds = 0 if type(formula) is Bot else 1 + ks if md <= 1 else math.inf
    var_pos, name_pos, pred_pos = ({sym: i for i, sym in enumerate(sorted(symbols))}
                                   for symbols in (variables, names, arities))
    key = (tuple(arities[sym] for sym in pred_pos), len(name_pos), len(var_pos),
           tuple(var_pos[v] for v in sorted(free)))
    return _Target(formula, Signature(arities, frozenset(names)), frozenset(free), worlds,
                   tuple(dict.fromkeys(hoisted)) if md else (formula,),
                   var_pos, name_pos, pred_pos,
                   {k: tuple(var_pos[v] for v in sorted(fv)) for k, fv in knows}, key)


def _scan_block(target: _Target, n: int, k: int, tuples):
    """Scan the relation tuples of block (n, k) as _Frames.tuples yields
    them; return the pointed model of the canonically first hit, or None.

    The shape at the target's key and the lane cap in force fixes every
    variable's denotation per cell, and _compile builds those in; per
    relation tuple the scan passes the successor groups that K over a
    variable folds.  The chunk stage is computed whenever the chunk index
    changes: the chunk's digits (the names' and predicates' lane masks) and
    the masks of every hoisted subtree, which read no relation.  A block of
    one chunk computes it once; a block of several, once per relation tuple
    and chunk.  Every world of a tuple is a pointed world.
    """
    shape = _shape(n, k, *target.key, _LANES)
    run = _compile(target.formula, shape, target,
                   {phi: i for i, phi in enumerate(target.hoisted)})
    k_free = [_compile(phi, shape, target, {}) for phi in target.hoisted]
    staged = None
    for _, succ in tuples:
        groups = tuple(_groups(rel, shape.S) for rel in succ)
        for chunk in range(shape.chunks):
            if chunk != staged:
                staged, (eta, rho) = chunk, shape.chunk_digits(chunk)
                stage = eta, rho, [f((None, None, eta, rho, None)) for f in k_free]
            masks = run((succ, groups, *stage))
            keys = [((m & -m).bit_length() - 1, w, cell_pos)
                    for w in range(n) for cell_pos, s in enumerate(shape.free_cells)
                    if (m := masks[w * shape.S + s])]
            if keys:
                lane, w, cell_pos = min(keys)
                s = shape.sigmas[shape.free_cells[cell_pos]]
                sigma = {v: shape.agents[s[target.var_pos[v]]] for v in sorted(target.free)}
                model = shape.build_model(target.sig, succ, chunk * shape.lanes + lane)
                return PointedModel(model, shape.worlds[w], sigma)
    return None


def _agent_cap(target: _Target, n: int) -> int:
    """The most agents a first hit with n worlds can have: one per free
    variable and one per name and world (see the module docstring)."""
    return max(1, len(target.free) + len(target.sig.names) * n)


def _search(phi: Formula, bounds: SearchBounds, want_false: bool):
    target = _target(phi, want_false, bounds.epistemic)
    for n in range(1, min(bounds.max_worlds, target.worlds) + 1):
        frames = _frames(n, True) if bounds.epistemic else _Frames(n, False)
        for k in range(1, min(bounds.max_agents, _agent_cap(target, n)) + 1):
            pointed = _scan_block(target, n, k, frames.tuples(k))
            if pointed is not None:
                if eval_formula(pointed.model, pointed.world, pointed.sigma, phi) == want_false:
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
