"""Seeded random formulas, models and assignments for the spot-check suites.

Everything here takes an explicit random.Random so runs are reproducible;
the epistemic sampler is exactly uniform over the bounded model space (each
block of fixed world/agent counts is weighted by its true size).
"""

from __future__ import annotations

import functools
import itertools
import random

from .semantics import KripkeModel, normal_model
from .syntax import (
    BINARY, Assign, Bot, Eq, Formula, Knows, Name, Not, Pred, Signature, Top,
    Var,
)


@functools.cache
def set_partitions(n: int) -> tuple:
    """All partitions of range(n) as restricted-growth strings, in
    lexicographic order."""
    if n == 0:
        return ((),)
    out = []

    def extend(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for block in range(used + 1):
            extend(prefix + [block], max(used, block + 1))

    extend([0], 1)
    return tuple(out)


# Bounded: a process that draws models of many worlds would otherwise keep
# one entry per growth string it ever met (Bell(8) = 4,140 of them at 8 worlds).
@functools.lru_cache(maxsize=4096)
def _partition(rgs, worlds) -> tuple:
    """The equivalence relation whose blocks are given by the growth string,
    and (world, its block in sorted order) for each world, in order."""
    relation = frozenset((worlds[i], worlds[j])
                         for i in range(len(worlds)) for j in range(len(worlds))
                         if rgs[i] == rgs[j])
    return relation, tuple((w, tuple(sorted(v for v, b in zip(worlds, rgs) if b == block)))
                           for w, block in zip(worlds, rgs))


def world_labels(n: int) -> tuple:
    return tuple(f"w{i}" for i in range(1, n + 1))


def agent_labels(k: int) -> tuple:
    return tuple(f"i{i}" for i in range(1, k + 1))


def count_models(sig: Signature, n: int, k: int, epistemic: bool) -> int:
    """Closed-form number of models with n worlds and k agents over the
    signature: per-agent relations, then rho, then eta."""
    return _count(tuple(sig.predicates.values()), len(sig.names), n, k, epistemic)


def _count(arities: tuple, names: int, n: int, k: int, epistemic: bool) -> int:
    relations = len(set_partitions(n)) if epistemic else 1 << (n * n)
    rho_bits = sum(n * k ** arity for arity in arities)
    return relations ** k * (1 << rho_bits) * k ** (n * names)


@functools.cache
def _block_weights(arities: tuple, names: int, max_worlds: int,
                   max_agents: int, epistemic: bool) -> tuple:
    """The blocks (n, k, models in the block) in (n, k) order, and the
    total; a function of the multiset of predicate arities, the name count,
    the bounds and the frame class alone."""
    blocks = tuple((n, k, _count(arities, names, n, k, epistemic))
                   for n in range(1, max_worlds + 1) for k in range(1, max_agents + 1))
    return blocks, sum(size for _, _, size in blocks)


def _draw_block(rng: random.Random, sig: Signature, max_worlds: int,
                max_agents: int, epistemic: bool) -> tuple:
    """(worlds, agents) of a model drawn uniformly from the bounded space:
    each block is weighted by its size."""
    blocks, total = _block_weights(tuple(sorted(sig.predicates.values())),
                                   len(sig.names), max_worlds, max_agents, epistemic)
    ticket = rng.randrange(total)
    for n, k, size in blocks:
        if ticket < size:
            break
        ticket -= size
    return world_labels(n), agent_labels(k)


def _assemble(sig: Signature, worlds, agents, relations, succ, rng) -> KripkeModel:
    rho = {}
    for pred, arity in sorted(sig.predicates.items()):
        tuples = list(itertools.product(agents, repeat=arity))
        for w in worlds:
            chosen = frozenset(t for t in tuples if rng.random() < 0.5)
            if chosen:
                rho[(pred, w)] = chosen
    eta = {}
    for name in sorted(sig.names):
        for w in worlds:
            eta[(name, w)] = rng.choice(agents)
    return normal_model(tuple(sorted(worlds)), tuple(sorted(agents)), relations,
                        rho, eta, sig, succ)


def random_epistemic_model(rng: random.Random, sig: Signature,
                           max_worlds: int = 3, max_agents: int = 3) -> KripkeModel:
    """Uniform over all epistemic models with at most the given numbers of
    worlds and agents over the signature."""
    worlds, agents = _draw_block(rng, sig, max_worlds, max_agents, True)
    partitions = set_partitions(len(worlds))
    relations, succ = {}, {}
    for agent in agents:
        relations[agent], rows = _partition(rng.choice(partitions), worlds)
        for w, block in rows:
            succ[(agent, w)] = block
    return _assemble(sig, worlds, agents, relations, succ, rng)


def random_model(rng: random.Random, sig: Signature,
                 max_worlds: int = 3, max_agents: int = 3) -> KripkeModel:
    """Arbitrary-frame counterpart of random_epistemic_model."""
    worlds, agents = _draw_block(rng, sig, max_worlds, max_agents, False)
    relations, succ = {}, {}
    for agent in agents:
        pairs = []
        for u in worlds:
            vs = [v for v in worlds if rng.random() < 0.5]
            if vs:
                succ[(agent, u)] = tuple(sorted(vs))
                pairs.extend((u, v) for v in vs)
        relations[agent] = frozenset(pairs)
    return _assemble(sig, worlds, agents, relations, succ, rng)


def random_sigma(rng: random.Random, variables, model: KripkeModel) -> dict:
    return {v: rng.choice(model.agents) for v in variables}


def random_formula(rng: random.Random, variables, names, predicates,
                   depth: int, allow_assign: bool = True) -> Formula:
    """A random formula of at most the given operator depth."""
    terms = [Var(v) for v in variables] + [Name(n) for n in names]
    atoms = sorted(predicates.items())
    binders = sorted(variables)
    kinds = 8 if allow_assign else 7

    def draw(depth: int) -> Formula:
        if depth <= 0:
            kind = rng.randrange(8)
            if kind == 0:
                return Top()
            if kind == 1:
                return Bot()
            if kind in (2, 3):
                return Eq(rng.choice(terms), rng.choice(terms))
            sym, arity = rng.choice(atoms)
            return Pred(sym, tuple(rng.choice(terms) for _ in range(arity)))
        kind = rng.randrange(kinds)
        if kind == 0:
            return draw(0)
        if kind == 1:
            return Not(draw(depth - 1))
        if kind <= 5:       # kinds 2-5 are the BINARY connectives, in its order
            return BINARY[kind - 2](draw(depth - 1), draw(depth - 1))
        if kind == 6:
            return Knows(rng.choice(terms), draw(depth - 1))
        return Assign(rng.choice(binders), rng.choice(terms), draw(depth - 1))

    return draw(depth)
