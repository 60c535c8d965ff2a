import dataclasses
import functools
import hashlib
import itertools
import json
import math
import random
import sys
import typing

import pytest

from reference import enumerate_models, naive_eval, reference_target

from elas import modelsearch, semantics, syntax, translation
from elas.modelsearch import (
    Countermodel, NoCountermodelUpTo, SearchBounds, UnsatisfiableUpTo,
    Witness, count_models, el_distinguishes, find_countermodel, find_witness,
)
from elas.semantics import (
    PointedModel, Signature, eval_formula, is_epistemic, make_model,
    model_to_dict, validate_model,
)
from elas.randgen import (
    random_epistemic_model, random_formula, random_model, random_sigma,
)
from elas.suites import (
    VALIDITY_TABLE, corpus_formulas, robot_readings, separation_models,
)
from elas.syntax import (
    And, Assign, Bot, Eq, Iff, Implies, Knows, Name, Not, Or, Pred, Top, Var,
    all_vars, children, free_vars, is_el_fragment, knows_who,
    node_count, parse_formula, print_formula,
)

EPISTEMIC33 = SearchBounds(3, 3, True)
EPISTEMIC22 = SearchBounds(2, 2, True)
EPISTEMIC32 = SearchBounds(3, 2, True)
ARBITRARY22 = SearchBounds(2, 2, False)


def _search_cases():
    """(label, formula, target truth value) for every validity-table,
    corpus and reading-pair formula, searched as the suites search them."""
    cases = [(text, parse_formula(text), False)
             for entry in VALIDITY_TABLE for text in entry["formulas"]]
    cases += [(label, phi, True) for label, phi in corpus_formulas().items()]
    readings = robot_readings()
    labels = list(readings)
    cases += [(f"{a} / {b}", Not(Iff(readings[a], readings[b])), True)
              for i, a in enumerate(labels) for b in labels[i + 1:]]
    return cases


SEARCH_CASES = _search_cases()


def _first_point(phi, bounds, target):
    search = find_witness if target else find_countermodel
    pointed = getattr(search(phi, bounds), "pointed", None)
    if pointed is None:
        return None
    return model_to_dict(pointed.model), pointed.world, pointed.sigma


class TestBounds:
    def test_validation(self):
        with pytest.raises(ValueError):
            SearchBounds(0, 1)
        with pytest.raises(ValueError):
            SearchBounds(1, 0)


class TestEnumeration:
    def test_trivial_signature(self):
        sig = Signature({}, frozenset())
        models = list(enumerate_models(sig, SearchBounds(1, 1, True)))
        assert len(models) == 1
        assert models[0].worlds == ("w1",) and models[0].agents == ("i1",)

    def test_one_world_one_agent_counts(self):
        sig = Signature({"P": 1}, frozenset({"a"}))
        models = list(enumerate_models(sig, SearchBounds(1, 1, True)))
        assert len(models) == 2
        assert len(models) == count_models(sig, 1, 1, True)

    def test_closed_form_cross_check(self):
        sig = Signature({"P": 1}, frozenset({"a"}))
        models = list(enumerate_models(sig, SearchBounds(2, 2, True)))
        expected = sum(count_models(sig, n, k, True)
                       for n in (1, 2) for k in (1, 2))
        assert len(models) == expected == 274

    def test_all_enumerated_models_validate(self):
        sig = Signature({"P": 1}, frozenset({"a"}))
        for model in itertools.islice(
                enumerate_models(sig, SearchBounds(2, 2, True)), 300):
            assert validate_model(model) == []

    def test_epistemic_enumeration_is_epistemic(self):
        sig = Signature({}, frozenset({"a"}))
        for model in enumerate_models(sig, SearchBounds(2, 2, True)):
            assert is_epistemic(model)

    def test_epistemic_subset_of_arbitrary(self):
        sig = Signature({}, frozenset())
        arb = {str(model_to_dict(m))
               for m in enumerate_models(sig, SearchBounds(2, 2, False))}
        epi = {str(model_to_dict(m))
               for m in enumerate_models(sig, SearchBounds(2, 2, True))}
        assert epi < arb

    def test_enumeration_builds_no_search_table(self):
        # the pools come from _relation_pool; the searches' frame tables,
        # kept for the life of the process, are not built for it
        modelsearch._frames.cache_clear()
        sig = Signature({"P": 1}, frozenset({"a"}))
        assert len(list(enumerate_models(sig, SearchBounds(2, 1, False)))) == \
            sum(count_models(sig, n, 1, False) for n in (1, 2))
        assert modelsearch._frames.cache_info().currsize == 0

    def test_determinism(self):
        sig = Signature({"P": 1}, frozenset({"a"}))
        run1 = [model_to_dict(m) for m in itertools.islice(
            enumerate_models(sig, EPISTEMIC22), 100)]
        run2 = [model_to_dict(m) for m in itertools.islice(
            enumerate_models(sig, EPISTEMIC22), 100)]
        assert run1 == run2


class TestFindCountermodel:
    def test_nonrigid_equality(self):
        phi = parse_formula("?x = a -> K{b} ?x = a")
        verdict = find_countermodel(phi, EPISTEMIC22)
        assert isinstance(verdict, Countermodel)
        pointed = verdict.pointed
        assert eval_formula(pointed.model, pointed.world, pointed.sigma, phi) is False
        assert naive_eval(model_to_dict(pointed.model), pointed.world,
                          pointed.sigma, phi) is False
        assert is_epistemic(pointed.model)

    def test_hits_are_the_models_make_model_builds(self):
        for bounds in (EPISTEMIC22, ARBITRARY22):
            for label, phi, target in SEARCH_CASES:
                if not target:
                    continue
                m = getattr(find_witness(phi, bounds), "pointed", None)
                if m is None:
                    continue
                m = m.model
                again = make_model(m.worlds[::-1], m.agents[::-1],
                                   {a: set(rel) for a, rel in m.relations.items()},
                                   dict(m.rho), dict(m.eta), m.signature)
                assert again == m and hash(again) == hash(m), label
                assert again._succ == m._succ, label
                assert type(m.signature.predicates) is dict, label

    def test_rigid_equality_valid(self):
        phi = parse_formula("?x = ?y -> K{a} ?x = ?y")
        assert isinstance(find_countermodel(phi, EPISTEMIC33), NoCountermodelUpTo)

    def test_truth_constant(self):
        assert isinstance(find_countermodel(parse_formula("true"), EPISTEMIC33),
                          NoCountermodelUpTo)

    def test_finds_falsum_immediately(self):
        verdict = find_countermodel(parse_formula("false"), EPISTEMIC33)
        assert isinstance(verdict, Countermodel)
        sig = Signature({}, frozenset())
        first = next(iter(enumerate_models(sig, EPISTEMIC33)))
        assert model_to_dict(verdict.pointed.model) == model_to_dict(first)
        assert verdict.pointed.world == "w1"
        assert verdict.pointed.sigma == {}

    def test_scan_matches_enumeration_order(self):
        # a formula false at only some models: the scan's first hit must be
        # the first model in enumeration order that refutes it
        phi = parse_formula("P(a)")
        verdict = find_countermodel(phi, EPISTEMIC22)
        sig = Signature({"P": 1}, frozenset({"a"}))
        for model in enumerate_models(sig, EPISTEMIC22):
            refuted = None
            for world in model.worlds:
                if not eval_formula(model, world, {}, phi):
                    refuted = world
                    break
            if refuted is not None:
                assert model_to_dict(verdict.pointed.model) == model_to_dict(model)
                assert verdict.pointed.world == refuted
                break

    def test_determinism(self):
        phi = parse_formula("K{a} P(b) -> K{a} K{a} P(b)")
        v1 = find_countermodel(phi, EPISTEMIC33)
        v2 = find_countermodel(phi, EPISTEMIC33)
        assert model_to_dict(v1.pointed.model) == model_to_dict(v2.pointed.model)
        assert v1.pointed.world == v2.pointed.world

    def test_valid_table_formulas_survive_four_worlds(self):
        valid = [text for entry in VALIDITY_TABLE
                 if entry["expectation"] == "valid" for text in entry["formulas"]]
        assert len(valid) == 14
        bounds = SearchBounds(4, 3, True)
        for text in valid:
            assert find_countermodel(parse_formula(text), bounds) == \
                NoCountermodelUpTo(bounds), text


class TestOrbitRepresentatives:
    @staticmethod
    def _orbit_count(n, k, epistemic):
        """Orbits of k-tuples of relations on n worlds under permutations
        of the worlds and of the tuple positions, by brute force over
        relations as sets of pairs."""
        pairs = [(w, v) for w in range(n) for v in range(n)]
        relations = []
        for bits in range(1 << len(pairs)):
            rel = frozenset(p for i, p in enumerate(pairs) if bits >> i & 1)
            if epistemic and not (
                    all((w, w) in rel for w in range(n))
                    and all((v, w) in rel for (w, v) in rel)
                    and all((w, u) in rel for (w, v) in rel
                            for (v2, u) in rel if v2 == v)):
                continue
            relations.append(rel)
        seen, orbits = set(), 0
        for combo in itertools.product(relations, repeat=k):
            if combo in seen:
                continue
            orbits += 1
            for perm in itertools.permutations(range(n)):
                moved = [frozenset((perm[w], perm[v]) for (w, v) in rel)
                         for rel in combo]
                seen.update(itertools.permutations(moved))
        return orbits

    @pytest.mark.parametrize("n, k, epistemic, expected", [
        (3, 3, True, 14), (4, 3, True, 79),
        (1, 2, True, None), (2, 3, True, None), (3, 2, True, None),
        (1, 1, False, None), (1, 2, False, None), (2, 1, False, None),
        (2, 2, False, None),
    ])
    def test_count_equals_orbit_count(self, n, k, epistemic, expected):
        reps = self._tuples(modelsearch._Frames(n, epistemic), k)
        assert reps == sorted(set(reps))
        orbits = self._orbit_count(n, k, epistemic)
        assert len(reps) == orbits
        assert expected is None or orbits == expected

    @staticmethod
    def _tuples(frames, k):
        """The rels of frames.tuples(k), asked for as the search asks: after
        every smaller agent count, each to the end."""
        for smaller in range(1, k):
            list(frames.tuples(smaller))
        return [rels for rels, _ in frames.tuples(k)]

    @staticmethod
    def _orbit_minima(n, k, epistemic):
        """The k-tuples of pool indices that are the least member of their
        orbit, in lexicographic order, by brute force: every world
        permutation applied to the relations as sets of pairs, and every
        order of the agents."""
        pool = modelsearch._relation_pool(n, epistemic)
        pairs = [frozenset((w, v) for w, succ in enumerate(rel) for v in succ)
                 for rel in pool]
        index = {rel: i for i, rel in enumerate(pairs)}
        minima = []
        for combo in itertools.combinations_with_replacement(range(len(pool)), k):
            orbit = set()
            for perm in itertools.permutations(range(n)):
                moved = [index[frozenset((perm[w], perm[v]) for w, v in pairs[r])]
                         for r in combo]
                orbit.update(itertools.permutations(moved))
            if combo == min(orbit):
                minima.append(combo)
        return minima

    @pytest.mark.parametrize("n, k, epistemic", [
        *[(n, k, True) for n in range(1, 5) for k in range(1, 4)],
        *[(n, k, False) for n in (1, 2) for k in (1, 2)],
    ])
    def test_representatives_are_the_orbit_minima(self, n, k, epistemic):
        frames = modelsearch._Frames(n, epistemic)
        minima = self._orbit_minima(n, k, epistemic)
        # asked for after k - 1, it extends that list, and asked for again
        # it yields the list it kept
        assert self._tuples(frames, k) == minima
        entries = list(frames.tuples(k))
        assert [rels for rels, _ in entries] == minima
        for rels, succ in entries:
            assert succ == tuple(frames.pool[r] for r in rels)

    @pytest.mark.parametrize("search, text, n, k", [
        (find_countermodel, "K{?x} P(?y) -> K{?y} P(?y)", 2, 2),
        (find_witness, "K{?x} P(?z) & K{?y} P(?z) & ~K{?x} K{?y} P(?z)", 3, 2),
    ])
    def test_early_hit_keeps_the_table(self, search, text, n, k):
        # The search stops inside block (n, k) at its first hit; the tuples
        # it did not reach stay unbuilt, and the next search that asks for
        # them gets every one, in order.
        modelsearch._frames.cache_clear()
        pointed = search(parse_formula(text), EPISTEMIC33).pointed
        assert (len(pointed.model.worlds), len(pointed.model.agents)) == (n, k)
        frames = modelsearch._frames(n, True)
        assert len(frames.done) == k
        assert [rels for rels, _ in frames.tuples(k)] == \
            self._orbit_minima(n, k, True)
        assert len(frames.done) == k + 1

    def test_searches_share_one_table(self):
        # valid, and of modal depth 2 after the fold: every world count is
        # scanned
        modelsearch._frames.cache_clear()
        phi = parse_formula("K{?x} K{?y} P(?x) -> K{?y} P(?x)")
        assert find_countermodel(phi, EPISTEMIC32) == NoCountermodelUpTo(EPISTEMIC32)
        tables = [modelsearch._frames(n, True) for n in (1, 2, 3)]
        built = modelsearch._frames.cache_info().misses
        assert built == 3
        assert find_countermodel(phi, EPISTEMIC32) == NoCountermodelUpTo(EPISTEMIC32)
        assert modelsearch._frames.cache_info().misses == built
        assert all(modelsearch._frames(n, True) is frames
                   for n, frames in zip((1, 2, 3), tables))

    @pytest.mark.parametrize("n, k", [(2, 2), (3, 1)])
    def test_arbitrary_frames_are_not_kept(self, n, k):
        # valid on every frame and scanned through every world count; the
        # arbitrary-frame tables live as long as the search
        modelsearch._frames.cache_clear()
        phi = parse_formula("K{?x} (P(?y) & P(?z)) -> K{?x} P(?y)")
        arbitrary, epistemic = SearchBounds(n, k, False), SearchBounds(n, k, True)
        assert find_countermodel(phi, arbitrary) == NoCountermodelUpTo(arbitrary)
        assert modelsearch._frames.cache_info().currsize == 0
        assert find_countermodel(phi, epistemic) == NoCountermodelUpTo(epistemic)
        assert modelsearch._frames.cache_info().currsize == n


# Targets that fold in the 200 seeded trials of each frame class; 255 needs
# the rule for K{t} false on epistemic frames (without it, 245 fold) and the
# introspection rules under a variable index (without them, 253 fold).
FOLDED_AT_LEAST = {False: 170, True: 255}


class TestCompile:
    def test_every_node_class_has_a_rule(self):
        # A new node class fails here, not with a KeyError deep in a scan.
        classes = set(typing.get_args(syntax.Formula))
        assert set(modelsearch._KERNELS) == classes
        assert set(semantics._RULES) == classes
        assert set(translation._TRANSLATIONS) == classes

    def test_not_a_formula(self):
        target = modelsearch._target(parse_formula("?x = ?x"), False, True)
        shape = modelsearch._shape(1, 1, *target.key, modelsearch._LANES)
        for thing in ("P(a)", 5, Var("x"), Not(5), And(Top(), Name("a"))):
            with pytest.raises(TypeError, match="not a formula"):
                modelsearch._compile(thing, shape, target, {})


class TestShapes:
    @staticmethod
    def _blocks(seed, count):
        """count seeded (target, n, k) blocks over few symbols, so that
        many share a shape under different symbols."""
        rng = random.Random(seed)
        for _ in range(count):
            preds = {sym: rng.randrange(3) for sym in rng.sample("PQRS", rng.randint(1, 2))}
            phi = random_formula(rng, rng.sample("xyzw", rng.randint(1, 2)),
                                 rng.sample("abc", rng.randrange(3)), preds, depth=2)
            yield modelsearch._target(phi, False, True), rng.randint(1, 2), rng.randint(1, 2)

    def test_shared_shapes_bind_their_own_symbols(self):
        # A shape read from the cache for a target over other symbols
        # equals, field for field, one built uncached for this target.
        modelsearch._shape.cache_clear()
        first, renamed = {}, 0
        for target, n, k in self._blocks(2020, 300):
            hits = modelsearch._shape.cache_info().hits
            shape = modelsearch._shape(n, k, *target.key, modelsearch._LANES)
            fresh = modelsearch._shape.__wrapped__(n, k, *target.key, modelsearch._LANES)
            assert vars(shape) == vars(fresh)
            symbols = (target.pred_pos, target.name_pos, target.var_pos)
            if modelsearch._shape.cache_info().hits > hits:
                renamed += first[n, k, target.key] != symbols
            first.setdefault((n, k, target.key), symbols)
        assert renamed >= 50

    def test_renamed_search_hits_the_cache(self):
        phi = parse_formula("K{a} P(?x, b) -> K{a} K{b} P(?x, b)")
        renamed = parse_formula("K{d} Q(?y, c) -> K{d} K{c} Q(?y, c)")
        assert isinstance(find_countermodel(phi, EPISTEMIC33), Countermodel)
        before = modelsearch._shape.cache_info()
        assert isinstance(find_countermodel(renamed, EPISTEMIC33), Countermodel)
        after = modelsearch._shape.cache_info()
        assert after.misses == before.misses
        assert after.hits > before.hits

    def test_cache_is_bounded(self):
        modelsearch._shape.cache_clear()
        for m in range(modelsearch._SHAPES + 10):
            phi = functools.reduce(And, [Pred(f"P{i}", ()) for i in range(m)], Top())
            target = modelsearch._target(phi, False, True)
            modelsearch._shape(1, 1, *target.key, modelsearch._LANES)
        info = modelsearch._shape.cache_info()
        assert info.misses == modelsearch._SHAPES + 10
        assert info.currsize == modelsearch._SHAPES

    def test_lane_cap_is_part_of_the_key(self, monkeypatch):
        # and every block of a search reads the cap in force
        phi = parse_formula("P(a) & ~P(b) & K{a} P(?x)")
        target = modelsearch._target(phi, False, True)
        assert modelsearch._shape(3, 2, *target.key, modelsearch._LANES).lanes > 5
        monkeypatch.setattr(modelsearch, "_LANES", 5)
        assert modelsearch._shape(3, 2, *target.key, modelsearch._LANES).lanes <= 5
        cached, caps = modelsearch._shape, []
        monkeypatch.setattr(modelsearch, "_shape",
                            lambda *key: caps.append(key[-1]) or cached(*key))
        assert isinstance(find_witness(phi, SearchBounds(3, 2, True)), Witness)
        assert caps and set(caps) == {5}

    def test_warm_tables_give_cold_first_hits(self):
        # Every search of the warm pass reads tables that earlier searches
        # built and used, under other symbols; a kernel that wrote to one
        # would move a first hit.
        rng = random.Random(4242)
        cases = [(random_formula(rng, ("x", "y"), ("a", "b"), {"P": 1, "Q": 2},
                                 depth=3), bounds, target)
                 for bounds in (EPISTEMIC22, ARBITRARY22) for target in (False, True)
                 for _ in range(40)]
        cold = []
        for phi, bounds, target in cases:
            modelsearch._shape.cache_clear()
            modelsearch._groups.cache_clear()
            cold.append(_first_point(phi, bounds, target))
        for _ in range(2):
            assert [_first_point(*case) for case in cases] == cold
        assert sum(hit is not None for hit in cold) >= 80


class TestChunkStage:
    @staticmethod
    def _spy(monkeypatch):
        """Per block scanned, [tuples visited, its chunk count, the chunk
        index of each digit computation]."""
        blocks, scan, digits = [], modelsearch._scan_block, modelsearch._Shape.chunk_digits

        def scan_spy(target, n, k, tuples):
            blocks.append(block := [0, None, []])

            def visited():
                for item in tuples:
                    block[0] += 1
                    yield item
            return scan(target, n, k, visited())

        def digits_spy(shape, chunk):
            blocks[-1][1:] = shape.chunks, blocks[-1][2] + [chunk]
            return digits(shape, chunk)
        monkeypatch.setattr(modelsearch, "_scan_block", scan_spy)
        monkeypatch.setattr(modelsearch._Shape, "chunk_digits", digits_spy)
        return blocks

    def test_single_chunk_block_stages_once(self, monkeypatch):
        # the 26 validity-table searches at S5 3/3 scan 134 blocks of one
        # chunk over 337 relation tuples: one chunk stage per block
        blocks = self._spy(monkeypatch)
        for entry in VALIDITY_TABLE:
            for text in entry["formulas"]:
                find_countermodel(parse_formula(text), EPISTEMIC33)
        assert blocks and all(chunks == 1 and staged == [0] for _, chunks, staged in blocks)
        assert sum(tuples for tuples, _, _ in blocks) > 2 * len(blocks)

    def test_multi_chunk_block_stages_per_tuple_and_chunk(self, monkeypatch):
        monkeypatch.setattr(modelsearch, "_LANES", 4)
        blocks = self._spy(monkeypatch)
        for entry in VALIDITY_TABLE:
            for text in entry["formulas"]:
                find_countermodel(parse_formula(text), EPISTEMIC22)
        several = 0
        for tuples, chunks, staged in blocks:
            if chunks == 1:
                assert staged == [0]
                continue
            # every (tuple, chunk) visited, in scan order, up to a hit in the last tuple
            visits = [chunk for _ in range(tuples) for chunk in range(chunks)]
            assert staged == visits[:len(staged)]
            assert len(staged) > (tuples - 1) * chunks
            several += tuples > 1
        assert several


class TestFold:
    @pytest.mark.parametrize("text, want_false", [
        # formulas 3-5 and 7 of ROADMAP item 1, searched for a countermodel
        ("K{?y} (true & true) | K{?y} Q(?y, ?x)", True),
        ("K{a} (false & P(b) -> P(?x) & Q(b, a))", True),
        ("(~P(b) <-> Q(?y, a)) -> K{?x} (false -> P(?y))", True),
        ("K{b} (Q(a, b) -> Q(b, ?x)) -> ~(false <-> true)", True),
        # and a conjunction with false, searched for a witness
        ("(K{a} (a = a) <-> ~P(?x)) & (false & (false -> Q(?y, a)))", False),
        # the slow formulas of the seeded hard samples (seeds 2026, 2027):
        # t = t is true, and on epistemic frames K{t} false is false
        ("K{b} (b = ?x & false) -> K{?x} Q(?x, ?x)", True),
        ("K{b} K{a} (Q(?x, ?x) | ?y = ?y)", True),
        ("(Q(a, ?y) -> P(b)) & K{a} false -> "
         "[?y := a] Q(b, ?x) & (P(?y) -> b = ?x)", True),
        ("Q(a, ?x) | (K{b} false -> P(?x) & P(b))", True),
        # and of seed 2029: a connective joins one node to itself
        ("(K{?x} P(b) <-> true -> false) -> "
         "(Q(?x, a) -> Q(?x, a) <-> true & true)", True),
        ("~Q(a, a) & K{b} P(?x) | (false -> Q(?x, b)) & (P(a) <-> P(a))", True),
        # S5 introspection under a variable index: the two table rows the
        # exhaust benchmark also searches at 4/3, and the same with a binary
        # predicate and a name (about 1.3 minutes at 3/3 unfolded)
        ("K{?x} P(?x) -> K{?x} K{?x} P(?x)", True),
        ("~K{?x} P(?x) -> K{?x} ~K{?x} P(?x)", True),
        ("K{?x} Q(?x, a) -> K{?x} K{?x} Q(?x, a)", True),
        ("~K{?x} Q(?x, a) -> K{?x} ~K{?x} Q(?x, a)", True),
    ])
    def test_constant_targets_answer_at_once(self, text, want_false,
                                             monkeypatch):
        def no_scan(*args):
            raise AssertionError("a block was scanned")
        monkeypatch.setattr(modelsearch, "_scan_block", no_scan)
        phi = parse_formula(text)
        assert modelsearch._target(phi, want_false, True).formula is Bot()
        search = find_countermodel if want_false else find_witness
        negative = NoCountermodelUpTo if want_false else UnsatisfiableUpTo
        for bounds in (EPISTEMIC33, SearchBounds(4, 3, True)):
            assert search(phi, bounds) == negative(bounds)

    @pytest.mark.parametrize("text, folded, worlds", [
        ("K{?x} K{?x} P(?x)", "K{?x} P(?x)", 2),
        ("K{?x} ~K{?x} P(a)", "~K{?x} P(a)", 2),
        ("K{?x} K{?x} K{?x} ~K{?x} Q(?x, ?y)", "~K{?x} Q(?x, ?y)", 2),
        # the body is folded first: here psi | psi is psi
        ("K{?y} (K{?y} P(a) | K{?y} P(a)) & P(?x)", "K{?y} P(a) & P(?x)", 2),
        # under a binder of another variable, and through one of ?x
        ("[?y := a] K{?x} ~K{?x} P(?y)", "[?y := a] ~K{?x} P(?y)", 2),
        ("K{?x} [?x := a] K{?x} K{?x} P(?x)", "K{?x} [?x := a] K{?x} P(?x)",
         math.inf),
    ])
    def test_introspection_folds_under_a_variable(self, text, folded, worlds):
        # on epistemic frames, K{?x} K{?x} psi is K{?x} psi and
        # K{?x} ~K{?x} psi is ~K{?x} psi
        phi = parse_formula(text)
        target = modelsearch._target(phi, False, True)
        assert target.formula is parse_formula(folded)
        assert target.worlds == worlds
        assert modelsearch._target(phi, True, True).formula is Not(target.formula)

    @pytest.mark.parametrize("text", [
        "K{a} K{a} P(a)",                   # a name is read at each world
        "K{a} ~K{a} P(?x)",
        "K{?x} K{?y} P(?x)",                # another variable
        "K{?x} ~K{?y} P(?x)",
        "K{?x} [?x := a] K{?x} P(?x)",      # a binder in between
        "K{?x} [?y := ?x] ~K{?x} P(?y)",
        "K{?x} ~~K{?x} P(?x)",
        "K{?x} (K{?x} P(?x) & P(a))",
    ])
    def test_introspection_is_kept_elsewhere(self, text):
        phi = parse_formula(text)
        for epistemic in (True, False):
            assert modelsearch._target(phi, False, epistemic).formula is phi
            assert modelsearch._target(phi, True, epistemic).formula is Not(phi)

    @pytest.mark.parametrize("text", [
        "K{?x} K{?x} P(?x)", "K{?x} ~K{?x} P(?x)", "K{?x} K{?x} K{?x} P(a)",
        "~K{?x} P(?x) -> K{?x} ~K{?x} P(?x)",
    ])
    def test_introspection_is_kept_on_arbitrary_frames(self, text):
        # without reflexivity, transitivity and euclideanness K{?x} K{?x} psi
        # and K{?x} psi differ, even under a variable index
        phi = parse_formula(text)
        assert modelsearch._target(phi, False, False).formula is phi
        assert modelsearch._target(phi, True, False).formula is Not(phi)
        assert modelsearch._target(phi, False, False).worlds == math.inf

    def test_unfoldable_node_is_kept(self):
        # on arbitrary frames K{a} false is true at a world without successors
        phi = parse_formula("K{a} false | P(a)")
        assert modelsearch._target(phi, False, False).formula is phi
        assert modelsearch._target(phi, True, False).formula is Not(phi)

    @staticmethod
    def _seeded_trials():
        """400 seeded (formula, model, assignment, epistemic) trials, the
        models alternately of arbitrary and of epistemic frames."""
        rng = random.Random(1805)
        sig = Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))
        for trial in range(400):
            phi = random_formula(rng, ("x", "y"), ("a", "b"), {"P": 1, "Q": 2},
                                 depth=3 + trial % 2)
            epistemic = bool(trial % 2)
            sample = random_epistemic_model if epistemic else random_model
            model = sample(rng, sig, 3, 3)
            yield phi, model, random_sigma(rng, ("x", "y"), model), epistemic

    @pytest.mark.parametrize("epistemic", [False, True])
    def test_folded_target_keeps_its_value(self, epistemic):
        # naive_eval, not the library evaluator, on random models of the
        # frame class the target is folded for, every world and a random
        # assignment
        folded = 0
        for phi, model, sigma, frames in self._seeded_trials():
            if frames != epistemic:
                continue
            doc = model_to_dict(model)
            for want_false in (False, True):
                target = Not(phi) if want_false else phi
                formula = modelsearch._target(phi, want_false, epistemic).formula
                folded += formula is not target
                for world in model.worlds:
                    assert naive_eval(doc, world, sigma, formula) == \
                        naive_eval(doc, world, sigma, target), print_formula(phi)
        assert folded >= FOLDED_AT_LEAST[epistemic]

    @pytest.mark.parametrize("epistemic", [False, True])
    def test_idempotent_connectives_fold_to_their_child(self, epistemic):
        # psi & psi and psi | psi become psi, with psi's world cap and
        # hoisted subtrees; naive_eval keeps their value in context
        x = Var("x")
        for phi, model, sigma, frames in self._seeded_trials():
            if frames != epistemic:
                continue
            doc = model_to_dict(model)
            for op in (And, Or):
                for outer in (op(phi, phi), Implies(Knows(x, op(phi, phi)), phi)):
                    for want_false in (False, True):
                        target = Not(outer) if want_false else outer
                        folded = modelsearch._target(outer, want_false, epistemic)
                        for world in model.worlds:
                            assert naive_eval(doc, world, sigma, folded.formula) == \
                                naive_eval(doc, world, sigma, target), print_formula(outer)
                alone = modelsearch._target(phi, False, epistemic)
                same = modelsearch._target(op(phi, phi), False, epistemic)
                assert same.formula is alone.formula
                assert same.worlds == alone.worlds
                assert set(same.hoisted) == set(alone.hoisted)

    def test_target_records_what_the_scan_reads(self):
        # _compile hoists exactly the maximal K-free subtrees, the target
        # binds every variable, and the world cap counts the K occurrences
        # of a target of modal depth at most 1
        def has_k(f):
            return isinstance(f, Knows) or any(map(has_k, children(f)))

        def modal_depth(f):
            depth = max(map(modal_depth, children(f)), default=0)
            return depth + isinstance(f, Knows)

        def k_count(f):
            return isinstance(f, Knows) + sum(map(k_count, children(f)))

        def maximal_k_free(f):
            if not has_k(f):
                return {f}
            return set().union(*(maximal_k_free(kid) for kid in children(f)))

        def k_nodes(f):
            below = set().union(*map(k_nodes, children(f)))
            return below | {f} if isinstance(f, Knows) else below

        hoisting = capped = 0
        for phi, _, _, epistemic in self._seeded_trials():
            for want_false in (False, True):
                target = modelsearch._target(phi, want_false, epistemic)
                depth = modal_depth(target.formula)
                assert maximal_k_free(target.formula) == set(target.hoisted)
                assert set(target.support) == k_nodes(target.formula)
                assert not any(map(has_k, target.hoisted))
                assert target.worlds == (0 if target.formula is Bot()
                                         else 1 + k_count(target.formula)
                                         if depth <= 1 else math.inf)
                assert set(target.var_pos) == all_vars(phi)
                assert target.free == free_vars(phi)
                hoisting += depth > 0
                capped += 1 < target.worlds < math.inf
        assert hoisting >= 200
        assert capped >= 200

    @staticmethod
    def _walk_cases():
        """2,000 seeded formulas over ?x ?y ?z, a b and P/1 Q/2 of depth 1-5,
        each with fewer symbols now and then."""
        rng = random.Random(2718)
        for _ in range(2000):
            yield random_formula(rng, rng.sample(("x", "y", "z"), rng.randint(1, 3)),
                                 rng.sample(("a", "b"), rng.randint(0, 2)),
                                 {"P": 1, "Q": 2}, depth=rng.randint(1, 5))

    def test_one_walk_reads_what_the_reference_reads(self):
        # the typed walk against the generic walk and formula_signature
        folded = 0
        for phi in self._walk_cases():
            for want_false, epistemic in itertools.product((False, True), repeat=2):
                target = modelsearch._target(phi, want_false, epistemic)
                reference = reference_target(phi, want_false, epistemic)
                assert {field: getattr(target, field) for field in reference} == reference, \
                    print_formula(phi)
                folded += target.formula is not (Not(phi) if want_false else phi)
        assert folded >= 2000

    def test_supports_are_the_free_variables(self):
        # each kept K node's support is the positions of its free variables
        sizes = set()
        for phi in self._walk_cases():
            for want_false, epistemic in itertools.product((False, True), repeat=2):
                target = modelsearch._target(phi, want_false, epistemic)
                for node, support in target.support.items():
                    assert support == tuple(sorted(target.var_pos[v] for v in free_vars(node)))
                    sizes.add((len(support), len(target.var_pos)))
        assert {(0, 3), (1, 3), (2, 3), (3, 3), (1, 2)} <= sizes

    def test_search_walks_its_target_once(self, monkeypatch):
        # one typed walk reads the target: no syntax walker runs before
        # the first block is scanned
        walkers = {"formula_signature", "_walk_signature", "_collect", "children",
                   "terms_of", "rebuild", "subformulas", "free_vars", "all_vars"}
        calls, scan = [], modelsearch._scan_block

        def spy(*args):
            calls.append("block")
            return scan(*args)

        def profile(frame, event, arg):
            code = frame.f_code
            if event != "call":
                return
            if code is modelsearch._target.__code__:
                calls.append("_target")
            elif code.co_filename == syntax.__file__ and code.co_name in walkers:
                calls.append(code.co_name)
        monkeypatch.setattr(modelsearch, "_scan_block", spy)
        # symbols no other test uses, so that no signature is remembered
        phi = parse_formula("[?x27 := ?y27] K{a27} P27(?x27) -> K{a27} [?x27 := ?y27] P27(?x27)")
        sys.setprofile(profile)
        try:
            verdict = find_countermodel(phi, EPISTEMIC33)
        finally:
            sys.setprofile(None)
        assert verdict == NoCountermodelUpTo(EPISTEMIC33)
        assert calls[:calls.index("block")] == ["_target"]


class TestFindWitness:
    def test_anonymous_self(self):
        phi = Not(knows_who(Name("a"), "a"))
        verdict = find_witness(phi, EPISTEMIC33)
        assert isinstance(verdict, Witness)
        assert len(verdict.pointed.model.worlds) >= 2
        pointed = verdict.pointed
        assert eval_formula(pointed.model, pointed.world, pointed.sigma, phi)

    def test_two_names_one_bearer(self):
        from elas.suites import corpus_formulas
        phi = corpus_formulas()["vi-two-names"]
        verdict = find_witness(phi, EPISTEMIC33)
        assert isinstance(verdict, Witness)

    def test_contradiction(self):
        phi = parse_formula("P(a) & ~P(a)")
        assert isinstance(find_witness(phi, EPISTEMIC33), UnsatisfiableUpTo)
        assert isinstance(find_witness(Bot(), EPISTEMIC22), UnsatisfiableUpTo)


class TestElDistinguishes:
    def setup_method(self):
        m1, m2 = separation_models()
        self.p1 = PointedModel(m1, "s1", {"x": "i"})
        self.p2 = PointedModel(m2, "s1", {"x": "i"})

    def test_no_binder_free_distinguisher(self):
        assert el_distinguishes(self.p1, self.p2, 9, language="el") is None

    def test_binder_formula_distinguishes(self):
        found = el_distinguishes(self.p1, self.p2, 9, language="elas")
        assert found is not None
        assert not is_el_fragment(found)
        assert node_count(found) <= 9
        v1 = eval_formula(self.p1.model, "s1", {"x": "i"}, found)
        v2 = eval_formula(self.p2.model, "s1", {"x": "i"}, found)
        assert v1 != v2

    def test_identical_pointed_models(self):
        assert el_distinguishes(self.p1, self.p1, 9, language="el") is None
        assert el_distinguishes(self.p1, self.p1, 9, language="elas") is None

    def test_returned_formula_is_minimal(self):
        found = el_distinguishes(self.p1, self.p2, 9, language="elas")
        smaller = el_distinguishes(self.p1, self.p2,
                                   node_count(found) - 1, language="elas")
        assert smaller is None

    def test_easy_el_distinction(self):
        m1, m2 = separation_models()
        # move the evaluation point: at s2 the models differ on P(?x) with x -> j
        p1 = PointedModel(m1, "s2", {"x": "j"})
        p2 = PointedModel(m2, "s2", {"x": "j"})
        found = el_distinguishes(p1, p2, 9, language="el")
        assert found is not None and is_el_fragment(found)
        assert print_formula(found) == "P(?x)"

    def test_signature_mismatch(self):
        other = PointedModel(self.p1.model, "s1", {"x": "i"})
        bad_sig = Signature({"Z": 1}, frozenset({"a"}))
        from elas.semantics import make_model
        foreign = make_model(("u",), ("g",), {"g": {("u", "u")}}, {},
                             {("a", "u"): "g"}, bad_sig)
        with pytest.raises(ValueError):
            el_distinguishes(self.p1, PointedModel(foreign, "u", {"x": "g"}), 5)

    def test_brute_force_agreement(self):
        # independent oracle: every formula up to 6 nodes over the shared
        # symbols agrees on both sides
        assert _brute_force_minimum(self.p1, self.p2, 6, binders=True) is None
        # consistent with the profile search: the smallest distinguisher has
        # 7 nodes and uses a binder
        found = el_distinguishes(self.p1, self.p2, 9, language="elas")
        assert node_count(found) == 7

    @pytest.mark.parametrize("seed", range(20))
    def test_minimal_on_seeded_pairs(self, seed):
        rng = random.Random(seed)
        p1 = _random_pointed(rng)
        p2 = _random_pointed(rng, like=p1)
        for language, binders in (("el", False), ("elas", True)):
            found = el_distinguishes(p1, p2, 6, language=language)
            expected = _brute_force_minimum(p1, p2, 6, binders)
            assert (found and node_count(found)) == expected, language


PAIR_SIG = Signature({"P": 1}, frozenset({"a"}))


def _random_pointed(rng, like=None):
    """A model over P/1 and the name a with two worlds, two agents and
    arbitrary relations, pointed at w1 with a value for ?x.  Given like,
    it agrees with like at w1 on P, a and ?x, so that no atom tells the
    two apart."""
    worlds, agents = ("w1", "w2"), ("i", "j")
    relations = {g: {(u, v) for u in worlds for v in worlds if rng.random() < 0.5}
                 for g in agents}
    rho = {("P", w): {(g,) for g in agents if rng.random() < 0.5} for w in worlds}
    eta = {("a", w): rng.choice(agents) for w in worlds}
    sigma = {"x": rng.choice(agents)}
    if like is not None:
        rho["P", "w1"] = like.model.rho_at("P", "w1")
        eta["a", "w1"] = like.model.eta["a", "w1"]
        sigma = like.sigma
    model = make_model(worlds, agents, relations, rho, eta, PAIR_SIG)
    return PointedModel(model, "w1", sigma)


def _formulas_by_size(max_size, binders):
    """Every formula over ?x, the name a and P/1 with at most max_size
    nodes, by node count, written out by hand."""
    pool = (Var("x"), Name("a"))
    by_size = {1: [Top(), Bot()]}
    for size in range(2, max_size + 1):
        out = []
        if size == 2:
            out += [Pred("P", (t,)) for t in pool]
        if size == 3:
            out += [Eq(s, t) for s in pool for t in pool]
        out += [Not(f) for f in by_size[size - 1]]
        for f in by_size.get(size - 2, ()):
            out += [Knows(t, f) for t in pool]
            if binders:
                out += [Assign("x", t, f) for t in pool]
        for ls in range(1, size - 1):
            for fl in by_size[ls]:
                for fr in by_size[size - 1 - ls]:
                    out += [And(fl, fr), Or(fl, fr), Implies(fl, fr), Iff(fl, fr)]
        by_size[size] = out
    return by_size


def _brute_force_minimum(p1, p2, max_size, binders):
    """Node count of the smallest formula that tells the pointed models
    apart, found by evaluating every formula on both sides, or None."""
    for size, formulas in _formulas_by_size(max_size, binders).items():
        for phi in formulas:
            if (eval_formula(p1.model, p1.world, p1.sigma, phi)
                    != eval_formula(p2.model, p2.world, p2.sigma, phi)):
                return size
    return None


class TestFastScanAgainstSlowScan:
    @staticmethod
    def _unreduced_first_point(phi, bounds, target):
        """First hit of the compiled scan over every relation tuple and
        world count, in canonical order: the scan that the orbit reduction
        and the world cap leave out.  _slow_first_point does not compile."""
        wanted = modelsearch._target(phi, not target, bounds.epistemic)
        for n in range(1, bounds.max_worlds + 1):
            pool = modelsearch._relation_pool(n, bounds.epistemic)
            for k in range(1, bounds.max_agents + 1):
                every = ((rels, tuple(pool[r] for r in rels))
                         for rels in itertools.product(range(len(pool)), repeat=k))
                pointed = modelsearch._scan_block(wanted, n, k, every)
                if pointed is not None:
                    return model_to_dict(pointed.model), pointed.world, pointed.sigma
        return None

    def _slow_first_point(self, phi, bounds, target):
        """First (model, world, sigma) in enumeration order where phi
        evaluates to target, via the plain generator and evaluator."""
        from elas.syntax import formula_signature
        sig = formula_signature(phi)
        sig = Signature(dict(sig.predicates), sig.names)
        fv = sorted(free_vars(phi))
        for model in enumerate_models(sig, bounds):
            for world in model.worlds:
                for combo in itertools.product(model.agents, repeat=len(fv)):
                    sigma = dict(zip(fv, combo))
                    if eval_formula(model, world, sigma, phi) is target:
                        return model_to_dict(model), world, sigma
        return None

    @pytest.mark.parametrize("text", [
        "?x = a -> K{b} ?x = a",
        "P(a) & K{a} P(a)",
        "Kh{a} ~P(?x)",
        "[?x := a] K{a} P(?x) -> P(a)",
        "K{?x} (P(?x) | P(a))",
    ])
    def test_first_countermodels_agree(self, text):
        phi = parse_formula(text)
        slow = self._slow_first_point(phi, EPISTEMIC22, target=False)
        verdict = find_countermodel(phi, EPISTEMIC22)
        fast = verdict.pointed if isinstance(verdict, Countermodel) else None
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert (model_to_dict(fast.model), fast.world, fast.sigma) == slow

    @pytest.mark.parametrize("text", [
        "P(a) & K{a} P(a)",
        "~[?w0 := a] K{a} (?w0 = a)",
        "K{?x} ~P(?x) & P(a)",
    ])
    def test_first_witnesses_agree(self, text):
        phi = parse_formula(text)
        slow = self._slow_first_point(phi, EPISTEMIC22, target=True)
        verdict = find_witness(phi, EPISTEMIC22)
        fast = verdict.pointed if isinstance(verdict, Witness) else None
        if slow is None:
            assert fast is None
        else:
            assert fast is not None
            assert (model_to_dict(fast.model), fast.world, fast.sigma) == slow

    @pytest.mark.parametrize("text, target, bounds, worlds", [
        # Modal depth 0: a hit lies in a one-world block or nowhere, and
        # the search stops after those blocks.
        ("[?x := a] P(?x) -> P(a)", False, EPISTEMIC32, 1),
        ("[?x := a] P(?x) & ~P(?y)", True, ARBITRARY22, 1),
        # Depth 1: the first hit has two worlds; on arbitrary frames only
        # one of them sees the other.
        ("?x = a -> K{b} ?x = a", False, EPISTEMIC32, 2),
        ("~K{?x} P(?y) & P(?y)", True, ARBITRARY22, 2),
        # Depth 2, no cap: on S5 the first hit has three worlds and its
        # world sees the third only in two steps.
        ("K{?x} P(?z) & K{?y} P(?z) & ~K{?x} K{?y} P(?z)", True, EPISTEMIC32,
         math.inf),
        ("~K{?x} P(?y) -> K{?x} ~K{?x} P(?y)", False, ARBITRARY22, math.inf),
    ])
    def test_pruned_first_hits_agree(self, text, target, bounds, worlds):
        phi = parse_formula(text)
        assert modelsearch._target(phi, not target, bounds.epistemic).worlds == worlds
        fast = _first_point(phi, bounds, target)
        assert fast == self._slow_first_point(phi, bounds, target)
        if worlds > 1:
            assert 1 < len(fast[0]["worlds"]) <= worlds

    @pytest.mark.parametrize("lanes", [1, 5, 64])
    @pytest.mark.parametrize("text, target", [
        ("a = b -> K{c} a = b", False),
        ("P(a) & K{b} ~P(c) & ~K{?x} P(?x)", True),
        ("K{a} P(?x) -> K{a} K{a} P(?x)", False),
        ("[?x := a] K{b} P(?x) -> K{b} P(a)", False),
        ("K{?x} ~P(?x) & P(a)", True),
        # constant subformulas, folded before the scan; K{a} false is not
        # constant on arbitrary frames
        ("K{a} false | P(a)", False),
        ("K{a} (false & P(b)) -> P(?x)", False),
        ("(false -> P(?x)) & ~K{a} P(a)", True),
        ("[?x := a] true -> K{b} (P(?x) | ~K{?x} true)", False),
        # name kernels: predicates over a variable and a name and over two
        # names, equality of two names and of a variable and a name, and a
        # binder over K{b} (unsatisfiable on S5, as the world is its own
        # successor)
        ("Q(?x, a) -> K{b} Q(a, ?x)", False),
        ("Q(a, b) -> K{c} Q(b, a)", False),
        ("a = b & ~K{a} (a = b)", True),
        ("?x = a & K{b} ~(?x = b)", True),
        ("[?x := a] K{b} ~(?x = a)", True),
    ])
    def test_first_hits_agree_across_chunks(self, text, target, lanes,
                                            monkeypatch):
        # A small lane cap splits the scan index into many chunks, and
        # with three names into chunks narrower than the eta digits.
        monkeypatch.setattr(modelsearch, "_LANES", lanes)
        phi = parse_formula(text)
        for bounds in (EPISTEMIC22, ARBITRARY22):
            fast = _first_point(phi, bounds, target)
            assert fast == self._slow_first_point(phi, bounds, target)

    _slow_points = {}

    @pytest.mark.parametrize("lanes", [None, 4])
    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("text", [
        # valid rows whose K nodes read fewer variables than the target binds
        "[?x := ?y] K{a} P(?x) -> K{a} [?x := ?y] P(?x)",
        "?x = a -> (K{?x} P(a) -> K{a} P(a))",
        "(?y = ?x) -> (K{?y} (a = ?y) <-> K{?x} (a = ?y))",
        "[?x := ?y] K{?z} P(?x) -> K{?z} [?x := ?y] P(?x)",
        # first hits whose assignment moves a variable K does not read
        "~(?x = ?y) -> K{?z} P(?x)",
        "~(?y = ?x) & ~K{a} P(?x)",
    ])
    def test_first_hits_where_k_reads_fewer_variables(self, text, target, lanes,
                                                      monkeypatch):
        # A K node computes its masks in one column per value of its free
        # variables and stores them in every column that agrees there.
        if lanes is not None:
            monkeypatch.setattr(modelsearch, "_LANES", lanes)
        phi = parse_formula(text)
        for bounds in (EPISTEMIC22, ARBITRARY22):
            key = text, bounds, target
            if key not in self._slow_points:
                self._slow_points[key] = self._slow_first_point(phi, bounds, target)
            assert _first_point(phi, bounds, target) == self._slow_points[key]

    @pytest.mark.parametrize("lanes", [1, 5, 64, 1 << 16])
    @pytest.mark.parametrize("text", [
        "true", "P(a) & Q(?x, b)", "a = b -> K{c} a = b", "R & P(a)",
    ])
    def test_layout_covers_the_index(self, text, lanes):
        target = modelsearch._target(parse_formula(text), False, True)
        for n, k in itertools.product(range(1, 5), range(1, 4)):
            shape = modelsearch._shape(n, k, *target.key, lanes)
            assert shape.lanes <= lanes
            assert shape.lanes * shape.chunks == \
                k ** shape.eta_digits * 2 ** shape.rho_bits

    @pytest.mark.parametrize("label, phi, target", SEARCH_CASES,
                             ids=[case[0] for case in SEARCH_CASES])
    def test_suite_formulas_epistemic(self, label, phi, target):
        fast = _first_point(phi, EPISTEMIC22, target)
        assert fast == self._slow_first_point(phi, EPISTEMIC22, target)

    @pytest.mark.parametrize("label, phi, target", SEARCH_CASES,
                             ids=[case[0] for case in SEARCH_CASES])
    def test_suite_formulas_arbitrary_frames(self, label, phi, target):
        fast = _first_point(phi, ARBITRARY22, target)
        assert fast == self._unreduced_first_point(phi, ARBITRARY22, target)

    @pytest.mark.parametrize("text, target, bounds", [
        # two free variables that must differ: 2 agents at 1 world
        ("~(?x = ?y)", True, SearchBounds(2, 3, True)),
        ("?x = ?y", False, ARBITRARY22),
        # and a name that differs from both: 3 agents at 1 world
        ("~(?x = ?y) & ~(?x = a) & ~(?y = a)", True, SearchBounds(2, 3, True)),
        # a name that moves between worlds: 2 agents at 2 worlds
        ("[?x := a] ~K{?x} ?x = a", True, SearchBounds(2, 3, True)),
        ("[?x := a] K{?x} ?x = a", False, SearchBounds(2, 3, True)),
        ("[?x := a] ~K{?x} ?x = a", True, ARBITRARY22),
        ("[?x := a] K{?x} ?x = a", False, ARBITRARY22),
    ])
    def test_first_hits_that_need_the_agent_cap(self, text, target, bounds):
        # The cap is exact: these first hits have exactly as many agents
        # as the free variables and the names at every world can denote.
        phi = parse_formula(text)
        slow = self._slow_first_point(phi, bounds, target)
        cap = modelsearch._agent_cap(
            modelsearch._target(phi, not target, bounds.epistemic),
            len(slow[0]["worlds"]))
        assert len(slow[0]["agents"]) == cap
        assert _first_point(phi, bounds, target) == slow

    @pytest.mark.parametrize("bounds", [EPISTEMIC22, ARBITRARY22])
    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("text", [
        "?a = a -> K{b} ?a = a",
        "[?a := b] P(?a, a) & ~P(a, ?a)",
        "?P = a & P(?P) & ~P(a)",
        "[?b := a] K{?b} (b = ?b)",
    ])
    def test_one_identifier_in_several_namespaces(self, text, target, bounds):
        # a variable, a name and a predicate symbol that share an
        # identifier are bound to positions apart
        phi = parse_formula(text)
        assert _first_point(phi, bounds, target) == \
            self._slow_first_point(phi, bounds, target)

    @pytest.mark.parametrize("text, caps", [
        # per world count scanned, the agent cap; the world cap is 1 + #K
        # at modal depth 1 and none at depth 2 (K{?y} under K{?x} does not
        # fold; K{?x} under K{?x} would, and then no block is scanned)
        ("K{?x} K{?y} P(?x) -> K{?y} P(?x)", (2, 2, 2)),
        ("K{a} P(a) -> P(a)", (1, 2)),
        ("?x = ?y -> K{a} ?x = ?y", (3, 3)),
    ])
    def test_blocks_stop_at_the_agent_cap(self, text, caps, monkeypatch):
        scanned = []
        scan = modelsearch._scan_block

        def spy(target, n, k, *rest):
            scanned.append((n, k))
            return scan(target, n, k, *rest)
        monkeypatch.setattr(modelsearch, "_scan_block", spy)
        verdict = find_countermodel(parse_formula(text), EPISTEMIC33)
        assert verdict == NoCountermodelUpTo(EPISTEMIC33)
        assert scanned == [(n, k) for n, cap in enumerate(caps, 1)
                           for k in range(1, cap + 1)]

    def test_world_cap_skips_the_three_world_blocks(self, monkeypatch):
        # W = 2.  Uncapped, each relation tuple of block (3, 3) scans 2^27
        # predicate interpretations, about 40 minutes in all.
        scan = modelsearch._scan_block

        def spy(target, n, k, *rest):
            assert n < 3, f"block ({n}, {k}) was scanned"
            return scan(target, n, k, *rest)
        monkeypatch.setattr(modelsearch, "_scan_block", spy)
        phi = parse_formula("K{a} Q(?x, b) -> Q(?x, b)")
        assert find_countermodel(phi, EPISTEMIC33) == NoCountermodelUpTo(EPISTEMIC33)

    @pytest.mark.parametrize("bounds", [SearchBounds(4, 2, True),
                                        SearchBounds(3, 2, False)])
    def test_world_cap_keeps_first_hits(self, bounds, monkeypatch):
        # Seeded targets of modal depth at most 1 whose world cap W lies
        # below the world bound, in both polarities.  The search stops at
        # W; without the cap it scans every world count.  Both give the
        # same first hit, or none, and _slow_first_point gives that hit.
        rng = random.Random(1977)
        x, y = Var("x"), Var("y")
        cases = []
        while len(cases) < 400:
            psi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=2)
            for phi, target in ((psi, False), (psi, True),
                                (And(psi, Not(Knows(x, psi))), True),
                                (Implies(Knows(x, psi), Knows(y, psi)), False)):
                cap = modelsearch._target(phi, not target, bounds.epistemic).worlds
                if 1 <= cap < bounds.max_worlds:
                    cases.append((phi, target))
        capped = [_first_point(phi, bounds, target) for phi, target in cases]
        real = modelsearch._target
        monkeypatch.setattr(modelsearch, "_target", lambda *args: dataclasses.replace(
            real(*args), worlds=math.inf))
        assert [_first_point(phi, bounds, target) for phi, target in cases] == capped
        for (phi, target), fast in zip(cases, capped):
            if fast is not None:
                assert fast == self._slow_first_point(phi, bounds, target)
        assert capped.count(None) >= 10

    @pytest.mark.parametrize("target", [False, True])
    @pytest.mark.parametrize("text", [
        "K{?x} false",
        "K{?x} false -> K{?y} false",
        "K{?x} ?x = ?y -> ?x = ?y",
        "K{?x} K{?y} false & ~K{?x} false",
        "K{?x} (P(?y) & K{?y} false)",
        "K{?x} P(?x) -> K{?x} K{?x} P(?x)",
        "~K{?x} P(?y) & K{?y} P(?x)",
        "[?x := ?y] K{?x} P(?x) <-> K{?y} P(?y)",
        "[?y := ?x] K{?x} ~P(?y) -> K{?y} ~K{?y} P(?x)",
        # first witnesses with two worlds, and a world without successors
        "~K{?x} false & K{?x} K{?x} false",
        "K{?x} P(?y) & ~K{?x} K{?x} P(?y)",
        "~(?x = ?y) & K{?x} K{?y} false & ~K{?x} false & ~K{?y} false",
    ])
    def test_variable_knows_on_arbitrary_frames(self, text, target):
        # K over a variable ANDs each group of worlds with one successor
        # set; a world without successors makes K true.
        phi = parse_formula(text)
        assert _first_point(phi, ARBITRARY22, target) == \
            self._slow_first_point(phi, ARBITRARY22, target)

    def test_folded_introspection_keeps_first_hits(self):
        # K{?x} K{?x} psi and K{?x} ~K{?x} psi inside random chi, psi chosen
        # so that psi & ~K{?x} psi has a hit: then the shapes below have
        # first hits with two worlds in one polarity.  Both polarities, at
        # S5 2/2 and 3/2, against the plain enumeration and evaluator.
        def introspects(f):
            if type(f) is Knows and type(f.agent) is Var:
                inner = f.body.body if type(f.body) is Not else f.body
                if type(inner) is Knows and inner.agent is f.agent:
                    return True
            return any(map(introspects, children(f)))

        rng = random.Random(2025)
        x = Var("x")
        hits = []
        for i in range(40):
            while True:
                psi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=2)
                if self._slow_first_point(And(psi, Not(Knows(x, psi))),
                                          SearchBounds(2, 1, True), True):
                    break
            chi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=1)
            pos, neg = Knows(x, Knows(x, psi)), Knows(x, Not(Knows(x, psi)))
            phi = (Implies(psi, pos), And(psi, neg), Implies(chi, Implies(psi, pos)),
                   And(Or(chi, psi), And(psi, neg)))[i % 4]
            assert introspects(phi)
            for target in (False, True):
                assert not introspects(modelsearch._target(phi, not target, True).formula)
                for bounds in (EPISTEMIC22, EPISTEMIC32):
                    fast = _first_point(phi, bounds, target)
                    assert fast == self._slow_first_point(phi, bounds, target), \
                        print_formula(phi)
                    hits.append(fast)
        assert sum(hit is not None and len(hit[0]["worlds"]) >= 2 for hit in hits) >= 50
        assert hits.count(None) >= 4

    def test_seeded_random_formulas(self):
        # The two modal shapes around each random formula push its first
        # hits out of the one-world blocks, where there is nothing to reduce.
        rng = random.Random(1805)
        bounds = SearchBounds(3, 2, True)
        x, y = Var("x"), Var("y")
        for _ in range(30):
            psi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=3)
            for phi, target in ((And(psi, Not(Knows(x, psi))), True),
                                (Implies(Knows(x, psi), Knows(y, psi)), False)):
                fast = _first_point(phi, bounds, target)
                assert fast == self._unreduced_first_point(phi, bounds, target)
                if fast is not None:
                    assert fast == self._slow_first_point(phi, bounds, target)


# Seeded searches whose first hits are pinned by digest: (seed, variables,
# names, predicates, formula depths, formula count, shaped).  Each formula
# is searched for a countermodel and a witness; a shaped family also
# searches the two modal shapes of test_seeded_random_formulas, which push
# first hits out of the one-world blocks.  The second family has two names
# and a binary predicate, and many of its formulas mention fewer symbols
# than that, so its space has agent counts that no term can name.
DIGEST_FAMILIES = {
    "P-a": (12, ("x", "y"), ("a",), {"P": 1}, (2, 3, 4), 150, True),
    "PQ-ab": (13, ("x", "y"), ("a", "b"), {"P": 1, "Q": 2}, (2, 3), 50, False),
}

FIRST_HIT_DIGESTS = {
    ("P-a", EPISTEMIC32):
        "071e3fe192e49f14631069ae04d19e5c8fed5afeba279218e97a20ad3a4685d9",
    ("P-a", EPISTEMIC33):
        "a8fb208e7e23777bd17c2a0e36bbbad73e311dccc91bdddcabab12c19a92db71",
    ("P-a", ARBITRARY22):
        "dac854d1aa7d5d84964921aa51750db6339b003a7afe8da34daf29fb436f59da",
    ("PQ-ab", SearchBounds(2, 3, True)):
        "403faa766faad589e310c3518a3c80cab4290b45b9784c9c8e22503a4af299b5",
    ("PQ-ab", ARBITRARY22):
        "003e49eb28ef81a745b2cae14cc20396cee4d2ee035cc202cbda85e9004a4f00",
}


class TestFirstHitDigest:
    @staticmethod
    def _digest(family, bounds):
        """sha256 over the first hit of every search of the family, each as
        (model_to_dict(model), world, sorted sigma items), or None."""
        seed, variables, names, preds, depths, count, shaped = DIGEST_FAMILIES[family]
        rng = random.Random(seed)
        x, y = Var("x"), Var("y")
        hits = []
        for i in range(count):
            psi = random_formula(rng, variables, names, preds,
                                 depth=depths[i % len(depths)])
            searches = [(psi, False), (psi, True)]
            if shaped:
                searches += [(And(psi, Not(Knows(x, psi))), True),
                             (Implies(Knows(x, psi), Knows(y, psi)), False)]
            for phi, target in searches:
                point = _first_point(phi, bounds, target)
                hits.append(point and (point[0], point[1], sorted(point[2].items())))
        return hashlib.sha256(json.dumps(hits).encode()).hexdigest()

    @pytest.mark.parametrize("family, bounds", list(FIRST_HIT_DIGESTS))
    def test_first_hits_are_pinned(self, family, bounds):
        assert self._digest(family, bounds) == FIRST_HIT_DIGESTS[family, bounds]
