"""Renamed inputs keep their known verdicts on the whole catalogue."""

import random

import pytest

import gen
import oracle
import run
import tracing
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def modules():
    return run.import_elas()


@pytest.mark.parametrize("name", ["exhaust", "refute"])
def test_renamed_catalogue_keeps_verdicts(modules, name):
    workload = WORKLOADS[name]
    layers = tracing.Layers(modules)
    state = workload.setup(modules, layers, 0)
    ops = workload.round(state, layers, random.Random(1))
    assert ops
    for op in ops:
        op.check(op.run())


def test_renaming_is_injective_and_order_preserving(modules):
    phi = modules["syntax"].parse_formula(
        "[?x := b] K{?y} P(?x, a) -> K{?y} [?x := b] Q(?x)")
    r = gen.Renaming(random.Random(3), {"a", "b"}, {"x", "y"}, {"P": 2, "Q": 1})
    renamed = oracle.symbols(r.formula(phi))
    original = oracle.symbols(phi)
    for kind in ("names", "vars"):
        assert len(renamed[kind]) == len(original[kind])
        assert not renamed[kind] & original[kind]
        mapping = getattr(r, kind)
        assert sorted(mapping.values()) == [mapping[k] for k in sorted(mapping)]
    assert sorted(renamed["preds"]) == [r.preds[p] for p in sorted(original["preds"])]


def test_axiom_instances_cost_the_same_for_every_seed():
    profiles = {tuple((a, gen.profile(f)) for a, f in gen.axiom_instances(random.Random(s)))
                for s in range(5)}
    assert len(profiles) == 1
