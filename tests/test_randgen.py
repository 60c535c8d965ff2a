"""The seeded samplers: their draws are pinned by digest, and the models
they build are the ones make_model builds from the same containers."""

import hashlib
import json
import random

from elas.randgen import random_epistemic_model, random_formula, random_model
from elas.semantics import make_model, model_to_dict
from elas.syntax import Signature, print_formula

# sha256 of the draws below together with the generator's state after each
# one; a change to the samplers keeps every draw and the order they are made in
FORMULA_DIGEST = "6138f037cf54df7432a115c18d15200508551cbe51a44d7693031fd5abf49477"
MODEL_DIGEST = "d42968dfbf4c46623767b8d9b32cefdbcc104a8107503d0c7ceb53bdfd8b08c2"


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPinnedDraws:
    def test_formulas(self):
        rng = random.Random(1805)
        lines = []
        for allow_assign in (True, False):
            for depth in range(5):
                for _ in range(200):
                    phi = random_formula(rng, ("x", "y", "z"), ("a", "b"),
                                         {"P": 1, "Q": 2, "R": 0}, depth,
                                         allow_assign)
                    lines.append(print_formula(phi))
                    lines.append(repr(rng.getstate()))
        assert _sha(lines) == FORMULA_DIGEST

    def test_models(self):
        rng = random.Random(3852)
        sigs = (Signature({"P": 1, "Q": 2}, frozenset({"a", "b"})),
                Signature({"R": 0}, frozenset({"c"})),
                Signature({}, frozenset()))
        lines = []
        for sample in (random_epistemic_model, random_model):
            for sig in sigs:
                for bounds in ((1, 1), (3, 3), (4, 2), (11, 11)):
                    for _ in range(3 if bounds == (11, 11) else 40):
                        model = sample(rng, sig, *bounds)
                        lines.append(json.dumps(model_to_dict(model), sort_keys=True))
                        lines.append(repr(rng.getstate()))
        assert _sha(lines) == MODEL_DIGEST


def _rebuilt(m):
    """make_model over the model's own containers, as plain copies and with
    the worlds and agents out of order."""
    return make_model(m.worlds[::-1], m.agents[::-1],
                      {a: set(rel) for a, rel in m.relations.items()},
                      {key: set(tuples) for key, tuples in m.rho.items()},
                      dict(m.eta), m.signature)


class TestNormalModels:
    """The samplers build their models without make_model's copying; the
    result is the model make_model builds from the same containers."""

    SIGS = (Signature({"P": 1, "Q": 2}, frozenset({"a", "b"})),
            Signature({"R": 0}, frozenset({"c"})),
            Signature({}, frozenset()))

    def _assert_normal(self, m):
        again = _rebuilt(m)
        assert again == m and hash(again) == hash(m)
        assert again._succ == m._succ
        assert m.worlds == tuple(sorted(m.worlds))
        assert m.agents == tuple(sorted(m.agents))

    def test_seeded_draws(self):
        rng = random.Random(77)
        for sample in (random_epistemic_model, random_model):
            for sig in self.SIGS:
                for _ in range(60):
                    self._assert_normal(sample(rng, sig, 4, 3))

    def test_ten_and_more_worlds_and_agents(self):
        # "w10" < "w2": the labels are not drawn in sorted order
        rng = random.Random(11)
        for sample in (random_epistemic_model, random_model):
            for _ in range(3):
                m = sample(rng, Signature({}, frozenset()), 11, 11)
                assert len(m.worlds) >= 10 and len(m.agents) >= 10
                self._assert_normal(m)
