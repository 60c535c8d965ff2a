import hashlib
import json

from elas.modelsearch import SearchBounds
from elas.suites import (
    VALIDITY_TABLE, corpus_suite, prop24_suite, soundness_suite,
    validity_table_suite,
)


class TestTableShape:
    def test_ten_plus_ten(self):
        valid = [e for e in VALIDITY_TABLE if e["expectation"] == "valid"]
        invalid = [e for e in VALIDITY_TABLE if e["expectation"] == "invalid"]
        assert len(valid) == 10
        assert len(invalid) == 10
        rows = {e["row"] for e in VALIDITY_TABLE}
        assert rows == {1, 2, 3, 4, 5}

    def test_spec_instances_present(self):
        texts = [f for e in VALIDITY_TABLE for f in e["formulas"]]
        assert "?x = a -> K{b} ?x = a" in texts
        assert "a = b -> K{c} a = b" in texts
        assert "[?x := b] K{a} P(?x) -> K{a} [?x := b] P(?x)" in texts
        assert "[?x := ?y] K{a} P(?x) -> K{a} [?x := ?y] P(?x)" in texts


class TestReportSchemas:
    def test_validity_table_record_keys(self):
        report = validity_table_suite(bounds=SearchBounds(2, 2, True),
                                      trials=50, seed=3)
        assert json.dumps(report)          # JSON-serialisable
        for entry in report["entries"]:
            assert {"id", "row", "expectation", "instances", "ok"} <= set(entry)
            for instance in entry["instances"]:
                assert {"formula", "expectation", "verdict",
                        "elapsed_ms", "ok"} <= set(instance)
                if instance["verdict"] == "countermodel":
                    assert "countermodel" in instance
                    assert "world" in instance["countermodel"]

    def test_prop24_schema(self):
        report = prop24_suite(max_size=7)
        assert json.dumps(report)
        assert report["el_distinguisher"] is None
        assert report["elas_distinguisher"] is not None
        assert report["ok"]

    def test_soundness_schema(self):
        report = soundness_suite(trials=150, seed=7)
        assert json.dumps(report)
        assert report["ok"]
        assert set(report["name_introspection_failures"]) == {"4x", "5x"}

    def test_corpus_schema(self):
        report = corpus_suite(bounds=SearchBounds(2, 2, True))
        assert json.dumps(report)
        assert len(report["witnesses"]) == 4
        assert len(report["reading_pairs"]) == 6
        for pair in report["reading_pairs"]:
            if pair["separated"]:
                values = list(pair["values"].values())
                assert values[0] != values[1]

    def test_determinism_given_seed(self):
        r1 = validity_table_suite(bounds=SearchBounds(2, 2, True),
                                  trials=25, seed=9)
        r2 = validity_table_suite(bounds=SearchBounds(2, 2, True),
                                  trials=25, seed=9)

        def drop_elapsed(rep):
            for entry in rep["entries"]:
                for inst in entry["instances"]:
                    inst.pop("elapsed_ms", None)
            return rep
        assert drop_elapsed(r1) == drop_elapsed(r2)

    def test_any_frames_trials_sample_arbitrary_frames(self):
        # one world hides every introspection countermodel from the search;
        # trials drawn from epistemic models would then pass all four
        report = validity_table_suite(SearchBounds(1, 3, False), trials=200, seed=0)
        survived = {(e["id"], i["formula"]): i["random_trials"]
                    for e in report["entries"] for i in e["instances"]
                    if "random_trials" in i}
        failed = {key for key, count in survived.items() if count < 200}
        assert {ident for ident, _ in failed} == {
            "pos-introspection-var", "neg-introspection-var"}
        assert len(failed) == 4


def _digest(report) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


class TestSeededOutputPinned:
    """Seeded suite JSON must not drift: these digests guard the RNG draw
    order of the random models and of random_axiom_instance."""

    def test_soundness(self):
        assert _digest(soundness_suite(trials=300, seed=7)) == (
            "b93a62a4ca5550d656bc86bb9c425c7af37f1bbda263eb97518f73868849fdab")

    def test_validity_table_apart_from_elapsed_ms(self):
        report = validity_table_suite(SearchBounds(2, 2, True), trials=50, seed=3)
        for entry in report["entries"]:
            for instance in entry["instances"]:
                del instance["elapsed_ms"]
        assert _digest(report) == (
            "bdd763869de52cae4aa3ebbaa08196521dae67c82a673c045257e96cfa7e99d9")
