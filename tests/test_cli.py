import json
import time

import pytest

from reference import FIXTURES, PROOFS

from elas.cli import main
from elas.proofkit import ProofScript, ProofStep, bundled_theorems, print_script


DISTINGUISHER = "[?x := a] Kh{a} P(?x)"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseCommand:
    def test_knowing_who(self, capsys):
        code, out, _ = run(capsys, "parse", "[?x := b] K{a} (?x = b)")
        assert code == 0
        assert "[?x := b] K{a} (?x = b)" in out
        assert "free: {}" in out

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "parse", "P(a")
        assert code == 2
        assert "position" in err

    def test_free_variables_reported(self, capsys):
        code, out, _ = run(capsys, "parse", "[?x:=?y]P(?x,?z)")
        assert code == 0
        assert "free: {?y, ?z}" in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "parse", "--json", "K{a} P(b)")
        payload = json.loads(out)
        assert code == 0
        assert payload["free"] == []

    @pytest.mark.parametrize("text", [
        "~" * 3000 + "true",
        "(~" * 3000 + "true" + ")" * 3000,
        " & ".join(["true"] * 3000),
    ])
    def test_deep_nesting_exit_2(self, capsys, text):
        code, out, err = run(capsys, "parse", text)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_redundant_parentheses_are_not_nesting(self, capsys):
        code, out, _ = run(capsys, "parse", "(" * 3000 + "true" + ")" * 3000)
        assert code == 0 and out.startswith("true")


class TestCheckCommand:
    def test_true_at_m1(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "m1.json"),
                           DISTINGUISHER, "--world", "s1", "--sigma", "?x=i")
        assert code == 0 and out.strip() == "true"

    def test_false_at_m2(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "m2.json"),
                           DISTINGUISHER, "--world", "s1", "--sigma", "?x=i")
        assert code == 1 and out.strip() == "false"

    def test_missing_sigma_entry(self, capsys):
        code, _, err = run(capsys, "check", str(FIXTURES / "m1.json"),
                           "K{a} P(?x)", "--world", "s1")
        assert code == 2
        assert "unbound variable ?x" in err

    def test_pointed_request_file(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "m1.json").read_text())
        doc["world"] = "s1"
        doc["sigma"] = {"?x": "i"}
        path = tmp_path / "pointed.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "check", str(path), DISTINGUISHER)
        assert (code, out.strip()) == (0, "true")
        # flags override the file's point
        code, out, _ = run(capsys, "check", str(path), "P(a)", "--world", "s2")
        assert (code, out.strip()) == (0, "true")

    @pytest.mark.parametrize("change", [
        {"agents": [["i"]]},
        {"worlds": ["s1", "s1", "s2"]},
        {"agents": ["i", "j", "i"]},
        {"sigma": ["?x", "i"]},
        # sigma keys that are not variables
        {"sigma": {"?": "i"}},
        {"sigma": {"?1x": "i"}},
    ])
    def test_malformed_model_file_exit_2(self, capsys, tmp_path, change):
        doc = json.loads((FIXTURES / "m1.json").read_text())
        doc.update(change)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path), "a = a",
                             "--world", "s1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_sigma_flag_binding_twice_exit_2(self, capsys):
        # the last value used to win silently, and ?x = ?y came out true
        code, out, err = run(capsys, "check", str(FIXTURES / "m1.json"),
                             "?x = ?y", "--world", "s1",
                             "--sigma", "?x=i,?x=j,?y=j")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "?x twice" in err

    def test_sigma_flag_key_not_a_variable_exit_2(self, capsys):
        code, out, err = run(capsys, "check", str(FIXTURES / "m1.json"),
                             "P(a)", "--world", "s1", "--sigma", "?1x=i")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_model_file_sigma_binding_twice_exit_2(self, capsys, tmp_path):
        doc = json.loads((FIXTURES / "m1.json").read_text())
        doc["sigma"] = {"?x": "i", "x": "j", "?y": "j"}
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(path), "?x = ?y",
                             "--world", "s1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "?x twice" in err

    @pytest.mark.parametrize("text", ["[" * 100_000, "[" * 100_000 + "]" * 100_000])
    def test_deeply_nested_model_file_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        code, out, err = run(capsys, "check", str(path), "true", "--world", "w1")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "nested too deeply" in err

    def test_story_fixture(self, capsys):
        code, out, _ = run(capsys, "check", str(FIXTURES / "witness.json"),
                           "[?x := b] [?y := a] (K{c} M(?x, ?y) & "
                           "~K{c} (a = ?x & ?y = b))", "--world", "t")
        assert code == 0 and out.strip() == "true"

    def test_robot_fixture_separates_readings(self, capsys):
        de_dicto = "K{a} K{b} H(a)"
        de_re = "[?x := a] [?y := b] K{a} K{?y} H(?x)"
        code1, out1, _ = run(capsys, "check", str(FIXTURES / "robots.json"),
                             de_dicto, "--world", "w1")
        code2, out2, _ = run(capsys, "check", str(FIXTURES / "robots.json"),
                             de_re, "--world", "w1")
        assert (code1, out1.strip()) == (1, "false")
        assert (code2, out2.strip()) == (0, "true")


class TestSearchCommands:
    def test_valid_reports_no_countermodel(self, capsys):
        code, out, _ = run(capsys, "valid", "?x = ?y -> K{a} ?x = ?y",
                           "--worlds", "3", "--agents", "3")
        assert code == 0
        assert "no countermodel" in out

    def test_invalid_dumps_countermodel(self, capsys):
        code, out, _ = run(capsys, "valid", "a = b -> K{c} a = b", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "countermodel"
        assert "eta" in payload["countermodel"]
        assert "world" in payload["countermodel"]

    def test_sat_unsatisfiable(self, capsys):
        code, out, _ = run(capsys, "sat", "P(a) & ~P(a)")
        assert code == 0
        assert "unsatisfiable" in out

    def test_sat_witness_json(self, capsys):
        code, out, _ = run(capsys, "sat", "~[?w0 := a] K{a} (?w0 = a)",
                           "--json")
        payload = json.loads(out)
        assert code == 0 and payload["verdict"] == "witness"
        assert len(payload["witness"]["worlds"]) >= 2

    @pytest.mark.parametrize("command, text, verdict", [
        ("valid", "K{a} P(a) -> P(a)", "no countermodel"),
        ("sat", "K{a} P(a) & ~P(a)", "unsatisfiable"),
    ])
    def test_many_agents_cost_nothing(self, capsys, command, text, verdict):
        # One name names at most one agent per world, so blocks with more
        # agents than worlds are never built; the verdict still speaks for
        # the requested bounds.
        started = time.perf_counter()
        code, out, _ = run(capsys, command, "--agents", "1000", text)
        assert time.perf_counter() - started < 10
        assert code == 0
        assert out.strip() == (f"{verdict} up to 3 worlds / 1000 agents "
                               "(epistemic frames)")


class TestTranslateCommand:
    def test_knowledge_clause(self, capsys):
        code, out, _ = run(capsys, "translate", "K{a} P(?x)")
        assert code == 0
        assert out.strip() == "forall_w v0. (R(w, v0, f_a(w)) -> Q_P(v0, x))"

    def test_universal_form(self, capsys):
        code, out, _ = run(capsys, "translate", "[?x := b] P(?x)",
                           "--form", "forall")
        assert out.strip() == "forall_a x. (x = f_b(w) -> Q_P(w, x))"

    def test_forms_agree_without_binders(self, capsys):
        _, out1, _ = run(capsys, "translate", "K{a} P(b)")
        _, out2, _ = run(capsys, "translate", "K{a} P(b)", "--form", "forall")
        assert out1 == out2

    @pytest.mark.parametrize("world_var", ["", "a b", "?x", "1x"])
    def test_malformed_world_var_exit_2(self, capsys, world_var):
        code, out, err = run(capsys, "translate", "K{a} P(?x)",
                             "--world-var", world_var)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("world_var, fol", [
        ("x", "forall_w v0. (R(x, v0, f_a(x)) -> Q_P(v0, x))"),
        ("v0", "forall_w v1. (R(v0, v1, f_a(v0)) -> Q_P(v1, x))"),
    ])
    def test_world_var_in_its_own_namespace(self, capsys, world_var, fol):
        code, out, _ = run(capsys, "translate", "K{a} P(?x)",
                           "--world-var", world_var)
        assert (code, out.strip()) == (0, fol)


class TestProveCommand:
    def test_bundled_scripts_accepted(self, capsys):
        for name in ("t", "reletter", "dbaseq"):
            code, out, _ = run(capsys, "prove", str(PROOFS / f"{name}.selas"))
            assert code == 0, name
            assert "accepted" in out

    def test_mutated_script_rejected(self, capsys, tmp_path):
        script = bundled_theorems()["SYM"]
        steps = list(script.steps)
        from elas.syntax import parse_formula
        steps[1] = ProofStep(steps[1].index, parse_formula("P(a)"),
                             steps[1].just)
        path = tmp_path / "broken.selas"
        path.write_text(print_script(ProofScript(script.goal, tuple(steps))))
        code, out, _ = run(capsys, "prove", str(path))
        assert code == 1
        assert "step 2: FAIL" in out

    def test_malformed_script(self, capsys, tmp_path):
        path = tmp_path / "bad.selas"
        path.write_text("goal: a = a\n1. a = ; axiom ID\n")
        code, _, err = run(capsys, "prove", str(path))
        assert code == 2

    def test_duplicate_lemma_binding_exit_2(self, capsys, tmp_path):
        path = tmp_path / "dup.selas"
        path.write_text((PROOFS / "trans.selas").read_text().replace(
            "t2 := b", "t2 := b, t1 := c"))
        code, _, err = run(capsys, "prove", str(path))
        assert code == 2
        assert err.startswith("error: ") and "t1 twice" in err


class TestSuiteCommand:
    def test_prop24(self, capsys):
        code, out, _ = run(capsys, "suite", "prop24")
        assert code == 0
        assert "all expectations met" in out

    def test_soundness_small(self, capsys):
        code, out, _ = run(capsys, "suite", "soundness",
                           "--trials", "300", "--seed", "7")
        assert code == 0

    def test_json_schema_stability(self, capsys):
        code1, out1, _ = run(capsys, "suite", "prop24", "--json")
        code2, out2, _ = run(capsys, "suite", "prop24", "--json")
        p1, p2 = json.loads(out1), json.loads(out2)
        p1.pop("el_elapsed_ms"), p2.pop("el_elapsed_ms")
        assert p1 == p2

    def test_corpus_summary(self, capsys):
        code, out, _ = run(capsys, "suite", "corpus")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite: corpus"
        assert lines[-2:] == ["  reading pairs separated: 6/6",
                              "result: all expectations met"]

    def test_unknown_suite(self, capsys):
        code, _, _ = run(capsys, "suite", "nope")
        assert code == 2


class TestUsage:
    def test_no_command(self, capsys):
        assert run(capsys, )[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json", "a = a",
                           "--world", "s1")
        assert code == 2

    def test_conflicting_frame_flags(self, capsys):
        code, _, err = run(capsys, "valid", "a = a", "--epistemic",
                           "--any-frames")
        assert code == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run(capsys, "valid", "a = a", "--jobs", jobs)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_jobs_above_one_ignored(self, capsys):
        formula = "K{a} P(b) -> K{a} K{a} P(b)"
        plain = run(capsys, "valid", formula)
        assert plain[2] == ""
        code, out, err = run(capsys, "valid", formula, "--jobs", "2")
        assert (code, out) == plain[:2]
        assert err.count("\n") == 1 and "ignored" in err

    @pytest.mark.parametrize("argv", [
        ("suite", "soundness", "--trials", "-5"),
        ("suite", "validity-table", "--trials", "-5"),
        ("suite", "prop24", "--max-size", "-1"),
        ("valid", "a = a", "--worlds", "x"),
        ("translate", "a = a", "--form", "both"),
        # bounds flags are checked for the suites that do not search, too
        ("suite", "soundness", "--trials", "5", "--worlds", "0"),
        ("suite", "soundness", "--trials", "5", "--jobs", "0"),
        ("suite", "prop24", "--agents", "0"),
        ("suite", "corpus", "--worlds", "0"),
        # and so are --trials and --max-size
        ("suite", "corpus", "--trials", "-5"),
        ("suite", "prop24", "--trials", "-5"),
        ("suite", "corpus", "--max-size", "0"),
        ("suite", "soundness", "--max-size", "0"),
    ])
    def test_malformed_flags_one_error_line(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_help_keeps_usage(self, capsys):
        code, out, _ = run(capsys, "valid", "-h")
        assert code == 0 and out.startswith("usage: elas valid")


class TestStartup:
    def test_suite_names_are_the_suites(self):
        from elas.cli import SUITE_NAMES
        from elas.suites import SUITES
        assert SUITE_NAMES == tuple(sorted(SUITES))

    @pytest.mark.parametrize("argv, loaded", [
        (["valid", "K{a} P(a) -> P(a)"], set()),
        (["sat", "P(a)", "--json"], set()),
        (["parse", "K{?x} P(?x)"], set()),
        (["translate", "K{a} P(a)"], {"translation"}),
        (["prove", str(PROOFS / "t.selas")], {"proofkit"}),
        (["suite", "prop24", "--max-size", "3"], {"proofkit", "suites"}),
    ])
    def test_commands_import_what_they_use(self, argv, loaded):
        import subprocess
        import sys
        from pathlib import Path
        import elas
        script = ("import sys\nfrom elas.cli import main\nmain(sys.argv[1:])\n"
                  "print(*sorted(m for m in sys.modules if m.startswith('elas.')))")
        done = subprocess.run([sys.executable, "-c", script, *argv],
                              capture_output=True, text=True,
                              env={"PYTHONPATH": str(Path(elas.__file__).parent.parent)})
        modules = set(done.stdout.split("\n")[-2].split())
        lazy = {f"elas.{m}" for m in ("proofkit", "suites", "translation")}
        assert modules & lazy == {f"elas.{m}" for m in loaded}

    def test_script_error_is_a_usage_error(self, capsys, tmp_path):
        # main reports a malformed script on one error line, exit 2, with
        # proofkit imported only by the prove command
        path = tmp_path / "bad.selas"
        path.write_text("goal: P(a)\n1. P(a) ; bogus\n")
        code, out, err = run(capsys, "prove", str(path))
        assert (code, out) == (2, "")
        assert err == "error: line 2: unknown justification 'bogus'\n"


class TestConsoleScript:
    def test_installed_entry_point(self):
        import shutil
        import subprocess
        if shutil.which("elas") is None:
            pytest.skip("console script not on PATH")
        done = subprocess.run(["elas", "parse", "a = a"],
                              capture_output=True, text=True)
        assert done.returncode == 0
        assert "a = a" in done.stdout
