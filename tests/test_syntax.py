import copy
import gc
import hashlib
import pickle
import random
import threading
import weakref

import pytest

from elas import syntax
from elas.randgen import random_formula
from elas.translation import print_fol, translate
from elas.syntax import (
    And, ArityError, Assign, Bot, Eq, FreshnessError, Iff, Implies, Knows,
    Name, Not, Or, ParseError, Pred, Signature, SubstitutionError, Top, Var,
    MAX_DEPTH, all_vars, formula_depth, formula_signature, free_vars,
    is_admissible, is_el_fragment,
    children, kh, knows_who, node_count, parse_formula, print_formula,
    reletter, subformulas, substitute, terms_of,
)
from elas.syntax import _tokenize

x, y, z = Var("x"), Var("y"), Var("z")
a, b, c = Name("a"), Name("b"), Name("c")


def Px(*args):
    return Pred("P", tuple(args))


class TestParse:
    def test_assignment_and_dual_knowledge(self):
        phi = parse_formula("[?x := a] Kh{a} P(?x)")
        assert phi == Assign("x", a, Not(Knows(a, Not(Px(x)))))

    def test_reflexive_equality_atom(self):
        assert parse_formula("a = a") == Eq(a, a)

    def test_arity_clash(self):
        with pytest.raises(ArityError):
            parse_formula("P(a) & P(a, b)")

    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse_formula("P(a")
        assert err.value.pos == 3

    def test_name_in_binder_position(self):
        with pytest.raises(ParseError, match="variable"):
            parse_formula("[a := b] P(a)")

    def test_diamond_desugars(self):
        phi = parse_formula("<?x := b> P(?x)")
        assert phi == Not(Assign("x", b, Not(Px(x))))

    def test_precedence(self):
        phi = parse_formula("~P(a) & Q(b) | R -> S <-> T")
        assert isinstance(phi, Iff)
        assert isinstance(phi.lhs, Implies)
        assert isinstance(phi.lhs.lhs, Or)
        assert phi.lhs.lhs.lhs == And(Not(Pred("P", (a,))), Pred("Q", (b,)))

    def test_implies_right_associative(self):
        phi = parse_formula("P -> Q -> R")
        assert phi == Implies(Pred("P", ()), Implies(Pred("Q", ()), Pred("R", ())))

    def test_iff_left_associative(self):
        phi = parse_formula("P <-> Q <-> R")
        assert phi == Iff(Iff(Pred("P", ()), Pred("Q", ())), Pred("R", ()))

    def test_equality_binds_under_knowledge(self):
        assert parse_formula("K{a} ?x = ?y") == Knows(a, Eq(x, y))

    def test_zero_arity_predicate(self):
        assert parse_formula("Rain") == Pred("Rain", ())

    def test_true_false(self):
        assert parse_formula("true & false") == And(Top(), Bot())

    def test_signature_check(self):
        sig = Signature({"P": 2}, frozenset({"a"}))
        with pytest.raises(ArityError):
            parse_formula("P(a)", signature=sig)
        with pytest.raises(ParseError):
            parse_formula("Q(a)", signature=sig)
        with pytest.raises(ParseError):
            parse_formula("P(a, zzz)", signature=sig)

    def test_predicate_named_like_operator(self):
        assert parse_formula("K(a)") == Pred("K", (a,))
        assert parse_formula("Kh(a)") == Pred("Kh", (a,))

    def test_nesting_limit(self):
        deepest = "~" * (MAX_DEPTH - 1) + "true"
        assert formula_depth(parse_formula(deepest)) == MAX_DEPTH
        for text in ("~" + deepest, "~" * 3000 + "true",
                     " -> ".join(["true"] * 3000)):
            with pytest.raises(ParseError, match="nested too deeply"):
                parse_formula(text)

    def test_redundant_parentheses_at_any_depth(self):
        # A run of redundant pairs costs the descent one level, so this
        # parses in the test runner's own thread, deep stack and all.
        assert parse_formula("(" * 1000 + "P" + ")" * 1000) == Pred("P", ())
        assert parse_formula("(" * 500 + "P & ((Q))" + ")" * 500) == \
            And(Pred("P", ()), Pred("Q", ()))
        # cutting redundant pairs moves no error: unmatched parentheses, an
        # argument list and a term in parentheses fail where they always did
        for text, message, pos in [
            ("(" * 1000 + "P" + ")" * 999, "expected ')'", 2000),
            ("(" * 999 + "P" + ")" * 1000, "unexpected trailing input ')'", 1999),
            ("((P &))", "expected a formula, found ')'", 5),
            ("P((a))", "expected a term (?x or a name)", 2),
            ("K{((a))} P", "expected a term (?x or a name)", 2),
            ("Q(a, ((b)))", "expected a term (?x or a name)", 5),
        ]:
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            assert (err.value.message, err.value.pos) == (message, pos)


class TestPrint:
    def test_round_trip_example(self):
        text = "K{?x} (P(?x) -> P(?x))"
        assert parse_formula(print_formula(parse_formula(text))) == parse_formula(text)

    def test_knowing_who_rendering(self):
        phi = Assign("x", b, Knows(a, Eq(x, b)))
        assert print_formula(phi) == "[?x := b] K{a} (?x = b)"

    def test_dual_resugars(self):
        assert print_formula(Not(Knows(a, Not(Px(x))))) == "Kh{a} P(?x)"
        assert print_formula(Not(Assign("x", b, Not(Px(x))))) == "<?x := b> P(?x)"

    def test_round_trip_random(self):
        rng = random.Random(101)
        for _ in range(600):
            phi = random_formula(rng, ("x", "y", "z"), ("a", "b"),
                                 {"P": 1, "Q": 2, "R": 0}, depth=4)
            assert parse_formula(print_formula(phi)) == phi


class TestFreeVars:
    def test_binder_term_counts(self):
        assert free_vars(parse_formula("[?x := ?y] P(?x, ?z)")) == {"y", "z"}

    def test_self_assignment_term_is_free(self):
        assert free_vars(parse_formula("[?x := ?x] P(?x)")) == {"x"}

    def test_no_variables(self):
        assert free_vars(parse_formula("K{a} P(b)")) == frozenset()

    def test_coherence_with_substitution(self):
        rng = random.Random(77)
        checked = 0
        while checked < 200:
            phi = random_formula(rng, ("x", "y", "z"), ("a",),
                                 {"P": 1}, depth=3)
            if "x" not in free_vars(phi) or not is_admissible(phi, "y", "x"):
                continue
            assert free_vars(substitute(phi, "y", "x")) == \
                (free_vars(phi) - {"x"}) | {"y"}
            checked += 1


class TestSubstitute:
    def test_no_binders(self):
        assert substitute(parse_formula("K{?x} P(?x)"), "y", "x") == \
            parse_formula("K{?y} P(?y)")

    def test_capture_rejected(self):
        with pytest.raises(SubstitutionError, match=r"\?y"):
            substitute(parse_formula("[?y := c] P(?x)"), "y", "x")

    def test_only_free_term_position_replaced(self):
        assert substitute(parse_formula("[?x := ?x] P(?x)"), "y", "x") == \
            parse_formula("[?x := ?y] P(?x)")

    def test_admissibility(self):
        assert not is_admissible(parse_formula("[?y := c] P(?x)"), "y", "x")
        assert is_admissible(parse_formula("[?z := a] P(?x)"), "y", "x")
        rng = random.Random(5)
        for _ in range(100):
            phi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=3)
            assert is_admissible(phi, "x", "x")
            assert substitute(phi, "x", "x") == phi

    def test_capture_only_matters_for_free_occurrences(self):
        # ?x under its own binder is not free, so no capture can happen
        assert is_admissible(parse_formula("[?y := c] [?x := a] P(?x)"), "y", "x")

    def test_capture_agrees_with_reference(self):
        # A free occurrence of ?x (one in the scope of no binder on ?x) is
        # captured when it stands in the scope of a binder on ?y; a binder's
        # scope is its body, not its own term.
        def occurrences(f, scope):
            for t in terms_of(f):
                yield t, scope
            inner = scope | {f.var} if isinstance(f, Assign) else scope
            for kid in children(f):
                yield from occurrences(kid, inner)

        def captured(phi, v, u):
            return any(t == Var(u) and u not in scope and v in scope
                       for t, scope in occurrences(phi, frozenset()))

        rng = random.Random(2024)
        names = ("x", "y", "z")
        seen = {True: 0, False: 0}
        for _ in range(2000):
            phi = random_formula(rng, names, ("a",), {"P": 1, "R": 2}, depth=4)
            for v in names:
                for u in names:
                    admissible = not captured(phi, v, u)
                    seen[admissible] += 1
                    assert is_admissible(phi, v, u) == admissible, (print_formula(phi), v, u)
                    if admissible:
                        substitute(phi, v, u)
                        continue
                    with pytest.raises(SubstitutionError) as info:
                        substitute(phi, v, u)
                    assert str(info.value) == \
                        f"substituting ?{v} for ?{u} is captured by a binder on ?{v}"
        assert min(seen.values()) > 1000
        with pytest.raises(SubstitutionError) as info:
            substitute(parse_formula("[?y := c] [?z := ?x] P(?x)"), "y", "x")
        assert str(info.value) == "substituting ?y for ?x is captured by a binder on ?y"


class TestReletter:
    def test_body_renamed(self):
        assert reletter(parse_formula("[?x := a] K{?x} P(?x)"), "z") == \
            parse_formula("[?z := a] K{?z} P(?z)")

    def test_variable_not_free_in_body(self):
        assert reletter(parse_formula("[?x := a] P(b)"), "z") == \
            parse_formula("[?z := a] P(b)")

    def test_freshness_enforced(self):
        with pytest.raises(FreshnessError):
            reletter(parse_formula("[?x := ?z] P(?x)"), "z")
        with pytest.raises(ValueError):
            reletter(parse_formula("P(a)"), "z")

    def test_preserves_free_variables(self):
        rng = random.Random(13)
        checked = 0
        while checked < 150:
            phi = random_formula(rng, ("x", "y"), ("a",), {"P": 1}, depth=3)
            if not isinstance(phi, Assign) or "w" in all_vars(phi):
                continue
            assert free_vars(reletter(phi, "w")) == free_vars(phi)
            checked += 1


class TestKnowsWho:
    def test_shape(self):
        assert print_formula(knows_who(a, "b")) == "[?w0 := b] K{a} (?w0 = b)"

    def test_self_naming(self):
        assert print_formula(knows_who(a, "a")) == "[?w0 := a] K{a} (?w0 = a)"

    def test_closed(self):
        assert free_vars(knows_who(a, "b")) == frozenset()

    def test_fresh_variable_avoids_collision(self):
        phi = knows_who(Var("w0"), "b")
        assert phi.var == "w1"


class TestElFragment:
    def test_plain_knowledge(self):
        assert is_el_fragment(parse_formula("K{a} P(?x)"))

    def test_binder(self):
        assert not is_el_fragment(parse_formula("[?x := a] P(?x)"))

    def test_separating_formula(self):
        assert not is_el_fragment(parse_formula("[?x := a] Kh{a} P(?x)"))


class TestAuxiliary:
    def test_node_count(self):
        assert node_count(parse_formula("[?x := a] Kh{a} P(?x)")) == 8
        assert node_count(parse_formula("a = a")) == 3
        assert node_count(Top()) == 1

    def test_signature_extraction(self):
        sig = formula_signature(parse_formula("[?x := a] (K{b} P(?x) & Q)"))
        assert sig.predicates == {"P": 1, "Q": 0}
        assert sig.names == {"a", "b"}
        assert sig.variables == frozenset()

    def test_signature_is_remembered_without_keeping_the_formula(self):
        gc.collect()
        phi = Px(Var("zsig"))
        formula_signature(phi)
        assert phi in syntax._SIGNATURES
        held = len(syntax._SIGNATURES)
        ref = weakref.ref(phi)
        del phi
        gc.collect()
        assert ref() is None
        assert len(syntax._SIGNATURES) == held - 1

    def test_a_returned_signature_cannot_change_a_later_one(self):
        phi = parse_formula("P(?x) & K{a} Q")
        sig = formula_signature(phi)
        with pytest.raises(TypeError):
            sig.predicates["P"] = 2
        for back in (pickle.loads(pickle.dumps(sig)), copy.deepcopy(sig)):
            assert back == sig
            back.predicates["R"] = 1           # a plain dict again
        assert formula_signature(phi) == Signature(
            {"P": 1, "Q": 0}, frozenset({"a"}), frozenset({"x"}))
        assert free_vars(phi) == {"x"}

    def test_no_sugar_constructors_exist(self):
        phi = parse_formula("Kh{a} <?x := b> P(?x)")
        kinds = {type(sub).__name__ for sub in subformulas(phi)}
        assert kinds <= {"Not", "Knows", "Assign", "Pred"}

    def test_kh_helper(self):
        assert kh(a, Px(x)) == parse_formula("Kh{a} P(?x)")


class TestHashConsing:
    TEXT = "[?x := a] (K{b} P(?x, c) -> ~(?x = b) | Q)"

    def test_parsing_twice_gives_the_same_node(self):
        assert parse_formula(self.TEXT) is parse_formula(self.TEXT)
        assert Eq(x, a) is Eq(Var("x"), Name("a"))
        assert Top() is Top() and Bot() is not Top()

    def test_equality_is_identity(self):
        phi = parse_formula(self.TEXT)
        assert phi == parse_formula(self.TEXT)
        assert hash(phi) == object.__hash__(phi)
        assert And(Px(x), Px(y)) != Or(Px(x), Px(y))
        assert Var("a") != Name("a")

    def test_pickle_and_deepcopy_return_the_same_node(self):
        phi = parse_formula(self.TEXT)
        assert pickle.loads(pickle.dumps(phi)) is phi
        assert copy.deepcopy(phi) is phi
        assert copy.copy(phi) is phi
        assert copy.deepcopy([phi, Px(x)])[0] is phi
        fol = translate(phi)
        assert pickle.loads(pickle.dumps(fol)) is fol is translate(phi)

    def test_unpickling_a_dead_node_interns_it_again(self):
        data = pickle.dumps(parse_formula("K{zq1} Zq2(?zq3)"))
        gc.collect()
        phi = pickle.loads(data)
        assert phi is parse_formula("K{zq1} Zq2(?zq3)")

    def test_nodes_are_immutable(self):
        phi = parse_formula(self.TEXT)
        with pytest.raises(AttributeError):
            phi.body = Top()

    def test_the_table_keeps_no_dead_node(self):
        gc.collect()
        before = len(syntax._TABLE)
        kept = Var("zk0")
        phi = parse_formula("K{zk1} (Zk2(?zk0) & ~(?zk0 = zk1))")
        probe = weakref.ref(phi.body)
        assert len(syntax._TABLE) > before + 1
        del phi
        gc.collect()
        assert probe() is None
        assert len(syntax._TABLE) == before + 1          # kept alone is left
        assert all(ref() is not None for ref in syntax._TABLE.values())
        assert Var("zk0") is kept

    def test_a_node_does_not_keep_its_parents_alive(self):
        child = Px(Var("zp0"))
        parent = weakref.ref(Not(Not(child)))
        gc.collect()
        assert parent() is None
        assert Not(child).body is child


# Pieces of the random strings of TestPinned: every operator, bracket and
# keyword, whitespace, and characters that str.isalpha and str.isalnum tell
# apart (é is a letter; ², ½ and Ⅻ are alphanumeric but not letters).
PIECES = ("?", "_", "é", "²", "½", "Ⅻ", "1", "a", "b", "x", "P", "Q", "K",
          "Kh", "true", "false", "(", ")", "{", "}", "[", "]", "<", ">", ",",
          "=", ":=", "~", "&", "|", "->", "<->", ":", "-", " ", "\t", "\n")

# sha256 of the outcomes below; a rewrite of the syntax layer keeps them
PRINT_DIGEST = "9f4cd405a26b5258ad19ce50b85561143f6d7086d3e3534c716fa34a55ead1c5"
PARSE_DIGEST = "0ab503ad099aae162e5f4a2ba052bdb6cef1fa1c80d185703b4c1301f2b4fe02"


def _outcome(read, text: str) -> str:
    """The repr of what read returns for text, or its error and position."""
    try:
        return repr(read(text))
    except ParseError as err:
        return f"error {err.message!r} at {err.pos}"


def _sha(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestPinned:
    """Digests of what the lexer, the parser and both printers produce on
    seeded inputs, so that a rewrite of the syntax layer keeps them."""

    def test_printers(self):
        rng = random.Random(1973)
        lines = []
        for _ in range(2000):
            phi = random_formula(rng, ("x", "y", "z"), ("a", "b"),
                                 {"P": 1, "Q": 2, "R": 0}, depth=6)
            lines.append(print_formula(phi) + "\t" + print_fol(translate(phi)))
        assert _sha(lines) == PRINT_DIGEST

    def test_lexer_and_parser(self):
        rng = random.Random(1973)
        lines = []
        for _ in range(20000):
            text = "".join(rng.choice(PIECES) for _ in range(rng.randint(0, 12)))
            lines.append(_outcome(_tokenize, text))
            lines.append(_outcome(parse_formula, text))
        assert _sha(lines) == PARSE_DIGEST

    def test_deep_parentheses_parse(self):
        # in a thread of its own, so that the test runner's frames do not
        # count against the recursion limit
        parsed = []
        thread = threading.Thread(target=lambda: parsed.append(
            parse_formula("(" * 160 + "P" + ")" * 160)))
        thread.start()
        thread.join()
        assert parsed == [Pred("P", ())]
