"""Property tests for the formula-tree fold (children/rebuild), the schema
table of the proof checker, the model loader, the first-order translation
and the command line, generated with hypothesis."""

import contextlib
import copy
import io
import itertools
import json
import operator
import random
import string

import pytest
from hypothesis import assume, given, settings, strategies as st

from reference import FIXTURES, PROOFS

from elas.cli import main
from elas.proofkit import (
    AXIOM_IDS, AXIOMS, BUNDLED, MAX_ATOMS, _LEMMA_BUILDERS, AtomBudgetError,
    ScriptError, _mutants, check_taut, instantiate_axiom, instantiate_lemma,
    match_axiom,
)
from elas.randgen import random_epistemic_model, random_model, random_sigma
from elas.semantics import (
    BIT_OPS, ModelError, _eval, digit_mask, eval_formula, model_from_dict,
)
from elas.syntax import (
    BINARY, BOOLEAN, And, Assign, Bot, Eq, Iff, Implies, Knows, Name, Not, Or,
    Pred, Signature, Top, Var, all_vars, children, free_vars, is_admissible,
    parse_formula, print_formula, rebuild, subformulas, substitute, terms_of,
)
from elas.translation import (
    AgentVar, ExistsAgent, ForallAgent, ForallWorld, WorldVar, check_sorts,
    fol_eval, induce_structure, translate, translate_universal,
)

# Capped so that the whole module adds only a few seconds to the suite.
PROPERTY = settings(max_examples=150, deadline=None)

VARS = ("x", "y", "z")
SIG = Signature({"P": 1, "Q": 2, "R": 0}, frozenset({"a", "b"}))


def term_strategy(variables, sig):
    return st.sampled_from([Var(v) for v in variables]
                           + [Name(n) for n in sorted(sig.names)])


def formula_strategy(variables, sig):
    """Formulas over the variables, names and predicates given."""
    terms = term_strategy(variables, sig)
    atoms = st.one_of(
        st.just(Top()), st.just(Bot()), st.builds(Eq, terms, terms),
        *(st.tuples(*[terms] * arity).map(lambda args, sym=sym: Pred(sym, args))
          for sym, arity in sorted(sig.predicates.items())),
    )
    return st.recursive(atoms, lambda sub: st.one_of(
        st.builds(Not, sub),
        *(st.builds(ctor, sub, sub) for ctor in BINARY),
        st.builds(Knows, terms, sub),
        st.builds(Assign, st.sampled_from(variables), terms, sub),
    ), max_leaves=12)


terms = term_strategy(VARS, SIG)
formulas = formula_strategy(VARS, SIG)


def _pointed(seed):
    rng = random.Random(seed)
    model = random_epistemic_model(rng, SIG)
    return model, rng.choice(model.worlds), random_sigma(rng, VARS, model)


pointed = st.integers(0, 2 ** 32).map(_pointed)


@PROPERTY
@given(formulas)
def test_print_parse_round_trip(phi):
    assert parse_formula(print_formula(phi)) == phi


@PROPERTY
@given(formulas)
def test_rebuild_from_own_children_is_identity(phi):
    for f in subformulas(phi):
        assert rebuild(f, children(f)) == f


@PROPERTY
@given(formulas, st.sampled_from(VARS), st.sampled_from(VARS), pointed)
def test_substitution_lemma(phi, y, x, point):
    assume(is_admissible(phi, y, x))
    model, world, sigma = point
    moved = {**sigma, x: sigma[y]}
    result = substitute(phi, y, x)
    assert _eval(model, world, sigma, result) == _eval(model, world, moved, phi)
    free = free_vars(phi)
    assert free_vars(result) == (free - {x}) | ({y} if x in free else set())


@PROPERTY
@given(formulas, pointed, st.integers(0, 2 ** 32))
def test_coincidence_outside_free_variables(phi, point, seed):
    model, world, sigma = point
    rng = random.Random(seed)
    free = free_vars(phi)
    other = {v: a if v in free else rng.choice(model.agents)
             for v, a in sigma.items()}
    assert _eval(model, world, other, phi) == _eval(model, world, sigma, phi)


def _differences(a, b) -> list:
    """The highest positions at which two formula trees differ."""
    if a == b:
        return []
    if (type(a) is not type(b) or terms_of(a) != terms_of(b)
            or getattr(a, "var", None) != getattr(b, "var", None)):
        return [(a, b)]
    return [d for x, y in zip(children(a), children(b))
            for d in _differences(x, y)]


@PROPERTY
@given(formulas)
def test_mutants_flip_exactly_one_connective(phi):
    mutants = list(_mutants(phi))
    assert len(mutants) == sum(isinstance(f, BOOLEAN) for f in subformulas(phi))
    for mutant in mutants:
        [(old, new)] = _differences(phi, mutant)
        dropped = isinstance(old, Not) and new == old.body
        flipped = (isinstance(old, BINARY) and isinstance(new, BINARY)
                   and children(old) == children(new))
        assert dropped or flipped


@st.composite
def boolean_combinations(draw):
    """Boolean combinations of up to six opaque atoms, each usable any
    number of times: two or three atomic, modal or binder formulas, and one
    to three K{t} or [?x := t] over one of those."""
    base = draw(st.lists(st.one_of(
        st.builds(Eq, terms, terms),
        st.builds(Pred, st.just("P"), st.tuples(terms)),
        st.builds(Knows, terms, formulas),
        st.builds(Assign, st.sampled_from(VARS), terms, formulas),
    ), min_size=2, max_size=3))
    inner = st.sampled_from(base)
    opaque = base + draw(st.lists(st.one_of(
        st.builds(Knows, terms, inner),
        st.builds(Assign, st.sampled_from(VARS), terms, inner),
    ), min_size=1, max_size=3))
    parts = draw(st.lists(st.sampled_from(opaque + [Top(), Bot()]),
                          min_size=1, max_size=12))
    return _joined(draw, parts)


def _joined(draw, parts):
    """Join neighbouring parts until one formula is left."""
    while len(parts) > 1:
        i = draw(st.integers(0, len(parts) - 2))
        parts[i:i + 2] = [draw(st.sampled_from(BINARY))(parts[i], parts[i + 1])]
        if draw(st.booleans()):
            parts[i] = Not(parts[i])
    return parts[0]


_CONNECTIVES = {Not: operator.not_, And: operator.and_, Or: operator.or_,
                Implies: lambda p, q: q or not p, Iff: operator.eq}


def _maximal_atoms(phi) -> list:
    if isinstance(phi, (Top, Bot)):
        return []
    if isinstance(phi, BOOLEAN):
        return [f for kid in children(phi) for f in _maximal_atoms(kid)]
    return [phi]


def _taut_by_rows(phi) -> bool:
    """check_taut's reference: the maximal non-Boolean subformulas are the
    atoms, and every row of their truth table is evaluated on its own."""
    atoms = list(dict.fromkeys(_maximal_atoms(phi)))

    def truth(f, row):
        if isinstance(f, (Top, Bot)):
            return isinstance(f, Top)
        if isinstance(f, BOOLEAN):
            return _CONNECTIVES[type(f)](*(truth(kid, row) for kid in children(f)))
        return row[f]

    return all(truth(phi, dict(zip(atoms, values)))
               for values in itertools.product((False, True), repeat=len(atoms)))


@PROPERTY
@given(boolean_combinations())
def test_check_taut_agrees_with_row_by_row_table(phi):
    assert check_taut(phi) == _taut_by_rows(phi)


def _wide_formulas(atoms: int):
    """Three formulas of exactly the given number of distinct atoms, one of
    them modal, with a shared subformula and true/false leaves: a
    tautology, a formula false only in the last row (every atom true), and
    one false in the first row."""
    leaves = [Pred("P", (Name(f"a{i}"),)) for i in range(atoms - 1)]
    leaves.append(Knows(Name("a"), Pred("P", (Name("a0"),))))
    shared = Or(leaves[0], Not(leaves[-1]))
    conj = shared
    for leaf in leaves[1:]:
        conj = And(conj, leaf)
    return (Implies(And(conj, Top()), Or(shared, Bot())),
            Implies(conj, Or(Not(leaves[1]), Bot())),
            Iff(Or(conj, Bot()), And(shared, Top())))


@pytest.mark.parametrize("atoms", [6, 7, 16])
def test_check_taut_at_the_table_and_budget_widths(atoms):
    # 6 atoms fill the fixed 2 ** 6-row column table, 7 are checked at
    # their exact width, 16 are the budget
    formulas = _wide_formulas(atoms)
    for phi in formulas:
        assert len(set(_maximal_atoms(phi))) == atoms
    assert [check_taut(phi) for phi in formulas] == [True, False, False]
    # the row-by-row table reads every row of the first two; at 16 atoms
    # the second, about 2 s, is left to the skeleton table
    reference = [_taut_by_rows(formulas[0]),
                 (_skeleton_taut if atoms > 7 else _taut_by_rows)(formulas[1]),
                 _taut_by_rows(formulas[2])]
    assert reference == [True, False, False]


def test_check_taut_past_the_budget():
    for phi in _wide_formulas(MAX_ATOMS + 1):
        with pytest.raises(AtomBudgetError) as info:
            check_taut(phi)
        assert str(info.value) == "17 distinct atoms exceed the budget of 16"


@st.composite
def wide_boolean_combinations(draw):
    """Boolean combinations of MAX_ATOMS - 2 to MAX_ATOMS + 2 distinct
    atoms, every one of them used, some more than once."""
    names = draw(st.lists(st.integers(0, 30), unique=True,
                          min_size=MAX_ATOMS - 2, max_size=MAX_ATOMS + 2))
    atoms = [Pred("P", (Name(f"a{i}"),)) for i in names]
    extra = draw(st.lists(st.sampled_from(atoms + [Top(), Bot()]), max_size=8))
    return _joined(draw, list(draw(st.permutations(atoms + extra))))


def _skeleton_taut(phi) -> bool:
    """The tautology check before formulas were hash-consed: the maximal
    non-Boolean subformulas become 0-ary atoms @0, @1, ... of a rebuilt
    skeleton tree, whose truth table is folded over bit vectors."""
    atoms: dict = {}

    def abstract(f):
        if isinstance(f, (Top, Bot)):
            return f
        if isinstance(f, BOOLEAN):
            return type(f)(*(abstract(kid) for kid in children(f)))
        atoms.setdefault(f, len(atoms))
        return Pred(f"@{atoms[f]}", ())

    skeleton = abstract(phi)
    if len(atoms) > MAX_ATOMS:
        raise AtomBudgetError(f"{len(atoms)} atoms")
    rows = 1 << len(atoms)
    full = (1 << rows) - 1

    def value(f):
        if type(f) is Pred:
            return digit_mask(rows, 1 << int(f.sym[1:]), 2, 1)
        return BIT_OPS[type(f)](full, *map(value, children(f)))

    return value(skeleton) == full


@PROPERTY
@given(st.one_of(boolean_combinations(), wide_boolean_combinations()))
def test_check_taut_agrees_with_the_skeleton_table(phi):
    try:
        expected = _skeleton_taut(phi)
    except AtomBudgetError:
        with pytest.raises(AtomBudgetError):
            check_taut(phi)
        return
    assert check_taut(phi) == expected


def _replace(phi, old, new):
    """phi with every subformula or term equal to old replaced by new,
    however malformed the result."""
    if phi == old:
        return new
    return rebuild(phi, [_replace(kid, old, new) for kid in children(phi)],
                   lambda t: new if t == old else t)


@st.composite
def axiom_bindings(draw, ids=AXIOM_IDS):
    axiom_id = draw(st.sampled_from(ids))
    if axiom_id == "SUBP":
        sym, arity = draw(st.sampled_from([("=", 2), ("P", 1), ("Q", 2)]))
        vector = st.lists(terms, min_size=arity, max_size=arity).map(tuple)
        return axiom_id, {"P": sym, "ts": draw(vector), "us": draw(vector)}
    binding = {"t": draw(terms), "u": draw(terms), "x": draw(st.sampled_from(VARS)),
               "y": draw(st.sampled_from(VARS)), "p": draw(formulas), "q": draw(formulas)}
    if axiom_id == "SUB2AS":
        assume(is_admissible(binding["p"], binding["y"], binding["x"]))
    return axiom_id, binding


@PROPERTY
@given(axiom_bindings())
def test_match_axiom_inverts_instantiate_axiom(case):
    axiom_id, binding = case
    phi = instantiate_axiom(axiom_id, binding)
    found = match_axiom(axiom_id, phi)
    assert found is not None
    assert instantiate_axiom(axiom_id, found) == phi


@PROPERTY
@given(axiom_bindings(sorted(AXIOMS)))
def test_match_axiom_rejects_wrong_kinds(case):
    axiom_id, binding = case
    # ?w occurs nowhere else, and W stands for both formula metavariables
    sentinel = Pred("W", ())
    phi = instantiate_axiom(axiom_id, {**binding, "x": "w", "p": sentinel, "q": sentinel})
    named = _replace(phi, Var("w"), Name("a"))          # a name for ?x
    term_for_formula = _replace(phi, sentinel, Name("a"))
    assume(named != phi or term_for_formula != phi)
    for wrong in {named, term_for_formula} - {phi}:
        assert match_axiom(axiom_id, wrong) is None


WRONG = {"variable": Name("a"), "term": Top(), "formula": Name("a")}


@PROPERTY
@given(st.sampled_from(sorted(_LEMMA_BUILDERS)), st.data())
def test_instantiate_lemma_rejects_wrong_kinds(name, data):
    kinds = _LEMMA_BUILDERS[name][0]
    draws = {"variable": st.sampled_from(VARS), "term": terms, "formula": formulas}
    binding = {key: data.draw(draws[kind]) for key, kind in kinds.items()}
    key = data.draw(st.sampled_from(sorted(kinds)))
    binding[key] = WRONG[kinds[key]]
    with pytest.raises(ScriptError) as raised:
        instantiate_lemma(name, binding)
    assert str(raised.value) == f"{key} of lemma {name} must be a {kinds[key]}"


def _paths(value, prefix=()):
    yield prefix
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, sub in items:
        yield from _paths(sub, prefix + (key,))


FIXTURE = json.loads((FIXTURES / "m1.json").read_text())
PATHS = list(_paths(FIXTURE))

words = st.sampled_from(["s1", "s2", "s3", "i", "j", "a", "P", ""])
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-1, 2) | words,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(words, inner, max_size=3),
    max_leaves=8)


@st.composite
def documents(draw):
    """The m1 fixture with one of its values, or the whole document,
    replaced by random JSON."""
    doc = copy.deepcopy(FIXTURE)
    path = draw(st.sampled_from(PATHS))
    value = draw(json_values)
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


@PROPERTY
@given(documents())
def test_loader_returns_or_raises_model_error(doc):
    try:
        model_from_dict(doc)
    except ModelError:
        pass


def _run_cli(argv) -> None:
    """Run the command line; nothing may raise, and exit 2 prints exactly
    one `error:` line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        [line] = err.getvalue().splitlines()
        assert line.startswith("error: ")


SCRIPTS = {name: (PROOFS / f"{name.lower()}.selas").read_text() for name in BUNDLED}


def _edit(draw, text, alphabet, tokens=()):
    """text with one character deleted, duplicated or replaced by one of
    alphabet, or with one of tokens inserted."""
    pos = draw(st.integers(0, len(text) - 1))
    edits = ["delete", "duplicate", "replace"] + (["insert"] if tokens else [])
    edit = draw(st.sampled_from(edits))
    if edit == "delete":
        return text[:pos] + text[pos + 1:]
    if edit == "duplicate":
        return text[:pos + 1] + text[pos:]
    if edit == "replace":
        return text[:pos] + draw(st.sampled_from(alphabet)) + text[pos + 1:]
    return text[:pos] + draw(st.sampled_from(tokens)) + text[pos:]


@st.composite
def edited_scripts(draw):
    """A bundled script with one character deleted, duplicated or replaced."""
    text = SCRIPTS[draw(st.sampled_from(BUNDLED))]
    return _edit(draw, text, ";.:=,()[]{}?~ " + string.ascii_letters)


@settings(max_examples=200, deadline=None)
@given(edited_scripts())
def test_prove_on_edited_script_exits_cleanly(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "edited.selas"
    path.write_text(text)
    _run_cli(["prove", str(path)])


# The world variables the translation generates are v0, v1, ...; formulas
# that use ?v0 and ?v1 as agent variables send it through its second pass.
TR_VARS = ("x", "w", "v0", "v1")
TR_SIG = Signature({"P": 1, "Q": 2}, frozenset({"a", "b"}))


def _bound_world_vars(f) -> set:
    if isinstance(f, (ForallWorld, ExistsAgent, ForallAgent)):
        own = {f.var} if isinstance(f, ForallWorld) else set()
        return own | _bound_world_vars(f.body)
    return set().union(*map(_bound_world_vars, children(f)))


@PROPERTY
@given(formula_strategy(TR_VARS, TR_SIG), st.sampled_from(["w", "v0", "v1", "x"]),
       st.booleans(), st.integers(0, 2 ** 32))
def test_translation_agrees_with_checker(phi, world_var, epistemic, seed):
    rng = random.Random(seed)
    sample = random_epistemic_model if epistemic else random_model
    model = sample(rng, TR_SIG, 3, 3)
    world = rng.choice(model.worlds)
    sigma = random_sigma(rng, TR_VARS, model)
    valuation = {WorldVar(world_var): world,
                 **{AgentVar(v): a for v, a in sigma.items()}}
    expected = eval_formula(model, world, sigma, phi)
    structure = induce_structure(model)
    for tr in (translate, translate_universal):
        out = tr(phi, world_var)
        assert fol_eval(structure, valuation, out) is expected
        assert check_sorts(out, {world_var}, free_vars(phi)) == []
        assert not _bound_world_vars(out) & ({world_var} | all_vars(phi))


FORMULAS = (
    "[?x := a] Kh{a} P(?x)",
    "K{a} P(?x) -> ?x = a",
    "<?y := a> (P(?y) <-> ~true) | false & a = ?y",
    "[?x := ?y] K{?x} ~(P(a) & ?x = a)",
)
TOKENS = ("K{a}", "Kh{?x}", "[?x := a]", "<?y := ?x>", "->", "<->", "&", "|",
          "~", "(", ")", "{", "}", "?", "?x", "a", "P", "P(a, a)", "=", ":=",
          "true", " ")


@st.composite
def edited_formulas(draw):
    """A formula text with one character deleted, duplicated or replaced,
    or with one token inserted."""
    text = draw(st.sampled_from(FORMULAS))
    return _edit(draw, text, ";.:=,()[]{}<>?~&|- " + string.ascii_letters, TOKENS)


COMMANDS = (
    ("parse",), ("translate",), ("translate", "--form", "forall"),
    ("valid", "--worlds", "1", "--agents", "2"),
    ("sat", "--worlds", "1", "--agents", "2"),
    ("check", str(FIXTURES / "m1.json"), "--world", "s1", "--sigma", "?x=i,?y=j"),
)


@PROPERTY
@given(st.sampled_from(COMMANDS), edited_formulas())
def test_cli_on_edited_formula_exits_cleanly(command, text):
    name, *rest = command
    if name == "check":
        argv = [name, rest[0], text, *rest[1:]]
    else:
        argv = [name, text, *rest]
    _run_cli(argv)


FIXTURE_TEXT = (FIXTURES / "m1.json").read_text()
KEY_PATHS = [path for path in PATHS if path and isinstance(path[-1], str)]


@st.composite
def edited_model_files(draw):
    """The m1 fixture as text with one character edited, with one of its
    values replaced by random JSON, or with one of its keys edited."""
    edit = draw(st.sampled_from(["character", "value", "key"]))
    if edit == "character":
        return _edit(draw, FIXTURE_TEXT, '",:[]{}s1 ')
    if edit == "value":
        return json.dumps(draw(documents()))
    doc = copy.deepcopy(FIXTURE)
    *parents, key = draw(st.sampled_from(KEY_PATHS))
    parent = doc
    for step in parents:
        parent = parent[step]
    parent[draw(words) + key[1:]] = parent.pop(key)
    return json.dumps(doc)


@PROPERTY
@given(edited_model_files(), st.sampled_from(FORMULAS[:2]))
def test_check_on_edited_model_file_exits_cleanly(tmp_path_factory, text, phi):
    path = tmp_path_factory.mktemp("fuzz") / "model.json"
    path.write_text(text)
    _run_cli(["check", str(path), phi, "--world", "s1", "--sigma", "?x=i"])
