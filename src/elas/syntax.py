"""Syntax of the epistemic language with assignment operators.

Terms are either variables (rigid, written ``?x``) or names (non-rigid,
written ``a``, ``bob``).  Formulas are built from equality atoms ``t = t'``,
predicate atoms ``P(t1, ..., tn)``, the Boolean connectives, the termed
knowledge operator ``K{t}`` and the assignment binder ``[?x := t]``.

``Kh{t}`` (the dual of ``K{t}``) and ``<?x := t>`` (the dual of the
assignment box) are surface sugar only: the parser expands them to
``~K{t}~`` and ``~[?x := t]~`` and the printer folds them back.

Concrete grammar (whitespace insignificant between tokens)::

    formula  := infix(0)
    infix(i) := infix(i+1) { OP_i infix(i+1) }     for i < 4; infix(4) := unary
    unary    := "~" unary | "K" "{" term "}" unary | "Kh" "{" term "}" unary
              | "[" VAR ":=" term "]" unary | "<" VAR ":=" term ">" unary
              | atom
    atom     := term "=" term | PRED [ "(" term { "," term } ")" ]
              | "(" formula ")" | "true" | "false"
    term     := VAR | NAME
    VAR      := "?" ident          NAME := lower-initial ident
    PRED     := upper-initial ident

OP_0 .. OP_3 are the rows of INFIX, loosest first: ``<->``, ``->`` (whose
chains group to the right), ``|`` and ``&``; unary operators bind tightest.

Formula and term nodes are hash-consed: every node class goes through the
factory ``interned``, so two structurally equal nodes are the same object
and ``==`` on nodes is ``is``, hashing O(1).  The table behind it holds its
nodes weakly and drops an entry when its node dies, so it keeps no formula
alive; a node pickled or deep-copied comes back as the live node with its
fields, interned again.  Built formulas may be shared between threads, but
the table is not locked: build them in one thread at a time.
"""

from __future__ import annotations

import re
import weakref
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterator, Union


class ParseError(Exception):
    """Lexical or grammatical error, with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.message = message
        self.pos = pos


class ArityError(ParseError):
    """The same predicate symbol was used with two different arities."""


class SubstitutionError(Exception):
    """Substitution would capture the replacement variable."""


class FreshnessError(Exception):
    """A variable required to be fresh already occurs in the input."""


# ---------------------------------------------------------------------------
# Hash-consing

class _Ref(weakref.ref):
    """The table's reference to a node, carrying the node's key."""
    __slots__ = ("key",)


_TABLE: dict = {}        # (class, *fields) -> _Ref to the one live node


def _drop(ref, pop=_TABLE.pop, table=_TABLE):
    # Called as the node dies, while its children, which its key holds, are
    # still alive; an entry made for the same key since then goes back.
    other = pop(ref.key, ref)
    if other is not ref:
        table[ref.key] = other


_NEW_SOURCE = """\
def __new__(cls{params}):
    key = (cls{params},)
    ref = get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = new(cls)
{sets}    ref = table[key] = Ref(node, drop)
    ref.key = key
    return node
"""


def _reduce(node):
    return type(node), tuple([getattr(node, f) for f in node.__match_args__])


def interned(cls):
    """Make cls a frozen dataclass whose instances are hash-consed.

    Constructing a node looks its class and fields up in one weak-valued
    table and returns the live node with the same ones if there is one, so
    equality and hashing are those of object identity.  The fields must be
    hashable, and the child nodes among them are compared by identity.

    cls declares its fields, then "__weakref__", as __slots__ itself:
    dataclass(slots=True) would build a second class whose __setattr__
    keeps the first one alive."""
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    params = "".join(", " + f for f in fields)
    sets = "".join(f"    set_{f}(node, {f})\n" for f in fields)
    scope = {"get": _TABLE.get, "table": _TABLE, "new": object.__new__,
             "Ref": _Ref, "drop": _drop}
    scope.update((f"set_{f}", cls.__dict__[f].__set__) for f in fields)   # slot setters
    exec(_NEW_SOURCE.format(params=params, sets=sets), scope)
    cls.__new__ = staticmethod(scope.pop("__new__"))   # no scope <-> function cycle
    cls.__reduce__ = _reduce
    # __new__ goes in first: dataclass writes the class docstring from the
    # signature, and without __new__ inspect would build a throwaway class
    # per node class to read object's.
    return dataclass(frozen=True, eq=False, init=False)(cls)


# ---------------------------------------------------------------------------
# Abstract syntax

@interned
class Var:
    __slots__ = ("id", "__weakref__")
    id: str


@interned
class Name:
    __slots__ = ("id", "__weakref__")
    id: str


Term = Union[Var, Name]


@interned
class Top:
    __slots__ = ("__weakref__",)


@interned
class Bot:
    __slots__ = ("__weakref__",)


@interned
class Eq:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: Term
    rhs: Term


@interned
class Pred:
    __slots__ = ("sym", "args", "__weakref__")
    sym: str
    args: tuple


@interned
class Not:
    __slots__ = ("body", "__weakref__")
    body: "Formula"


@interned
class And:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: "Formula"
    rhs: "Formula"


@interned
class Or:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: "Formula"
    rhs: "Formula"


@interned
class Implies:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: "Formula"
    rhs: "Formula"


@interned
class Iff:
    __slots__ = ("lhs", "rhs", "__weakref__")
    lhs: "Formula"
    rhs: "Formula"


@interned
class Knows:
    __slots__ = ("agent", "body", "__weakref__")
    agent: Term
    body: "Formula"


@interned
class Assign:
    __slots__ = ("var", "term", "body", "__weakref__")
    var: str
    term: Term
    body: "Formula"


Formula = Union[Top, Bot, Eq, Pred, Not, And, Or, Implies, Iff, Knows, Assign]

# The binary connectives, loosest first: symbol, node class, and whether a
# chain of it groups to the right.  The parser and both printers read it.
INFIX = (("<->", Iff, False), ("->", Implies, True), ("|", Or, False), ("&", And, False))
BINARY = (And, Or, Implies, Iff)
BOOLEAN = (Not,) + BINARY

# Deepest formula tree the parser accepts; the recursive walkers (printer,
# evaluators, translation) stay well inside Python's default stack.
MAX_DEPTH = 100


def kh(agent: Term, body: Formula) -> Formula:
    """The dual knowledge operator Kh{t}, i.e. ~K{t}~."""
    return Not(Knows(agent, Not(body)))


def assign_diamond(var: str, term: Term, body: Formula) -> Formula:
    """The assignment diamond <?x := t>, i.e. ~[?x := t]~."""
    return Not(Assign(var, term, Not(body)))


@dataclass(frozen=True)
class Signature:
    """Finite stock of symbols a formula or model is built over."""

    predicates: dict
    names: frozenset
    variables: frozenset = frozenset()

    def __reduce__(self):
        # predicates may be read-only (formula_signature), which pickles as a dict
        return Signature, (dict(self.predicates), self.names, self.variables)


# ---------------------------------------------------------------------------
# Lexer

# One token after optional whitespace: a variable, a word, punctuation
# (longest first), or any other character, which is an error.  \w is
# str.isalnum or "_"; an identifier must also start with str.isalpha or "_".
_TOKEN = re.compile(r"\s*(?:\?(\w*)|(\w+)|(<->|:=|->|[(){}[\],=~&|<>])|(\S))")
_KEYWORDS = {"true": "TRUE", "false": "FALSE"}


def _tokenize(text: str) -> list:
    """Return (kind, value, pos) triples; kinds: VAR NAME PRED PUNCT TRUE FALSE."""
    tokens = []
    for m in _TOKEN.finditer(text):
        group = m.lastindex
        value, pos = m.group(group), m.start(group)
        ident = value[:1].isalpha() or value[:1] == "_"
        if group == 1:
            if not ident:
                raise ParseError("expected identifier after '?'", pos - 1)
            tokens.append(("VAR", value, pos - 1))
        elif group == 2 and ident:
            kind = _KEYWORDS.get(value) or ("PRED" if value[0].isupper() else "NAME")
            tokens.append((kind, value, pos))
        elif group == 3:
            tokens.append(("PUNCT", value, pos))
        else:
            raise ParseError(f"unexpected character {value[0]!r}", pos)
    return tokens


def _collapse(tokens: list) -> list:
    """The tokens with each redundant pair of parentheses, a matched pair
    whose body is one matched pair, cut out, so that a run of them costs
    the recursive descent one level.  Of the two pairs, the outer '(' and
    the inner ')' are kept; no error can lie on the two tokens cut, so
    every error keeps its position.  An argument list, a '(' after a
    predicate, is never cut."""
    opens, close = [], {}
    for i, (kind, value, _) in enumerate(tokens):
        if kind == "PUNCT" and value == "(":
            opens.append(i)
        elif kind == "PUNCT" and value == ")" and opens:
            close[opens.pop()] = i
    cut = set()
    for i, j in close.items():
        if close.get(i + 1) == j - 1 and (i == 0 or tokens[i - 1][0] != "PRED"):
            cut.update((i + 1, j))
    return [tok for i, tok in enumerate(tokens) if i not in cut] if cut else tokens


# ---------------------------------------------------------------------------
# Parser

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _collapse(_tokenize(text))
        self.pos = 0
        self.arities: dict = {}

    def peek(self, offset: int = 0):
        i = self.pos + offset
        return self.tokens[i] if i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        if tok[0] is None:
            raise ParseError("unexpected end of input", tok[2])
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, pos = self.peek()
        if kind != "PUNCT" or val != value:
            raise ParseError(f"expected {value!r}", pos)
        self.pos += 1

    def at_punct(self, value: str) -> bool:
        kind, val, _ = self.peek()
        return kind == "PUNCT" and val == value

    def parse(self) -> Formula:
        phi = self.infix()
        kind, val, pos = self.peek()
        if kind is not None:
            raise ParseError(f"unexpected trailing input {val!r}", pos)
        return phi

    def infix(self, level: int = 0) -> Formula:
        """A chain of INFIX[level]'s connective over operands of the tighter
        levels.  Operands are parsed inline, as a helper would cost a stack
        frame per parenthesis."""
        symbol, node, right = INFIX[level]
        last = level + 1 == len(INFIX)
        phi = self.unary() if last else self.infix(level + 1)
        while self.at_punct(symbol):
            self.next()
            if right:
                return node(phi, self.infix(level))
            phi = node(phi, self.unary() if last else self.infix(level + 1))
        return phi

    def unary(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "PUNCT" and val == "~":
            self.next()
            return Not(self.unary())
        if kind == "PRED" and val in ("K", "Kh") and self.peek(1)[:2] == ("PUNCT", "{"):
            self.next()
            self.expect("{")
            agent = self.term()
            self.expect("}")
            body = self.unary()
            return Knows(agent, body) if val == "K" else kh(agent, body)
        if kind == "PUNCT" and val in ("[", "<"):
            close = "]" if val == "[" else ">"
            self.next()
            vkind, vval, vpos = self.peek()
            if vkind != "VAR":
                raise ParseError("binder position requires a variable (?x), not a name", vpos)
            self.next()
            self.expect(":=")
            term = self.term()
            self.expect(close)
            body = self.unary()
            if close == "]":
                return Assign(vval, term, body)
            return assign_diamond(vval, term, body)
        return self.atom()

    def atom(self) -> Formula:
        kind, val, pos = self.peek()
        if kind == "TRUE":
            self.next()
            return Top()
        if kind == "FALSE":
            self.next()
            return Bot()
        if kind == "PUNCT" and val == "(":
            self.next()
            phi = self.infix()
            self.expect(")")
            return phi
        if kind == "PRED":
            self.next()
            args = []
            if self.at_punct("("):
                self.next()
                args.append(self.term())
                while self.at_punct(","):
                    self.next()
                    args.append(self.term())
                self.expect(")")
            seen = self.arities.get(val)
            if seen is not None and seen != len(args):
                raise ArityError(
                    f"predicate {val} used with arity {len(args)} after arity {seen}", pos)
            self.arities[val] = len(args)
            return Pred(val, tuple(args))
        if kind in ("VAR", "NAME"):
            lhs = self.term()
            _, eqval, eqpos = self.peek()
            if not self.at_punct("="):
                raise ParseError("expected '=' after a term", eqpos)
            self.next()
            return Eq(lhs, self.term())
        raise ParseError(f"expected a formula, found {val!r}" if kind else "unexpected end of input", pos)

    def term(self) -> Term:
        kind, val, pos = self.peek()
        if kind == "VAR":
            self.next()
            return Var(val)
        if kind == "NAME":
            self.next()
            return Name(val)
        raise ParseError("expected a term (?x or a name)", pos)


def parse_formula(text: str, signature: Signature = None) -> Formula:
    """Parse concrete syntax into a formula.

    Arities are inferred from the first occurrence of each predicate and
    must be used consistently; when a signature is supplied, every symbol
    must also agree with it.
    """
    parser = _Parser(text)
    try:
        phi = parser.parse()
    except RecursionError:
        raise ParseError("formula nested too deeply", 0) from None
    if formula_depth(phi) > MAX_DEPTH:
        raise ParseError(f"formula nested too deeply (more than {MAX_DEPTH} "
                         "levels)", 0)
    if signature is not None:
        for sym, arity in parser.arities.items():
            if sym not in signature.predicates:
                raise ParseError(f"predicate {sym} not in signature", 0)
            if signature.predicates[sym] != arity:
                raise ArityError(
                    f"predicate {sym} has arity {signature.predicates[sym]} "
                    f"in the signature, used with {arity}", 0)
        for nm in formula_signature(phi).names:
            if nm not in signature.names:
                raise ParseError(f"name {nm} not in signature", 0)
    return phi


def formula_depth(phi: Formula) -> int:
    """Height of the formula tree (an atom has height 1), computed without
    recursion so that it is safe on any input."""
    height, todo = 0, [(phi, 1)]
    while todo:
        f, d = todo.pop()
        height = max(height, d)
        for kid in children(f):
            todo.append((kid, d + 1))
    return height


def parse_term(text: str) -> Term:
    parser = _Parser(text)
    t = parser.term()
    kind, val, pos = parser.peek()
    if kind is not None:
        raise ParseError(f"unexpected trailing input {val!r}", pos)
    return t


# ---------------------------------------------------------------------------
# Printer

# Binding levels, loosest first: the rows of INFIX, unary operators, atoms.
_UNARY, _ATOM = len(INFIX), len(INFIX) + 1
_LEVEL = {node: level for level, (_, node, _) in enumerate(INFIX)}


def print_term(t: Term) -> str:
    return "?" + t.id if isinstance(t, Var) else t.id


def _operand(phi: Formula) -> str:
    # Equality atoms under a unary operator get explicit parentheses:
    # [?x := b] K{a} (?x = b) reads better than the bare chain.
    if isinstance(phi, Eq):
        return "(" + _pp(phi, 0) + ")"
    return _pp(phi, _UNARY)


def _render(phi: Formula):
    level = _LEVEL.get(type(phi))
    if level is not None:       # the operand on the side it groups to may chain
        symbol, _, right = INFIX[level]
        return (_pp(phi.lhs, level + right) + f" {symbol} "
                + _pp(phi.rhs, level + (not right)), level)
    match phi:
        case Top():
            return "true", _ATOM
        case Bot():
            return "false", _ATOM
        case Eq(lhs, rhs):
            return f"{print_term(lhs)} = {print_term(rhs)}", _ATOM
        case Pred(sym, args):
            if not args:
                return sym, _ATOM
            return sym + "(" + ", ".join(print_term(a) for a in args) + ")", _ATOM
        case Not(Knows(agent, Not(inner))):
            return "Kh{" + print_term(agent) + "} " + _operand(inner), _UNARY
        case Not(Assign(var, term, Not(inner))):
            return f"<?{var} := {print_term(term)}> " + _operand(inner), _UNARY
        case Not(body):
            return "~" + _pp(body, _UNARY), _UNARY
        case Knows(agent, body):
            return "K{" + print_term(agent) + "} " + _operand(body), _UNARY
        case Assign(var, term, body):
            return f"[?{var} := {print_term(term)}] " + _operand(body), _UNARY
    raise TypeError(f"not a formula: {phi!r}")


def _pp(phi: Formula, required: int) -> str:
    s, level = _render(phi)
    return "(" + s + ")" if level < required else s


def print_formula(phi: Formula) -> str:
    """Render with minimal parentheses; parse_formula(print_formula(phi)) == phi."""
    return _pp(phi, 0)


# ---------------------------------------------------------------------------
# Tree structure: the only code below that knows which node holds which
# subformulas and terms; every structural walker is a fold over these three.

def children(phi: Formula) -> tuple:
    """The immediate subformulas, left to right."""
    if isinstance(phi, BINARY):
        return (phi.lhs, phi.rhs)
    if isinstance(phi, (Not, Knows, Assign)):
        return (phi.body,)
    return ()


def terms_of(phi: Formula) -> tuple:
    """The terms the node holds itself: the arguments of an atom, the index
    of K{t}, the term of a binder."""
    node = type(phi)
    if node is Eq:
        return (phi.lhs, phi.rhs)
    if node is Pred:
        return phi.args
    if node is Knows:
        return (phi.agent,)
    return (phi.term,) if node is Assign else ()


def _same(t: Term) -> Term:
    return t


def rebuild(phi: Formula, kids, fterm=_same) -> Formula:
    """The same node over new children, with fterm applied to its own
    terms; rebuild(phi, children(phi)) == phi."""
    if isinstance(phi, BOOLEAN):
        return type(phi)(*kids)
    match phi:
        case Eq(lhs, rhs):
            return Eq(fterm(lhs), fterm(rhs))
        case Pred(sym, args):
            return Pred(sym, tuple(map(fterm, args)))
        case Knows(agent, _):
            return Knows(fterm(agent), *kids)
        case Assign(var, term, _):
            return Assign(var, fterm(term), *kids)
    return phi


def subformulas(phi: Formula) -> Iterator[Formula]:
    """Every subformula occurrence, phi first, in left-to-right preorder."""
    yield phi
    for kid in children(phi):
        yield from subformulas(kid)


# ---------------------------------------------------------------------------
# Variables, substitution, relettering

def _collect(phi: Formula, preds: dict, names: set) -> set:
    """The free variables of phi; its predicates and names are recorded
    on the way."""
    terms = terms_of(phi)
    if isinstance(phi, Pred):
        preds[phi.sym] = len(terms)
    free = set()
    for kid in children(phi):
        free |= _collect(kid, preds, names)
    if isinstance(phi, Assign):
        free.discard(phi.var)
    for t in terms:
        if isinstance(t, Var):
            free.add(t.id)
        else:
            names.add(t.id)
    return free


def free_vars(phi: Formula) -> frozenset:
    """Free variables; the term of a binder counts as free even when it is
    the bound variable itself."""
    return formula_signature(phi).variables


def all_vars(phi: Formula) -> frozenset:
    """Every variable occurring in the formula, free, bound or binding."""
    out = set()
    for f in subformulas(phi):
        if isinstance(f, Assign):
            out.add(f.var)
        for t in terms_of(f):
            if isinstance(t, Var):
                out.add(t.id)
    return frozenset(out)


# formula -> its Signature; held weakly, so it keeps no formula alive
_SIGNATURES = weakref.WeakKeyDictionary()


def formula_signature(phi: Formula) -> Signature:
    """Exactly the predicates, names and free variables occurring in phi,
    collected in one walk the first time phi is asked about and remembered
    while phi lives; its predicates are read-only."""
    try:
        return _SIGNATURES[phi]
    except KeyError:
        sig = _SIGNATURES[phi] = _walk_signature(phi)
        return sig
    except TypeError:       # not weakly referable, so not a node: nothing to remember
        return _walk_signature(phi)


def _walk_signature(phi: Formula) -> Signature:
    preds: dict = {}
    names: set = set()
    free = _collect(phi, preds, names)
    return Signature(MappingProxyType(preds), frozenset(names), frozenset(free))


def is_el_fragment(phi: Formula) -> bool:
    """True iff the formula contains no assignment binder."""
    return not any(isinstance(f, Assign) for f in subformulas(phi))


def _subst(phi: Formula, y: str, x: str):
    """phi[?y/?x], or None as soon as a binder on ?y would capture a free
    ?x.  The walk stops below [?x := t], and a binder's own term is outside
    its scope, so it is substituted as a free position of the context."""
    def fterm(t):
        return Var(y) if type(t) is Var and t.id == x else t

    def walk(f, under_y):
        if under_y and any(type(t) is Var and t.id == x for t in terms_of(f)):
            return None
        kids = children(f)
        if type(f) is Assign:
            if f.var == x:
                return rebuild(f, kids, fterm)
            under_y = under_y or f.var == y
        new = []
        for kid in kids:
            kid = walk(kid, under_y)
            if kid is None:
                return None
            new.append(kid)
        return rebuild(f, new, fterm)
    return walk(phi, False)


def is_admissible(phi: Formula, y: str, x: str) -> bool:
    """True iff substituting y for the free occurrences of x keeps every
    introduced y occurrence free."""
    return _subst(phi, y, x) is not None


def substitute(phi: Formula, y: str, x: str) -> Formula:
    """phi with y substituted for the free occurrences of x.

    Raises SubstitutionError when some introduced occurrence of y would be
    captured by a binder.
    """
    result = _subst(phi, y, x)
    if result is None:
        raise SubstitutionError(
            f"substituting ?{y} for ?{x} is captured by a binder on ?{y}")
    return result


def reletter(phi: Formula, z: str) -> Formula:
    """Rename the outermost binder [?x := t] body to [?z := t] body[?z/?x].

    z must occur nowhere in the formula (in particular not in t).
    """
    if not isinstance(phi, Assign):
        raise ValueError("reletter expects a formula of the shape [?x := t] ...")
    if z in all_vars(phi):
        raise FreshnessError(f"?{z} already occurs in the formula")
    return Assign(z, phi.term, substitute(phi.body, z, phi.var))


def fresh_var(avoid) -> str:
    """First of w0, w1, ... not in avoid."""
    i = 0
    while f"w{i}" in avoid:
        i += 1
    return f"w{i}"


def knows_who(knower: Term, named: str) -> Formula:
    """The knowing-who construction: the knower identifies the bearer of the
    name across all epistemic alternatives."""
    w = fresh_var({knower.id} if isinstance(knower, Var) else ())
    return Assign(w, Name(named), Knows(knower, Eq(Var(w), Name(named))))


def node_count(phi) -> int:
    """Number of AST nodes, counting terms; binder variables count with
    their binder node."""
    return sum(1 + len(terms_of(f)) for f in subformulas(phi))
