"""Finitely presented groups and Todd-Coxeter coset enumeration.

Words are tuples of (generator-index, +-1) pairs.  The enumerator is an
HLT-style scan with a union-find coset table: every live coset is scanned
against every relator (definitions happen during path following, lowest
coset first), coincidences collapse through the union-find, and a final
sweep completes every (coset, letter) entry.  The live cosets are then
numbered in the order they were defined, coset 0 being the subgroup, so
the table and every result read off it follow the definition strategy.
Defining more than COSET_LIMIT cosets raises ResourceExhausted.

The built-in amalgam catalog carries the seven distinct (L, B) pairs of
locally 2-transitive vertex/edge stabilizer amalgams used by the pair
search, with their presentations and expected orders.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .group import PermutationGroup, ResourceExhausted
from .perm import Permutation, evaluate_word

SENTINEL = -1
COSET_LIMIT = 10**6


# -- words -------------------------------------------------------------------


def free_reduce(word):
    out = []
    for idx, exp in word:
        if out and out[-1][0] == idx and out[-1][1] == -exp:
            out.pop()
        else:
            out.append((idx, exp))
    return tuple(out)


def cyclic_reduce(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return tuple(w)


def invert_word(word):
    return tuple((idx, -exp) for idx, exp in reversed(word))


_TOKEN_RE = re.compile(r"\s*([A-Za-z_][A-Za-z_0-9]*|\^|-?\d+|[()\[\],*])")


def parse_word(text: str, names) -> tuple:
    """Parse word syntax: products ``a*b``, powers ``a^2``, conjugation
    ``x^s = s^-1*x*s``, parentheses, and commutators ``[a,b] = a^-1*b^-1*a*b``.
    """
    pos = 0
    tokens = []
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError("cannot tokenize %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()
    index = {name: i for i, name in enumerate(names)}
    state = {"i": 0}

    def peek():
        return tokens[state["i"]] if state["i"] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of word in %r" % text)
        if expected is not None and tok != expected:
            raise ValueError("expected %r, got %r in %r" % (expected, tok, text))
        state["i"] += 1
        return tok

    def parse_expr():
        word = list(parse_factor())
        while peek() == "*":
            take("*")
            word.extend(parse_factor())
        return tuple(word)

    def parse_factor():
        tok = peek()
        if tok == "(":
            take("(")
            inner = parse_expr()
            take(")")
        elif tok == "[":
            take("[")
            a = parse_expr()
            take(",")
            b = parse_expr()
            take("]")
            inner = invert_word(a) + invert_word(b) + a + b
        elif tok in index:
            take()
            inner = ((index[tok], 1),)
        else:
            raise ValueError("unknown symbol %r in %r" % (tok, text))
        while peek() == "^":
            take("^")
            nxt = peek()
            if nxt is not None and re.fullmatch(r"-?\d+", nxt):
                take()
                n = int(nxt)
                if n >= 0:
                    inner = inner * n
                else:
                    inner = invert_word(inner) * (-n)
            else:
                conj = parse_factor()
                inner = invert_word(conj) + inner + conj
        return inner

    word = parse_expr()
    if peek() is not None:
        raise ValueError("trailing tokens in %r" % text)
    return free_reduce(word)


@dataclass
class FpPresentation:
    names: list
    relators: list  # words, freely reduced

    @classmethod
    def parse(cls, names, relator_strings):
        names = list(names)
        relators = [free_reduce(parse_word(s, names)) for s in relator_strings]
        return cls(names, relators)

    def word(self, s: str):
        return parse_word(s, self.names)

    @property
    def ngens(self):
        return len(self.names)


# -- Todd-Coxeter ------------------------------------------------------------


def _letters(word, ngens):
    # letter 2*i is generator i, letter 2*i+1 its inverse
    out = []
    for idx, exp in word:
        if exp >= 0:
            out.extend([2 * idx] * exp)
        else:
            out.extend([2 * idx + 1] * (-exp))
    return out


class CosetTable:
    """Complete coset table for a subgroup of a finitely presented group."""

    def __init__(self, pres, subgroup_words, n, neighbors, collapse_log):
        self.presentation = pres
        self.subgroup_words = list(subgroup_words)
        self.n = n
        self.collapse_log = collapse_log
        self._neighbors = neighbors  # n x 2*ngens, complete
        self.generator_perms = [
            Permutation([neighbors[c][2 * i] for c in range(n)])
            for i in range(pres.ngens)
        ]
        for i in range(pres.ngens):
            inv = Permutation([neighbors[c][2 * i + 1] for c in range(n)])
            if inv != self.generator_perms[i].inverse():
                raise AssertionError("coset table inverse inconsistency")

    @property
    def coset_count(self):
        return self.n

    def trace(self, coset, word):
        c = coset
        for letter in _letters(word, self.presentation.ngens):
            c = self._neighbors[c][letter]
        return c

    def verify_closed(self):
        """Check that every relator closes at every coset and every subgroup
        word at coset 0.  A relator is traced from all cosets at once, one
        gather per letter over the columns of the table."""
        columns = np.array(self._neighbors, dtype=np.int64).reshape(self.n, -1).T
        start = np.arange(self.n)
        for rel in self.presentation.relators:
            c = start
            for letter in _letters(rel, self.presentation.ngens):
                c = columns[letter][c]
            bad = np.flatnonzero(c != start)
            if bad.size:
                raise AssertionError("relator does not close at coset %d" % bad[0])
        for w in self.subgroup_words:
            if self.trace(0, w) != 0:
                raise AssertionError("subgroup generator moves coset 0")
        return True

    def group(self, order=None) -> PermutationGroup:
        return PermutationGroup(self.generator_perms, self.n, order=order)

    def evaluate(self, word) -> Permutation:
        return evaluate_word(word, self.generator_perms)


def todd_coxeter(pres: FpPresentation, subgroup_words=()) -> CosetTable:
    ngens = pres.ngens
    width = 2 * ngens
    relator_paths = [
        _letters(cyclic_reduce(r), ngens) for r in pres.relators if cyclic_reduce(r)
    ]
    sub_paths = [_letters(free_reduce(w), ngens) for w in subgroup_words]

    labels = []
    neighbors = []

    def add_vertex():
        if len(labels) >= COSET_LIMIT:
            raise ResourceExhausted("more than %d cosets defined" % COSET_LIMIT)
        c = len(labels)
        labels.append(c)
        neighbors.append([SENTINEL] * width)
        return c

    def find(c):
        root = c
        while labels[root] != root:
            root = labels[root]
        while labels[c] != root:
            labels[c], c = root, labels[c]
        return root

    def follow_step(c, letter):
        c = find(c)
        ns = neighbors[c]
        if ns[letter] == SENTINEL:
            d = add_vertex()
            ns[letter] = d
            neighbors[d][letter ^ 1] = c
        return find(ns[letter])

    def unify(c1, c2):
        stack = [(c1, c2)]
        while stack:
            a, b = stack.pop()
            a, b = find(a), find(b)
            if a == b:
                continue
            a, b = min(a, b), max(a, b)
            labels[b] = a
            na, nb = neighbors[a], neighbors[b]
            for d in range(width):
                t = nb[d]
                if t == SENTINEL:
                    continue
                if na[d] == SENTINEL:
                    na[d] = t
                else:
                    stack.append((na[d], t))

    start = add_vertex()
    for path in sub_paths:
        c = start
        for letter in path:
            c = follow_step(c, letter)
        unify(c, start)

    to_visit = 0
    while to_visit < len(labels):
        c = find(to_visit)
        if c == to_visit:
            for path in relator_paths:
                d = c
                for letter in path:
                    d = follow_step(d, letter)
                unify(d, c)
            if find(c) == c:
                for letter in range(width):
                    follow_step(c, letter)
        to_visit += 1

    # compress live cosets in order of definition
    live = [c for c in range(len(labels)) if find(c) == c]
    renumber = {c: i for i, c in enumerate(live)}
    n = len(live)
    table = [[renumber[find(neighbors[c][d])] for d in range(width)] for c in live]
    ct = CosetTable(
        pres,
        subgroup_words,
        n,
        table,
        collapse_log={"defined": len(labels), "live": n, "collapsed": len(labels) - n},
    )
    ct.verify_closed()
    return ct


# -- the amalgam catalog -------------------------------------------------


@dataclass
class AmalgamSpec:
    name: str
    presentation: FpPresentation
    b_words: list = field(default_factory=list)
    expected_orders: tuple = (0, 0)

    def b_generator_words(self):
        return [self.presentation.word(s) for s in self.b_words]


_CATALOG = [
    (
        "A4s",
        "x y s".split(),
        ["x^2", "y^2", "s^3", "[x,y]", "x^s*y^-1", "y^s*(x*y)^-1"],
        ["s"],
        (12, 3),
    ),
    (
        "S4",
        "x y s t".split(),
        ["x^2", "y^2", "s^3", "t^2", "[x,y]", "s^t*s", "x^s*y^-1", "y^s*(x*y)^-1", "x^t*y^-1"],
        ["s", "t"],
        (24, 6),
    ),
    (
        "Z3xA4",
        "x y c d".split(),
        ["x^2", "y^2", "c^3", "d^3", "[x,y]", "[c,d]", "[c,x]", "[c,y]", "x^d*y^-1", "y^d*(x*y)^-1"],
        ["c", "d"],
        (36, 9),
    ),
    (
        "Z3sS4",
        "x y c d t".split(),
        [
            "x^2", "y^2", "c^3", "d^3", "t^2", "[x,y]", "[c,d]", "[c,x]", "[c,y]",
            "c^t*c", "d^t*d", "x^d*y^-1", "y^d*(x*y)^-1", "x^t*y^-1",
        ],
        ["c", "d", "t"],
        (72, 18),
    ),
    (
        "S3xS4",
        "x y c d r s".split(),
        [
            "x^2", "y^2", "c^3", "d^3", "r^2", "s^2", "[x,y]", "[c,d]", "[r,s]",
            "[c,x]", "[c,y]", "c^r*c", "[d,r]", "[c,s]", "d^s*d",
            "x^d*y^-1", "y^d*(x*y)^-1", "x^s*y^-1", "[r,x]", "[r,y]",
        ],
        ["c", "d", "r", "s"],
        (144, 36),
    ),
    (
        "4-AT",
        "t x y c d e".split(),
        [
            "t^2", "c^3", "d^3", "e^3", "x^2", "y^2",
            "[c,d]", "[c,e]", "[d,e]*c^-1", "[x,y]",
            "(c*x)^2", "(d*x)^2", "[e,x]", "(c*y)^2", "[d,y]", "(e*y)^2",
            "c^t*d", "y*(e*t)^2*e^-1*t*e^-1", "(e*t)^4*x",
        ],
        ["x", "y", "c", "d", "e"],
        (432, 108),
    ),
    (
        "7-AT",
        "h p q r s t u v k".split(),
        [
            "h^4", "p^3", "q^3", "r^3", "s^3", "t^3", "u^3", "v^2", "k^2",
            "k*h^2",
            "[p,q]", "[p,r]", "[p,s]", "[p,t]", "[p,u]",
            "[q,r]", "[q,s]", "[q,t]", "[q,u]",
            "[r,s]", "[r,t]", "[u,s]",
            "[s,t]*p^-1", "[u,r]*q^-1", "[t,u]*(q*r*s*p^-1)^-1",
            "[k,v]", "(t*k)^2", "(r*k)^2", "[p,k]", "(q*k)^2", "(s*k)^2", "[u,k]",
            "(t*v)^2", "[r,v]", "(p*v)^2", "(q*v)^2", "[s,v]", "(u*v)^2",
            "[p,h]",
            "q^h*(q^-1*r)^-1", "r^h*(q*r)^-1",
            "s^h*(p*q^-1*r^-1*s^-1*t^-1)^-1", "t^h*(p^-1*q*r^-1*s^-1*t)^-1",
            "(h*u*v)^2", "(h*u)^3",
        ],
        ["p", "q", "r", "s", "t", "u", "v", "k"],
        (11664, 2916),
    ),
]

_ALIASES = {"4AT": "4-AT", "7AT": "7-AT", "A4": "A4s", "C3xA4": "Z3xA4", "C3sS4": "Z3sS4"}


def amalgam_catalog():
    out = []
    for name, names, rels, b_words, expected in _CATALOG:
        out.append(
            AmalgamSpec(
                name=name,
                presentation=FpPresentation.parse(names, rels),
                b_words=list(b_words),
                expected_orders=expected,
            )
        )
    return out


def amalgam_by_name(name: str) -> AmalgamSpec:
    name = _ALIASES.get(name, name)
    for spec in amalgam_catalog():
        if spec.name == name:
            return spec
    raise KeyError("unknown amalgam %r" % name)
