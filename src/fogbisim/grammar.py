"""Grammar model, text-format parser, sink words, derived constants.

A grammar is a finite set of root-rewriting rules A(x1..xm) -a-> E over
ranked nonterminals. Besides parsing and validation this module
computes the shortest sink words w_[A,i] (words of rules taking
A(x1..xm) down to the variable x_i), d0 (one more than the longest of
them), and the family of numeric constants that bound the sizes
appearing in the balancing/base machinery. Each is derived once, on
first use, and kept on the grammar. Every integer the tools print has
at most MAX_DIGITS digits.
"""

from __future__ import annotations

import re
from collections import namedtuple
from functools import cached_property

from .terms import (
    MAX_DIGITS, NAME, TOO_LARGE, VAR, TermStore, TermError, _arity_error,
    _is_var, bounded_power, parse_term, read_int,
)


class GrammarError(Exception):
    pass


class Rule:
    def __init__(self, rid: str, lhs: str, action: str, rhs: int):
        self.rid = rid
        self.lhs = lhs
        self.action = action
        self.rhs = rhs

    def __repr__(self):
        return "Rule(%s: %s -%s-> %d)" % (self.rid, self.lhs, self.action, self.rhs)


class Grammar:
    """Ranked nonterminals, actions and rules, with the tables the rule
    steps read. The sink table, d0, stepinc and the constants are cached
    properties: each is derived once, on first use, so parsing pays for
    none of them, and d0 needs the sink table but not the constants."""

    def __init__(self, ts: TermStore, arities: dict[str, int],
                 actions: list[str], rules: list[Rule]):
        if not arities or not actions or not rules:
            raise GrammarError("nonterminals, actions and rules must be nonempty")
        self.ts = ts
        self.arities = dict(arities)
        self.actions = list(actions)
        self.rules = list(rules)
        self.rule_by_id = {}
        for r in rules:
            if r.rid in self.rule_by_id:
                raise GrammarError("duplicate rule id %r" % r.rid)
            self.rule_by_id[r.rid] = r
        self.rhs_nodes = self._validate()
        # firing[A][a]: (rule id, rhs nodes) of A's a-rules; actions and
        # rules in declaration order (the sort by action is stable)
        self.firing: dict[str, dict[str, list]] = {nt: {} for nt in arities}
        rank = {act: i for i, act in enumerate(self.actions)}
        for r, below in sorted(zip(self.rules, self.rhs_nodes),
                               key=lambda rb: rank[rb[0].action]):
            self.firing[r.lhs].setdefault(r.action, []).append((r.rid, below))
        # (term, action) -> successors; filled by lts.step_action
        self.successors: dict[tuple[int, str], tuple[tuple[str, int], ...]] = {}

    def _validate(self) -> list[list[int]]:
        """Check names and rules; return each right-hand side's nodes in
        ascending id order, children first, from one walk per rule."""
        for kind, names in (("nonterminal name", self.arities),
                            ("action name", self.actions),
                            ("rule id", self.rule_by_id)):
            if "" in names:
                raise GrammarError("empty %s" % kind)
        nodes = self.ts.nodes
        rhs_nodes = []
        for r in self.rules:
            if r.lhs not in self.arities:
                raise GrammarError("rule %s: unknown nonterminal %r" % (r.rid, r.lhs))
            if r.action not in self.actions:
                raise GrammarError("rule %s: unknown action %r" % (r.rid, r.action))
            below = sorted(self.ts.reachable([r.rhs]))
            bad = set()
            for u in below:
                node = nodes[u]
                if node[0] == VAR:
                    if node[1] > self.arities[r.lhs]:
                        bad.add(node[1])
                    continue
                fault = ("not finite" if max(node[2], default=-1) >= u else
                         _arity_error(self.arities, node[1], len(node[2])))
                if fault:
                    raise GrammarError("rule %s: rhs: %s" % (r.rid, fault))
            if bad:
                raise GrammarError(
                    "rule %s: rhs uses x%d beyond arity %d of %s"
                    % (r.rid, min(bad), self.arities[r.lhs], r.lhs))
            rhs_nodes.append(below)
        return rhs_nodes

    @cached_property
    def sink(self) -> dict[tuple[str, int], tuple[str, ...]]:
        """The shortest sink-word table: sink[(A, i)] is the shortest
        (A,i)-sink word."""
        return compute_sink_table(self)

    @cached_property
    def d0(self) -> int:
        """One more than the longest shortest sink word: the one
        constant balancing and the stair presentation read."""
        return 1 + max(map(len, self.sink.values()), default=0)

    @cached_property
    def stepinc(self) -> int:
        """The largest nonterminal-node count of a rule right-hand side:
        the one constant the size bounds of bases read."""
        return max(sum(not self.ts.is_var(u) for u in below)
                   for below in self.rhs_nodes)

    @cached_property
    def constants(self) -> GrammarConstants:
        """The derived constants, d0 and stepinc among them."""
        return compute_constants(self)

    def lhs_term(self, nt: str) -> int:
        """A(x1..xm) for the nonterminal's declared arity."""
        m = self.arities[nt]
        return self.ts.app(nt, tuple(self.ts.var(i) for i in range(1, m + 1)))


_DECL = re.compile(r"(%s)\s*/\s*([0-9]+)" % NAME.pattern)
# rule ID: LHS -ACTION-> RHS, where LHS is NAME or NAME(x1,..,xm)
_RULE = re.compile(
    r"rule\s+(N)\s*:\s*(N)\s*(?:\(([^()]*)\))?\s*-+\s*(N)\s*-+>(.*)"
    .replace("N", NAME.pattern))


def parse_grammar(text: str) -> Grammar:
    """Parse the line-oriented grammar file format."""
    ts = TermStore()
    arities: dict[str, int] = {}
    actions: list[str] = []
    rules: list[Rule] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("nonterminals:"):
                for part in line[len("nonterminals:"):].split(","):
                    m = _DECL.fullmatch(part.strip())
                    if m is None:
                        raise GrammarError("line %d: cannot parse nonterminal "
                                           "%r" % (lineno, part.strip()))
                    name = m.group(1)
                    if _is_var(name):
                        raise GrammarError("line %d: nonterminal %r is spelled "
                                           "like a variable" % (lineno, name))
                    if name in arities:
                        raise GrammarError("duplicate nonterminal %r" % name)
                    arities[name] = read_int(m.group(2), "arity")
            elif line.startswith("actions:"):
                for part in line[len("actions:"):].split(","):
                    a = part.strip()
                    if not NAME.fullmatch(a):
                        raise GrammarError("line %d: cannot parse action %r"
                                           % (lineno, a))
                    if a in actions:
                        raise GrammarError("duplicate action %r" % a)
                    actions.append(a)
            elif line.startswith("rule "):
                m = _RULE.fullmatch(line)
                if m is None:
                    raise GrammarError("line %d: cannot parse rule %r"
                                       % (lineno, line))
                rid, lhs_name, lhs_args, action, rhs_txt = m.groups()
                args = [] if lhs_args is None else lhs_args.split(",")
                expect = ["x%d" % i for i in range(1, len(args) + 1)]
                if [a.strip() for a in args] != expect:
                    raise GrammarError(
                        "line %d: lhs arguments must be x1..xm in order" % lineno)
                if lhs_name not in arities:
                    raise GrammarError("line %d: unknown lhs %r" % (lineno, lhs_name))
                if len(args) != arities[lhs_name]:
                    raise GrammarError(
                        "line %d: lhs %s has %d arguments, its arity is %d"
                        % (lineno, lhs_name, len(args), arities[lhs_name]))
                rhs = parse_term(ts, rhs_txt.strip(), arities)
                rules.append(Rule(rid, lhs_name, action, rhs))
            else:
                raise GrammarError("line %d: cannot parse %r" % (lineno, line))
        except (ValueError, TermError) as e:
            raise GrammarError("line %d: %s" % (lineno, e)) from e
    return Grammar(ts, arities, actions, rules)


def compute_sink_table(g: Grammar) -> dict[tuple[str, int], tuple[str, ...]]:
    """Shortest (A,i)-sink words, deterministically tie-broken: maps
    (nonterminal, position) to a tuple of rule ids w with
    A(x1..xm) -w-> x_i and no shorter such word; among shortest words
    the lexicographically least by rule declaration order is kept.
    Positions no word sinks to have no entry.

    Dynamic programming over words of rule indices, which order by
    (length, word) exactly as the tie-break asks: word[A,i] relaxes via
    each rule A -r-> E using the best way to sink the finite term E to
    x_i; iterate to a fixpoint.
    """
    nodes = g.ts.nodes
    best: dict[tuple[str, int], tuple[int, ...]] = {}

    def order(w):
        return (len(w), w)

    changed = True
    while changed:
        changed = False
        for k, (r, below) in enumerate(zip(g.rules, g.rhs_nodes)):
            for i in range(1, g.arities[r.lhs] + 1):
                # the best known word sinking each node of E to x_i
                word = {}
                for u in below:
                    node = nodes[u]
                    if node[0] == VAR:
                        word[u] = () if node[1] == i else None
                        continue
                    word[u] = min(
                        (best[(node[1], j)] + word[c]
                         for j, c in enumerate(node[2], 1)
                         if (node[1], j) in best and word[c] is not None),
                        key=order, default=None)
                if word[r.rhs] is None:
                    continue
                cand = (k,) + word[r.rhs]
                old = best.get((r.lhs, i))
                if old is None or order(cand) < order(old):
                    best[(r.lhs, i)] = cand
                    changed = True
    return {p: tuple(g.rules[k].rid for k in w) for p, w in best.items()}


GrammarConstants = namedtuple(
    "GrammarConstants", "m hinc stepinc d0 d1 d2 d3 d4 d5 n s g c")


def _power(b: int, e: int, name: str) -> int:
    """b ** e for the constant `name`, refused by name when it has more
    than MAX_DIGITS digits (`bounded_power`)."""
    v = bounded_power(b, e)
    if v is None:
        raise GrammarError("constant %s exceeds %d digits" % (name, MAX_DIGITS))
    return v


def compute_constants(g: Grammar) -> GrammarConstants:
    """The bounds d1..d5, n, s, g and c, derived from d0, stepinc, the
    largest arity m and hinc = max(height(E) - 1, 0) over the right-hand
    sides. A GrammarError names the first constant of more than
    MAX_DIGITS digits."""
    ts = g.ts
    m = max(g.arities.values())
    h: dict[int, int] = {}  # right-hand-side node -> height, in id order
    for u in sorted(set().union(*g.rhs_nodes)):
        kids = ts.children(u)
        h[u] = 1 + max(h[c] for c in kids) if kids else 0
    hinc = max(max(h[r.rhs] for r in g.rules) - 1, 0)
    stepinc = g.stepinc
    d0 = g.d0
    nN = len(g.arities)
    nR = len(g.rules)
    # the non-variable subterms of all right-hand sides
    nonvar = sum(not ts.is_var(u) for u in h)
    d1 = 2 * nN * _power(max(d0, _power(nR, d0, "d1")), m + 2, "d1")
    d2 = d0 + (1 + d0 * hinc) * (d0 - 1)
    d3 = _power(max(d0, _power(nR, d0, "d3")), 2, "d3")
    d4 = d1 * _power(1 + nonvar, d2 + d0 - 1, "d4")
    d5 = (d2 + d0 - 1) * (1 + (d0 - 1) * hinc)
    n = _power(m, d0, "n")
    s = _power(m, d0 + 1, "s") + (m + 2) * d0 * stepinc + (d2 + d0 - 1) * stepinc
    gg = (d2 + d0 - 1) * stepinc
    c = max(d3, 2 * d4 * d5)
    consts = GrammarConstants(m, hinc, stepinc, d0, d1, d2, d3, d4, d5,
                              n, s, gg, c)
    for name, v in zip(consts._fields, consts):
        if v >= TOO_LARGE:
            raise GrammarError("constant %s exceeds %d digits"
                               % (name, MAX_DIGITS))
    return consts
