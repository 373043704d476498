import hashlib
import os
from collections import deque

import pytest

from fogbisim.terms import TermStore, parse_term, render_term, varin
from fogbisim.grammar import (
    Grammar, GrammarError, Rule, compute_constants, compute_sink_table,
    parse_grammar,
)
from fogbisim.lts import enabled_actions, step_action, step_rule

from gen import chain_grammar, deep_grammar, is_finite, random_grammar

GRAMMAR_DIR = os.path.join(os.path.dirname(__file__), "..", "grammars")


def load(name):
    with open(os.path.join(GRAMMAR_DIR, name)) as f:
        return parse_grammar(f.read())


def g1():
    return load("g1.fog")


def test_parse_basic():
    g = parse_grammar(
        "nonterminals: A/3, B/0, C/2, D/2\n"
        "actions: a, b\n"
        "rule r2: A(x1,x2,x3) -a-> C(x2, D(x2, x1))\n")
    r = g.rule_by_id["r2"]
    assert r.lhs == "A" and r.action == "a"
    assert r.rhs == parse_term(g.ts, "C(x2,D(x2,x1))", g.arities)


def test_parse_rejects_var_out_of_range():
    with pytest.raises(GrammarError):
        parse_grammar(
            "nonterminals: A/3\nactions: a\nrule r1: A(x1,x2,x3) -a-> x4\n")


def test_parse_rejects_empty_rules():
    with pytest.raises(GrammarError):
        parse_grammar("nonterminals: A/1\nactions: a\n")


def test_parse_rejects_duplicate_rule_id():
    with pytest.raises(GrammarError):
        parse_grammar("nonterminals: A/0\nactions: a\n"
                      "rule r1: A -a-> A\nrule r1: A -a-> A\n")


@pytest.mark.parametrize("text", [
    # lhs argument count differs from the declared arity
    "nonterminals: A/1\nactions: a\nrule r1: A(x1,x2) -a-> x1\n",
    # a negative arity, on a nonterminal no rule uses
    "nonterminals: A/-1, B/0\nactions: a\nrule r1: B -a-> B\n",
    # the same name declared twice, once with a space before the slash
    "nonterminals: A/1, A /2\nactions: a\nrule r1: A(x1,x2) -a-> x2\n",
    # empty names: an action, a rule id and a nonterminal
    "nonterminals: Z/0\nactions: a,\nrule r1: Z -a-> Z\n",
    "nonterminals: Z/0\nactions: a\nrule : Z -a-> Z\n",
    "nonterminals: Z/0, /1\nactions: a\nrule r1: Z -a-> Z\n",
])
def test_parse_rejects_bad_declarations(text):
    with pytest.raises(GrammarError):
        parse_grammar(text)


RULE_HEAD = "nonterminals: A/1\nactions: a\n"


@pytest.mark.parametrize("text, message", [
    # a left-hand side is NAME or NAME(x1,..,xm), parentheses balanced
    (RULE_HEAD + "rule r1: A(x1 -a-> x1",
     "line 3: cannot parse rule 'rule r1: A(x1 -a-> x1'"),
    (RULE_HEAD + "rule r1: A(x1)) -a-> x1",
     "line 3: cannot parse rule 'rule r1: A(x1)) -a-> x1'"),
    (RULE_HEAD + "rule r1 A(x1) -a-> x1",
     "line 3: cannot parse rule 'rule r1 A(x1) -a-> x1'"),
    (RULE_HEAD + "rule r1: A(x1,x2) -a-> x1",
     "line 3: lhs A has 2 arguments, its arity is 1"),
    # a declaration item is NAME/ARITY
    ("nonterminals: A\nactions: a\nrule r1: A -a-> A",
     "line 1: cannot parse nonterminal 'A'"),
    ("nonterminals: A/x\nactions: a\nrule r1: A -a-> A",
     "line 1: cannot parse nonterminal 'A/x'"),
    # names, arities and variable indices are ASCII
    ("nonterminals: A/\u0663\nactions: a\nrule r1: A -a-> A",
     "line 1: cannot parse nonterminal 'A/\u0663'"),
    ("nonterminals: A\u00e9/0\nactions: a\nrule r1: A -a-> A",
     "line 1: cannot parse nonterminal 'A\u00e9/0'"),
    ("nonterminals: A/0\nactions: a, b\u00e9\nrule r1: A -a-> A",
     "line 2: cannot parse action 'b\u00e9'"),
    (RULE_HEAD + "rule r1: A(x1) -a-> x\u00b2",
     "line 3: unknown nonterminal 'x' at position 1 in 'x\u00b2'"),
    (RULE_HEAD + "rule r1: A(x1) -a-> x\u0663",
     "line 3: unknown nonterminal 'x' at position 1 in 'x\u0663'"),
    # every term reads x1 as a variable, so no nonterminal is spelled so
    ("nonterminals: x1/0, Z/0\nactions: a\nrule r1: Z -a-> Z",
     "line 1: nonterminal 'x1' is spelled like a variable"),
    # integers are counted before int() sees them
    ("nonterminals: A/" + "9" * 4301 + "\nactions: a\nrule r1: A -a-> A",
     "line 1: arity has more than 4300 digits"),
    (RULE_HEAD + "rule r1: A(x1) -a-> A(x" + "9" * 4301 + ")",
     "line 3: variable index has more than 4300 digits"),
], ids=["lhs-unclosed", "lhs-extra-paren", "rule-no-colon", "lhs-arity",
        "decl-no-arity", "decl-arity-letter", "decl-arity-arabic-digit",
        "decl-name-accent", "action-accent", "var-superscript",
        "var-arabic-digit", "decl-name-variable", "decl-arity-digits",
        "var-index-digits"])
def test_parse_refuses_malformed_lines_by_name(text, message):
    with pytest.raises(GrammarError) as e:
        parse_grammar(text)
    assert str(e.value) == message


def test_constructor_rejects_unknown_lhs():
    ts = TermStore()
    z = ts.app("Z", ())
    with pytest.raises(GrammarError) as e:
        Grammar(ts, {"Z": 0}, ["a"], [Rule("r1", "Q", "a", z)])
    assert str(e.value) == "rule r1: unknown nonterminal 'Q'"


@pytest.mark.parametrize("rhs, message", [
    # t = B(x1, t): a cycle that holds a variable
    (lambda ts: ts.intern_raw([("app", "B", [1, 0]), ("var", 1)]),
     "rule r1: rhs: not finite"),
    (lambda ts: ts.app("Q", (ts.app("Z", ()), ts.app("Z", ()))),
     "rule r1: rhs: unknown nonterminal 'Q'"),
    (lambda ts: ts.app("A", (ts.var(1), ts.var(1))),
     "rule r1: rhs: arity mismatch for 'A': expected 1, got 2"),
    (lambda ts: ts.app("A", (ts.var(2),)),
     "rule r1: rhs uses x2 beyond arity 1 of A"),
], ids=["cyclic", "undeclared", "child-count", "variable"])
def test_constructor_refuses_bad_rhs_by_name(rhs, message):
    ts = TermStore()
    with pytest.raises(GrammarError) as e:
        Grammar(ts, {"A": 1, "B": 2, "Z": 0}, ["a"],
                [Rule("r1", "A", "a", rhs(ts))])
    assert str(e.value) == message


@pytest.mark.parametrize("name", sorted(os.listdir(GRAMMAR_DIR)))
def test_each_rhs_is_walked_once(name, monkeypatch):
    # parsing, the oracle's sink table, stepinc and the constants all
    # read the node lists the constructor's one walk per rule made
    from fogbisim.equiv import EqOracle
    calls = []
    walk = TermStore.reachable
    monkeypatch.setattr(TermStore, "reachable",
                        lambda ts, roots: calls.append(1) or walk(ts, roots))
    g = load(name)
    EqOracle(g, 12)
    try:
        g.constants
    except GrammarError:
        pass  # gdeep's constants are refused by name
    assert len(calls) == len(g.rules)
    if name == "gchain.fog":
        assert len(calls) == 10


def test_sink_and_constants_are_cached_on_the_grammar(monkeypatch):
    import fogbisim.grammar as grammar
    calls = []

    def counted(g):
        calls.append(g)
        return compute_sink_table(g)

    monkeypatch.setattr(grammar, "compute_sink_table", counted)
    g = g1()
    assert calls == []  # parsing computes neither
    assert g.constants is g.constants and g.sink is g.sink
    assert calls == [g]  # the constants read the one cached table
    assert g.sink == compute_sink_table(g)
    assert g.constants == compute_constants(g)


def test_stepinc_is_computed_apart_from_the_constants(monkeypatch):
    # bases read only stepinc, so it must not pay for the sink table and
    # the big constants
    import fogbisim.grammar as grammar
    calls = []

    def counted(g):
        calls.append(g)
        return compute_sink_table(g)

    monkeypatch.setattr(grammar, "compute_sink_table", counted)
    with open(os.path.join(GRAMMAR_DIR, "gchain.fog")) as f:
        g = parse_grammar(f.read())
    assert g.stepinc == 1 and g.stepinc is g.stepinc
    assert calls == [] and "constants" not in vars(g)
    assert g.constants.stepinc == g.stepinc == 1
    assert g1().stepinc == 2


def test_g1_sink_table():
    g = g1()
    t = compute_sink_table(g)
    assert t[("A", 1)] == ("r1",)
    assert t.get(("Z", 1)) is None  # arity 0, no positions at all
    assert ("Z", 1) not in t


def test_no_sink_word_self_loop():
    g = parse_grammar("nonterminals: A/1\nactions: a\nrule r1: A(x1) -a-> A(x1)\n")
    assert compute_sink_table(g) == {}


def test_g1_constants():
    g = g1()
    c = compute_constants(g)
    assert c.m == 1
    assert c.d0 == 2
    assert c.stepinc == 2
    assert c.hinc == 1
    assert c.d2 == 5
    assert c.n == 1
    assert c.g == 12
    # hand-derived big values
    assert c.d1 == 2 * 2 * 9 ** 3
    assert c.d3 == 81
    assert c.d4 == 2916 * 4 ** 6
    assert c.d5 == 12
    assert c.s == 1 + 12 + 12
    assert c.c == max(81, 2 * c.d4 * 12)


def test_max_arity():
    g = parse_grammar("nonterminals: A/3, B/0, C/2, D/2\nactions: a\n"
                      "rule r1: A(x1,x2,x3) -a-> x1\n")
    assert compute_constants(g).m == 3
    assert compute_constants(g1()).m == 1


def test_nonvarsubrhs_g1():
    c = compute_constants(g1())
    # d4's base counts the non-variable subterms A(A(x1)), A(x1), Z
    assert c.d4 == c.d1 * (1 + 3) ** (c.d2 + c.d0 - 1)


# -- independent oracles -----------------------------------------------------

def bfs_sink_words(g, length_cap, state_cap=200000):
    """Term-level BFS oracle for sink words, shortest and lex-least first."""
    out = {}
    for nt, m in g.arities.items():
        start = g.lhs_term(nt)
        targets = {g.ts.var(i): i for i in range(1, m + 1)}
        seen = {start}
        q = deque([(start, ())])
        found = {}
        while q and len(seen) < state_cap:
            t, w = q.popleft()
            if len(w) >= length_cap:
                continue
            for r in g.rules:
                t2 = step_rule(g, t, r.rid)
                if t2 is None:
                    continue
                w2 = w + (r.rid,)
                if t2 in targets and targets[t2] not in found:
                    found[targets[t2]] = w2
                if t2 not in seen:
                    seen.add(t2)
                    q.append((t2, w2))
        for i, w in found.items():
            out[(nt, i)] = w
    return out


def saturate_sinkable(g):
    """Boolean least-fixpoint oracle: which (A, i) admit any sink word."""
    can = set()

    def term_can_sink(t, i):
        node = g.ts.node(t)
        if node[0] == "var":
            return node[1] == i
        return any((node[1], j) in can and term_can_sink(c, i)
                   for j, c in enumerate(node[2], 1))

    changed = True
    while changed:
        changed = False
        for r in g.rules:
            for i in range(1, g.arities[r.lhs] + 1):
                if (r.lhs, i) not in can and term_can_sink(r.rhs, i):
                    can.add((r.lhs, i))
                    changed = True
    return can


@pytest.mark.parametrize("seed", range(25))
def test_sink_table_matches_oracles(seed):
    g = random_grammar(seed)
    table = compute_sink_table(g)
    # existence agrees with the boolean saturation oracle
    assert set(table) == saturate_sinkable(g)
    cap = max(map(len, table.values()), default=0) + 1
    bfs = bfs_sink_words(g, cap)
    for key, w in table.items():
        assert bfs[key] == w, (key, w, bfs[key])
    # replay soundness
    for (nt, i), w in table.items():
        t = g.lhs_term(nt)
        for rid in w:
            t = step_rule(g, t, rid)
            assert t is not None
        assert g.ts.is_var(t) and g.ts.var_index(t) == i


def reference_sink_table(g):
    """A reference for compute_sink_table: the same DP over words of
    rule ids, ranking two candidates by (length, declaration indices)
    at each comparison."""
    order = {r.rid: i for i, r in enumerate(g.rules)}

    def better(a, b):
        # a beats b: shorter, or equal length and lexicographically less
        if b is None:
            return True
        if a is None:
            return False
        ka = (len(a), tuple(order[r] for r in a))
        kb = (len(b), tuple(order[r] for r in b))
        return ka < kb

    best = {}
    for nt, m in g.arities.items():
        for i in range(1, m + 1):
            best[(nt, i)] = None

    def sink_term(t, i):
        word = {}
        for u in sorted(g.ts.reachable([t])):
            node = g.ts.nodes[u]
            if node[0] == "var":
                word[u] = () if node[1] == i else None
                continue
            b = None
            for j, child in enumerate(node[2], 1):
                head = best.get((node[1], j))
                if head is None or word[child] is None:
                    continue
                cand = head + word[child]
                if better(cand, b):
                    b = cand
            word[u] = b
        return word[t]

    changed = True
    while changed:
        changed = False
        for r in g.rules:
            for i in range(1, g.arities[r.lhs] + 1):
                tail = sink_term(r.rhs, i)
                if tail is None:
                    continue
                cand = (r.rid,) + tail
                if better(cand, best[(r.lhs, i)]):
                    best[(r.lhs, i)] = cand
                    changed = True
    return {k: v for k, v in best.items() if v is not None}


def test_sink_table_matches_the_reference():
    grammars = [random_grammar(seed, max_rules=12, max_depth=3)
                for seed in range(500)]
    grammars += [load(name) for name in ("g1.fog", "gchain.fog", "gnull.fog")]
    grammars += [parse_grammar(chain_grammar(n)) for n in (8, 40)]
    for g in grammars:
        assert compute_sink_table(g) == reference_sink_table(g)


def test_gdeep_sink_word_doubles_per_level():
    with open(os.path.join(GRAMMAR_DIR, "gdeep.fog")) as f:
        text = f.read()
    assert [line for line in text.splitlines() if not line.startswith("#")] \
        == deep_grammar(12).splitlines()
    g = parse_grammar(text)
    assert len(g.sink[("A12", 1)]) == 8191 and g.d0 == 8192
    assert "constants" not in vars(g)


@pytest.mark.parametrize("levels, name", [(k, "d4") for k in range(5, 10)]
                         + [(k, "d1") for k in range(10, 14)])
def test_oversize_constants_are_refused_by_name(levels, name):
    # d0 = 2^(levels+1); at six levels d4 would have about 35,000 digits,
    # at twelve nR^d0 in d1 about 9,400, and each power is refused
    # before it is computed
    g = parse_grammar(deep_grammar(levels))
    with pytest.raises(GrammarError,
                       match="constant %s exceeds 4300 digits" % name):
        g.constants
    assert g.d0 == 2 ** (levels + 1)


# sha256 over repr((seed, sorted(g.sink.items()), g.d0, g.stepinc, c)) for
# seeds 0..2999 in order, c the constants or the GrammarError message
RANDOM_FACTS_DIGEST = \
    "71c4ed5c5f6b3075771069a86460cf812d80042b46bf2e698c9d8026bd762016"


def test_derived_facts_of_random_grammars_are_pinned():
    digest = hashlib.sha256()
    for seed in range(3000):
        g = random_grammar(seed, max_rules=12, max_depth=3)
        try:
            c = tuple(g.constants)
        except GrammarError as e:
            c = str(e)
        digest.update(repr((seed, sorted(g.sink.items()), g.d0, g.stepinc,
                            c)).encode())
    assert digest.hexdigest() == RANDOM_FACTS_DIGEST


def exposed_positions(g, nt, state_cap=3000):
    """The i with x_i among the terms a breadth-first search over
    `step_action` reaches from A(x1..xm), within state_cap terms."""
    start = g.lhs_term(nt)
    seen = {start}
    q = deque([start])
    while q and len(seen) < state_cap:
        t = q.popleft()
        for a in enabled_actions(g, t):
            for _, t2 in step_action(g, t, a):
                if t2 not in seen:
                    seen.add(t2)
                    q.append(t2)
    return {g.ts.var_index(t) for t in seen if g.ts.is_var(t)}


def test_sink_entries_are_the_exposed_positions():
    # the premise of the oracle's pruning: (A, i) has a sink word exactly
    # when some run from A(x1..xm) reaches x_i
    grammars = [(name, load(name)) for name in ("g1.fog", "gchain.fog", "gnull.fog")]
    grammars += [(seed, random_grammar(seed)) for seed in range(100)]
    for name, g in grammars:
        for nt, m in g.arities.items():
            want = {i for i in range(1, m + 1) if (nt, i) in g.sink}
            assert exposed_positions(g, nt) == want, (name, nt)


@pytest.mark.parametrize("seed", range(10))
def test_sink_length_bound(seed):
    g = random_grammar(seed)
    table = compute_sink_table(g)
    c = compute_constants(g)
    na = sum(g.arities.values())
    h = 2 + c.hinc
    for w in table.values():
        assert len(w) <= h ** na


@pytest.mark.parametrize("seed", range(8))
def test_constants_monotone_under_added_rules(seed):
    g = random_grammar(seed, max_rules=5)
    c1 = compute_constants(g)
    # extend with the rules of another random grammar over the same signature
    extra = random_grammar(seed + 1000, max_rules=3)
    ts = g.ts
    rules = list(g.rules)
    arities = dict(g.arities)
    for nt, a in extra.arities.items():
        arities.setdefault(nt, a)
    actions = list(dict.fromkeys(g.actions + extra.actions))
    for r in extra.rules:
        if arities[r.lhs] != extra.arities[r.lhs]:
            continue
        # re-intern rhs into g's store via rendering
        assert is_finite(extra.ts, r.rhs)
        rhs = parse_term(ts, render_term(extra.ts, r.rhs), arities)
        rules.append(Rule("e%d" % len(rules), r.lhs, r.action, rhs))
    g2 = Grammar(ts, arities, actions, rules)
    c2 = compute_constants(g2)
    assert c2.d0 <= c1.d0 or set(compute_sink_table(g)) != set(
        compute_sink_table(g2))
    # adding rules can only shorten sink words for existing entries
    t1, t2 = compute_sink_table(g), compute_sink_table(g2)
    for key, w in t1.items():
        assert key in t2 and len(t2[key]) <= len(w)
    assert c2.stepinc >= c1.stepinc
    assert c2.hinc >= c1.hinc
