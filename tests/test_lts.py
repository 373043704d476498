import random

import pytest

from fogbisim.terms import (
    apply_subst, instantiate, parse_term, pressize, varin,
)
from fogbisim.grammar import (
    GrammarError, parse_grammar, compute_constants, compute_sink_table,
)
from fogbisim.lts import d0_sinking_split, run_word, step_action, step_rule

from gen import (
    chain_grammar, height, is_finite, random_grammar, random_ground_term,
)

FIG1 = (
    "nonterminals: A/3, B/0, C/2, D/2\n"
    "actions: a, b\n"
    "rule r1: A(x1,x2,x3) -b-> x2\n"
    "rule r2: A(x1,x2,x3) -a-> C(x2, D(x2, x1))\n")

G1 = (
    "nonterminals: A/1, Z/0\n"
    "actions: a, b\n"
    "rule r1: A(x1) -a-> x1\n"
    "rule r2: A(x1) -b-> A(A(x1))\n"
    "rule r3: Z -a-> Z\n")


def fig1():
    return parse_grammar(FIG1)


def g1():
    return parse_grammar(G1)


def test_step_rule_fig1():
    g = fig1()
    ts = g.ts
    from fogbisim.terms import omega_iterate
    e1 = parse_term(ts, "A(D(x5,C(x2,B)),x5,B)", g.arities)
    e3 = omega_iterate(ts, e1, 2)
    assert step_rule(g, e3, "r1") == ts.var(5)
    expect = parse_term(ts, "C(x5,D(x5,D(x5,C(x2,B))))", g.arities)
    assert step_rule(g, e1, "r2") == expect


def test_step_rule_variable_dead():
    g = fig1()
    assert step_rule(g, g.ts.var(3), "r1") is None
    assert step_action(g, g.ts.var(3), "a") == ()


def test_step_action_fig1():
    g = fig1()
    e1 = parse_term(g.ts, "A(D(x5,C(x2,B)),x5,B)", g.arities)
    succ = step_action(g, e1, "a")
    assert len(succ) == 1 and succ[0][0] == "r2"


def test_step_action_g1():
    g = g1()
    t = parse_term(g.ts, "A(Z)", g.arities)
    assert [r for r, _ in step_action(g, t, "a")] == ["r1"]


@pytest.mark.parametrize("seed", range(20))
def test_step_action_table_matches_step_rule(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    frontier = [random_ground_term(rng, g, rng.randint(0, 3)) for _ in range(5)]
    asked = []
    for _ in range(3):  # fill the table while the store grows
        nxt = []
        for t in frontier:
            for a in g.actions:
                got = step_action(g, t, a)
                assert step_action(g, t, a) is got  # served from the table
                asked.append((t, a, got))
                nxt += [t2 for _, t2 in got]
        frontier = nxt[:40]
    assert len(g.successors) == len({(t, a) for t, a, _ in asked})
    for t, a, got in asked:
        # every rule with label a and t's root, in declaration order
        binding = dict(enumerate(g.ts.children(t), 1))
        fresh = tuple((r.rid, apply_subst(g.ts, r.rhs, binding)) for r in g.rules
                      if r.action == a and r.lhs == g.ts.root(t))
        assert got == fresh


@pytest.mark.parametrize("seed", range(10))
def test_rule_steps_are_answered_from_the_table(seed, monkeypatch):
    import fogbisim.lts as lts
    calls = []

    def counted(ts, order, binding):
        calls.append(order)
        return instantiate(ts, order, binding)

    monkeypatch.setattr(lts, "instantiate", counted)
    rng = random.Random(seed)
    g = random_grammar(seed)
    starts = [random_ground_term(rng, g, rng.randint(0, 3)) for _ in range(5)]
    words = [[rng.choice(g.rules).rid for _ in range(4)] for _ in starts]

    def steps():
        for t, word in zip(starts, words):
            for r in g.rules:
                step_rule(g, t, r.rid)
            run_word(g, t, word)
            run_word(g, g.lhs_term(g.rules[0].lhs), word)

    steps()
    first = len(calls)
    # one firing per successor of a term with children, none for a
    # repeated step; a nullary term's successor is the rhs itself
    assert first == sum(len(out) for (t, _), out in g.successors.items()
                        if g.ts.children(t))
    assert first > 0 or all(g.arities[r.lhs] == 0 for r in g.rules)
    steps()
    for (t, a), out in list(g.successors.items()):
        assert step_action(g, t, a) is out
        for rid, succ in out:
            assert step_rule(g, t, rid) == succ
    assert len(calls) == first


@pytest.mark.parametrize("case", list(range(20)) + ["chain-8"])
def test_firing_walks_no_rhs_again(case, monkeypatch):
    # every rule fires from the nodes the constructor's one walk kept:
    # filling the table makes no reachable walk and no apply_subst call
    import fogbisim.terms as terms
    from fogbisim.terms import TermStore
    rng = random.Random(0)
    if case == "chain-8":
        g = parse_grammar(chain_grammar(8))
        starts = [parse_term(g.ts, x, g.arities)
                  for x in ("A(A(Z))", "B(B(Z))", "P3(R8(Z))")]
    else:
        g = random_grammar(case)
        starts = [random_ground_term(rng, g, d) for d in range(4)]
    starts += [g.lhs_term(nt) for nt in g.arities]
    calls = []
    walk, subst = TermStore.reachable, terms.apply_subst
    monkeypatch.setattr(TermStore, "reachable",
                        lambda ts, roots: calls.append(1) or walk(ts, roots))
    monkeypatch.setattr(terms, "apply_subst",
                        lambda *a: calls.append(2) or subst(*a))
    frontier = starts
    for _ in range(4):
        frontier = [t2 for t in frontier for a in g.actions
                    for _, t2 in step_action(g, t, a)][:60]
    assert sum(map(len, g.successors.values())) > 0
    assert calls == []


def test_run_word():
    g = g1()
    t = parse_term(g.ts, "A(A(Z))", g.arities)
    path = run_word(g, t, ["r1", "r1"])
    assert path == [t, parse_term(g.ts, "A(Z)", g.arities),
                    parse_term(g.ts, "Z", g.arities)]
    assert run_word(g, t, []) == [t]
    assert run_word(g, t, ["r3"]) is None  # Z's rule does not fire at A
    assert run_word(g, t, ["r1", "r1", "r1"]) is None  # nor A's at Z
    with pytest.raises(GrammarError):
        run_word(g, t, ["r9"])
    # the path is the chain of step_rule results, ending where it ends
    word = ["r2", "r1", "r1", "r1"]
    chain = [t]
    for rid in word:
        chain.append(step_rule(g, chain[-1], rid))
    assert run_word(g, t, word) == chain
    assert chain[-1] == parse_term(g.ts, "Z", g.arities)


def test_sink_word_replay():
    g = g1()
    table = compute_sink_table(g)
    w = table[("A", 1)]
    path = run_word(g, g.lhs_term("A"), w)
    assert g.ts.is_var(path[-1]) and g.ts.var_index(path[-1]) == 1


def is_sink_word(g, word):
    """If word is an (A,i)-sink word for A = lhs of its first rule,
    return i; otherwise None. Sink words are nonempty by definition.
    A reference for `d0_sinking_split`, which replays each piece once."""
    word = tuple(word)
    if not word:
        return None
    a = g.rule_by_id[word[0]].lhs
    path = run_word(g, g.lhs_term(a), word)
    if path is None or not g.ts.is_var(path[-1]):
        return None
    return g.ts.var_index(path[-1])


def test_is_sink_segment():
    g = g1()
    # A(Z) -r1-> Z is A(x1)sigma -r1-> x1 sigma
    assert is_sink_word(g, ["r1"]) == 1
    assert is_sink_word(g, []) is None  # sink words are nonempty
    # r3 from Z loops, never sinks
    assert is_sink_word(g, ["r3"]) is None


def test_is_d0_sinking():
    g = g1()
    assert d0_sinking_split(g, [], 2) == ([], ())
    assert d0_sinking_split(g, ["r1", "r1"], 2) == ([("r1",), ("r1",)], ())
    # r2 grows, is not a sink segment, and the residue is too long
    assert d0_sinking_split(g, ["r2", "r1", "r1"], 2) is None


# -- the simple-stair decomposition, a reference of the paper's proofs -------

def is_stair_word(g, word) -> bool:
    """Stair: empty, or r v' with r: A(..) -> E and E -v'-> F, F not a var."""
    word = tuple(word)
    if not word:
        return True
    path = run_word(g, g.rule_by_id[word[0]].rhs, word[1:])
    return path is not None and not g.ts.is_var(path[-1])


def is_simple_stair_word(g, word) -> bool:
    """r v' landing at a nonterminal-rooted subterm of rhs(r), with v'
    a concatenation of sink-segments."""
    word = tuple(word)
    if not word:
        return False
    # peel sink-segments off v', tracking the abstract position inside E
    pos = g.rule_by_id[word[0]].rhs
    rest = word[1:]
    while rest:
        hit = None
        for ln in range(1, len(rest) + 1):
            i = is_sink_word(g, rest[:ln])
            if i is not None and g.ts.root(pos) == g.rule_by_id[rest[0]].lhs:
                hit = (ln, i)
                break
        if hit is None:
            return False
        ln, i = hit
        kids = g.ts.children(pos)
        if i > len(kids):
            return False
        pos = kids[i - 1]
        rest = rest[ln:]
    return not g.ts.is_var(pos)


def simple_stair_decompose(g, start, word) -> list[tuple[str, ...]]:
    """The unique simple-stair decomposition of the stair path
    start -word->.

    Each piece is the shortest nonempty prefix whose residue is again a
    stair; the piece itself is then a simple stair.
    """
    word = tuple(word)
    if not is_stair_word(g, word):
        raise GrammarError("path is not a stair")
    if not g.ts.is_var(start):
        if word and g.rule_by_id[word[0]].lhs != g.ts.root(start):
            raise GrammarError("word does not start at the path's root")
    out = []
    while word:
        cut = None
        for ln in range(1, len(word) + 1):
            if is_stair_word(g, word[ln:]):
                cut = ln
                break
        piece = word[:cut]
        if not is_simple_stair_word(g, piece):
            raise GrammarError("decomposition piece is not a simple stair: %r"
                               % (piece,))
        out.append(piece)
        word = word[cut:]
    return out


def test_simple_stair_g1():
    g = g1()
    az = parse_term(g.ts, "A(Z)", g.arities)
    assert is_stair_word(g, ["r2", "r1"])
    assert simple_stair_decompose(g, az, ["r2", "r1"]) == [("r2", "r1")]


def test_simple_stair_empty_and_single():
    g = g1()
    az = parse_term(g.ts, "A(Z)", g.arities)
    assert simple_stair_decompose(g, az, []) == []
    assert simple_stair_decompose(g, az, ["r2"]) == [("r2",)]


def test_stair_rejects_sink_prefix():
    g = g1()
    az = parse_term(g.ts, "A(Z)", g.arities)
    assert not is_stair_word(g, ["r1", "r3"])
    with pytest.raises(Exception):
        simple_stair_decompose(g, az, ["r1", "r3"])


# -- randomized properties ---------------------------------------------------

def random_walk(rng, g, t, steps):
    """(word, path) of a random rule walk of at most `steps` steps."""
    word = []
    cur = t
    for _ in range(steps):
        node = g.ts.node(cur)
        if node[0] == "var":
            break
        rules = [r for r in g.rules if r.lhs == node[1]]
        if not rules:
            break
        r = rng.choice(rules)
        word.append(r.rid)
        cur = step_rule(g, cur, r.rid)
    return tuple(word), run_word(g, t, word)


@pytest.mark.parametrize("seed", range(15))
def test_replay_growth_bounds(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    c = compute_constants(g)
    t = random_ground_term(rng, g, rng.randint(0, 3))
    word, path = random_walk(rng, g, t, rng.randint(0, 6))
    end = path[-1]
    assert pressize(g.ts, [end]) <= pressize(g.ts, [t]) + len(word) * c.stepinc
    if is_finite(g.ts, t) and is_finite(g.ts, end):
        assert height(g.ts, end) <= height(g.ts, t) + len(word) * c.hinc
    assert varin(g.ts, [end]) <= varin(g.ts, [t])


@pytest.mark.parametrize("seed", range(10))
def test_multipath_growth_bound(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    c = compute_constants(g)
    t = random_ground_term(rng, g, 2)
    d = 4
    paths = [random_walk(rng, g, t, rng.randint(0, d)) for _ in range(3)]
    ends = {path[-1] for _, path in paths}
    assert pressize(g.ts, ends | {t}) <= pressize(g.ts, [t]) + len(paths) * d * c.stepinc


def exhaustive_d0_sinking(g, word, d0):
    """Exponential oracle: try every factorization."""
    word = tuple(word)
    if len(word) < d0:
        return True
    for ln in range(1, d0):
        if is_sink_word(g, word[:ln]) is not None and \
                exhaustive_d0_sinking(g, word[ln:], d0):
            return True
    return False


@pytest.mark.parametrize("seed", range(20))
def test_d0_sinking_greedy_matches_exhaustive(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    c = compute_constants(g)
    t = random_ground_term(rng, g, 2)
    word, _ = random_walk(rng, g, t, rng.randint(0, 6))
    got = d0_sinking_split(g, word, c.d0) is not None
    assert got == exhaustive_d0_sinking(g, word, c.d0)


def restart_walk(rng, g, steps):
    """A rule word of `steps` rules that walks from the left-hand side of
    a random rule and starts afresh at another one wherever the walk
    reaches a variable or stops, so it may hold many sink pieces."""
    word = []
    cur = None
    for _ in range(steps):
        rules = [] if cur is None else [r for r in g.rules
                                        if r.lhs == g.ts.root(cur)]
        if not rules:
            cur = g.lhs_term(rng.choice(g.rules).lhs)
            rules = [r for r in g.rules if r.lhs == g.ts.root(cur)]
        r = rng.choice(rules)
        word.append(r.rid)
        cur = step_rule(g, cur, r.rid)
    return tuple(word)


def test_d0_sinking_split_finds_every_piece():
    """Words of several sink pieces: the greedy split agrees with the
    exhaustive one at d0 = 3..8, and its pieces are sink words shorter
    than d0 that spell the word with the residue."""
    several = 0
    for seed in range(40):
        rng = random.Random(seed)
        g = random_grammar(seed)
        for _ in range(10):
            word = restart_walk(rng, g, rng.randint(0, 14))
            for d0 in range(3, 9):
                got = d0_sinking_split(g, word, d0)
                assert (got is not None) == exhaustive_d0_sinking(g, word, d0)
                if got is None:
                    continue
                pieces, rest = got
                assert sum(pieces, ()) + rest == word
                assert all(len(p) < d0 and is_sink_word(g, p) is not None
                           for p in pieces)
                several += len(pieces) >= 2
    assert several >= 200  # the words do hold several pieces


@pytest.mark.parametrize("seed", range(20))
def test_simple_stair_decomposition_properties(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    c = compute_constants(g)
    t = random_ground_term(rng, g, 2)
    word, path = random_walk(rng, g, t, rng.randint(0, 6))
    if not is_stair_word(g, word):
        return
    pieces = simple_stair_decompose(g, t, word)
    joined = tuple(x for piece in pieces for x in piece)
    assert joined == word
    q = len(pieces)
    end = path[-1]
    assert pressize(g.ts, [end]) <= pressize(g.ts, [t]) + q * c.stepinc
    if is_finite(g.ts, t) and is_finite(g.ts, end):
        assert height(g.ts, end) <= height(g.ts, t) + q * c.hinc


def test_determinism_run_vs_step():
    g = g1()
    t = parse_term(g.ts, "A(A(Z))", g.arities)
    for r in g.rules:
        one = step_rule(g, t, r.rid)
        path = run_word(g, t, [r.rid])
        assert (one is None) == (path is None)
        if path is not None:
            assert path == [t, one]
