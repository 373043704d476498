import pathlib
import random
from collections import deque

import pytest

from fogbisim.terms import (
    apply_subst, intern_graph, parse_term,
)
from fogbisim.grammar import parse_grammar
from fogbisim.lts import enabled_actions, run_word, step_action
from fogbisim import equiv
from fogbisim.equiv import (
    EqOracle, EquivError, attacker_optimal, defender_optimal,
    find_sink_witness,
)
from fogbisim.bases import enumerate_terms

from gen import (
    is_finite, random_finite_term, random_grammar, random_ground_term,
)

GRAMMAR_DIR = pathlib.Path(__file__).resolve().parent.parent / "grammars"

G1 = (
    "nonterminals: A/1, Z/0\n"
    "actions: a, b\n"
    "rule r1: A(x1) -a-> x1\n"
    "rule r2: A(x1) -b-> A(A(x1))\n"
    "rule r3: Z -a-> Z\n")


def g1():
    return parse_grammar(G1)


def tower(g, n):
    t = parse_term(g.ts, "Z", g.arities)
    for _ in range(n):
        t = g.ts.app("A", (t,))
    return t


def naive_level(g, t, u, budget):
    """Unmemoized reference solver for small budgets."""
    if t == u:
        return budget
    ts = g.ts
    if ts.is_var(t) or ts.is_var(u):
        return 0
    if enabled_actions(g, t) != enabled_actions(g, u):
        return 0
    if budget == 0:
        return 0
    best = budget
    for a in enabled_actions(g, t):
        left = step_action(g, t, a)
        right = step_action(g, u, a)
        for moves, replies in ((left, right), (right, left)):
            for _, t2 in moves:
                worst = max(naive_level(g, t2, u2, budget - 1)
                            for _, u2 in replies)
                best = min(best, 1 + worst)
    return best


def reference_level(o, t, u, budget=None):
    """EqOracle.level without cycle closing: a pair met again while it
    is open is searched again one budget lower, down to the budget. A
    reference for the loop; it shares `_known` and `_game` with it."""
    if budget is None:
        budget = o.cutoff
    e = o._known(t, u, budget)
    if e is not None:
        return e

    def key(a, b):
        return (a, b) if a <= b else (b, a)

    stack = [(key(t, u), budget, o._game(t, u, budget))]
    while stack:
        k, b, game = stack[-1]
        try:
            t2, u2, cap = game.send(e)
        except StopIteration as done:
            stack.pop()
            e = done.value
            if e < b:
                o.exact[k] = e
            else:
                o.lower[k] = b
            continue
        stack.append((key(t2, u2), cap, o._game(t2, u2, cap)))
        e = None
    return e


def cyclic_terms(g):
    """The cyclic terms of at most two nodes over x1, in id order."""
    return sorted(t for t in enumerate_terms(g, 1, 2) if not is_finite(g.ts, t))


def audit_memo(o):
    """Every exact entry equals the reference level, and every lower
    bound is at most it, computed on one fresh oracle. A level e is
    exact when the reference caps it below e + 1; a bound b holds when
    the reference reaches it at budget b."""
    ref = EqOracle(o.g, o.cutoff)
    for (t, u), e in o.exact.items():
        assert reference_level(ref, t, u, e + 1) == e, (t, u, e)
    for (t, u), b in o.lower.items():
        assert reference_level(ref, t, u, b) == b, (t, u, b)


def test_reflexive_at_least():
    g = g1()
    o = EqOracle(g, 12)
    t = tower(g, 2)
    assert o.level(t, t) == 12
    lv = o.eq_level(t, t)
    assert (lv.value, lv.is_finite()) == (12, False)


def test_variable_stipulation():
    g = g1()
    o = EqOracle(g, 12)
    x1 = g.ts.var(1)
    b = parse_term(g.ts, "Z", g.arities)
    assert o.level(x1, b) == 0
    assert o.level(x1, g.ts.app("A", (x1,)), 0) >= 0
    assert not o.level(x1, g.ts.app("A", (x1,)), 1) >= 1


def test_budget_out_of_range():
    g = g1()
    o = EqOracle(g, 12)
    t, u = tower(g, 1), tower(g, 2)
    for b in (-1, -3, 13):
        with pytest.raises(EquivError):
            o.level(t, t, b)
        with pytest.raises(EquivError):
            o.level(t, u, b)
    assert o.level(t, u, 0) == 0 and o.level(t, t, 0) == 0


def test_counter_pairs_analytic():
    g = g1()
    o = EqOracle(g, 12)
    for n in range(0, 5):
        for m in range(n + 1, 6):
            assert o.level(tower(g, n), tower(g, m)) == n


def test_check_k_monotone_consistency():
    g = g1()
    o = EqOracle(g, 8)
    t, u = tower(g, 3), tower(g, 5)
    lv = o.eq_level(t, u)
    assert (lv.value, lv.is_finite()) == (3, True)
    for k in range(0, 9):
        assert (o.level(t, u, k) >= k) == (k <= 3)


def eq_level_subst(o, s1, s2):
    """The eq-level of two substitutions: the least eq-level of the
    pairs they bind a variable of either support to, capped at the
    cutoff. A reference of the paper's proofs."""
    e = o.cutoff
    ts = o.g.ts
    for i in sorted(s1.keys() | s2.keys()):
        e = min(e, o.level(s1.get(i, ts.var(i)), s2.get(i, ts.var(i))))
        if e == 0:
            break
    return e


def test_eq_level_subst():
    g = g1()
    o = EqOracle(g, 12)
    ts = g.ts
    s1 = {1: ts.var(2)}
    s2 = {1: parse_term(ts, "Z", g.arities)}
    assert eq_level_subst(o, s1, s2) == 0
    assert eq_level_subst(o, s1, s1) == 12
    s3 = {1: tower(g, 2)}
    s4 = {1: tower(g, 4)}
    assert eq_level_subst(o, s3, s4) == 2


@pytest.mark.parametrize("seed", range(12))
def test_memoized_matches_naive(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    o = EqOracle(g, 5)
    for _ in range(12):
        t = random_ground_term(rng, g, rng.randint(0, 2))
        u = random_ground_term(rng, g, rng.randint(0, 2))
        assert o.level(t, u, 5) == naive_level(g, t, u, 5)
    # cyclic terms close cycles in the game; at budget 4, since the
    # naive solver's time grows exponentially with the budget
    cyclic = cyclic_terms(g)
    for _ in range(4 if cyclic else 0):
        t = rng.choice(cyclic)
        u = rng.choice(cyclic + [random_ground_term(rng, g, 1)])
        assert o.level(t, u, 4) == naive_level(g, t, u, 4), (t, u)


@pytest.mark.parametrize("seed", range(20))
def test_shared_memo_mixed_budgets(seed):
    # lower bounds left in the memo by capped searches must never
    # mislead a later query at another budget
    rng = random.Random(seed)
    g = random_grammar(seed)
    cutoff = 8
    pairs = [(random_ground_term(rng, g, rng.randint(0, 3)),
              random_ground_term(rng, g, rng.randint(0, 3)))
             for _ in range(10)]
    cyclic = cyclic_terms(g)
    pairs += [(rng.choice(cyclic), rng.choice(cyclic + [t for t, _ in pairs]))
              for _ in range(3 if cyclic else 0)]
    want = {(t, u): reference_level(EqOracle(g, cutoff), t, u)
            for t, u in pairs}
    queries = [(t, u, b) for t, u in pairs for b in range(cutoff + 1)]
    rng.shuffle(queries)
    # a seeded order, then rising budgets (stable sort): each query at b
    # meets the bounds that queries at b - 1 left behind
    for order in (list(queries), sorted(queries, key=lambda q: q[2])):
        shared = EqOracle(g, cutoff)
        for t, u, b in order:
            assert shared.level(t, u, b) == min(want[(t, u)], b), (t, u, b)
        audit_memo(shared)


def battery_pair(gseed, k):
    """Pair k of grammar gseed in the eq-level battery (random grammars,
    20 pairs of ground terms of depth 0-3, cutoff 8)."""
    rng = random.Random(gseed)
    g = random_grammar(gseed)
    pairs = [(random_ground_term(rng, g, rng.randint(0, 3)),
              random_ground_term(rng, g, rng.randint(0, 3)))
             for _ in range(20)]
    return g, pairs[k]


def log_games(monkeypatch):
    """Patch EqOracle._game to log ("open" | "close", pair, budget)."""
    log = []
    game = EqOracle._game

    def logged(self, t, u, budget):
        k = (min(t, u), max(t, u), budget)
        log.append(("open",) + k)
        e = yield from game(self, t, u, budget)
        log.append(("close",) + k)
        return e

    monkeypatch.setattr(EqOracle, "_game", logged)
    return log


def replays(log):
    """The games replayed after a failed assumption: a game opened for
    the pair whose game just closed, at a budget no higher. Only the
    replay does that, capped at the value the game closed at; any other
    game that closes answers its own query later."""
    return sum(a[0] == "close" and b[0] == "open" and a[1:3] == b[1:3]
               and b[3] <= a[3] for a, b in zip(log, log[1:]))


@pytest.mark.parametrize("gseed, k, want_replays", [
    (3, 8, 2),      # A(B(mu, mu)) vs mu, mu = A(mu)
    (3, 15, 3), (11, 4, 1), (12, 10, 1)])
def test_failed_assumption_replays_the_frame(monkeypatch, gseed, k,
                                             want_replays):
    g, (t, u) = battery_pair(gseed, k)
    log = log_games(monkeypatch)
    e = EqOracle(g, 8).level(t, u)
    n = replays(log)
    monkeypatch.undo()
    assert e == reference_level(EqOracle(g, 8), t, u)
    assert n == want_replays, n


def test_replay_is_capped_at_the_failed_value(monkeypatch):
    # the frame closes at 2 below its assumption; replayed at its own
    # budget instead, it would unroll a cycle down to the cutoff (1,005
    # games)
    g, (t, u) = battery_pair(11, 4)
    log = log_games(monkeypatch)
    o = EqOracle(g, 1000)
    assert o.level(t, u) == 2
    assert sum(ev[0] == "open" for ev in log) <= 10
    monkeypatch.undo()
    audit_memo(o)


@pytest.mark.parametrize("cutoff, stops", [
    (100, (300, 1000, 3000)),
    (8, (55,)),  # an entry resting on an assumption that fails is stored
])
def test_interrupted_search_leaves_the_memo_exact(monkeypatch, cutoff, stops):
    # a search that raises takes back every memo entry it wrote, so what
    # rests on an assumption it never checked cannot outlive it
    g, (t, u) = battery_pair(3, 15)
    o = EqOracle(g, cutoff)
    want = reference_level(EqOracle(g, cutoff), t, u)
    calls = 0

    def interrupting(g, t, a):
        nonlocal calls
        if armed:
            calls += 1
            if calls in stops:
                raise KeyboardInterrupt
        return step_action(g, t, a)

    monkeypatch.setattr(equiv, "step_action", interrupting)
    interrupts = 0
    while True:
        armed = True
        try:
            e = o.level(t, u)
            break
        except KeyboardInterrupt:
            interrupts += 1
        armed = False  # audit_memo steps through the same name
        audit_memo(o)
    assert interrupts == len(stops)
    assert e == want
    armed = False
    audit_memo(o)


def test_no_assumption_logs_no_undo(monkeypatch):
    # the query meets no pair that is still open, so no write rests on
    # an assumption and the undo log stays empty; a higher tower pair
    # would (a then b leads back to it)
    g = g1()
    logged = []
    restore = EqOracle._restore

    def recorded(self, undo, mark):
        logged.append(len(undo))
        restore(self, undo, mark)

    calls = 0

    def interrupting(g, t, a):
        nonlocal calls
        calls += 1
        if calls == 8:  # the query's last call, after a game closed
            raise KeyboardInterrupt
        return step_action(g, t, a)

    monkeypatch.setattr(EqOracle, "_restore", recorded)
    monkeypatch.setattr(equiv, "step_action", interrupting)
    o = EqOracle(g, 31)
    with pytest.raises(KeyboardInterrupt):
        o.level(tower(g, 2), tower(g, 3))
    assert o.exact[(tower(g, 1), tower(g, 2))] == 1 and logged == [0]
    audit_memo(o)


@pytest.mark.parametrize("gseed, cutoff, budget, left, right", [
    (147, 6, 6, "node b = B(b,a,a); node a = A(a,b,b); root t = a",
     "node b = B(a,a,a); node a = A(b,b,b); root t = a"),
    (575, 10, 9, "node c = C; node b = B(b,c,c); root t = b", "B(C,C,C)"),
])
def test_tentative_results_wait_for_the_frame_they_rest_on(
        gseed, cutoff, budget, left, right):
    # a pair that closes resting on a frame below its parent is written
    # after that frame opened, and so is the parent that reads it; both
    # are undone if the frame's assumption fails, and an entry kept past
    # the failure makes the check fail here
    g = random_grammar(gseed)
    t, u = (intern_graph(g.ts, x, g.arities) if "node" in x
            else parse_term(g.ts, x, g.arities) for x in (left, right))
    o = EqOracle(g, cutoff)
    assert o.level(t, u, budget) == reference_level(
        EqOracle(g, cutoff), t, u, budget)
    audit_memo(o)


def test_closed_cycles_bound_the_games(monkeypatch):
    log = log_games(monkeypatch)
    g = g1()
    # at the unrolling loop's count; cycle closing that could not read a
    # result resting on an unchecked assumption would take 8,192 games
    # here
    assert EqOracle(g, 31).level(tower(g, 13), tower(g, 14)) == 13
    assert sum(ev[0] == "open" for ev in log) <= 92
    del log[:]
    with open(GRAMMAR_DIR / "gchain.fog") as f:
        g = parse_grammar(f.read())
    t = parse_term(g.ts, "Q(Z)", g.arities)
    u = parse_term(g.ts, "Q(Q(Z))", g.arities)
    # Q loops on b: one visit closes the cycle at any cutoff
    assert EqOracle(g, 10 ** 8).level(t, u) == 10 ** 8
    assert sum(ev[0] == "open" for ev in log) <= 10


@pytest.mark.parametrize("seed", [0, 4, 5, 7, 8, 9])
def test_pruning_keeps_every_level(seed):
    # a child no sink word exposes never reaches the root, so replacing
    # it by x1 changes no level; reference_level never prunes
    rng = random.Random(seed)
    g = random_grammar(seed)
    cutoff = 8
    o = EqOracle(g, cutoff)
    ref = EqOracle(g, cutoff)
    assert o.hidden
    terms = [random_ground_term(rng, g, rng.randint(0, 3)) for _ in range(10)]
    terms += enumerate_terms(g, 1, 2)
    pruned = 0
    for _ in range(60):
        t, u = rng.choice(terms), rng.choice(terms)
        b = rng.randint(0, cutoff)
        pruned += o._prune(t) != t or o._prune(u) != u
        assert o.level(t, u, b) == reference_level(ref, t, u, b), (t, u, b)
        assert o.level(t, o._prune(t)) == cutoff
    assert pruned
    audit_memo(o)


def test_declared_arity_costs_nothing_until_a_term_uses_it():
    # pruning reads the sink table for the children a term has, so the
    # oracle keeps nothing per declared position
    g = parse_grammar("nonterminals: A/%d, Y/0, Z/0\nactions: a\n"
                      "rule r1: Z -a-> Z\nrule r2: Y -a-> Y\n" % 10 ** 12)
    o = EqOracle(g, 12)
    assert o.hidden
    y, z = parse_term(g.ts, "Y"), parse_term(g.ts, "Z")
    assert o.level(z, z) == o.level(y, z) == 12


def test_no_hidden_position_means_no_pruning(monkeypatch):
    calls = []
    prune = EqOracle._prune
    monkeypatch.setattr(EqOracle, "_prune",
                        lambda self, t: calls.append(t) or prune(self, t))
    for name in ("g1.fog", "gnull.fog"):
        with open(GRAMMAR_DIR / name) as f:
            g = parse_grammar(f.read())
        o = EqOracle(g, 12)
        assert o.hidden is False
        terms = enumerate_terms(g, 1, 2)
        for t in terms:
            for u in terms:
                o.level(t, u)
    assert calls == []


@pytest.mark.parametrize("seed", range(10))
def test_hierarchy_and_symmetry(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    o = EqOracle(g, 8)
    for _ in range(20):
        t = random_ground_term(rng, g, rng.randint(0, 2))
        u = random_ground_term(rng, g, rng.randint(0, 2))
        e = o.level(t, u)
        assert o.level(u, t) == e
        for k in range(0, 8):
            assert (o.level(t, u, k) >= k) == (e >= k)
        assert o.level(t, t, 8) >= 8


@pytest.mark.parametrize("seed", range(10))
def test_eq_level_triple_transfer(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    o = EqOracle(g, 8)
    for _ in range(20):
        s = random_ground_term(rng, g, rng.randint(0, 2))
        t = random_ground_term(rng, g, rng.randint(0, 2))
        t2 = random_ground_term(rng, g, rng.randint(0, 2))
        est = o.level(s, t)
        ett = o.level(t, t2)
        if ett > est and est < 8:
            assert o.level(s, t2) == est


@pytest.mark.parametrize("seed", range(10))
def test_congruence_inequalities(seed):
    rng = random.Random(seed)
    g = random_grammar(seed)
    ts = g.ts
    o = EqOracle(g, 8)
    for _ in range(10):
        e = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        f = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        s1 = {i: random_ground_term(rng, g, 1) for i in (1, 2)}
        s2 = {i: random_ground_term(rng, g, 1) for i in (1, 2)}
        # substitution cannot lower the eq-level
        assert o.level(e, f) <= o.level(
            apply_subst(ts, e, s1), apply_subst(ts, f, s1))
        # substitution-distance lower bound
        lv = eq_level_subst(o, s1, s2)
        assert lv <= o.level(apply_subst(ts, e, s1), apply_subst(ts, e, s2))


def test_attacker_defender_contracts():
    g = g1()
    o = EqOracle(g, 12)
    t, u = tower(g, 2), tower(g, 4)
    side, rid, succ = attacker_optimal(o, t, u)
    # every response to the optimal attack is at level <= e-1
    there = (t, u)[1 - side]
    act = g.rule_by_id[rid].action
    e = o.level(t, u)
    for _, u2 in step_action(g, there, act):
        assert o.level(succ, u2) <= e - 1
    rid2, u2 = defender_optimal(o, t, u, side, rid, succ)
    assert o.level(succ, u2) >= e - 1


def test_defender_tie_goes_to_the_first_declared_rule():
    # B's two a-replies tie at level 1 against C; r2 is declared first
    g = parse_grammar(
        "nonterminals: A/0, B/0, C/0, D/0, E/0, Z/0\n"
        "actions: a, b\n"
        "rule a1: A -a-> C\n"
        "rule r2: B -a-> D\n"
        "rule r1: B -a-> E\n"
        "rule c1: C -b-> C\n"
        "rule d1: D -b-> Z\n"
        "rule e1: E -b-> Z\n")
    o = EqOracle(g, 12)
    t, u, c, d, e = (parse_term(g.ts, n, g.arities) for n in "ABCDE")
    assert o.level(c, d) == o.level(c, e) == 1 and o.level(t, u) == 2
    assert defender_optimal(o, t, u, 0, "a1", c) == ("r2", d)
    assert defender_optimal(o, u, t, 1, "a1", c) == ("r2", d)


def test_attacker_optimal_errors():
    g = g1()
    o = EqOracle(g, 12)
    z = parse_term(g.ts, "Z", g.arities)
    with pytest.raises(EquivError):
        attacker_optimal(o, g.ts.var(1), z)  # eqlevel 0
    with pytest.raises(EquivError):
        attacker_optimal(o, z, z)  # at cutoff


# -- deterministic-grammar language oracle -----------------------------------

def enabled_words(g, t, k):
    out = set()
    frontier = [(t, ())]
    for _ in range(k):
        nxt = []
        for term, w in frontier:
            for a in enabled_actions(g, term):
                for _, t2 in step_action(g, term, a):
                    w2 = w + (a,)
                    out.add(w2)
                    nxt.append((t2, w2))
        frontier = nxt
    return out


@pytest.mark.parametrize("seed", range(10))
def test_deterministic_language_oracle(seed):
    rng = random.Random(seed)
    g = random_grammar(seed, deterministic=True)
    o = EqOracle(g, 8)
    for _ in range(10):
        t = random_ground_term(rng, g, rng.randint(0, 2))
        u = random_ground_term(rng, g, rng.randint(0, 2))
        for k in range(0, 9):
            want = enabled_words(g, t, k) == enabled_words(g, u, k)
            assert (o.level(t, u, k) >= k) == want, (t, u, k)


# -- sink-substitution witnesses ---------------------------------------------

def witness_instances(seed, count, cutoff=7):
    """Instances with eqlevel(E,F) < eqlevel(E sigma, F sigma)."""
    rng = random.Random(seed)
    found = []
    tries = 0
    while len(found) < count and tries < 600:
        tries += 1
        g = random_grammar(rng.randint(0, 10 ** 6), max_nonterminals=3,
                           max_arity=2, max_rules=5, max_depth=1)
        ts = g.ts
        o = EqOracle(g, cutoff)
        e = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        f = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        s = {i: random_ground_term(rng, g, rng.randint(0, 1))
             for i in (1, 2)}
        k = o.level(e, f)
        ell = o.level(apply_subst(ts, e, s), apply_subst(ts, f, s))
        if k < ell < cutoff:
            found.append((g, o, e, f, s, k, ell))
    return found


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_sink_witnesses(seed):
    instances = witness_instances(seed, 12)
    assert len(instances) >= 5
    for g, o, e, f, s, k, ell in instances:
        i, h, w = find_sink_witness(o, e, f, s, k, ell)
        ts = g.ts
        assert s.get(i, ts.var(i)) != ts.var(i)
        assert h != ts.var(i)
        assert len(w) <= k
        # replay the witness word on the sinking side
        path = run_word(g, e, w)
        if path is None or path[-1] != ts.var(i):
            path = run_word(g, f, w)
            assert path is not None and path[-1] == ts.var(i)
        lhs = apply_subst(ts, ts.var(i), s)
        rhs = apply_subst(ts, h, s)
        need = min(ell - k, o.cutoff)
        assert o.level(lhs, rhs, need) >= need


def test_sink_witness_base_case():
    g = g1()
    o = EqOracle(g, 10)
    ts = g.ts
    e, f = ts.var(1), tower(g, 1)
    s = {1: tower(g, 1)}
    k = o.level(e, f)
    ell = o.level(apply_subst(ts, e, s), apply_subst(ts, f, s))
    assert k == 0 and ell == 10  # A(Z) vs A(Z) reaches the cutoff


def test_sink_witness_skips_identity_bindings():
    """A binding x_i -> x_i counts as no binding. Here x1 sigma = x2 sigma
    = x1, so the first candidate, x1 against H = x2, would pass the
    level check if x1 counted as bound; the witness is x2 against x1."""
    g = g1()
    o = EqOracle(g, 10)
    ts = g.ts
    x1, x2 = ts.var(1), ts.var(2)
    sigma = {1: x1, 2: x1}
    ell = o.level(apply_subst(ts, x1, sigma), apply_subst(ts, x2, sigma))
    assert o.level(x1, x2) == 0 and ell == 10
    assert find_sink_witness(o, x1, x2, sigma, 0, ell) == (2, x1, ())
