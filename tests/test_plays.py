import copy
import random

import pytest

from fogbisim.terms import (
    apply_subst, intern_graph, omega_iterate, parse_term, pressize, varin,
)
from fogbisim.grammar import GrammarError, parse_grammar
from fogbisim.lts import run_word, step_rule
from fogbisim.equiv import EqOracle, Indeterminate
from fogbisim import plays
from fogbisim.plays import (
    BalanceInfo, BalancedPlay, PivotPath, Play, PlaysError, Segmentation,
    balance_step, build_optimal_play, crucial_segment_length,
    enables_balancing, label_matched_reachable, p_top_form, present_over_top,
    transform_to_balanced, verify_balanced, _build_pivot_path,
)

from gen import chain_grammar, deep_grammar, random_grammar, random_ground_term
from test_acceptance import bundled_pairs
from test_equiv import log_games

G1 = (
    "nonterminals: A/1, Z/0\n"
    "actions: a, b\n"
    "rule r1: A(x1) -a-> x1\n"
    "rule r2: A(x1) -b-> A(A(x1))\n"
    "rule r3: Z -a-> Z\n")

# a left-side chain A -> P -> Q that never sinks, differing from the
# right-side chain B -> R -> S only at depth 2 (S has an extra action)
GCHAIN = (
    "nonterminals: A/1, B/1, P/1, Q/1, R/1, S/1, Z/0\n"
    "actions: a, b, c\n"
    "rule a1: A(x1) -a-> x1\n"
    "rule a2: A(x1) -b-> P(x1)\n"
    "rule p1: P(x1) -b-> Q(x1)\n"
    "rule q1: Q(x1) -b-> Q(x1)\n"
    "rule b1: B(x1) -a-> x1\n"
    "rule b2: B(x1) -b-> R(x1)\n"
    "rule r1: R(x1) -b-> S(x1)\n"
    "rule s1: S(x1) -b-> S(x1)\n"
    "rule s2: S(x1) -c-> S(x1)\n"
    "rule z1: Z -a-> Z\n")

# all-nullary chains: every length-1 window is root-performable
GNULL = (
    "nonterminals: P0/0, P1/0, P2/0, Q0/0, Q1/0, DEAD/0\n"
    "actions: a, b\n"
    "rule p0: P0 -a-> P1\n"
    "rule p1: P1 -a-> P2\n"
    "rule p2: P2 -a-> P2\n"
    "rule q0: Q0 -a-> Q1\n"
    "rule q1: Q1 -a-> DEAD\n"
    "rule dd: DEAD -b-> DEAD\n")


def g1():
    return parse_grammar(G1)


def tower(g, n):
    t = parse_term(g.ts, "Z", g.arities)
    for _ in range(n):
        t = g.ts.app("A", (t,))
    return t


def pipeline(g, t, u, cutoff=8):
    o = EqOracle(g, cutoff)
    bp = transform_to_balanced(o, t, u)
    rep = verify_balanced(o, bp)
    return o, g.constants, bp, bp.pivot_path, bp.segmentation, rep


# -- optimal plays -----------------------------------------------------------

def test_build_optimal_play_towers():
    g = g1()
    o = EqOracle(g, 12)
    t, u = tower(g, 3), tower(g, 6)
    p = build_optimal_play(o, t, u)
    assert p.length() == 3 == o.level(t, u)
    for i, (rl, ru) in enumerate(p.moves):
        assert g.rule_by_id[rl].action == g.rule_by_id[ru].action
        assert step_rule(g, p.pairs[i][0], rl) == p.pairs[i + 1][0]
        assert step_rule(g, p.pairs[i][1], ru) == p.pairs[i + 1][1]
        assert o.level(*p.pairs[i + 1]) == o.level(*p.pairs[i]) - 1
    assert o.level(*p.finish) == 0


def test_build_optimal_play_trivial_and_errors():
    g = g1()
    o = EqOracle(g, 12)
    z = parse_term(g.ts, "Z", g.arities)
    p = build_optimal_play(o, g.ts.var(1), z)
    assert p.length() == 0 and p.start == p.finish
    with pytest.raises(Indeterminate):
        build_optimal_play(o, z, z)  # at cutoff


def test_play_words_and_subplay():
    g = g1()
    o = EqOracle(g, 12)
    p = build_optimal_play(o, tower(g, 2), tower(g, 4))
    assert p.word(0) == ("r1", "r1")
    sub = p.subplay(1, 2)
    assert sub.start == p.pairs[1] and sub.finish == p.pairs[2]
    assert sub.length() == 1


# -- modified plays and their eq-level concatenation, a reference of the
# paper's proofs -------------------------------------------------------------

class ModifiedPlay:
    """Nonempty sequence of plays with matching eq-levels at junctions.

    Kept normalized: zero-length bridging plays are merged away on
    construction via econc.
    """

    def __init__(self, plays, oracle=None):
        if not plays:
            raise PlaysError("a modified play needs at least one play")
        self.plays = list(plays)
        if oracle is not None:
            for a, b in zip(self.plays, self.plays[1:]):
                if a.finish == b.start:
                    raise PlaysError("unnormalized modified play")
                if oracle.level(*a.finish) != oracle.level(*b.start):
                    raise PlaysError("junction eq-levels differ")

    def length(self) -> int:
        return sum(p.length() for p in self.plays)

    def pair_sequence(self):
        seq = list(self.plays[0].pairs)
        for p in self.plays[1:]:
            if p.start == seq[-1]:
                seq.extend(p.pairs[1:])
            else:
                seq.extend(p.pairs)
        return seq


def econc(a, b):
    """Eqlevel-concatenation: merge when finish(a) = start(b)."""
    pa, pb = a.plays, b.plays
    if pa[-1].finish == pb[0].start:
        merged = Play(pa[-1].pairs + pb[0].pairs[1:],
                      pa[-1].moves + pb[0].moves)
        return ModifiedPlay(pa[:-1] + [merged] + pb[1:])
    return ModifiedPlay(pa + pb)


def test_econc_merges_and_associates():
    g = g1()
    o = EqOracle(g, 12)
    p = build_optimal_play(o, tower(g, 3), tower(g, 6))
    a = ModifiedPlay([p.subplay(0, 1)])
    b = ModifiedPlay([p.subplay(1, 2)])
    c = ModifiedPlay([p.subplay(2, 3)])
    ab_c = econc(econc(a, b), c)
    a_bc = econc(a, econc(b, c))
    assert ab_c.pair_sequence() == a_bc.pair_sequence() == p.pairs
    assert len(ab_c.plays) == 1  # shared endpoints merge into one play
    assert ab_c.length() == 3


def test_modified_play_rejects_bad_junction():
    g = g1()
    o = EqOracle(g, 12)
    p = build_optimal_play(o, tower(g, 2), tower(g, 4))
    with pytest.raises(PlaysError):
        ModifiedPlay([p.subplay(0, 1), p.subplay(1, 2)], o)  # unnormalized
    with pytest.raises(PlaysError):
        ModifiedPlay([p.subplay(0, 2), p.subplay(0, 1)], o)  # levels differ


# -- balancing enablement ----------------------------------------------------

def test_enables_balancing_worked_example():
    g = parse_grammar(
        "nonterminals: A/2, M/2, B2/1, C/2, Z/0\n"
        "actions: a, b\n"
        "rule r1: A(x1,x2) -a-> M(x1,x2)\n"
        "rule r2: M(x1,x2) -b-> B2(x1)\n"
        "rule r3: M(x1,x2) -b-> B2(C(x2,x1))\n"
        "rule rz: Z -a-> Z\n")
    ts = g.ts
    t = parse_term(ts, "A(Z,Z)", g.arities)
    t1 = step_rule(g, t, "r1")
    t2 = step_rule(g, t1, "r3")
    rho = Play([(t, t), (t1, t1), (t2, t2)], [("r1", "r1"), ("r3", "r3")])
    got = enables_balancing(g, rho, 0, 2)
    assert got is not None
    a_name, kids, e_prime = got
    assert a_name == "A" and kids == ts.children(t)
    assert e_prime == parse_term(ts, "B2(C(x2,x1))", g.arities)
    assert enables_balancing(g, rho, 1, 2) is not None
    assert enables_balancing(g, rho, 0, 3) is None  # wrong length


def test_enables_balancing_sinking_prefix():
    g = g1()
    t = tower(g, 2)
    path = run_word(g, t, ["r1", "r1"])
    rho = Play([(v, v) for v in path], [("r1", "r1"), ("r1", "r1")])
    # A(x1) -r1-> x1 dies before step 2: not root-performable
    assert enables_balancing(g, rho, 0, 2) is None


def test_enables_balancing_variable_landing():
    g = parse_grammar(GCHAIN)
    t = parse_term(g.ts, "A(Z)", g.arities)
    t1 = step_rule(g, t, "a1")
    rho = Play([(t, t), (t1, t1)], [("a1", "a1")])
    # E' = x1 exactly at step d0 = 1 is allowed
    got = enables_balancing(g, rho, 0, 1)
    assert got is not None and g.ts.is_var(got[2])


def test_label_matched_reachable():
    g = parse_grammar(GCHAIN)
    t = parse_term(g.ts, "B(Z)", g.arities)
    got = label_matched_reachable(g, t, ["a"])
    assert got == [(("b1",), parse_term(g.ts, "Z", g.arities))]
    assert label_matched_reachable(g, t, ["c"]) == []


def reference_abstract_death(g, e_prime, word):
    """First p with the abstract replay of word from e_prime reaching a
    variable; returns (p, var index) or None. p = 0 when e_prime is a
    variable already. The whole-word replay the reference
    transformation runs."""
    cur = e_prime
    for p in range(0, len(word) + 1):
        node = g.ts.node(cur)
        if node[0] == "var":
            return (p, node[1])
        if p == len(word):
            return None
        cur = step_rule(g, cur, word[p])
        if cur is None:
            return None


def test_abstract_death():
    g = g1()
    e = g.lhs_term("A")
    assert reference_abstract_death(g, e, ("r1",)) == (1, 1)
    assert reference_abstract_death(g, e, ("r2",)) is None
    assert reference_abstract_death(g, g.ts.var(2), ()) == (0, 2)
    # the word stops applying after the sink: still reports the death
    assert reference_abstract_death(g, e, ("r1", "r1")) == (1, 1)


# -- p-top forms -------------------------------------------------------------

def test_p_top_form_round_trip_and_numbering():
    g = parse_grammar(
        "nonterminals: A/3, B/0, C/2, D/2\n"
        "actions: a, b\n"
        "rule r1: A(x1,x2,x3) -b-> x2\n"
        "rule r2: A(x1,x2,x3) -a-> C(x2, D(x2, x1))\n")
    ts = g.ts
    w = parse_term(ts, "A(D(x5,C(x2,B)),x5,B)", g.arities)
    for p in (1, 2, 3, 5):
        top, sigma = p_top_form(ts, w, p)
        assert apply_subst(ts, top, sigma) == w
        vs = varin(ts, [top])
        assert vs == set(range(1, len(vs) + 1))  # numbered 1..n
    top1, _ = p_top_form(ts, w, 1)
    assert top1 == parse_term(ts, "A(x1,x2,x3)", g.arities)


def test_p_top_form_deep_term():
    # the cut walks an explicit stack: depth is not bounded by recursion
    g = g1()
    ts = g.ts
    w = parse_term(ts, "A(" * 3000 + "Z" + ")" * 3000, g.arities)
    top, sigma = p_top_form(ts, w, 2999)
    assert varin(ts, [top]) == {1}
    assert sigma[1] == parse_term(ts, "A(Z)", g.arities)
    assert apply_subst(ts, top, sigma) == w


def test_p_top_form_shares_repeated_cut_subterms():
    g = g1()
    ts = g.ts
    w = parse_term(ts, "A(A(Z))", g.arities)
    w2 = ts.app("A", (w,))
    top, sigma = p_top_form(ts, w2, 2)
    # both occurrences of the depth-2 subterm collapse onto one variable
    assert varin(ts, [top]) == {1}
    assert apply_subst(ts, top, sigma) == w2


def test_p_top_form_cyclic():
    g = g1()
    ts = g.ts
    mu = omega_iterate(ts, ts.app("A", (ts.var(1),)), 1)  # A(A(A(...)))
    top, sigma = p_top_form(ts, mu, 2)
    assert apply_subst(ts, top, sigma) == mu


# -- balancing steps ---------------------------------------------------------

def test_balance_step_chain_grammar():
    g = parse_grammar(GCHAIN)
    ts = g.ts
    o = EqOracle(g, 8)
    t = parse_term(ts, "A(Z)", g.arities)
    u = parse_term(ts, "B(Z)", g.arities)
    assert o.level(t, u) == 2
    assert g.constants.d0 == 2
    play = build_optimal_play(o, t, u)
    rho = play.subplay(0, 2)
    info = balance_step(o, rho, 0)
    z = parse_term(ts, "Z", g.arities)
    assert info.pivot == u
    assert info.vbar == {1: ("b1",)}
    assert info.sigma_pp[1] == z
    assert info.bal_pair == rho.finish  # Q(Z) already had the Z argument
    assert o.level(*info.bal_pair) == 0


def test_balance_step_tie_goes_to_the_first_declared_word():
    # the chain grammar with a second a-rule on B, declared before b1: both
    # candidates for V_1 (W and Z) are equivalent to the kid Z, so they tie
    g = parse_grammar(GCHAIN.replace(
        "rule b1: B(x1) -a-> x1\n",
        "rule b9: B(x1) -a-> W\nrule b1: B(x1) -a-> x1\n").replace(
        "Z/0", "W/0, Z/0") + "rule w1: W -a-> W\n")
    ts = g.ts
    o = EqOracle(g, 8)
    t = parse_term(ts, "A(Z)", g.arities)
    u = parse_term(ts, "B(Z)", g.arities)
    w = parse_term(ts, "W", g.arities)
    assert [r for r, _ in label_matched_reachable(g, u, ["a"])] == [("b9",), ("b1",)]
    assert o.level(t, u) == 2 and g.constants.d0 == 2
    info = balance_step(o, build_optimal_play(o, t, u).subplay(0, 2), 0)
    assert info.vbar == {1: ("b9",)}
    assert info.sigma_pp[1] == w


def test_balance_step_not_enabled():
    g = g1()
    o = EqOracle(g, 12)
    assert g.constants.d0 == 2
    play = build_optimal_play(o, tower(g, 2), tower(g, 4))
    with pytest.raises(PlaysError):
        balance_step(o, play.subplay(0, 2), 0)


def test_balance_step_balresult_size():
    g = parse_grammar(GCHAIN)
    o = EqOracle(g, 8)
    c = g.constants
    t = parse_term(g.ts, "A(Z)", g.arities)
    u = parse_term(g.ts, "B(Z)", g.arities)
    info = balance_step(o, build_optimal_play(o, t, u).subplay(0, 2), 0)
    g_top, sigma = p_top_form(g.ts, info.pivot, info.rho.length())
    e_top, f_top = present_over_top(g, info, g_top)
    assert apply_subst(g.ts, e_top, sigma) == info.bal_pair[0]
    assert apply_subst(g.ts, f_top, sigma) == info.bal_pair[1]
    bound = pressize(g.ts, [g_top]) + (c.m + 2) * c.d0 * c.stepinc
    assert pressize(g.ts, [e_top, f_top]) <= bound


# -- the transformation ------------------------------------------------------

def test_transform_no_balancing_towers():
    g = g1()
    t, u = tower(g, 2), tower(g, 5)
    o, c, bp, pp, seg, rep = pipeline(g, t, u)
    assert bp.ell == 0
    assert bp.length() == 2 == o.level(t, u)
    assert pp.terms == [] and pp.segments == []
    assert seg.crucial == []
    assert seg.csink_len == {0: 2}
    assert rep.ok(), [c for c in rep.checks if not c[1]]


def test_transform_short_play():
    g = g1()
    ts = g.ts
    # eqlevel 1 < d0 = 2: no window fits
    t = tower(g, 1)
    u = ts.app("A", (ts.var(1),))
    o, c, bp, pp, seg, rep = pipeline(g, t, u)
    assert bp.ell == 0 and bp.length() == 1
    assert rep.ok(), [c for c in rep.checks if not c[1]]


def test_transform_nullary_chains():
    g = parse_grammar(GNULL)
    t = parse_term(g.ts, "P0", g.arities)
    u = parse_term(g.ts, "Q0", g.arities)
    o, c, bp, pp, seg, rep = pipeline(g, t, u)
    assert c.d0 == 1
    assert o.level(t, u) == 2
    assert bp.ell == 2
    assert all(info.side == 0 for info in bp.balances)
    q1 = parse_term(g.ts, "Q1", g.arities)
    dead = parse_term(g.ts, "DEAD", g.arities)
    assert pp.terms == [u, u, q1, dead]
    assert [s[0] for s in pp.segments] == [(), ("q0",), ("q1",)]
    assert seg.close == [1, 2]
    assert rep.ok(), [c for c in rep.checks if not c[1]]


def test_verify_refuses_oversize_constants():
    # six levels give d0 = 128 and a d4 of about 35,000 digits: balancing
    # reads d0 alone, and the checks that compare against d4 are refused
    # by name
    text = deep_grammar(6).replace("actions: a\n", "actions: a, b\n")
    g = parse_grammar(text + "rule zb: Z -b-> Z\n")
    t = parse_term(g.ts, "A1(Z)", g.arities)
    u = parse_term(g.ts, "A2(Z)", g.arities)
    o = EqOracle(g, 12)
    bp = transform_to_balanced(o, t, u)
    with pytest.raises(GrammarError, match="constant d4 exceeds 4300 digits"):
        verify_balanced(o, bp)


def test_transform_chain_grammar():
    g = parse_grammar(GCHAIN)
    t = parse_term(g.ts, "A(Z)", g.arities)
    u = parse_term(g.ts, "B(Z)", g.arities)
    o, c, bp, pp, seg, rep = pipeline(g, t, u)
    assert bp.ell == 1
    info = bp.balances[0]
    assert info.side == 0
    assert info.vbar == {1: ("b1",)}
    assert bp.length() == 2 == o.level(t, u)
    # pivot path: whole right-hand path from the pivot B(Z)
    s = parse_term(g.ts, "S(Z)", g.arities)
    assert pp.terms == [u, u, s]
    assert pp.segments[1][0] == ("b2", "r1")
    assert rep.ok(), [c for c in rep.checks if not c[1]]


def test_transform_rejects_cutoff():
    g = g1()
    o = EqOracle(g, 8)
    z = parse_term(g.ts, "Z", g.arities)
    with pytest.raises(Indeterminate):
        transform_to_balanced(o, z, z)


def test_cutoff_starvation_names_the_pair(monkeypatch):
    """With every V_i candidate read at level 0, no V_i lies above the
    balanced pair's level: the step stops and names that pair."""
    g = parse_grammar(GCHAIN)
    o = EqOracle(g, 12)
    t, u = (parse_term(g.ts, x, g.arities) for x in ("A(A(Z))", "B(B(Z))"))
    rho = build_optimal_play(o, t, u).subplay(0, g.d0)
    real = EqOracle.level
    monkeypatch.setattr(EqOracle, "level", lambda o, a, b, budget=None:
                        real(o, a, b) if (a, b) == rho.finish else 0)
    with pytest.raises(Indeterminate) as got:
        balance_step(o, rho, 0)
    assert str(got.value) == ("cutoff starvation: no qualifying V_1 for pivot "
                              "below the cutoff 12: Q(A(Z)) vs S(B(Z))")


# -- the transformation against the eager reference -------------------------

def reference_transform_to_balanced(o, t, u):
    """The eager procedure kept as a reference: every continuation is
    built to its full length, the abstract replay runs over its whole
    balanced-side word, and the windows are scanned afterwards."""
    g = o.g
    d0 = g.constants.d0
    if o.level(t, u) >= o.cutoff:
        raise Indeterminate("eq-level at/above cutoff")
    pi = build_optimal_play(o, t, u)

    def scan(play, prev_side, death):
        for q in range(0, play.length() - d0 + 1):
            window = play.subplay(q, q + d0)
            if prev_side is None:
                sides = (0, 1)
            elif death is not None and death[0] <= q:
                sides = (prev_side, 1 - prev_side)
            else:
                sides = (prev_side,)
            for s in sides:
                if enables_balancing(g, window, s, d0):
                    return (q, s)
        return None

    got = scan(pi, None, None)
    if got is None:
        bp = BalancedPlay((t, u), pi, [], [], [])
        bp.pivot_path = PivotPath([], [])
        return bp
    q, side = got
    mu0 = pi.subplay(0, q)
    balances = [balance_step(o, pi.subplay(q, q + d0), side)]
    mus, splits = [], []
    while True:
        prev = balances[-1]
        cont = build_optimal_play(o, *prev.bal_pair)
        death = reference_abstract_death(g, prev.e_prime,
                                         cont.word(prev.side))
        got = scan(cont, prev.side, death)
        if got is None:
            mus.append(cont)
            splits.append(death)
            break
        q2, side2 = got
        mus.append(cont.subplay(0, q2))
        splits.append(death if death is not None and death[0] <= q2
                      else None)
        balances.append(balance_step(o, cont.subplay(q2, q2 + d0), side2))
    bp = BalancedPlay((t, u), mu0, balances, mus, splits)
    bp.pivot_path = reference_build_pivot_path(g, bp)
    return bp


def transformation_summary(bp):
    """Everything the transformation decides, as comparable values."""
    pp = bp.pivot_path
    return ((bp.mu0.pairs, bp.mu0.moves),
            [(mu.pairs, mu.moves) for mu in bp.mus], bp.splits,
            [(i.side, i.rho.pairs, i.rho.moves, i.pivot, i.e_prime,
              i.vbar, i.bal_pair) for i in bp.balances],
            pp.terms, pp.segments)


def assert_matches_reference(o, t, u):
    got = transformation_summary(transform_to_balanced(o, t, u))
    ref = transformation_summary(reference_transform_to_balanced(o, t, u))
    assert got == ref, (t, u)
    return got


def chain_case(n):
    """chain-n with its pair A(A(Z)), B(B(Z)) at cutoff n + 1."""
    g = parse_grammar(chain_grammar(n))
    t = parse_term(g.ts, "A(A(Z))", g.arities)
    u = parse_term(g.ts, "B(B(Z))", g.arities)
    return g, EqOracle(g, n + 1), t, u


def test_balancing_reads_d0_without_the_constants(monkeypatch):
    # balancing needs d0 alone, so it must not pay for d1..d5 and c,
    # which on deep grammars run to thousands of digits
    import fogbisim.grammar as grammar

    def refuse(g):
        raise AssertionError("balancing built the constants")

    monkeypatch.setattr(grammar, "compute_constants", refuse)
    g, o, t, u = chain_case(8)
    bp = transform_to_balanced(o, t, u)
    assert bp.length() == o.level(t, u) == 8
    assert g.d0 == 2 and "constants" not in vars(g)


# pairs whose transformation turns on the abstract replay of E', with
# their splits: (grammar, left, right, splits). No bundled, chain or
# battery pair reaches a split. The first three split their last
# continuation, the fourth splits a continuation that is balanced
# again, in the fifth the pivot side's word would die where the
# balanced side's word does not, and the sixth balances the other side
# after a split, so its pivot path takes the switched branch.
SPLIT_GRAMMAR = (
    "nonterminals: A/0, B/0, C/1\n"
    "actions: a, b, c\n"
    "rule r1: B -b-> B\n"
    "rule r2: A -a-> B\n"
    "rule r3: B -a-> C(B)\n"
    "rule r4: C(x1) -a-> C(x1)\n"
    "rule r5: A -b-> A\n"
    "rule r6: B -c-> A\n"
    "rule r7: C(x1) -b-> C(C(x1))\n"
    "rule r8: C(x1) -c-> x1\n")
A_LOOP = "node n = A(n); "
REPLAY_CASES = [
    (lambda: parse_grammar(SPLIT_GRAMMAR), "C(A)", "B", [(0, 1)]),
    (lambda: random_grammar(211, max_arity=1, max_rules=12),
     "C(C(C(A)))", "C(B)", [(1, 1)]),
    (lambda: random_grammar(351, max_arity=2, max_rules=12,
                            deterministic=True),
     A_LOOP + "root t = n",
     A_LOOP + "node b = B(n, n); node a = A(b); node c = C(a); root t = c",
     [(0, 1)]),
    (lambda: random_grammar(1189, max_arity=1, max_rules=12),
     A_LOOP + "node b = B(n); node a = A(b); node aa = A(a); root t = aa",
     A_LOOP + "root t = n", [(1, 1), None]),
    (lambda: random_grammar(686, max_arity=1, max_rules=12),
     "C(A(A(B)))", "C(C(B))", [None]),
    (lambda: random_grammar(16583, max_arity=1, max_rules=12),
     A_LOOP + "node c = C(n); node a = A(c); node aa = A(a); root t = aa",
     A_LOOP + "node b = B(n); node a = A(b); node aa = A(a); root t = aa",
     [(0, 1), (0, 1)]),
]


def test_transform_matches_reference_bundled():
    for g, o, t, u in bundled_pairs():
        assert_matches_reference(o, t, u)


def test_transform_matches_reference_chains():
    for n in range(8, 41):
        g, o, t, u = chain_case(n)
        assert_matches_reference(o, t, u)


@pytest.mark.parametrize("seed", range(6))
def test_transform_matches_reference_battery(seed):
    for g, o, t, u in battery_instances(seed, 15):
        assert_matches_reference(o, t, u)


@pytest.mark.parametrize("case", range(len(REPLAY_CASES)))
def test_transform_matches_reference_replay(case):
    make, left, right, splits = REPLAY_CASES[case]
    g = make()
    o = EqOracle(g, 16)
    t, u = (intern_graph(g.ts, x, g.arities) if "=" in x
            else parse_term(g.ts, x, g.arities) for x in (left, right))
    assert assert_matches_reference(o, t, u)[2] == splits
    rep = verify_balanced(o, transform_to_balanced(o, t, u))
    assert rep.ok(), [c for c in rep.checks if not c[1]]


def test_transform_builds_only_the_steps_it_keeps(monkeypatch):
    # each continuation grows only to its next balancing window: one
    # attacker move per step of the balanced play, none thrown away
    calls = []
    real = plays.attacker_optimal

    def counting(o, t, u):
        calls.append((t, u))
        return real(o, t, u)

    monkeypatch.setattr(plays, "attacker_optimal", counting)
    cases = [chain_case(n) for n in range(8, 41)] + bundled_pairs()
    for g, o, t, u in cases:
        calls.clear()
        bp = transform_to_balanced(o, t, u)
        assert len(calls) == bp.length(), (t, u)


def test_pruning_bounds_the_balancing_games(monkeypatch):
    # each balancing step builds a pair over a new child no rule word of
    # the P and R chains exposes; pruned, every such pair meets the one
    # counter chain already solved (without pruning: 420 games)
    n = 40
    g, o, t, u = chain_case(n)
    assert o.level(t, u) == n
    log = log_games(monkeypatch)
    bp = transform_to_balanced(o, t, u)
    assert bp.ell > 1
    assert sum(ev[0] == "open" for ev in log) <= 2 * n


# -- every named check can fail ----------------------------------------------

def failures(rep):
    return [(name, detail) for name, ok, detail in rep.checks if not ok]


@pytest.mark.parametrize("check", [
    "unclear-bounded-by-d2", "balancing-preserves-eqlevel",
    "balresult-top-shape/mismatch", "balresult-top-shape/size",
    "pivot-path-stitches"])
def test_each_check_fails_on_a_corrupted_gchain_play(check):
    """gchain's A(Z), B(Z) at d0 = 2: B(Z) balances the left side, with
    E' = Q(x1), to the bal-result (Q(Z), S(Z)) at level 0. Each copy is
    corrupted just past one bound, and only that check fails."""
    g = parse_grammar(GCHAIN)

    def term(text):
        return parse_term(g.ts, text, g.arities)

    o, c, bp, pp, seg, rep = pipeline(g, term("A(Z)"), term("B(Z)"))
    assert rep.ok() and (c.d2, c.m, c.stepinc) == (3, 1, 1)
    info = copy.copy(bp.balances[0])
    detail = ""
    if check == "unclear-bounded-by-d2":
        # segment 1 claims one unclear rule more than rho'_1 and
        # mu^unc_1 have together
        pp = PivotPath(pp.terms, [pp.segments[0], (pp.segments[1][0], 3)])
        detail = "j=1 w_unc=3 len=2 d2=3"
    elif check == "balancing-preserves-eqlevel":
        # rho'_1 ends at (Q(Z), R(Z)), one level above the bal-result
        info.rho = Play(info.rho.pairs[:-1] + [(term("Q(Z)"), term("R(Z)"))],
                        info.rho.moves)
    elif check.endswith("mismatch"):
        # E' = P(x1): P(Z) is not the bal-result's left term
        info.e_prime = term("P(x1)")
        detail = "j=1 presentation mismatch"
    elif check.endswith("size"):
        # E' = Q^7(x1) with the bal-result it gives, still at level 0: 9
        # nodes against pressize(B(Z)) + (m + 2) * d0 * stepinc = 8
        info.e_prime = term("Q(Q(Q(Q(Q(Q(Q(x1)))))))")
        info.bal_pair = (apply_subst(g.ts, info.e_prime, info.sigma_pp),
                         info.bal_pair[1])
        detail = "j=1 bal-result size 9 > 8"
    else:
        # W_2 is R(Z), but the path from B(Z) ends at S(Z)
        pp = PivotPath(pp.terms[:2] + [term("R(Z)")], pp.segments)
    bp = BalancedPlay(bp.start_pair, bp.mu0, [info], bp.mus, bp.splits)
    bp.pivot_path, bp.segmentation = pp, seg
    rep = verify_balanced(o, bp)
    assert failures(rep) == [(check.split("/")[0], detail)]


def verified_chain_case(n):
    """chain-n's balanced play, with its pivot path and segmentation,
    verified."""
    g, o, t, u = chain_case(n)
    bp = transform_to_balanced(o, t, u)
    assert verify_balanced(o, bp).ok()
    return g, o, bp


def test_crucial_length_fails_on_a_corrupted_chain6_segmentation():
    # the crucial segment (2, 4) spans two pivots, d0 + 0 + 0 rules each;
    # nine more rules of mu^usink_3 put it one past d5 * (1 + 4 - 2) = 12
    g, o, bp = verified_chain_case(6)
    seg = bp.segmentation
    assert seg.crucial == [(1, 2), (2, 4)] and g.constants.d5 == 4
    assert crucial_segment_length(bp, 2, 4) == 4
    usink = dict(seg.usink_len)
    usink[3] += 9
    bp.segmentation = Segmentation(seg.close, usink, seg.csink_len,
                                   seg.crucial, seg.bases)
    assert failures(verify_balanced(o, bp)) == [
        ("crucial-length", "k=2..4 len=13 bound=12")]


@pytest.mark.parametrize("n", range(6, 13))
def test_no_close_sinking_inside_crucial_segments(n):
    """A close-sinking part of mu_j visits a subterm of the start pair
    on the pivot path's side, so W_{j+1} is close: inside a crucial
    segment, whose inner pivots are not close, there is none."""
    seg = verified_chain_case(n)[2].segmentation
    inner = [j for kj, kj1 in seg.crucial for j in range(kj, kj1 - 1)]
    assert inner and all(seg.csink_len[j] == 0 for j in inner)


def reference_stair_base(g, bp, j):
    """The base of the stair from close pivot W_j, derived by replaying
    the pivot-path segment W_{j-1} -> W_j: its last subterm of the
    initial pair, with that subterm's index on the segment."""
    pp = bp.pivot_path
    subs = g.ts.reachable(list(bp.start_pair))
    terms = run_word(g, pp.terms[j - 1], pp.segments[j - 1][0])
    last = max(q for q, t in enumerate(terms) if t in subs)
    return last, terms[last]


def test_stair_bases_match_the_replayed_segments():
    # the random pair's first pivot-path segment visits two subterms of
    # the initial pair, and the base is the later one
    g = random_grammar(450445, max_nonterminals=3, max_arity=2,
                       max_rules=6, max_depth=1)
    t, u = (intern_graph(g.ts, A_LOOP + text, g.arities) for text in (
        "node b = B(n); node bb = B(b); node bbb = B(bb); root t = bbb",
        "node b = B(n); node bb = B(b); root t = bb"))
    o = EqOracle(g, 7)
    assert transform_to_balanced(o, t, u).segmentation.bases[1][0] == 1
    cases = [(g, o, t, u)] + bundled_pairs() + [
        chain_case(n) for n in range(6, 21)]
    checked = 0
    for g, o, t, u in cases:
        bp = transform_to_balanced(o, t, u)
        seg = bp.segmentation
        assert list(seg.bases) == seg.close
        for j in seg.close:
            assert seg.bases[j] == reference_stair_base(g, bp, j), (t, u, j)
            checked += 1
    assert checked >= 40


# -- pivot paths -------------------------------------------------------------

def reference_build_pivot_path(g, bp):
    """The two-case pivot-path assembly kept as a reference, with sides
    spelled as 0 (left) and 1 (right)."""
    if bp.ell == 0:
        return PivotPath([], [])
    terms = []
    segments = []
    first = bp.balances[0]
    w0_side = 1 if first.side == 0 else 0
    terms.append(bp.start_pair[w0_side])
    segments.append((bp.mu0.word(1) if first.side == 0
                     else bp.mu0.word(0), 0))
    for j in range(1, bp.ell + 1):
        info = bp.balances[j - 1]
        terms.append(info.pivot)
        mu = bp.mus[j - 1]
        split = bp.splits[j - 1]
        if j < bp.ell:
            nxt = bp.balances[j]
            switched = nxt.side != info.side
        else:
            nxt = None
            switched = False  # halt: pivot path stays on the pivot side
        if not switched:
            # u'_j v'_j along the pivot's own side
            u_word = (info.rho.word(1) if info.side == 0
                      else info.rho.word(0))
            v_word = (mu.word(1) if info.side == 0
                      else mu.word(0))
            word = u_word + v_word
            unc = len(u_word) + (split[0] if split is not None else len(v_word))
            end = (mu.finish[1] if info.side == 0 else mu.finish[0])
        else:
            p, i = split  # case b) guarantees the split exists
            vbar = info.vbar[i]
            tail = (mu.word(0) if info.side == 0
                    else mu.word(1))[p:]
            word = tuple(vbar) + tuple(tail)
            unc = len(vbar)
            end = (mu.finish[0] if info.side == 0 else mu.finish[1])
        segments.append((word, unc))
        if j == bp.ell:
            terms.append(end)
    return PivotPath(terms, segments)


def hand_built_balanced_play(sides, splits):
    """A BalancedPlay over made-up distinct term ids and rule names with
    the given balancing sides and splits; only the fields the pivot path
    reads are filled in."""
    ids = iter(range(100, 10 ** 6))

    def play(n, tag):
        return Play([(next(ids), next(ids)) for _ in range(n + 1)],
                    [(tag + "l%d" % i, tag + "r%d" % i) for i in range(n)])

    mu0 = play(2, "m0")
    balances, mus = [], []
    for j, side in enumerate(sides, 1):
        rho = play(2, "rho%d" % j)
        vbar = {1: ("v%d" % j,), 2: ("v%d" % j, "w%d" % j)}
        balances.append(BalanceInfo(side, rho, rho.start[1 - side], None,
                                    None, vbar, None))
        mus.append(play(3, "mu%d" % j))
    return BalancedPlay(mu0.start, mu0, balances, mus, splits)


@pytest.mark.parametrize("sides,splits", [
    ((0, 1, 0), [(1, 2), (0, 1), None]),
    ((0, 1, 0), [(3, 1), (2, 2), (1, 1)]),
    ((1, 1), [None, (2, 2)]),
    ((1, 1), [(1, 1), None]),
])
def test_pivot_path_matches_reference_hand_built(sides, splits):
    bp = hand_built_balanced_play(sides, splits)
    pp = _build_pivot_path(bp)
    ref = reference_build_pivot_path(None, bp)
    assert pp.terms == ref.terms and pp.segments == ref.segments
    assert len(pp.segments) == bp.ell + 1 and len(pp.terms) == bp.ell + 2
    if sides[0] != sides[1]:
        # switched: the v-bar word, then the balanced side's tail from p
        p, i = splits[0]
        vbar = bp.balances[0].vbar[i]
        assert pp.segments[1] == (
            vbar + bp.mus[0].word(sides[0])[p:], len(vbar))


def test_pivot_path_matches_reference_bundled():
    for g, o, t, u in bundled_pairs():
        bp = transform_to_balanced(o, t, u)
        pp = bp.pivot_path
        ref = reference_build_pivot_path(g, bp)
        assert pp.terms == ref.terms and pp.segments == ref.segments


# -- randomized battery ------------------------------------------------------

def battery_instances(seed, count, cutoff=7):
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < 400:
        tries += 1
        g = random_grammar(rng.randint(0, 10 ** 6), max_nonterminals=3,
                           max_arity=2, max_rules=6, max_depth=1)
        t = random_ground_term(rng, g, rng.randint(0, 2))
        u = random_ground_term(rng, g, rng.randint(0, 2))
        o = EqOracle(g, cutoff)
        e = o.level(t, u)
        if 0 < e < cutoff:
            out.append((g, o, t, u))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_transform_random_battery(seed):
    instances = battery_instances(seed, 15)
    assert len(instances) >= 8
    for g, o, t, u in instances:
        bp = transform_to_balanced(o, t, u)
        rep = verify_balanced(o, bp)
        assert rep.ok(), ([c for c in rep.checks if not c[1]], g.rules, t, u)
        seq = bp.pair_sequence()
        assert len(seq) == len(set(seq))


def test_battery_hits_balancing_overall():
    total = 0
    for seed in range(6):
        for g, o, t, u in battery_instances(seed, 15):
            total += transform_to_balanced(o, t, u).ell
    assert total >= 5
