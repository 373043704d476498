import pathlib
import random
import re
from itertools import product

import pytest

from fogbisim.terms import (
    apply_subst, omega_iterate, parse_term, pressize, refine,
    varin,
)
from fogbisim.grammar import parse_grammar
from fogbisim.equiv import EqOracle, Indeterminate
from fogbisim.plays import (
    Play, PlaysError, balance_step, build_optimal_play, transform_to_balanced,
)
from fogbisim import bases
from fogbisim.bases import (
    BasesError, Candidate, NsgParams, NsgSequence,
    bound_of_candidate, build_full_base_capped, check_nsg_sequence,
    enumerate_pairs, enumerate_terms, present_stair_as_nsg,
    reduce_nsg_step, sound_candidate_search, speceq_check,
)

from gen import (
    chain_grammar, is_finite, random_finite_term, random_grammar,
    random_ground_term,
)

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"

G1 = (
    "nonterminals: A/1, Z/0\n"
    "actions: a, b\n"
    "rule r1: A(x1) -a-> x1\n"
    "rule r2: A(x1) -b-> A(A(x1))\n"
    "rule r3: Z -a-> Z\n")


def g1():
    return parse_grammar(G1)


def tower(g, n, base=None):
    t = base if base is not None else parse_term(g.ts, "Z", g.arities)
    for _ in range(n):
        t = g.ts.app("A", (t,))
    return t


# -- sequences ---------------------------------------------------------------

def test_check_nsg_sequence_basic():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 12)
    sigma = {1: tower(g, 1)}
    x1 = ts.var(1)
    # (x1 sigma, A(x1) sigma) = (A(Z), A(A(Z))): eq-level 1
    seq = NsgSequence(ts, [(x1, ts.app("A", (x1,)))], sigma)
    assert check_nsg_sequence(o, seq, NsgParams(1, 2, 0))
    # size violation
    assert not check_nsg_sequence(o, seq, NsgParams(1, 1, 0))
    # variable outside x1..xn
    assert not check_nsg_sequence(o, seq, NsgParams(0, 2, 0))


def test_check_nsg_sequence_strict_decrease():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 12)
    sigma = {1: parse_term(ts, "Z", g.arities)}
    a1 = ts.app("A", (ts.var(1),))
    a2 = ts.app("A", (a1,))
    a3 = ts.app("A", (a2,))
    # levels: (A2 x1, A3 x1) -> 2, (A1 x1, A2 x1) -> 1
    good = NsgSequence(ts, [(a2, a3), (a1, a2)], sigma)
    assert check_nsg_sequence(o, good, NsgParams(1, 4, 0))
    bad = NsgSequence(ts, [(a1, a2), (a2, a3)], sigma)
    assert not check_nsg_sequence(o, bad, NsgParams(1, 4, 0))
    same = NsgSequence(ts, [(a1, a2), (a1, a2)], sigma)
    assert not check_nsg_sequence(o, same, NsgParams(1, 4, 0))


def test_check_nsg_sequence_cutoff_breach():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 6)
    sigma = {1: parse_term(ts, "Z", g.arities)}
    z = parse_term(ts, "Z", g.arities)
    mu = omega_iterate(ts, ts.app("A", (ts.var(1),)), 1)
    # eqlevel(Z sigma, mu sigma) may exceed the cutoff? Z vs mu is 0;
    # use a genuinely deep pair instead
    seq = NsgSequence(ts, [(tower(g, 6), tower(g, 7))], sigma)
    with pytest.raises(Indeterminate):
        check_nsg_sequence(o, seq, NsgParams(1, 20, 0))


def test_every_cutoff_check_raises_indeterminate():
    """Each library check that needs a level below the cutoff raises
    Indeterminate, neither a PlaysError nor a BasesError, naming the
    cutoff."""
    g = g1()
    ts = g.ts
    o = EqOracle(g, 6)
    z = parse_term(ts, "Z", g.arities)
    a1 = ts.app("A", (ts.var(1),))
    # one element, A^7(Z) vs A^8(Z): eq-level 7, above the cutoff
    seq = NsgSequence(ts, [(a1, ts.app("A", (a1,)))], {1: tower(g, 6)})
    gc = parse_grammar((GRAMMARS / "gchain.fog").read_text())
    oc = EqOracle(gc, 6)
    # a window whose left word is root-performable from A and whose
    # finish pair is identical
    a, p, q = (parse_term(gc.ts, x, gc.arities)
               for x in ("A(Z)", "P(Z)", "Q(Z)"))
    rho = Play([(a, a), (p, p), (q, q)], [("a2", "a2"), ("p1", "p1")])
    checks = [
        lambda: build_optimal_play(o, z, z),
        lambda: transform_to_balanced(o, z, z),
        lambda: balance_step(oc, rho, 0),
        lambda: check_nsg_sequence(o, seq, NsgParams(1, 20, 0)),
        lambda: reduce_nsg_step(o, seq, NsgParams(1, 20, 0)),
        lambda: speceq_check(o, entry(o, tower(g, 7), tower(g, 8)), 40, 1),
    ]
    for check in checks:
        with pytest.raises(Indeterminate) as got:
            check()
        assert not isinstance(got.value, (BasesError, PlaysError))
        assert re.search(r"at least 6:|cutoff 6\b", str(got.value))


# -- one-step sequence reduction ----------------------------------------------

def reduction_instances(seed, count, cutoff=7):
    """Sequences whose first element's substitution raises the level."""
    rng = random.Random(seed)
    out = []
    tries = 0
    while len(out) < count and tries < 800:
        tries += 1
        g = random_grammar(rng.randint(0, 10 ** 6), max_nonterminals=3,
                           max_arity=2, max_rules=5, max_depth=1)
        ts = g.ts
        o = EqOracle(g, cutoff)
        e1 = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        f1 = random_finite_term(rng, ts, g.arities, [1, 2], rng.randint(0, 2))
        sigma = {i: random_ground_term(rng, g, rng.randint(0, 1))
                 for i in (1, 2)}
        k = o.level(e1, f1)
        ell = o.level(apply_subst(ts, e1, sigma), apply_subst(ts, f1, sigma))
        if not (k < ell < cutoff):
            continue
        # follow with tops whose instantiated levels strictly decrease
        tops = [(e1, f1)]
        prev = ell
        for _ in range(40):
            if prev == 0:
                break
            e = random_finite_term(rng, ts, g.arities, [1, 2],
                                   rng.randint(0, 1))
            f = random_finite_term(rng, ts, g.arities, [1, 2],
                                   rng.randint(0, 1))
            lv = o.level(apply_subst(ts, e, sigma), apply_subst(ts, f, sigma))
            if lv < prev:
                tops.append((e, f))
                prev = lv
        if len(tops) > k + 1:
            out.append((g, o, NsgSequence(ts, tops, sigma), k, ell))
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduce_nsg_step_preserves_levels(seed):
    instances = reduction_instances(seed, 8)
    assert len(instances) >= 3
    for g, o, seq, k, ell in instances:
        ts = g.ts
        p = NsgParams(2, max(pressize(ts, list(t)) for t in seq.tops), 1)
        # reduce_nsg_step revalidates per-element levels internally
        new_seq, new_p = reduce_nsg_step(o, seq, p)
        assert new_p.n == 1
        assert new_seq.z == seq.z - (k + 1)
        for e, f in new_seq.tops:
            assert varin(ts, [e, f]) <= {1}
        stepinc = max(
            len([x for x in ts.reachable([r.rhs]) if not ts.is_var(x)])
            for r in g.rules)
        assert new_p.s == 2 * p.s + p.g * (1 + k) + k * stepinc


def test_reduce_nsg_step_errors():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 12)
    sigma = {1: parse_term(ts, "Z", g.arities)}
    a1 = ts.app("A", (ts.var(1),))
    a2 = ts.app("A", (a1,))
    seq = NsgSequence(ts, [(a1, a2)], sigma)
    with pytest.raises(BasesError):
        reduce_nsg_step(o, seq, NsgParams(0, 4, 0))  # n = 0
    with pytest.raises(BasesError):
        # k = ell: substitution does not raise the level
        reduce_nsg_step(o, seq, NsgParams(1, 4, 0))


# -- candidates and bounds ---------------------------------------------------

def pair_level(ts, e, f):
    """The j with varin(E,F) = {x1..xj}, or None for non-prefix sets."""
    vs = varin(ts, [e, f])
    return len(vs) if vs == set(range(1, len(vs) + 1)) else None


def entry(o, t, u):
    """The (pair, layer, pressize, eq-level) tuple of (T, U), the shape
    enumerate_pairs yields and Candidate and speceq_check take."""
    ts = o.g.ts
    return ((t, u), pair_level(ts, t, u), pressize(ts, [t, u]), o.level(t, u))


def test_pair_level():
    g = g1()
    ts = g.ts
    z = parse_term(ts, "Z", g.arities)
    assert pair_level(ts, z, tower(g, 1)) == 0
    assert pair_level(ts, ts.var(1), z) == 1
    assert pair_level(ts, ts.var(2), z) is None  # non-prefix {x2}


def test_candidate_bound_hand_built():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 12)
    a3 = tower(g, 3, ts.var(1))
    a4 = tower(g, 4, ts.var(1))
    layer1 = (a3, a4)                    # eq-level 3, vars {x1}, size 5
    layer0 = (tower(g, 1), tower(g, 2))  # eq-level 1, ground, size 3
    assert o.level(*layer1) == 3 and o.level(*layer0) == 1
    cand = Candidate(o, NsgParams(1, 6, 0),
                     [entry(o, *layer0), entry(o, *layer1)])
    assert cand.e_vals == {1: 3, 0: 1}
    assert cand.s_vals[1] == 6
    # s0 = 2*6 + 0*(1+3) + 3*stepinc with stepinc = 2
    assert cand.s_vals[0] == 18
    assert bound_of_candidate(cand) == 6  # (1+3) + (1+1)
    assert cand.layers == {0: {layer0}, 1: {layer1}}


def test_candidate_rejects_bad_pairs():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 12)
    z = parse_term(ts, "Z", g.arities)
    with pytest.raises(BasesError):
        Candidate(o, NsgParams(0, 5, 0), [entry(o, z, z)])  # equivalent pair
    with pytest.raises(BasesError):
        Candidate(o, NsgParams(1, 5, 0),
                  [entry(o, ts.var(2), z)])  # non-prefix vars
    with pytest.raises(BasesError):
        # layer-0 pair larger than its threshold
        Candidate(o, NsgParams(0, 2, 0), [entry(o, tower(g, 2), tower(g, 3))])


def test_bound_monotone_under_growth():
    g = g1()
    o = EqOracle(g, 12)
    p = NsgParams(0, 6, 0)
    small = Candidate(o, p, [entry(o, tower(g, 0), tower(g, 1))])
    big = Candidate(o, p, [entry(o, tower(g, 0), tower(g, 1)),
                           entry(o, tower(g, 2), tower(g, 3))])
    assert bound_of_candidate(big) >= bound_of_candidate(small)


# -- enumeration -------------------------------------------------------------

def test_enumerate_terms_g1():
    g = g1()
    ts = g.ts
    terms = enumerate_terms(g, 1, 2)
    assert parse_term(ts, "Z", g.arities) in terms
    assert ts.var(1) in terms
    assert parse_term(ts, "A(Z)", g.arities) in terms
    assert ts.app("A", (ts.var(1),)) in terms
    # the cyclic unfolding A(A(A(...))) has pressize 1 and is included
    mu = omega_iterate(ts, ts.app("A", (ts.var(1),)), 1)
    assert mu in terms
    for t in terms:
        assert pressize(ts, [t]) <= 2
        assert varin(ts, [t]) <= {1}
    assert terms == enumerate_terms(g, 1, 2)  # deterministic


def has_cycle(ts, t):
    """Explicit DFS with an on-path set: the independent finiteness oracle."""
    on_path, done = set(), set()
    stack = [(t, iter(ts.children(t)))]
    on_path.add(t)
    while stack:
        u, kids = stack[-1]
        c = next(kids, None)
        if c is None:
            stack.pop()
            on_path.discard(u)
            done.add(u)
        elif c in on_path:
            return True
        elif c not in done:
            on_path.add(c)
            stack.append((c, iter(ts.children(c))))
    return False


def test_is_finite_matches_dfs_on_enumerated_terms():
    g = parse_grammar(open(GRAMMARS / "gchain.fog").read())
    terms = enumerate_terms(g, 1, 3)
    assert any(has_cycle(g.ts, t) for t in terms)
    for t in terms:
        assert is_finite(g.ts, t) == (not has_cycle(g.ts, t))


def reference_enumerate_terms(g, max_vars, max_size):
    """Brute-force reference for enumerate_terms: every assignment of
    options to k numbered nodes, kept when all nodes are reachable from
    node 0, deduplicated by interning; ENUMERATION_BUDGET as there."""
    ts = g.ts
    out = set()
    for k in range(1, max_size + 1):
        options = [("var", i) for i in range(1, max_vars + 1)]
        for nt in g.arities:
            for kids in product(range(k), repeat=g.arities[nt]):
                options.append(("app", nt, kids))
        total = len(options) ** k
        if total > bases.ENUMERATION_BUDGET:
            raise BasesError(
                "enumeration budget exceeded (%d graphs of %d nodes)"
                % (total, k))
        for assignment in product(options, repeat=k):
            seen = {0}
            stack = [0]
            while stack:
                node = assignment[stack.pop()]
                if node[0] == "app":
                    for child in node[2]:
                        if child not in seen:
                            seen.add(child)
                            stack.append(child)
            if len(seen) != k:
                continue
            out.add(ts.intern_raw(assignment))
    return sorted(out)


def assert_same_enumeration(g, max_vars, max_size):
    """Reference and enumerate_terms in one store: equal id lists, or
    the same BasesError."""
    try:
        want = reference_enumerate_terms(g, max_vars, max_size)
    except BasesError as ex:
        with pytest.raises(BasesError) as got:
            enumerate_terms(g, max_vars, max_size)
        assert str(got.value) == str(ex)
        return
    assert enumerate_terms(g, max_vars, max_size) == want


@pytest.mark.parametrize("name", ["g1.fog", "gchain.fog", "gnull.fog"])
def test_enumerate_terms_matches_reference(name):
    g = parse_grammar(open(GRAMMARS / name).read())
    for max_vars in range(3):
        for size in range(1, 4):
            assert_same_enumeration(g, max_vars, size)


def test_enumerate_terms_matches_reference_on_random_grammars(monkeypatch):
    monkeypatch.setattr(bases, "ENUMERATION_BUDGET", 4000)
    for seed in range(20):
        g = random_grammar(seed)
        for max_vars in range(3):
            for size in range(1, 4):
                assert_same_enumeration(g, max_vars, size)


def test_enumerate_terms_budget(monkeypatch):
    g = parse_grammar(open(GRAMMARS / "gchain.fog").read())
    interned = []
    real = g.ts.intern_raw
    monkeypatch.setattr(g.ts, "intern_raw",
                        lambda graph: interned.append(graph) or real(graph))
    with pytest.raises(BasesError) as ex:
        enumerate_terms(g, 1, 5)
    assert str(ex.value) == \
        "enumeration budget exceeded (33554432 graphs of 5 nodes)"
    assert interned == []  # the budget is checked before any graph is built
    enumerate_terms(g, 1, 2)
    assert interned  # and enumeration does intern through intern_raw


@pytest.mark.parametrize("arity", [15000, 10 ** 12])
def test_enumeration_budget_is_checked_before_the_count(arity):
    # k ** m past MAX_DIGITS digits is refused before it is computed,
    # and the message names the budget, not the count
    g = parse_grammar("nonterminals: A/%d, Z/0\nactions: a\n"
                      "rule r1: Z -a-> Z\n" % arity)
    with pytest.raises(BasesError) as ex:
        enumerate_terms(g, 1, 2)
    assert str(ex.value) == \
        "enumeration budget exceeded (more than 2000000 graphs of 2 nodes)"


@pytest.mark.parametrize("max_vars", [
    pytest.param(10 ** 4299, id="count of 4300 digits"),
    pytest.param(10 ** 4300 - 2, id="largest count of 4300 digits"),
    pytest.param(10 ** 4300 - 1, id="count of 4301 digits"),
])
def test_enumeration_budget_names_counts_of_up_to_max_digits(max_vars):
    # one node is a variable or Z: max_vars + 1 graphs, named in full
    # up to 4,300 digits, the most Python prints
    g = parse_grammar("nonterminals: Z/0\nactions: a\nrule r1: Z -a-> Z\n")
    with pytest.raises(BasesError) as ex:
        enumerate_terms(g, max_vars, 1)
    count = max_vars + 1
    if count < 10 ** 4300:
        assert str(ex.value) == \
            "enumeration budget exceeded (%d graphs of 1 nodes)" % count
    else:
        assert str(ex.value) == \
            "enumeration budget exceeded (more than 2000000 graphs of 1 nodes)"


def bfs_render(ts, t):
    """t in the graph format with its nodes named in breadth-first order
    from the root: the same text for the same term in any store."""
    order = [t]
    name = {t: 0}
    for u in order:
        for c in ts.children(u):
            if c not in name:
                name[c] = len(order)
                order.append(c)
    lines = []
    for u in order:
        node = ts.nodes[u]
        rhs = ("x%d" % node[1] if node[0] == "var" else "%s(%s)" % (
            node[1], ",".join("n%d" % name[c] for c in node[2])))
        lines.append("node n%d = %s" % (name[u], rhs))
    return "; ".join(lines + ["root t = n0"])


def enumeration_cases():
    """(fresh-grammar factory, budget) for the bundled grammars and random
    grammars 0-19, each to be run with max_vars 0-2 and sizes 1-3."""
    for name in ("g1.fog", "gchain.fog", "gnull.fog"):
        text = open(GRAMMARS / name).read()
        yield (lambda text=text: parse_grammar(text)), 2_000_000
    for seed in range(20):
        yield (lambda seed=seed: random_grammar(seed)), 4000


def test_enumerate_terms_keeps_the_store_minimal(monkeypatch):
    """Enumeration in a fresh store adds no two bisimilar nodes (refining
    the whole store leaves singleton blocks), and yields the terms the
    brute-force reference yields in a store of its own."""
    checked = 0
    for fresh, budget in enumeration_cases():
        monkeypatch.setattr(bases, "ENUMERATION_BUDGET", budget)
        for max_vars in range(3):
            for size in range(1, 4):
                g = fresh()
                try:
                    got = enumerate_terms(g, max_vars, size)
                except BasesError:
                    with pytest.raises(BasesError):
                        reference_enumerate_terms(fresh(), max_vars, size)
                    continue
                ts = g.ts
                assert refine(ts.nodes)[1] == len(ts.nodes), (max_vars, size)
                ref = fresh()
                want = reference_enumerate_terms(ref, max_vars, size)
                assert sorted(bfs_render(ts, t) for t in got) == \
                    sorted(bfs_render(ref.ts, t) for t in want)
                checked += 1
    assert checked == 169  # the other 38 cases exceed the budget


def reference_enumerate_pairs(o, max_vars, max_size):
    """All-pairs reference for enumerate_pairs: every pair of enumerated
    terms in index order, kept when its joint graph has at most max_size
    nodes and its variables form a prefix set within x1..max_vars."""
    ts = o.g.ts
    terms = enumerate_terms(o.g, max_vars, max_size)
    reach = [frozenset(ts.reachable([t])) for t in terms]
    for a in range(len(terms)):
        for b in range(a + 1, len(terms)):
            sz = len(reach[a] | reach[b])
            if sz > max_size:
                continue
            lv = pair_level(ts, terms[a], terms[b])
            if lv is None or lv > max_vars:
                continue
            yield ((terms[a], terms[b]), lv, sz, o.level(terms[a], terms[b]))


def assert_same_pairs(g, max_vars, max_size):
    """Reference and enumerate_pairs over one oracle: the same tuples in
    the same order, each pair (E, F) with E < F."""
    o = EqOracle(g, 6)
    want = list(reference_enumerate_pairs(o, max_vars, max_size))
    got = list(enumerate_pairs(o, max_vars, max_size))
    assert got == want, (max_vars, max_size)
    assert all(e < f for (e, f), lv, sz, eq in got)


@pytest.mark.parametrize("name", ["g1.fog", "gchain.fog", "gnull.fog"])
def test_enumerate_pairs_matches_reference(name):
    g = parse_grammar(open(GRAMMARS / name).read())
    for max_vars in range(2):
        for size in range(1, 4):
            assert_same_pairs(g, max_vars, size)


def test_enumerate_pairs_matches_reference_on_random_grammars():
    for seed in range(20):
        g = random_grammar(seed)
        for size in range(1, 3):
            assert_same_pairs(g, 1, size)


def test_enumerate_pairs_properties():
    g = g1()
    o = EqOracle(g, 8)
    pairs = list(enumerate_pairs(o, 1, 2))
    assert pairs
    for (e, f), lv, sz, eq in pairs:
        assert e < f
        assert pair_level(g.ts, e, f) == lv <= 1
        assert sz == pressize(g.ts, [e, f]) <= 2
    # complete: every pair of enumerated terms that passes the filter
    terms = enumerate_terms(g, 1, 2)
    want = []
    for i, e in enumerate(terms):
        for f in terms[i + 1:]:
            lv = pair_level(g.ts, e, f)
            if lv is not None and lv <= 1 and pressize(g.ts, [e, f]) <= 2:
                want.append((e, f))
    assert [pr for pr, lv, sz, eq in pairs] == want


# -- full bases --------------------------------------------------------------

def test_build_full_base_ground():
    g = g1()
    o = EqOracle(g, 8)
    cand, bound, status, reason = build_full_base_capped(
        o, NsgParams(0, 2, 0), 2)
    assert (status, reason) == ("complete", None)
    assert bound == 1  # all small ground pairs have eq-level 0
    z = parse_term(g.ts, "Z", g.arities)
    assert (z, tower(g, 1)) in cand.layers[0]


def test_build_full_base_empty():
    g = parse_grammar("nonterminals: Z/0\nactions: a\nrule z1: Z -a-> Z\n")
    o = EqOracle(g, 8)
    cand, bound, status, reason = build_full_base_capped(
        o, NsgParams(0, 0, 0), 1)
    assert (status, reason) == ("complete", None)
    assert bound == 1 and not any(cand.layers.values())


def test_build_full_base_capped_flag():
    g = g1()
    o = EqOracle(g, 8)
    # layer-0 threshold s0 grows beyond the cap with n = 1
    cand, bound, status, reason = build_full_base_capped(
        o, NsgParams(1, 4, 1), 3)
    assert (status, reason) == (
        "capped", "layer-1 size threshold 4 exceeds the max size 3")
    # thresholds within the cap, but P ~ Q is only known up to the cutoff
    g2 = parse_grammar(
        "nonterminals: P/0, Q/0\nactions: a\n"
        "rule p1: P -a-> P\nrule q1: Q -a-> Q\n")
    _, _, status, reason = build_full_base_capped(
        EqOracle(g2, 4), NsgParams(0, 2, 0), 2)
    assert (status, reason) == ("capped", "eq-level at least 4: layer-0 "
                                "pair P vs Q lies within its threshold 2")


def reference_build_full_base_capped(o, params, cap):
    """Stage-by-stage reference for build_full_base_capped: for each
    layer j from n down to 0, the pairs of layer <= j within min(s, cap)
    give e_j and s grows by the s' recursion; the layer-j pairs below the
    cutoff are picked. Returns (picked pairs, E_B, complete)."""
    stepinc = o.g.constants.stepinc
    universe = list(enumerate_pairs(o, params.n, cap))
    capped = False
    ambiguous = False
    picked = set()
    bound = 0
    s = params.s
    for j in range(params.n, -1, -1):
        if s > cap:
            capped = True
        t = min(s, cap)
        stage = [(pr, lv, sz, eq) for pr, lv, sz, eq in universe
                 if lv <= j and sz <= t]
        levels = []
        for pr, lv, sz, eq in stage:
            if eq >= o.cutoff:
                ambiguous = True
                continue
            levels.append(eq)
            if lv == j:
                picked.add(pr)
        e = max(levels, default=0)
        bound += 1 + e
        s = 2 * s + params.g * (1 + e) + e * stepinc
    return picked, bound, not capped and not ambiguous


BASE_PARAMS = [(0, 0, 0), (0, 2, 0), (0, 3, 1), (1, 2, 0), (1, 1, 1),
               (1, 6, 0), (2, 2, 0), (2, 0, 1)]


def assert_same_base(g, caps):
    o = EqOracle(g, 6)
    for n, s, gg in BASE_PARAMS:
        for cap in caps:
            params = NsgParams(n, s, gg)
            cand, bound, status, reason = build_full_base_capped(
                o, params, cap)
            assert (reason is None) == (status == "complete")
            assert (set().union(*cand.layers.values()), bound,
                    status == "complete") == \
                reference_build_full_base_capped(o, params, cap), (params, cap)


@pytest.mark.parametrize("name", ["g1.fog", "gchain.fog", "gnull.fog"])
def test_build_full_base_capped_matches_reference(name):
    assert_same_base(parse_grammar(open(GRAMMARS / name).read()), range(1, 4))


def test_build_full_base_capped_matches_reference_on_random_grammars():
    for seed in range(20):
        assert_same_base(random_grammar(seed), range(1, 3))


# -- the scaled equivalence test ---------------------------------------------

def test_speceq_check():
    g = g1()
    o = EqOracle(g, 10)
    z = parse_term(g.ts, "Z", g.arities)
    assert speceq_check(o, entry(o, z, z), 5, 3)  # identical terms
    # eq-level 0 against any positive threshold
    assert not speceq_check(o, entry(o, z, tower(g, 1)), 1, 1)
    # threshold at/above the cutoff with an undistinguished pair
    g2 = parse_grammar(
        "nonterminals: P/0, Q/0\nactions: a\n"
        "rule p1: P -a-> P\nrule q1: Q -a-> Q\n")
    o2 = EqOracle(g2, 4)
    with pytest.raises(Indeterminate):
        speceq_check(o2, entry(o2, parse_term(g2.ts, "P", g2.arities),
                               parse_term(g2.ts, "Q", g2.arities)), 10, 10)


def test_speceq_threshold_arithmetic():
    g = g1()
    o = EqOracle(g, 10)
    t, u = tower(g, 1), tower(g, 3)
    psz = pressize(g.ts, [t, u])
    for k in range(0, 4):
        for c in range(0, 3):
            want = o.level(t, u) > c * (k * psz + psz * psz)
            assert speceq_check(o, entry(o, t, u), k, c) == want


# -- the soundness loop ------------------------------------------------------

def test_sound_search_single_term_grammar():
    g = parse_grammar("nonterminals: Z/0\nactions: a\nrule z1: Z -a-> Z\n")
    o = EqOracle(g, 8)
    cand, bound, status, reason = sound_candidate_search(
        o, NsgParams(0, 2, 0), 1, 2)
    assert (status, reason) == ("sound", None)
    assert not any(cand.layers.values()) and bound == 1


def test_sound_search_matches_full_base():
    grammars = [
        "nonterminals: P/0, Q/0\nactions: a, b\n"
        "rule p1: P -a-> P\nrule q1: Q -b-> Q\n",
        G1,
        "nonterminals: P/0, Q/0, R/0\nactions: a, b\n"
        "rule p1: P -a-> Q\nrule q1: Q -b-> Q\n"
        "rule r1: R -a-> R\n",
    ]
    for text in grammars:
        g = parse_grammar(text)
        o = EqOracle(g, 10)
        p = NsgParams(0, 2, 0)
        cand, bound, status, reason = sound_candidate_search(o, p, 1, 2)
        assert (status, reason) == ("sound", None), text
        full, fbound, status, reason = build_full_base_capped(o, p, 2)
        assert (status, reason) == ("complete", None)
        assert cand.layers == full.layers
        assert bound == fbound


def test_sound_search_indeterminate():
    g = parse_grammar(
        "nonterminals: P/0, Q/0\nactions: a\n"
        "rule p1: P -a-> P\nrule q1: Q -a-> Q\n")
    o = EqOracle(g, 4)  # P ~ Q but only AtLeast(4) is provable
    cand, bound, status, reason = sound_candidate_search(
        o, NsgParams(0, 2, 0), 1, 2)
    assert status == "indeterminate"
    assert reason == ("threshold 6 is at/above the cutoff 4 and P vs Q is "
                      "not distinguished below it")


@pytest.mark.parametrize("name, cap", [("gchain.fog", 3), ("g1.fog", 6)])
@pytest.mark.parametrize("s", [2, 3])
def test_base_builders_ask_each_pair_once(monkeypatch, name, cap, s):
    """Both base builders compute each universe pair's eq-level once, in
    enumerate_pairs: Candidate and speceq_check read it from the pair's
    entry instead of asking the oracle again."""
    text = open(GRAMMARS / name).read()
    params = NsgParams(1, s, 0)
    pairs = len(list(enumerate_pairs(EqOracle(parse_grammar(text), 12),
                                     params.n, cap)))
    calls = []
    real = EqOracle.level
    monkeypatch.setattr(EqOracle, "level",
                        lambda o, *args: calls.append(args) or real(o, *args))
    build_full_base_capped(EqOracle(parse_grammar(text), 12), params, cap)
    assert len(calls) == pairs
    calls.clear()
    sound_candidate_search(EqOracle(parse_grammar(text), 12), params, 1, cap)
    assert len(calls) == pairs


# -- stair presentation ------------------------------------------------------

GNULL = (
    "nonterminals: P0/0, P1/0, P2/0, Q0/0, Q1/0, DEAD/0\n"
    "actions: a, b\n"
    "rule p0: P0 -a-> P1\n"
    "rule p1: P1 -a-> P2\n"
    "rule p2: P2 -a-> P2\n"
    "rule q0: Q0 -a-> Q1\n"
    "rule q1: Q1 -a-> DEAD\n"
    "rule dd: DEAD -b-> DEAD\n")


def full_pipeline(g, t, u, cutoff=8):
    o = EqOracle(g, cutoff)
    return o, g.constants, transform_to_balanced(o, t, u)


def test_present_stair_nullary():
    g = parse_grammar(GNULL)
    t = parse_term(g.ts, "P0", g.arities)
    u = parse_term(g.ts, "Q0", g.arities)
    o, c, bp = full_pipeline(g, t, u)
    seg = bp.segmentation
    assert len(seg.crucial) == 2
    params = NsgParams(c.n, c.s, c.g)
    for idx in range(len(seg.crucial)):
        seq = present_stair_as_nsg(o, bp, idx)
        assert seq.z == seg.crucial[idx][1] - seg.crucial[idx][0] == 1
        assert check_nsg_sequence(o, seq, params)
        # tops instantiate to the bal-results, levels matching
        j = seg.crucial[idx][0]
        assert seq.elements[0] == bp.balances[j - 1].bal_pair


def stair_instances():
    for seed in range(12):
        rng = random.Random(seed)
        for _ in range(150):
            g = random_grammar(rng.randint(0, 10 ** 6), max_nonterminals=3,
                               max_arity=2, max_rules=6, max_depth=1)
            t = random_ground_term(rng, g, rng.randint(0, 3))
            u = random_ground_term(rng, g, rng.randint(0, 3))
            o = EqOracle(g, 7)
            if not (0 < o.level(t, u) < 7):
                continue
            yield g, o, t, u


def test_present_stair_battery():
    checked = 0
    for g, o, t, u in stair_instances():
        if checked >= 8:
            break
        c = g.constants
        bp = transform_to_balanced(o, t, u)
        if bp.ell == 0:
            continue
        seg = bp.segmentation
        params = NsgParams(c.n, c.s, c.g)
        for idx in range(len(seg.crucial)):
            seq = present_stair_as_nsg(o, bp, idx)
            assert check_nsg_sequence(o, seq, params)
            kj, kj1 = seg.crucial[idx]
            assert seq.z == kj1 - kj
            for i, top in enumerate(seq.tops):
                assert pressize(g.ts, list(top)) <= c.s + i * c.g
                assert seq.elements[i] == bp.balances[kj - 1 + i].bal_pair
            checked += 1
    assert checked >= 8


def test_checking_a_presented_stair_substitutes_nothing(monkeypatch):
    """A presented stair carries its elements (E_j sigma, F_j sigma), so
    checking it asks no substitution."""
    stairs = []
    for g, t, u in [(parse_grammar(GNULL), "P0", "Q0")] + [
            (parse_grammar(chain_grammar(n)), "A(A(Z))", "B(B(Z))")
            for n in range(6, 9)]:
        o, c, bp = full_pipeline(g, parse_term(g.ts, t, g.arities),
                                 parse_term(g.ts, u, g.arities), 16)
        stairs += [(o, present_stair_as_nsg(o, bp, idx),
                    NsgParams(c.n, c.s, c.g))
                   for idx in range(len(bp.segmentation.crucial))]
    assert len(stairs) >= 8 and max(seq.z for _, seq, _ in stairs) > 1

    def refuse(*args):
        raise AssertionError("check_nsg_sequence substituted")

    monkeypatch.setattr(bases, "apply_subst", refuse)
    for o, seq, params in stairs:
        assert check_nsg_sequence(o, seq, params)


# -- sequence bound end-to-end -----------------------------------------------

def test_sequence_bound_on_g1():
    g = g1()
    ts = g.ts
    o = EqOracle(g, 10)
    p = NsgParams(1, 2, 0)
    base, bound, status, _ = build_full_base_capped(o, p, 4)
    assert status == "complete"
    rng = random.Random(3)
    universe = [(pr, lv, sz, eq) for pr, lv, sz, eq in enumerate_pairs(o, 1, 2)]
    built = 0
    for _ in range(60):
        sigma = {1: random_ground_term(rng, g, rng.randint(0, 2))}
        scored = []
        for (e, f), lv, sz, eq in universe:
            inst = o.level(apply_subst(ts, e, sigma), apply_subst(ts, f, sigma))
            if inst < o.cutoff:
                scored.append((inst, (e, f)))
        # one strictly-decreasing sequence per distinct level, greedy
        scored.sort(key=lambda x: (-x[0], x[1]))
        tops, seen = [], set()
        for inst, pair in scored:
            if inst not in seen:
                seen.add(inst)
                tops.append(pair)
        if not tops:
            continue
        seq = NsgSequence(ts, tops, sigma)
        assert check_nsg_sequence(o, seq, p)
        assert seq.z <= bound
        built += 1
    assert built >= 10
