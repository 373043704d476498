"""Acceptance criteria, one test (and one printed pass/fail line) each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion lines.
"""

import pathlib
import random
from contextlib import contextmanager

from fogbisim.terms import (
    TermStore, apply_subst, omega_iterate, parse_term,
    pressize, varin,
)
from fogbisim.grammar import (
    compute_constants, compute_sink_table, parse_grammar,
)
from fogbisim.lts import run_word, step_rule
from fogbisim.equiv import EqOracle, find_sink_witness
from fogbisim.plays import transform_to_balanced, verify_balanced
from fogbisim.bases import (
    NsgParams, NsgSequence, bound_of_candidate, build_full_base_capped,
    check_nsg_sequence, enumerate_pairs, present_stair_as_nsg,
    reduce_nsg_step, sound_candidate_search,
)

from gen import height, random_grammar, random_ground_term, random_finite_term
from test_grammar import bfs_sink_words, saturate_sinkable
from test_equiv import enabled_words, eq_level_subst, witness_instances
from test_bases import reduction_instances, stair_instances

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"


def load(name):
    return parse_grammar((GRAMMARS / name).read_text())


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print("criterion-%02d %s: FAIL" % (num, desc))
        raise
    print("criterion-%02d %s: PASS" % (num, desc))


# ---------------------------------------------------------------------------

def test_criterion_01_term_figure_regression():
    with criterion(1, "term figure regression"):
        arities = {"A": 3, "B": 0, "C": 2, "D": 2}
        ts = TermStore()
        e1 = parse_term(ts, "A(D(x5,C(x2,B)),x5,B)", arities)
        e2 = apply_subst(ts, e1, {2: e1})
        e3 = omega_iterate(ts, e1, 2)
        assert pressize(ts, [e1]) == 6
        assert pressize(ts, [e3]) == 5
        assert pressize(ts, [e1, e2]) == 9
        assert height(ts, e1) == 3
        assert varin(ts, [e1, e2]) == {2, 5}
        g = parse_grammar(
            "nonterminals: A/3, B/0, C/2, D/2\n"
            "actions: a, b\n"
            "rule r1: A(x1,x2,x3) -b-> x2\n"
            "rule r2: A(x1,x2,x3) -a-> C(x2, D(x2, x1))\n")
        ts2 = g.ts
        f1 = parse_term(ts2, "A(D(x5,C(x2,B)),x5,B)", g.arities)
        f3 = omega_iterate(ts2, f1, 2)
        assert step_rule(g, f3, "r1") == ts2.var(5)
        assert step_rule(g, f1, "r2") == parse_term(
            ts2, "C(x5,D(x5,D(x5,C(x2,B))))", g.arities)


def test_criterion_02_sink_word_oracle():
    with criterion(2, "sink-word table matches exhaustive BFS"):
        for seed in range(20):
            g = random_grammar(seed, max_nonterminals=4, max_arity=3,
                               max_rules=8)
            table = compute_sink_table(g)
            assert set(table) == saturate_sinkable(g)
            longest = max(map(len, table.values()), default=0)
            bfs = bfs_sink_words(g, longest + 1)
            for key, w in table.items():
                assert bfs[key] == w


def test_criterion_03_eq_level_property_battery():
    with criterion(3, "eq-level property battery (cutoff 12)"):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_grammar(seed, max_nonterminals=3, max_arity=2,
                               max_rules=6, max_depth=1)
            ts = g.ts
            o = EqOracle(g, 12)
            pairs = [(random_ground_term(rng, g, rng.randint(0, 2)),
                      random_ground_term(rng, g, rng.randint(0, 2)))
                     for _ in range(500)]
            for t, u in pairs:
                e = o.level(t, u)
                assert o.level(u, t) == e            # symmetry
                assert o.level(t, t) == 12           # reflexivity
                for k in range(0, 13):
                    assert (o.level(t, u, k) >= k) == (e >= k)  # hierarchy
            for _ in range(100):                     # triple transfer
                s, t, t2 = (random_ground_term(rng, g, rng.randint(0, 2))
                            for _ in range(3))
                est, ett = o.level(s, t), o.level(t, t2)
                if ett > est and est < 12:
                    assert o.level(s, t2) == est
            for _ in range(50):                      # congruence
                e = random_finite_term(rng, ts, g.arities, [1, 2],
                                       rng.randint(0, 2))
                f = random_finite_term(rng, ts, g.arities, [1, 2],
                                       rng.randint(0, 2))
                s1 = {i: random_ground_term(rng, g, 1) for i in (1, 2)}
                s2 = {i: random_ground_term(rng, g, 1) for i in (1, 2)}
                assert o.level(e, f) <= o.level(
                    apply_subst(ts, e, s1), apply_subst(ts, f, s1))
                assert eq_level_subst(o, s1, s2) <= o.level(
                    apply_subst(ts, e, s1), apply_subst(ts, e, s2))


def test_criterion_04_deterministic_language_cross_check():
    with criterion(4, "deterministic-grammar language oracle agreement"):
        for seed in range(10):
            rng = random.Random(seed)
            g = random_grammar(seed, deterministic=True)
            o = EqOracle(g, 8)
            for _ in range(10):
                t = random_ground_term(rng, g, rng.randint(0, 2))
                u = random_ground_term(rng, g, rng.randint(0, 2))
                for k in range(0, 9):
                    want = enabled_words(g, t, k) == enabled_words(g, u, k)
                    assert (o.level(t, u, k) >= k) == want


def test_criterion_05_sink_witness_battery():
    with criterion(5, "sink-witness battery (>= 100 instances)"):
        total = 0
        seed = 0
        while total < 100 and seed < 40:
            for g, o, e, f, s, k, ell in witness_instances(seed, 12):
                i, h, w = find_sink_witness(o, e, f, s, k, ell)
                ts = g.ts
                assert s.get(i, ts.var(i)) != ts.var(i) != h
                assert len(w) <= k
                path = run_word(g, e, w)
                if path is None or path[-1] != ts.var(i):
                    path = run_word(g, f, w)
                    assert path is not None and path[-1] == ts.var(i)
                need = min(ell - k, o.cutoff)
                assert o.level(apply_subst(ts, ts.var(i), s),
                               apply_subst(ts, h, s), need) >= need
                total += 1
            seed += 1
        assert total >= 100


def bundled_pairs():
    """(grammar, oracle, T, U) with finite eq-level <= 30, >= 200 pairs."""
    out = []
    g = load("g1.fog")
    o = EqOracle(g, 31)
    towers = [parse_term(g.ts, "Z", g.arities)]
    for _ in range(14):
        towers.append(g.ts.app("A", (towers[-1],)))
    for i in range(len(towers)):
        for j in range(i + 1, len(towers)):
            out.append((g, o, towers[i], towers[j]))
    for name in ("gnull.fog", "gchain.fog"):
        g = load(name)
        o = EqOracle(g, 31)
        terms = []
        for nt, m in g.arities.items():
            if m == 0:
                terms.append(g.lhs_term(nt))
            else:
                base = parse_term(g.ts, "Z", g.arities)
                for k in range(3):
                    terms.append(g.ts.app(nt, (base,)))
                    if "A" in g.arities:
                        base = g.ts.app("A", (base,))
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                lv = o.eq_level(terms[i], terms[j])
                if lv.is_finite() and lv.value <= 30:
                    out.append((g, o, terms[i], terms[j]))
    return out


def run_pipeline(g, o, t, u):
    return g.constants, transform_to_balanced(o, t, u)


def test_criterion_06_balanced_play_harness():
    with criterion(6, "balanced-play checks on >= 200 bundled pairs"):
        pairs = bundled_pairs()
        assert len(pairs) >= 200
        for g, o, t, u in pairs:
            c, bp = run_pipeline(g, o, t, u)
            rep = verify_balanced(o, bp)
            assert rep.ok(), ([c for c in rep.checks if not c[1]], t, u)


def test_criterion_07_stair_sequences():
    with criterion(7, "crucial segments form valid (n,s,g)-sequences"):
        checked = 0
        sources = [(g, o, t, u) for g, o, t, u in bundled_pairs()
                   if o.level(t, u) < 7]
        extra = iter(stair_instances())
        while True:
            try:
                g, o, t, u = sources.pop() if sources else next(extra)
            except StopIteration:
                break
            c, bp = run_pipeline(g, o, t, u)
            params = NsgParams(c.n, c.s, c.g)
            for idx, (kj, kj1) in enumerate(bp.segmentation.crucial):
                seq = present_stair_as_nsg(o, bp, idx)
                assert check_nsg_sequence(o, seq, params)
                for i, top in enumerate(seq.tops):
                    assert pressize(g.ts, list(top)) <= c.s + i * c.g
                checked += 1
            if checked >= 20 and not sources:
                break
        assert checked >= 20


def test_criterion_08_bound_mechanization():
    with criterion(8, "sequence bound z <= E_B and reduction preservation"):
        g = load("g1.fog")
        ts = g.ts
        o = EqOracle(g, 10)
        p = NsgParams(1, 2, 0)
        base, bound, status, _ = build_full_base_capped(o, p, 4)
        assert status == "complete"
        rng = random.Random(11)
        universe = list(enumerate_pairs(o, 1, 2))
        built = 0
        for _ in range(80):
            sigma = {1: random_ground_term(rng, g, rng.randint(0, 2))}
            scored = []
            for (e, f), lv, sz, eq in universe:
                inst = o.level(apply_subst(ts, e, sigma),
                               apply_subst(ts, f, sigma))
                if inst < o.cutoff:
                    scored.append((inst, (e, f)))
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
        # reduction preserves per-element eq-levels (revalidated inside)
        preserved = 0
        for seed in range(4):
            for g2, o2, seq, k, ell in reduction_instances(seed, 6):
                p2 = NsgParams(2, max(pressize(g2.ts, list(t))
                                      for t in seq.tops), 1)
                new_seq, new_p = reduce_nsg_step(o2, seq, p2)
                assert new_seq.z == seq.z - (k + 1)
                preserved += 1
        assert preserved >= 12


def test_criterion_09_soundness_loop():
    with criterion(9, "sound search equals the capped full base"):
        grammars = [
            "nonterminals: P/0, Q/0\nactions: a, b\n"
            "rule p1: P -a-> P\nrule q1: Q -b-> Q\n",
            (GRAMMARS / "g1.fog").read_text(),
            "nonterminals: P/0, Q/0, R/0\nactions: a, b\n"
            "rule p1: P -a-> Q\nrule q1: Q -b-> Q\n"
            "rule r1: R -a-> R\n",
        ]
        for text in grammars:
            g = parse_grammar(text)
            o = EqOracle(g, 10)
            p = NsgParams(0, 2, 0)
            cand, bound, status, _ = sound_candidate_search(o, p, 1, 2)
            assert status == "sound"
            full, fbound, status, _ = build_full_base_capped(o, p, 2)
            assert status == "complete"
            assert cand.layers == full.layers
            assert bound == fbound


def test_criterion_10_constants_regression():
    with criterion(10, "derived-constant regression with big integers"):
        g = load("g1.fog")
        c = compute_constants(g)
        assert (c.d0, c.stepinc, c.hinc) == (2, 2, 1)
        assert (c.d2, c.n, c.g) == (5, 1, 12)
        # independent arbitrary-precision recomputation: 2 nonterminals,
        # 3 rules, max arity 1, 3 non-variable rhs subterms
        d1 = 2 * 2 * max(2, 3 ** 2) ** (1 + 2)
        assert c.d1 == d1 == 2916
        d4 = d1 * (1 + 3) ** (5 + 2 - 1)
        assert c.d4 == d4 == 11943936
        d5 = (5 + 2 - 1) * (1 + (2 - 1) * 1)
        assert c.d5 == d5 == 12
        assert c.c == max(3 ** 4, 2 * d4 * d5) == 286654464
        assert c.s == 1 ** 3 + 3 * 2 * 2 + 6 * 2 == 25
