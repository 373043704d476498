"""Inputs of the three workloads, generated from the workload seed.

The random grammar and term generators are the benchmark's own copies
of the ones the test batteries use, so that edits to the tests cannot
move a workload. Everything here needs `fogbisim` importable.
"""

import pathlib
import random

from fogbisim.terms import TermStore, omega_iterate
from fogbisim.grammar import Grammar, Rule

GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"

NAMES = ["A", "B", "C", "D"]
ACTIONS = ["a", "b", "c"]

# oracle-battery: the grammar seeds and pairs per grammar of the eq-level
# battery the roadmap measured. Its cutoff of 10 is lowered to 8: at 10 one
# query takes 80% of a 30 s pass and the other 399 run within about one
# second, so their latencies sample one second of a machine whose speed
# swings by a quarter from second to second. At 8 that query still takes
# most of a 3.6 s pass, and a run repeats the pass about six times.
BATTERY_GRAMMARS = range(20)
BATTERY_PAIRS = 20
BATTERY_CUTOFF = 8

# pipeline-chain: each pass draws one chain length per stratum
# [CHAIN_LO + CHAIN_STEP*i, CHAIN_LO + CHAIN_STEP*(i+1)), so every seed
# spreads the same work over the same range of play lengths
CHAIN_LO = 8
CHAIN_STEP = 4
CHAIN_STRATA = 24
BUNDLED_CUTOFF = 31

# base-enum: (grammar file, n, s, max size, sound-c or None). The gchain
# size-3 runs carry most of the time; the g1 runs at sizes 5 and 6 and the
# gchain size-2 runs give the median and the tail well-separated groups.
BASE_MENU = [("gchain.fog", 1, 2, 3, None), ("gchain.fog", 1, 2, 3, 1)]
BASE_MENU += [("g1.fog", 1, s, 6, c) for s in (2, 3) for c in (None, 1)]
BASE_MENU += [(name, 1, s, size, c)
              for name, size in (("g1.fog", 5), ("gchain.fog", 2))
              for s in (2, 3) for c in (None, 1)]


# -- generators copied from the test batteries --------------------------------

def random_finite_term(rng, ts, arities, vars_avail, depth):
    """A random finite term over the grammar's nonterminals."""
    if depth == 0 or (vars_avail and rng.random() < 0.35):
        if vars_avail and (depth == 0 and rng.random() < 0.6 or depth > 0):
            return ts.var(rng.choice(vars_avail))
        nullary = [n for n, a in arities.items() if a == 0]
        if nullary:
            return ts.app(rng.choice(nullary), ())
        if vars_avail:
            return ts.var(rng.choice(vars_avail))
        # no leaves available: fall through to unit depth
        depth = 1
    name = rng.choice(list(arities))
    kids = tuple(random_finite_term(rng, ts, arities, vars_avail, depth - 1)
                 for _ in range(arities[name]))
    return ts.app(name, kids)


def random_grammar(seed):
    """A small random, possibly nondeterministic grammar: up to 4
    nonterminals of arity <= 3 and up to 8 rules of depth <= 2."""
    rng = random.Random(seed)
    ts = TermStore()
    n_nt = rng.randint(1, 4)
    arities = {NAMES[i]: rng.randint(0, 3) for i in range(n_nt)}
    n_act = rng.randint(1, len(ACTIONS))
    actions = ACTIONS[:n_act]
    n_rules = rng.randint(1, 8)
    rules = []
    for _ in range(n_rules):
        lhs = rng.choice(list(arities))
        action = rng.choice(actions)
        vars_avail = list(range(1, arities[lhs] + 1))
        rhs = random_finite_term(rng, ts, arities, vars_avail,
                                 rng.randint(0, 2))
        rules.append(Rule("r%d" % (len(rules) + 1), lhs, action, rhs))
    return Grammar(ts, arities, actions, rules)


def random_ground_term(rng, g, depth):
    """A random variable-free term over g (pads with cycles if needed)."""
    ts = g.ts
    nullary = [n for n, a in g.arities.items() if a == 0]

    def go(d):
        if d == 0 and nullary:
            return ts.app(rng.choice(nullary), ())
        name = rng.choice(list(g.arities))
        if d == 0 and g.arities[name] > 0 and nullary:
            name = rng.choice(nullary)
        kids = tuple(go(max(0, d - 1)) for _ in range(g.arities[name]))
        return ts.app(name, kids)

    if not nullary:
        # tie off leaves with a self-loop term mu t.N(t,..,t)
        name = min(g.arities, key=lambda n: (g.arities[n], n))
        base = ts.app(name, tuple(ts.var(1) for _ in range(g.arities[name])))
        loop = omega_iterate(ts, base, 1)

        def go2(d):
            if d == 0:
                return loop
            name2 = rng.choice(list(g.arities))
            kids = tuple(go2(d - 1) for _ in range(g.arities[name2]))
            return ts.app(name2, kids) if g.arities[name2] else loop
        return go2(depth)
    return go(depth)


# -- workload inputs ---------------------------------------------------------

def battery_grammar(gseed):
    """Grammar gseed of the battery and its pairs, in a fresh term store."""
    g = random_grammar(gseed)
    rng = random.Random(gseed)
    pairs = [(random_ground_term(rng, g, rng.randint(0, 3)),
              random_ground_term(rng, g, rng.randint(0, 3)))
             for _ in range(BATTERY_PAIRS)]
    return g, pairs


def chain_grammar(n):
    """Grammar text of chain-n.

    A and B push a P or R counter chain of length n on b; only the last R
    also has a c move, so eqlevel(A(A(Z)), B(B(Z))) = n.
    """
    ps = ["P%d" % i for i in range(1, n + 1)]
    rs = ["R%d" % i for i in range(1, n + 1)]
    decl = ["A/1", "B/1"] + [x + "/1" for x in ps + rs] + ["Z/0"]
    lines = ["nonterminals: " + ", ".join(decl), "actions: a, b, c",
             "rule a1: A(x1) -a-> x1", "rule a2: A(x1) -b-> P1(x1)",
             "rule b1: B(x1) -a-> x1", "rule b2: B(x1) -b-> R1(x1)"]
    for tag, chain in (("p", ps), ("r", rs)):
        for i, x in enumerate(chain):
            lines.append("rule %s%d: %s(x1) -b-> %s(x1)"
                         % (tag, i + 1, x, chain[min(i + 1, n - 1)]))
    lines.append("rule c1: %s(x1) -c-> %s(x1)" % (rs[-1], rs[-1]))
    lines.append("rule z1: Z -a-> Z")
    return "\n".join(lines) + "\n"


def chain_strata():
    return [range(CHAIN_LO + CHAIN_STEP * i, CHAIN_LO + CHAIN_STEP * (i + 1))
            for i in range(CHAIN_STRATA)]


def base_argv(entry):
    name, n, s, size, sound_c = entry
    argv = ["base", "--grammar", str(GRAMMARS / name), "--n", str(n),
            "--s", str(s), "--g", "0", "--max-size", str(size), "--json"]
    if sound_c is not None:
        argv += ["--sound-c", str(sound_c)]
    return argv


def base_key(entry):
    name, n, s, size, sound_c = entry
    return "%s n=%d s=%d size=%d sound-c=%s" % (name, n, s, size, sound_c)
