"""Random grammar/term generation, the chain-n grammar family and the
reference term walks shared by the test batteries."""

import random

from fogbisim.terms import TermError, TermStore
from fogbisim.grammar import Grammar, Rule


NAMES = ["A", "B", "C", "D"]
ACTIONS = ["a", "b", "c"]


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


def random_grammar(seed, max_nonterminals=4, max_arity=3, max_rules=8,
                   deterministic=False, max_depth=2):
    """A small random grammar; deterministic=True keeps (lhs, action) unique."""
    rng = random.Random(seed)
    ts = TermStore()
    n_nt = rng.randint(1, max_nonterminals)
    arities = {NAMES[i]: rng.randint(0, max_arity) for i in range(n_nt)}
    n_act = rng.randint(1, len(ACTIONS))
    actions = ACTIONS[:n_act]
    n_rules = rng.randint(1, max_rules)
    rules = []
    used = set()
    for k in range(n_rules):
        lhs = rng.choice(list(arities))
        action = rng.choice(actions)
        if deterministic:
            if (lhs, action) in used:
                continue
            used.add((lhs, action))
        vars_avail = list(range(1, arities[lhs] + 1))
        rhs = random_finite_term(rng, ts, arities, vars_avail, rng.randint(0, max_depth))
        rules.append(Rule("r%d" % (len(rules) + 1), lhs, action, rhs))
    if not rules:
        lhs = sorted(arities)[0]
        vars_avail = list(range(1, arities[lhs] + 1))
        rhs = random_finite_term(rng, ts, arities, vars_avail, 1)
        rules.append(Rule("r1", lhs, actions[0], rhs))
    return Grammar(ts, arities, actions, rules)


def random_ground_term(rng, g, depth):
    """A random variable-free term over grammar g (pads with cycles if needed)."""
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
        from fogbisim.terms import omega_iterate
        base = ts.app(name, tuple(ts.var(1) for _ in range(g.arities[name])))
        mu = omega_iterate(ts, base, 1)
        nullary_backup = mu

        def go2(d):
            if d == 0:
                return nullary_backup
            name2 = rng.choice(list(g.arities))
            kids = tuple(go2(d - 1) for _ in range(g.arities[name2]))
            return ts.app(name2, kids) if g.arities[name2] else nullary_backup
        return go2(depth)
    return go(depth)


def chain_grammar(n):
    """Grammar text of chain-n: A and B push a P or R counter chain of
    length n on b, and only the last R also has a c move, so
    eqlevel(A(A(Z)), B(B(Z))) = n."""
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


def deep_grammar(levels):
    """Grammar text of A0(x1) -a-> x1, Ai(x1) -a-> A(i-1)(A(i-1)(x1)) for
    i = 1..levels, and Z -a-> Z: the shortest (Ai,1)-sink word has
    2^(i+1) - 1 rules. grammars/gdeep.fog is deep_grammar(12)."""
    nts = ["A%d" % i for i in range(levels + 1)]
    lines = ["nonterminals: " + ", ".join(x + "/1" for x in nts) + ", Z/0",
             "actions: a", "rule a0: A0(x1) -a-> x1"]
    lines += ["rule a%d: A%d(x1) -a-> A%d(A%d(x1))" % (i, i, i - 1, i - 1)
              for i in range(1, levels + 1)]
    lines.append("rule z1: Z -a-> Z")
    return "\n".join(lines) + "\n"


def propsize(ts, roots):
    """Reference: nonterminal-node count of the least presentation."""
    return sum(1 for t in ts.reachable(list(roots)) if not ts.is_var(t))


def is_finite(ts, t):
    """Reference: whether the presentation reachable from t is acyclic,
    i.e. every arc below t leads to a smaller id."""
    return all(c < u for u in ts.reachable([t]) for c in ts.children(u))


def height(ts, t):
    """Reference: maximal depth of a subterm occurrence; finite terms
    only."""
    if not is_finite(ts, t):
        raise TermError("height is undefined for infinite terms")
    h = {}
    for u in sorted(ts.reachable([t])):
        kids = ts.children(u)
        h[u] = 1 + max(h[c] for c in kids) if kids else 0
    return h[t]
