"""Rule-based and action-based transition semantics over a grammar.

The rule LTS is deterministic: a rule A(x1..xm) -a-> E rewrites any
A-rooted term A(x1..xm)sigma to Esigma, and does not apply elsewhere.
Variables are dead in both semantics. Also provides the greedy
d0-sinking factorization that the balanced-play checks use.
"""

from __future__ import annotations

from .terms import VAR, instantiate
from .grammar import Grammar, GrammarError


def step_rule(g: Grammar, t: int, rid: str):
    """Apply one rule at the root; None if it does not fire. The step is
    the rule's entry in the successor table of `step_action`."""
    if rid not in g.rule_by_id:
        raise GrammarError("unknown rule id %r" % rid)
    r = g.rule_by_id[rid]
    node = g.ts.node(t)
    if node[0] == VAR or node[1] != r.lhs:
        return None
    return dict(step_action(g, t, r.action))[rid]


def step_action(g: Grammar, t: int, action: str) -> tuple[tuple[str, int], ...]:
    """All (rule id, successor) pairs under rules with the given label,
    in declaration order. The only place a rule fires, from its nodes in
    `g.firing`; memoized in `g.successors`, as hash-consing keeps term
    ids stable, so each (term, action) is stepped once per grammar.
    """
    key = (t, action)
    out = g.successors.get(key)
    if out is None:
        if action not in g.actions:
            raise GrammarError("unknown action %r" % action)
        g.ts.node(t)  # rejects an unknown id
        binding = dict(enumerate(g.ts.children(t), 1))
        rules = g.firing.get(g.ts.root(t), {}).get(action, ())
        out = tuple((rid, instantiate(g.ts, below, binding) if binding
                     else below[-1])  # nothing bound: the rhs, last node
                    for rid, below in rules)
        g.successors[key] = out
    return out


def enabled_actions(g: Grammar, t: int) -> list[str]:
    node = g.ts.node(t)
    return [] if node[0] == VAR else list(g.firing[node[1]])


def run_word(g: Grammar, t: int, word) -> list[int] | None:
    """Execute a rule word: the terms it visits, t first ([t] for the
    empty word); None as soon as a step fails."""
    path = [t]
    for rid in word:
        nxt = step_rule(g, path[-1], rid)
        if nxt is None:
            return None
        path.append(nxt)
    return path


# -- d0-sinking words ---------------------------------------------------------

def d0_sinking_split(g: Grammar, word, d0: int):
    """Greedy factorization of a d0-sinking word; None if not d0-sinking.

    Repeatedly strips the shortest nonempty prefix of length < d0 that
    is an (A,i)-sink word, A the lhs of its first rule: replayed once
    from A(x1..xm), cut at the first variable (no rule applies there);
    accepts iff the residue is shorter than d0. Returns the list of
    pieces v1..vk plus the residue (possibly empty).
    """
    word = tuple(word)
    pieces = []
    pos = 0
    while pos < len(word):
        cur = g.lhs_term(g.rule_by_id[word[pos]].lhs)
        for end, rid in enumerate(word[pos:pos + d0 - 1], pos + 1):
            cur = step_rule(g, cur, rid)
            if cur is None or g.ts.is_var(cur):
                break
        if cur is None or not g.ts.is_var(cur):
            break
        pieces.append(word[pos:end])
        pos = end
    rest = word[pos:]
    if len(rest) < d0:
        return pieces, rest
    return None
