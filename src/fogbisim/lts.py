"""Rule-based and action-based transition semantics over a grammar.

The rule LTS is deterministic: a rule A(x1..xm) -a-> E rewrites any
A-rooted term A(x1..xm)sigma to Esigma, and does not apply elsewhere.
Variables are dead in both semantics. Also provides the path-shape
predicates used by the segmentation machinery: sink-segments,
d0-sinking factorization, and the unique simple-stair decomposition.
"""

from __future__ import annotations

from .terms import instantiate
from .grammar import Grammar, GrammarError


class PathRecord:
    """An executed path start -word-> end with all intermediate terms."""

    def __init__(self, start: int, word: tuple[str, ...],
                 intermediates: list[int], end: int):
        self.start = start
        self.word = tuple(word)
        self.intermediates = list(intermediates)
        self.end = end

    def terms(self) -> list[int]:
        return [self.start] + self.intermediates + ([self.end] if self.word else [])

    def __len__(self):
        return len(self.word)

    def __repr__(self):
        return "PathRecord(%d -%s-> %d)" % (self.start, ".".join(self.word), self.end)


def step_rule(g: Grammar, t: int, rid: str):
    """Apply one rule at the root; None if it does not fire. The step is
    the rule's entry in the successor table of `step_action`."""
    if rid not in g.rule_by_id:
        raise GrammarError("unknown rule id %r" % rid)
    r = g.rule_by_id[rid]
    node = g.ts.node(t)
    if node[0] == "var" or node[1] != r.lhs:
        return None
    return dict(step_action(g, t, r.action))[rid]


def step_action(g: Grammar, t: int, action: str) -> tuple[tuple[str, int], ...]:
    """All (rule id, successor) pairs under rules with the given label,
    in declaration order. This is the only place a rule fires: memoized
    in `g.successors`, as hash-consing keeps term ids stable, so each
    (term, action) is stepped once per grammar.
    """
    key = (t, action)
    out = g.successors.get(key)
    if out is None:
        if action not in g.actions:
            raise GrammarError("unknown action %r" % action)
        g.ts.node(t)  # rejects an unknown id
        binding = dict(enumerate(g.ts.children(t), 1))
        out = tuple((r.rid, instantiate(g.ts, r.rhs, binding))
                    for r in g.rules_by_lhs.get(g.ts.root(t), ())
                    if r.action == action)
        g.successors[key] = out
    return out


def enabled_actions(g: Grammar, t: int) -> list[str]:
    node = g.ts.node(t)
    return [] if node[0] == "var" else g.actions_by_lhs[node[1]]


def run_word(g: Grammar, t: int, word) -> PathRecord | None:
    """Execute a rule word; None as soon as a step fails."""
    word = tuple(word)
    cur = t
    inter = []
    for k, rid in enumerate(word):
        nxt = step_rule(g, cur, rid)
        if nxt is None:
            return None
        if k < len(word) - 1:
            inter.append(nxt)
        cur = nxt
    return PathRecord(t, word, inter, cur)


# -- word-shape predicates ---------------------------------------------------

def is_sink_word(g: Grammar, word) -> int | None:
    """If word is an (A,i)-sink word for A = lhs of its first rule,
    return i; otherwise None. Sink words are nonempty by definition."""
    word = tuple(word)
    if not word:
        return None
    a = g.rule_by_id[word[0]].lhs
    p = run_word(g, g.lhs_term(a), word)
    if p is None or not g.ts.is_var(p.end):
        return None
    return g.ts.var_index(p.end)


def is_sink_segment(g: Grammar, p: PathRecord) -> bool:
    """True iff p is presentable as A(x1..xm)sigma -v-> x_i sigma."""
    if not p.word:
        return False
    if g.ts.is_var(p.start):
        return False
    if g.rule_by_id[p.word[0]].lhs != g.ts.root(p.start):
        return False
    return is_sink_word(g, p.word) is not None


def d0_sinking_split(g: Grammar, word, d0: int):
    """Greedy factorization of a d0-sinking word; None if not d0-sinking.

    Repeatedly strips the shortest nonempty prefix of length < d0 that
    is a sink word; accepts iff the residue is shorter than d0.
    Returns the list of pieces v1..vk plus the residue (possibly empty).
    """
    word = tuple(word)
    pieces = []
    pos = 0
    while True:
        found = None
        for ln in range(1, d0):
            if pos + ln > len(word):
                break
            if is_sink_word(g, word[pos:pos + ln]) is not None:
                found = ln
                break
        if found is None:
            break
        pieces.append(word[pos:pos + found])
        pos += found
    rest = word[pos:]
    if len(rest) < d0:
        return pieces, rest
    return None


def is_d0_sinking(g: Grammar, p: PathRecord, d0: int) -> bool:
    return d0_sinking_split(g, p.word, d0) is not None


def is_stair_word(g: Grammar, word) -> bool:
    """Stair: empty, or r v' with r: A(..) -> E and E -v'-> F, F not a var."""
    word = tuple(word)
    if not word:
        return True
    e = g.rule_by_id[word[0]].rhs
    p = run_word(g, e, word[1:])
    return p is not None and not g.ts.is_var(p.end)


def is_simple_stair_word(g: Grammar, word) -> bool:
    """r v' landing at a nonterminal-rooted subterm of rhs(r), with v'
    a concatenation of sink-segments."""
    word = tuple(word)
    if not word:
        return False
    r = g.rule_by_id[word[0]]
    e = r.rhs
    # peel sink-segments off v', tracking the abstract position inside E
    pos = e
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


def simple_stair_decompose(g: Grammar, p: PathRecord) -> list[tuple[str, ...]]:
    """The unique simple-stair decomposition of a stair path.

    Each piece is the shortest nonempty prefix whose residue is again a
    stair; the piece itself is then a simple stair.
    """
    word = tuple(p.word)
    if not is_stair_word(g, word):
        raise GrammarError("path is not a stair")
    if not g.ts.is_var(p.start):
        if word and g.rule_by_id[word[0]].lhs != g.ts.root(p.start):
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
