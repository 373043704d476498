"""Bounded bisimulation game: eq-levels, optimal moves, sink witnesses.

The eq-level of (T, U) is the largest k with T ~_k U, an element of
N u {omega}. The oracle computes it exactly below a mandatory cutoff K
and otherwise answers K, meaning "at least K"; it never claims omega.
A check that needs a finite level asks `EqOracle.finite_level`, which
raises `Indeterminate` naming the check and the pair when K is all
there is. Variables get the stipulated treatment
eqlevel(x_i, H) = 0 for H != x_i and eqlevel(x_i, x_i) = omega,
applied in the base case. The game search
closes a cycle of pairs in one visit instead of unrolling it down to
the budget, as long as no assumption fails (see `EqOracle`).
"""

from __future__ import annotations

from .terms import VAR, apply_subst, one_line, render_term
from .grammar import Grammar
from .lts import enabled_actions, step_action


class EquivError(Exception):
    pass


class Indeterminate(Exception):
    """The answer needs an eq-level at or above the oracle's cutoff."""


def pair_text(ts, t: int, u: int) -> str:
    """`T vs U` on one line, each term as `play` prints it."""
    return one_line("%s vs %s" % (render_term(ts, t), render_term(ts, u)))


class Level:
    """An eq-level as `perfbench/record.py` reads it: exactly `value`
    when `is_finite()`, else at least `value`, the cutoff. The package
    itself passes levels as plain ints."""

    def __init__(self, value: int, exact: bool):
        self.value = value
        self.exact = exact

    def is_finite(self) -> bool:
        return self.exact


class EqOracle:
    """Memoized eq-level solver with a hard cutoff.

    Internally levels are plain ints e with the convention that
    e < budget means "exactly e" and e == budget means "at least
    budget". The memo keeps exact values forever (`exact`) and the best
    lower bound proven so far (`lower`). `finite_level` is the one
    cutoff stop: every check that needs an exact level asks it, and at
    the cutoff it raises `Indeterminate` naming the check and the pair.

    One game node is the generator `_game`: it yields the sub-queries
    (t2, u2, cap) the memo cannot answer and receives their levels.
    `level` drives these generators on one explicit work stack, so the
    search depth, at most the budget, is not bounded by Python's
    recursion limit. Each reply is asked at cap = best - 1, where best
    is the attacker's best so far: a reply at or above best - 1 cannot
    lower best (alpha-beta pruning). Successors come from the table
    that `step_action` keeps on the grammar.

    The eq-level is the greatest solution of the game equations, and
    `level` closes cycles on that basis instead of unrolling them. A
    sub-query whose pair is open on the stack is answered cap at once:
    the pair is assumed to hold up to cap. Every game that closes enters
    the memo at once, and while some open frame has been assumed,
    `level` logs the value each write replaced; a write made with none
    assumed rests on no assumption, and no restore needs it. A frame
    that closes below a value it was assumed at restores the logged
    entries written since it opened, replays its game capped at the
    value it just closed at, and the rest of the call assumes nothing. A
    result that rests on a frame's assumption was written after that
    frame was assumed, so it was logged, and after the frame opened, and
    so was every result that read it, so the restore removes all of
    them. A search that raises restores every entry the call logged.
    Until an assumption fails, a cycle thus costs one visit,
    however high the cutoff; after one fails, the rest of the call
    unrolls every cycle it meets down to its budget, and its cost grows
    with the cutoff again.

    Every value left in the memo is exact. A call returns only after
    every frame has closed at or above each value it was assumed at, and
    a failed frame's entries are gone. An assumption is at least the
    capped level it stands for, and the game only rises with its
    answers, so no value computed is below the true capped level: a
    failed frame's replay, capped at the value it closed at, answers for
    its own budget. Once every assumption holds, the values assigned,
    joined with the true levels, form a post-fixed point of the level
    equations; by Knaster-Tarski they are at most the greatest fixed
    point, the true levels. (Liu and Smolka, ICALP 1998, solve greatest
    fixed points locally in this way; a confirmed cycle is a
    self-bisimulation up to the budget in the sense of Christensen,
    Huttel and Stirling, 1995.)

    A query the memo cannot answer is pruned before it is searched.
    When (A, i) has no sink word (in `g.sink`), the i-th child of an
    A-rooted term never reaches the root: every term reachable from
    A(X1..Xm) is E sigma with E reachable from A(x1..xm), and E is never
    x_i. So replacing that child (`_prune`, by x1) changes no level at
    any budget, and pairs that differ only there share one search and
    one memo entry, the true level of real terms. Only the pair a
    `level` call is asked is pruned; the game and the optimal moves
    step real terms. `_prune` reads the sink table for the children a
    term has, so a declared arity costs nothing until a term uses it.
    """

    def __init__(self, g: Grammar, cutoff: int):
        if cutoff < 1:
            raise EquivError("cutoff must be >= 1")
        self.g = g
        self.cutoff = cutoff
        self.exact: dict[tuple[int, int], int] = {}
        self.lower: dict[tuple[int, int], int] = {}
        # whether some declared position has no sink word (is hidden)
        self.hidden = len(g.sink) < sum(g.arities.values())
        self._pruned: dict[int, int] = {}

    def _prune(self, t: int) -> int:
        """t with every hidden child of its root replaced by x1: a term
        bisimilar to t, one level deep, so plain hash-consing is exact."""
        p = self._pruned.get(t)
        if p is None:
            ts = self.g.ts
            node = ts.nodes[t]
            hide = node[0] != VAR and [i for i in range(len(node[2]))
                                       if (node[1], i + 1) not in self.g.sink]
            if hide:
                kids = list(node[2])
                for i in hide:
                    kids[i] = ts.var(1)
                p = ts.app(node[1], tuple(kids))
            else:
                p = t
            self._pruned[t] = p
        return p

    def _known(self, t: int, u: int, budget: int) -> int | None:
        """The level of (t, u) capped at budget, if the memo or the root
        symbols settle it: a variable against another term is at 0 (the
        stipulation), and so are two terms whose enabled actions differ."""
        if t == u:
            return budget
        key = (t, u) if t <= u else (u, t)
        e = self.exact.get(key)
        if e is not None:
            return min(e, budget)
        if self.lower.get(key, -1) >= budget:
            return budget
        g = self.g
        nt, nu = g.ts.nodes[t], g.ts.nodes[u]
        if (nt[0] == VAR or nu[0] == VAR
                or g.firing[nt[1]].keys() != g.firing[nu[1]].keys()):
            self.exact[key] = 0
            return 0
        return None

    def finite_level(self, t: int, u: int, why: str) -> int:
        """The exact level of (t, u), which `why` needs finite; at the
        cutoff, the one `Indeterminate` that names why and the pair."""
        e = self.level(t, u)
        if e >= self.cutoff:
            raise Indeterminate("eq-level at least %d: %s: %s" % (
                self.cutoff, why, pair_text(self.g.ts, t, u)))
        return e

    def level(self, t: int, u: int, budget: int | None = None) -> int:
        """e < budget: exact; e == budget: at least budget."""
        if budget is None:
            budget = self.cutoff
        if budget > self.cutoff:
            raise EquivError("budget %d exceeds cutoff %d" % (budget, self.cutoff))
        if budget < 0:
            raise EquivError("budget %d is negative" % budget)
        e = self._known(t, u, budget)
        if e is not None:
            return e
        if self.hidden:
            t, u = self._prune(t), self._prune(u)
            e = self._known(t, u, budget)
            if e is not None:
                return e
        key = (t, u) if t <= u else (u, t)
        # a frame: [key, budget, game, assumed, mark]; assumed is the
        # highest value the pair was assumed at (-1: never), mark the
        # length of `undo` when the frame opened
        top = [key, budget, self._game(t, u, budget), -1, 0]
        stack = [top]
        open_at = {key: top}  # pair -> its open frame
        # (exact?, pair, the value a write replaced or None); the entries
        # hold no container, so the garbage collector stops tracking them
        undo = []
        assuming = 0  # open frames whose pair has been assumed
        optimistic = True
        try:
            while True:
                top = stack[-1]
                try:
                    t2, u2, cap = top[2].send(e)
                except StopIteration as done:
                    e = done.value
                    key, b, _, assumed, mark = top
                    if assumed >= 0:
                        assuming -= 1
                    if e < assumed:
                        # the pair was assumed too high: undo what was
                        # written since the frame opened, replay its game
                        # capped at e, and assume nothing more
                        self._restore(undo, mark)
                        optimistic = False
                        top[2:4] = [self._game(key[0], key[1], e), -1]
                        e = None
                        continue
                    stack.pop()
                    if optimistic:
                        del open_at[key]
                    # e == b is only a lower bound; _known saw none as high
                    memo = self.exact if e < b else self.lower
                    if assuming:
                        # a write with no assumption open rests on none
                        undo.append((e < b, key, memo.get(key)))
                    memo[key] = e
                    if not stack:
                        return e
                    continue
                key = (t2, u2) if t2 <= u2 else (u2, t2)
                if optimistic:
                    frame = open_at.get(key)
                    if frame is not None:
                        # a cycle: assume the pair holds up to cap
                        if frame[3] < 0:
                            assuming += 1
                        if cap > frame[3]:
                            frame[3] = cap
                        e = cap
                        continue
                frame = [key, cap, self._game(t2, u2, cap), -1, len(undo)]
                if optimistic:
                    open_at[key] = frame
                stack.append(frame)
                e = None
        except BaseException:
            self._restore(undo, 0)
            raise

    def _restore(self, undo, mark: int):
        """Undo the memo writes logged from `mark` on, newest first."""
        for exact, key, old in reversed(undo[mark:]):
            memo = self.exact if exact else self.lower
            if old is None:
                del memo[key]
            else:
                memo[key] = old
        del undo[mark:]

    def _game(self, t: int, u: int, budget: int):
        """One game node: returns the level of (t, u) capped at budget."""
        actions = enabled_actions(self.g, t)  # _known saw they match u's
        best = budget  # min over attacker moves of (1 + max over responses)
        for a in actions:
            left = step_action(self.g, t, a)
            right = step_action(self.g, u, a)
            for moves, replies in ((left, right), (right, left)):
                for _, t2 in moves:
                    if best <= 1:
                        return best  # every move scores at least 1
                    cap = best - 1
                    worst = 0
                    for _, u2 in replies:
                        e = self._known(t2, u2, cap)
                        if e is None:
                            e = yield (t2, u2, cap)
                        if e > worst:
                            worst = e
                            if worst >= cap:
                                break
                    best = 1 + worst  # worst <= cap, so best never rises
        return best

    def eq_level(self, t: int, u: int) -> Level:
        e = self.level(t, u)
        return Level(e, e < self.cutoff)


def attacker_optimal(o: EqOracle, t: int, u: int):
    """A move one side (0 left, 1 right) can take so that every
    response drops the eq-level; returns (side, rule id, successor)."""
    e = o.level(t, u)
    if e == 0 or e >= o.cutoff:
        raise EquivError("attacker_optimal needs 0 < eqlevel < cutoff")
    g = o.g
    pair = (t, u)
    for a in enabled_actions(g, t):
        for side in (0, 1):
            for rid, t2 in step_action(g, pair[side], a):
                worst = max((o.level(t2, u2, e) for _, u2 in
                             step_action(g, pair[1 - side], a)), default=0)
                if worst <= e - 1:
                    return (side, rid, t2)
    raise EquivError("no attacker-optimal move found (internal inconsistency)")


def defender_optimal(o: EqOracle, t: int, u: int, side: int, rid: str, succ: int):
    """The response maximizing the successor pair's eq-level; a tie
    goes to the first reply of `step_action`, in declaration order."""
    g = o.g
    if o.level(t, u) < 1:
        raise EquivError("defender_optimal needs eqlevel >= 1")
    action = g.rule_by_id[rid].action
    replies = step_action(g, (t, u)[1 - side], action)
    if not replies:
        raise EquivError("no response exists (internal inconsistency)")
    best = None
    for rid2, u2 in replies:
        lv = o.level(succ, u2)
        if best is None or lv > best[0]:
            best = (lv, rid2, u2)
    return (best[1], best[2])


def find_sink_witness(o: EqOracle, e_term: int, f_term: int,
                      sigma: dict[int, int], k: int, ell: int):
    """Witness for: substitution raised the eq-level of (E, F).

    Given eqlevel(E,F) = k < ell = eqlevel(E sigma, F sigma), find
    (x_i, H, w) with x_i sigma != x_i, H != x_i, |w| <= k,
    E -w-> x_i and F -w-> H (or symmetrically), and
    x_i sigma ~_{ell-k} H sigma.
    """
    g = o.g
    ts = g.ts
    if not (o.level(e_term, f_term) == k < ell):
        raise EquivError("precondition violated: eqlevel(E,F) != k < ell")

    def validate(cand):
        x_t, h_t, w = cand
        i = ts.var_index(x_t)
        if h_t == x_t or sigma.get(i, x_t) == x_t:
            return False
        lhs = apply_subst(ts, x_t, sigma)
        rhs = apply_subst(ts, h_t, sigma)
        need = min(ell - k, o.cutoff)
        return o.level(lhs, rhs, need) >= need

    # candidates at the current pair: either side a variable; the
    # returned rule word is the sinking side's path
    def candidates(a_t, b_t, wa, wb):
        out = []
        if ts.is_var(a_t):
            out.append((a_t, b_t, wa))
        if ts.is_var(b_t):
            out.append((b_t, a_t, wb))
        return out

    # breadth-first over label-matched word pairs: the shallowest
    # witness, in declaration order of the rules
    seen = set()
    frontier = [(e_term, f_term, (), ())]
    while frontier:
        nxt = []
        for a_t, b_t, wa, wb in frontier:
            for cand in candidates(a_t, b_t, wa, wb):
                if validate(cand):
                    return (ts.var_index(cand[0]), cand[1], cand[2])
            if len(wa) >= k or ts.is_var(a_t) or ts.is_var(b_t):
                continue
            for act in enabled_actions(g, a_t):
                for r1, a2 in step_action(g, a_t, act):
                    for r2, b2 in step_action(g, b_t, act):
                        key = (a2, b2, len(wa) + 1)
                        if key not in seen:
                            seen.add(key)
                            nxt.append((a2, b2, wa + (r1,), wb + (r2,)))
        frontier = nxt
    raise EquivError("no witness found (solver bug: a witness must exist here)")
