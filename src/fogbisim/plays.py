"""Optimal plays, balancing steps, balanced modified plays, segmentation.

An optimal play steps through pairs whose eq-level drops by exactly one
per move, both moves carrying the same action label. The balancing
transformation repeatedly replaces one side of the play by terms
shortly reachable from the other side (the pivot) without changing the
eq-level, producing a balanced modified play threaded by a single
pivot path. The segmentation machinery then classifies the play into
short "unclear" parts, sinking parts close to the initial terms, and
crucial segments whose bal-result chains are eq-level decreasing.
"""

from __future__ import annotations

from itertools import islice

from .terms import VAR, apply_subst, pressize
from .grammar import Grammar
from .lts import run_word, d0_sinking_split, step_action, step_rule
from .equiv import (
    EqOracle, Indeterminate, attacker_optimal, defender_optimal, pair_text,
)


class PlaysError(Exception):
    pass


def by_side(side, mine, theirs):
    """The pair with `mine` at index `side` (0 left, 1 right) and
    `theirs` at the other index."""
    return (mine, theirs) if side == 0 else (theirs, mine)


class Play:
    """Pairs (T_i, U_i), i in [0,k], and rule pairs (r_i, r'_i); a side
    is the index 0 (T, r) or 1 (U, r') into each."""

    def __init__(self, pairs, moves):
        assert len(pairs) == len(moves) + 1
        self.pairs = list(pairs)
        self.moves = list(moves)

    @property
    def start(self):
        return self.pairs[0]

    @property
    def finish(self):
        return self.pairs[-1]

    def length(self) -> int:
        return len(self.moves)

    def subplay(self, i, j) -> "Play":
        return Play(self.pairs[i:j + 1], self.moves[i:j])

    def word(self, side):
        return tuple(m[side] for m in self.moves)

    def terms(self, side):
        return [p[side] for p in self.pairs]

    def __repr__(self):
        return "Play(len=%d)" % self.length()


def optimal_steps(o: EqOracle, t: int, u: int):
    """The attacker- and defender-optimal play from (T, U), one step at a
    time: yields (move, pair) until the eq-level reaches 0."""
    pair = (t, u)
    for _ in range(o.finite_level(t, u, "no finite optimal play")):
        side, rid, succ = attacker_optimal(o, *pair)
        rid2, u2 = defender_optimal(o, *pair, side, rid, succ)
        pair = by_side(side, succ, u2)
        yield by_side(side, rid, rid2), pair


def build_optimal_play(o: EqOracle, t: int, u: int) -> Play:
    """Completed play of length eqlevel(T, U), attacker- and
    defender-optimal at every step."""
    steps = list(optimal_steps(o, t, u))
    return Play([(t, u)] + [pair for _, pair in steps],
                [move for move, _ in steps])


# -- balancing ---------------------------------------------------------------

class BalanceInfo:
    """Everything produced by one balancing step."""

    def __init__(self, side, rho, pivot, e_prime, sigma_pp, vbar, bal_pair):
        self.side = side            # the balanced side, 0 or 1
        self.rho = rho              # the length-d0 play that was balanced
        self.pivot = pivot          # rho's start term on side 1 - side
        self.e_prime = e_prime      # abstract E' with A(x..) -u-> E'
        self.sigma_pp = sigma_pp    # sigma'' with x_i sigma'' = V_i
        self.vbar = vbar            # i -> rule word from pivot to V_i
        self.bal_pair = bal_pair


def enables_balancing(g: Grammar, rho: Play, side: int, d0: int):
    """Root-performability of the side's word; None or (A, kids, E')
    where the side's start term is A(kids)."""
    if rho.length() != d0:
        return None
    node = g.ts.node(rho.start[side])
    if node[0] == VAR:
        return None
    path = run_word(g, g.lhs_term(node[1]), rho.word(side))
    if path is None:
        return None
    return (node[1], node[2], path[-1])


def label_matched_reachable(g: Grammar, t: int, labels):
    """All (rule word, end) with the given labels, words in declaration order."""
    out = [((), t)]
    for a in labels:
        out = [(w + (rid,), v)
               for w, cur in out for rid, v in step_action(g, cur, a)]
    return out


def balance_step(o: EqOracle, rho: Play, side: int) -> BalanceInfo:
    """One balancing step of the given side on a play of length d0."""
    g = o.g
    ts = g.ts
    dec = enables_balancing(g, rho, side, g.d0)
    if dec is None:
        raise PlaysError("play does not enable balancing on side %d" % side)
    a_name, kids, e_prime = dec
    pivot = rho.start[1 - side]
    e_pair = o.finite_level(*rho.finish,
                            "a balancing step needs a finite level")
    m = g.arities[a_name]
    vbar = {}
    sigma_pp = {}
    for i in range(1, m + 1):
        w_ai = g.sink.get((a_name, i))
        if w_ai is None:
            vbar[i] = ()
            sigma_pp[i] = pivot
            continue
        labels = [g.rule_by_id[r].action for r in w_ai]
        best = None
        for w, v in label_matched_reachable(g, pivot, labels):
            lv = o.level(kids[i - 1], v)
            if lv <= e_pair:
                continue
            if best is None or lv > best[0]:
                best = (lv, w, v)
        if best is None:
            raise Indeterminate(
                "cutoff starvation: no qualifying V_%d for pivot below the "
                "cutoff %d: %s" % (i, o.cutoff, pair_text(ts, *rho.finish)))
        vbar[i] = best[1]
        sigma_pp[i] = best[2]
    new_side_term = apply_subst(ts, e_prime, sigma_pp)
    bal_pair = by_side(side, new_side_term, rho.finish[1 - side])
    if o.level(*bal_pair) != e_pair:
        raise PlaysError("balancing changed the eq-level (internal bug)")
    return BalanceInfo(side, rho, pivot, e_prime, sigma_pp, vbar, bal_pair)


class BalancedPlay:
    """mu_0, then per balancing step j: (BalanceInfo_j, mu_j, split_j).

    split_j is (p, i) when the abstract replay of mu_j's balanced-side
    word from E' dies at variable x_i after p steps (then
    mu^unc = mu_j[0..p], mu^dsink = mu_j[p..]); otherwise None
    (mu^unc = mu_j, mu^dsink empty).
    """

    def __init__(self, start_pair, mu0: Play, balances, mus, splits):
        self.start_pair = start_pair
        self.mu0 = mu0
        self.balances = list(balances)   # BalanceInfo, j = 1..ell
        self.mus = list(mus)             # mu_j, j = 1..ell
        self.splits = list(splits)       # j = 1..ell
        assert len(self.balances) == len(self.mus) == len(self.splits)
        # both set by transform_to_balanced
        self.pivot_path: PivotPath | None = None
        self.segmentation: Segmentation | None = None

    @property
    def ell(self) -> int:
        return len(self.balances)

    def length(self) -> int:
        d0 = self.balances[0].rho.length() if self.balances else 0
        return self.mu0.length() + sum(d0 + mu.length() for mu in self.mus)

    def mu_unc(self, j) -> Play:
        """mu^unc_j for j in [1, ell]."""
        mu, split = self.mus[j - 1], self.splits[j - 1]
        return mu if split is None else mu.subplay(0, split[0])

    def mu_dsink(self, j) -> Play | None:
        mu, split = self.mus[j - 1], self.splits[j - 1]
        return None if split is None else mu.subplay(split[0], mu.length())

    def pair_sequence(self):
        seq = list(self.mu0.pairs)
        for info, mu in zip(self.balances, self.mus):
            seq.extend(info.rho.pairs[1:])
            if info.bal_pair != info.rho.finish:
                seq.append(info.bal_pair)
            seq.extend(mu.pairs[1:])
        return seq


class PivotPath:
    """W_0 -w_0-> W_1 ... -w_ell-> W_{ell+1} with unc/dsink splits.

    segments[j] is (word, unc_len) taking W_j to W_{j+1}; the first
    unc_len rules are the unclear part (for j >= 1; segment 0 is all
    sinking). Empty when the balanced play has no balancing step.
    """

    def __init__(self, terms, segments):
        self.terms = list(terms)        # W_0 .. W_{ell+1}
        self.segments = list(segments)  # (word, unc_len), j = 0..ell

    def visit_terms(self, g: Grammar, j):
        """All terms on the path W_j -w_j-> W_{j+1}."""
        path = run_word(g, self.terms[j], self.segments[j][0])
        if path is None:
            raise PlaysError("pivot path does not replay (internal bug)")
        if path[-1] != self.terms[j + 1]:
            raise PlaysError("pivot path mismatch (internal bug)")
        return path


def transform_to_balanced(o: EqOracle, t: int, u: int) -> BalancedPlay:
    """The full phase procedure; returns the BalancedPlay with its pivot
    path and segmentation. One loop runs every phase, the first with no
    previous step (prev None); a pair at the cutoff stops it in
    `optimal_steps`."""
    g = o.g
    ts = g.ts
    d0 = g.d0

    def grow(pair, prev):
        """The optimal play from pair, grown only up to its earliest
        window enabling a legal balancing: (play, (q, side) or None,
        death). prev is the last BalanceInfo, None in the unconstrained
        first phase. death is the first (p, i) at which the abstract
        replay of the play's prev.side word from prev.e_prime reaches
        x_i, replayed in step with the windows, and to the word's end
        when the play has no window."""
        play = Play([pair], [])
        steps = optimal_steps(o, *pair)
        cur = None if prev is None else prev.e_prime  # None: dead or stuck
        death = None
        q = 0
        while True:
            if cur is not None and ts.is_var(cur):
                death, cur = (q, ts.var_index(cur)), None
            for move, nxt in islice(steps, q + d0 - play.length()):
                play.moves.append(move)
                play.pairs.append(nxt)
            if play.length() == q + d0:
                window = play.subplay(q, q + d0)
                if prev is None:
                    sides = (0, 1)
                elif death is not None:
                    sides = (prev.side, 1 - prev.side)
                else:
                    sides = (prev.side,)
                for s in sides:
                    if enables_balancing(g, window, s, d0):
                        return play, (q, s), death
            elif cur is None or q == play.length():
                return play, None, death
            if cur is not None:
                cur = step_rule(g, cur, play.moves[q][prev.side])
            q += 1

    mus, splits, balances = [], [], []  # the first split is always None
    pair, prev = (t, u), None
    while True:
        play, got, death = grow(pair, prev)
        splits.append(death)
        if got is None:
            mus.append(play)
            break
        q, side = got
        mus.append(play.subplay(0, q))
        prev = balance_step(o, play.subplay(q, q + d0), side)
        balances.append(prev)
        pair = prev.bal_pair

    bp = BalancedPlay((t, u), mus[0], balances, mus[1:], splits[1:])
    bp.pivot_path = _build_pivot_path(bp)
    bp.segmentation = refine_segments(g, bp)
    return bp


def _build_pivot_path(bp: BalancedPlay) -> PivotPath:
    """Assemble the pivot path from a balanced play."""
    if bp.ell == 0:
        return PivotPath([], [])
    s = 1 - bp.balances[0].side
    terms = [bp.start_pair[s]]
    segments = [(bp.mu0.word(s), 0)]
    for j, (info, mu, split) in enumerate(
            zip(bp.balances, bp.mus, bp.splits), 1):
        terms.append(info.pivot)
        # case b): the next step balances the other side, so the path
        # takes a v-bar word from the pivot and the balanced side's tail;
        # otherwise (and at the halt) it stays on the pivot's side
        switched = j < bp.ell and bp.balances[j].side != info.side
        s = info.side if switched else 1 - info.side
        if switched:
            p, i = split  # case b) guarantees the split exists
            head, tail = info.vbar[i], mu.word(s)[p:]
            unc = len(head)
        else:
            head, tail = info.rho.word(s), mu.word(s)
            unc = len(head) + (split[0] if split is not None else len(tail))
        segments.append((head + tail, unc))
    terms.append(mu.finish[s])
    return PivotPath(terms, segments)


# -- canonical p-top forms ---------------------------------------------------

def p_top_form(ts, w: int, p: int):
    """Deterministic p-top form G sigma of W: cut every branch at depth
    p, numbering the cut points left-to-right depth-first (one variable
    per distinct cut subterm)."""
    mapping: dict = {}
    binding: dict = {}
    cut: dict = {}  # (t, depth) -> t cut at that depth
    stack = [(w, p)]
    # explicit depth-first walk, children left to right; a cut point is
    # numbered when first reached, a node is built once its children are
    while stack:
        item = stack[-1]
        if item in cut:
            stack.pop()
            continue
        t, depth = item
        node = ts.node(t)
        if node[0] == VAR or depth == 0:
            key = ("v", node[1]) if node[0] == VAR else ("t", t)
            if key not in mapping:
                mapping[key] = len(mapping) + 1
                binding[mapping[key]] = t
            cut[item] = ts.var(mapping[key])
            stack.pop()
            continue
        todo = [(c, depth - 1) for c in node[2] if (c, depth - 1) not in cut]
        if todo:
            stack.extend(reversed(todo))
            continue
        stack.pop()
        cut[item] = ts.app(node[1], tuple(cut[(c, depth - 1)] for c in node[2]))
    return cut[(w, p)], binding


def present_over_top(g: Grammar, info: BalanceInfo, top: int):
    """(E, F) with the bal-result = (E sigma, F sigma) on the balanced
    side whenever top sigma is the pivot: F replays the pivot's rho
    word from top, and E is E' over the v-bar words replayed from top."""
    pf = run_word(g, top, info.rho.word(1 - info.side))
    if pf is None:
        raise PlaysError("pivot top is not d0-safe (internal bug)")
    binding = {}
    for i, w in info.vbar.items():
        pv = run_word(g, top, w)
        if pv is None:
            raise PlaysError("pivot top cannot replay a v-bar word "
                             "(internal bug)")
        binding[i] = pv[-1]
    return (apply_subst(g.ts, info.e_prime, binding),
            pf[-1])


# -- segmentation ------------------------------------------------------------

class Segmentation:
    def __init__(self, close, usink_len, csink_len, crucial, bases):
        self.close = close            # j in [1,ell] with W_j close
        self.usink_len = usink_len    # j -> length of mu^usink_j
        self.csink_len = csink_len    # j -> length of mu^csink_j (0..ell)
        self.crucial = crucial        # list of (k_j, k_{j+1}) index pairs
        self.bases = bases            # close j -> stair base (q, V)


def refine_segments(g: Grammar, bp: BalancedPlay) -> Segmentation:
    """Split sinking parts at the first visit of a subterm of the
    initial pair on both sides; mark close pivots; extract crucial
    segments. W_j is close when the path W_{j-1} -> W_j visits a
    subterm of the initial pair; the last such visit, V at index q of
    that path, is the base of the stair from W_j."""
    subterms = g.ts.reachable(bp.start_pair)
    ell = bp.ell
    csink = {0: bp.mu0.length()}
    usink = {0: 0}
    for j in range(1, ell + 1):
        dsink = bp.mu_dsink(j)
        if dsink is None:
            usink[j] = 0
            csink[j] = 0
            continue
        lt, rt = dsink.terms(0), dsink.terms(1)
        cut = None
        seen_l = seen_r = False
        for r in range(0, dsink.length() + 1):
            seen_l = seen_l or lt[r] in subterms
            seen_r = seen_r or rt[r] in subterms
            if seen_l and seen_r:
                cut = r
                break
        if cut is None:
            usink[j] = dsink.length()
            csink[j] = 0
        else:
            usink[j] = cut
            csink[j] = dsink.length() - cut
    bases = {}
    for j in range(1, ell + 1):
        visited = bp.pivot_path.visit_terms(g, j - 1)
        for q in range(len(visited) - 1, -1, -1):
            if visited[q] in subterms:
                bases[j] = (q, visited[q])
                break
    close = list(bases)
    crucial = list(zip(close, close[1:] + [ell + 1]))
    return Segmentation(close, usink, csink, crucial, bases)


def crucial_segment_length(bp: BalancedPlay, kj: int, kj1: int) -> int:
    """length(rho'_{kj} ... mu^usink_{kj1 - 1}). No close-sinking part
    lies inside: one would make the next pivot close."""
    d0 = bp.balances[0].rho.length()
    usink = bp.segmentation.usink_len
    return sum(d0 + bp.mu_unc(j).length() + usink[j]
               for j in range(kj, kj1))


# -- the proof-checking harness ----------------------------------------------

class VerifyReport:
    def __init__(self):
        self.checks = []   # (name, ok, detail)

    def add(self, name, ok, detail=""):
        self.checks.append((name, bool(ok), detail))

    def ok(self) -> bool:
        return all(c[1] for c in self.checks)


def verify_balanced(o: EqOracle, bp: BalancedPlay) -> VerifyReport:
    g = o.g
    pp, seg = bp.pivot_path, bp.segmentation
    ts = g.ts
    consts = g.constants
    rep = VerifyReport()
    t0, u0 = bp.start_pair
    psz = pressize(ts, [t0, u0])
    e0 = o.level(t0, u0)
    d0 = g.d0

    rep.add("total-length-equals-eqlevel", bp.length() == e0,
            "length=%d eqlevel=%d" % (bp.length(), e0))

    pairs = bp.pair_sequence()
    rep.add("no-pair-repeats", len(pairs) == len(set(pairs)),
            "pairs=%d distinct=%d" % (len(pairs), len(set(pairs))))

    # every sinking part is d0-sinking on both sides
    words = [bp.mu0.word(0), bp.mu0.word(1)]
    for j in range(1, bp.ell + 1):
        ds = bp.mu_dsink(j)
        if ds is not None:
            words += [ds.word(0), ds.word(1)]
    rep.add("sink-parts-d0-sinking",
            all(d0_sinking_split(g, w, d0) is not None for w in words))

    # unclear parts are short
    unc_ok = True
    detail = []
    for j in range(1, bp.ell + 1):
        w_unc = pp.segments[j][1]
        ln = d0 + bp.mu_unc(j).length()
        if not (w_unc <= ln <= consts.d2):
            unc_ok = False
            detail.append("j=%d w_unc=%d len=%d d2=%d" % (j, w_unc, ln, consts.d2))
    rep.add("unclear-bounded-by-d2", unc_ok, "; ".join(detail))

    # total close-sinking length
    close_total = sum(seg.csink_len.values())
    rep.add("close-sink-total", close_total <= consts.d3 * psz * psz,
            "total=%d bound=%d" % (close_total, consts.d3 * psz * psz))

    # number of crucial segments
    rep.add("crucial-count",
            len(seg.crucial) <= consts.d4 * psz,
            "count=%d bound=%d" % (len(seg.crucial), consts.d4 * psz))

    # length of each crucial segment
    p24_ok = True
    detail = []
    for kj, kj1 in seg.crucial:
        ln = crucial_segment_length(bp, kj, kj1)
        bound = consts.d5 * (1 + kj1 - kj)
        if ln > bound:
            p24_ok = False
            detail.append("k=%d..%d len=%d bound=%d" % (kj, kj1, ln, bound))
    rep.add("crucial-length", p24_ok, "; ".join(detail))

    # bal-results per pivot
    per_pivot: dict[int, set] = {}
    for info in bp.balances:
        per_pivot.setdefault(info.pivot, set()).add(info.bal_pair)
    p15_ok = all(len(v) <= consts.d1 for v in per_pivot.values())
    rep.add("balresults-per-pivot", p15_ok)

    # balancing soundness + bal-result top-form shape and size per step
    shape_ok = True
    sound_ok = True
    detail = []
    for idx, info in enumerate(bp.balances, 1):
        if o.level(*info.bal_pair) != o.level(*info.rho.finish):
            sound_ok = False
        g_top, sigma = p_top_form(ts, info.pivot, info.rho.length())
        e_top, f_top = present_over_top(g, info, g_top)
        if by_side(info.side, apply_subst(ts, e_top, sigma),
                   apply_subst(ts, f_top, sigma)) != info.bal_pair:
            shape_ok = False
            detail.append("j=%d presentation mismatch" % idx)
        bound = pressize(ts, [g_top]) + (consts.m + 2) * d0 * consts.stepinc
        if pressize(ts, [e_top, f_top]) > bound:
            shape_ok = False
            detail.append("j=%d bal-result size %d > %d"
                          % (idx, pressize(ts, [e_top, f_top]), bound))
    rep.add("balancing-preserves-eqlevel", sound_ok)
    rep.add("balresult-top-shape", shape_ok, "; ".join(detail))

    # pivot-path stitching
    stitch_ok = True
    if bp.ell >= 1:
        try:
            for j in range(0, bp.ell + 1):
                pp.visit_terms(g, j)
        except PlaysError:
            stitch_ok = False
    rep.add("pivot-path-stitches", stitch_ok)
    return rep
