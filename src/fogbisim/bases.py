"""Eqlevel-decreasing top sequences, non-equivalence bases, and the
sound-candidate search.

An (n,s,g)-sequence is an eqlevel-decreasing sequence of pairs
(E_j sigma, F_j sigma) sharing one tail substitution sigma, where the
tops (E_j, F_j) use only variables x1..xn and grow at most linearly
(pressize <= s + g*(j-1)). Candidates collect non-equivalent small
pairs layer by layer and yield the bound E_B on the length of any such
sequence whose instantiated levels the candidate covers. The search
loop grows a candidate until every enumerated pair outside it is
"equivalent enough" at scale E_B.
"""

from __future__ import annotations

from collections import namedtuple

from .terms import (
    APP, MAX_DIGITS, TOO_LARGE, VAR, apply_subst, bounded_power,
    omega_iterate, pressize, varin,
)
from .grammar import Grammar
from .lts import run_word
from .equiv import EqOracle, Indeterminate, find_sink_witness, pair_text
from .plays import BalancedPlay, by_side, p_top_form, present_over_top


class BasesError(Exception):
    pass


NsgParams = namedtuple("NsgParams", "n s g")


class NsgSequence:
    """Tops (E_j, F_j) for j in [1,z] plus the shared tail sigma, and
    the elements (E_j sigma, F_j sigma), instantiated once."""

    def __init__(self, ts, tops, sigma: dict[int, int]):
        self.tops = list(tops)
        self.sigma = sigma
        self.elements = [(apply_subst(ts, e, sigma), apply_subst(ts, f, sigma))
                         for e, f in self.tops]

    @property
    def z(self) -> int:
        return len(self.tops)


def check_nsg_sequence(o: EqOracle, seq: NsgSequence, p: NsgParams) -> bool:
    """Variable, size, and strict-eqlevel-decrease conditions."""
    ts = o.g.ts
    prev = None
    for j, (e, f) in enumerate(seq.tops, 1):
        if not varin(ts, [e, f]) <= set(range(1, p.n + 1)):
            return False
        if pressize(ts, [e, f]) > p.s + p.g * (j - 1):
            return False
        lv = o.finite_level(*seq.elements[j - 1], "element %d of the "
                            "sequence needs a finite level" % j)
        if prev is not None and lv >= prev:
            return False
        prev = lv
    return True


def reduce_nsg_step(o: EqOracle, seq: NsgSequence, p: NsgParams):
    """One inductive reduction: trade the variable x_i exposed by the
    first element for its infinite unfolding, drop the first k+1
    elements, and renumber so the remaining tops use x1..x_{n-1}.

    Returns (reduced sequence, params (n-1, s', g)). Per-element
    eq-levels of the retained elements are revalidated to be unchanged.
    """
    g = o.g
    ts = g.ts
    if p.n <= 0:
        raise BasesError("reduction needs n > 0")
    if not seq.tops:
        raise BasesError("cannot reduce an empty sequence")
    e1, f1 = seq.tops[0]
    k = o.level(e1, f1)
    ell = o.finite_level(*seq.elements[0], "the reduction needs a "
                         "finite level of the first element")
    if k >= ell:
        raise BasesError(
            "eqlevel(E1,F1) = eqlevel(E1 sigma, F1 sigma): nothing to "
            "reduce; the sequence length is bounded by 1 + %d directly" % k)
    i, h, _w = find_sink_witness(o, e1, f1, seq.sigma, k, ell)
    h_prime = omega_iterate(ts, h, i)
    retained = seq.tops[k + 1:]
    new_tops = []
    for e, f in retained:
        e2 = apply_subst(ts, e, {i: h_prime})
        f2 = apply_subst(ts, f, {i: h_prime})
        if i != p.n:
            e2 = apply_subst(ts, e2, {p.n: ts.var(i)})
            f2 = apply_subst(ts, f2, {p.n: ts.var(i)})
        new_tops.append((e2, f2))
    new_sigma = {v: u for v, u in seq.sigma.items() if v != i and v != p.n}
    if i != p.n:
        new_sigma[i] = seq.sigma.get(p.n, ts.var(p.n))
    new_p = NsgParams(p.n - 1, next_size(g, p.s, p.g, k), p.g)
    new_seq = NsgSequence(ts, new_tops, new_sigma)
    for jj in range(len(retained)):
        old = o.level(*seq.elements[k + 1 + jj])
        new = o.level(*new_seq.elements[jj])
        if old != new:
            raise BasesError(
                "reduction changed the eq-level of element %d: %d -> %d"
                % (k + 2 + jj, old, new))
    return new_seq, new_p


# -- candidates and bounds ---------------------------------------------------

def next_size(g: Grammar, s: int, growth: int, e: int) -> int:
    """s' = 2s + growth*(1+e) + e*stepinc: the size bound one reduction
    step past eq-level e, and so the threshold of the next layer down."""
    return 2 * s + growth * (1 + e) + e * g.stepinc


def layer_thresholds(g: Grammar, params: NsgParams, entries):
    """Thresholds s_j (s_n = s) and maxima e_j for j = n..0, as dicts.

    entries is a collection of (layer, pressize, eq-level) triples; e_j
    is the largest eq-level of an entry of layer <= j within s_j, or 0.
    Raises BasesError as soon as some s_j has more than
    MAX_DIGITS digits."""
    s_vals, e_vals = {}, {}
    s = params.s
    for j in range(params.n, -1, -1):
        if s >= TOO_LARGE:
            raise BasesError("layer-%d size threshold exceeds %d digits"
                             % (j, MAX_DIGITS))
        s_vals[j] = s
        e_vals[j] = max((eq for lv, sz, eq in entries if lv <= j and sz <= s),
                        default=0)
        s = next_size(g, s, params.g, e_vals[j])
    return s_vals, e_vals


def _prefix_level(vs):
    """j if the indices vs are exactly 1..j (max equals count), else None."""
    return len(vs) if max(vs, default=0) == len(vs) else None


class Candidate:
    """Layered set of non-equivalent pairs with the s' recursion.

    entries are (pair, layer, pressize, eq-level) tuples, as
    `enumerate_pairs` yields them; they are checked, not recomputed.
    layers[j] holds the pairs whose variables are exactly {x1..xj};
    s_vals and e_vals are the `layer_thresholds` of the member pairs,
    and every pair lies within its own layer's threshold.
    """

    def __init__(self, o: EqOracle, params: NsgParams, entries):
        self.params = params
        members = {}  # pair -> (layer, pressize, eq-level)
        for (e, f), lv, sz, eq in entries:
            if lv is None or lv > params.n:
                raise BasesError(
                    "pair variables must be a prefix set within x1..x%d"
                    % params.n)
            if eq >= o.cutoff:
                raise BasesError(
                    "candidate pair not verified non-equivalent below the "
                    "cutoff")
            members[(e, f) if e <= f else (f, e)] = (lv, sz, eq)
        self.s_vals, self.e_vals = layer_thresholds(
            o.g, params, members.values())
        over = [lv for lv, sz, _ in members.values() if sz > self.s_vals[lv]]
        if over:
            raise BasesError("layer-%d pair exceeds its size threshold %d"
                             % (max(over), self.s_vals[max(over)]))
        self.layers: dict[int, set] = {j: set() for j in range(params.n + 1)}
        for key, (lv, _, _) in members.items():
            self.layers[lv].add(key)


def bound_of_candidate(c: Candidate) -> int:
    """E_B = sum over j = 0..n of (1 + e_j), at least 1."""
    return sum(1 + c.e_vals[j] for j in range(c.params.n + 1))


# -- enumeration of small regular terms --------------------------------------

# the most graphs of one size `enumerate_terms` may generate
ENUMERATION_BUDGET = 2_000_000

def enumerate_terms(g: Grammar, max_vars: int, max_size: int) -> list[int]:
    """All canonical regular terms with variables among x1..max_vars and
    at most max_size distinct subterms (cyclic ones included).

    Each graph of k nodes, all reachable from root node 0, is built once,
    in breadth-first numbering: nodes are filled in index order and each
    child is a node already referenced or exactly the next unreferenced
    index. Every closed graph of k nodes goes to `TermStore.intern_raw`;
    one with two bisimilar nodes gets the id its quotient got at a
    smaller size. ENUMERATION_BUDGET bounds the brute-force space of
    options**k graphs, an upper bound on the graphs generated; it is
    checked for every k before any graph is built. A count of more than
    MAX_DIGITS digits (`bounded_power`) is refused naming the budget
    instead of the count."""
    ts = g.ts
    for k in range(1, max_size + 1):
        powers = [bounded_power(k, m) for m in g.arities.values()]
        total = None if None in powers else \
            bounded_power(max_vars + sum(powers), k)
        if total is None:
            raise BasesError(
                "enumeration budget exceeded (more than %d graphs of %d nodes)"
                % (ENUMERATION_BUDGET, k))
        if total > ENUMERATION_BUDGET:
            raise BasesError(
                "enumeration budget exceeded (%d graphs of %d nodes)"
                % (total, k))
    out = set()
    for k in range(1, max_size + 1):
        # partial graphs: (filled nodes, number of nodes referenced so far)
        stack = [((), 1)]
        while stack:
            nodes, n_ref = stack.pop()
            if len(nodes) == n_ref:  # closed: every referenced node filled
                if n_ref == k:
                    out.add(ts.intern_raw(nodes))
                continue
            stack += [(nodes + ((VAR, i),), n_ref)
                      for i in range(1, max_vars + 1)]
            for nt, m in g.arities.items():
                # child tuples, each with the count referenced after it
                opts = [((), n_ref)]
                for _ in range(m):
                    opts = [(kids + (c,), max(d, c + 1)) for kids, d in opts
                            for c in range(min(d + 1, k))]
                stack += [(nodes + ((APP, nt, kids),), d) for kids, d in opts]
    return sorted(out)


def enumerate_pairs(o: EqOracle, max_vars: int, max_size: int):
    """Ordered-canonical pairs (E,F), E <= F, E != F, whose variables
    form a prefix set; yields (pair, level, pressize, eq-level).

    A pair fits the size bound when one term is a subterm of the other
    (its joint graph is the outer term's; every subterm of an enumerated
    term is enumerated too), or when neither is: then each term adds a
    node the other lacks, so both are below max_size and only those
    terms are compared pairwise. Pairs come out sorted by ids, the order
    of an all-pairs loop over the sorted terms."""
    ts = o.g.ts
    terms = enumerate_terms(o.g, max_vars, max_size)
    # subterms and variables of each term, so that a pair's are unions
    reach = {t: frozenset(ts.reachable([t])) for t in terms}
    vs = {t: frozenset(ts.var_index(u) for u in reach[t] if ts.is_var(u))
          for t in terms}
    fits = {(u, t) if u < t else (t, u)
            for t in terms for u in reach[t] if u != t}
    small = [t for t in terms if len(reach[t]) < max_size]
    for i, a in enumerate(small):
        for b in small[i + 1:]:
            if len(reach[a]) + len(reach[b]) <= max_size \
                    or len(reach[a] | reach[b]) <= max_size:
                fits.add((a, b))
    for a, b in sorted(fits):
        lv = _prefix_level(vs[a] | vs[b])
        if lv is not None and lv <= max_vars:
            yield ((a, b), lv, len(reach[a] | reach[b]), o.level(a, b))


def _cap_reason(s_vals, cap: int):
    """Why an enumeration up to cap misses pairs within some threshold:
    the first layer from n down whose s_j exceeds cap, or None."""
    over = [j for j, s in s_vals.items() if s > cap]
    if not over:
        return None
    j = max(over)
    return "layer-%d size threshold %d exceeds the max size %d" % (
        j, s_vals[j], cap)


def build_full_base_capped(o: EqOracle, params: NsgParams, cap: int):
    """The full candidate over the pairs of pressize <= cap: each pair
    below the cutoff that lies within its own layer's threshold, the
    thresholds being the `layer_thresholds` of all pairs below the cutoff.

    Returns (Candidate, E_B, status, reason). status is "complete", or
    "capped" when some s_j exceeds the cap or a pair at the cutoff
    (treated as equivalent and left out) lies within its own layer's
    threshold; reason names the first such layer, else that pair, and is
    None exactly when complete. For nonnegative n, s and g the
    thresholds never shrink from layer n down to 0, so a pair of layer lv
    is within s_j for some j >= lv exactly when within s_lv.
    """
    universe = list(enumerate_pairs(o, params.n, cap))
    s_vals, _ = layer_thresholds(
        o.g, params, [(lv, sz, eq) for _, lv, sz, eq in universe
                      if eq < o.cutoff])
    within = [(pr, lv, sz, eq) for pr, lv, sz, eq in universe
              if sz <= s_vals[lv]]
    cand = Candidate(o, params, [(pr, lv, sz, eq) for pr, lv, sz, eq in within
                                 if eq < o.cutoff])
    reason = _cap_reason(s_vals, cap)
    at_cutoff = [(pr, lv) for pr, lv, _, eq in within if eq >= o.cutoff]
    if reason is None and at_cutoff:
        pr, lv = at_cutoff[0]
        reason = ("eq-level at least %d: layer-%d pair %s lies within its "
                  "threshold %d" % (o.cutoff, lv, pair_text(o.g.ts, *pr),
                                    s_vals[lv]))
    return (cand, bound_of_candidate(cand),
            "complete" if reason is None else "capped", reason)


# -- the soundness machinery -------------------------------------------------

def speceq_check(o: EqOracle, entry, k: int, c: int) -> bool:
    """eqlevel(T,U) > c * (k*pressize(T,U) + pressize(T,U)^2)?

    entry is a ((T,U), layer, pressize, eq-level) tuple, as
    `enumerate_pairs` yields it; the pressize and eq-level are read
    from it."""
    (t, u), _, psz, lv = entry
    if t == u:
        return True
    threshold = c * (k * psz + psz * psz)
    if lv < o.cutoff:
        return lv > threshold
    if o.cutoff > threshold:
        return True
    raise Indeterminate(
        "threshold %d is at/above the cutoff %d and %s is not "
        "distinguished below it"
        % (threshold, o.cutoff, pair_text(o.g.ts, t, u)))


def sound_candidate_search(o: EqOracle, params: NsgParams, c: int, cap: int):
    """Grow a candidate until every enumerated pair outside it passes
    the scale-E_B equivalence test; returns (Candidate, E_B, status,
    reason) with status in {"sound", "indeterminate", "capped"}. reason
    is None exactly when sound; else it is `speceq_check`'s message, or
    names the first layer whose s_j exceeds the cap."""
    universe = list(enumerate_pairs(o, params.n, cap))
    picked: set = set()
    while True:
        cand = Candidate(o, params, picked)
        bound = bound_of_candidate(cand)
        violators = []
        for entry in universe:
            _, lv, sz, _ = entry
            if sz > min(cand.s_vals[lv], cap) or entry in picked:
                continue
            try:
                ok = speceq_check(o, entry, bound, c)
            except Indeterminate as ex:
                return cand, bound, "indeterminate", str(ex)
            if not ok:
                violators.append(entry)
        if not violators:
            reason = _cap_reason(cand.s_vals, cap)
            return (cand, bound, "sound" if reason is None else "capped",
                    reason)
        picked.update(violators)


# -- stair presentation of crucial-segment bal-results -----------------------

def present_stair_as_nsg(o: EqOracle, bp: BalancedPlay,
                         idx: int) -> NsgSequence:
    """Present the bal-result chain of one crucial segment as an
    (n,s,g)-sequence: the stair from its base V, the last initial-pair
    subterm on the preceding pivot-path segment, is replayed abstractly
    from A(x1..xm), the d0-top form of V supplies the shared tail, and
    each bal-result splits into a top over that tail."""
    g = o.g
    ts = g.ts
    pp, seg = bp.pivot_path, bp.segmentation
    kj, kj1 = seg.crucial[idx]
    last, v = seg.bases[kj]
    w2 = pp.segments[kj - 1][0][last:]
    if ts.is_var(v):
        raise BasesError("stair base is a dead variable (classifier bug)")
    a_name = ts.root(v)
    top_v, sigma = p_top_form(ts, v, g.d0)
    sbb = dict(enumerate(ts.children(top_v), 1))

    words = [w2] + [pp.segments[q][0] for q in range(kj, kj1 - 1)]
    cur = g.lhs_term(a_name)
    g_primes = []
    for w in words:
        path = run_word(g, cur, w)
        if path is None or ts.is_var(path[-1]):
            raise BasesError("crucial segment is not a stair (classifier bug)")
        cur = path[-1]
        g_primes.append(cur)

    infos = bp.balances[kj - 1:kj1 - 1]
    tops = []
    for gp, info in zip(g_primes, infos):
        g_i = apply_subst(ts, gp, sbb)
        if apply_subst(ts, g_i, sigma) != info.pivot:
            raise BasesError("stair presentation misses the pivot "
                             "(internal bug)")
        tops.append(by_side(info.side, *present_over_top(g, info, g_i)))
    seq = NsgSequence(ts, tops, sigma)
    if seq.elements != [info.bal_pair for info in infos]:
        raise BasesError("presented tops do not instantiate to the "
                         "bal-result (internal bug)")
    return seq
