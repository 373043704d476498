"""Grammar model, text-format parser, sink words, derived constants.

A grammar is a finite set of root-rewriting rules A(x1..xm) -a-> E over
ranked nonterminals. Besides parsing and validation this module
computes the shortest sink words w_[A,i] (words of rules taking
A(x1..xm) down to the variable x_i) and the family of numeric constants
that bound the sizes appearing in the balancing/base machinery.
"""

from __future__ import annotations

from .terms import TermStore, TermError, height, propsize, parse_term, varin


class GrammarError(Exception):
    pass


class Rule:
    def __init__(self, rid: str, lhs: str, action: str, rhs: int):
        self.rid = rid
        self.lhs = lhs
        self.action = action
        self.rhs = rhs

    def __repr__(self):
        return "Rule(%s: %s -%s-> %d)" % (self.rid, self.lhs, self.action, self.rhs)


class Grammar:
    def __init__(self, ts: TermStore, arities: dict[str, int],
                 actions: list[str], rules: list[Rule]):
        if not arities or not actions or not rules:
            raise GrammarError("nonterminals, actions and rules must be nonempty")
        self.ts = ts
        self.arities = dict(arities)
        self.actions = list(actions)
        self.rules = list(rules)
        self.rule_by_id = {}
        for r in rules:
            if r.rid in self.rule_by_id:
                raise GrammarError("duplicate rule id %r" % r.rid)
            self.rule_by_id[r.rid] = r
        self._validate()
        self.rules_by_lhs: dict[str, list[Rule]] = {a: [] for a in arities}
        for r in rules:
            self.rules_by_lhs[r.lhs].append(r)
        # enabled actions per nonterminal, in declaration order
        order = {act: i for i, act in enumerate(self.actions)}
        self.actions_by_lhs: dict[str, list[str]] = {
            a: sorted({r.action for r in rs}, key=order.get)
            for a, rs in self.rules_by_lhs.items()}
        # (term, action) -> successors; filled by lts.step_action
        self.successors: dict[tuple[int, str], tuple[tuple[str, int], ...]] = {}
        # computed on first use, so that parsing does not pay for them; set
        # here rather than cached in __dict__, which would slow every
        # attribute read on the grammar
        self._sink: dict[tuple[str, int], tuple[str, ...]] | None = None
        self._constants: GrammarConstants | None = None
        self._stepinc: int | None = None

    def _validate(self):
        for kind, names in (("nonterminal name", self.arities),
                            ("action name", self.actions),
                            ("rule id", self.rule_by_id)):
            if "" in names:
                raise GrammarError("empty %s" % kind)
        for r in self.rules:
            if r.lhs not in self.arities:
                raise GrammarError("rule %s: unknown nonterminal %r" % (r.rid, r.lhs))
            if r.action not in self.actions:
                raise GrammarError("rule %s: unknown action %r" % (r.rid, r.action))
            bad = varin(self.ts, [r.rhs]) - set(range(1, self.arities[r.lhs] + 1))
            if bad:
                raise GrammarError(
                    "rule %s: rhs uses x%d beyond arity %d of %s"
                    % (r.rid, min(bad), self.arities[r.lhs], r.lhs))

    @property
    def sink(self) -> dict[tuple[str, int], tuple[str, ...]]:
        """The shortest sink-word table, computed on first use:
        sink[(A, i)] is the shortest (A,i)-sink word."""
        if self._sink is None:
            self._sink = compute_sink_table(self)
        return self._sink

    @property
    def stepinc(self) -> int:
        """The largest nonterminal-node count of a rule right-hand side,
        computed on first use apart from the other constants: the size
        bounds of bases read only this one."""
        if self._stepinc is None:
            self._stepinc = max(propsize(self.ts, [r.rhs]) for r in self.rules)
        return self._stepinc

    @property
    def constants(self) -> GrammarConstants:
        """The derived constants, computed on first use."""
        if self._constants is None:
            self._constants = compute_constants(self)
        return self._constants

    def lhs_term(self, nt: str) -> int:
        """A(x1..xm) for the nonterminal's declared arity."""
        m = self.arities[nt]
        return self.ts.app(nt, tuple(self.ts.var(i) for i in range(1, m + 1)))


def parse_grammar(text: str) -> Grammar:
    """Parse the line-oriented grammar file format."""
    ts = TermStore()
    arities: dict[str, int] = {}
    actions: list[str] = []
    rules: list[Rule] = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if line.startswith("nonterminals:"):
                for part in line[len("nonterminals:"):].split(","):
                    name, ar = part.split("/")
                    name = name.strip()
                    if name in arities:
                        raise GrammarError("duplicate nonterminal %r" % name)
                    arities[name] = int(ar)
                    if arities[name] < 0:
                        raise GrammarError("negative arity %d of %r"
                                           % (arities[name], name))
            elif line.startswith("actions:"):
                for part in line[len("actions:"):].split(","):
                    a = part.strip()
                    if a in actions:
                        raise GrammarError("duplicate action %r" % a)
                    actions.append(a)
            elif line.startswith("rule "):
                head, body = line[len("rule "):].split(":", 1)
                lhs_txt, arrow_rhs = body.split("-", 1)
                action, rhs_txt = arrow_rhs.split("->", 1)
                action = action.strip().strip("-")
                lhs_term = lhs_txt.strip()
                if "(" in lhs_term:
                    lhs_name = lhs_term.split("(", 1)[0].strip()
                    args = lhs_term.split("(", 1)[1].rstrip(")").split(",")
                    expect = ["x%d" % i for i in range(1, len(args) + 1)]
                    if [a.strip() for a in args] != expect:
                        raise GrammarError(
                            "line %d: lhs arguments must be x1..xm in order" % lineno)
                else:
                    lhs_name, args = lhs_term, []
                if lhs_name not in arities:
                    raise GrammarError("line %d: unknown lhs %r" % (lineno, lhs_name))
                if len(args) != arities[lhs_name]:
                    raise GrammarError(
                        "line %d: lhs %s has %d arguments, its arity is %d"
                        % (lineno, lhs_name, len(args), arities[lhs_name]))
                rhs = parse_term(ts, rhs_txt.strip(), arities)
                rules.append(Rule(head.strip(), lhs_name, action, rhs))
            else:
                raise GrammarError("line %d: cannot parse %r" % (lineno, line))
        except (ValueError, TermError) as e:
            raise GrammarError("line %d: %s" % (lineno, e)) from e
    return Grammar(ts, arities, actions, rules)


def compute_sink_table(g: Grammar) -> dict[tuple[str, int], tuple[str, ...]]:
    """Shortest (A,i)-sink words, deterministically tie-broken: maps
    (nonterminal, position) to a tuple of rule ids w with
    A(x1..xm) -w-> x_i and no shorter such word; among shortest words
    the lexicographically least by rule declaration order is kept.
    Positions no word sinks to have no entry.

    Dynamic programming: word[A,i] relaxes via each rule A -r-> E
    using the best way to sink the finite term E to x_i; iterate to a
    fixpoint.
    """
    order = {r.rid: i for i, r in enumerate(g.rules)}

    def better(a, b):
        # a beats b: shorter, or equal length and lexicographically less
        if b is None:
            return True
        if a is None:
            return False
        ka = (len(a), tuple(order[r] for r in a))
        kb = (len(b), tuple(order[r] for r in b))
        return ka < kb

    best: dict[tuple[str, int], tuple[str, ...] | None] = {}
    for nt, m in g.arities.items():
        for i in range(1, m + 1):
            best[(nt, i)] = None

    def sink_term(t: int, i: int):
        """Best known word sinking the finite term t to x_i, or None;
        built in ascending id order, so children come first."""
        word = {}
        for u in sorted(g.ts.reachable([t])):
            node = g.ts.nodes[u]
            if node[0] == "var":
                word[u] = () if node[1] == i else None
                continue
            b = None
            for j, child in enumerate(node[2], 1):
                head = best.get((node[1], j))
                if head is None or word[child] is None:
                    continue
                cand = head + word[child]
                if better(cand, b):
                    b = cand
            word[u] = b
        return word[t]

    changed = True
    while changed:
        changed = False
        for r in g.rules:
            for i in range(1, g.arities[r.lhs] + 1):
                tail = sink_term(r.rhs, i)
                if tail is None:
                    continue
                cand = (r.rid,) + tail
                if better(cand, best[(r.lhs, i)]):
                    best[(r.lhs, i)] = cand
                    changed = True
    return {k: v for k, v in best.items() if v is not None}


class GrammarConstants:
    FIELDS = ["m", "hinc", "stepinc", "d0", "d1", "d2", "d3", "d4", "d5",
              "n", "s", "g", "c"]

    def __init__(self, **kw):
        for f in self.FIELDS:
            setattr(self, f, kw[f])

    def as_dict(self) -> dict[str, int]:
        return {f: getattr(self, f) for f in self.FIELDS}

    def __repr__(self):
        return "GrammarConstants(%s)" % ", ".join(
            "%s=%d" % (f, getattr(self, f)) for f in self.FIELDS)


def max_arity(g: Grammar) -> int:
    return max(g.arities.values())


def nonvar_subterms_of_rhs(g: Grammar) -> set[int]:
    """All non-variable subterms of all rule right-hand sides."""
    out = set()
    for r in g.rules:
        for t in g.ts.reachable([r.rhs]):
            if not g.ts.is_var(t):
                out.add(t)
    return out


def compute_constants(g: Grammar) -> GrammarConstants:
    ts = g.ts
    m = max_arity(g)
    # height(E)-1 over all rhs, clamped at 0
    hinc = max((height(ts, r.rhs) - 1 for r in g.rules), default=0)
    hinc = max(hinc, 0)
    stepinc = g.stepinc
    d0 = 1 + max(map(len, g.sink.values()), default=0)
    nN = len(g.arities)
    nR = len(g.rules)
    d1 = 2 * nN * max(d0, nR ** d0) ** (m + 2)
    d2 = d0 + (1 + d0 * hinc) * (d0 - 1)
    d3 = max(d0, nR ** d0) ** 2
    nonvar = nonvar_subterms_of_rhs(g)
    d4 = d1 * (1 + len(nonvar)) ** (d2 + d0 - 1)
    d5 = (d2 + d0 - 1) * (1 + (d0 - 1) * hinc)
    n = m ** d0
    s = m ** (d0 + 1) + (m + 2) * d0 * stepinc + (d2 + d0 - 1) * stepinc
    gg = (d2 + d0 - 1) * stepinc
    c = max(d3, 2 * d4 * d5)
    return GrammarConstants(m=m, hinc=hinc, stepinc=stepinc, d0=d0, d1=d1,
                            d2=d2, d3=d3, d4=d4, d5=d5, n=n, s=s, g=gg, c=c)
