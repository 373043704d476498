import contextlib
import hashlib
import pathlib
import resource
import signal
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from fogbisim import terms
from fogbisim.terms import (
    APP, VAR, TermStore, TermError, apply_subst, closed_graph,
    intern_graph, omega_iterate, one_line, parse_term, pressize,
    refine, render_term, varin,
)
from fogbisim.bases import enumerate_terms
from fogbisim.grammar import parse_grammar

from gen import height, is_finite, propsize


ARITIES = {"A": 3, "B": 0, "C": 2, "D": 2}
GRAMMARS = pathlib.Path(__file__).resolve().parent.parent / "grammars"


def fig1_terms(ts):
    e1 = parse_term(ts, "A(D(x5,C(x2,B)),x5,B)", ARITIES)
    e2 = apply_subst(ts, e1, {2: e1})
    e3 = omega_iterate(ts, e1, 2)
    return e1, e2, e3


def test_parse_roundtrip():
    ts = TermStore()
    t = parse_term(ts, "A(D(x5,C(x2,B)),x5,B)", ARITIES)
    assert render_term(ts, t) == "A(D(x5,C(x2,B)),x5,B)"


def test_parse_arity_mismatch():
    ts = TermStore()
    with pytest.raises(TermError):
        parse_term(ts, "A(x1)", ARITIES)


def test_sizes_and_vars():
    ts = TermStore()
    e1, e2, e3 = fig1_terms(ts)
    assert pressize(ts, [e1]) == 6
    assert pressize(ts, [e3]) == 5
    assert pressize(ts, [e1, e2]) == 9
    assert height(ts, e1) == 3
    assert varin(ts, [e1, e2]) == {2, 5}


def test_pressize_trivia():
    ts = TermStore()
    assert pressize(ts, [ts.var(1)]) == 1
    assert pressize(ts, [parse_term(ts, "x7")]) == 1


def test_height_trivia():
    ts = TermStore()
    assert height(ts, ts.var(4)) == 0
    t = parse_term(ts, "A(B,A(B,B))", {"A": 2, "B": 0})
    assert height(ts, t) == 2


def test_height_rejects_cyclic():
    ts = TermStore()
    t = intern_graph(ts, "node n = A(n)\nroot t = n")
    with pytest.raises(TermError):
        height(ts, t)


def test_varin_cyclic():
    ts = TermStore()
    t = intern_graph(ts, "node n = A(m,n)\nnode m = x3\nroot t = n")
    assert varin(ts, [t]) == {3}
    assert varin(ts, [parse_term(ts, "B")]) == set()


def test_intern_graph_canonical_merge():
    # two distinct presentations of A(B,B) intern to the same id
    ts = TermStore()
    g1 = intern_graph(ts, "node b1 = B\nnode b2 = B\nnode a = A(b1,b2)\nroot t = a")
    g2 = intern_graph(ts, "node b = B\nnode a = A(b,b)\nroot t = a")
    assert g1 == g2


def test_intern_graph_cycles_minimized():
    ts = TermStore()
    # a 3-cycle of A's is the same term as the 1-cycle
    g1 = intern_graph(ts, "node a = A(b)\nnode b = A(c)\nnode c = A(a)\nroot t = a")
    g2 = intern_graph(ts, "node a = A(a)\nroot t = a")
    assert g1 == g2
    assert pressize(ts, [g1]) == 1
    # `;` separates lines too: the one-line form of the text rows
    assert intern_graph(ts, "node a = A(b); node b = A(a); root t = a") == g1
    assert intern_graph(ts, "node a = A(a) # a; b\nroot t = a") == g1


def test_intern_graph_cycle_unfolding_prefix():
    # A(mu) where mu = A(mu) equals mu itself
    ts = TermStore()
    mu = intern_graph(ts, "node a = A(a)\nroot t = a")
    assert ts.app("A", (mu,)) == mu


def test_intern_graph_errors():
    ts = TermStore()
    with pytest.raises(TermError):
        intern_graph(ts, "node a = A(zzz)\nroot t = a")
    with pytest.raises(TermError):
        intern_graph(ts, "root t = a")
    with pytest.raises(TermError, match="exactly one root, got 0"):
        intern_graph(ts, "node a = B")
    with pytest.raises(TermError, match="exactly one root, got 2"):
        intern_graph(ts, "node a = B\nroot t = a\nroot u = a")


def test_intern_graph_interns_only_what_the_root_reaches():
    ts = TermStore()
    z = intern_graph(ts, "node n0 = Z; node n1 = A(n2); node n2 = B(n1, n0);"
                         " root t = n0")
    assert (z, len(ts.nodes)) == (0, 1)
    # every node of the text is still checked
    with pytest.raises(TermError, match="dangling reference 'q' in node 'b'"):
        intern_graph(ts, "node a = Z; node b = A(q); root t = a")
    with pytest.raises(TermError, match="line 1: cannot parse 'node = Z'"):
        intern_graph(ts, "node = Z; root t =")


@pytest.mark.parametrize("text, why", [
    # a variable argument is the variable, so a node of that spelling
    # could never be referred to
    ("node x1 = A(x1); root t = x1",
     "line 1: node 'x1' is spelled like a variable"),
    ("node n = A(x1); node x1 = Z; root t = n",
     "line 2: node 'x1' is spelled like a variable"),
    ("node x01 = Z; root t = x01",
     "line 1: node 'x01' is spelled like a variable"),
    # node and root names are NAMEs
    ("node \u00e9 = Z; root t = \u00e9", "line 1: cannot parse 'node \u00e9 = Z'"),
    ("node a b = Z; root t = a b", "line 1: cannot parse 'node a b = Z'"),
    ("node n = Z; root = n", "line 2: cannot parse 'root = n'"),
    ("node n = Z; root t = a b", "line 2: cannot parse 'root t = a b'"),
    # an application has at least one argument, as in the inline syntax
    ("node n = Z(); root t = n", "line 1: cannot parse 'node n = Z()'"),
    ("node n = A( ); root t = n", "line 1: cannot parse 'node n = A( )'"),
    ("node n = A(m,); node m = Z; root t = n",
     "line 1: cannot parse 'node n = A(m,)'"),
    ("node n = A(m)); root t = n", "line 1: cannot parse 'node n = A(m))'"),
    ("nodes n = Z; root t = n", "line 1: cannot parse 'nodes n = Z'"),
])
def test_intern_graph_refuses_what_is_not_a_statement(text, why):
    with pytest.raises(TermError) as ex:
        intern_graph(TermStore(), text)
    assert str(ex.value) == why


def test_intern_graph_reads_variables_by_their_spelling():
    ts = TermStore()
    want = parse_term(ts, "A(x1,B(x1,x2))")
    for text in ["node n = A(x1, m); node m = B(x01,x2); root t = n",
                 "node n = A ( v , m ) ; node m=B(x1 ,w); node v = x1;"
                 " node w = x2 ; root\tt = n",
                 "node n = A(x1,m)\n# m = Z\nnode m = B(x1,x2)\nroot t = n"]:
        assert intern_graph(ts, text) == want
    # a root is a node, never a variable
    with pytest.raises(TermError, match="root 't' refers to undefined node 'x1'"):
        intern_graph(ts, "node n = A(x1); root t = x1")


def test_finite_graph_form_is_hash_consed_before_refining():
    # finite nodes enter the refinement as settled leaves, so a long
    # chain costs one refinement round, not one per level
    n = 4000
    text = "".join("node v%d = A(v%d); " % (i, i + 1) for i in range(n))
    text += "node v%d = Z; root t = v0" % n
    ts = TermStore()
    start = time.perf_counter()
    t = intern_graph(ts, text)
    assert time.perf_counter() - start < 5
    want = ts.app("Z", ())
    for _ in range(n):
        want = ts.app("A", (want,))
    assert (t, len(ts.nodes)) == (want, n + 1)


def test_apply_subst_fig1():
    ts = TermStore()
    e1, e2, _ = fig1_terms(ts)
    assert apply_subst(ts, e1, {2: e1}) == e2
    assert pressize(ts, [e2]) == 9  # shares E1's nodes


def test_apply_subst_trivia():
    ts = TermStore()
    t = parse_term(ts, "A(x1,x2)", {"A": 2})
    assert apply_subst(ts, t, {}) == t
    r = apply_subst(ts, t, {1: ts.var(2)})
    assert r == parse_term(ts, "A(x2,x2)", {"A": 2})


def test_subst_support_drops_identities():
    ts = TermStore()
    t = parse_term(ts, "A(x1,x2)", {"A": 2})
    assert apply_subst(ts, t, {1: ts.var(1), 2: ts.var(5)}) == \
        apply_subst(ts, t, {2: ts.var(5)})
    assert apply_subst(ts, t, {1: ts.var(1)}) == t


def compose(ts, s1, s2):
    """σ1σ2 with x(σ1σ2) = (xσ1)σ2; a reference for the substitution
    laws below."""
    m = {}
    for i in s1.keys() | s2.keys():
        m[i] = apply_subst(ts, s1.get(i, ts.var(i)), s2)
    return {i: t for i, t in m.items() if t != ts.var(i)}


def test_compose_chases_bindings():
    ts = TermStore()
    b = parse_term(ts, "B")
    s = compose(ts, {1: ts.var(2)}, {2: b})
    assert s[1] == b and s[2] == b


def test_omega_iterate_fig1():
    ts = TermStore()
    e1, _, e3 = fig1_terms(ts)
    assert 2 not in varin(ts, [e3])
    assert pressize(ts, [e3]) <= pressize(ts, [e1])
    # E3 root structure: A with a cycle through the D/C spine
    assert ts.root(e3) == "A"


def test_omega_iterate_no_occurrence():
    ts = TermStore()
    t = parse_term(ts, "A(x1,x3)", {"A": 2})
    assert omega_iterate(ts, t, 2) == t


def test_omega_iterate_self_loop():
    ts = TermStore()
    t = parse_term(ts, "A(x1)", {"A": 1})
    mu = omega_iterate(ts, t, 1)
    assert pressize(ts, [mu]) == 1
    assert mu == intern_graph(ts, "node a = A(a)\nroot t = a")


def test_omega_iterate_var_cases():
    ts = TermStore()
    assert omega_iterate(ts, ts.var(3), 3) == ts.var(3)
    assert omega_iterate(ts, ts.var(2), 3) == ts.var(2)


# -- oracles ----------------------------------------------------------------

def unfold(ts, t, depth):
    """Bounded tree unfolding, the independent equality oracle."""
    node = ts.node(t)
    if node[0] == "var":
        return ("x", node[1])
    if depth == 0:
        return "?"
    return (node[1],) + tuple(unfold(ts, c, depth - 1) for c in node[2])


def test_omega_iterate_agrees_with_finite_unfolding():
    ts = TermStore()
    e1, _, e3 = fig1_terms(ts)
    # E3 unfolds like E1[x2/E1]^k to any depth k
    t = e1
    for _ in range(4):
        t = apply_subst(ts, t, {2: e1})
    d = 4
    assert unfold(ts, e3, d) == unfold(ts, t, d)


NT = [("A", 2), ("B", 0), ("C", 1)]


@st.composite
def finite_terms(draw, max_depth=3):
    ts_vars = st.integers(min_value=1, max_value=3)
    if max_depth == 0:
        if draw(st.booleans()):
            return ("x", draw(ts_vars))
        return ("B",)
    name, ar = draw(st.sampled_from(NT))
    if ar == 0 and draw(st.booleans()):
        return ("x", draw(ts_vars))
    return (name,) + tuple(draw(finite_terms(max_depth=max_depth - 1))
                           for _ in range(ar))


def build(ts, tree):
    if tree[0] == "x":
        return ts.var(tree[1])
    return ts.app(tree[0], tuple(build(ts, c) for c in tree[1:]))


@st.composite
def substs(draw):
    ts_pairs = st.lists(
        st.tuples(st.integers(min_value=1, max_value=3), finite_terms(max_depth=2)),
        max_size=3)
    return draw(ts_pairs)


def mk_subst(ts, pairs):
    return {i: build(ts, tr) for i, tr in pairs}


# cyclic images over NT, in the term-graph text format
CYCLIC = [
    "node n = C(n)\nroot t = n",
    "node n = A(n,b)\nnode b = B\nroot t = n",
    "node n = A(m,x1)\nnode m = C(n)\nroot t = n",
    "node n = A(m,m)\nnode m = C(n)\nroot t = n",
]


@st.composite
def images(draw):
    kind = draw(st.sampled_from(["tree", "graph", "omega"]))
    if kind == "graph":
        return (kind, draw(st.sampled_from(CYCLIC)))
    tree = draw(finite_terms(max_depth=2))
    return (kind, tree, draw(st.integers(min_value=1, max_value=3)))


def mk_image(ts, img):
    if img[0] == "graph":
        return intern_graph(ts, img[1])
    t = build(ts, img[1])
    return t if img[0] == "tree" else omega_iterate(ts, t, img[2])


def subst_by_raw_graph(ts, t, binding):
    """Reference for tσ: one raw graph holding t's nodes and a fresh copy
    of every image's presentation, interned by partition refinement."""
    raw = {}
    for img in binding.values():
        for u in ts.reachable([img]):
            node = ts.node(u)
            raw[("img", u)] = node if node[0] == "var" else \
                ("app", node[1], [("img", c) for c in node[2]])

    def ref(u):
        node = ts.node(u)
        if node[0] == "var" and node[1] in binding:
            return ("img", binding[node[1]])
        return ("t", u)

    for u in ts.reachable([t]):
        node = ts.node(u)
        if node[0] == "app":
            raw[("t", u)] = ("app", node[1], [ref(c) for c in node[2]])
        elif node[1] not in binding:
            raw[("t", u)] = node
    index = {name: k for k, name in enumerate(raw)}
    nodes = [node if node[0] == "var" else
             ("app", node[1], [index[name] for name in node[2]])
             for node in raw.values()]
    return ts.intern_raw(closed_graph(index[ref(t)], nodes.__getitem__))


def test_apply_subst_finds_stored_cycle():
    # b = A(b, x1) with x1 := w for w = A(w, w) unfolds to w itself
    ts = TermStore()
    w = intern_graph(ts, "node a = A(a,a)\nroot t = a")
    h = intern_graph(ts, "node b = A(b,x)\nnode x = x1\nroot t = b")
    got = apply_subst(ts, h, {1: w})
    assert (got, pressize(ts, [got])) == (w, 1)


def test_unused_binding_keeps_the_graph_small(monkeypatch):
    # h = B(h, x1) with x2 bound to a 600-node stored cycle S: the graph
    # holds only the nodes the root reaches, so S is not refined again
    ts = TermStore()
    n = 600
    s = intern_graph(ts, "; ".join(
        ["node n0 = P(n1)"]
        + ["node n%d = A(n%d)" % (k, (k + 1) % n) for k in range(1, n)]
        + ["root t = n0"]))
    h = intern_graph(ts, "node h = B(h,x); node x = x1; root t = h")
    sigma = {1: ts.app("Z", ()), 2: s}
    sizes = []
    real = terms.refine
    monkeypatch.setattr(terms, "refine",
                        lambda nodes: sizes.append(len(nodes)) or real(nodes))
    got = apply_subst(ts, h, sigma)
    assert sizes and max(sizes) <= 3
    monkeypatch.setattr(terms, "refine", real)
    assert got == subst_by_raw_graph(ts, h, sigma)
    stored = len(ts.nodes)
    assert omega_iterate(ts, got, 1) == got
    assert omega_iterate(ts, s, 1) == s
    assert len(ts.nodes) == stored


def test_enumerated_graphs_are_closed_graphs(monkeypatch):
    # enumerate_terms generates each graph in the breadth-first numbering
    # closed_graph gives it, and hands the store every one of them, those
    # with bisimilar nodes included
    g = parse_grammar(open(GRAMMARS / "gchain.fog").read())
    graphs = []
    real = g.ts.intern_raw
    monkeypatch.setattr(g.ts, "intern_raw",
                        lambda graph: graphs.append(graph) or real(graph))
    got = enumerate_terms(g, 1, 3)
    for graph in graphs:
        assert list(graph) == closed_graph(0, graph.__getitem__)
    non_minimal = [graph for graph in graphs if refine(graph)[1] < len(graph)]
    assert (len(graphs), len(non_minimal), len(got)) == (812, 120, 692)


def test_intern_raw_exits_early(monkeypatch):
    ts = TermStore()
    refined = []
    keyed = []
    real_refine, real_walk = terms.refine, terms.closed_graph
    monkeypatch.setattr(terms, "refine",
                        lambda nodes: refined.append(nodes) or real_refine(nodes))
    monkeypatch.setattr(terms, "closed_graph",
                        lambda root, node_of: keyed.append(root)
                        or real_walk(root, node_of))
    # a finite graph is hash-consed, and nothing is refined or keyed
    t = ts.intern_raw([(APP, "A", [1]), (VAR, 1)])
    assert t == parse_term(ts, "A(x1)") and (refined, keyed) == ([], [])
    # three A nodes in a cycle are one node, A^omega: the quotient's root
    # key hits
    a = ts.intern_raw([(APP, "A", [0])])
    stored = len(ts.nodes)
    refined.clear()
    assert ts.intern_raw([(APP, "A", [1]), (APP, "A", [2]),
                          (APP, "A", [0])]) == a
    assert len(ts.nodes) == stored
    assert [len(nodes) for nodes in refined] == [3]
    # the rotation of a stored P-Q cycle is its stored Q node, found by
    # the root's key alone
    p = ts.intern_raw([(APP, "P", [1]), (APP, "Q", [0])])
    q = ts.children(p)[0]
    stored = len(ts.nodes)
    keyed.clear()
    assert ts.intern_raw([(APP, "Q", [1]), (APP, "P", [0])]) == q
    assert len(ts.nodes) == stored and keyed == [0]


@st.composite
def raw_graphs(draw):
    """A term graph of one to three nodes over A/2, C/1, x1 and x2,
    rooted at node 0; most of them are cyclic."""
    k = draw(st.integers(min_value=1, max_value=3))
    node = st.integers(min_value=0, max_value=k - 1)
    raw = []
    for _ in range(k):
        kind = draw(st.sampled_from(["A", "C", "x"]))
        if kind == "x":
            raw.append(("var", draw(st.integers(min_value=1, max_value=2))))
        else:
            raw.append(("app", kind,
                        [draw(node) for _ in range(2 if kind == "A" else 1)]))
    return raw


STORE_STEP = st.tuples(raw_graphs(), st.integers(min_value=1, max_value=2),
                       st.integers(min_value=0, max_value=99),
                       st.integers(min_value=0, max_value=99))


@given(st.lists(STORE_STEP, min_size=1, max_size=6))
# w = A(w,w), then h = A(h,x1) with x1 := w, as in the test above
@example([([("app", "A", [0, 0])], 1, 0, 0),
          ([("app", "A", [0, 1]), ("var", 1)], 1, 3, 0)])
@settings(max_examples=200, deadline=None)
def test_store_holds_one_node_per_class(steps):
    ts = TermStore()
    terms = []
    for raw, i, a, b in steps:
        terms.append(ts.intern_raw(raw))
        terms.append(omega_iterate(ts, terms[a % len(terms)], i))
        t, img = terms[a % len(terms)], terms[b % len(terms)]
        sigma = {i: img}
        terms.append(apply_subst(ts, t, sigma))
        assert terms[-1] == subst_by_raw_graph(ts, t, sigma)
    # refining the whole store finds no two bisimilar nodes
    assert refine(ts.nodes)[1] == len(ts.nodes)



def reference_refine(raw: dict) -> list[list]:
    """Partition refinement over the nodes of a closed graph given as a
    dict of named nodes, names in `repr` order; returns the blocks as
    lists of names. The store's refinement before `refine`, kept as its
    reference."""
    names = sorted(raw.keys(), key=repr)

    def initial(name):
        node = raw[name]
        if node[0] == "var":
            return ("var", node[1])
        return ("app", node[1], len(node[2]))

    block_of = {}
    keys = {}
    for name in names:
        keys.setdefault(initial(name), []).append(name)
    for b, key in enumerate(sorted(keys, key=repr)):
        for name in keys[key]:
            block_of[name] = b

    while True:
        sig = {}
        for name in names:
            node = raw[name]
            if node[0] == "var":
                sig[name] = ("var", node[1])
            else:
                sig[name] = ("app", node[1],
                             tuple(block_of[ref] for ref in node[2]))
        groups = {}
        for name in names:
            groups.setdefault((block_of[name], sig[name]), []).append(name)
        if len(groups) == len(set(block_of.values())):
            break
        for b, key in enumerate(sorted(groups, key=repr)):
            for name in groups[key]:
                block_of[name] = b

    blocks: dict[int, list] = {}
    for name in names:
        blocks.setdefault(block_of[name], []).append(name)
    return [blocks[b] for b in sorted(blocks)]


# A is used with one child and with two
LABELS = [("A", 1), ("A", 2), ("B", 0), ("C", 1), ("x", 1), ("x", 2)]


@st.composite
def closed_graphs(draw):
    """A closed term graph of one to six nodes, any node a child of any
    other, so most are cyclic; half of them are followed by a copy of
    themselves whose arcs lead into either copy, which adds a bisimilar
    duplicate of every node."""
    k = draw(st.integers(min_value=1, max_value=6))
    nodes = []
    for _ in range(k):
        name, n = draw(st.sampled_from(LABELS))
        if name == "x":
            nodes.append(("var", n))
        else:
            nodes.append(("app", name, [draw(st.integers(0, k - 1))
                                        for _ in range(n)]))
    if draw(st.booleans()):
        nodes += [node if node[0] == "var" else
                  ("app", node[1], [c + k * draw(st.integers(0, 1))
                                    for c in node[2]])
                  for node in nodes]
    return nodes


@given(closed_graphs())
@example([("app", "A", [2]), ("app", "A", [2, 2]), ("app", "B", []),
          ("app", "A", [2]), ("var", 1), ("var", 1)])
@settings(max_examples=300, deadline=None)
def test_refine_matches_reference(nodes):
    block, count = refine(nodes)
    want = reference_refine(dict(enumerate(nodes)))
    assert count == len(want)
    got = [[i for i, b in enumerate(block) if b == j] for j in range(count)]
    assert sorted(got) == sorted(sorted(members) for members in want)
    # blocks are numbered by first occurrence
    assert [members[0] for members in got] == sorted(m[0] for m in got)


class ReferenceStore(TermStore):
    """The store's matching step before keys depended on the graph
    alone, kept as a reference: the graph quotiented by `refine`, then
    Tarjan's SCCs in reverse topological order, acyclic nodes
    hash-consed, and each cyclic SCC serialized with everything outside
    it as ("ext", id) atoms. `matched` counts the graphs it matched."""

    matched = 0

    def intern_raw(self, nodes) -> int:
        block, _ = refine(nodes)
        quotient = []
        for node, b in zip(nodes, block):
            if b == len(quotient):
                quotient.append(node if node[0] == VAR else
                                (APP, node[1], [block[c] for c in node[2]]))
        nodes = quotient
        self.matched += 1
        # Tarjan condensation, processed in reverse topological order.
        assign: list = [None] * len(nodes)
        for scc in self._sccs(nodes):
            b = scc[0]
            node = nodes[b]
            if node[0] == VAR:
                assign[b] = self.var(node[1])
            elif len(scc) == 1 and b not in node[2]:
                kids = tuple(assign[ref] for ref in node[2])
                assign[b] = self._intern((APP, node[1], kids))
            else:
                self._assign_cyclic(nodes, scc, assign)
        return assign[0]

    def _sccs(self, nodes) -> list[list]:
        """SCCs of the graph in reverse topological order."""
        index = {}
        low = {}
        on_stack = set()
        stack = []
        out = []
        counter = [0]

        def succs(b):
            node = nodes[b]
            return [] if node[0] == VAR else node[2]

        def strongconnect(b):
            # iterative Tarjan
            work = [(b, 0)]
            while work:
                v, pi = work.pop()
                if pi == 0:
                    index[v] = low[v] = counter[0]
                    counter[0] += 1
                    stack.append(v)
                    on_stack.add(v)
                recurse = False
                ss = succs(v)
                for i in range(pi, len(ss)):
                    w = ss[i]
                    if w not in index:
                        work.append((v, i + 1))
                        work.append((w, 0))
                        recurse = True
                        break
                    elif w in on_stack:
                        low[v] = min(low[v], index[w])
                if recurse:
                    continue
                for w in ss:
                    if w in low and w in on_stack and w != v:
                        low[v] = min(low[v], low[w])
                if low[v] == index[v]:
                    scc = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        scc.append(w)
                        if w == v:
                            break
                    out.append(sorted(scc))

        for b in range(len(nodes)):
            if b not in index:
                strongconnect(b)
        return out

    def _assign_cyclic(self, nodes, scc, assign):
        members = set(scc)
        keys = {b: self._serialize(nodes, b, members, assign) for b in scc}
        hits = {b: self._cyclic_index.get(keys[b]) for b in scc}
        found = [b for b in scc if hits[b] is not None]
        if found:
            # the store holds every subterm of its members, so one hit
            # means the whole class is present
            for b in scc:
                if hits[b] is None:
                    raise TermError("inconsistent cyclic index")
                assign[b] = hits[b]
            return
        for b in scc:
            assign[b] = len(self.nodes)
            self.nodes.append(None)  # patched below
        for b in scc:
            node = nodes[b]
            stored = (APP, node[1], tuple(assign[ref] for ref in node[2]))
            self.nodes[assign[b]] = stored
            self._hashcons[stored] = assign[b]
            self._cyclic_index[keys[b]] = assign[b]

    def _serialize(self, nodes, b, members, assign) -> tuple:
        """Canonical DFS serialization of the SCC subgraph from b."""
        numbering = {}
        out = []
        stack = [b]
        # explicit preorder DFS, children left to right
        order = []
        while stack:
            v = stack.pop()
            if v in numbering:
                continue
            numbering[v] = len(numbering)
            order.append(v)
            node = nodes[v]
            kids = [ref for ref in node[2] if ref in members]
            for w in reversed(kids):
                if w not in numbering:
                    stack.append(w)
        # second pass now that every reachable member is numbered
        for v in order:
            node = nodes[v]
            parts = tuple(("loc", numbering[ref]) if ref in members
                          else ("ext", assign[ref]) for ref in node[2])
            out.append((node[1], parts))
        return tuple(out)


def serialize(ts, t):
    """t's graph in preorder, each id replaced by its preorder number:
    equal for equal terms of two stores that each hold one node per
    class."""
    numbering = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if u not in numbering:
            numbering[u] = len(numbering)
            stack.extend(reversed(ts.children(u)))
    return tuple(ts.nodes[u][:2] + tuple(numbering[c] for c in ts.children(u))
                 for u in numbering)


ANY = st.integers(min_value=0, max_value=99)
SESSION_STEP = st.one_of(
    st.tuples(st.just("raw"), closed_graphs(), ANY),
    st.tuples(st.just("subst"), ANY, st.integers(1, 2), ANY),
    st.tuples(st.just("omega"), ANY, st.integers(1, 2)),
    st.tuples(st.just("app"), st.sampled_from([("A", 1), ("A", 2), ("C", 1)]),
              ANY, ANY),
)


def session_step(ts, terms, step):
    """Run one session step on ts; terms are picked by index into the
    terms the session has returned so far."""
    def pick(k):
        return terms[k % len(terms)]

    kind = step[0]
    if kind == "raw":
        nodes = step[1]
        return ts.intern_raw(closed_graph(step[2] % len(nodes),
                                          nodes.__getitem__))
    if kind == "subst":
        return apply_subst(ts, pick(step[1]), {step[2]: pick(step[3])})
    if kind == "omega":
        return omega_iterate(ts, pick(step[1]), step[2])
    (name, n), first, second = step[1:]
    return ts.app(name, (pick(first), pick(second))[:n])


@given(closed_graphs(), st.lists(SESSION_STEP, max_size=8))
@settings(max_examples=200, deadline=None)
def test_store_matches_reference_store(first, steps):
    stores = (ReferenceStore(), TermStore())
    terms = ([], [])
    for step in [("raw", first, 0)] + steps:
        for ts, got in zip(stores, terms):
            got.append(session_step(ts, got, step))
        ref, new = stores
        assert serialize(ref, terms[0][-1]) == serialize(new, terms[1][-1])
        assert len(ref.nodes) == len(new.nodes)
        assert refine(new.nodes)[1] == len(new.nodes)
    # the first step at least went through the reference's own matching
    assert stores[0].matched


def test_keys_are_computed_before_any_hit():
    # the second graph's A-cycle is stored, so looking it up first must
    # not change the key of the B node above it
    ts = TermStore()
    b = ts.intern_raw([(APP, "B", [0, 1]), (APP, "A", [1])])
    a = ts.children(b)[1]
    c = ts.intern_raw([(APP, "C", [1, 2]), (APP, "A", [1]),
                       (APP, "B", [2, 1])])
    assert ts.nodes[c] == (APP, "C", (a, b))
    assert len(ts.nodes) == 3


def test_node_above_a_stored_cycle_is_found_by_hash_consing():
    # `app` stores C(A^omega) without a key, so only hash-consing after
    # the A-cycle's hit finds it
    ts = TermStore()
    w = intern_graph(ts, "node k = A(k); root t = k")
    c = ts.app("C", (w,))
    assert intern_graph(ts, "node c = C(k); node k = A(k); root t = c") == c
    assert len(ts.nodes) == 2


@given(finite_terms(), st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), images()), max_size=3))
@settings(max_examples=200, deadline=None)
def test_apply_subst_matches_raw_graph_interning(tree, pairs):
    ts = TermStore()
    sigma = {i: mk_image(ts, img) for i, img in pairs}
    t = build(ts, tree)
    want = subst_by_raw_graph(ts, t, sigma)
    assert apply_subst(ts, t, sigma) == want


@given(finite_terms(), substs(), substs())
@settings(max_examples=150, deadline=None)
def test_subst_application_distributes(tree, p1, p2):
    ts = TermStore()
    t = build(ts, tree)
    s1, s2 = mk_subst(ts, p1), mk_subst(ts, p2)
    lhs = apply_subst(ts, t, compose(ts, s1, s2))
    rhs = apply_subst(ts, apply_subst(ts, t, s1), s2)
    assert lhs == rhs


@given(substs(), substs(), substs())
@settings(max_examples=100, deadline=None)
def test_compose_associative(p1, p2, p3):
    ts = TermStore()
    s1, s2, s3 = (mk_subst(ts, p) for p in (p1, p2, p3))
    a = compose(ts, compose(ts, s1, s2), s3)
    b = compose(ts, s1, compose(ts, s2, s3))
    assert a == b


@given(finite_terms(), st.integers(min_value=1, max_value=3), substs())
@settings(max_examples=150, deadline=None)
def test_omega_iterate_contract(tree, i, pairs):
    ts = TermStore()
    h = build(ts, tree)
    if ts.is_var(h) and ts.var_index(h) == i:
        return
    h2 = omega_iterate(ts, h, i)
    assert i not in varin(ts, [h2])
    assert pressize(ts, [h2]) <= pressize(ts, [h])
    sigma = mk_subst(ts, pairs)
    without_i = {j: v for j, v in sigma.items() if j != i}
    assert apply_subst(ts, h2, sigma) == apply_subst(ts, h2, without_i)


@given(finite_terms())
@settings(max_examples=150, deadline=None)
def test_canonicality_finite(tree):
    ts = TermStore()
    t = build(ts, tree)
    assert unfold(ts, t, 10) == tree or _tree_eq(unfold(ts, t, 10), tree)


def _tree_eq(a, b):
    return a == b


@given(finite_terms())
@settings(max_examples=100, deadline=None)
def test_pressize_counts_distinct_subtrees(tree):
    ts = TermStore()
    t = build(ts, tree)
    subs = set()

    def walk(tr):
        subs.add(tr)
        if tr[0] != "x":
            for c in tr[1:]:
                walk(c)

    walk(tree)
    assert pressize(ts, [t]) == len(subs)


def test_propsize():
    ts = TermStore()
    e1, _, _ = fig1_terms(ts)
    # E1 has subterms E1, D(..), C(..), B, x5, x2 -> 4 nonterminal nodes
    assert propsize(ts, [e1]) == 4
    assert propsize(ts, [ts.var(1)]) == 0


def test_is_finite():
    ts = TermStore()
    e1, _, e3 = fig1_terms(ts)
    assert is_finite(ts, e1)
    assert not is_finite(ts, e3)


def test_render_term_walks_the_term_once(monkeypatch):
    ts = TermStore()
    e1, _, e3 = fig1_terms(ts)
    walks = []
    real = TermStore.reachable
    monkeypatch.setattr(TermStore, "reachable",
                        lambda self, roots: walks.append(roots) or real(self, roots))
    assert render_term(ts, e1) == "A(D(x5,C(x2,B)),x5,B)"
    assert len(walks) == 1
    text = render_term(ts, e3)
    assert len(walks) == 2
    assert text.endswith("root t = n%d" % e3)
    assert intern_graph(ts, text) == e3


class Expired(BaseException):
    pass


@contextlib.contextmanager
def bounded(seconds, extra_mb):
    """Fail with Expired past the given seconds, and with MemoryError
    past the given megabytes beyond the address space in use now."""
    def expire(signum, frame):
        raise Expired("took more than %d s" % seconds)

    in_use = int(pathlib.Path("/proc/self/statm").read_text().split()[0]) \
        * resource.getpagesize()
    limits = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS,
                       (in_use + extra_mb * 2 ** 20, limits[1]))
    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
        resource.setrlimit(resource.RLIMIT_AS, limits)


def test_render_term_builds_no_inline_text_for_a_cyclic_term():
    # n = C(n, d40), where d40 is a finite term of 2**40 leaves on 41
    # shared nodes: its inline text could not be built, its graph lines
    # are a few hundred characters
    depth = 40
    text = "; ".join(
        ["node d0 = Z"]
        + ["node d%d = B(d%d,d%d)" % (i, i - 1, i - 1)
           for i in range(1, depth + 1)]
        + ["node n = C(n,d%d)" % depth, "root t = n"])
    ts = TermStore()
    t = intern_graph(ts, text)
    with bounded(seconds=10, extra_mb=256):
        out = render_term(ts, t)
    assert len(out.splitlines()) == depth + 3
    assert out.endswith("root t = n%d" % t)
    assert intern_graph(ts, one_line(out)) == t


# sha256 over repr((file name, id, text)) of every rendered term below
RENDER_DIGEST = "f92559e48817011194561c7deb579ce1bc09a928a4d515496ce3b026e253c7e8"


def test_rendered_terms_read_back_to_themselves():
    """Every term of up to 5 (g1) or 3 (gchain, gnull) nodes over x1, x2,
    cyclic ones included, renders to a text that reads back to the same
    id, also in its one-line form; the texts themselves are pinned."""
    digest = hashlib.sha256()
    cyclic = 0
    for name, size in (("g1.fog", 5), ("gchain.fog", 3), ("gnull.fog", 3)):
        g = parse_grammar((GRAMMARS / name).read_text())
        for t in enumerate_terms(g, 2, size):
            text = render_term(g.ts, t)
            digest.update(repr((name, t, text)).encode())
            finite = is_finite(g.ts, t)
            cyclic += not finite
            read = parse_term if finite else intern_graph
            assert read(g.ts, text, g.arities) == t
            assert read(g.ts, one_line(text), g.arities) == t
    assert cyclic == 607
    assert digest.hexdigest() == RENDER_DIGEST


def test_deep_finite_term_walkers_are_iterative():
    ts = TermStore()
    t = ts.app("B", ())
    for _ in range(5000):
        t = ts.app("C", (t,))
    limit = sys.getrecursionlimit()
    assert is_finite(ts, t)
    assert height(ts, t) == 5000
    assert render_term(ts, t) == "C(" * 5000 + "B" + ")" * 5000
    assert parse_term(ts, render_term(ts, t)) == t
    assert sys.getrecursionlimit() == limit
