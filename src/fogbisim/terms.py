"""Hash-consed regular first-order terms.

A regular term (possibly infinite tree with finitely many distinct
subterms) is represented by an integer handle (TermId) into a TermStore.
The store keeps exactly one node per distinct subterm, so handle
equality is term equality and pressize is a reachable-node count.

A term graph is a list of nodes whose children are list indices,
rooted at node 0 and numbered by one breadth-first walk, `closed_graph`.
Finite terms over canonical children are interned by plain
hash-consing. Every graph that may contain a cycle enters the store
through `TermStore.intern_raw`: its finite nodes are hash-consed, the
rest quotiented by bisimulation (`refine`) and matched by a key, the
same walk from a node with each finite node as a leaf. The quotient is
minimal, so the key depends on the graph alone and no strongly
connected components are computed. A substitution is a plain dict from
variable indices to ids, applied by `apply_subst`.
"""

from __future__ import annotations

import math
import re


TermId = int

# node encodings inside a TermStore
VAR = "var"
APP = "app"

# a name (nonterminal, action, rule id, graph node reference): ASCII
# letters, digits, `_` and `'`; x followed by digits is a variable
NAME = re.compile(r"[A-Za-z0-9_']+")

# Python's int-to-decimal conversion refuses an int of more digits than
# this by default, so no integer read or printed may exceed it
MAX_DIGITS = 4300
# the least int of more than MAX_DIGITS digits
TOO_LARGE = 10 ** MAX_DIGITS


class TermError(Exception):
    pass


def read_int(digits: str, what: str) -> int:
    """The ASCII decimal digits as an int, refused by name past
    MAX_DIGITS digits before `int` sees them."""
    if len(digits) > MAX_DIGITS:
        raise TermError("%s has more than %d digits" % (what, MAX_DIGITS))
    return int(digits)


def bounded_power(b: int, e: int) -> int | None:
    """b ** e, or None when it has more than MAX_DIGITS digits: a log
    estimate settles the clear cases before anything is computed, an
    exact comparison the rest."""
    if b > 1 and e > (MAX_DIGITS + 1) / math.log10(b):
        return None
    v = b ** e
    return v if v < TOO_LARGE else None


def refine(nodes) -> tuple[list[int], int]:
    """Bisimulation classes of a closed term graph: the block of each
    node and the number of blocks, blocks numbered by first occurrence.

    nodes is a term graph as `TermStore.intern_raw` takes it. Partition
    refinement (Paige and Tarjan, 1987) starts from the node labels and
    splits blocks by the blocks of the children until no block splits.
    """
    blocks: dict = {}
    block = [blocks.setdefault(node[:2], len(blocks)) for node in nodes]
    while len(blocks) < len(nodes):
        n_blocks = len(blocks)
        blocks = {}
        block = [blocks.setdefault(
            (block[i], tuple(block[c] for c in node[2]))
            if node[0] == APP else block[i], len(blocks))
            for i, node in enumerate(nodes)]
        if len(blocks) == n_blocks:
            break
    return block, len(blocks)


def closed_graph(root, node_of) -> list[tuple]:
    """The nodes root reaches, numbered breadth first with root at
    index 0. node_of(name) gives (VAR, index), (APP, head, child names)
    or any other leaf; each child name becomes the index of its node."""
    index = {root: 0}
    order = [root]
    nodes = []
    for name in order:
        node = node_of(name)
        if node[0] == APP:
            for c in node[2]:
                if c not in index:
                    index[c] = len(order)
                    order.append(c)
            node = (APP, node[1], tuple(index[c] for c in node[2]))
        nodes.append(node)
    return nodes


class TermStore:
    """Append-only interning table for regular terms.

    Nodes are tuples: (VAR, index) or (APP, nonterminal, child_ids).
    Children of stored nodes are store ids, so `nodes` is itself a term
    graph. The store keeps one node per bisimulation class, and a
    finite node is always interned after its children, so every arc
    below a finite term leads to a smaller id, while every cycle has an
    arc to an id no smaller than its source. Finite terms can therefore
    be built and walked in ascending id order by plain hash-consing
    (`app`, `instantiate`); `intern_raw` is needed only for input that
    may create a cycle.

    `intern_raw` is the one way a graph enters the store: hash-consing,
    and a key lookup for the nodes that reach a cycle. No SCC
    condensation is needed, because the key depends on the graph alone.
    It takes every graph `bases.enumerate_terms` generates, and the
    graphs `closed_graph` builds from the graph format, `apply_subst`
    and `omega_iterate`; every key is built by `closed_graph` too.
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self._hashcons: dict[tuple, TermId] = {}
        # key (see `intern_raw`) of a term that reaches a cycle -> its id
        self._cyclic_index: dict[tuple, TermId] = {}

    # -- basic constructors -------------------------------------------------

    def var(self, index: int) -> TermId:
        if index < 1:
            raise TermError("variable indices are positive: x%d" % index)
        return self._intern((VAR, index))

    def app(self, nonterminal: str, children: tuple[TermId, ...]) -> TermId:
        """Intern an application node whose children are already canonical.

        Safe only when no new cycle is being created; cyclic inputs must
        go through intern_raw.
        """
        for c in children:
            self._check(c)
        return self._intern((APP, nonterminal, tuple(children)))

    def _check(self, t: TermId):
        if not (0 <= t < len(self.nodes)):
            raise TermError("unknown term id %r" % (t,))

    def _intern(self, node: tuple) -> TermId:
        got = self._hashcons.get(node)
        if got is not None:
            return got
        tid = len(self.nodes)
        self.nodes.append(node)
        self._hashcons[node] = tid
        return tid

    def node(self, t: TermId) -> tuple:
        self._check(t)
        return self.nodes[t]

    def is_var(self, t: TermId) -> bool:
        return self.nodes[t][0] == VAR

    def var_index(self, t: TermId) -> int:
        node = self.nodes[t]
        if node[0] != VAR:
            raise TermError("not a variable term")
        return node[1]

    def root(self, t: TermId):
        """Root nonterminal name, or None for a variable."""
        node = self.nodes[t]
        return None if node[0] == VAR else node[1]

    def children(self, t: TermId) -> tuple[TermId, ...]:
        node = self.nodes[t]
        return () if node[0] == VAR else node[2]

    # -- canonicalization of term graphs ------------------------------------

    def intern_raw(self, nodes) -> TermId:
        """Canonicalize a term graph rooted at node 0; returns the id of
        the root.

        nodes is a closed term graph: node k is (VAR, index) or (APP,
        nonterminal, children), and every child is an index into nodes,
        so refinement sees every node a cycle could be bisimilar to.
        Cycles are allowed, and so are bisimilar nodes.

        The finite nodes are hash-consed first; a finite root is done.
        Otherwise they enter the refinement as leaves labelled by their
        ids, so they cost one round instead of one per level, and a
        graph with bisimilar nodes is replaced by its quotient.
        Every other node b reaches a cycle, and its key is `closed_graph`
        from b with each finite node as the leaf ("ext", id). A hit on
        the root's key is the answer. Otherwise all other keys are
        computed before any is looked up, so a key depends on the graph
        alone. After a hit, hash-consing again finds the nodes above it
        that `app` or `apply_subst` stored. What is left is new.
        """
        assign: list = [None] * len(nodes)
        self._intern_ready(nodes, assign)
        if assign[0] is not None:
            return assign[0]
        block, n_blocks = refine([(APP, ("fin", a), ()) if a is not None and node[0] == APP
                                  else node for node, a in zip(nodes, assign)])
        if n_blocks < len(nodes):
            # quotient graph: the first node of each block stands for it
            quotient, settled = [], []
            for node, a, b in zip(nodes, assign, block):
                if b == len(quotient):
                    quotient.append(node if node[0] == VAR else
                                    (APP, node[1], [block[c] for c in node[2]]))
                    settled.append(a)
            nodes, assign = quotient, settled

        def known_as_leaf(v):
            return nodes[v] if assign[v] is None else ("ext", assign[v])
        keys = {0: tuple(closed_graph(0, known_as_leaf))}
        hit = self._cyclic_index.get(keys[0])
        if hit is not None:
            return hit
        keys.update((b, tuple(closed_graph(b, known_as_leaf)))
                    for b, a in enumerate(assign) if a is None and b)
        for b, key in keys.items():
            assign[b] = self._cyclic_index.get(key)
        if any(assign[b] is not None for b in keys):
            self._intern_ready(nodes, assign)
        new = [b for b, a in enumerate(assign) if a is None]
        for k, b in enumerate(new):
            assign[b] = len(self.nodes) + k
        for b in new:
            node = nodes[b]
            stored = (APP, node[1], tuple(assign[c] for c in node[2]))
            self._hashcons[stored] = self._cyclic_index[keys[b]] = assign[b]
            self.nodes.append(stored)
        return assign[0]

    def _intern_ready(self, nodes, assign):
        """Hash-cons, children first, every node of the graph whose
        children all have ids in assign, and fill in its id; a worklist
        of waiting-child counts keeps this linear."""
        waiting = [0] * len(nodes)
        parents: list[list] = [[] for _ in nodes]
        for b, node in enumerate(nodes):
            if assign[b] is None and node[0] == APP:
                for c in node[2]:
                    if assign[c] is None:
                        waiting[b] += 1
                        parents[c].append(b)
        ready = [b for b, a in enumerate(assign) if a is None and not waiting[b]]
        while ready:
            b = ready.pop()
            node = nodes[b]
            assign[b] = self.var(node[1]) if node[0] == VAR else \
                self._intern((APP, node[1], tuple(assign[c] for c in node[2])))
            for p in parents[b]:
                waiting[p] -= 1
                if not waiting[p]:
                    ready.append(p)

    # -- walks ----------------------------------------------------------------

    def reachable(self, roots) -> set[TermId]:
        seen = set()
        stack = list(roots)
        while stack:
            t = stack.pop()
            if t in seen:
                continue
            seen.add(t)
            stack.extend(self.children(t))
        return seen


# the two statements of the term-graph format: node NAME = HEAD or
# node NAME = HEAD(NAME,..,NAME), and root NAME = NAME
_NODE = re.compile(r"node\s+(N)\s*=\s*(N)(?:\s*\(\s*(N(?:\s*,\s*N)*)\s*\))?"
                   .replace("N", NAME.pattern))
_ROOT = re.compile(r"root\s+(N)\s*=\s*(N)".replace("N", NAME.pattern))


def intern_graph(ts: TermStore, text: str,
                 arities: dict[str, int] | None = None) -> TermId:
    """Parse the term-graph text format and intern its one root.

    Statements: `node NAME = HEAD`, `node NAME = HEAD(NAME,...,NAME)` and
    one `root NAME = NAME`, separated by newlines or `;`; a `#` comment
    runs to the newline; anything else is refused as `cannot parse`.
    A HEAD or argument spelled x<k> is the variable x_k, so no node may
    be spelled that way; cycles are allowed. With arities, every node is
    checked against them as in `parse_term`.
    """
    named: dict = {}  # node name, or variable spelling -> node
    roots: list[tuple[str, str]] = []
    text = "\n".join(line.split("#", 1)[0] for line in text.splitlines())
    for lineno, line in enumerate(text.replace(";", "\n").splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        root = _ROOT.fullmatch(line)
        if root:
            roots.append(root.groups())
            continue
        m = _NODE.fullmatch(line)
        if m is None:
            raise TermError("line %d: cannot parse %r" % (lineno, line))
        name, head, args = m.groups()
        if _is_var(name):
            raise TermError("line %d: node %r is spelled like a variable"
                            % (lineno, name))
        if name in named:
            raise TermError("line %d: duplicate node %r" % (lineno, name))
        if args is None and _is_var(head):
            named[name] = (VAR, read_int(head[1:], "variable index"))
            continue
        refs = [a.strip() for a in args.split(",")] if args else []
        for a in refs:
            if _is_var(a):
                named[a] = (VAR, read_int(a[1:], "variable index"))
        bad = _arity_error(arities, head, len(refs))
        if bad:
            raise TermError("line %d: %s" % (lineno, bad))
        named[name] = (APP, head, refs)
    if len(roots) != 1:
        raise TermError("expected exactly one root, got %d" % len(roots))
    ((name, target),) = roots
    if _is_var(target) or target not in named:
        raise TermError("root %r refers to undefined node %r" % (name, target))
    for name, node in named.items():
        if node[0] == APP:
            for ref in node[2]:
                if ref not in named:
                    raise TermError("dangling reference %r in node %r"
                                    % (ref, name))
    return ts.intern_raw(closed_graph(target, named.__getitem__))


def _arity_error(arities: dict[str, int] | None, name: str, nkids: int):
    """Why name applied to nkids children breaks arities, or None."""
    if arities is None or arities.get(name) == nkids:
        return None
    if name not in arities:
        return "unknown nonterminal %r" % name
    return ("arity mismatch for %r: expected %d, got %d"
            % (name, arities[name], nkids))


def _is_var(s: str) -> bool:
    """Whether the `NAME` match s is x and digits, all ASCII."""
    return len(s) > 1 and s[0] == "x" and s[1:].isdigit()


def parse_term(ts: TermStore, text: str, arities: dict[str, int] | None = None) -> TermId:
    """Parse the inline finite-term syntax, e.g. A(D(x5,C(x2,B)),x5,B),
    keeping the open applications on a stack rather than recursing."""
    s = text.strip()
    pos = 0

    def fail(msg):
        raise TermError("%s at position %d in %r" % (msg, pos, s))

    def skip_ws():
        nonlocal pos
        while pos < len(s) and s[pos].isspace():
            pos += 1

    def app(name, kids) -> TermId:
        bad = _arity_error(arities, name, len(kids))
        if bad:
            fail(bad)
        return ts.app(name, tuple(kids))

    open_apps = []  # (name, children so far) of each unclosed "name("
    while True:
        skip_ws()
        m = NAME.match(s, pos)
        if m is None:
            fail("expected a term")
        name = m.group()
        pos = m.end()
        if _is_var(name):
            t = ts.var(read_int(name[1:], "variable index"))
        elif pos < len(s) and s[pos] == "(":
            pos += 1
            open_apps.append((name, []))
            continue
        else:
            t = app(name, [])
        # t is complete: close every application it ends
        while open_apps:
            open_apps[-1][1].append(t)
            skip_ws()
            if pos >= len(s):
                fail("unbalanced parens")
            if s[pos] not in ",)":
                fail("expected ',' or ')'")
            pos += 1
            if s[pos - 1] == ",":
                break
            t = app(*open_apps.pop())
        else:
            break
    if pos != len(s):
        fail("trailing input")
    return t


def render_term(ts: TermStore, t: TermId) -> str:
    """Inline syntax for finite terms; graph format for cyclic ones.

    t is finite exactly when every arc below it leads to a smaller id.
    One walk of its nodes in ascending id order then gives each node its
    text, naming a child by its inline text if t is finite and by its
    graph node if not, so a cyclic term builds no inline text, whose
    length can double with each level of shared children."""
    order = sorted(ts.reachable([t]))
    finite = all(c < u for u in order for c in ts.children(u))
    text: dict[TermId, str] = {}
    for u in order:
        node = ts.nodes[u]
        if node[0] == VAR:
            text[u] = "x%d" % node[1]
        elif not node[2]:
            text[u] = node[1]
        else:
            kids = (text[c] if finite else "n%d" % c for c in node[2])
            text[u] = "%s(%s)" % (node[1], ",".join(kids))
    if finite:
        return text[t]
    return "\n".join(["node n%d = %s" % (u, text[u]) for u in order]
                     + ["root t = n%d" % t])


def one_line(text: str) -> str:
    """A rendered term as one text row: graph lines joined by '; ', a
    form `intern_graph` reads back."""
    return text.replace("\n", "; ")


def pressize(ts: TermStore, roots) -> int:
    """Node count of the least joint presentation of the given roots."""
    roots = list(roots)
    if not roots:
        raise TermError("pressize needs at least one root")
    return len(ts.reachable(roots))


def varin(ts: TermStore, roots) -> set[int]:
    """Set of variable indices occurring in any of the roots."""
    return {ts.var_index(t) for t in ts.reachable(list(roots)) if ts.is_var(t)}


def apply_subst(ts: TermStore, t: TermId, binding: dict[int, TermId]) -> TermId:
    """Eσ, where the substitution σ is a plain dict from variable
    indices to ids; a binding x_i -> x_i is no binding.

    A finite E goes through `instantiate`, a cyclic E through `_redirect`.
    """
    if not binding:
        return t
    order = sorted(ts.reachable([t]))
    if any(c >= u for u in order for c in ts.children(u)):
        return _redirect(ts, t, binding)
    return instantiate(ts, order, binding)


def instantiate(ts: TermStore, order, binding: dict[int, TermId]) -> TermId:
    """Eσ for a finite E given by its nodes in ascending id order, E
    last: each is hash-consed after its children, so any stored node
    is found, cyclic ones included."""
    nodes = ts.nodes
    out: dict[TermId, TermId] = {}
    for u in order:
        node = nodes[u]
        if node[0] == VAR:
            out[u] = binding.get(node[1], u)
        else:
            out[u] = ts._intern((APP, node[1], tuple(out[c] for c in node[2])))
    return out[order[-1]]


def _redirect(ts: TermStore, t: TermId, target: dict) -> TermId:
    """Intern t with every arc into a variable x_i of `target` turned
    toward the node named target[i]. t's nodes are named ("t", id) and
    stored nodes by their ids, so `closed_graph` takes in a stored node
    only when the root reaches it, and a new cycle that runs through
    stored nodes is matched with the stored term it equals."""
    def ref(u):
        node = ts.nodes[u]
        if node[0] == VAR and node[1] in target:
            return target[node[1]]
        return ("t", u)

    def node_of(name):
        if type(name) is not tuple:
            return ts.nodes[name]
        node = ts.nodes[name[1]]
        return node if node[0] == VAR else (APP, node[1], list(map(ref, node[2])))

    return ts.intern_raw(closed_graph(ref(t), node_of))


def omega_iterate(ts: TermStore, h: TermId, i: int) -> TermId:
    """Limit of H[x_i/H][x_i/H]...: redirect arcs to x_i toward the root,
    which gives h itself when x_i does not occur in it."""
    ts.node(h)
    return _redirect(ts, h, {i: ("t", h)})
