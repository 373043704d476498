"""Per-module tracing of fogbisim from outside the package.

`Tracer.install()` replaces the public functions named in TARGETS by
timing wrappers. A function imported by name into another module
(`from .lts import step_action`) is patched there as well; methods are
patched on their class, so recursive `EqOracle.level` calls are seen.

Memory stays bounded: a span (name, start, end, parent, op id) is kept
only for an op and for each entry into a different module, and repeated
entries of the same name under the same parent span are folded into
that one span with a call count. Calls nested inside one module are
folded into per-function counts and times. Self time is a call's
duration minus the time covered by the wrapped calls nested in it.
"""

import contextlib
import inspect
import json
import sys
import time
import weakref

# (module, attribute, metric prefix); "Class.method" patches the class
TARGETS = [
    ("terms", "TermStore.intern_raw", "terms.intern_raw"),
    ("terms", "apply_subst", "terms.apply_subst"),
    ("terms", "TermStore.reachable", "terms.reachable"),
    ("lts", "step_action", "lts.step_action"),
    ("lts", "step_rule", "lts.step_rule"),
    ("lts", "run_word", "lts.run_word"),
    ("equiv", "EqOracle.level", "equiv.level"),
    ("equiv", "attacker_optimal", "equiv.attacker_optimal"),
    ("equiv", "defender_optimal", "equiv.defender_optimal"),
    ("plays", "build_optimal_play", "plays.build_optimal_play"),
    ("plays", "transform_to_balanced", "plays.transform_to_balanced"),
    ("plays", "refine_segments", "plays.refine_segments"),
    ("plays", "verify_balanced", "plays.verify_balanced"),
    ("plays", "balance_step", "plays.balance_step"),
    ("bases", "present_stair_as_nsg", "bases.present_stair_as_nsg"),
    ("bases", "check_nsg_sequence", "bases.check_nsg_sequence"),
    ("bases", "enumerate_terms", "bases.enumerate_terms"),
    ("bases", "enumerate_pairs", "bases.enumerate_pairs"),
    ("bases", "build_full_base_capped", "bases.build_full_base_capped"),
    ("bases", "sound_candidate_search", "bases.sound_candidate_search"),
    ("grammar", "parse_grammar", "grammar.parse_grammar"),
    ("grammar", "compute_constants", "grammar.compute_constants"),
    ("grammar", "compute_sink_table", "grammar.compute_sink_table"),
    ("cli", "main", "cli.main"),
]

# the per-layer metrics, in the order BENCHMARK.json lists them
METRICS = [
    ("terms.intern_raw.calls", "count"), ("terms.intern_raw.self_s", "s"),
    ("terms.intern_raw.hit_ratio", "ratio"),
    ("terms.apply_subst.calls", "count"), ("terms.apply_subst.self_s", "s"),
    ("terms.reachable.calls", "count"), ("terms.reachable.self_s", "s"),
    ("terms.store_nodes", "count"),
    ("lts.step_action.calls", "count"), ("lts.step_action.self_s", "s"),
    ("lts.step_rule.calls", "count"), ("lts.step_rule.self_s", "s"),
    ("lts.successor_distinct_ratio", "ratio"),
    ("lts.run_word.calls", "count"), ("lts.run_word.self_s", "s"),
    ("equiv.level.calls", "count"), ("equiv.level.self_s", "s"),
    ("equiv.level.max_depth", "count"), ("equiv.memo_entries", "count"),
    ("equiv.attacker_optimal.self_s", "s"),
    ("equiv.defender_optimal.self_s", "s"),
    ("plays.build_optimal_play.self_s", "s"),
    ("plays.transform_to_balanced.self_s", "s"),
    ("plays.refine_segments.self_s", "s"),
    ("plays.verify_balanced.self_s", "s"),
    ("plays.balance_step.calls", "count"), ("plays.balance_step.self_s", "s"),
    ("bases.present_stair_as_nsg.self_s", "s"),
    ("bases.check_nsg_sequence.self_s", "s"),
    ("bases.enumerate_terms.self_s", "s"),
    ("bases.enumerate_terms.accept_ratio", "ratio"),
    ("bases.enumerate_pairs.self_s", "s"),
    ("bases.enumerate_pairs.pairs", "count"),
    ("bases.build_full_base_capped.self_s", "s"),
    ("bases.sound_candidate_search.self_s", "s"),
    ("grammar.parse_grammar.self_s", "s"),
    ("grammar.compute_constants.self_s", "s"),
    ("grammar.compute_sink_table.calls", "count"),
    ("grammar.compute_sink_table.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
]


class Tracer:
    def __init__(self):
        self.calls = {prefix: 0 for _, _, prefix in TARGETS}
        self.self_s = {prefix: 0.0 for _, _, prefix in TARGETS}
        # frames: [module, start, time covered by wrapped children, span]
        self.stack = []
        # spans: [name, start, end, parent span, op id, calls]
        self.spans = []
        self._folded = {}  # (parent span, name) -> span index
        self.op_id = None
        self.intern_hits = 0
        self.store_nodes = 0
        self.distinct_successors = 0
        self._successors = weakref.WeakKeyDictionary()  # TermStore -> keys
        self.level_depth = 0
        self.level_max_depth = 0
        self.memo_entries = 0
        self.enum_accepted = 0
        self.enum_interned = 0
        self.pairs = 0
        self._patched = []

    # -- spans ---------------------------------------------------------------

    def _span(self, parent, name, start):
        key = (parent, name)
        idx = self._folded.get(key)
        if idx is None:
            idx = len(self.spans)
            self.spans.append([name, start, start, parent, self.op_id, 0])
            self._folded[key] = idx
        self.spans[idx][5] += 1
        return idx

    @contextlib.contextmanager
    def op(self, op_id):
        """Mark one op; every span opened inside carries op_id."""
        self.op_id = op_id
        start = time.perf_counter()
        self.stack.append(["op", start, 0.0, self._span(None, "op", start)])
        try:
            yield
        finally:
            frame = self.stack.pop()
            self.spans[frame[3]][2] = time.perf_counter()
            self._folded.clear()
            self.op_id = None

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, prefix, fn):
        module = prefix.split(".")[0]
        stack = self.stack
        calls = self.calls
        self_s = self.self_s
        before = getattr(self, "_before_" + prefix.replace(".", "_"), None)
        after = getattr(self, "_after_" + prefix.replace(".", "_"), None)
        perf = time.perf_counter

        def enter():
            start = perf()
            if stack:
                parent = stack[-1]
                span = (parent[3] if parent[0] == module
                        else self._span(parent[3], prefix, start))
            else:
                span = self._span(None, prefix, start)
            stack.append([module, start, 0.0, span])

        def leave():
            frame = stack.pop()
            end = perf()
            dur = end - frame[1]
            self_s[prefix] += dur - frame[2]
            if stack:
                stack[-1][2] += dur
            self.spans[frame[3]][2] = end

        if inspect.isgeneratorfunction(fn):
            def gen_wrapper(*args, **kw):
                calls[prefix] += 1
                it = fn(*args, **kw)
                while True:
                    enter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        leave()
                    if after is not None:
                        after(args, item)
                    yield item
            return gen_wrapper

        def wrapper(*args, **kw):
            calls[prefix] += 1
            state = before(args) if before is not None else None
            result = None
            enter()
            try:
                result = fn(*args, **kw)
                return result
            finally:
                leave()
                if after is not None:
                    after(args, state, result)
        return wrapper

    # Counters read from public state. _before_<prefix>(args) runs before
    # the call; _after_<prefix>(args, what before returned, result) after
    # it, or _after_<prefix>(args, item) for each item of a generator.

    def _before_terms_intern_raw(self, args):
        return len(args[0].nodes)

    def _after_terms_intern_raw(self, args, nodes_before, result):
        nodes = len(args[0].nodes)
        if nodes == nodes_before:
            self.intern_hits += 1
        if nodes > self.store_nodes:
            self.store_nodes = nodes

    def _before_lts_step_action(self, args):
        g, t, action = args[:3]
        seen = self._successors.get(g.ts)
        if seen is None:
            seen = self._successors[g.ts] = set()
        key = (t, action)
        if key not in seen:
            seen.add(key)
            self.distinct_successors += 1

    def _before_equiv_level(self, args):
        self.level_depth += 1
        if self.level_depth > self.level_max_depth:
            self.level_max_depth = self.level_depth

    def _after_equiv_level(self, args, state, result):
        self.level_depth -= 1
        if self.level_depth == 0:
            o = args[0]
            memo = len(o.exact) + len(o.lower)
            if memo > self.memo_entries:
                self.memo_entries = memo
            nodes = len(o.g.ts.nodes)
            if nodes > self.store_nodes:
                self.store_nodes = nodes

    def _before_bases_enumerate_terms(self, args):
        return self.calls["terms.intern_raw"]

    def _after_bases_enumerate_terms(self, args, interned_before, result):
        self.enum_interned += self.calls["terms.intern_raw"] - interned_before
        self.enum_accepted += len(result or ())

    def _after_bases_enumerate_pairs(self, args, item):
        self.pairs += 1

    # -- install / report ----------------------------------------------------

    def install(self):
        mods = {name: sys.modules["fogbisim." + name]
                for name in {m for m, _, _ in TARGETS}}
        package = [m for n, m in sys.modules.items()
                   if n == "fogbisim" or n.startswith("fogbisim.")]
        for modname, attr, prefix in TARGETS:
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[modname], cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(prefix, orig))
                self._patched.append((cls, meth, orig))
                continue
            orig = getattr(mods[modname], attr)
            wrapper = self._wrap(prefix, orig)
            for m in package:
                for name, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, name, wrapper)
                        self._patched.append((m, name, orig))

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def metrics(self, overhead_ratio):
        def ratio(num, den):
            return num / den if den else 0.0
        c, s = self.calls, self.self_s
        values = {}
        for prefix in c:
            values[prefix + ".calls"] = c[prefix]
            values[prefix + ".self_s"] = s[prefix]
        values.update({
            "terms.intern_raw.hit_ratio": ratio(self.intern_hits,
                                                c["terms.intern_raw"]),
            "terms.store_nodes": self.store_nodes,
            "lts.successor_distinct_ratio": ratio(self.distinct_successors,
                                                  c["lts.step_action"]),
            "equiv.level.max_depth": self.level_max_depth,
            "equiv.memo_entries": self.memo_entries,
            "bases.enumerate_terms.accept_ratio": ratio(self.enum_accepted,
                                                        self.enum_interned),
            "bases.enumerate_pairs.pairs": self.pairs,
            "trace.overhead_ratio": overhead_ratio,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit in METRICS}

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op_id, calls in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op_id,
                                     "calls": calls}) + "\n")
