"""Benchmark of fogbisim: closed-loop workloads, one client each.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
One process drives each workload with a single client and no extra
threads, sending the next op when the previous one has returned.

Workloads (why each gated one exists is recorded in BENCHMARK.json):
  oracle-battery  not in BENCHMARK.json; run it by hand to profile the
                  oracle. The timings of every workload here swing with
                  the speed of the shared machine from minute to minute,
                  so the gated workloads need runs as long as the time
                  the benchmark's checks allow; with two workloads a run
                  measures 50 s, with three only 30 s. The battery is
                  the one left out: pipeline-chain drives the same
                  step_action -> step_rule -> apply_subst -> intern_raw
                  path in the eq-level half of its ops, and the battery's
                  op_tail_ms, set by one heavy query, spread the most.
                  One op = one `EqOracle.level` query. A pass asks the
                  20 x 20 pairs of the eq-level battery (random grammars
                  0-19, ground terms of depth 0-3, cutoff 8), grammar by
                  grammar with one fresh oracle each, the grammars in
                  seeded order.
  pipeline-chain  one op = `fogbisim pipeline --json` through `cli.main`.
                  A pass runs the 267 bundled pairs of acceptance
                  criterion 6 and chain-n for one n from each stratum
                  8-11, 12-15, ..., 100-103 (the same offset in every
                  stratum, seeded for the first pass and advanced by
                  one each pass), in seeded order.
  base-enum       one op = `fogbisim base --json` through `cli.main`,
                  capped full base and `--sound-c 1`, over BASE_MENU.

A run repeats whole passes until --seconds have elapsed, so every run
asks the same mix of ops. Every answer is checked against the recorded
answers (perfbench/answers.json, written by perfbench/record.py) or, for
chain-n, against eq-level n; a wrong answer or a raised exception
counts as failed.

Each pass starts with a fresh set-up (import, input generation and
grammar parsing), and SETUP_WARMUP more precede the first pass, so that
set-up time is sampled across the whole run.

--trace 0 prints the end-to-end metrics: setup_s (median set-up time),
ops_per_s, op_p50_ms, op_tail_ms (at TAIL_PERCENTILE) and peak_rss_mb.
fail_ratio is printed by name too; the JSON result carries it as
failed / attempted.
--trace 1 runs the same timed loop untraced, then one more pass with
every public function of each module wrapped (perfbench/tracer.py), and
prints the per-module metrics. The last line of stdout is the JSON
result. perfbench/baseline.json holds the figures of the first commit.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import pathlib
import random
import resource
import shutil
import statistics
import sys
import time
import traceback

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("oracle-battery", "pipeline-chain", "base-enum")
SETUP_WARMUP = 2
# op_tail_ms is read at a fixed percentile per workload. Runs repeat whole
# passes, so the percentile sits at a fixed rank among the ops of one pass:
# 3.5 of the 400 battery queries lie beyond it (the middle of the repeats
# of the fourth slowest), 14.55 of the 291 pipeline ops (within the chain
# ops) and 4 of the 14 base ops (the middle of the g1 size-6 group). Three
# passes leave at least 10 ops beyond it.
TAIL_PERCENTILE = {"oracle-battery": 100 * (1 - 3.5 / 400),
                   "pipeline-chain": 95.0,
                   "base-enum": 100 * (1 - 4 / 14)}


class SetupError(Exception):
    pass


def load_modules():
    """Import fogbisim from src/ afresh, with the benchmark's inputs."""
    if not (SRC / "fogbisim" / "__init__.py").is_file():
        raise SetupError("no fogbisim package under %s" % SRC)
    for name in list(sys.modules):
        if name in ("fogbisim", "inputs") or name.startswith("fogbisim."):
            del sys.modules[name]
    cli = importlib.import_module("fogbisim.cli")
    if pathlib.Path(cli.__file__).resolve().parent.parent != SRC:
        raise SetupError("fogbisim was imported from outside %s" % SRC)
    return cli, importlib.import_module("inputs")


def load_answers():
    try:
        return json.loads((HERE / "answers.json").read_text())
    except (OSError, ValueError) as ex:
        raise SetupError("cannot read recorded answers: %s" % ex)


def run_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


# -- workloads ---------------------------------------------------------------
#
# Each workload has setup(workdir) -> state, prepare(state, rng) ->
# the inputs of one pass, and run_pass(state, inputs, trace, record).
# record(latency_s, ok) is called once per op; the timed wall time is the
# sum of the op latencies. prepare runs before a traced pass is wrapped,
# so the counts of a traced pass cover the ops alone.

class OracleBattery:
    def __init__(self, answers):
        self.answers = answers["battery"]

    def setup(self, workdir):
        cli, inputs = load_modules()
        from fogbisim.equiv import EqOracle
        # timed as set-up; each pass generates the grammars afresh in
        # prepare, since an oracle's memo and a term store keep state
        for gseed in inputs.BATTERY_GRAMMARS:
            inputs.battery_grammar(gseed)
        return cli, inputs, EqOracle

    def prepare(self, state, rng):
        inputs = state[1]
        order = list(inputs.BATTERY_GRAMMARS)
        rng.shuffle(order)
        return [(gseed,) + inputs.battery_grammar(gseed) for gseed in order]

    def run_pass(self, state, grammars, trace, record):
        _, inputs, EqOracle = state
        for gseed, g, pairs in grammars:
            expected = self.answers[str(gseed)]
            o = EqOracle(g, inputs.BATTERY_CUTOFF)
            # the pairs of one grammar share the oracle's memo, so they are
            # asked in recorded order: which query pays for the search
            # then does not depend on the seed
            for i in range(len(pairs)):
                with trace.op("%d:%d" % (gseed, i)) if trace \
                        else contextlib.nullcontext():
                    t0 = time.perf_counter()
                    try:
                        e = o.level(*pairs[i])
                    except Exception:
                        traceback.print_exc()
                        e = None
                    dt = time.perf_counter() - t0
                record(dt, e == expected[i])


class CliWorkload:
    """Shared pass loop of the two workloads that go through cli.main."""

    def prepare(self, state, rng):
        ops = self.pass_ops(state, rng)
        rng.shuffle(ops)
        return ops

    def pass_ops(self, state, rng):
        return list(state[1])

    def run_pass(self, state, ops, trace, record):
        cli = state[0]
        for k, (argv, check) in enumerate(ops):
            with trace.op(str(k)) if trace else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    code, out = run_cli(cli, argv)
                except Exception:
                    traceback.print_exc()
                    code, out = None, ""
                dt = time.perf_counter() - t0
            try:
                ok = code is not None and check(code, json.loads(out))
            except (ValueError, KeyError, TypeError):
                ok = False
            record(dt, ok)


class PipelineChain(CliWorkload):
    def __init__(self, answers):
        self.bundled = answers["bundled"]
        self.offset = None

    def setup(self, workdir):
        cli, inputs = load_modules()
        from fogbisim.grammar import parse_grammar
        chains = workdir / ("chains-%d" % os.getpid())
        chains.mkdir(exist_ok=True)
        strata = []
        for lengths in inputs.chain_strata():
            stratum = []
            for n in lengths:
                path = chains / ("chain-%d.fog" % n)
                text = inputs.chain_grammar(n)
                path.write_text(text)
                parse_grammar(text)
                argv = ["pipeline", "--grammar", str(path),
                        "--left", "A(A(Z))", "--right", "B(B(Z))",
                        "--cutoff", str(n + 1), "--json"]
                stratum.append((argv, self._checker(n)))
            strata.append(stratum)
        for name in sorted({b[0] for b in self.bundled}):
            parse_grammar((inputs.GRAMMARS / name).read_text())
        bundled = []
        for name, left, right, level in self.bundled:
            argv = ["pipeline", "--grammar", str(inputs.GRAMMARS / name),
                    "--left", left, "--right", right,
                    "--cutoff", str(inputs.BUNDLED_CUTOFF), "--json"]
            bundled.append((argv, self._checker(level)))
        return cli, bundled, strata

    def pass_ops(self, state, rng):
        # one chain length from every stratum at one offset, so that each
        # pass spreads its chains evenly over the range; the seed draws the
        # first offset and later passes take the next ones in turn
        width = len(state[2][0])
        if self.offset is None:
            self.offset = rng.randrange(width)
        offset = self.offset
        self.offset = (offset + 1) % width
        return list(state[1]) + [stratum[offset] for stratum in state[2]]

    @staticmethod
    def _checker(level):
        # the checks are every verify_balanced check and every stair
        # check; an empty list does not pass
        def check(code, doc):
            checks = doc["checks"]
            return (code == 0 and doc["ok"] is True
                    and doc["eqlevel"] == level and len(checks) > 0
                    and all(c["ok"] is True for c in checks))
        return check


class BaseEnum(CliWorkload):
    def __init__(self, answers):
        self.recorded = answers["base"]

    def setup(self, workdir):
        cli, inputs = load_modules()
        from fogbisim.grammar import parse_grammar
        for name in sorted({e[0] for e in inputs.BASE_MENU}):
            parse_grammar((inputs.GRAMMARS / name).read_text())
        ops = []
        for entry in inputs.BASE_MENU:
            want = self.recorded[inputs.base_key(entry)]
            ops.append((inputs.base_argv(entry),
                        self._checker(want)))
        return cli, ops

    @staticmethod
    def _checker(want):
        # exit code 3 with status capped or indeterminate is the correct
        # answer for the gchain runs; it is recorded like any other answer
        def check(code, doc):
            return (code == want["code"] and doc["E_B"] == want["E_B"]
                    and doc["status"] == want["status"]
                    and [l["pairs"] for l in doc["layers"]] == want["pairs"])
        return check


CLASSES = {"oracle-battery": OracleBattery, "pipeline-chain": PipelineChain,
           "base-enum": BaseEnum}


# -- measurement -------------------------------------------------------------

class Tally:
    def __init__(self):
        self.latencies = []
        self.failed = 0

    def record(self, dt, ok):
        self.latencies.append(dt)
        if not ok:
            self.failed += 1

    def ops_per_s(self):
        return len(self.latencies) / sum(self.latencies)


def percentile(values, p):
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def timed_setup(workload, workdir, setup_times):
    t0 = time.perf_counter()
    state = workload.setup(workdir)
    setup_times.append(time.perf_counter() - t0)
    return state


def timed_loop(workload, workdir, rng, seconds, setup_times):
    """Whole passes, each after a fresh set-up, until seconds have elapsed."""
    tally = Tally()
    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        state = timed_setup(workload, workdir, setup_times)
        inputs = workload.prepare(state, rng)
        gc.collect()
        workload.run_pass(state, inputs, None, tally.record)
        passes += 1
    return tally, passes, state


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path[:0] = [str(SRC), str(HERE)]
    workdir = ROOT / ".bench_build" / "perfbench"
    try:
        workload = CLASSES[args.workload](load_answers())
        workdir.mkdir(parents=True, exist_ok=True)
        setup_times = []
        for _ in range(SETUP_WARMUP):
            timed_setup(workload, workdir, setup_times)
    except (SetupError, ImportError, OSError) as ex:
        print("perfbench: set-up failed: %s" % ex, file=sys.stderr)
        return 2

    try:
        rng = random.Random(args.seed)
        tally, passes, state = timed_loop(workload, workdir, rng,
                                          args.seconds, setup_times)
        attempted, failed = len(tally.latencies), tally.failed
        if args.trace:
            from tracer import Tracer
            traced = Tally()
            tracer = Tracer()
            inputs = workload.prepare(state, rng)
            gc.collect()
            tracer.install()
            try:
                workload.run_pass(state, inputs, tracer, traced.record)
            finally:
                tracer.uninstall()
            attempted += len(traced.latencies)
            failed += traced.failed
            tracer.write_spans(workdir / ("spans-%s-seed%d.jsonl"
                                          % (args.workload, args.seed)))
            metrics = tracer.metrics(traced.ops_per_s() / tally.ops_per_s())
            print("traced pass: %d ops, %d spans"
                  % (len(traced.latencies), len(tracer.spans)))
        else:
            p = TAIL_PERCENTILE[args.workload]
            n = len(tally.latencies)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "ops_per_s": tally.ops_per_s(),
                "op_p50_ms": 1e3 * statistics.median(tally.latencies),
                "op_tail_ms": 1e3 * percentile(tally.latencies, p),
                "peak_rss_mb": resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                     "op_tail_ms": "ms", "peak_rss_mb": "MB"}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in metrics.items()}
            print("workload %s seed %d: %d passes, %d ops, tail at p%g "
                  "with %d ops beyond it"
                  % (args.workload, args.seed, passes, n, p,
                     int(n * (100 - p) / 100)))
        print("fail_ratio %g ratio (%d of %d ops)"
              % (failed / attempted, failed, attempted))
    finally:
        shutil.rmtree(workdir / ("chains-%d" % os.getpid()),
                      ignore_errors=True)

    for name, m in metrics.items():
        print("%s %r %s" % (name, m["value"], m["unit"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
