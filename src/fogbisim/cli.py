"""Command-line driver: reproducible workflows over grammar files.

Exit codes: 0 success / not distinguished, 1 distinguished or check
failure, 2 usage, parse or internal error (one `error:` line), 3
indeterminate: the library raised `Indeterminate` (one `indeterminate:`
line naming the cutoff, the check and the pair), or `base` is neither
complete nor sound (its report, and one `capped:` or `indeterminate:`
line giving the reason).
"""

import argparse
import functools
import json
import sys

from .terms import (
    TermError, intern_graph, one_line, parse_term, pressize, render_term,
)
from .grammar import GrammarError, parse_grammar
from .lts import run_word, step_action, step_rule
from .equiv import EqOracle, EquivError, Indeterminate
from .plays import (
    PlaysError, build_optimal_play, transform_to_balanced, verify_balanced,
)
from .bases import (
    BasesError, NsgParams, build_full_base_capped, check_nsg_sequence,
    present_stair_as_nsg, reduce_nsg_step, sound_candidate_search,
)

SCHEMA = 1

EXIT_OK = 0
EXIT_DISTINGUISHED = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


class CliError(Exception):
    pass


def _load_grammar(args):
    try:
        with open(args.grammar, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as ex:
        raise CliError("cannot read grammar file: %s" % ex)
    try:
        return parse_grammar(text)
    except (GrammarError, TermError) as ex:
        raise CliError("grammar error: %s" % ex)


def _parse_term_arg(g, text):
    """The inline syntax, or the graph format of cyclic terms if `=` occurs."""
    try:
        if "=" in text:
            return intern_graph(g.ts, text, g.arities)
        return parse_term(g.ts, text, g.arities)
    except TermError as ex:
        raise CliError("term error in %r: %s" % (text, ex))


def _load_pair(args):
    """The grammar, its oracle, the --left and --right terms and their
    eq-level, an int: exact below the cutoff, else "at least" it."""
    g = _load_grammar(args)
    o = EqOracle(g, args.cutoff)
    t = _parse_term_arg(g, args.left)
    u = _parse_term_arg(g, args.right)
    return g, o, t, u, o.level(t, u)


def _word_arg(g, text):
    word = tuple(w for w in text.replace(",", " ").split() if w)
    for rid in word:
        if rid not in g.rule_by_id:
            raise CliError("unknown rule id %r" % rid)
    return word


def _emit(args, payload, lines):
    if args.json:
        payload = dict(payload)
        payload["schema"] = SCHEMA
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands -------------------------------------------------------------

def cmd_validate(args):
    g = _load_grammar(args)
    cd = g.constants._asdict()
    lines = ["nonterminals: %d" % len(g.arities),
             "rules: %d" % len(g.rules),
             "actions: %d" % len(g.actions)]
    lines += ["%s\t%s" % kv for kv in cd.items()]
    _emit(args, {"command": "validate", "nonterminals": len(g.arities),
                 "rules": len(g.rules), "actions": len(g.actions),
                 "constants": cd}, lines)
    return EXIT_OK


def cmd_constants(args):
    g = _load_grammar(args)
    cd = g.constants._asdict()
    _emit(args, {"command": "constants", "constants": cd},
          ["%s\t%s" % kv for kv in cd.items()])
    return EXIT_OK


def cmd_step(args):
    g = _load_grammar(args)
    t = _parse_term_arg(g, args.term)
    if args.rule:
        res = step_rule(g, t, args.rule)
        if res is None:
            print("rule %s not applicable" % args.rule, file=sys.stderr)
            return EXIT_DISTINGUISHED
        results = [(args.rule, res)]
    else:
        results = step_action(g, t, args.action)
        if not results:
            print("action %s not enabled" % args.action, file=sys.stderr)
            return EXIT_DISTINGUISHED
    texts = [(rid, render_term(g.ts, r)) for rid, r in results]
    _emit(args, {"command": "step",
                 "results": [{"rule": rid, "term": text}
                             for rid, text in texts]},
          ["%s\t%s" % (rid, one_line(text)) for rid, text in texts])
    return EXIT_OK


def cmd_run(args):
    g = _load_grammar(args)
    t = _parse_term_arg(g, args.term)
    word = _word_arg(g, args.word)
    terms = run_word(g, t, word)
    if terms is None:
        print("word does not apply", file=sys.stderr)
        return EXIT_DISTINGUISHED
    texts = [render_term(g.ts, x) for x in terms]
    lines = []
    if args.trace:
        lines += ["%d\t%s\t%s" % (i, rid, one_line(texts[i + 1]))
                  for i, rid in enumerate(word)]
    lines.append(one_line(texts[-1]))
    _emit(args, {"command": "run", "trace": texts, "end": texts[-1]}, lines)
    return EXIT_OK


def cmd_eqlevel(args):
    e = _load_pair(args)[4]
    word = "finite" if e < args.cutoff else "at-least"
    _emit(args, {"command": "eqlevel", "kind": word, "value": e},
          ["%s %d" % (word, e)])
    return EXIT_DISTINGUISHED if e < args.cutoff else EXIT_OK


def cmd_decide(args):
    e = _load_pair(args)[4]
    if e < args.cutoff:
        _emit(args, {"command": "decide", "verdict": "distinguished",
                     "level": e},
              ["distinguished level=%d" % e])
        return EXIT_DISTINGUISHED
    _emit(args, {"command": "decide", "verdict": "equivalent-up-to",
                 "cutoff": args.cutoff},
          ["equivalent-up-to %d" % args.cutoff])
    return EXIT_OK


def cmd_play(args):
    g, o, t, u, e = _load_pair(args)
    if e == 0:
        _emit(args, {"command": "play", "eqlevel": 0, "steps": []},
              ["eqlevel 0: immediately distinguished"])
        return EXIT_OK
    play = build_optimal_play(o, t, u)
    rows = []
    for i, (tt, uu) in enumerate(play.pairs):
        row = {"index": i, "left": render_term(g.ts, tt),
               "right": render_term(g.ts, uu)}
        if i < play.length():
            row["rules"] = list(play.moves[i])
        rows.append(row)
    lines = ["eqlevel %d" % e]
    for row in rows:
        move = " ".join(row.get("rules", []))
        lines.append("%d\t%s\t%s\t%s"
                     % (row["index"], one_line(row["left"]),
                        one_line(row["right"]), move))
    _emit(args, {"command": "play", "eqlevel": e, "steps": rows}, lines)
    return EXIT_OK


def _balance_rows(g, bp):
    rows = [{"kind": "mu", "j": 0, "unc": 0, "dsink": bp.mu0.length()}]
    for j in range(1, bp.ell + 1):
        info = bp.balances[j - 1]
        rows.append({"kind": "rho", "j": j, "side": "LR"[info.side],
                     "len": info.rho.length(),
                     "balpair_size": pressize(
                         g.ts, list(info.bal_pair))})
        unc = bp.mu_unc(j).length()
        dsink = bp.mus[j - 1].length() - unc
        rows.append({"kind": "mu", "j": j, "unc": unc, "dsink": dsink})
    return rows


def cmd_balance(args):
    g, o, t, u, e = _load_pair(args)
    bp = transform_to_balanced(o, t, u)
    seg = bp.segmentation
    rows = _balance_rows(g, bp)
    lines = ["ell=%d length=%d eqlevel=%d" % (bp.ell, bp.length(), e)]
    for r in rows:
        if r["kind"] == "rho":
            lines.append("rho\tj=%d\tside=%s\tlen=%d\tbalpair_size=%d"
                         % (r["j"], r["side"], r["len"], r["balpair_size"]))
        else:
            lines.append("mu\tj=%d\tunc=%d\tdsink=%d"
                         % (r["j"], r["unc"], r["dsink"]))
    lines.append("close_pivots=%s crucial=%s"
                 % (list(seg.close), [list(x) for x in seg.crucial]))
    _emit(args, {"command": "balance", "ell": bp.ell, "length": bp.length(),
                 "eqlevel": e, "segments": rows,
                 "close_pivots": list(seg.close),
                 "crucial": [list(x) for x in seg.crucial]}, lines)
    return EXIT_OK


def cmd_verify(args):
    _, o, t, u, _ = _load_pair(args)
    rep = verify_balanced(o, transform_to_balanced(o, t, u))
    lines = ["%s\t%s\t%s" % (name, "ok" if ok else "FAIL", detail)
             for name, ok, detail in rep.checks]
    _emit(args, {"command": "verify", "ok": rep.ok(),
                 "checks": [{"name": n, "ok": ok, "detail": d}
                            for n, ok, d in rep.checks]}, lines)
    return EXIT_OK if rep.ok() else EXIT_DISTINGUISHED


def cmd_base(args):
    for flag, value in (("--n", args.n), ("--s", args.s),
                        ("--g", args.g_param), ("--max-size", args.max_size),
                        ("--sound-c", args.sound_c)):
        if value is not None and value < 0:
            raise CliError("%s must be nonnegative, got %d" % (flag, value))
    g = _load_grammar(args)
    o = EqOracle(g, args.cutoff)
    params = NsgParams(args.n, args.s, args.g_param)
    if args.sound_c is not None:
        try:
            cand, bound, status, reason = sound_candidate_search(
                o, params, args.sound_c, args.max_size)
        except BasesError as ex:
            raise CliError("base search failed: %s" % ex)
    else:
        cand, bound, status, reason = build_full_base_capped(
            o, params, args.max_size)
    layers = []
    for j in sorted(cand.layers, reverse=True):
        layers.append({"level": j, "s": cand.s_vals[j], "e": cand.e_vals[j],
                       "pairs": len(cand.layers[j])})
    lines = ["layer\tj=%d\ts=%d\te=%d\tpairs=%d"
             % (l["level"], l["s"], l["e"], l["pairs"]) for l in layers]
    lines += ["E_B=%d" % bound, "status=%s" % status]
    _emit(args, {"command": "base", "layers": layers, "E_B": bound,
                 "status": status}, lines)
    if reason is None:
        return EXIT_OK
    print("%s: %s" % (status, reason), file=sys.stderr)
    return EXIT_INDETERMINATE


def cmd_pipeline(args):
    g, o, t, u, e = _load_pair(args)
    bp = transform_to_balanced(o, t, u)
    rep = verify_balanced(o, bp)
    checks = [{"name": n, "ok": ok, "detail": d} for n, ok, d in rep.checks]
    c = g.constants
    params = NsgParams(c.n, c.s, c.g)
    for idx in range(len(bp.segmentation.crucial)):
        seq = present_stair_as_nsg(o, bp, idx)
        ok = check_nsg_sequence(o, seq, params)
        checks.append({"name": "stair-%d-nsg-sequence" % idx, "ok": ok,
                       "detail": "z=%d" % seq.z})
        # reduce one step where the reduction precondition holds
        k = o.level(*seq.tops[0])
        ell = o.level(*seq.elements[0])
        if params.n > 0 and k < ell < o.cutoff and seq.z > k + 1:
            try:
                reduce_nsg_step(o, seq, params)
                checks.append({"name": "stair-%d-reduction" % idx,
                               "ok": True, "detail": ""})
            except BasesError as ex:
                checks.append({"name": "stair-%d-reduction" % idx,
                               "ok": False, "detail": str(ex)})
        else:
            checks.append({"name": "stair-%d-reduction" % idx, "ok": True,
                           "detail": "not applicable"})
    all_ok = all(cc["ok"] for cc in checks)
    lines = ["%s\t%s\t%s" % (cc["name"], "ok" if cc["ok"] else "FAIL",
                             cc["detail"]) for cc in checks]
    lines.append("result\t%s" % ("ok" if all_ok else "FAIL"))
    _emit(args, {"command": "pipeline", "ok": all_ok, "eqlevel": e,
                 "ell": bp.ell, "checks": checks}, lines)
    return EXIT_OK if all_ok else EXIT_DISTINGUISHED


# -- parser ------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built on the first call and reused after."""
    top = argparse.ArgumentParser(
        prog="fogbisim",
        description="bisimulation eq-level tools for first-order grammars")
    sub = top.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.add_argument("--grammar", required=True, help="grammar file")
        p.add_argument("--json", action="store_true")
        p.set_defaults(fn=fn)
        return p

    add("validate", cmd_validate, help="parse and summarize a grammar")
    add("constants", cmd_constants, help="print derived constants")

    p = add("step", cmd_step, help="apply one rule or action to a term")
    p.add_argument("--term", required=True)
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--rule")
    grp.add_argument("--action")

    p = add("run", cmd_run, help="replay a rule word from a term")
    p.add_argument("--term", required=True)
    p.add_argument("--word", required=True, help="rule ids, space-separated")
    p.add_argument("--trace", action="store_true")

    for name, fn, hlp in (
            ("eqlevel", cmd_eqlevel, "compute the eq-level of a pair"),
            ("decide", cmd_decide, "decide equivalence up to the cutoff"),
            ("play", cmd_play, "print an optimal attacker/defender play"),
            ("balance", cmd_balance, "balanced-play transformation summary"),
            ("verify", cmd_verify, "run every balanced-play check"),
            ("pipeline", cmd_pipeline,
             "balance, refine, verify, and check stair sequences")):
        p = add(name, fn, help=hlp)
        p.add_argument("--cutoff", type=int, default=12)
        p.add_argument("--left", required=True)
        p.add_argument("--right", required=True)

    p = add("base", cmd_base, help="build a capped candidate base")
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--g", dest="g_param", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True)
    p.add_argument("--sound-c", type=int, default=None,
                   help="run the soundness search with this scale constant")
    return top


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Indeterminate as ex:
        print("indeterminate: %s" % ex, file=sys.stderr)
        return EXIT_INDETERMINATE
    except (CliError, GrammarError, TermError, EquivError, BasesError,
            PlaysError) as ex:
        print("error: %s" % ex, file=sys.stderr)
        return EXIT_USAGE
    except Exception as ex:
        print("error: %s: %s" % (type(ex).__name__, ex), file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
