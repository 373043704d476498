"""Record the answers the benchmark checks against: perfbench/answers.json.

    python3 perfbench/record.py

Run once from the root of a checkout whose answers are trusted. Every
battery answer and every bundled-pair eq-level is cross-checked here
against `naive_level`, a bounded-game solver that does not use EqOracle;
the g1 tower pairs A^i(Z)/A^j(Z) must have eq-level min(i, j).
"""

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from fogbisim import cli  # noqa: E402
from fogbisim.equiv import EqOracle  # noqa: E402
from fogbisim.grammar import parse_grammar  # noqa: E402
from fogbisim.lts import step_action  # noqa: E402
from fogbisim.terms import parse_term, render_term  # noqa: E402

import inputs  # noqa: E402
from run import run_cli  # noqa: E402

NAIVE_BUDGET = 5


def naive_level(g, t, u, k, memo):
    """min(eqlevel(t, u), k) straight from the definition of ~_k."""
    if t == u:
        return k
    key = (t, u, k)
    if key in memo:
        return memo[key]
    ts = g.ts
    if ts.is_var(t) or ts.is_var(u):
        res = 0  # eqlevel(x_i, H) = 0 for H != x_i
    else:
        moves_t = {a: step_action(g, t, a) for a in g.actions}
        moves_u = {a: step_action(g, u, a) for a in g.actions}
        if {a for a in moves_t if moves_t[a]} != \
                {a for a in moves_u if moves_u[a]}:
            res = 0
        elif k == 0:
            res = 0
        else:
            res = k
            for a in g.actions:
                for mine, theirs in ((moves_t[a], moves_u[a]),
                                     (moves_u[a], moves_t[a])):
                    for _, t2 in mine:
                        best_reply = max(naive_level(g, t2, u2, k - 1, memo)
                                         for _, u2 in theirs)
                        res = min(res, 1 + best_reply)
    memo[key] = res
    return res


def cross_check(g, t, u, level):
    want = min(level, NAIVE_BUDGET)
    got = naive_level(g, t, u, NAIVE_BUDGET, {})
    if got != want:
        raise SystemExit("naive solver disagrees: %s / %s: %d vs %d"
                         % (render_term(g.ts, t), render_term(g.ts, u),
                            got, want))


def battery():
    out = {}
    for gseed in inputs.BATTERY_GRAMMARS:
        g, pairs = inputs.battery_grammar(gseed)
        o = EqOracle(g, inputs.BATTERY_CUTOFF)
        levels = [o.level(t, u) for t, u in pairs]
        for (t, u), e in zip(pairs, levels):
            cross_check(g, t, u, e)
        out[str(gseed)] = levels
        print("battery grammar %d: %s" % (gseed, levels), flush=True)
    return out


def bundled():
    """The pairs of acceptance criterion 6: g1 towers, then every pair of
    small gnull and gchain terms with finite eq-level <= 30."""
    out = []
    g = parse_grammar((inputs.GRAMMARS / "g1.fog").read_text())
    o = EqOracle(g, inputs.BUNDLED_CUTOFF)
    towers = ["A(" * i + "Z" + ")" * i for i in range(15)]
    for i in range(len(towers)):
        for j in range(i + 1, len(towers)):
            t = parse_term(g.ts, towers[i], g.arities)
            u = parse_term(g.ts, towers[j], g.arities)
            if o.level(t, u) != min(i, j):
                raise SystemExit("tower %d/%d has the wrong level" % (i, j))
            cross_check(g, t, u, min(i, j))
            out.append(["g1.fog", towers[i], towers[j], min(i, j)])
    for name in ("gnull.fog", "gchain.fog"):
        g = parse_grammar((inputs.GRAMMARS / name).read_text())
        o = EqOracle(g, inputs.BUNDLED_CUTOFF)
        terms = []
        for nt, m in g.arities.items():
            if m == 0:
                terms.append(g.lhs_term(nt))
            else:
                base = parse_term(g.ts, "Z", g.arities)
                for _ in range(3):
                    terms.append(g.ts.app(nt, (base,)))
                    if "A" in g.arities:
                        base = g.ts.app("A", (base,))
        for i in range(len(terms)):
            for j in range(i + 1, len(terms)):
                lv = o.eq_level(terms[i], terms[j])
                if lv.is_finite() and lv.value <= 30:
                    cross_check(g, terms[i], terms[j], lv.value)
                    out.append([name, render_term(g.ts, terms[i]),
                                render_term(g.ts, terms[j]), lv.value])
    print("bundled pairs: %d" % len(out))
    return out


def base():
    out = {}
    for entry in inputs.BASE_MENU:
        code, text = run_cli(cli, inputs.base_argv(entry))
        doc = json.loads(text)
        out[inputs.base_key(entry)] = {
            "code": code, "E_B": doc["E_B"], "status": doc["status"],
            "pairs": [layer["pairs"] for layer in doc["layers"]]}
        print("base %s: %s" % (inputs.base_key(entry),
                               out[inputs.base_key(entry)]))
    return out


if __name__ == "__main__":
    answers = {"battery": battery(), "bundled": bundled(), "base": base()}
    (HERE / "answers.json").write_text(json.dumps(answers, indent=1) + "\n")
