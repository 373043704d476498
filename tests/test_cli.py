import contextlib
import io
import json
import pathlib
import re
import shlex
import signal

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fogbisim import cli
from fogbisim.bases import BasesError, NsgSequence
from fogbisim.cli import main
from fogbisim.grammar import parse_grammar
from fogbisim.terms import parse_term

from gen import chain_grammar

ROOT = pathlib.Path(__file__).resolve().parent.parent
GRAMMARS = ROOT / "grammars"
G1 = str(GRAMMARS / "g1.fog")
GCHAIN = str(GRAMMARS / "gchain.fog")
GNULL = str(GRAMMARS / "gnull.fog")
GDEEP = str(GRAMMARS / "gdeep.fog")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_text(capsys):
    code, out, _ = run(capsys, "validate", "--grammar", G1)
    assert code == 0
    assert "nonterminals: 2" in out
    assert "d0\t2" in out


def test_validate_json_roundtrip(capsys):
    code, out, _ = run(capsys, "validate", "--grammar", G1, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == 1
    for key in ("m", "d0", "d1", "d2", "d3", "d4", "d5", "n", "s", "g", "c"):
        assert key in doc["constants"]


def test_validate_bad_grammar(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text("nonterminals: A/1\nactions: a\nrule r1: A(x1) -a-> x2\n")
    code, _, err = run(capsys, "validate", "--grammar", str(bad))
    assert code == 2
    assert "error" in err


def test_validate_rejects_lhs_arity_mismatch(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text("nonterminals: A/1\nactions: a\nrule r1: A(x1,x2) -a-> x1\n")
    code, out, err = run(capsys, "validate", "--grammar", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: grammar error: line 3: lhs A has 2 arguments, "
                   "its arity is 1\n")


@pytest.mark.parametrize("actions, line, why", [
    ("a", "rule r1: Q -a-> Z", "line 3: unknown lhs 'Q'"),
    ("a", "rule r1: A(x2) -a-> Z",
     "line 3: lhs arguments must be x1..xm in order"),
    ("a, a", "rule r1: Z -a-> Z", "duplicate action 'a'"),
    ("a", "foo", "line 3: cannot parse 'foo'"),
    ("a", "rule r1: Z -b-> Z", "rule r1: unknown action 'b'"),
])
def test_grammar_refusals_are_named(tmp_path, capsys, actions, line, why):
    bad = tmp_path / "bad.fog"
    bad.write_text("nonterminals: A/1, Z/0\nactions: %s\n%s\n" % (actions, line))
    code, out, err = run(capsys, "validate", "--grammar", str(bad))
    assert (code, out, err) == (2, "", "error: grammar error: %s\n" % why)


@pytest.mark.parametrize("argv, code, err", [
    (["eqlevel", "--left", "A(Z", "--right", "Z"], 2,
     "error: term error in 'A(Z': unbalanced parens at position 3 in 'A(Z'"),
    (["eqlevel", "--left", "A(x0)", "--right", "Z"], 2,
     "error: term error in 'A(x0)': variable indices are positive: x0"),
    (["eqlevel", "--left", "node n = Z; node n = Z; root t = n", "--right",
      "Z"], 2, "error: term error in 'node n = Z; node n = Z; root t = n': "
     "line 2: duplicate node 'n'"),
    (["eqlevel", "--left", "Z", "--right", "Z", "--cutoff", "0"], 2,
     "error: cutoff must be >= 1"),
    (["step", "--term", "Z", "--action", "b"], 1, "action b not enabled"),
    (["eqlevel", "--left", "A(Z Z)", "--right", "Z"], 2,
     "error: term error in 'A(Z Z)': expected ',' or ')' at position 4 in "
     "'A(Z Z)'"),
    (["step", "--term", "Z", "--action", "q"], 2,
     "error: unknown action 'q'"),
])
def test_command_refusals_are_named(capsys, argv, code, err):
    got = run(capsys, argv[0], "--grammar", G1, *argv[1:])
    assert got == (code, "", err + "\n")


def test_play_of_a_pair_distinguished_at_once(capsys):
    # a variable against a term has eq-level 0: the play has no steps
    argv = ["play", "--grammar", G1, "--left", "x1", "--right", "Z"]
    assert run(capsys, *argv) == (0, "eqlevel 0: immediately distinguished\n",
                                  "")
    assert run(capsys, *argv, "--json") == (
        0, '{"command": "play", "eqlevel": 0, "schema": 1, "steps": []}\n', "")


@pytest.mark.parametrize("argv", [
    ["validate"], ["constants"], ["step", "--term", "Z", "--action", "a"],
    ["run", "--term", "Z", "--word", "r3"]])
def test_cutoff_is_refused_where_nothing_reads_it(capsys, argv):
    # only the pair commands and base search the game up to a cutoff
    with pytest.raises(SystemExit) as ex:
        main(argv[:1] + ["--grammar", G1, "--cutoff", "5"] + argv[1:])
    assert ex.value.code == 2
    assert "unrecognized arguments: --cutoff 5" in capsys.readouterr().err
    assert run(capsys, argv[0], "--grammar", G1, *argv[1:])[0] == 0


def test_constants_match_module(capsys):
    from fogbisim.grammar import parse_grammar, compute_constants
    code, out, _ = run(capsys, "constants", "--grammar", G1, "--json")
    assert code == 0
    doc = json.loads(out)
    c = compute_constants(parse_grammar(open(G1).read()))
    assert doc["constants"]["d4"] == c.d4
    assert doc["constants"]["c"] == c.c


class Expired(BaseException):
    """Raised by `time_limit`; not an Exception, so `main` lets it out."""


@contextlib.contextmanager
def time_limit(seconds):
    def expire(signum, frame):
        raise Expired("took more than %d s" % seconds)

    old = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# gdeep's d0 is 8,192 and its d1..d5 and c run far past 4,300 digits;
# every pair of ground terms is bisimilar

@pytest.mark.parametrize("command", ["balance", "pipeline"])
def test_gdeep_balancing_stops_at_the_cutoff_at_once(capsys, command):
    # the cutoff check needs d0 only, not the constants
    with time_limit(10):
        code, out, err = run(capsys, command, "--grammar", GDEEP,
                             "--left", "A3(Z)", "--right", "A2(Z)")
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("indeterminate: ")


@pytest.mark.parametrize("command", ["constants", "validate"])
def test_gdeep_constants_are_refused_by_name(capsys, command):
    with time_limit(10):
        code, out, err = run(capsys, command, "--grammar", GDEEP)
    assert (code, out) == (2, "")
    assert err == "error: constant d1 exceeds 4300 digits\n"


def test_gdeep_eqlevel(capsys):
    with time_limit(10):
        code, out, _ = run(capsys, "eqlevel", "--grammar", GDEEP,
                           "--left", "A3(Z)", "--right", "A2(Z)")
    assert (code, out) == (0, "at-least 12\n")


def test_step_rule_and_action(capsys):
    code, out, _ = run(capsys, "step", "--grammar", G1,
                       "--term", "A(Z)", "--rule", "r1")
    assert code == 0 and out.strip() == "r1\tZ"
    code, out, _ = run(capsys, "step", "--grammar", G1,
                       "--term", "A(Z)", "--action", "b")
    assert code == 0 and "A(A(Z))" in out
    code, _, err = run(capsys, "step", "--grammar", G1,
                       "--term", "Z", "--rule", "r1")
    assert code == 1 and "not applicable" in err
    code, out, err = run(capsys, "step", "--grammar", G1,
                         "--term", "A(Z)", "--rule", "r9")
    assert (code, out, err) == (2, "", "error: unknown rule id 'r9'\n")


def test_run_trace_and_dead_word(capsys):
    code, out, _ = run(capsys, "run", "--grammar", G1,
                       "--term", "A(A(Z))", "--word", "r1 r1", "--trace")
    assert code == 0
    assert out.strip().splitlines()[-1] == "Z"
    code, _, err = run(capsys, "run", "--grammar", G1,
                       "--term", "Z", "--word", "r1")
    assert code == 1 and "does not apply" in err
    code, _, err = run(capsys, "run", "--grammar", G1,
                       "--term", "Z", "--word", "nope")
    assert code == 2


def test_cyclic_term_in_graph_format(capsys):
    from fogbisim.terms import TermStore, omega_iterate, render_term
    ts = TermStore()
    a_omega = render_term(ts, omega_iterate(ts, ts.app("A", (ts.var(1),)), 1))
    assert "root t =" in a_omega
    code, out, _ = run(capsys, "eqlevel", "--grammar", G1,
                       "--left", a_omega, "--right", "A(Z)")
    assert code == 1 and out.strip() == "finite 1"


A_OMEGA = "node n = A(n)\nroot t = n"


def test_cyclic_term_rows_are_one_line(capsys):
    """Text rows print a cyclic term on one line, and that line reads
    back as the same term."""
    code, want, _ = run(capsys, "eqlevel", "--grammar", G1,
                        "--left", A_OMEGA, "--right", "A(Z)")
    assert code == 1 and want.strip() == "finite 1"
    code, out, _ = run(capsys, "play", "--grammar", G1,
                       "--left", A_OMEGA, "--right", "A(Z)")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 2  # pairs 0..1 of a length-1 play
    assert all(row.count("\t") == 3 for row in rows)
    left = rows[0].split("\t")[1]
    assert "; root t = " in left
    code, out, _ = run(capsys, "eqlevel", "--grammar", G1,
                       "--left", left, "--right", "A(Z)")
    assert (code, out) == (1, want)
    code, out, _ = run(capsys, "step", "--grammar", G1,
                       "--term", left, "--rule", "r1")
    assert code == 0
    assert out.splitlines() == ["r1\t" + left]
    code, out, _ = run(capsys, "run", "--grammar", G1, "--term", left,
                       "--word", "r1 r2", "--trace")
    assert code == 0
    rows = out.splitlines()
    assert len(rows) == 3
    assert rows[0] == "0\tr1\t" + left
    code, out, _ = run(capsys, "eqlevel", "--grammar", G1,
                       "--left", rows[2], "--right", left)
    assert (code, out) == (0, "at-least 12\n")


def test_unreachable_graph_nodes_do_not_change_output(capsys):
    """Nodes the root does not reach are checked but not interned, so
    they do not shift the ids a cyclic term is printed with."""
    code, want, _ = run(capsys, "step", "--grammar", G1,
                        "--term", A_OMEGA, "--action", "a")
    assert code == 0 and "root t = " in want
    code, out, _ = run(capsys, "step", "--grammar", G1, "--term",
                       "node z = Z; node m = A(z); " + A_OMEGA,
                       "--action", "a")
    assert (code, out) == (0, want)


@pytest.mark.parametrize("graph, why", [
    ("node n = A(n,n)\nroot t = n",
     "line 1: arity mismatch for 'A': expected 1, got 2"),
    ("node n = Q(n)\nroot t = n", "line 1: unknown nonterminal 'Q'"),
    ("node a = A(a); node b = Z; root t = a; root t = b",
     "expected exactly one root, got 2"),
    ("node n = A(m); root t = n", "dangling reference 'm' in node 'n'"),
    pytest.param("node = Z; root t =", "line 1: cannot parse 'node = Z'",
                 id="node = Z; root t =-line 1: cannot parse"),
    # an argument x1 is the variable, so no node may be spelled x1
    ("node x1 = A(x1); root t = x1",
     "line 1: node 'x1' is spelled like a variable"),
    ("node n = Z(); root t = n", "line 1: cannot parse 'node n = Z()'"),
])
def test_bad_graph_term_is_one_error_line(capsys, graph, why):
    code, out, err = run(capsys, "eqlevel", "--grammar", G1,
                         "--left", graph, "--right", "A(Z)")
    assert (code, out) == (2, "")
    assert err == "error: term error in %r: %s\n" % (graph, why)


def test_step_does_not_drop_a_node_spelled_like_a_variable(capsys):
    term = "node n = A(x1); node x1 = Z; root t = n"
    code, out, err = run(capsys, "step", "--grammar", G1, "--term", term,
                         "--action", "a")
    assert (code, out) == (2, "")
    assert err == ("error: term error in %r: line 2: node 'x1' is spelled "
                   "like a variable\n" % term)


def test_readme_commands_run(capsys, monkeypatch):
    """Every `fogbisim ...` line of README's command block runs cleanly
    from the repository root."""
    monkeypatch.chdir(ROOT)
    text = (ROOT / "README.md").read_text()
    lines = [ln for ln in text.splitlines() if ln.startswith("fogbisim ")]
    assert len(lines) >= 11
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert code in (0, 1, 3), line
        assert "error:" not in err and "Traceback" not in err, line


def test_eqlevel_and_decide(capsys):
    code, out, _ = run(capsys, "eqlevel", "--grammar", G1,
                       "--left", "A(A(Z))", "--right", "A(A(A(Z)))")
    assert code == 1 and out.strip() == "finite 2"
    code, out, _ = run(capsys, "eqlevel", "--grammar", G1, "--cutoff", "6",
                       "--left", "Z", "--right", "Z")
    assert code == 0 and out.strip() == "at-least 6"
    code, out, _ = run(capsys, "decide", "--grammar", G1,
                       "--left", "A(Z)", "--right", "A(A(Z))")
    assert code == 1 and out.strip() == "distinguished level=1"
    code, out, _ = run(capsys, "decide", "--grammar", G1, "--cutoff", "9",
                       "--left", "Z", "--right", "Z")
    assert code == 0 and out.strip() == "equivalent-up-to 9"


def test_play(capsys):
    code, out, _ = run(capsys, "play", "--grammar", G1, "--json",
                       "--left", "A(A(Z))", "--right", "A(A(A(Z)))")
    assert code == 0
    doc = json.loads(out)
    assert doc["eqlevel"] == 2
    assert len(doc["steps"]) == 3  # pairs 0..2 of a length-2 play


def test_balance_gchain(capsys):
    code, out, _ = run(capsys, "balance", "--grammar", GCHAIN, "--json",
                       "--left", "A(Z)", "--right", "B(Z)")
    assert code == 0
    doc = json.loads(out)
    assert doc["ell"] == 1
    assert doc["length"] == doc["eqlevel"] == 2
    rho = [s for s in doc["segments"] if s["kind"] == "rho"]
    assert rho[0]["side"] == "L" and rho[0]["len"] == 2


def test_verify_ok(capsys):
    code, out, _ = run(capsys, "verify", "--grammar", GNULL,
                       "--left", "P0", "--right", "Q0")
    assert code == 0
    assert "FAIL" not in out


def test_base_complete_and_sound(capsys):
    code, out, _ = run(capsys, "base", "--grammar", G1, "--cutoff", "8",
                       "--n", "0", "--s", "2", "--g", "0", "--max-size", "2")
    assert code == 0
    assert "E_B=1" in out and "status=complete" in out
    code, out, _ = run(capsys, "base", "--grammar", G1, "--cutoff", "10",
                       "--n", "0", "--s", "2", "--g", "0", "--max-size", "2",
                       "--sound-c", "1")
    assert code == 0 and "status=sound" in out


def test_base_gchain_size_4(capsys):
    code, out, _ = run(capsys, "base", "--grammar", GCHAIN, "--n", "1",
                       "--s", "2", "--g", "0", "--max-size", "4", "--json")
    doc = json.loads(out)
    assert code == 3
    assert [layer["pairs"] for layer in doc["layers"]] == [13, 17914]
    assert (doc["E_B"], doc["status"]) == (8, "capped")


@pytest.mark.parametrize("flag", ["--n", "--s", "--g", "--max-size",
                                  "--sound-c"])
def test_base_rejects_negative_parameters(capsys, flag):
    argv = {"--n": "0", "--s": "2", "--g": "0", "--max-size": "2"}
    argv[flag] = "-1"
    code, out, err = run(capsys, "base", "--grammar", G1,
                         *[x for kv in argv.items() for x in kv])
    assert (code, out) == (2, "")
    assert err == "error: %s must be nonnegative, got -1\n" % flag


@pytest.mark.parametrize("n, layer", [("15000", 715), ("1000000", 985715)])
@pytest.mark.parametrize("sound", [[], ["--sound-c", "1"]])
def test_base_rejects_thresholds_too_large_to_print(capsys, n, layer, sound):
    """s_j doubles at every layer down from s_n = 1, so some threshold
    passes 4,300 digits; the run stops there with a named error instead
    of failing to print it (n = 15000) or doubling a million times."""
    code, out, err = run(capsys, "base", "--grammar", G1, "--n", n, "--s", "1",
                         "--g", "0", "--max-size", "0", *sound)
    assert (code, out) == (2, "")
    assert not CATCH_ALL.search(err)
    assert err == "error: %slayer-%d size threshold exceeds 4300 digits\n" \
        % ("base search failed: " if sound else "", layer)


def test_pipeline_and_determinism(capsys):
    code, out1, _ = run(capsys, "pipeline", "--grammar", GNULL, "--json",
                        "--left", "P0", "--right", "Q0")
    assert code == 0
    doc = json.loads(out1)
    assert doc["ok"] and doc["ell"] == 2
    names = [c["name"] for c in doc["checks"]]
    assert "stair-0-nsg-sequence" in names
    code, out2, _ = run(capsys, "pipeline", "--grammar", GNULL, "--json",
                        "--left", "P0", "--right", "Q0")
    assert out1 == out2  # byte-identical under fixed config


def test_pipeline_indeterminate(capsys):
    code, _, err = run(capsys, "pipeline", "--grammar", G1, "--cutoff", "5",
                       "--left", "Z", "--right", "Z")
    assert code == 3


def test_pipeline_reduces_a_stair_where_the_precondition_holds(
        tmp_path, monkeypatch, capsys):
    # no bundled or chain-n stair has k < ell < cutoff and z > k + 1, so
    # each stair is presented as the tops (x1, B(B(Z))) and (x1, Z) under
    # x1 := A(A(Z)): k = 0, ell = 6 and z = 2
    chain = tmp_path / "chain-6.fog"
    chain.write_text(chain_grammar(6))

    def present(o, bp, idx):
        def term(text):
            return parse_term(o.g.ts, text, o.g.arities)
        return NsgSequence(o.g.ts, [(term("x1"), term("B(B(Z))")),
                            (term("x1"), term("Z"))], {1: term("A(A(Z))")})

    monkeypatch.setattr(cli, "present_stair_as_nsg", present)
    argv = ["pipeline", "--grammar", str(chain), "--left", "A(A(Z))",
            "--right", "B(B(Z))", "--cutoff", "7"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "\nstair-0-reduction\tok\t\n" in out

    def refuse(o, seq, params):
        raise BasesError("no sink witness")

    monkeypatch.setattr(cli, "reduce_nsg_step", refuse)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert "\nstair-0-reduction\tFAIL\tno sink witness\n" in out
    assert out.endswith("\nresult\tFAIL\n")


BASE_4 = ["base", "--grammar", GCHAIN, "--cutoff", "12", "--n", "1", "--s",
          "2", "--g", "0", "--max-size", "4"]
BASE_4_OUT = {
    False: "layer\tj=1\ts=2\te=2\tpairs=13\nlayer\tj=0\ts=6\te=4\t"
           "pairs=17914\nE_B=8\nstatus=capped\n",
    True: '{"E_B": 8, "command": "base", "layers": [{"e": 2, "level": 1, '
          '"pairs": 13, "s": 2}, {"e": 4, "level": 0, "pairs": 17914, '
          '"s": 6}], "schema": 1, "status": "capped"}\n'}


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("argv", [
    [command, "--grammar", grammar, "--cutoff", cutoff, "--left", left,
     "--right", right]
    for command in ("play", "balance", "verify", "pipeline")
    for grammar, cutoff, left, right in (
        (G1, "12", "Z", "Z"),
        (GCHAIN, "100000000", "Q(Z)", "Q(Q(Z))"),
        (G1, "3", "A(A(A(Z)))", "A(A(A(A(Z))))"))] + [BASE_4],
    ids=lambda argv: "%s-%s" % (argv[0], argv[4]))
def test_every_exit_3_path(capsys, argv, as_json):
    """A command whose answer needs a finite level at or above the
    cutoff prints nothing on stdout and one `indeterminate:` line naming
    the cutoff; `base` prints its capped report and one reason line."""
    code, out, err = run(capsys, *argv, *(["--json"] if as_json else []))
    assert code == 3
    if argv[0] == "base":
        assert (out, err) == (BASE_4_OUT[as_json], "capped: layer-0 size "
                              "threshold 6 exceeds the max size 4\n")
    else:
        assert out == ""
        assert re.fullmatch(r"indeterminate: eq-level at least %s: [^\n]+\n"
                            % argv[4], err), err


@pytest.mark.parametrize("command", ["play", "balance", "verify",
                                     "pipeline"])
def test_indeterminate_names_the_pair(capsys, command):
    code, out, err = run(capsys, command, "--grammar", GCHAIN, "--cutoff",
                         "100000000", "--left", "Q(Z)", "--right", "Q(Q(Z))")
    assert (code, out) == (3, "")
    assert err == ("indeterminate: eq-level at least 100000000: no finite "
                   "optimal play: Q(Z) vs Q(Q(Z))\n")


def test_every_exit_3_base_run_gives_one_reason(capsys):
    """Over a small grid, each `base` run that exits 3 prints its report
    and one stderr line saying why; a run that exits 0 prints none."""
    exits = []
    for grammar in (G1, GCHAIN):
        for size in ("1", "2", "3", "4"):
            for sound in ([], ["--sound-c", "1"]):
                code, out, err = run(
                    capsys, "base", "--grammar", grammar, "--n", "1", "--s",
                    "2", "--g", "0", "--max-size", size, *sound)
                status = out.splitlines()[-1]
                exits.append(code)
                if code == 0:
                    assert status in ("status=complete", "status=sound")
                    assert err == ""
                    continue
                assert code == 3
                word = status[len("status="):]
                assert word in ("capped", "indeterminate")
                assert len(err.splitlines()) == 1, err
                assert err.startswith(word + ": "), err
    assert exits.count(3) == 14
    # the reason names a pair when speceq_check cannot decide one
    assert err == ("indeterminate: threshold 15 is at/above the cutoff 12 "
                   "and node n6 = S(n6); root t = n6 vs S(Z) is not "
                   "distinguished below it\n")


def test_base_reason_prints_enumerated_store_ids(capsys):
    # the pair named is two cyclic terms enumeration stored, so its node
    # names are store ids and follow the interning order
    argv = ("base", "--grammar", GCHAIN, "--n", "1", "--s", "2", "--g", "0",
            "--max-size", "2", "--sound-c", "1", "--json")
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == (
        '{"E_B": 6, "command": "base", "layers": [{"e": 2, "level": 1, '
        '"pairs": 13, "s": 2}, {"e": 2, "level": 0, "pairs": 68, "s": 6}], '
        '"schema": 1, "status": "indeterminate"}\n')
    assert err == ("indeterminate: threshold 16 is at/above the cutoff 12 "
                   "and node n8 = Q(n8); root t = n8 vs node n9 = P(n9); "
                   "root t = n9 is not distinguished below it\n")
    assert run(capsys, *argv[:-1])[0::2] == (3, err)


@pytest.mark.parametrize("term, message", [
    ("x\u00b2", "unknown nonterminal 'x' at position 1 in 'x\u00b2'"),
    ("A(x\u0663)", "unknown nonterminal 'x' at position 3 in 'A(x\u0663)'"),
    ("node n = x\u00b2; root t = n", "line 1: cannot parse 'node n = x\u00b2'"),
], ids=["superscript", "arabic-digit", "graph-node"])
def test_non_ascii_names_are_refused_by_name(capsys, term, message):
    code, out, err = run(capsys, "eqlevel", "--grammar", G1, "--left", term,
                         "--right", "A(Z)")
    assert (code, out) == (2, "")
    assert err == "error: term error in %r: %s\n" % (term, message)


def test_grammar_file_that_is_not_utf8_is_refused_by_name(tmp_path, capsys):
    bad = tmp_path / "latin1.fog"
    bad.write_bytes(b"# caf\xe9\nnonterminals: Z/0\nactions: a\n"
                    b"rule r1: Z -a-> Z\n")
    code, out, err = run(capsys, "validate", "--grammar", str(bad))
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read grammar file: ")
    assert "0xe9" in err and err.count("\n") == 1


def test_long_variable_index_is_refused_by_name(capsys):
    term = "A(x%s)" % ("9" * 5000)
    code, out, err = run(capsys, "eqlevel", "--grammar", G1, "--left", term,
                         "--right", "A(Z)")
    assert (code, out) == (2, "")
    assert err == ("error: term error in %r: variable index has more than "
                   "4300 digits\n" % term)


NINES = "9" * 4300  # the longest int a flag can be


def test_huge_cutoff_is_read_and_printed(capsys):
    with time_limit(10):
        code, out, err = run(capsys, "eqlevel", "--grammar", G1, "--left", "Z",
                             "--right", "Z", "--cutoff", NINES)
    assert (code, out, err) == (0, "at-least %s\n" % NINES, "")


def test_longer_cutoff_is_an_argparse_error(capsys):
    with time_limit(10), pytest.raises(SystemExit) as ex:
        main(["eqlevel", "--grammar", G1, "--left", "Z", "--right", "Z",
              "--cutoff", "9" * 5000])
    assert ex.value.code == 2
    err = capsys.readouterr().err
    assert "argument --cutoff: invalid int value" in err


@pytest.mark.parametrize("flags, why", [
    (["--n", "1", "--s", NINES, "--g", "0", "--max-size", "2"],
     "layer-0 size threshold exceeds 4300 digits"),
    (["--n", "1", "--s", "1", "--g", NINES, "--max-size", "2"],
     "layer-0 size threshold exceeds 4300 digits"),
    (["--n", "0", "--s", "2", "--g", "0", "--max-size", NINES],
     "enumeration budget exceeded (2097152 graphs of 7 nodes)"),
    (["--n", NINES, "--s", "2", "--g", "0", "--max-size", "2"],
     "enumeration budget exceeded (more than 2000000 graphs of 1 nodes)"),
], ids=["s", "g", "max-size", "n"])
def test_huge_base_flags_stop_before_the_work(capsys, flags, why):
    with time_limit(10):
        code, out, err = run(capsys, "base", "--grammar", G1, *flags)
    assert (code, out, err) == (2, "", "error: %s\n" % why)


def test_base_on_a_huge_arity_names_the_budget(tmp_path, capsys):
    # 2 ** 15000 has more digits than any count is written with
    big = tmp_path / "big.fog"
    big.write_text("nonterminals: A/15000, Z/0\nactions: a\n"
                   "rule r1: Z -a-> Z\n")
    code, out, err = run(capsys, "base", "--grammar", str(big), "--n", "1",
                         "--s", "2", "--g", "0", "--max-size", "2")
    assert (code, out) == (2, "")
    assert err == ("error: enumeration budget exceeded (more than 2000000 "
                   "graphs of 2 nodes)\n")


def test_non_ascii_rule_variable_is_refused_by_name(tmp_path, capsys):
    bad = tmp_path / "bad.fog"
    bad.write_text("nonterminals: Z/0\nactions: a\nrule r1: Z -a-> x\u00b2\n",
                   encoding="utf-8")
    code, out, err = run(capsys, "validate", "--grammar", str(bad))
    assert (code, out) == (2, "")
    assert err == ("error: grammar error: line 3: unknown nonterminal 'x' at "
                   "position 1 in 'x\u00b2'\n")


def test_balancing_indeterminate_and_error_exit_codes(capsys, monkeypatch):
    import fogbisim.cli as cli
    from fogbisim.equiv import Indeterminate
    from fogbisim.plays import PlaysError

    def raise_with(ex):
        def fake(*args, **kw):
            raise ex
        return fake

    argv = ("balance", "--grammar", GCHAIN, "--left", "A(Z)", "--right", "B(Z)")
    monkeypatch.setattr(cli, "transform_to_balanced",
                        raise_with(Indeterminate("cutoff starvation")))
    code, _, err = run(capsys, *argv)
    assert code == 3 and err.startswith("indeterminate:")
    monkeypatch.setattr(cli, "transform_to_balanced",
                        raise_with(PlaysError("cutoff starvation")))
    code, _, err = run(capsys, *argv)
    assert code == 2 and err.startswith("error:")


def test_internal_error_exits_2_without_traceback(capsys, monkeypatch):
    import fogbisim.cli as cli

    def boom(*args, **kw):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "EqOracle", boom)
    code, out, err = run(capsys, "eqlevel", "--grammar", G1,
                         "--left", "A(Z)", "--right", "Z")
    assert (code, out, err) == (2, "", "error: RuntimeError: boom\n")


def test_eqlevel_high_cutoff_gets_real_answer(capsys):
    # the oracle keeps its own work stack, so the cutoff is not bounded
    # by Python's recursion limit
    left = "A(" * 20 + "Z" + ")" * 20
    right = "A(" * 21 + "Z" + ")" * 21
    code, out, err = run(capsys, "eqlevel", "--grammar", G1, "--left", left,
                         "--right", right, "--cutoff", "1000")
    assert (code, out, err) == (1, "finite 20\n", "")


def test_eqlevel_game_deeper_than_recursion_limit(tmp_path, capsys):
    grammar = tmp_path / "grow.fog"
    grammar.write_text("nonterminals: A/1, B/1, Z/0\n"
                       "actions: a\n"
                       "rule r1: A(x1) -a-> A(A(x1))\n"
                       "rule r2: B(x1) -a-> B(B(x1))\n"
                       "rule r3: Z -a-> Z\n")
    # every round of the game goes one level deeper: 5000 nested queries
    code, out, err = run(capsys, "eqlevel", "--grammar", str(grammar),
                         "--left", "A(Z)", "--right", "B(Z)",
                         "--cutoff", "5000")
    assert (code, out, err) == (0, "at-least 5000\n", "")


def test_eqlevel_deeply_nested_term(capsys):
    # parse_term keeps its own stack, so nesting depth is unlimited
    left = "A(" * 1200 + "Z" + ")" * 1200
    code, out, err = run(capsys, "eqlevel", "--grammar", G1, "--left", left,
                         "--right", "Z", "--cutoff", "12")
    assert (code, out, err) == (1, "finite 0\n", "")


# -- fuzzing the command line -----------------------------------------------

NAMES = ["A", "B", "P", "R", "S", "Z", "P0", "Q1", "DEAD", "x1", "x2", "Y"]
RULE_IDS = ["r1", "r2", "r3", "a1", "b2", "s2", "z1", "p0", "dd", "q9"]


def applications(names, kids):
    """`name(k1,...)` texts over the given names and kid texts; an arity
    of None takes one to three kids, whatever the name's arity."""
    return st.sampled_from(sorted(names)).flatmap(
        lambda name: st.lists(
            kids, min_size=names[name] or 1, max_size=names[name] or 3).map(
            lambda args: "%s(%s)" % (name, ",".join(args))))


def term_texts(arities):
    """Inline and graph-form term texts: well-formed over the grammar's
    arities, over any names at any arity, or plain character noise."""
    leaves = [n for n, m in arities.items() if m == 0] + ["x1", "x2"]
    apps = {n: m for n, m in arities.items() if m > 0}
    well_formed = st.recursive(
        st.sampled_from(leaves),
        lambda kids: applications(apps, kids) if apps else kids,
        max_leaves=6)
    any_arity = st.recursive(
        st.sampled_from(NAMES),
        lambda kids: applications(dict.fromkeys(NAMES), kids),
        max_leaves=6)
    refs = st.sampled_from(["n0", "n1", "n2"] + leaves)
    node = st.one_of(st.sampled_from(leaves), applications(apps, refs)
                     if apps else refs, applications(dict.fromkeys(NAMES), refs))
    graph = st.builds(
        lambda nodes, root, sep: sep.join(
            ["node n%d = %s" % (i, rhs) for i, rhs in enumerate(nodes)]
            + ["root t = %s" % root]),
        st.lists(node, min_size=1, max_size=3),
        st.sampled_from(["n0", "n0", "n1", "n2"]),
        st.sampled_from(["; ", "\n"]))
    noise = st.text(alphabet="ABPZx12n()=,; #\nroteda\u00b2\u0663", max_size=24)
    return st.one_of(well_formed, well_formed, well_formed, any_arity, graph,
                     noise)


words = st.builds(
    lambda ids, sep: sep.join(ids),
    st.lists(st.one_of(st.sampled_from(RULE_IDS), st.text("r1,", max_size=3)),
             max_size=5),
    st.sampled_from([" ", ",", ", "]))

# the catch-all handler's line: "error: <ExceptionType>: <message>"
CATCH_ALL = re.compile(r"^error: [A-Z]\w*: ", re.M)


@st.composite
def command_lines(draw):
    grammar = draw(st.sampled_from([G1, GCHAIN, GNULL]))
    terms = term_texts(parse_grammar(pathlib.Path(grammar).read_text()).arities)
    command = draw(st.sampled_from(
        ["eqlevel", "decide", "play", "balance", "verify", "pipeline",
         "step", "run"]))
    argv = [command, "--grammar", grammar]
    if command == "step":
        argv.append("--term=" + draw(terms))
        argv.append(draw(st.sampled_from(["--rule=", "--action="]))
                    + draw(st.sampled_from(RULE_IDS + ["a", "b", "c", ""])))
    elif command == "run":
        argv += ["--term=" + draw(terms), "--word=" + draw(words)]
    else:  # only the pair commands and base take a cutoff
        argv += ["--cutoff", str(draw(st.integers(1, 8))),
                 "--left=" + draw(terms), "--right=" + draw(terms)]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_fuzzed_command_lines_exit_cleanly(argv):
    """Random terms, words and small cutoffs through `main`: a
    documented exit code, no traceback and no catch-all error line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3), (argv, code)
    for text in (out.getvalue(), err.getvalue()):
        assert "Traceback" not in text, argv
        assert not CATCH_ALL.search(text), (argv, text)
