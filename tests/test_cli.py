import json
import os

import pytest

from qct import cli, closedform, qring
from qct.cli import main
from qct.qring import ONE, ZERO


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_ct_qdyson_example(capsys):
    code, out = run(capsys, "ct", "--family", "qdyson", "--a", "1,1")
    assert code == 0
    assert out.strip() == "1 + q"


def test_ct_bf_trivial(capsys):
    code, out = run(capsys, "ct", "--family", "bf", "--shape", "2",
                    "--a", "0", "--b", "0", "--c", "0")
    assert code == 0
    assert out.strip() == "1"


def test_ct_matches_rhs_subcommand(capsys):
    _, ct_out = run(capsys, "ct", "--family", "bf", "--shape", "1,2",
                    "--a", "1", "--b", "1", "--c", "1")
    _, rhs_out = run(capsys, "rhs", "--family", "bf", "--shape", "1,2",
                     "--a", "1", "--b", "1", "--c", "1")
    assert ct_out == rhs_out


def test_gx_method_agrees_with_brute(capsys):
    _, brute = run(capsys, "ct", "--family", "bf", "--shape", "1,1",
                   "--a", "2", "--b", "1", "--c", "1")
    _, gx = run(capsys, "ct", "--family", "bf", "--shape", "1,1",
                "--a", "2", "--b", "1", "--c", "1", "--method", "gx")
    assert brute == gx


def test_gx_method_matches_rhs_on_five_variables(capsys):
    flags = ("--family", "bf", "--shape", "1,4", "--a", "1", "--b", "1", "--c", "1")
    code, gx = run(capsys, "ct", *flags, "--method", "gx")
    _, rhs = run(capsys, "rhs", *flags)
    assert code == 0 and gx == rhs


def test_ct_kadell(capsys):
    code, out = run(capsys, "ct", "--family", "kadell", "--v", "1,0",
                    "--r", "1", "--a", "1,1")
    assert code == 0
    _, rhs_out = run(capsys, "rhs", "--family", "kadell", "--v", "1,0",
                     "--r", "1", "--a", "1,1")
    assert out == rhs_out


def test_verify_writes_report(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--suite", "poch-identities")
    assert code == 0
    assert "poch-identities: 1 pass, 0 fail, 0 trimmed" in out
    rep = json.loads((tmp_path / "qct-report-poch-identities.json").read_text())
    assert rep["suite"] == "poch-identities"
    assert set(rep) == {"suite", "grid", "cases", "elapsed_ms", "mode"}
    assert rep["cases"][0]["status"] == "pass"


def test_reports_are_written_as_indented_json_with_one_newline(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    suite, reports = cli.run_suite, []
    monkeypatch.setattr(cli, "run_suite", lambda name, args: reports.append(suite(name, args)) or reports[-1])
    run(capsys, "verify", "--suite", "roots", "--shape", "1,2", "--b", "1", "--c", "1")
    written = (tmp_path / "qct-report-roots.json").read_text()
    assert written == json.dumps(reports[0], indent=2) + "\n"
    run(capsys, "report", "--dir", str(tmp_path), "--out", str(tmp_path / "summary.json"))
    summary = {"suites": [{"suite": "roots", "cases": 1, "pass": 1, "fail": 0, "trimmed": 0, "mode": "exact"}],
               "status": "pass"}
    assert (tmp_path / "summary.json").read_text() == json.dumps(summary, indent=2) + "\n"


@pytest.mark.parametrize("tied", [1, 2])
def test_bf_fails_when_a_tie_break_changes_the_value(tied, monkeypatch):
    # shape (1,2,2) has two maximal decorated blocks; the recursion forced
    # through either one must give the default's value
    params = {"shape": [1, 2, 2], "a": 1, "b": 1, "c": 1}
    assert cli._run_bf(params) == (True, None)
    rhs = closedform.bf_rhs
    monkeypatch.setattr(closedform, "bf_rhs", lambda p, k=None: rhs(p, k) + (ONE if k == tied else ZERO))
    assert cli._run_bf(params) == (False, {"tie_break_k": tied})


def test_p1_formula_fails_where_the_p1_closed_form_is_wrong(tmp_path, capsys, monkeypatch):
    # the p = 1 formula times q at one case: p1-formula fails that case alone,
    # with the closed form and the brute-force value as its witness
    monkeypatch.chdir(tmp_path)
    p1 = closedform.bf_p1_rhs
    wrong = (1, 2, 1, 1, 1)
    monkeypatch.setattr(closedform, "bf_p1_rhs",
                        lambda *args: p1(*args).shift(1) if args == wrong else p1(*args))
    code, out = run(capsys, "verify", "--suite", "p1-formula")
    assert code == 1 and "p1-formula: 107 pass, 1 fail, 0 trimmed" in out
    failed = [case for case in json.loads((tmp_path / "qct-report-p1-formula.json").read_text())["cases"]
              if case["status"] == "fail"]
    assert [case["params"] for case in failed] == [{"shape": [1, 2], "a": 1, "b": 1, "c": 1}]
    brute = str(cli.FAMILIES["bf"].brute(failed[0]["params"]))
    assert failed[0]["witness"] == {"closed": str(p1(*wrong).shift(1)), "brute": brute}


def test_verify_suite_with_flags(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--suite", "roots",
                    "--shape", "1,2", "--b", "1", "--c", "1")
    assert code == 0
    assert "1 pass" in out


def test_verify_splitting_single_case(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--suite", "splitting", "--shape", "1,1", "--c", "0")
    assert code == 0


def test_verify_splitting_is_exact_past_the_old_expansion_limit(tmp_path, capsys, monkeypatch):
    # (3,3), c = 3 is too large to expand; the factor route checks it exactly
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--suite", "splitting", "--shape", "3,3", "--c", "3")
    assert code == 0 and out.splitlines()[-1] == "splitting: 1 pass, 0 fail, 0 trimmed"
    with open("qct-report-splitting.json") as fh:
        report = json.load(fh)
    assert report["mode"] == "exact"
    assert [sorted(case) for case in report["cases"]] == [["params", "status"]]
    assert report["cases"][0]["status"] == "pass"


def test_stdout_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _, out1 = run(capsys, "verify", "--suite", "qsum", "--seed", "7")
    _, out2 = run(capsys, "verify", "--suite", "qsum", "--seed", "7")
    assert out1 == out2


def test_report_aggregation(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(capsys, "verify", "--suite", "qsum")
    run(capsys, "verify", "--suite", "poch-identities")
    code, out = run(capsys, "report", "--dir", str(tmp_path), "--out",
                    str(tmp_path / "summary.json"))
    assert code == 0
    assert "overall: pass" in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "pass"
    assert len(summary["suites"]) == 2


def test_report_empty_dir(tmp_path, capsys):
    summary = tmp_path / "summary.json"
    code, out = run(capsys, "report", "--dir", str(tmp_path), "--out", str(summary))
    assert code == 0
    assert "no suite reports" in out
    # zero reports are no evidence of a pass
    assert "overall: empty" in out and "overall: pass" not in out
    assert json.loads(summary.read_text()) == {"suites": [], "status": "empty"}


def test_report_flags_red_suite(tmp_path, capsys):
    bad = {
        "suite": "qdyson",
        "grid": {"cases": 1},
        "cases": [{"params": {"a": [1]}, "status": "fail", "witness": {"got": "0"}}],
        "elapsed_ms": 1,
        "mode": "exact",
    }
    (tmp_path / "qct-report-qdyson.json").write_text(json.dumps(bad))
    code, out = run(capsys, "report", "--dir", str(tmp_path))
    assert code == 1
    assert "overall: fail" in out and "FAIL" in out


@pytest.mark.parametrize("text, message", [
    ("{not json", "is not readable JSON"),
    ('{"suite": "qdyson", "grid": {"cases": 1}}', "is not a suite report"),
    ('{"suite": "qdyson", "cases": [{"params": {}, "status": "maybe"}]}', "is not a suite report"),
])
def test_report_names_a_bad_file(text, message, tmp_path, capsys):
    bad = tmp_path / "qct-report-qdyson.json"
    bad.write_text(text)
    with pytest.raises(SystemExit) as exc:
        main(["report", "--dir", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and str(bad) in err and message in err
    assert "Traceback" not in err


def test_report_with_a_suite_that_passed_nothing_is_incomplete(tmp_path, capsys, monkeypatch):
    # every lemma-key case trimmed by a zero budget: no evidence, so no pass
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time", _TickClock())
    run(capsys, "verify", "--suite", "poch-identities")
    run(capsys, "verify", "--suite", "lemma-key", "--max-seconds", "0")
    code, out = run(capsys, "report", "--dir", str(tmp_path), "--out", str(tmp_path / "summary.json"))
    assert code == 0
    assert "overall: incomplete" in out and "overall: pass" not in out
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "incomplete"
    assert [(row["suite"], row["pass"]) for row in summary["suites"]] == [
        ("lemma-key", 0), ("poch-identities", 1)]


def test_invalid_flags_exit_nonzero():
    with pytest.raises(SystemExit):
        main(["ct", "--family", "nosuch"])
    with pytest.raises(SystemExit):
        main(["ct", "--family", "qdyson"])  # missing --a


@pytest.mark.parametrize("argv", [
    ("ct", "--family", "qdyson", "--a=-1,2"),
    ("ct", "--family", "bf", "--shape", "1,1", "--a=-1", "--b", "1", "--c", "1"),
    ("rhs", "--family", "qdyson", "--a=-1,2"),
    ("ct", "--family", "kadell", "--v=-1,1", "--r", "1", "--a", "1,1"),
    ("rhs", "--family", "kadell", "--v", "1,0", "--r=-1", "--a", "1,1"),
    ("verify", "--suite", "roots", "--shape", "1,2", "--b", "1", "--c=-1"),
])
def test_negative_arguments_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "must be nonnegative" in err


@pytest.mark.parametrize("argv, message", [
    (("ct", "--family", "bf", "--shape", "1,-1", "--a", "1"), "must be nonnegative"),
    (("ct", "--family", "bf", "--shape", "1,x"), "expected integers"),
    (("ct", "--family", "qmorris", "--n=-1", "--a", "1"), "must be nonnegative"),
    (("rhs", "--family", "qmorris", "--n", "0"), "must be positive"),
    (("verify", "--suite", "roots", "--shape", "0,1", "--b", "1", "--c", "1"), "must be positive"),
    (("verify", "--suite", "qsum", "--max-seconds", "abc"), "expected a number"),
    (("verify", "--suite", "qsum", "--max-seconds=-1"), "must be nonnegative"),
    (("ct", "--family", "kadell", "--v", "1,0", "--r", "0", "--a", "1,1"), "must be positive"),
    (("rhs", "--family", "kadell", "--v", "1,0", "--r", "0", "--a", "1,1"), "must be positive"),
    (("ct", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1"), "equal length"),
    (("rhs", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1"), "equal length"),
    (("rhs", "--family", "kadell", "--v", "1,0", "--r", "2", "--a", "1,1"), "|--v| = --r"),
    (("report", "--dir", "/nonexistent"), "No such file or directory"),
    (("verify", "--suite", "qsum", "--out", "."), "'.' is a directory"),
    (("ct", "--family", "kadell", "--v", "1,0", "--a", "1,1"), "kadell needs --v, --r and --a"),
    (("ct", "--family", "bf", "--shape", "1,1", "--a", "1,2"), "--a takes one value for this family"),
    (("rhs", "--family", "bf-p1", "--shape", "1,1,1", "--a", "1"), "bf-p1 needs a two-block shape"),
    (("ct", "--family", "qdyson"), "qdyson needs --a as a comma list"),
    (("rhs", "--family", "qdyson"), "qdyson needs --a as a comma list"),
    (("ct", "--family", "qdyson", "--a", "1,1", "--method", "gx"), "--method gx supports the bf and qmorris"),
    (("ct", "--family", "qmorris", "--a", "1"), "qmorris needs --n or --shape"),
    (("rhs", "--family", "dn0", "--c", "1"), "dn0 needs --shape"),
    # a grid flag the suite's case builder would ignore
    (("verify", "--suite", "qdyson", "--shape", "1,1"), "suite qdyson does not read --shape"),
    (("verify", "--suite", "gx-pipeline", "--shape", "1,1"), "suite gx-pipeline does not read --shape"),
    (("verify", "--suite", "qsum", "--c", "1"), "suite qsum does not read --c"),
    (("verify", "--suite", "bf-recursion", "--b", "1"), "suite bf-recursion does not read --b"),
    (("verify", "--suite", "splitting", "--shape", "1,1", "--b", "0"),
     "suite splitting does not read --b"),
    (("verify", "--suite", "lemma-key", "--c", "0"), "suite lemma-key does not read --c"),
    # a splitting case needs a decorated block to split on
    (("verify", "--suite", "splitting", "--shape", "1"), "suite splitting needs a shape with a decorated block"),
    # a value flag the family's ct or rhs route would ignore
    (("ct", "--family", "qdyson", "--a", "1,2", "--b", "1"), "family qdyson does not read --b"),
    (("ct", "--family", "bf", "--shape", "1,2", "--n", "3"), "family bf does not read --n"),
    (("ct", "--family", "qmorris", "--n", "2", "--v", "1"), "family qmorris does not read --v"),
    (("ct", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1,1", "--c", "1"),
     "family kadell does not read --c"),
    (("rhs", "--family", "qdyson", "--a", "1,2", "--shape", "1,1"), "family qdyson does not read --shape"),
    (("rhs", "--family", "dn0", "--shape", "1,1", "--a", "1", "--c", "1"), "family dn0 does not read --a"),
    (("rhs", "--family", "bf-p1", "--shape", "1,1", "--r", "1"), "family bf-p1 does not read --r"),
    (("rhs", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1,1", "--n", "2"),
     "family kadell does not read --n"),
    # qmorris takes its n from exactly one of --n and --shape
    (("rhs", "--family", "qmorris", "--a", "1"), "qmorris needs --n or --shape"),
    (("ct", "--family", "qmorris", "--n", "3", "--shape", "1,2"), "qmorris needs --n or --shape, not both"),
    (("rhs", "--family", "qmorris", "--n", "3", "--shape", "3"), "qmorris needs --n or --shape, not both"),
    # roots keeps only c >= b, so this grid is empty: no pass over no case
    (("verify", "--suite", "roots", "--shape", "1", "--b", "2", "--c", "1"),
     "suite roots has no case at these flags"),
    # --out is checked before any case runs, not when the report is written
    (("verify", "--suite", "roots", "--shape", "1,1", "--b", "1", "--c", "1",
      "--out", "/nonexistent/x.json"), "no such directory '/nonexistent' for '/nonexistent/x.json'"),
    (("report", "--out", "/nonexistent/y.json"), "no such directory '/nonexistent' for '/nonexistent/y.json'"),
    # an empty comma list or entry is no value: qdyson would read a
    # zero-variable product, kadell an empty row, and 1,,2 would read as 1,2
    (("ct", "--family", "qdyson", "--a", ","), "expected integers, got ','"),
    (("rhs", "--family", "qdyson", "--a", ""), "expected integers, got ''"),
    (("ct", "--family", "qdyson", "--a", "1,,2"), "expected integers, got '1,,2'"),
    (("ct", "--family", "kadell", "--v", ",", "--r", "1", "--a", ","), "argument --v: expected integers"),
    (("rhs", "--family", "kadell", "--v", "1", "--r", "1", "--a", ",,"), "argument --a: expected integers"),
    (("ct", "--family", "bf", "--shape", ",", "--a", "1"), "argument --shape: expected integers"),
    # q-Morris has one block, so a decorated --shape would be read as its n
    (("ct", "--family", "qmorris", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"),
     "qmorris has one block: --shape takes one part n, got 1,2"),
    (("rhs", "--family", "qmorris", "--shape", "2,1"), "qmorris has one block: --shape takes one part n, got 2,1"),
    # an empty --out names no file: verify would write its default report, report none
    (("verify", "--suite", "qsum", "--out", ""), "argument --out: expected a file path, got ''"),
    (("report", "--out", ""), "argument --out: expected a file path, got ''"),
])
def test_bad_shape_and_n_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "usage:" in captured.err and message in captured.err
    assert captured.out == ""  # no case ran


@pytest.mark.parametrize("argv", [
    ("ct", "--family", "qdyson", "--a", "1,1"),
    ("ct", "--family", "qmorris", "--n", "2", "--a", "1", "--b", "1", "--c", "1"),
    ("ct", "--family", "qmorris", "--shape", "2", "--a", "1", "--b", "1", "--c", "1"),
    ("ct", "--family", "bf", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"),
    ("ct", "--family", "bf", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1", "--method", "gx"),
    ("ct", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1,1"),
    ("rhs", "--family", "qdyson", "--a", "1,1"),
    ("rhs", "--family", "qmorris", "--n", "2", "--a", "1", "--b", "1", "--c", "1"),
    ("rhs", "--family", "bf", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"),
    ("rhs", "--family", "bf-p1", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"),
    ("rhs", "--family", "dn0", "--shape", "1,2", "--c", "1"),
    ("rhs", "--family", "kadell", "--v", "1,0", "--r", "1", "--a", "1,1"),
])
def test_every_flag_a_family_reads_is_accepted(argv, capsys):
    # the gx-query flags (bf with --shape --a --b --c, on ct and rhs) among them
    code, out = run(capsys, *argv)
    assert code == 0 and out.strip()


def test_qmorris_shape_counts_variables_on_ct_and_rhs(capsys):
    # the q-Morris product has one block: --shape 3 means n = 3 on both routes
    flags = ("--a", "1", "--b", "1", "--c", "1")
    _, by_n = run(capsys, "rhs", "--family", "qmorris", "--n", "3", *flags)
    for command in ("ct", "rhs"):
        _, out = run(capsys, command, "--family", "qmorris", "--shape", "3", *flags)
        assert out == by_n, command


def test_verify_has_no_a_flag(capsys):
    # no suite's case builder reads --a, so verify does not accept it
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "roots", "--a", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --a 5" in capsys.readouterr().err


@pytest.mark.parametrize("suite", ["qsum", "kadell"])
def test_suites_run_without_gcd(suite, tmp_path, capsys, monkeypatch):
    # the scalar identities are summed by cyclo_sum and every constant term
    # is a QLaurent, so a polynomial gcd call would fail a case
    def no_gcd(a, b):
        raise AssertionError("poly_gcd called")

    monkeypatch.setattr(qring, "poly_gcd", no_gcd)
    code, out = run(capsys, "verify", "--suite", suite, "--out", str(tmp_path / "report.json"))
    assert code == 0 and " 0 fail, 0 trimmed" in out


def test_max_seconds_trims(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, out = run(capsys, "verify", "--suite", "bf-recursion", "--max-seconds", "0")
    # with a zero budget every case is trimmed deterministically; a run that
    # passed no case is no evidence of a pass, so it exits 1
    assert code == 1
    assert "162 trimmed" in out


def _run_fresh(argv):
    """Exit code of argv through a newly built parser, as main runs it."""
    args = cli.build_parser.__wrapped__().parse_args(list(argv))
    return args.func(args)


def test_cached_parser_matches_a_fresh_one(tmp_path, capsys, monkeypatch):
    # one process, one parser: ct, a usage error, verify, then ct again
    monkeypatch.chdir(tmp_path)
    assert cli.build_parser() is cli.build_parser()
    sequence = [
        (("ct", "--family", "bf", "--shape", "1,2", "--a", "1", "--b", "1", "--c", "1"), 0),
        (("ct", "--family", "bf", "--shape", "1,x"), 2),
        (("verify", "--suite", "poch-identities"), 0),
        (("ct", "--family", "qdyson", "--a", "2,1"), 0),
    ]
    for argv, code in sequence:
        got = []
        for entry in (main, _run_fresh):
            try:
                code = entry(list(argv))
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            got.append((code, captured.out, captured.err))
        assert got[0] == got[1], argv
        assert got[0][0] == code, argv


class _TickClock:
    """A monotonic clock that advances one second per reading."""

    def __init__(self):
        self.now = 0

    def monotonic(self):
        self.now += 1
        return self.now


def test_lemma_key_cases_keep_their_order():
    # stdout lists the cases by index: the examples, then every composition r
    # of s <= 6 into at most three parts, by s, then by the number of parts,
    # then lexicographically, then minweight for s = 1..8
    cases = cli._cases_lemma_key(None)
    rs = [tuple(c["r"]) for c in cases if c["kind"] == "classify"]
    assert rs == sorted(set(rs), key=lambda r: (sum(r), len(r), r)) and len(rs) == 41
    assert cases[0] == {"kind": "examples"}
    assert cases[-8:] == [{"kind": "minweight", "s": s} for s in range(1, 9)]


def test_lemma_key_budget_trims_the_expensive_end(tmp_path, capsys, monkeypatch):
    # the work of a lemma-key case grows with s: sum(r) for classify, s for
    # minweight, none for examples; a budget must trim from the large end
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time", _TickClock())

    def cost(params):
        kind = params["kind"]
        return sum(params["r"]) if kind == "classify" else params["s"] if kind == "minweight" else 0

    code, _ = run(capsys, "verify", "--suite", "lemma-key", "--max-seconds", "12")
    assert code == 0
    cases = json.loads((tmp_path / "qct-report-lemma-key.json").read_text())["cases"]
    ran = [cost(c["params"]) for c in cases if c["status"] == "pass"]
    trimmed = [cost(c["params"]) for c in cases if c["status"] == "trimmed"]
    assert len(ran) == 12 and trimmed
    assert max(ran) <= min(trimmed)


# (suite, cases, sha256 of stdout) of every default grid with every case
# trimmed: the case list and the order stdout prints it in, pinned
DEFAULT_GRIDS = [
    ("bf-recursion", 162, "a7d02c24da71baf049c3e52ebb31211c6abbd2cd7c1ed7124777e1b3e41fd150"),
    ("gx-pipeline", 8, "e05238a21264b348525a2ff44b4a996d3040eac0350a7a3e7118031b7369a6ed"),
    ("kadell", 278, "c45793519ea1f15954286c565c7491be8f1bf7d67376d50971f5bf46a99b950c"),
    ("lemma-key", 50, "7a1ad7284927154c89b216ef4537f9723b2f86f6f0727d149247e444500534f2"),
    ("p1-formula", 108, "1f5e60d64acb84e6e3a10356eb9b6bb88e8d05c740bf7c46f0e28c248e4091a7"),
    ("poch-identities", 1, "130e51642dbafbaa57175108442574256bfe394161730faf600bf038a83e5d61"),
    ("qdyson", 145, "1dfb4ef659ba288e705ea5580cbf781a15d725a9a6230177e3672a6f228a1b40"),
    ("qmorris", 81, "d75201def72f08bfce4b1b66657c1e9e070b1d93b644452c7f45d7db87438669"),
    ("qsum", 1, "9348c316e26d0618d59b9647a168a34c2765b5fb4da2a8528c1cca4746781e17"),
    ("roots", 36, "ad70e471e1c4371c266b9ec779bd881e8324e4c214df6a78de87c1976f2a8599"),
    ("splitting", 28, "bb04b895217269f5924a107c41574914b7eb27ba3478fd0b2a66700f07b6e1fe"),
    ("vanishing", 17, "d9167c5e625d51d2562aa15ce6a185d105e1f6131056c527ec086113857913be"),
]


@pytest.mark.parametrize("suite, count, digest", DEFAULT_GRIDS)
def test_default_grids_are_pinned(suite, count, digest, tmp_path, capsys, monkeypatch):
    import hashlib

    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "time", _TickClock())
    code, out = run(capsys, "verify", "--suite", suite, "--max-seconds", "0")
    assert code == 1  # every case trimmed: no evidence of a pass
    assert out.splitlines()[-1] == f"{suite}: 0 pass, 0 fail, {count} trimmed"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_every_suite_has_a_pinned_grid():
    assert sorted(suite for suite, _, _ in DEFAULT_GRIDS) == sorted(cli.SUITES)
