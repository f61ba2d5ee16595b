"""Command line contract: output formats, exit codes, JSON schema."""
import gc
import hashlib
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tornheim import __version__
from tornheim import cli, constants, g2, numeric, pfd
from tornheim.constants import from_json_dict
from tornheim.parity import EvalRequest, closed_form

from conftest import child_env


def run_cli(*argv):
    """main() in-process; returns (exit_code, stdout, stderr)."""
    import io
    from contextlib import redirect_stderr, redirect_stdout
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:   # argparse paths
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_eval_latex_golden():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "1",
                           "--k", "1", "1", "3", "--format", "latex")
    assert code == 0
    assert out.strip() == r"4\zeta(5)-\frac{\pi^2}{3}\zeta(3)"


def test_eval_text_default():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3")
    assert code == 0
    assert out.strip() == "4ζ(5) - 1/3 π^2ζ(3)"


def test_even_weight_is_usage_error():
    code, out, err = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "2")
    assert code == 2
    assert "weight must be odd" in err


def test_dirichlet_basis_outside_g2_field_is_usage_error():
    # (1,4) needs C_5(1/4), which has no Dirichlet L-product form
    code, out, err = run_cli("eval", "--a", "1", "--b", "4", "--k", "1", "1", "3",
                             "--basis", "dirichlet")
    assert code == 2 and out == ""
    assert err.splitlines()[-1] == "tornheim: error: not in G2 constant field: C_5(1/4)"


def test_dirichlet_eval_checks_the_g2_field_once(monkeypatch):
    field_error, calls = constants.g2_field_error, []

    def counted(v):
        calls.append(v)
        return field_error(v)

    for module in (cli, constants):  # every name bound to the check
        for name, value in list(vars(module).items()):
            if value is field_error:
                monkeypatch.setattr(module, name, counted)
    code, _, _ = run_cli("eval", "--a", "1", "--b", "3", "--k", "1", "1", "3",
                         "--basis", "dirichlet")
    assert code == 0 and len(calls) == 1


@pytest.mark.parametrize("argv", [
    ("eval", "--a", "0", "--b", "1", "--k", "1", "1", "3"),
    ("eval", "--a", "1", "--b", "1", "--k", "0", "1", "4"),
    ("g2", "--k", "0", "1", "1", "1", "1", "3"),
])
def test_non_positive_parameters_are_usage_errors(argv):
    code, _, err = run_cli(*argv)
    assert code == 2
    assert ">= 1" in err


def test_weight_three_verifies():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "1",
                           "--verify")
    assert code == 0
    assert out.splitlines()[0] == "2ζ(3)"
    assert "# verified" in out


def test_eval_verify_passes():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "3", "--k", "1", "1", "3",
                           "--verify")
    assert code == 0
    assert "# verified" in out


def test_eval_json_schema_and_round_trip():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "3", "--k", "1", "1", "3",
                           "--basis", "dirichlet", "--format", "json", "--verify")
    assert code == 0
    rec = json.loads(out)
    assert set(rec) == {"command", "version", "ruleset_hash", "request",
                        "basis", "result", "text", "latex", "check"}
    assert rec["command"] == "eval" and rec["version"] == __version__
    assert rec["ruleset_hash"] == cli.RULESET_HASH
    assert rec["request"] == {"a": 1, "b": 3, "k": [1, 1, 3]}
    assert rec["check"]["passed"] is True
    value = from_json_dict(rec["result"])
    assert not value.is_zero


def test_ruleset_hash_is_stable():
    want = hashlib.sha256((constants.RULES_DOC + "\n" + pfd.RELATIONS_DOC)
                          .encode()).hexdigest()[:16]
    assert cli.RULESET_HASH == want, \
        "RULES_DOC or RELATIONS_DOC changed: update cli.RULESET_HASH to " + want
    assert cli.RULESET_HASH == "0e0e00c3aa654294"


def wrong_oracle(*args, **kwargs):
    from mpmath import mp
    return mp.mpf("1.25"), mp.mpf(0), 40


def test_verification_failure_exits_three(monkeypatch):
    monkeypatch.setattr(numeric, "lattice_sum", wrong_oracle)
    code, out, _ = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3",
                           "--verify")
    assert code == 3
    assert "FAILED" in out
    # VerificationError is a RuntimeError, yet keeps its own exit code, and
    # the failed G2 result is still printed
    code, out, err = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1")
    assert code == 3
    assert "verification failed" in err
    assert out.startswith("clausen  :")
    assert out.splitlines()[-1].startswith("# FAILED: relative residual")


def test_failed_g2_check_still_emits_its_record(monkeypatch):
    monkeypatch.setattr(numeric, "lattice_sum", wrong_oracle)
    code, out, err = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1",
                             "--format", "json")
    assert code == 3
    assert err.startswith("verification failed: numeric check failed")
    record = json.loads(out)
    assert record["command"] == "g2" and record["request"] == [2, 1, 1, 1, 1, 1]
    assert set(record["checks"]) == {"clausen", "dirichlet"}
    assert not any(c["passed"] for c in record["checks"].values())
    assert all(c["rhs"] == "1.25" for c in record["checks"].values())


def broken_oracle(*args, **kwargs):
    raise RuntimeError("broken oracle invariant")


@pytest.mark.parametrize("argv", [
    ("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3", "--verify"),
    ("g2", "--k", "2", "1", "1", "1", "1", "1"),
])
def test_internal_error_exits_one(monkeypatch, argv):
    monkeypatch.setattr(numeric, "lattice_sum", broken_oracle)
    code, _, err = run_cli(*argv)
    assert code == 1
    assert "error: broken oracle invariant" in err


def test_table_internal_error_exits_one(monkeypatch):
    monkeypatch.setattr(numeric, "lattice_sum", broken_oracle)
    code, out, _ = run_cli("table", "--weight", "3", "--pairs", "1,1",
                           "--format", "json")
    assert code == 1
    [record] = [json.loads(line) for line in out.splitlines()]
    assert record["error"] == "broken oracle invariant"
    assert record["passed"] is False


def test_check_records_carry_the_oracle_cutoff(monkeypatch):
    code, out, _ = run_cli("eval", "--a", "1", "--b", "2", "--k", "1", "1", "3",
                           "--verify", "--format", "json")
    assert code == 0
    check = json.loads(out)["check"]
    assert isinstance(check["cutoff"], int) and check["cutoff"] >= 40
    # the oracle's tail bound is within the tolerance it was asked for
    assert float(check["tail_bound"]) <= (check["tolerance"]
                                          * abs(float(check["rhs"])))

    calls = []
    oracle = numeric.lattice_sum

    def counted(*args, **kwargs):
        calls.append(args)
        return oracle(*args, **kwargs)

    monkeypatch.setattr(numeric, "lattice_sum", counted)
    code, out, _ = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1",
                           "--format", "json")
    assert code == 0
    checks = json.loads(out)["checks"]
    assert len(calls) == 1
    assert checks["clausen"]["cutoff"] == checks["dirichlet"]["cutoff"] >= 40


def test_g2_text_output_with_reduction():
    code, out, _ = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1",
                           "--show-reduction")
    assert code == 0
    assert "clausen  : -109/1296 ζ(7) + 1/108 π^2ζ(5)" in out
    assert "dirichlet: -109/1296 ζ(7) + 1/18 ζ(2)ζ(5)" in out
    assert "zeta_{1,1}(" in out
    assert "# verified" in out


def test_g2_json_includes_trace_on_request():
    code, out, _ = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1",
                           "--format", "json", "--show-reduction")
    assert code == 0
    rec = json.loads(out)
    assert rec["command"] == "g2"
    assert rec["weight"] == 7
    assert rec["trace"]
    assert all(c["passed"] for c in rec["checks"].values())


def test_g2_latex_prints_both_bases():
    code, out, _ = run_cli("g2", "--k", "1", "1", "1", "1", "1", "2",
                           "--format", "latex")
    assert code == 0
    assert out.splitlines() == [
        r"\frac{2507}{1296}\zeta(7)+\frac{9\pi}{4}S_6(\tfrac{1}{3})"
        r"-\frac{505\pi^2}{648}\zeta(5)",
        r"\frac{2507}{1296}\zeta(7)-\frac{505}{108}\zeta(2)\zeta(5)"
        r"+\frac{81}{8}L(1,\chi_3)L(6,\chi_3)",
    ]


def test_g2_show_reduction_has_no_latex_format():
    code, out, err = run_cli("g2", "--k", "1", "1", "1", "1", "1", "2",
                             "--show-reduction", "--format", "latex")
    assert code == 2
    assert out == "" and "--show-reduction has no LaTeX output" in err


CHECK_KEYS = {"label", "lhs", "rhs", "abs_residual", "rel_residual",
              "tolerance", "digits", "passed", "cutoff", "tail_bound"}


def test_check_record_json_keys():
    code, out, _ = run_cli("eval", "--a", "1", "--b", "2", "--k", "1", "1", "3",
                           "--verify", "--format", "json")
    assert code == 0 and set(json.loads(out)["check"]) == CHECK_KEYS
    code, out, _ = run_cli("g2", "--k", "2", "1", "1", "1", "1", "1",
                           "--format", "json")
    checks = json.loads(out)["checks"]
    assert code == 0 and set(checks) == {"clausen", "dirichlet"}
    assert all(set(c) == CHECK_KEYS for c in checks.values())
    code, out, _ = run_cli("table", "--weight", "3", "--pairs", "1,1",
                           "--format", "json")
    assert code == 0 and set(json.loads(out)["check"]) == CHECK_KEYS


def test_g2_even_weight_usage_error():
    code, _, err = run_cli("g2", "--k", "1", "1", "1", "1", "1", "1")
    assert code == 2
    assert "weight must be odd" in err


def test_table_record_counts():
    code, out, _ = run_cli("table", "--weight", "5", "--pairs", "1,1",
                           "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6            # compositions of 5 into 3 parts
    assert all(r["passed"] for r in records)
    ks = [tuple(r["request"]["k"]) for r in records]
    assert len(set(ks)) == 6 and all(sum(k) == 5 for k in ks)

    code, out, _ = run_cli("table", "--weight", "5", "--pairs", "1,1", "2,3",
                           "--format", "json")
    assert code == 0
    assert len(out.splitlines()) == 12


def test_table_validation():
    # each request's own rule, or argparse's for a malformed pair
    for weight, pair, message in [
            ("4", "1,1", "weight must be odd"),
            ("1", "1,1", "weight must be >= 3"),
            ("-3", "1,1", "weight must be >= 3"),
            ("5", "1;1", "argument --pairs: invalid pair value: '1;1'"),
            ("5", "1,2,3", "argument --pairs: invalid pair value: '1,2,3'"),
            ("5", "0,1", "all of a, b, k1, k2, k3 must be integers >= 1")]:
        code, out, err = run_cli("table", "--weight", weight, "--pairs", pair)
        assert (code, out) == (2, ""), (weight, pair)
        assert message in err, (weight, pair)


def test_table_rows_share_the_eval_record_fields():
    code, out, _ = run_cli("table", "--weight", "5", "--pairs", "1,1", "2,3",
                           "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 12
    for row in rows:
        req = row["request"]
        code, out, _ = run_cli("eval", "--a", str(req["a"]), "--b",
                               str(req["b"]), "--k", *map(str, req["k"]),
                               "--verify", "--format", "json")
        assert code == 0
        record = json.loads(out)
        for key in ("request", "result", "text", "check"):
            assert row[key] == record[key], key


def test_table_has_no_latex_format():
    code, out, err = run_cli("table", "--weight", "5", "--pairs", "1,1",
                             "--format", "latex")
    assert code == 2
    assert out == "" and "invalid choice: 'latex'" in err


def test_table_weight_three():
    code, out, _ = run_cli("table", "--weight", "3", "--pairs", "1,1", "1,2",
                           "2,3", "--format", "json")
    assert code == 0
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 3 and all(r["passed"] for r in records)
    assert records[0]["request"] == {"a": 1, "b": 1, "k": [1, 1, 1]}
    assert records[0]["text"] == "2ζ(3)"


def test_table_text_rows():
    code, out, _ = run_cli("table", "--weight", "3", "--pairs", "1,1", "2,3")
    assert code == 0
    assert out.splitlines() == [
        "ok  a=1 b=1 k=(1, 1, 1): 2ζ(3)",
        "ok  a=2 b=3 k=(1, 1, 1): 37/72 ζ(3) + 1/6 πS_2(1/3)",
    ]


@pytest.mark.parametrize("oracle,code,row", [
    (wrong_oracle, 3, "FAIL a=1 b=1 k=(1, 1, 1): 2ζ(3)"),
    (broken_oracle, 1, "FAIL a=1 b=1 k=(1, 1, 1): broken oracle invariant"),
])
def test_table_text_failure_rows(monkeypatch, oracle, code, row):
    monkeypatch.setattr(numeric, "lattice_sum", oracle)
    got, out, _ = run_cli("table", "--weight", "3", "--pairs", "1,1")
    assert got == code
    assert out.splitlines() == [row]


def test_table_reports_per_record_failure(monkeypatch):
    monkeypatch.setattr(numeric, "lattice_sum", wrong_oracle)
    code, out, _ = run_cli("table", "--weight", "5", "--pairs", "1,1",
                           "--format", "json")
    assert code == 3
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 6 and not any(r["passed"] for r in records)


def test_precision_env_default(monkeypatch):
    monkeypatch.setenv("TORNHEIM_PREC", "45")
    code, out, _ = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3",
                           "--format", "json", "--verify")
    assert code == 0
    assert json.loads(out)["check"]["digits"] == 45


def test_bad_precision_env_is_usage_error(monkeypatch):
    monkeypatch.setenv("TORNHEIM_PREC", "abc")
    code, _, err = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3")
    assert code == 2
    assert "TORNHEIM_PREC" in err


def test_insufficient_precision_is_usage_error():
    code, _, err = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3",
                           "--prec", "12")
    assert code == 2
    assert "guard digits" in err


@pytest.mark.parametrize("digits,code", [("19", 2), ("20", 0)])
def test_precision_floor_follows_the_tolerance(digits, code):
    # digits >= ceil(-log10 tol) + 10: 20 at the default tolerance 1e-10
    got, _, err = run_cli("eval", "--a", "1", "--b", "1", "--k", "1", "1", "3",
                          "--verify", "--prec", digits)
    assert got == code
    assert ("need >= 20" in err) == (code == 2)


def run_child(*argv):
    return subprocess.run([sys.executable, *argv],
                          capture_output=True, text=True, env=child_env())


def test_console_entry_point():
    proc = run_child("-m", "tornheim.cli", "--version")
    assert proc.returncode == 0
    assert proc.stdout.strip() == __version__


def test_json_requests_load_no_hashlib_or_dataclasses():
    # the ruleset hash is a constant, so no request pulls in OpenSSL; the
    # value types are named tuples, so none pulls in dataclasses and the
    # inspect, ast, dis and tokenize modules that it loads
    script = (
        "import sys\n"
        "from tornheim.cli import main\n"
        "codes = [main(['eval', '--a', '1', '--b', '2', '--k', '1', '1', '3',\n"
        "               '--verify', '--format', 'json']),\n"
        "         main(['g2', '--k', '1', '1', '1', '1', '1', '2',\n"
        "               '--format', 'json']),\n"
        "         main(['table', '--weight', '5', '--pairs', '1,1',\n"
        "               '--format', 'json'])]\n"
        "print(codes, sorted({'hashlib', '_hashlib', 'dataclasses', 'inspect',\n"
        "                     'ast', 'dis', 'tokenize'} & set(sys.modules)))\n")
    proc = run_child("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 0, 0] []"


def test_missing_subcommand_is_usage_error():
    assert run_cli()[0] == 2


@pytest.mark.parametrize("argv", [
    ("eval", "--a", "1", "--b", "2", "--k", "1", "1", "3", "--verify",
     "--format", "json"),
    ("g2", "--k", "2", "1", "1", "1", "1", "1", "--show-reduction",
     "--format", "json"),
    ("table", "--weight", "5", "--pairs", "1,1", "--format", "json"),
], ids=lambda argv: argv[0])
def test_requests_leave_no_cyclic_garbage(argv):
    # the parser is built once per process, not once per request
    assert run_cli(*argv)[0] == 0
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert run_cli(*argv)[0] == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_eval_and_table_leave_the_closed_form_memo_alone():
    # the memo holds reduced terms of G2 requests only; (1,4) and (2,5)
    # are no G2 pairs, so no earlier request put their terms there
    memo = dict(g2._closed_forms)
    assert run_cli("eval", "--a", "1", "--b", "4", "--k", "1", "1", "3",
                   "--verify")[0] == 0
    assert run_cli("table", "--weight", "5", "--pairs", "2,5",
                   "--format", "json")[0] == 0
    assert g2._closed_forms == memo


@pytest.mark.parametrize("unbuffered,rows_read,argv", [
    # `| head -1`: 22 kB of rows fill the 8 kB pipe buffer more than
    # twice, so a buffered stdout also writes again after the close
    (True, 1, ("--weight", "7", "--pairs", "1,1", "1,2")),
    (False, 1, ("--weight", "7", "--pairs", "1,1", "1,2")),
    # a reader gone before the first row: 4 kB stay buffered until the
    # last flush, which fails and leaves them for the exit flush
    (False, 0, ("--weight", "5", "--pairs", "1,1")),
], ids=["unbuffered", "buffered", "closed-before-output"])
def test_closed_stdout_exits_one_without_a_traceback(unbuffered, rows_read,
                                                     argv):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "tornheim.cli", "table", *argv,
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    for _ in range(rows_read):
        assert json.loads(proc.stdout.readline())["passed"]
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "Exception ignored" not in err


def readme_console_examples():
    """(argv, expected lines, whole) per `$ tornheim ...` line of the
    README's console blocks; a block ending in `...` shows a prefix."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    examples = []
    for block in re.findall(r"```console\n(.*?)```", readme, re.S):
        for chunk in re.split(r"^\$ ", block, flags=re.M)[1:]:
            command, *lines = chunk.strip().splitlines()
            whole = lines[-1:] != ["..."]
            examples.append(pytest.param(
                shlex.split(command)[1:], lines if whole else lines[:-1],
                whole, id=command))
    return examples


@pytest.mark.parametrize("argv,want,whole", readme_console_examples())
def test_readme_console_examples(argv, want, whole):
    code, out, _ = run_cli(*argv)
    got = out.splitlines()
    assert code == 0
    assert (got if whole else got[:len(want)]) == want


@pytest.mark.xfail(strict=True, reason="cancellation among the closed "
                   "form's terms exceeds its ten guard digits")
@pytest.mark.parametrize("argv", [
    ("eval", "--a", "8", "--b", "7", "--k", "1", "1", "23", "--verify",
     "--prec", "45", "--tol", "1e-35"),
    ("g2", "--k", "1", "2", "4", "7", "10", "1", "--prec", "45",
     "--tol", "1e-35"),
], ids=lambda argv: argv[0])
def test_exact_forms_pass_at_45_digits(argv):
    assert run_cli(*argv)[0] == 0
