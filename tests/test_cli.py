import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gpdecomp import bounds as bounds_mod, theorem1_coefficient
from gpdecomp.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_construct_baseline_and_verify(tmp_path, capsys):
    out = tmp_path / "dec.gpd"
    code, stdout, _ = run(capsys, "construct", "--method", "baseline",
                          "--n", "7", "--r", "5", "--out", str(out))
    assert code == 0
    assert "6 pieces" in stdout
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 0
    assert stdout.startswith("VALID")


def test_construct_theorem1_prints_tally(tmp_path, capsys):
    out = tmp_path / "t1.gpd"
    code, stdout, _ = run(capsys, "construct", "--method", "theorem1",
                          "--n", "3", "--k", "3", "--r", "5", "--out", str(out))
    assert code == 0
    assert "27 pieces" in stdout
    assert "paired-2s family:  12" in stdout
    assert "2s-plus-3 family:  12" in stdout
    assert "generic family:    3" in stdout
    code, _, _ = run(capsys, "verify", str(out))
    assert code == 0


def test_construct_rejects_even_r_for_theorem1(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--method", "theorem1",
                       "--n", "3", "--k", "3", "--r", "4",
                       "--out", str(tmp_path / "x.gpd"))
    assert code == 3
    assert "odd" in err


def test_construct_rejects_odd_r_for_even_from_odd(tmp_path, capsys):
    code, _, err = run(capsys, "construct", "--method", "even-from-odd",
                       "--n", "6", "--r", "5", "--out", str(tmp_path / "x.gpd"))
    assert code == 3
    assert "even" in err


def test_construct_even_from_odd(tmp_path, capsys):
    out = tmp_path / "e.gpd"
    code, _, _ = run(capsys, "construct", "--method", "even-from-odd",
                     "--n", "6", "--r", "4", "--out", str(out))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(out))
    assert code == 0


def test_verify_detects_deleted_line(tmp_path, capsys):
    out = tmp_path / "d.gpd"
    run(capsys, "construct", "--method", "stars", "--n", "6", "--out", str(out))
    lines = out.read_text().split("\n")
    # drop one piece line and fix the header count
    lines[1] = "n 6 r 2 pieces 4"
    del lines[2]
    out.write_text("\n".join(lines))
    code, stdout, _ = run(capsys, "verify", str(out))
    assert code == 1
    assert "INVALID" in stdout
    assert "witness" in stdout


def test_verify_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.gpd"
    bad.write_text("not a decomposition\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "parse error" in err


def test_verify_wrong_part_count_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "arity.gpd"
    bad.write_text("GPD 1\nn 3 r 2 pieces 1\n0 | 1 | 2\n")
    code, stdout, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "parse error" in err and "piece 0 has 3 parts, expected 2" in err
    assert stdout == ""


def test_exact_command(tmp_path, capsys):
    code, stdout, _ = run(capsys, "exact", "--n", "5", "--r", "2")
    assert code == 0
    assert "f_2(5) = 4" in stdout
    code, stdout, _ = run(capsys, "exact", "--n", "6", "--r", "3")
    assert code == 0
    assert "f_3(6) = 4" in stdout
    code, stdout, _ = run(capsys, "exact", "--n", "4", "--r", "4")
    assert code == 0
    assert "f_4(4) = 1" in stdout


def test_exact_budget_exhaustion_exit_code(capsys):
    # (6,4): the certified floor, 4, is below the baseline's 6, so the
    # search runs into the budget.
    code, stdout, _ = run(capsys, "exact", "--n", "6", "--r", "4", "--max-nodes", "5")
    assert code == 4
    assert "budget exhausted" in stdout
    assert "interval" in stdout


def test_exact_refuses_over_cap_before_the_floor(capsys, monkeypatch):
    # The refusal comes before the floor and the baseline seed, which at
    # (40, 20) would have C(30, 10) pieces; a regression fails here instead.
    def refuse(*args):
        raise AssertionError("work done before the soft-cap check")

    monkeypatch.setattr("gpdecomp.exact.lower_bound", refuse)
    monkeypatch.setattr("gpdecomp.exact.construct_baseline", refuse)
    code, stdout, err = run(capsys, "exact", "--n", "40", "--r", "20")
    assert (code, stdout) == (3, "")
    assert err == "error: n=40 exceeds soft cap 9 (pass --allow-large to run it anyway)\n"


@pytest.mark.parametrize(
    "n,r,line",
    [
        ("8", "3", "f_3(8) = 6  (link bound, 0 nodes)"),
        ("9", "7", "f_7(9) = 9  (trivial bound, 51 nodes)"),
        ("6", "4", "f_4(6) = 6  (branch-and-bound, 5874 nodes)"),
    ],
)
def test_exact_reports_how_the_optimum_was_proved(capsys, n, r, line):
    code, stdout, _ = run(capsys, "exact", "--n", n, "--r", r)
    assert (code, stdout) == (0, line + "\n")


def test_exact_budget_line_names_the_lower_end(capsys):
    code, stdout, _ = run(capsys, "exact", "--n", "8", "--r", "4", "--max-nodes", "1000")
    assert code == 4
    assert stdout == ("budget exhausted after 1001 nodes; best interval [7, 15] "
                      "(lower end: inertia bound)\n")


@pytest.mark.parametrize(
    "args,lines",
    [
        (["--n", "8", "--r", "3"],
         ["f_exact=6", "pieces=6", "lower_bound=6", "lower_kind=link", "nodes=0"]),
        (["--n", "6", "--r", "4"],
         ["f_exact=6", "pieces=6", "lower_bound=6", "lower_kind=bnb", "nodes=5874"]),
        (["--n", "8", "--r", "4", "--max-nodes", "1000"],
         ["pieces=15", "lower_bound=7", "lower_kind=inertia", "nodes=1001"]),
    ],
)
def test_exact_porcelain_lower_kind(capsys, args, lines):
    _, stdout, _ = run(capsys, "exact", *args, "--porcelain")
    assert stdout.splitlines() == lines


def test_exact_porcelain_proved_run_prints_nodes_and_lower_bound(capsys):
    # The search stops at its first incumbent on the trivial floor.
    code, stdout, _ = run(capsys, "exact", "--n", "9", "--r", "7", "--porcelain")
    assert code == 0
    assert stdout.splitlines() == [
        "f_exact=9", "pieces=9", "lower_bound=9", "lower_kind=trivial", "nodes=51"]


def test_exact_porcelain_capped_run_prints_its_interval(capsys):
    # No f_exact line: the interval is [lower_bound, pieces].
    code, stdout, _ = run(capsys, "exact", "--n", "7", "--r", "4", "--max-nodes", "100000",
                          "--porcelain")
    assert code == 4
    assert stdout.splitlines() == [
        "pieces=10", "lower_bound=5", "lower_kind=trivial", "nodes=100001"]


def test_exact_writes_witness(tmp_path, capsys):
    out = tmp_path / "w.gpd"
    code, _, _ = run(capsys, "exact", "--n", "5", "--r", "2", "--out", str(out))
    assert code == 0
    code, _, _ = run(capsys, "verify", str(out))
    assert code == 0


def test_exact_porcelain(capsys):
    code, stdout, _ = run(capsys, "exact", "--n", "5", "--r", "2", "--porcelain")
    assert code == 0
    assert "f_exact=4" in stdout.split("\n")


def test_bounds_scan(capsys):
    code, stdout, _ = run(capsys, "bounds", "--scan-range", "145:149")
    assert code == 0
    assert "threshold d = 147, uniformity r = 295" in stdout


def test_bounds_scan_porcelain(capsys):
    code, stdout, _ = run(capsys, "bounds", "--scan-range", "146:148", "--porcelain")
    assert code == 0
    assert stdout == "threshold_d=147\n"


def test_bounds_report(capsys):
    code, stdout, _ = run(capsys, "bounds", "--d", "2", "--k", "10")
    assert code == 0
    assert "44/15" in stdout
    assert "1/5" in stdout  # epsilon_k = 2! * 1 / 10


def test_bounds_porcelain_coefficient(capsys):
    code, stdout, _ = run(capsys, "bounds", "--d", "2", "--k", "10", "--porcelain")
    assert code == 0
    lines = stdout.split("\n")
    assert "coefficient_num=44" in lines
    assert "coefficient_den=15" in lines


def test_bounds_r295(capsys):
    code, stdout, _ = run(capsys, "bounds", "--r", "295")
    assert code == 0
    line = next(l for l in stdout.split("\n") if l.startswith("coefficient < 1"))
    assert line.endswith("yes")


def exact_str(x):
    """str(x) with Python's int-to-str digit limit lifted for the call."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is None:
        return str(x)
    sys.set_int_max_str_digits(0)
    try:
        return str(x)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.fixture
def default_digit_limit():
    """Python's default int-to-str digit limit (4300) for one test, whatever
    an earlier test left; None where Python has no limit."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield None
        return
    before = get_limit()
    sys.set_int_max_str_digits(4300)
    try:
        yield 4300
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("d", [1546, 2000])
def test_bounds_report_prints_past_the_digit_limit(capsys, default_digit_limit, d):
    # From d = 1546 on epsilon_k = d!*C'/k has more than 4300 digits, past
    # the default int-to-str limit; the report prints every row exactly and
    # leaves the limit as it found it.
    get_limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    limit = default_digit_limit
    rep = theorem1_coefficient(d, 10)
    assert len(exact_str(rep.epsilon_k.numerator)) > 4300
    code, stdout, err = run(capsys, "bounds", "--d", str(d), "--k", "10")
    assert (code, err) == (0, "")
    assert get_limit() == limit
    rows = dict(line.split("  ", 1) for line in stdout.splitlines())
    rows = {name.strip(): value.strip() for name, value in rows.items()}
    assert len(rows) == 10
    assert rows["C'"] == exact_str(rep.c_prime)
    assert rows["epsilon_k = d!*C'/k"] == exact_str(rep.epsilon_k)
    assert rows["alon lower coefficient"] == exact_str(rep.alon_lower_coefficient)
    assert rows["coefficient"].startswith(exact_str(rep.theorem1_coefficient) + " ~= ")

    code, stdout, err = run(capsys, "bounds", "--d", str(d), "--k", "10", "--porcelain")
    assert (code, err) == (0, "")
    assert get_limit() == limit
    coef = rep.theorem1_coefficient
    assert stdout == (f"coefficient_num={exact_str(coef.numerator)}\n"
                      f"coefficient_den={exact_str(coef.denominator)}\n")


def test_bounds_inconsistent_d_r(capsys):
    code, _, err = run(capsys, "bounds", "--d", "2", "--r", "7")
    assert code == 3
    assert "inconsistent" in err


def test_construct_porcelain(tmp_path, capsys):
    out = tmp_path / "p.gpd"
    code, stdout, _ = run(capsys, "construct", "--method", "baseline",
                          "--n", "6", "--r", "4", "--out", str(out), "--porcelain")
    assert code == 0
    assert stdout.strip() == "pieces=6"


def test_exact_rejects_nonpositive_node_budget(capsys):
    code, _, err = run(capsys, "exact", "--n", "5", "--r", "2", "--max-nodes", "0")
    assert code == 3
    assert err.startswith("error:")


def test_exact_rejects_negative_time_budget(capsys):
    for seconds in ("-1", "nan"):
        code, _, err = run(capsys, "exact", "--n", "5", "--r", "2", "--max-seconds", seconds)
        assert code == 3
        assert err.startswith("error:")


def test_verify_non_utf8_is_parse_error(tmp_path, capsys):
    bad = tmp_path / "latin1.gpd"
    bad.write_bytes(b"GPD 1\nn 2 r 1 pieces 1\n0,1 \xff\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "parse error" in err


@pytest.mark.parametrize("ending", ["\r\n", "\r"], ids=["crlf", "cr-only"])
def test_verify_reads_line_endings_unchanged(tmp_path, capsys, ending):
    # The format allows LF only; a copy with other line endings must reach
    # the parser as it is and fail there, not be read as universal newlines.
    out = tmp_path / "dec.gpd"
    run(capsys, "construct", "--method", "baseline", "--n", "5", "--r", "3", "--out", str(out))
    copy = tmp_path / "copy.gpd"
    copy.write_bytes(out.read_bytes().replace(b"\n", ending.encode()))
    code, stdout, err = run(capsys, "verify", str(copy), "--porcelain")
    assert code == 2
    assert stdout == ""
    assert err == "error: parse error: missing GPD 1 magic line\n"


def _refuse(*args, **kwargs):
    raise AssertionError("the computation started")


@pytest.mark.parametrize("argv", [
    ["--d", "100000"],
    ["--d", "4001", "--k", "10", "--porcelain"],
    ["--r", "8003"],
    ["--scan-range", "1:4001"],
    ["--scan-range", "100000:100000", "--porcelain"],
], ids=["d", "d-porcelain", "r", "scan", "scan-porcelain"])
def test_bounds_refuses_over_cap_up_front(capsys, monkeypatch, argv):
    assert bounds_mod.SOFT_CAP_D == 4000
    for name in ("theorem1_coefficient", "count_c_prime", "base_coefficient", "threshold_d"):
        monkeypatch.setattr(bounds_mod, name, _refuse)
    code, stdout, err = run(capsys, "bounds", *argv)
    assert code == 3
    assert stdout == ""
    assert err.startswith("error: ") and "exceeds soft cap 4000" in err and "--allow-large" in err


def test_bounds_allow_large_lifts_the_cap(capsys, monkeypatch):
    monkeypatch.setattr(bounds_mod, "SOFT_CAP_D", 2)
    assert run(capsys, "bounds", "--d", "3", "--porcelain")[0] == 3
    assert run(capsys, "bounds", "--scan-range", "2:3")[0] == 3
    code, stdout, _ = run(capsys, "bounds", "--d", "3", "--porcelain", "--allow-large")
    assert code == 0 and stdout.startswith("coefficient_num=")
    code, stdout, _ = run(capsys, "bounds", "--scan-range", "2:3", "--allow-large")
    assert code == 0 and stdout.startswith("d=2 ")
    # At the cap itself nothing is refused.
    assert run(capsys, "bounds", "--d", "2", "--porcelain")[0] == 0
    assert run(capsys, "bounds", "--scan-range", "1:2", "--porcelain")[0] == 0


def test_bounds_scan_rejects_d_below_one(capsys):
    code, stdout, err = run(capsys, "bounds", "--scan-range", "0:1")
    assert code == 3
    assert err.startswith("error:")
    assert stdout == ""


def test_bounds_scan_rejects_reversed_range(capsys):
    code, stdout, err = run(capsys, "bounds", "--scan-range", "5:2")
    assert code == 3
    assert err.startswith("error:")
    assert stdout == ""


def test_construct_unwritable_out_is_bad_args(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "x.gpd"
    code, _, err = run(capsys, "construct", "--method", "stars", "--n", "4",
                       "--out", str(out))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("n", ["1", "0"])
def test_construct_stars_below_two_vertices_is_bad_args(tmp_path, n):
    out = tmp_path / "s.gpd"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "gpdecomp", "construct", "--method", "stars", "--n", n,
         "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == f"error: need 1 <= r <= n, got n={n}, r=2\n"
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["baseline", "--n", "5", "--r", "-1"], "need 1 <= r <= n, got n=5, r=-1"),
    (["baseline", "--n", "5", "--r", "9"], "need 1 <= r <= n, got n=5, r=9"),
    (["even-from-odd", "--n", "5", "--r", "-2"], "r must be even and >= 2"),
    (["theorem1", "--n", "3", "--k", "3", "--r", "-1"], "r must be odd and >= 3"),
], ids=["baseline-negative-r", "baseline-r-above-n", "even-from-odd-negative-r",
        "theorem1-negative-r"])
def test_construct_r_outside_the_ground_set_gets_the_construction_refusal(tmp_path, capsys,
                                                                          argv, message):
    # The soft cap takes C(n, r) only for 0 <= r <= n, so a bad r reaches
    # the construction's own refusal.
    out = tmp_path / "x.gpd"
    code, stdout, err = run(capsys, "construct", "--method", *argv, "--out", str(out))
    assert (code, stdout, err) == (3, "", f"error: {message}\n")
    assert not out.exists()


def test_exact_unwritable_out_is_bad_args(tmp_path, capsys):
    out = tmp_path / "no" / "such" / "w.gpd"
    code, _, err = run(capsys, "exact", "--n", "4", "--r", "2", "--out", str(out))
    assert code == 3
    assert err.startswith("error:")


@pytest.mark.parametrize("argv,message", [
    (["exact", "--n", "abc", "--r", "3"], "argument --n: invalid int value: 'abc'"),
    (["exact", "--n", "5"], "the following arguments are required: --r"),
    (["construct", "--method", "nope", "--n", "3", "--out", "x.gpd"],
     "argument --method: invalid choice: 'nope'"),
    (["nope"], "argument command: invalid choice: 'nope'"),
    ([], "the following arguments are required: command"),
], ids=["non-integer", "missing-option", "unknown-method", "unknown-command", "no-command"])
def test_argparse_errors_take_the_bad_argument_path(capsys, argv, message):
    # argparse's own errors are bad arguments like any other: exit 3 and one
    # "error: " line, not SystemExit(2), which is verify's parse-error code.
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout) == (3, "")
    assert err.startswith("error: " + message) and err.count("\n") == 1


@pytest.mark.parametrize("argv,message", [
    (["bounds", "--scan-range", "146:147", "--d", "3", "--porcelain"],
     "--d does not apply with --scan-range"),
    (["bounds", "--scan-range", "146:147", "--r", "7"], "--r does not apply with --scan-range"),
    (["bounds", "--scan-range", "146:147", "--k", "1"], "--k does not apply with --scan-range"),
    (["construct", "--method", "baseline", "--n", "5", "--r", "3", "--k", "4", "--out", "x.gpd"],
     "--k applies to --method theorem1 only, not baseline"),
    (["construct", "--method", "stars", "--n", "4", "--k", "2", "--out", "x.gpd"],
     "--k applies to --method theorem1 only, not stars"),
    (["construct", "--method", "even-from-odd", "--n", "6", "--r", "4", "--k", "2",
      "--out", "x.gpd"], "--k applies to --method theorem1 only, not even-from-odd"),
], ids=["scan-d", "scan-r", "scan-k", "baseline-k", "stars-k", "even-from-odd-k"])
def test_a_flag_the_mode_would_drop_is_refused(tmp_path, capsys, monkeypatch, argv, message):
    # A given flag that the mode ignores is refused, even at its default
    # value, rather than dropped without a word.
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(capsys, *argv)
    assert (code, stdout, err) == (3, "", f"error: {message}\n")
    assert not (tmp_path / "x.gpd").exists()


def test_bounds_k_defaults_to_one(capsys):
    assert run(capsys, "bounds", "--d", "2") == run(capsys, "bounds", "--d", "2", "--k", "1")


@pytest.mark.parametrize("argv", [["--help"], ["exact", "--help"]], ids=["top", "command"])
def test_help_still_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gpdecomp")


def test_python_m_gpdecomp_bad_argument_exits_3():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "gpdecomp", "exact", "--n", "abc", "--r", "3"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "error: argument --n: invalid int value: 'abc'\n"


def test_python_m_gpdecomp_runs_the_cli():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-m", "gpdecomp", "bounds", "--scan-range", "147:147", "--porcelain"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "threshold_d=147\n", "")


# The header alone names n = 20000; the verifier's memory grows as n^2.
HUGE_HEADER = "GPD 1\nn 20000 r 1 pieces 1\n19999\n"


def _refuse_to_verify(*args):
    raise AssertionError("verified before the soft-cap check")


def test_verify_refuses_over_cap_before_verifying(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gpdecomp.cli.verify_decomposition", _refuse_to_verify)
    path = tmp_path / "huge.gpd"
    path.write_text(HUGE_HEADER)
    code, stdout, err = run(capsys, "verify", str(path), "--porcelain")
    assert (code, stdout) == (3, "")
    assert err.startswith("error: n=20000 r=1 exceeds soft cap") and "--allow-large" in err


def test_verify_refuses_too_many_edges(tmp_path, capsys, monkeypatch):
    # n = 60 is under the n cap, but C(60, 7) = 386,206,920 edges is not.
    monkeypatch.setattr("gpdecomp.cli.verify_decomposition", _refuse_to_verify)
    path = tmp_path / "wide.gpd"
    path.write_text("GPD 1\nn 60 r 7 pieces 1\n0 | 1 | 2 | 3 | 4 | 5 | 6\n")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 3 and "C(n, r) <= 20000000" in err


def test_verify_allow_large_lifts_the_cap(tmp_path, capsys):
    path = tmp_path / "huge.gpd"
    path.write_text(HUGE_HEADER)
    code, stdout, _ = run(capsys, "verify", str(path), "--porcelain", "--allow-large")
    assert code == 1
    assert stdout.splitlines() == ["pieces=1", "valid=0"]


_BUILDERS = ("construct_baseline", "construct_theorem1_detailed", "construct_even_from_odd")


@pytest.mark.parametrize("argv,what", [
    (["--method", "baseline", "--n", "60", "--r", "30"], "n=60 r=30"),
    (["--method", "stars", "--n", "2000"], "n=2000 r=2"),
    (["--method", "theorem1", "--n", "300", "--k", "5", "--r", "5"], "n*k=1500 r=5"),
    (["--method", "theorem1", "--n", "20", "--k", "5", "--r", "7"], "n*k=100 r=7"),
    # C(40, 6) = 3,838,380 is under the edge cap; the source's C(41, 7) is not.
    (["--method", "even-from-odd", "--n", "40", "--r", "6"], "source n+1=41 r+1=7"),
], ids=["baseline", "stars", "theorem1-n", "theorem1-edges", "even-from-odd"])
def test_construct_refuses_over_cap_before_building(tmp_path, capsys, monkeypatch, argv, what):
    for name in _BUILDERS:
        monkeypatch.setattr(f"gpdecomp.cli.{name}", _refuse)
    out = tmp_path / "big.gpd"
    code, stdout, err = run(capsys, "construct", *argv, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err == (f"error: {what} exceeds soft cap n <= 1024, C(n, r) <= 20000000 "
                   "(pass --allow-large to run it anyway)\n")
    assert not out.exists()


def test_construct_allow_large_lifts_the_cap(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("gpdecomp.cli.SOFT_CAP_EDGES", 10)
    out = str(tmp_path / "d.gpd")
    # At the cap itself nothing is refused: C(5, 3) = 10.
    assert run(capsys, "construct", "--method", "baseline", "--n", "5", "--r", "3",
               "--out", out, "--porcelain")[:2] == (0, "pieces=3\n")
    assert run(capsys, "construct", "--method", "baseline", "--n", "6", "--r", "3",
               "--out", out)[0] == 3
    # even-from-odd (5, 2) has C(5, 2) = 10 edges but is built from C(6, 3) = 20.
    assert run(capsys, "construct", "--method", "even-from-odd", "--n", "5", "--r", "2",
               "--out", out)[0] == 3
    for argv in (["baseline", "--n", "6", "--r", "3"], ["even-from-odd", "--n", "5", "--r", "2"]):
        code, _, _ = run(capsys, "construct", "--method", *argv, "--out", out, "--allow-large")
        assert code == 0
        assert run(capsys, "verify", out, "--porcelain", "--allow-large")[1].endswith("valid=1\n")


def _readme_cli_lines():
    """The ``gpdecomp ...`` lines of the fenced block under README's ``## CLI``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
    return [line for line in block.splitlines() if line.startswith("gpdecomp ")]


def test_readme_cli_commands_run(tmp_path, capsys, monkeypatch):
    # The documented commands, in order, in one directory: a later line may
    # read a file an earlier one wrote.
    lines = _readme_cli_lines()
    assert len(lines) >= 8
    monkeypatch.chdir(tmp_path)
    for line in lines:
        code, _, err = run(capsys, *shlex.split(line)[1:])
        assert (line, code, err) == (line, 0, "")
