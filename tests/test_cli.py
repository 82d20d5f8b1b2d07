import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pivotkit import classify, cli, matrixio

A3_TEXT = "3\n1 2 1\n1 1 0\n2 8 1\n"
T_TEXT = "3\n0 1.5 0.25\n1.5 0 2.5\n0.5 0.5 0\n"
SYS_TEXT = "3\n1 -1.5 -0.25\n-1.5 1 -2.5\n-0.5 -0.5 1\n"
ONES_TEXT = "1\n1\n1\n"
D23_TEXT = "2\n2 0\n0 3\n"
I3_TEXT = "3\n1 0 0\n0 1 0\n0 0 1\n"
ZMAT_TEXT = "2\n3 -1\n-1 2\n"

PPT_13_GOLDEN = "3\n-1 -6 1\n-1 -5 1\n2 4 -1\n"

EIG_T_GOLDEN = (
    "coeff 0 -2.0625\n"
    "coeff 1 -3.625\n"
    "coeff 2 0\n"
    "coeff 3 1\n"
    "root 1 -1.5 0\n"
    "root 2 -0.641941090708 0\n"
    "root 3 2.14194109071 0\n"
    "spectral_radius 2.14194109071\n")

EIG_T12_GOLDEN = (
    "coeff 0 0\n"
    "coeff 1 0.166666666667\n"
    "coeff 2 0.916666666667\n"
    "coeff 3 1\n"
    "root 1 -0.666666666667 0\n"
    "root 2 -0.25 0\n"
    "root 3 0 0\n"
    "spectral_radius 0.666666666667\n")

EIG_D23_GOLDEN = (
    "coeff 0 6\n"
    "coeff 1 -5\n"
    "coeff 2 1\n"
    "root 1 2 0\n"
    "root 2 3 0\n"
    "spectral_radius 3\n")

SOLVE_DIVERGE_GOLDEN = (
    "converged false\n"
    "iterations 36\n"
    "rho_estimate 2.141950931\n"
    "x 1 767901265823.65356\n"
    "x 2 1026713938317.373\n"
    "x 3 418922633289.98401\n")

SOLVE_PIVOT_GOLDEN = (
    "converged true\n"
    "iterations 65\n"
    "rho_estimate 0.666665899953\n"
    "x 1 -1.1466666666615093\n"
    "x 2 -1.3866666666718239\n"
    "x 3 -0.26666666666666661\n")

SORTH_GOLDEN = (
    "4\n"
    "-0.23786971697260001 1.4581832130681063 1.0678526927876189"
    " -0.20632719557169951\n"
    "-2.0871329320037049 -1.4733001149056342 -1.8316560691592649"
    " -1.473693709271831\n"
    "-1.2530721404511902 -0.22545921269748276 -0.33479096073311726"
    " -1.5839623285850246\n"
    "-1.3573931224711873 -1.8016880015320114 -2.3201698950277616"
    " -0.83988535051122137\n"
    "residual 1.44328993201e-15\n")


@pytest.fixture
def files(tmp_path):
    def put(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return put


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_ppt_golden(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, err = run_cli(capsys, "ppt", a3, "--alpha", "1,3")
    assert (code, err) == (0, "")
    assert out == PPT_13_GOLDEN


def test_ppt_empty_alpha_round_trips(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "ppt", a3, "--alpha", "empty")
    assert code == 0
    assert out == A3_TEXT


def test_ppt_output_file(files, tmp_path, capsys):
    a3 = files("a3.mat", A3_TEXT)
    dest = tmp_path / "out.mat"
    code, out, err = run_cli(capsys, "ppt", a3, "--alpha", "1,3",
                             "-o", str(dest))
    assert (code, out, err) == (0, "", "")
    assert dest.read_text() == PPT_13_GOLDEN


def test_ppt_all_matches_invert(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, full, _ = run_cli(capsys, "ppt", a3, "--alpha", "all")
    assert code == 0
    code, seq, _ = run_cli(capsys, "invert", a3)
    assert code == 0
    np.testing.assert_allclose(matrixio.parse_matrix(full),
                               matrixio.parse_matrix(seq), atol=1e-12)


def test_invert_flops_trailer(files, capsys, worked_inverse):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "invert", a3, "--flops")
    assert code == 0
    matrix_part, trailer = out.split("predicted_ppt_flops", 1)
    np.testing.assert_allclose(matrixio.parse_matrix(matrix_part),
                               worked_inverse, atol=1e-12)
    assert ("predicted_ppt_flops" + trailer ==
            "predicted_ppt_flops 13\npredicted_lu_flops 23\nmeasured_flops 13\n")


def test_invert_partition(files, capsys, worked_inverse):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "invert", a3, "--partition", "1,3;2")
    assert code == 0
    np.testing.assert_allclose(matrixio.parse_matrix(out), worked_inverse,
                               atol=1e-12)


def test_invert_rejects_bad_partition(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, _, err = run_cli(capsys, "invert", a3, "--partition", "1/2/3")
    assert code == 2
    assert "cannot parse index set" in err


def test_eig_golden(files, capsys):
    t = files("t.mat", T_TEXT)
    code, out, _ = run_cli(capsys, "eig", t)
    assert code == 0
    assert out == EIG_T_GOLDEN


def test_eig_with_alpha_golden(files, capsys):
    t = files("t.mat", T_TEXT)
    code, out, _ = run_cli(capsys, "eig", t, "--alpha", "1,2")
    assert code == 0
    assert out == EIG_T12_GOLDEN


def test_eig_diagonal_golden(files, capsys):
    d = files("d.mat", D23_TEXT)
    code, out, _ = run_cli(capsys, "eig", d)
    assert code == 0
    assert out == EIG_D23_GOLDEN


def test_solve_divergence_exit_code(files, capsys):
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("b.vec", ONES_TEXT)
    code, out, err = run_cli(capsys, "solve", mat, rhs, "--alpha", "none")
    assert code == 3
    assert out == SOLVE_DIVERGE_GOLDEN
    assert err == "error: iteration did not converge\n"


def test_solve_with_pivot_golden(files, capsys):
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("b.vec", ONES_TEXT)
    code, out, err = run_cli(capsys, "solve", mat, rhs, "--alpha", "1,2")
    assert (code, err) == (0, "")
    assert out == SOLVE_PIVOT_GOLDEN
    x = np.array([float(line.split()[2]) for line in out.splitlines()
                  if line.startswith("x ")])
    a = matrixio.parse_matrix(SYS_TEXT)
    b = np.ones(3)
    assert np.abs(a @ x - b).max() <= 10 * 1e-10 * np.abs(b).max()


def test_solve_auto_exhaustive_reports_alpha(files, capsys):
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("b.vec", ONES_TEXT)
    code, out, _ = run_cli(capsys, "solve", mat, rhs,
                           "--alpha", "auto-exhaustive")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "converged true"
    assert "alpha 1,2" in lines
    assert out.replace("alpha 1,2\n", "") == SOLVE_PIVOT_GOLDEN


def test_solve_auto_greedy_stalls_here(files, capsys):
    # greedy augmentation cannot leave the empty set on this system, so the
    # plain iteration runs and diverges
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("b.vec", ONES_TEXT)
    code, out, err = run_cli(capsys, "solve", mat, rhs, "--alpha", "auto-greedy")
    assert code == 3
    assert "alpha empty" in out.splitlines()
    assert err == "error: iteration did not converge\n"


def test_check_p_negative(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "check", a3, "p")
    assert code == 4
    assert out == "class p\nverdict false\nwitness 1,2\n"


def test_check_p_positive(files, capsys):
    i3 = files("i3.mat", I3_TEXT)
    code, out, _ = run_cli(capsys, "check", i3, "p")
    assert code == 0
    assert out == "class p\nverdict true\n"


def test_check_p_of_a_large_norm_matrix(files, capsys):
    a = 1e40 * classify.random_p_matrix(12, 1)
    text = "12\n" + "".join(" ".join(map(repr, row)) + "\n" for row in a.tolist())
    code, out, _ = run_cli(capsys, "check", files("big.mat", text), "p")
    assert code == 0
    assert out == "class p\nverdict true\n"


def test_check_z_both_ways(files, capsys):
    z = files("z.mat", ZMAT_TEXT)
    code, out, _ = run_cli(capsys, "check", z, "z")
    assert (code, out) == (0, "class z\nverdict true\n")
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "check", a3, "z")
    assert (code, out) == (4, "class z\nverdict false\n")


def test_check_semipositive_with_witness(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "check", a3, "semipositive")
    assert code == 0
    assert out == "class semipositive\nverdict true\nwitness 1 1 1\n"
    neg = files("neg.mat", "2\n-1 0\n0 -1\n")
    code, out, _ = run_cli(capsys, "check", neg, "semipositive")
    assert code == 4
    assert out == "class semipositive\nverdict false\n"


def test_sorth_golden(files, capsys):
    code, out, err = run_cli(capsys, "sorth", "++--", "--seed", "5")
    assert (code, err) == (0, "")
    assert out == SORTH_GOLDEN
    matrix_part, trailer = out.rsplit("residual", 1)
    q = matrixio.parse_matrix(matrix_part)
    s = np.diag([1.0, 1.0, -1.0, -1.0])
    assert np.abs(q.T @ s @ q - s).max() <= 1e-8 * 4


def test_sorth_all_minus_signature(capsys):
    # an all-minus signature must follow the "--" option terminator
    code, out, err = run_cli(capsys, "sorth", "--seed", "5", "--", "--")
    assert (code, err) == (0, "")
    expected = classify.make_s_orthogonal(
        np.array([-1.0, -1.0]), classify.random_orthogonal(2, 5))
    matrix_part, _ = out.rsplit("residual", 1)
    assert matrix_part == matrixio.format_matrix(expected)


def test_sorth_rejects_bad_signature(capsys):
    code, _, err = run_cli(capsys, "sorth", "+x-")
    assert code == 2
    assert err == "error: signature must be a string of '+'/'-', got '+x-'\n"


def test_singular_block_is_exit_one(files, capsys):
    t = files("t.mat", T_TEXT)
    code, _, err = run_cli(capsys, "ppt", t, "--alpha", "1")
    assert code == 1
    assert err == "error: principal block [{1}] is numerically singular\n"


def test_alpha_out_of_range(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, _, err = run_cli(capsys, "ppt", a3, "--alpha", "0,2")
    assert code == 2
    assert err == "error: index 0 out of range 1..3\n"
    code, _, err = run_cli(capsys, "ppt", a3, "--alpha", "1,4")
    assert code == 2
    assert err == "error: index 4 out of range 1..3\n"


def test_missing_file_is_exit_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "ppt", str(tmp_path / "nope.mat"),
                           "--alpha", "1")
    assert code == 2
    assert "No such file" in err


def test_malformed_matrix_reports_position(files, capsys):
    bad = files("bad.mat", "3\n1 2 1\n1 x 0\n2 8 1\n")
    code, _, err = run_cli(capsys, "ppt", bad, "--alpha", "1")
    assert code == 2
    assert err == "error: line 3, column 3: cannot parse 'x' as a number\n"


def test_truncated_matrix_reports_position(files, capsys):
    short = files("short.mat",
                  "# five lines of text\n# but only two rows\n3\n1 2 1\n1 1 0\n")
    code, _, err = run_cli(capsys, "ppt", short, "--alpha", "1")
    assert code == 2
    assert err == "error: line 6, column 0: expected 3 rows, found 2\n"


def test_short_rhs_is_exit_two(files, capsys):
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("short.vec", "1\n1\n")
    code, _, err = run_cli(capsys, "solve", mat, rhs)
    assert code == 2
    assert err == "error: expected a vector of length 3, got 2\n"


@pytest.mark.parametrize("limit", [("--tol", "nan"), ("--tol", "-1"),
                                   ("--tol", "inf"), ("--max-iter", "-5")],
                         ids=["tol-nan", "tol-negative", "tol-inf", "max-iter-negative"])
def test_solve_rejects_a_limit_it_cannot_use(files, capsys, limit):
    mat = files("sys.mat", SYS_TEXT)
    rhs = files("b.vec", ONES_TEXT)
    code, out, err = run_cli(capsys, "solve", mat, rhs, "--alpha",
                             "auto-exhaustive", *limit)
    assert (code, out) == (2, "")
    assert err.startswith("error: " + limit[0][2:].replace("-", "_") + " must be")


def test_unknown_subcommand_is_exit_two(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, _, err = run_cli(capsys, "frobnicate", a3)
    assert code == 2
    assert "invalid choice" in err


REPO = Path(__file__).resolve().parents[1]


def console_script_target():
    """The ``module:function`` that pyproject.toml's ``[project.scripts]``
    declares for ``pivotkit``; read line by line, since ``tomllib`` only exists
    from Python 3.11 and the package supports 3.10."""
    section = None
    for line in (REPO / "pyproject.toml").read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            section = line
        elif section == "[project.scripts]":
            key, _, value = line.partition("=")
            if key.strip() == "pivotkit":
                return value.strip().strip("\"'")
    raise LookupError("no [project.scripts] entry for pivotkit")


def run_entry_point(*argv):
    """Run the declared entry point in a fresh interpreter the way the
    generated console-script wrapper does, importing the source tree."""
    module, function = console_script_target().split(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    code = f"import sys; from {module} import {function}; sys.exit({function}())"
    return subprocess.run([sys.executable, "-c", code, *argv],
                          capture_output=True, text=True, env=env)


def test_console_script_end_to_end(files, tmp_path):
    d = files("d.mat", D23_TEXT)
    proc = run_entry_point("eig", d)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == EIG_D23_GOLDEN
    # the wrapper must pass main()'s status through as the process's own
    proc = run_entry_point("eig", str(tmp_path / "nope.mat"))
    assert proc.returncode == 2
    assert "No such file" in proc.stderr


@pytest.mark.skipif(shutil.which("pivotkit") is None,
                    reason="pivotkit console script not installed")
def test_installed_console_script(files):
    d = files("d.mat", D23_TEXT)
    proc = subprocess.run([shutil.which("pivotkit"), "eig", d],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == EIG_D23_GOLDEN


# the parser is built once per process; no call may leave state in it

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_flops_flag_does_not_outlive_its_call(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, _ = run_cli(capsys, "invert", a3, "--flops")
    assert code == 0 and "measured_flops" in out
    code, out, err = run_cli(capsys, "invert", a3)
    assert (code, err) == (0, "")
    assert "flops" not in out
    assert matrixio.parse_matrix(out).shape == (3, 3)


def test_output_file_does_not_outlive_its_call(files, tmp_path, capsys):
    a3 = files("a3.mat", A3_TEXT)
    dest = tmp_path / "first.mat"
    code, out, _ = run_cli(capsys, "ppt", a3, "--alpha", "1,3", "-o", str(dest))
    assert (code, out) == (0, "")
    dest.unlink()
    code, out, err = run_cli(capsys, "ppt", a3, "--alpha", "1,3")
    assert (code, out, err) == (0, PPT_13_GOLDEN, "")
    assert not dest.exists()


def test_usage_error_does_not_outlive_its_call(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, err = run_cli(capsys, "ppt", a3)  # --alpha is required
    assert (code, out) == (2, "")
    assert "the following arguments are required: --alpha" in err
    code, out, err = run_cli(capsys, "ppt", a3, "--alpha", "1,3")
    assert (code, out, err) == (0, PPT_13_GOLDEN, "")


def test_help_is_the_same_every_time(capsys):
    first = run_cli(capsys, "--help")
    second = run_cli(capsys, "--help")
    assert first == second
    assert first[0] == 0 and first[1].startswith("usage: pivotkit")


def test_invert_rejects_an_empty_partition(files, capsys):
    a3 = files("a3.mat", A3_TEXT)
    code, out, err = run_cli(capsys, "invert", a3, "--partition", ";")
    assert (code, out) == (2, "")
    assert "empty partition specification" in err


def test_eig_alpha_when_the_minors_dwarf_the_transform(files, capsys):
    # -1e4 * ones(8, 8) but for a[1, 7] = a[7, 1] = 0: the transform on
    # {1, 7, 8} has spectral radius 2.2360679730276537 (mpmath, 50 digits)
    a = -1e4 * np.ones((8, 8))
    a[0, 6] = a[6, 0] = 0.0
    path = files("big.mat", matrixio.format_matrix(a))
    code, out, err = run_cli(capsys, "eig", path, "--alpha", "1,7,8")
    assert (code, err) == (0, "")
    radius = float(out.splitlines()[-1].split()[1])
    assert abs(radius - 2.2360679730276537) <= 1e-6 * 2.2360679730276537
