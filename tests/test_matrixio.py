import numpy as np
import pytest

from pivotkit import MatrixFormatError
from pivotkit import matrixio


def test_format_matrix_golden(worked_matrix):
    assert matrixio.format_matrix(worked_matrix) == "3\n1 2 1\n1 1 0\n2 8 1\n"


def test_format_vector_golden():
    assert matrixio.format_vector(np.array([1.0, -2.5, 3.0])) == "1\n-2.5\n3\n"


def test_parse_matrix_skips_comments_and_blanks():
    text = "# header\n\n3\n# rows follow\n1 2 1\n1 1 0\n\n2 8 1\n"
    m = matrixio.parse_matrix(text)
    assert np.array_equal(m, [[1, 2, 1], [1, 1, 0], [2, 8, 1]])


def test_round_trip_is_exact():
    rng = np.random.default_rng(12)
    for _ in range(40):
        n = int(rng.integers(1, 10))
        m = rng.uniform(-1.0, 1.0, (n, n)) * 10.0 ** rng.integers(-300, 300)
        again = matrixio.parse_matrix(matrixio.format_matrix(m))
        assert np.array_equal(m, again)


def test_vector_round_trip_is_exact():
    rng = np.random.default_rng(21)
    v = rng.uniform(-1.0, 1.0, 9) * 10.0 ** rng.integers(-200, 200, 9)
    assert np.array_equal(matrixio.parse_vector(matrixio.format_vector(v)), v)


def test_parse_reports_bad_token_position():
    with pytest.raises(MatrixFormatError) as info:
        matrixio.parse_matrix("2\n1 2\n1 oops\n")
    assert info.value.line == 3
    assert info.value.column == 3


def test_parse_reports_bad_order_line():
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("x\n1\n")
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("0\n")
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("-2\n1 2\n3 4\n")
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2 2\n1 2\n3 4\n")


def test_parse_reports_row_arity():
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2\n1 2 3\n4 5\n")  # too many columns
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2\n1\n2 3\n")  # too few columns


def test_parse_reports_missing_rows():
    with pytest.raises(MatrixFormatError) as info:
        matrixio.parse_matrix("3\n1 2 3\n4 5 6\n")
    assert "expected 3 rows" in str(info.value)


def test_parse_rejects_extra_rows():
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2\n1 2\n3 4\n5 6\n")


def test_parse_rejects_non_finite():
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2\n1 nan\n3 4\n")
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("2\n1 2\ninf 4\n")


def test_parse_rejects_empty_input():
    with pytest.raises(MatrixFormatError):
        matrixio.parse_matrix("# nothing here\n")


def test_parse_vector_errors():
    with pytest.raises(MatrixFormatError) as info:
        matrixio.parse_vector("1.5\nbad\n")
    assert info.value.line == 2
    with pytest.raises(MatrixFormatError):
        matrixio.parse_vector("1 2\n")  # two numbers on one line


def test_file_round_trip(tmp_path, worked_matrix):
    path = tmp_path / "m.mat"
    matrixio.write_matrix(path, worked_matrix)
    assert np.array_equal(matrixio.read_matrix(path), worked_matrix)
    vpath = tmp_path / "v.vec"
    matrixio.write_vector(vpath, np.array([0.1, -0.2]))
    assert np.array_equal(matrixio.read_vector(vpath), [0.1, -0.2])


@pytest.mark.parametrize("text, line, column, message", [
    # nan at row 1, column 3
    ("3\n1 2 nan\n4 5 6\n7 8 9\n", 2, 5, "non-finite value 'nan'"),
    # inf in the first column of a later row, indented
    ("3\n1 2 3\n4 5 6\n  inf 8 9\n", 4, 3, "non-finite value 'inf'"),
    # a literal that overflows to inf
    ("2\n1 1e999\n3 4\n", 2, 3, "non-finite value '1e999'"),
    # a bad token after the first column, past a tab
    ("2\n1 2\n3\t4x\n", 3, 3, "cannot parse '4x' as a number"),
    # one entry too many: the column of the first extra token
    ("3\n1 2 3\n4 5  6 7\n7 8 9\n", 3, 8, "row 2 has 4 entries, expected 3"),
    # one entry too few
    ("3\n1 2 3\n4 5\n7 8 9\n", 3, 0, "row 2 has 2 entries, expected 3"),
    # the first failing row wins over a later one
    ("2\n1 -inf\n1 2 3\n", 2, 3, "non-finite value '-inf'"),
    ("2\nx nan\n1 2\n", 2, 1, "cannot parse 'x' as a number"),
])
def test_parse_matrix_error_positions(text, line, column, message):
    with pytest.raises(MatrixFormatError) as info:
        matrixio.parse_matrix(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


@pytest.mark.parametrize("text, line, column, message", [
    ("1.5\n# note\n  2.5\n 3 x\n", 4, 4, "expected one number per line"),
    ("1\n\n 2e400\n", 3, 2, "non-finite value '2e400'"),
    ("1\n  nope\n", 2, 3, "cannot parse 'nope' as a number"),
    ("", 0, 0, "empty vector file"),
])
def test_parse_vector_error_positions(text, line, column, message):
    with pytest.raises(MatrixFormatError) as info:
        matrixio.parse_vector(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"
