import numpy as np
import pytest

from earlkit.core import (
    DataError,
    Dataset,
    FeatureMap,
    LinearRule,
    ParseError,
    ShapeError,
    apply_rule,
    load_csv,
    save_csv,
    sgn,
)


def test_sgn_zero_is_plus_one():
    assert sgn(0.0) == 1
    assert sgn(-0.0) == 1
    assert list(sgn(np.array([-2.0, 0.0, 3.0]))) == [-1, 1, 1]


def test_apply_rule_zero_rule_returns_plus_one():
    rule = LinearRule.raw(0.0, np.zeros(3))
    assert apply_rule(rule, [5.0, -2.0, 0.3]) == 1


def test_apply_rule_hand_evaluations():
    rule = LinearRule.raw(-0.1, [1.0, 1.0, 0.0])
    # f = -0.1 + 1 + 1 = 1.9
    assert apply_rule(rule, [1.0, 1.0, 0.0]) == 1
    # f = -0.1 - 1 = -1.1
    assert apply_rule(rule, [-1.0, 0.0, 0.0]) == -1


def test_apply_rule_dimension_mismatch():
    rule = LinearRule.raw(0.0, [1.0, 2.0])
    with pytest.raises(ShapeError):
        apply_rule(rule, [1.0, 2.0, 3.0])


def test_rule_scale_covariance_of_sign():
    rng = np.random.default_rng(42)
    for _ in range(50):
        p = int(rng.integers(1, 6))
        rule = LinearRule.raw(rng.normal(), rng.normal(size=p))
        X = rng.normal(size=(20, p))
        base = rule.decide_many(X)
        for c in (1e-3, 0.5, 7.0, 1e4):
            scaled = LinearRule.raw(c * rule.beta0, c * rule.beta)
            assert np.array_equal(scaled.decide_many(X), base)


def test_dataset_invariants():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = Dataset(X, [1, -1], [0.5, -0.5])
    assert d.n == 2 and d.p == 2
    with pytest.raises(DataError):
        Dataset(X, [1, 2], [0.5, -0.5])
    with pytest.raises(DataError):
        Dataset(np.array([[np.nan, 1.0]]), [1], [0.0])
    with pytest.raises(DataError):
        Dataset(X, [1, -1], [np.inf, 0.0])


def test_dataset_is_immutable():
    d = Dataset(np.ones((2, 2)), [1, -1], [0.0, 1.0])
    with pytest.raises(ValueError):
        d.X[0, 0] = 5.0
    with pytest.raises(ValueError):
        d.Y[0] = 5.0


def test_feature_map_design_and_labels():
    fm = FeatureMap(3, (("1",), ("x", 0), ("x2", 1), ("xx", 0, 2), ("a",), ("ax", 1)))
    row = fm.features([2.0, 3.0, 4.0], a=-1)
    assert np.allclose(row, [1.0, 2.0, 9.0, 8.0, -1.0, -3.0])
    assert fm.labels() == ["intercept", "x1", "x2^2", "x1:x3", "a", "a:x2"]
    assert fm.uses_treatment and fm.has_intercept


def test_feature_map_fixed_length():
    fm = FeatureMap.quadratic(4)
    rng = np.random.default_rng(0)
    lengths = {fm.features(rng.normal(size=4)).shape[0] for _ in range(10)}
    assert lengths == {fm.q}


def test_feature_map_intercept_must_be_first():
    from earlkit.core import ConfigError

    with pytest.raises(ConfigError):
        FeatureMap(2, (("x", 0), ("1",)))
    with pytest.raises(ConfigError):
        FeatureMap(2, (("x", 5),))
    with pytest.raises(ConfigError):
        FeatureMap(2, (("x", 0), ("x", 0)))


def test_feature_map_from_name():
    fm = FeatureMap.from_name("linear", 3)
    assert fm.terms == (("1",), ("x", 0), ("x", 1), ("x", 2))
    fm = FeatureMap.from_name("quadratic*a", 2)
    assert ("a",) in fm.terms and ("ax", 1) in fm.terms and ("x2", 0) in fm.terms
    fm = FeatureMap.from_name("linear+interactions", 3)
    assert ("xx", 0, 2) in fm.terms
    assert FeatureMap.from_name("intercept", 4).terms == (("1",),)


def _write(tmp_path, text, name="d.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_load_csv_basic(tmp_path):
    path = _write(tmp_path, "y,a,x1,x2\n1.5,1,0.1,0.2\n-2.0,-1,0.3,0.4\n0.0,1,0.5,0.6\n")
    d = load_csv(path)
    assert d.n == 3 and d.p == 2
    assert list(d.A) == [1, -1, 1]
    assert d.Y[0] == 1.5 and d.X[2, 1] == 0.6


def test_load_csv_zero_one_remap_warns(tmp_path):
    path = _write(tmp_path, "y,a,x1\n1.0,0,0.1\n2.0,1,0.2\n")
    with pytest.warns(UserWarning, match="0/1"):
        d = load_csv(path)
    assert list(d.A) == [-1, 1]


def test_load_csv_nan_cell_is_parse_error(tmp_path):
    path = _write(tmp_path, "y,a,x1\nNaN,1,0.1\n")
    with pytest.raises(ParseError, match="row 2.*column 'y'"):
        load_csv(path)


def test_load_csv_non_numeric_names_row_and_column(tmp_path):
    path = _write(tmp_path, "y,a,x1\n1.0,1,0.1\n2.0,1,oops\n")
    with pytest.raises(ParseError, match="row 3.*column 'x1'"):
        load_csv(path)


def test_load_csv_missing_column(tmp_path):
    path = _write(tmp_path, "y,x1,x2\n1.0,0.1,0.2\n")
    with pytest.raises(ParseError, match="missing column 'a'"):
        load_csv(path)


def test_load_csv_empty_file(tmp_path):
    path = _write(tmp_path, "")
    with pytest.raises(ParseError, match="empty"):
        load_csv(path)
    path = _write(tmp_path, "y,a,x1\n", name="h.csv")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(path)


def test_load_csv_missing_file_is_data_error(tmp_path):
    path = tmp_path / "nope.csv"
    with pytest.raises(DataError, match="nope.csv"):
        load_csv(path)


def test_load_csv_non_utf8_file_is_parse_error(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_bytes(b"\xff\xfey,a,x1\n1.0,1,0.5\n")
    with pytest.raises(ParseError, match="bad.csv: not UTF-8 text"):
        load_csv(path)


def test_load_csv_bad_treatment_code(tmp_path):
    path = _write(tmp_path, "y,a,x1\n1.0,2,0.1\n")
    with pytest.raises(ParseError, match="column 'a'"):
        load_csv(path)


def test_load_csv_mixed_treatment_codes_is_parse_error(tmp_path):
    path = _write(tmp_path, "y,a,x1\n1,-1,.5\n2,0,.1\n3,1,.2\n")
    with pytest.raises(ParseError, match="row 3, column 'a'.*got 0.0"):
        load_csv(path)


def test_load_csv_bad_treatment_code_names_its_line(tmp_path):
    path = _write(tmp_path, "y,a,x1\n\n\n1.0,1,0.1\n2.0,5,0.2\n")
    with pytest.raises(ParseError, match="row 5, column 'a'.*got 5.0"):
        load_csv(path)


def test_csv_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(7)
    d = Dataset(rng.normal(size=(25, 4)) * 1e3, np.where(rng.random(25) < 0.4, 1, -1), rng.normal(size=25) / 3)
    path = tmp_path / "rt.csv"
    save_csv(d, path)
    d2 = load_csv(path)
    assert np.array_equal(d.X, d2.X)
    assert np.array_equal(d.A, d2.A)
    assert np.array_equal(d.Y, d2.Y)
    # a second round trip stays identical
    path2 = tmp_path / "rt2.csv"
    save_csv(d2, path2)
    assert path.read_text() == path2.read_text()
    # bit for bit at the size of the benchmark's fits, over many magnitudes
    X = rng.normal(size=(2500, 10)) * 10.0 ** rng.integers(-12, 12, size=(2500, 10))
    d = Dataset(X, np.where(rng.random(2500) < 0.3, 1, -1), rng.standard_cauchy(2500))
    save_csv(d, path)
    d2 = load_csv(path)
    assert d2.X.tobytes() == d.X.tobytes() and d2.Y.tobytes() == d.Y.tobytes()
    assert np.array_equal(d2.A, d.A)


def test_load_csv_blank_lines_and_quoted_header(tmp_path):
    path = _write(tmp_path, '"y","a","x1"\n1.5,1,0.1\n\n   \n-2.0,-1,"0.3"\n\n')
    d = load_csv(path)
    assert list(d.Y) == [1.5, -2.0] and list(d.A) == [1, -1] and list(d.X[:, 0]) == [0.1, 0.3]


@pytest.mark.parametrize(
    "text,y",
    [("y,a,x1\r\n1.0,1,2.5\r\n", 1.0), ("y,a,x1\r1.0,1,2.5\r", 1.0), ("y,a,x1\n1_0,1, 2.5 \n", 10.0)],
)
def test_load_csv_accepts_what_float_accepts(tmp_path, text, y):
    d = load_csv(_write(tmp_path, text))
    assert list(d.Y) == [y] and list(d.A) == [1] and list(d.X[:, 0]) == [2.5]


@pytest.mark.parametrize(
    "body,message",
    [
        ("1.0,1,0.1\n2.0,1\n", "row 3 has 2 fields, expected 3"),
        ("1.0,1,0.1,9\n2.0,1,0.2,9\n", "row 2 has 4 fields, expected 3"),
        ("1.0,1,0.1\n\n2.0,1,oops\n", "non-numeric value 'oops' at row 4, column 'x1'"),
        ("1.0,1,0.1\n2.0,,0.2\n", "non-numeric value '' at row 3, column 'a'"),
        ("1.0,1,0.1\n2.0,1,inf\n", "non-finite value 'inf' at row 3, column 'x1'"),
        ("1.0,1,0.1\n1e999,1,0.2\n", "non-finite value '1e999' at row 3, column 'y'"),
        ("1.0,1,nan\n", "non-finite value 'nan' at row 2, column 'x1'"),
        ("\n  \n", "no data rows"),
    ],
)
def test_load_csv_errors_name_row_and_column(tmp_path, body, message):
    path = _write(tmp_path, "y,a,x1\n" + body)
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert str(exc.value) == f"{path}: {message}"


def test_rule_coefficient_lookup():
    rule = LinearRule(0.5, [2.0, 3.0], FeatureMap(4, (("x", 1), ("x", 3))))
    assert rule.coefficient(1) == 2.0
    assert rule.coefficient(3) == 3.0
    assert rule.coefficient(0) == 0.0
