import pytest

from lambda_forge import (
    CoefficientTable,
    FormContext,
    a_ell,
    load_coefficients,
    trace_of_frobenius,
)
from lambda_forge.arith import PrimeRange
from lambda_forge.errors import CoverageError, HypothesisViolation, TableFormatError


def write_table(tmp_path, text, name="coeffs.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadCoefficients:
    def test_parse(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n2,-2\n3,-1\n")
        table = load_coefficients(path, level=11)
        assert table.coefficients == {2: -2, 3: -1}

    def test_hasse_violation_rejected(self, tmp_path):
        # 12 > floor(2*sqrt(7)) = 5
        path = write_table(tmp_path, "ell,a_ell\n7,12\n")
        with pytest.raises(TableFormatError, match="Hasse"):
            load_coefficients(path, level=11)

    def test_header_only_is_usable(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n")
        table = load_coefficients(path, level=11)
        assert table.coefficients == {}

    def test_malformed_row_names_line(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n2,-2\nthree,-1\n")
        with pytest.raises(TableFormatError, match=":3"):
            load_coefficients(path, level=11)

    def test_non_prime_index_rejected(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n4,1\n")
        with pytest.raises(TableFormatError, match="not prime"):
            load_coefficients(path, level=11)

    def test_decreasing_index_rejected(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n5,1\n3,-1\n")
        with pytest.raises(TableFormatError, match="increasing"):
            load_coefficients(path, level=11)

    def test_bad_header(self, tmp_path):
        path = write_table(tmp_path, "p,ap\n2,-2\n")
        with pytest.raises(TableFormatError, match="header"):
            load_coefficients(path, level=11)

    def test_ramified_rows_flagged_not_bounded(self, tmp_path):
        # at ell | level the Hasse bound does not apply; the row is kept as given
        path = write_table(tmp_path, "ell,a_ell\n11,9\n13,4\n")
        table = load_coefficients(path, level=11)
        assert table.coefficients[11] == 9


class TestFormContext:
    def test_p_dividing_level_rejected(self, curve_11a1):
        with pytest.raises(HypothesisViolation):
            FormContext(level=11, p=11, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=curve_11a1)

    def test_small_p_rejected(self, curve_11a1):
        with pytest.raises(HypothesisViolation):
            FormContext(level=11, p=3, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=curve_11a1)

    def test_non_ordinary_rejected(self):
        table = CoefficientTable(coefficients={5: 0}, level=14)
        with pytest.raises(HypothesisViolation, match="ordinary"):
            FormContext(level=14, p=5, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_a_p_multiple_of_p_rejected(self):
        table = CoefficientTable(coefficients={7: 0}, level=10)
        with pytest.raises(HypothesisViolation, match="ordinary"):
            FormContext(level=10, p=7, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_conductor_level_consistency(self, curve_11a1):
        with pytest.raises(ValueError, match="conductor"):
            FormContext(level=15, p=7, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=curve_11a1)

    def test_missing_a_p_is_coverage_error(self):
        table = CoefficientTable(coefficients={2: -2}, level=11)
        with pytest.raises(CoverageError):
            FormContext(level=11, p=5, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_ordinarity_recorded(self, ctx_default):
        assert ctx_default.a_p == -2


class TestAEll:
    def test_curve_backend_delegates_to_point_count(self, ctx_default, curve_11a1):
        for ell in (2, 3, 13, 101):
            assert a_ell(ctx_default, ell) == trace_of_frobenius(curve_11a1, ell)

    def test_table_lookup(self, table_11_p5):
        assert a_ell(table_11_p5, 13) == 4

    def test_table_gap_names_prime(self, table_11_p5):
        with pytest.raises(CoverageError, match="29"):
            a_ell(table_11_p5, 29)

    def test_ramified_prime_rejected(self, ctx_default):
        with pytest.raises(ValueError):
            a_ell(ctx_default, 11)
        with pytest.raises(ValueError):
            a_ell(ctx_default, 7)

    def test_non_prime_rejected(self, ctx_default):
        with pytest.raises(ValueError):
            a_ell(ctx_default, 15)


def test_curve_and_table_backends_agree(ctx_p5, curve_11a1):
    """A table dumped from the curve must agree with the curve everywhere."""
    coeffs = {
        ell: trace_of_frobenius(curve_11a1, ell)
        for ell in PrimeRange(2, 200)
        if ell != 11
    }
    table_ctx = FormContext(
        level=11, p=5, lambda_g=0, mu_zero=True, surjective_mod_p=False,
        backend=CoefficientTable(coefficients=coeffs, level=11),
    )
    for ell in PrimeRange(2, 200):
        if ell in (5, 11):
            continue
        assert a_ell(table_ctx, ell) == a_ell(ctx_p5, ell)
