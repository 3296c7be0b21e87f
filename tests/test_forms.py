import csv
import random
import warnings
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lambda_forge import (
    CoefficientTable,
    FormContext,
    a_ell,
    arith,
    forms,
    load_coefficients,
    trace_of_frobenius,
)
from lambda_forge.arith import MAX_SIEVE_BOUND, PrimeRange, is_prime
from lambda_forge.errors import (
    CoverageError,
    HypothesisViolation,
    ResourceLimitError,
    TableFormatError,
)


def write_table(tmp_path, text, name="coeffs.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def as_dict(table: CoefficientTable) -> dict[int, int]:
    return dict(zip(table.ells.tolist(), table.a_ells.tolist()))


# --- the per-row loader, kept as the reference for the batched primality check


def scalar_load_coefficients(path: str | Path, level: int) -> CoefficientTable:
    """Every check at every row in file order, one Miller-Rabin test a row."""
    path = Path(path)
    coeffs: dict[int, int] = {}
    prev = 0
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TableFormatError(f"{path}: empty file, expected header 'ell,a_ell'")
        if [h.strip() for h in header] != ["ell", "a_ell"]:
            raise TableFormatError(f"{path}: bad header {header!r}, expected 'ell,a_ell'")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 2:
                raise TableFormatError(f"{path}:{lineno}: expected 2 fields, got {len(row)}")
            try:
                ell, a = int(row[0]), int(row[1])
            except ValueError:
                raise TableFormatError(f"{path}:{lineno}: non-integer row {row!r}")
            if not is_prime(ell):
                raise TableFormatError(f"{path}:{lineno}: index {ell} is not prime")
            if ell <= prev:
                raise TableFormatError(
                    f"{path}:{lineno}: ell={ell} not strictly increasing (previous {prev})"
                )
            if level % ell != 0 and a * a > 4 * ell:
                raise TableFormatError(
                    f"{path}:{lineno}: a_{ell} = {a} violates the Hasse bound"
                    f" (|a| <= {isqrt(4 * ell)})"
                )
            coeffs[ell] = a
            prev = ell
    return CoefficientTable(list(coeffs), list(coeffs.values()), level=level)


def outcome(load, path, level):
    """What ``load`` makes of the file: its rows and column dtypes, or its error message."""
    try:
        table = load(path, level)
    except TableFormatError as err:
        return str(err)
    return as_dict(table), table.ells.dtype, table.a_ells.dtype


TABLE_PRIMES = list(PrimeRange(2, 400)) + [2_147_483_647]  # one row above the sieve cap
COMPOSITES = [-3, 0, 1, 4, 9, 15, 561, 2047, 41041, 1_000_000_001]
BLANKS = ["", "   "]
MALFORMED = ["7", "7,1,2", "7,", ",", "x,1", "7,y", "1.5,0", "7,1e2"]


@st.composite
def faulty_tables(draw):
    """A valid table with a few fault lines (or blank lines) inserted anywhere."""
    ells = sorted(draw(st.sets(st.sampled_from(TABLE_PRIMES), max_size=25)))
    lines = [f"{ell},{draw(st.integers(-isqrt(4 * ell), isqrt(4 * ell)))}" for ell in ells]
    fault = st.one_of(
        st.sampled_from(COMPOSITES).map(lambda n: f"{n},0"),  # composite ell
        st.sampled_from(TABLE_PRIMES).map(lambda q: f"{q},0"),  # out of order if misplaced
        st.sampled_from(TABLE_PRIMES).map(lambda q: f"{q},{isqrt(4 * q) + 1}"),  # Hasse
        st.sampled_from(COMPOSITES).map(lambda n: f"{n},{10**6}"),  # composite and Hasse
        st.sampled_from(MALFORMED),
        st.sampled_from(BLANKS),
    )
    for _ in range(draw(st.integers(0, 3))):
        pos = draw(st.integers(0, len(lines)))
        if lines and draw(st.booleans()):
            lines.insert(pos, lines[max(pos - 1, 0)])  # a repeated row
        else:
            lines.insert(pos, draw(fault))
    return "ell,a_ell\n" + "".join(line + "\n" for line in lines)


class TestLoadCoefficients:
    def test_parse(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n2,-2\n3,-1\n")
        table = load_coefficients(path, level=11)
        assert as_dict(table) == {2: -2, 3: -1}

    def test_hasse_violation_rejected(self, tmp_path):
        # 12 > floor(2*sqrt(7)) = 5
        path = write_table(tmp_path, "ell,a_ell\n7,12\n")
        with pytest.raises(TableFormatError, match="Hasse"):
            load_coefficients(path, level=11)

    def test_header_only_is_usable(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n")
        table = load_coefficients(path, level=11)
        assert as_dict(table) == {}

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
        assert as_dict(table)[11] == 9

    def test_bytes_that_are_not_utf8_are_named(self, tmp_path):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(b"ell,a_ell\n2,1\n\xff,1\n")
        with pytest.raises(TableFormatError) as info:
            load_coefficients(path, level=11)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte"

    def test_direct_table_refused_at_hasse_violation(self):
        with pytest.raises(TableFormatError) as info:
            CoefficientTable([2, 11, 7], [-2, 9, 12], level=11)
        assert str(info.value) == "a_7 = 12 violates the Hasse bound |a| <= 2*sqrt(7)"

    def test_direct_table_refuses_a_repeated_ell(self):
        with pytest.raises(TableFormatError) as info:
            CoefficientTable([2, 2, 3, 7], [1, -1, 0, 1], level=11)
        assert str(info.value) == "ell = 2 has more than one row"


@pytest.fixture(scope="module")
def parity_path(tmp_path_factory):
    return tmp_path_factory.mktemp("parity") / "coeffs.csv"


class TestLoaderParity:
    """The batched loader reports what the per-row loader reports, byte for byte."""

    @settings(max_examples=200, deadline=None)
    @given(text=faulty_tables(), level=st.sampled_from([1, 11, 30, 77, 2 * 3 * 5 * 7 * 11 * 13]))
    @example(text="ell,a_ell\n7,1\n4,1\n", level=11)
    @example(text="ell,a_ell\n2,1\n9,1\n11,x\n", level=11)
    def test_same_error_or_same_table(self, parity_path, text, level):
        parity_path.write_text(text, encoding="utf-8")
        assert outcome(load_coefficients, parity_path, level) == outcome(
            scalar_load_coefficients, parity_path, level)

    @pytest.mark.parametrize("text, message", [
        # composite and not increasing: primality is checked first
        ("ell,a_ell\n7,1\n4,1\n", ":3: index 4 is not prime"),
        # a composite row wins over a later malformed row
        ("ell,a_ell\n2,1\n9,1\n11,x\n", ":3: index 9 is not prime"),
        ("ell,a_ell\n2,1\n\n9,1\n11\n", ":4: index 9 is not prime"),
        # composite and over the Hasse bound
        ("ell,a_ell\n2,1\n25,100\n", ":3: index 25 is not prime"),
        # composite above the sieve cap
        ("ell,a_ell\n2,1\n1000000001,0\n", ":3: index 1000000001 is not prime"),
    ])
    def test_first_bad_line_wins(self, tmp_path, text, message):
        path = write_table(tmp_path, text)
        expected = f"{path}{message}"
        assert outcome(scalar_load_coefficients, path, 11) == expected
        assert outcome(load_coefficients, path, 11) == expected

    def test_composite_row_above_undecodable_bytes(self, tmp_path):
        # the bytes are decoded in blocks, so they fail only after the rows above
        # them were parsed; the composite row among those is the first fault
        rows = "".join(f"{ell},0\n" for ell in PrimeRange(11, 20000))
        path = tmp_path / "coeffs.csv"
        path.write_bytes(("ell,a_ell\n2,0\n9,0\n" + rows).encode() + b"\xff,0\n")
        expected = f"{path}:3: index 9 is not prime"
        assert outcome(scalar_load_coefficients, path, 11) == expected
        assert outcome(load_coefficients, path, 11) == expected

    @pytest.mark.parametrize("text", [
        "ell,a_ell\n2,1\n 13 , 4\n",  # space-padded fields
        'ell,a_ell\n2,1\n"17",1\n',  # quoted fields
        "ell,a_ell\r\n2,1\r\n13,4\r\n\r\n17,1\r\n",  # CRLF line ends
        "ell,a_ell\r\n2,1\r\n13,8\r\n",  # CRLF, a Hasse violation on line 3
        "ell,a_ell\n2,1\n1_3,4\n",  # an int() spelling with an underscore
        "ell,a_ell\n2,1\n+13,-0\n",  # explicit signs
        "ell,a_ell\n2,1\n18446744073709551629,5\n",  # a prime row at 2^64 + 13
        "ell,a_ell\n2,1\n18446744073709551629,1099511627776\n",  # a_ell = 2^40 there: Hasse
        "ell,a_ell\n2,1\n11,-9223372036854775808\n13,4\n",  # ramified, |a_11| = 2^63
        "ell,a_ell\n2,1\n11,100000000000000000000\n",  # ramified, more than 18 digits
        "ell,a_ell\n2,1\n11,9999999999999999999\n",  # ramified, 19 digits, past int64
        "ell,a_ell\n2,1\n11,999999999999999999\n13,4\n",  # ramified, 18 digits
        "ell,a_ell\n2,1\n13,999999999999999999\n",  # 18 digits over the Hasse bound
        "ell,a_ell\n2,-1000000000000\n",  # far over the Hasse bound
        "ell,a_ell\n2,1\n13,4",  # no line end after the last row
        "ell,a_ell",  # the header alone
        " ell , a_ell \n2,1\n",  # a padded header
        "ell,a_ell\n2,1\r13,4\n",  # a lone CR
        "ell,a_ell\n2,1\n13,-\n",  # a sign without digits
        "ell,a_ell\n2,1\n1-3,4\n",  # a sign inside a field
        "ell,a_ell\n2,1\n13,,4\n",  # three fields
        "ell,a_ell\n2,1\n11,9223372036854775807\n",  # ramified, int64's maximum
        "ell,a_ell\n2,1\n13,\u0664\n",  # an Arabic-Indic digit, which int() reads
        "ell,a_ell\n\n2,1\n\n\n13,4\n\n",  # blank lines
        "ell,a_ell\n2\n3\n",  # one field a row
        "ell,a_ell\n2,1\n13,\x1c4\n",  # an ASCII separator, which int() does not strip
        "ell,a_ell\n2,1\n11,\u01fe\n",  # ramified; numpy 2.4's loadtxt reads it as 462
    ])
    def test_unusual_spellings_load_as_before(self, tmp_path, text):
        path = tmp_path / "coeffs.csv"
        path.write_bytes(text.encode())
        assert outcome(load_coefficients, path, 11) == outcome(scalar_load_coefficients, path, 11)

    def test_header_only_table_loads_without_a_warning(self, tmp_path):
        path = write_table(tmp_path, "ell,a_ell\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # loadtxt warns of a file with no data
            table = load_coefficients(path, level=11)
        assert as_dict(table) == {}

    def test_wide_values_keep_exact_columns(self, tmp_path):
        huge_prime = 2**64 + 13
        path = write_table(tmp_path, f"ell,a_ell\n2,1\n11,{-(2**63)}\n{huge_prime},5\n")
        table = load_coefficients(path, level=11)
        assert table.ells.dtype == table.a_ells.dtype == object
        assert as_dict(table) == {2: 1, 11: -(2**63), huge_prime: 5}

    def test_level_past_int64(self, tmp_path):
        # 11 * (2^64 + 13) exceeds int64: the ramified row at 11 is still exempt
        level = 11 * (2**64 + 13)
        path = write_table(tmp_path, "ell,a_ell\n2,1\n7,1\n11,99\n13,4\n")
        table = load_coefficients(path, level=level)
        ctx = FormContext(level=level, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                          backend=table)
        assert ctx.divides_ngp(table.ells).tolist() == [False, True, True, False]
        column, error = ctx.coefficient_column([2, 11, 17])
        assert column.tolist() == [1, 99]
        assert isinstance(error, CoverageError) and error.ell == 17

    @settings(max_examples=100, deadline=None)
    @given(text=faulty_tables(), level=st.sampled_from([1, 11, 30, 77]),
           spelling=st.sampled_from(["crlf", "spaces", "quotes", "underscores"]))
    def test_same_outcome_in_other_spellings(self, parity_path, text, level, spelling):
        # the same rows spelled in ways the columnar pass hands to the row scan (or, for
        # CRLF, takes itself): the outcome still matches the per-row loader
        if spelling == "crlf":
            text = text.replace("\n", "\r\n")
        elif spelling == "spaces":
            text = text.replace(",", " , ")
        elif spelling == "quotes":
            text = text.replace("\n7,", '\n"7",')
        else:
            text = text.replace("\n11,", "\n1_1,")
        parity_path.write_bytes(text.encode())
        assert outcome(load_coefficients, parity_path, level) == outcome(
            scalar_load_coefficients, parity_path, level)

    def test_bench_sized_table_never_enters_the_row_scan(self, tmp_path, monkeypatch):
        def refused(path):
            raise AssertionError(f"row scan entered for {path}")

        monkeypatch.setattr(forms, "_scanned_rows", refused)
        rng = random.Random(11)
        rows = [f"{ell},{rng.randint(-isqrt(4 * ell), isqrt(4 * ell))}\n"
                for ell in PrimeRange(2, 10**6)]
        path = write_table(tmp_path, "ell,a_ell\n" + "".join(rows))
        table = load_coefficients(path, level=11)
        assert len(table.ells) == 78498
        assert table.ells.dtype == table.a_ells.dtype == np.int64

    def test_hasse_bound_is_checked_once_a_load(self, tmp_path, monkeypatch):
        checks = []
        hasse = forms._hasse_violations

        def counting(ells, a_ells, level):
            checks.append(len(ells))
            return hasse(ells, a_ells, level)

        monkeypatch.setattr(forms, "_hasse_violations", counting)
        rows = "".join(f"{ell},1\n" for ell in PrimeRange(2, 10**4))
        for text in ("ell,a_ell\n" + rows, "ell,a_ell\r\n" + rows.replace("\n", "\r\n"),
                     "ell , a_ell\n" + rows):  # the last one through the row scan
            checks.clear()
            load_coefficients(write_table(tmp_path, text), level=11)
            assert checks == [1229]

    def test_prime_above_sieve_cap_accepted(self, tmp_path):
        assert 2_147_483_647 > MAX_SIEVE_BOUND
        path = write_table(tmp_path, "ell,a_ell\n2,1\n2147483647,5\n")
        assert as_dict(load_coefficients(path, level=11)) == {2: 1, 2_147_483_647: 5}

    def test_rows_past_the_miller_rabin_bases(self, tmp_path):
        # psi_12 passes the bases up to 37 and is composite; psi_13 passes up to
        # 41, so its primality is refused, not guessed
        psi12 = 318_665_857_834_031_151_167_461
        path = write_table(tmp_path, f"ell,a_ell\n2,1\n{psi12},0\n")
        with pytest.raises(TableFormatError, match=f":3: index {psi12} is not prime"):
            load_coefficients(path, level=11)
        psi13 = 3_317_044_064_679_887_385_961_981
        path = write_table(tmp_path, f"ell,a_ell\n2,1\n{psi13},0\n")
        with pytest.raises(ResourceLimitError, match=f"primality of {psi13}"):
            load_coefficients(path, level=11)

    def test_dense_table_makes_no_per_row_miller_rabin_calls(self, tmp_path, monkeypatch):
        calls = []

        def spy(n):
            calls.append(n)
            return is_prime(n)

        monkeypatch.setattr(forms, "is_prime", spy)
        monkeypatch.setattr(arith, "is_prime", spy)
        ells = list(PrimeRange(2, 10**5))
        path = write_table(tmp_path, "ell,a_ell\n" + "".join(f"{ell},0\n" for ell in ells))
        table = load_coefficients(path, level=11)
        assert len(table.ells) == len(ells) == 9592
        assert calls == []


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
        table = CoefficientTable([5], [0], level=14)
        with pytest.raises(HypothesisViolation, match="ordinary"):
            FormContext(level=14, p=5, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_a_p_multiple_of_p_rejected(self):
        table = CoefficientTable([7], [0], level=10)
        with pytest.raises(HypothesisViolation, match="ordinary"):
            FormContext(level=10, p=7, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_conductor_level_consistency(self, curve_11a1):
        with pytest.raises(ValueError, match="conductor"):
            FormContext(level=15, p=7, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=curve_11a1)

    def test_table_level_consistency(self):
        # at level 37 the table may break the Hasse bound at 37, a good prime at level 11
        table = CoefficientTable([5, 37], [1, 100], level=37)
        with pytest.raises(ValueError, match="table level 37 != stated level 11"):
            FormContext(level=11, p=5, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=table)

    def test_a_p_is_read_not_passed(self, curve_11a1):
        ctx = FormContext(level=11, p=7, lambda_g=0, mu_zero=True,
                          surjective_mod_p=True, backend=curve_11a1)
        assert ctx.a_p == -2
        with pytest.raises(TypeError, match="a_p"):
            FormContext(level=11, p=7, lambda_g=0, mu_zero=True,
                        surjective_mod_p=True, backend=curve_11a1, a_p=-2)

    def test_missing_a_p_is_coverage_error(self):
        table = CoefficientTable([2], [-2], level=11)
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


PSI_13 = 3_317_044_064_679_887_385_961_981


@pytest.fixture(scope="module", params=["curve", "table"])
def ctx_11a_p7(request, curve_11a1):
    """11a at p = 7, on the curve or on a table holding the rows the parity test reads."""
    if request.param == "curve":
        backend = curve_11a1
    else:
        ells = [7, 13, 1009]
        backend = CoefficientTable(ells, [trace_of_frobenius(curve_11a1, ell) for ell in ells],
                                   level=11)
    return FormContext(level=11, p=7, lambda_g=0, mu_zero=True, surjective_mod_p=True,
                       backend=backend)


@pytest.mark.parametrize("ell", [9, 1, 0, -7, 7, 11, PSI_13, 13, 1009])
def test_a_ell_is_a_batch_of_one(ctx_11a_p7, ell):
    outcomes = []
    for fetch in (lambda: a_ell(ctx_11a_p7, ell), lambda: forms.a_ells(ctx_11a_p7, [ell])[0]):
        try:
            outcomes.append(fetch())
        except Exception as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    assert isinstance(outcomes[0], int) == (ell in (13, 1009))


def test_curve_and_table_backends_agree(ctx_p5, curve_11a1):
    """A table dumped from the curve must agree with the curve everywhere."""
    coeffs = {
        ell: trace_of_frobenius(curve_11a1, ell)
        for ell in PrimeRange(2, 200)
        if ell != 11
    }
    table_ctx = FormContext(
        level=11, p=5, lambda_g=0, mu_zero=True, surjective_mod_p=False,
        backend=CoefficientTable(list(coeffs), list(coeffs.values()), level=11),
    )
    for ell in PrimeRange(2, 200):
        if ell in (5, 11):
            continue
        assert a_ell(table_ctx, ell) == a_ell(ctx_p5, ell)
