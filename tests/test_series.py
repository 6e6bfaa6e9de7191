from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invseq.series import (
    RationalSeries,
    a218225_terms,
    c_coefficients,
    c_identity_holds,
    check_0021_conjecture,
    cos_series,
    euler_numbers,
    ode_via_c_matches,
    series_Rk,
    series_Tk,
    sin_series,
    tan_plus_sec,
)

small_series = st.builds(
    lambda cs: RationalSeries(cs, 6),
    st.lists(st.integers(-4, 4), min_size=1, max_size=7),
)


class TestRationalSeries:
    def test_truncation_pads(self):
        s = RationalSeries([1, 2], order=4)
        assert s.coeffs == [1, 2, 0, 0, 0]

    def test_mul(self):
        a = RationalSeries([1, 1], 3)
        assert (a * a).coeffs == [1, 2, 1, 0]

    def test_reciprocal(self):
        geom = RationalSeries([1, -1], 5).reciprocal()
        assert geom.coeffs == [1] * 6

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ValueError):
            RationalSeries([0, 1], 3).reciprocal()

    def test_exp_of_x(self):
        e = RationalSeries([0, 1], 4).exp()
        assert e.coeffs == [1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)]

    def test_exp_requires_zero_constant(self):
        with pytest.raises(ValueError):
            RationalSeries([1, 1], 3).exp()

    def test_flavor_mixing_rejected(self):
        with pytest.raises(ValueError):
            RationalSeries([1], 2, "ordinary") * RationalSeries([1], 2, "exponential")

    @settings(max_examples=50, deadline=None)
    @given(small_series, small_series)
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @settings(max_examples=50, deadline=None)
    @given(small_series)
    def test_reciprocal_roundtrip(self, s):
        if s.coefficient(0) == 0:
            s = s + 1
        assert (s * s.reciprocal()).coeffs == [1] + [0] * s.order


class TestTrig:
    def test_pythagoras(self):
        s, c = sin_series(8), cos_series(8)
        assert (s * s + c * c).coeffs == [1] + [0] * 8

    def test_euler_numbers(self):
        assert euler_numbers(10) == [1, 1, 1, 2, 5, 16, 61, 272, 1385, 7936, 50521]

    def test_euler_numbers_reject_a_negative_n_max(self):
        assert euler_numbers(0) == [1]
        with pytest.raises(ValueError, match="n_max must be nonnegative"):
            euler_numbers(-1)

    def test_tan_plus_sec_derivative_identity(self):
        # y = tan + sec satisfies 2y' = 1 + y^2
        y = tan_plus_sec(9)
        lhs = y.differentiate() * 2
        rhs = (y * y + 1).truncate(8)
        assert lhs == rhs


class TestTreeSeries:
    def test_T1_is_exp(self):
        # k=1 gives T' = 1 + (T-1) = T, i.e. T_1 = e^x (paths: one per n)
        assert series_Tk(1, 5) == RationalSeries([0, 1], 5, "exponential").exp()

    def test_R1_is_shifted_bell(self):
        r = series_Rk(1, 6)
        assert [r.egf_int(n) for n in range(7)] == [1, 1, 2, 5, 15, 52, 203]

    def test_Tk_ode_residual_zero(self):
        # direct substitution into T' = sum_{i<=k} (T-1)^i / i!
        from math import factorial

        for k in (2, 3):
            t = series_Tk(k, 8)
            lhs = t.differentiate()
            u = (t - 1).truncate(7)
            rhs = RationalSeries.one(7, "exponential")
            upow = RationalSeries.one(7, "exponential")
            for i in range(1, k + 1):
                upow = upow * u
                rhs = rhs + upow * Fraction(1, factorial(i))
            assert lhs == rhs


class TestTreeSeriesArguments:
    @pytest.mark.parametrize("series", [series_Tk, series_Rk])
    @pytest.mark.parametrize("k, order, message", [
        (None, 3, "the series needs a bound k"),  # used to end in a TypeError
        (1.5, 3, "k 1.5 is not an integer"),
        (0, 3, "k must be >= 1"),
        (2, 2.5, "order 2.5 is not an integer"),
    ])
    def test_rejects(self, series, k, order, message):
        with pytest.raises(ValueError, match=message):
            series(k, order)

    @pytest.mark.parametrize("series", [series_Tk, series_Rk])
    def test_numpy_integers(self, series):
        assert series(np.int64(2), np.uint8(5)) == series(2, 5)


class TestCIdentity:
    @pytest.mark.parametrize("k", range(2, 7))
    def test_polynomial_identity(self, k):
        assert c_identity_holds(k)

    @pytest.mark.parametrize("k", range(2, 6))
    def test_rewritten_ode(self, k):
        assert ode_via_c_matches(k, 8)

    @pytest.mark.parametrize("order, message", [
        (2.5, "order 2.5 is not an integer"),  # used to name 3.5, order + 1
        (-1, "order must be nonnegative"),
    ])
    def test_rewritten_ode_checks_order(self, order, message):
        with pytest.raises(ValueError, match=message):
            ode_via_c_matches(3, order)

    def test_c22(self):
        # k=2: c_{0,2} = 2!(1 - 1 + 1/2) = 1
        assert c_coefficients(2) == [Fraction(1)]


class TestConjecture0021:
    def test_recursion_prefix(self):
        assert a218225_terms(8) == [1, 2, 6, 23, 101, 480, 2400, 12434]

    def test_recursion_rejects_a_negative_n_max(self):
        assert a218225_terms(0) == []
        with pytest.raises(ValueError, match="n_max must be nonnegative"):  # used to give []
            a218225_terms(-3)

    def test_supplied_counts_holds(self):
        ok, report = check_0021_conjecture(8, counts=a218225_terms(8))
        assert ok
        assert report["first_failing_coefficient"] is None

    def test_detects_wrong_counts(self):
        bad = a218225_terms(8)
        bad[-1] += 1
        ok, report = check_0021_conjecture(8, counts=bad)
        assert not ok
        assert report["first_failing_coefficient"] == 8

    @pytest.mark.parametrize("given", [2, 4])
    def test_supplied_counts_must_match_n_max(self, given):
        with pytest.raises(ValueError, match="expected 3 counts"):
            check_0021_conjecture(3, counts=a218225_terms(given))

    def test_rejects_non_integer_n_max(self):
        with pytest.raises(ValueError, match="n_max 2.5 is not an integer"):
            check_0021_conjecture(2.5)

    def test_enumerated_counts_small(self):
        ok, report = check_0021_conjecture(7)
        assert ok
        assert report["counts"] == [1, 2, 6, 23, 101, 480, 2400]
