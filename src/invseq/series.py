"""Truncated power series with exact rational coefficients, the branching
ODE for increasing-tree generating functions, and the functional-equation
check for the 0021 avoider counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

from . import engine
from .core import _integer, ordinary_bounds


class RationalSeries:
    """A truncated power series sum c_i x^i, i <= order, with Fraction
    coefficients. The flavor tag ('ordinary' or 'exponential') is metadata
    guarding against mixing OGF and EGF data in one expression."""

    __slots__ = ("coeffs", "order", "flavor")

    def __init__(self, coeffs, order=None, flavor="ordinary"):
        coeffs = [Fraction(c) for c in coeffs]
        order = _integer(len(coeffs) - 1 if order is None else order, "order", 0)
        coeffs = coeffs[: order + 1]
        coeffs += [Fraction(0)] * (order + 1 - len(coeffs))
        self.coeffs = coeffs
        self.order = order
        self.flavor = flavor

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order, flavor="ordinary"):
        return cls([1], order, flavor)

    # -- basics -------------------------------------------------------

    def coefficient(self, n):
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coefficient(self, n):
        """n! * [x^n], as an exact Fraction."""
        return self.coefficient(n) * factorial(n)

    def egf_int(self, n):
        """n! * [x^n], required to be an integer."""
        v = self.egf_coefficient(n)
        if v.denominator != 1:
            raise ValueError(f"EGF coefficient at n={n} is not integral: {v}")
        return int(v)

    def _check(self, other):
        if self.flavor != other.flavor:
            raise ValueError(
                f"mixing series flavors {self.flavor!r} and {other.flavor!r}"
            )
        return min(self.order, other.order)

    def __eq__(self, other):
        if not isinstance(other, RationalSeries):
            return NotImplemented
        return (
            self.flavor == other.flavor
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:6])
        return f"RationalSeries([{head}...], order={self.order}, {self.flavor})"

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            out = list(self.coeffs)
            out[0] += other
            return RationalSeries(out, self.order, self.flavor)
        order = self._check(other)
        return RationalSeries(
            [a + b for a, b in zip(self.coeffs, other.coeffs)], order, self.flavor
        )

    __radd__ = __add__

    def __neg__(self):
        return RationalSeries([-c for c in self.coeffs], self.order, self.flavor)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalSeries(
                [c * other for c in self.coeffs], self.order, self.flavor
            )
        order = self._check(other)
        out = [Fraction(0)] * (order + 1)
        for i, a in enumerate(self.coeffs[: order + 1]):
            if a == 0:
                continue
            for j in range(order + 1 - i):
                b = other.coeffs[j]
                if b:
                    out[i + j] += a * b
        return RationalSeries(out, order, self.flavor)

    __rmul__ = __mul__

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative powers via reciprocal()")
        out = RationalSeries.one(self.order, self.flavor)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def differentiate(self):
        out = [self.coeffs[i] * i for i in range(1, self.order + 1)]
        return RationalSeries(out, self.order - 1, self.flavor)

    def reciprocal(self):
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series has zero constant term; not a unit")
        out = [Fraction(1) / c0]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += self.coeffs[i] * out[n - i]
            out.append(-acc / c0)
        return RationalSeries(out, self.order, self.flavor)

    def exp(self):
        """exp of a series with zero constant term, via E' = S'E."""
        if self.coeffs[0] != 0:
            raise ValueError("exp requires zero constant term")
        out = [Fraction(1)] + [Fraction(0)] * self.order
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for i in range(1, n + 1):
                acc += i * self.coeffs[i] * out[n - i]
            out[n] = acc / n
        return RationalSeries(out, self.order, self.flavor)

    def truncate(self, order):
        return RationalSeries(self.coeffs, order, self.flavor)


def sin_series(order):
    out = [Fraction(0)] * (order + 1)
    for m in range(0, (order - 1) // 2 + 1):
        out[2 * m + 1] = Fraction((-1) ** m, factorial(2 * m + 1))
    return RationalSeries(out, order, "exponential")


def cos_series(order):
    out = [Fraction(0)] * (order + 1)
    for m in range(0, order // 2 + 1):
        out[2 * m] = Fraction((-1) ** m, factorial(2 * m))
    return RationalSeries(out, order, "exponential")


def tan_plus_sec(order):
    """EGF of the Euler up/down numbers: (sin x + 1) / cos x."""
    order = _integer(order, "order")
    return (sin_series(order) + 1) * cos_series(order).reciprocal()


def euler_numbers(n_max):
    """E_0..E_n_max from the tan+sec expansion."""
    n_max = _integer(n_max, "n_max", 0)
    s = tan_plus_sec(n_max)
    return [s.egf_int(n) for n in range(n_max + 1)]


def _bound(k):
    """k as an int >= 1, taken through operator.index. The series needs a
    bound, so k = None (unbounded branching) is refused."""
    if k is None:
        raise ValueError("the series needs a bound k; None (unbounded) has no series here")
    return _integer(k, "k", 1)


def series_Tk(k, order):
    """EGF of increasing trees with branching bounded by k, solved term by
    term from T' = sum_{i<=k} (T-1)^i / i!, T(0) = 1. k is checked by
    _bound, and order is taken through operator.index.
    """
    k, order = _bound(k), _integer(order, "order")
    coeffs = [Fraction(1)] + [Fraction(0)] * order
    for n in range(order):
        # derivative coefficient at x^n uses only T-coefficients up to x^n
        t = RationalSeries(coeffs[: n + 1], n, "exponential")
        u = t - 1
        rhs = RationalSeries.one(n, "exponential")
        upow = RationalSeries.one(n, "exponential")
        for i in range(1, k + 1):
            upow = upow * u
            rhs = rhs + upow * Fraction(1, factorial(i))
        coeffs[n + 1] = rhs.coefficient(n) / (n + 1)
    return RationalSeries(coeffs, order, "exponential")


def series_Rk(k, order):
    """EGF of increasing trees with unbounded root degree: exp(T_k - 1),
    with k and order checked as series_Tk checks them."""
    return (series_Tk(k, order) - 1).exp()


def c_coefficients(k):
    """The rational constants c_{m,k}, m = 0..k-2, of the rewritten ODE."""
    k = _integer(k, "k", 2)
    out = []
    for m in range(k - 1):
        acc = sum(
            Fraction((-1) ** j) * Fraction(factorial(k), factorial(j))
            for j in range(k - m + 1)
        )
        out.append(acc / factorial(m))
    return out


def c_identity_holds(k):
    """Exact polynomial identity:
    k! * sum_{j<=k} x^j/j! == (x+1)^k + sum_m c_{m,k} (x+1)^m."""
    cs = c_coefficients(k)
    order = k
    lhs = RationalSeries(
        [Fraction(factorial(k), factorial(j)) for j in range(k + 1)], order
    )
    xp1 = RationalSeries([1, 1], order)
    rhs = xp1**k
    for m, c in enumerate(cs):
        rhs = rhs + xp1**m * c
    return lhs == rhs


def ode_via_c_matches(k, order):
    """k! T_k' == T_k^k + sum_m c_{m,k} T_k^m as truncated series, for an
    int order >= 0."""
    order = _integer(order, "order", 0)
    t = series_Tk(k, order + 1)
    lhs = t.differentiate() * factorial(k)
    t = t.truncate(order)
    rhs = t**k
    for m, c in enumerate(c_coefficients(k)):
        rhs = rhs + t**m * c
    return lhs == rhs


def a218225_terms(n_max):
    """OGF coefficients a_1..a_n_max from the functional equation
    1/((1-A)(1+A)^2) = 1-x, i.e. A = (1/(1-x) - 1) + A^2 + A^3.

    Independent of avoider enumeration; used as a cross-check oracle.
    """
    n_max = _integer(n_max, "n_max", 0)
    a = [0] * (n_max + 1)  # a[0] unused
    for n in range(1, n_max + 1):
        acc = 1  # [x^n] of 1/(1-x) - 1
        acc += sum(a[i] * a[n - i] for i in range(1, n))
        acc += sum(
            a[i] * a[j] * a[n - i - j]
            for i in range(1, n)
            for j in range(1, n - i)
        )
        a[n] = acc
    return a[1:]


def check_0021_conjecture(n_max, counts=None):
    """Verify 1/((1-A)(1+A)^2) == 1-x mod x^(n_max+1) with A the OGF of
    the 0021 avoider counts.

    counts may be supplied, exactly a_1..a_n_max; otherwise they are
    computed by enumeration. Returns (ok, report) where the report lists
    the counts and the first failing coefficient if any.
    """
    n_max = _integer(n_max, "n_max", 1)
    if counts is None:
        counts = engine.count_steps(ordinary_bounds(n_max), (0, 0, 2, 1))
    counts = list(counts)
    if len(counts) != n_max:
        raise ValueError(f"expected {n_max} counts a_1..a_{n_max}, got {len(counts)}")
    a = RationalSeries([0] + counts, n_max, "ordinary")
    lhs = ((1 - a) * (1 + a) ** 2).reciprocal()
    target = RationalSeries([1, -1], n_max, "ordinary")
    first_bad = None
    for n in range(n_max + 1):
        if lhs.coefficient(n) != target.coefficient(n):
            first_bad = n
            break
    report = {
        "n_max": n_max,
        "counts": counts,
        "first_failing_coefficient": first_bad,
    }
    return first_bad is None, report
