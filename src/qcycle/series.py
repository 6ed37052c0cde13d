"""Truncated formal power series over exact rationals, in one and two variables.

A series carries an explicit truncation order N: coefficients of x^u (resp.
x^u * y^v) are stored and exact for all u, v < N.  Binary operations between
series of different orders truncate to the smaller order, so precision loss is
always explicit.  All coefficients are `fractions.Fraction`; nothing is ever
rounded.

Every series product (in one or two variables, by an x- or a y-series, and
in `substitute_y`) runs on integers: each operand is scaled to an integer grid
over one common denominator (`integer_grid`), a one-variable series being a
grid of one row; the one kernel `_mul_ints`, the product in A = K[u, v]/<u^n,
v^n> that the tensor and solution layers also use, multiplies them in `int`;
and the result is divided once by the product of the two denominators, so
only a nonzero coefficient becomes a `Fraction`.  The `Fraction` loops these
products replaced survive only in the tests, as oracles.

Values are immutable after construction (tuples all the way down), so they are
safe to share freely, including across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm
from typing import Iterable, Sequence, Union

from .errors import (
    ConstantTermNotOne,
    ExactDivisionError,
    IndexOutOfTruncation,
    NonzeroConstantTerm,
    NotInvertible,
    ParseError,
    SeriesError,
    ZeroConstantTerm,
)

Rational = Union[Fraction, int]

ZERO = Fraction(0)
ONE = Fraction(1)


def as_fraction(value: Rational) -> Fraction:
    """Exact coercion; floats and bools raise TypeError (0.1 is not 1/10)."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (bool, float)):
        raise TypeError(f"not an exact rational: {value!r}")
    return Fraction(value)


def parse_rational(text: Union[str, int]) -> Fraction:
    """Parse "a/b" or "a" (integers accepted as shorthand).

    Floats and bools are rejected: a JSON 0.1 is a binary float, not 1/10.
    """
    if isinstance(text, (bool, float)):
        raise ParseError(f"not a rational: {text!r} (write it as a string \"a/b\")")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"not a rational: {text!r}") from exc


def _trunc_order(payload: dict) -> int:
    """A series payload's "trunc_order", which must be a JSON integer."""
    order = payload["trunc_order"]
    if type(order) is not int:
        raise ParseError(f"trunc_order must be a JSON integer, got {order!r}")
    return order


def json_array(value) -> list:
    """A payload field that must be a JSON array; a string is not one."""
    if not isinstance(value, list):
        raise ParseError(f"expected a JSON array, got {value!r}")
    return value


def integer_grid(grid) -> tuple[list[list[int]], int]:
    """(den * grid as ints, den) for the least common denominator den of a
    grid of `Fraction`s; each entry is numerator * (den // denominator)."""
    den = lcm(*(c.denominator for row in grid for c in row))
    return [[c.numerator * (den // c.denominator) for c in row] for row in grid], den


def _mul_ints(a, b, n: int) -> list[list[int]]:
    """The product of the integer grids a and b in K[u, v]/<u^n, v^n>, each
    of at most n rows of n entries (a series in one variable is one row):
    out[u][v] = sum a[ua][va] b[u - ua][v - va], with min(n, rows(a) +
    rows(b) - 1) rows.  Each nonzero entry of a adds its multiple of a row of
    b; zero entries of a and zero rows of b are skipped."""
    rows = min(n, len(a) + len(b) - 1)
    out = [[0] * n for _ in range(rows)]
    rows_b = [(ub, row) for ub, row in enumerate(b) if any(row)]
    for ua, row_a in enumerate(a):
        for va, c in enumerate(row_a):
            if c:
                for ub, row in rows_b:
                    if ua + ub >= rows:
                        break
                    orow = out[ua + ub]
                    orow[va:] = [o + c * x for o, x in zip(orow[va:], row)]
    return out


def _product(a, b, n: int) -> list[list[Fraction]]:
    """The product of two grids of `Fraction`s by `_mul_ints`: each is scaled
    to integers (`integer_grid`), and the integer product is divided once by
    the product of the two denominators."""
    a, den_a = integer_grid(a)
    b, den_b = integer_grid(b)
    den = den_a * den_b
    return [[Fraction(c, den) if c else ZERO for c in row] for row in _mul_ints(a, b, n)]


def _power(base, exponent: int, one):
    """base**exponent by square-and-multiply, starting from the unit `one`."""
    result = one
    while exponent:
        if exponent & 1:
            result = result * base
        exponent >>= 1
        if exponent:
            base = base * base
    return result


def format_rational(value: Fraction) -> str:
    """Canonical "a/b" string, denominator omitted when 1."""
    return str(value)


@lru_cache(maxsize=None)
def general_binomial(alpha: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(alpha, k) = alpha(alpha-1)...(alpha-k+1)/k!.

    Cached per (alpha, k) so repeated big-rational divisions are not redone.
    """
    if k < 0:
        raise SeriesError("binomial index must be non-negative")
    result = ONE
    for i in range(k):
        result = result * (alpha - i) / (i + 1)
    return result


class Series1:
    """Truncated one-variable series sum(c[u] * x^u for u < trunc_order)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational]):
        data = tuple(as_fraction(c) for c in coeffs)
        if not data:
            raise SeriesError("truncation order must be positive")
        object.__setattr__(self, "coeffs", data)

    def __setattr__(self, name, value):
        raise AttributeError("Series1 is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series1":
        return cls([ZERO] * order)

    @classmethod
    def one(cls, order: int) -> "Series1":
        return cls([ONE] + [ZERO] * (order - 1))

    @classmethod
    def x(cls, order: int) -> "Series1":
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: Rational = 1) -> "Series1":
        if degree >= order:
            return cls.zero(order)
        data = [ZERO] * order
        data[degree] = as_fraction(coeff)
        return cls(data)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Series1":
        data = [ZERO] * order
        data[0] = as_fraction(value)
        return cls(data)

    # -- basic queries -------------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, degree: int) -> Fraction:
        if not 0 <= degree < len(self.coeffs):
            raise IndexOutOfTruncation(f"degree {degree} at order {len(self.coeffs)}")
        return self.coeffs[degree]

    def __getitem__(self, degree: int) -> Fraction:
        return self.coefficient(degree)

    def valuation(self) -> Union[int, None]:
        """Least degree with a nonzero coefficient; None for the zero series."""
        for u, c in enumerate(self.coeffs):
            if c:
                return u
        return None

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series1) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Series1({[str(c) for c in self.coeffs]})"

    def truncated(self, order: int) -> "Series1":
        if order > len(self.coeffs):
            raise SeriesError("cannot extend truncation order without new data")
        return Series1(self.coeffs[:order])

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "Series1") -> "Series1":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series1([self.coeffs[u] + other.coeffs[u] for u in range(n)])

    def __sub__(self, other: "Series1") -> "Series1":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series1([self.coeffs[u] - other.coeffs[u] for u in range(n)])

    def __neg__(self) -> "Series1":
        return Series1([-c for c in self.coeffs])

    def scale(self, factor: Rational) -> "Series1":
        f = as_fraction(factor)
        return Series1([f * c for c in self.coeffs])

    def add_constant(self, value: Rational) -> "Series1":
        data = list(self.coeffs)
        data[0] = data[0] + as_fraction(value)
        return Series1(data)

    def __mul__(self, other: "Series1") -> "Series1":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series1(_product([self.coeffs[:n]], [other.coeffs[:n]], n)[0])

    def __pow__(self, exponent: int) -> "Series1":
        if exponent < 0:
            raise SeriesError("negative powers: use reciprocal() explicitly")
        return _power(self, exponent, Series1.one(len(self.coeffs)))

    def derivative(self) -> "Series1":
        """Formal derivative, stored at the same order with the top coefficient dropped."""
        n = len(self.coeffs)
        out = [ZERO] * n
        for u in range(1, n):
            out[u - 1] = u * self.coeffs[u]
        return Series1(out)

    def reciprocal(self) -> "Series1":
        """Multiplicative inverse; requires a nonzero constant term."""
        a = self.coeffs
        if not a[0]:
            raise ZeroConstantTerm("series has zero constant term")
        n = len(a)
        inv0 = ONE / a[0]
        out = [ZERO] * n
        out[0] = inv0
        for k in range(1, n):
            acc = ZERO
            for j in range(1, k + 1):
                aj = a[j]
                if aj:
                    acc += aj * out[k - j]
            out[k] = -inv0 * acc
        return Series1(out)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "trunc_order": len(self.coeffs),
            "coeffs": [format_rational(c) for c in self.coeffs],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Series1":
        try:
            coeffs = [parse_rational(c) for c in json_array(payload["coeffs"])]
            order = _trunc_order(payload)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed series payload: {exc}") from exc
        if len(coeffs) != order:
            raise ParseError("coeffs length does not match trunc_order")
        return cls(coeffs)


class Series2:
    """Truncated two-variable series sum(c[u][v] * x^u * y^v for u, v < trunc_order)."""

    __slots__ = ("coeffs",)

    def __init__(self, grid: Iterable[Iterable[Rational]]):
        rows = tuple(tuple(as_fraction(c) for c in row) for row in grid)
        if not rows:
            raise SeriesError("truncation order must be positive")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SeriesError("coefficient grid must be square")
        object.__setattr__(self, "coeffs", rows)

    def __setattr__(self, name, value):
        raise AttributeError("Series2 is immutable")

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series2":
        return cls([[ZERO] * order for _ in range(order)])

    @classmethod
    def monomial(cls, xdeg: int, ydeg: int, order: int, coeff: Rational = 1) -> "Series2":
        grid = [[ZERO] * order for _ in range(order)]
        if xdeg < order and ydeg < order:
            grid[xdeg][ydeg] = as_fraction(coeff)
        return cls(grid)

    @classmethod
    def from_y_slices(cls, slices: Sequence[Series1], order: int) -> "Series2":
        """Assemble sum(slices[v](x) * y^v); slices beyond the list are zero."""
        grid = [[ZERO] * order for _ in range(order)]
        for v, s in enumerate(slices[:order]):
            for u in range(min(order, len(s.coeffs))):
                grid[u][v] = s.coeffs[u]
        return cls(grid)

    @classmethod
    def from_x_series(cls, s: Series1, order: int) -> "Series2":
        """Embed a series in x as a two-variable series (constant in y)."""
        grid = [[ZERO] * order for _ in range(order)]
        for u in range(min(order, len(s.coeffs))):
            grid[u][0] = s.coeffs[u]
        return cls(grid)

    @classmethod
    def from_y_series(cls, s: Series1, order: int) -> "Series2":
        """Embed a series (read in y) as a two-variable series (constant in x)."""
        grid = [[ZERO] * order for _ in range(order)]
        for v in range(min(order, len(s.coeffs))):
            grid[0][v] = s.coeffs[v]
        return cls(grid)

    # -- queries -------------------------------------------------------------

    @property
    def trunc_order(self) -> int:
        return len(self.coeffs)

    def coefficient(self, xdeg: int, ydeg: int) -> Fraction:
        n = len(self.coeffs)
        if not (0 <= xdeg < n and 0 <= ydeg < n):
            raise IndexOutOfTruncation(f"({xdeg},{ydeg}) at order {n}")
        return self.coeffs[xdeg][ydeg]

    def slice_y(self, ydeg: int) -> Series1:
        """The coefficient of y^ydeg, as a series in x."""
        n = len(self.coeffs)
        if not 0 <= ydeg < n:
            raise IndexOutOfTruncation(f"y-degree {ydeg} at order {n}")
        return Series1([self.coeffs[u][ydeg] for u in range(n)])

    def slice_x(self, xdeg: int) -> Series1:
        """The coefficient of x^xdeg, as a series in y."""
        n = len(self.coeffs)
        if not 0 <= xdeg < n:
            raise IndexOutOfTruncation(f"x-degree {xdeg} at order {n}")
        return Series1(list(self.coeffs[xdeg]))

    def is_zero(self) -> bool:
        return not any(any(row) for row in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Series2) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        n = len(self.coeffs)
        return f"Series2(order={n})"

    def truncated(self, order: int) -> "Series2":
        if order > len(self.coeffs):
            raise SeriesError("cannot extend truncation order without new data")
        return Series2([row[:order] for row in self.coeffs[:order]])

    def agrees_with(self, other: "Series2", x_order: int, y_order: int) -> bool:
        """Coefficientwise equality restricted to x-degree < x_order, y-degree < y_order."""
        for u in range(x_order):
            ru, so = self.coeffs[u], other.coeffs[u]
            for v in range(y_order):
                if ru[v] != so[v]:
                    return False
        return True

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: "Series2") -> "Series2":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series2(
            [[self.coeffs[u][v] + other.coeffs[u][v] for v in range(n)] for u in range(n)]
        )

    def __sub__(self, other: "Series2") -> "Series2":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series2(
            [[self.coeffs[u][v] - other.coeffs[u][v] for v in range(n)] for u in range(n)]
        )

    def __neg__(self) -> "Series2":
        return Series2([[-c for c in row] for row in self.coeffs])

    def scale(self, factor: Rational) -> "Series2":
        f = as_fraction(factor)
        return Series2([[f * c for c in row] for row in self.coeffs])

    def add_constant(self, value: Rational) -> "Series2":
        grid = [list(row) for row in self.coeffs]
        grid[0][0] = grid[0][0] + as_fraction(value)
        return Series2(grid)

    def __mul__(self, other: "Series2") -> "Series2":
        n = min(len(self.coeffs), len(other.coeffs))
        return Series2(_product([row[:n] for row in self.coeffs[:n]],
                                [row[:n] for row in other.coeffs[:n]], n))

    def __pow__(self, exponent: int) -> "Series2":
        if exponent < 0:
            raise SeriesError("negative powers are not defined for Series2")
        return _power(self, exponent, Series2.monomial(0, 0, len(self.coeffs)))

    def mul_x_series(self, s: Series1) -> "Series2":
        """Multiply by a series in x alone.  The kernel skips zero entries of
        its first operand and zero rows of its second: the x-series goes first."""
        return Series2.from_x_series(s, min(len(self.coeffs), len(s.coeffs))) * self

    def mul_y_series(self, s: Series1) -> "Series2":
        """Multiply by a series in y alone (s read with its variable as y); the
        y-series, one nonzero row, goes second (see `mul_x_series`)."""
        return self * Series2.from_y_series(s, min(len(self.coeffs), len(s.coeffs)))

    def partial_x(self) -> "Series2":
        n = len(self.coeffs)
        out = [[ZERO] * n for _ in range(n)]
        for u in range(1, n):
            row = self.coeffs[u]
            orow = out[u - 1]
            for v in range(n):
                if row[v]:
                    orow[v] = u * row[v]
        return Series2(out)

    def partial_y(self) -> "Series2":
        n = len(self.coeffs)
        out = [[ZERO] * n for _ in range(n)]
        for u in range(n):
            row = self.coeffs[u]
            orow = out[u]
            for v in range(1, n):
                if row[v]:
                    orow[v - 1] = v * row[v]
        return Series2(out)

    def transposed(self) -> "Series2":
        """Swap the two variables."""
        n = len(self.coeffs)
        return Series2([[self.coeffs[v][u] for v in range(n)] for u in range(n)])

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "trunc_order": len(self.coeffs),
            "coeffs": [[format_rational(c) for c in row] for row in self.coeffs],
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Series2":
        try:
            grid = [[parse_rational(c) for c in json_array(row)] for row in json_array(payload["coeffs"])]
            order = _trunc_order(payload)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed series payload: {exc}") from exc
        if len(grid) != order or any(len(row) != order for row in grid):
            raise ParseError("coeffs grid does not match trunc_order")
        return cls(grid)


# -- free functions on series -----------------------------------------------


def compose(outer: Series1, inner: Union[Series1, Series2]):
    """outer(inner), truncated; inner must have zero constant term.

    One loop serves both inner types.  The result has the order of inner
    truncated to len(outer).  The loop runs over every coefficient of outer
    and stops once the power of inner vanishes: at order N that happens by
    k = N for a Series1, but a Series2 power can survive up to k = 2N - 2.
    """
    if not inner.truncated(1).is_zero():
        raise NonzeroConstantTerm("inner series has nonzero constant term")
    inner = inner.truncated(min(len(outer.coeffs), inner.trunc_order))
    power = inner ** 0
    acc = power.scale(outer.coeffs[0])
    for ck in outer.coeffs[1:]:
        power = power * inner
        if power.is_zero():
            break
        if ck:
            acc = acc + power.scale(ck)
    return acc


def substitute_y(series: Series2, inner: Series1) -> Series2:
    """series(x, inner(y)) for inner with zero constant term (read in y): the
    sum over v of slice_v(x) * inner(y)^v, stopping once the power vanishes."""
    if inner.coeffs[0]:
        raise NonzeroConstantTerm("inner series has nonzero constant term")
    n = min(series.trunc_order, len(inner.coeffs))
    acc = Series2.zero(n)
    power = Series1.one(n)
    for v in range(n):
        if v:
            power = power * inner
            if power.is_zero():
                break
        acc = acc + Series2.from_x_series(series.slice_y(v), n).mul_y_series(power)
    return acc


def compositional_inverse(q: Series1) -> Series1:
    """The series A with A(q(x)) = x = q(A(x)) up to truncation."""
    if q.coeffs[0]:
        raise NotInvertible("series has nonzero constant term")
    if len(q.coeffs) < 2 or not q.coeffs[1]:
        raise NotInvertible("series has zero linear coefficient")
    n = len(q.coeffs)
    inv1 = ONE / q.coeffs[1]
    data = [ZERO] * n
    data[1] = inv1
    for k in range(2, n):
        residue = compose(q, Series1(data)).coeffs[k]
        data[k] = -inv1 * residue
    return Series1(data)


def divide_exact(a: Series1, b: Series1) -> Series1:
    """a/b where ord(b) <= ord(a): both are shifted down by ord(b), then inverted.

    The result is exact to order N - ord(b) and returned at that order.
    """
    vb = b.valuation()
    if vb is None:
        raise ExactDivisionError("division by the zero series")
    va = a.valuation()
    if va is not None and va < vb:
        raise ExactDivisionError(f"ord(a)={va} < ord(b)={vb}")
    n = min(len(a.coeffs), len(b.coeffs)) - vb
    a_shift = Series1(a.coeffs[vb:vb + n])
    b_shift = Series1(b.coeffs[vb:vb + n])
    return a_shift * b_shift.reciprocal()


def binomial_series(exponent: Rational, base: Series1) -> Series1:
    """base**exponent = sum C(exponent, k) (base - 1)^k; base(0) must be 1."""
    if base.coeffs[0] != 1:
        raise ConstantTermNotOne("base must have constant term 1")
    alpha = as_fraction(exponent)
    outer = Series1([general_binomial(alpha, k) for k in range(len(base.coeffs))])
    return compose(outer, base.add_constant(-1))
