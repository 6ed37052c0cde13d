import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcycle.errors import (
    ConstantTermNotOne,
    ExactDivisionError,
    IndexOutOfTruncation,
    NonzeroConstantTerm,
    NotInvertible,
    ParseError,
    SeriesError,
    ZeroConstantTerm,
)
import qcycle.series as series_module
from qcycle.series import (
    Series1,
    Series2,
    binomial_series,
    compose,
    compositional_inverse,
    divide_exact,
    as_fraction,
    general_binomial,
    parse_rational,
    substitute_y,
)

from conftest import random_fraction, random_series1
from oracles import (
    add_constant_by_fractions,
    binomial_by_fractions,
    compose_by_fractions,
    derivative_by_fractions,
    entrywise_by_fractions,
    gathered_dot_by_sums,
    mul_x_series_by_fractions,
    mul_y_series_by_fractions,
    partial_x_by_fractions,
    partial_y_by_fractions,
    reciprocal_by_fractions,
    series1_product_by_fractions,
    series2_product_by_fractions,
    substitute_y_by_fractions,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def series1(order):
    return st.lists(rationals, min_size=order, max_size=order).map(Series1)


def series2(order):
    row = st.lists(rationals, min_size=order, max_size=order)
    return st.lists(row, min_size=order, max_size=order).map(Series2)


def constant_term(s):
    return s.coeffs[0] if isinstance(s, Series1) else s.coeffs[0][0]


def _product_operands(rng, n):
    """Grids of order n: zero, two monomials, sparse, dense, all negative, and
    dense over the coprime denominators 97, 101 and 103."""
    def grid(density, numerators, denominators):
        return Series2([
            [Fraction(rng.choice(numerators), rng.choice(denominators))
             if rng.random() < density else 0 for _ in range(n)]
            for _ in range(n)
        ])

    top = n - 1
    return [
        Series2.zero(n),
        Series2.monomial(0, top, n, Fraction(-3, 97)),
        Series2.monomial(rng.randrange(n), rng.randrange(n), n, Fraction(5, 2)),
        grid(0.25, range(-3, 4), (1, 2, 3)),
        grid(1.0, range(-5, 6), (1, 2, 3, 4)),
        grid(1.0, range(-9, 0), (1, 5, 7)),
        grid(1.0, range(-50, 51), (97, 101, 103)),
    ]


def _series1_operands(rng, n):
    """Series of order n: the first and last rows of the `_product_operands`,
    among them zero, the top monomial, sparse and dense series."""
    return [g.slice_x(u) for g in _product_operands(rng, n) for u in (0, n - 1)]


def _rational(rng, max_den=6):
    """A rational in [-4, 4] over a denominator up to max_den, as
    `rationals` draws them for max_den = 6."""
    den = rng.randint(1, max_den)
    return Fraction(rng.randint(-4 * den, 4 * den), den)


def _large(rng):
    """A rational of about 100 bits over one of the coprime 97, 101 and 103."""
    return Fraction(rng.randint(-2 ** 100, 2 ** 100), rng.choice((97, 101, 103)))


def _drawn(count, seed, *orders):
    """`count` tuples of operands from a seeded `Random`, one per entry of
    orders: a `Series1` of that order, or a rational for None.  The first
    three tuples are drawn explicitly: all zero, all large (`_large`), and
    large and zero alternating; the rest are random, as `rationals` and
    `series1` draw them."""
    rng = random.Random(seed)

    def operands(coefficient):
        return tuple(coefficient() if k is None else Series1([coefficient() for _ in range(k)])
                     for k in orders)

    zeros, larges = operands(lambda: Fraction(0)), operands(lambda: _large(rng))
    cases = [zeros, larges, tuple(z if i % 2 else x for i, (z, x) in enumerate(zip(zeros, larges)))]
    while len(cases) < count:
        cases.append(operands(lambda: _rational(rng)))
    return cases


class TestArithmetic:
    def test_add_cancellation(self):
        a = Series1([1, 1, 0])
        b = Series1([1, -1, 0])
        assert a + b == Series1([2, 0, 0])

    def test_add_identity(self):
        f = Series1([2, Fraction(1, 3), -5])
        assert Series1.zero(3) + f == f

    def test_add_hand_sum(self):
        a = Series1([0, 1, 1])
        b = Series1([0, 0, 1])
        assert a + b == Series1([0, 1, 2])

    def test_min_truncation_order(self):
        a = Series1([1, 2, 3, 4])
        b = Series1([1, 1])
        assert (a + b).trunc_order == 2
        assert (a * b).trunc_order == 2

    def test_mul_square(self):
        a = Series1([1, 1, 0])
        assert a * a == Series1([1, 2, 1])

    def test_mul_unit(self):
        f = Series1([Fraction(3, 2), 0, -1, 7])
        assert f * Series1.one(4) == f

    def test_mul_column_example(self):
        # (x+1)x truncated at order 4
        assert Series1([1, 1, 0, 0]) * Series1.x(4) == Series1([0, 1, 1, 0])

    def test_derivative(self):
        assert Series1([1, 1, 1]).derivative() == Series1([1, 2, 0])
        assert Series1.constant(5, 3).derivative() == Series1.zero(3)
        assert Series1([0, 0, 0, Fraction(1, 3)]).derivative() == Series1([0, 0, 1, 0])

    def test_reciprocal_geometric(self):
        inv = Series1([1, -1, 0, 0]).reciprocal()
        assert inv == Series1([1, 1, 1, 1])

    def test_reciprocal_one(self):
        assert Series1.one(5).reciprocal() == Series1.one(5)

    def test_reciprocal_verified_by_product(self):
        a = Series1([1, 1, 0]) * Series1([1, 1, 0])  # (1+x)^2 at order 3
        inv = a.reciprocal()
        assert inv == Series1([1, -2, 3])
        assert a * inv == Series1.one(3)

    def test_reciprocal_requires_unit(self):
        with pytest.raises(ZeroConstantTerm):
            Series1([0, 1, 0]).reciprocal()


class TestComposition:
    def test_identity_substitution(self):
        h = Series1([1, 1, 1])
        assert compose(h, Series1.x(3)) == h

    def test_square_substitution(self):
        h = Series1.monomial(2, 4)
        inner = Series1([0, 1, 1, 0])
        assert compose(h, inner) == Series1([0, 0, 1, 2])

    def test_two_variable_substitution_identity(self):
        grid = Series2([[0, 1, 0], [1, 2, 0], [0, 0, 3]])
        h = Series1.x(3)
        assert compose(h, grid) == grid

    def test_nonzero_constant_rejected(self):
        with pytest.raises(NonzeroConstantTerm):
            compose(Series1.x(3), Series1.one(3))

    def test_inverse_of_x(self):
        assert compositional_inverse(Series1.x(4)) == Series1.x(4)

    def test_inverse_of_geometric_ratio(self):
        # x/(1-x) = x + x^2 + x^3 + x^4; inverse is x/(1+x)
        q = Series1([0, 1, 1, 1, 1])
        a = compositional_inverse(q)
        assert a == Series1([0, 1, -1, 1, -1])
        assert compose(q, a) == Series1.x(5)
        assert compose(a, q) == Series1.x(5)

    def test_inverse_of_x_plus_x2(self):
        q = Series1([0, 1, 1, 0])
        a = compositional_inverse(q)
        assert a == Series1([0, 1, -1, 2])
        assert compose(q, a) == Series1.x(4)

    def test_inverse_requires_linear_term(self):
        with pytest.raises(NotInvertible):
            compositional_inverse(Series1([0, 0, 1, 0]))

    @given(series1(7))
    @settings(max_examples=60)
    def test_degree_solver_reproduces_reciprocal(self, a):
        # a s = 1: s_k enters the x^k coefficient of a s - 1 as a_0 s_k
        a = Series1([a.coeffs[0] or 1] + list(a.coeffs[1:]))
        a0 = a.coeffs[0]
        s = series_module._by_degree(7, [1 / a0], lambda t: (a * t).add_constant(-1),
                                     lambda k: a0)
        assert s == a.reciprocal()

    def test_degree_solver_returns_a_full_head(self):
        def unread(_):
            raise AssertionError("no degree is left to solve")
        head = [Fraction(1, 2), 0, -3]
        assert series_module._by_degree(3, head, unread, unread) == Series1(head)


class TestBinomialSeries:
    def test_square_root(self):
        root = binomial_series(Fraction(1, 2), Series1([1, 1, 0]))
        assert root == Series1([1, Fraction(1, 2), Fraction(-1, 8)])
        assert root * root == Series1([1, 1, 0])

    def test_zero_exponent(self):
        f = Series1([1, 7, -2])
        assert binomial_series(0, f) == Series1.one(3)

    def test_geometric_from_negative_exponent(self):
        # (1-y)^(-1) at order 4
        assert binomial_series(-1, Series1([1, -1, 0, 0])) == Series1([1, 1, 1, 1])

    def test_requires_unit_constant_term(self):
        with pytest.raises(ConstantTermNotOne):
            binomial_series(Fraction(1, 2), Series1([2, 1, 0]))

    def test_generalized_coefficients(self):
        assert general_binomial(Fraction(1, 2), 2) == Fraction(-1, 8)
        assert general_binomial(Fraction(-3), 2) == 6


class TestDivideExact:
    def test_shifted_division(self):
        # (x^2 + x^3) / x = x + x^2, exact at order 3
        num = Series1([0, 0, 1, 1])
        assert divide_exact(num, Series1.x(4)) == Series1([0, 1, 1])

    def test_rejects_smaller_valuation(self):
        with pytest.raises(ExactDivisionError):
            divide_exact(Series1.x(4), Series1.monomial(2, 4))

    def test_rejects_zero_divisor(self):
        with pytest.raises(ExactDivisionError):
            divide_exact(Series1.x(4), Series1.zero(4))


class TestSeries2:
    def test_coefficient_and_slices(self):
        s = Series2([[0, 0, 0], [0, 1, 0], [0, 0, 0]])  # x*y
        assert s.coefficient(0, 0) == 0
        assert s.coefficient(1, 1) == 1
        assert s.slice_y(1) == Series1([0, 1, 0])
        assert s.slice_x(1) == Series1([0, 1, 0])

    def test_out_of_truncation(self):
        s = Series2.zero(3)
        with pytest.raises(IndexOutOfTruncation):
            s.coefficient(0, 3)
        with pytest.raises(IndexOutOfTruncation):
            s.slice_y(5)
        with pytest.raises(IndexOutOfTruncation):
            Series1.zero(3).coefficient(3)

    def test_negative_monomial_degree_raises(self):
        # a negative degree must not wrap around to the top of the truncation
        with pytest.raises(IndexOutOfTruncation):
            Series1.monomial(-1, 5)
        for xdeg, ydeg in ((-1, 0), (0, -1), (-1, -1)):
            with pytest.raises(IndexOutOfTruncation):
                Series2.monomial(xdeg, ydeg, 3)
        # a degree at or above the order is still the zero series
        assert Series1.monomial(5, 5) == Series1.zero(5)
        assert Series2.monomial(3, 0, 3) == Series2.zero(3)

    def test_negative_truncation_order_raises(self):
        # a negative order must not slice off the top coefficients
        a = Series1([1, 2, 3, 4])
        g = Series2([[1, 2], [3, 4]])
        for truncate in (a.truncated, g.truncated):
            with pytest.raises(SeriesError):
                truncate(-1)
        assert a.truncated(4) == a and g.truncated(2) == g

    def test_negative_agreement_order_raises(self):
        # a negative order must not compare fewer coefficients than asked
        g = Series2([[1, 2], [3, 4]])
        h = Series2([[1, 2], [3, 5]])
        for x_order, y_order in ((-1, 2), (2, -1), (-1, -1)):
            with pytest.raises(SeriesError):
                g.agrees_with(h, x_order, y_order)
        assert g.agrees_with(h, 2, 1) and not g.agrees_with(h, 2, 2)
        assert g.agrees_with(h, 0, 0)

    def test_agreement_order_above_truncation_raises(self):
        # an order above either series' own must not narrow to the shorter one
        g = Series2([[1, 2], [3, 4]])
        h = Series2([[1, 2, 0], [3, 4, 0], [0, 0, 9]])
        for x_order, y_order in ((3, 3), (3, 2), (2, 3)):
            for a, b in ((g, h), (h, g)):
                with pytest.raises(SeriesError):
                    a.agrees_with(b, x_order, y_order)
        assert g.agrees_with(h, 2, 2) and h.agrees_with(g, 2, 2) and h.agrees_with(h, 3, 3)

    def test_transpose(self):
        s = Series2([[0, 1, 0], [2, 0, 0], [0, 0, 0]])
        assert s.transposed().coefficient(1, 0) == 1
        assert s.transposed().coefficient(0, 1) == 2

    def test_mixed_products(self):
        s = Series2.monomial(1, 1, 4)
        t = s.mul_x_series(Series1([0, 2, 0, 0]))
        assert t.coefficient(2, 1) == 2
        u = s.mul_y_series(Series1([0, 3, 0, 0]))
        assert u.coefficient(1, 2) == 3


class TestProductKernel:
    """Every series product, by a series or by a one-variable one, and the
    substitution in y, on the integer kernels, against its oracle with the
    canonical form asserted (`assert_cases`), on every pair of operands."""

    # (order of a, order of b): equal, and unequal either way round, where
    # the product takes the smaller order; order nine
    ORDERS = [(1, 1), (2, 2), (3, 5), (5, 3), (6, 6), (4, 7), (9, 9), (9, 7), (7, 9)]

    @pytest.mark.parametrize("order_a, order_b", ORDERS)
    def test_matches_fraction_loop(self, rng, order_a, order_b):
        assert_cases([(a * b, series2_product_by_fractions(a, b))
                      for a in _product_operands(rng, order_a)
                      for b in _product_operands(rng, order_b)])

    @pytest.mark.parametrize("order_a, order_b", ORDERS)
    def test_series1_matches_fraction_loop(self, rng, order_a, order_b):
        assert_cases([(a * b, series1_product_by_fractions(a, b))
                      for a in _series1_operands(rng, order_a)
                      for b in _series1_operands(rng, order_b)])

    @pytest.mark.parametrize("order_a, order_b", ORDERS)
    def test_one_variable_factor_matches_fraction_loops(self, rng, order_a, order_b):
        assert_cases([case for h in _product_operands(rng, order_a)
                      for s in _series1_operands(rng, order_b)
                      for case in ((h.mul_x_series(s), mul_x_series_by_fractions(h, s)),
                                   (h.mul_y_series(s), mul_y_series_by_fractions(h, s)))])

    @pytest.mark.parametrize("order", [1, 2, 5, 7])
    def test_product_sum_matches_sum_of_products(self, rng, order):
        # sums over one denominator of products by x- and y-series and of
        # x-series times y-series, against `_combination` of the products
        # made one at a time, over the coprime denominators 97, 101, 103
        grids = _product_operands(rng, order)
        ones = _series1_operands(rng, order)
        kinds = [
            (lambda h, s: (h, s), lambda h, s: h.mul_y_series(s)),
            (lambda h, s: (s, h), lambda h, s: h.mul_x_series(s)),
            (lambda h, s: (h.slice_y(0), s),
             lambda h, s: Series2.from_x_series(h.slice_y(0), order).mul_y_series(s)),
        ]
        mixed = 0
        for start in range(4):
            picks = [(grids[(start + 3 * i) % len(grids)], ones[(start + 5 * i) % len(ones)],
                      kinds[(start + i) % 3]) for i in range(4)]
            terms = [operands(h, s) for h, s, (operands, _) in picks]
            products = [product(h, s) for h, s, (_, product) in picks]
            assert Series2._product_sum(terms, order) == Series2._combination(
                [(1, p) for p in products], order)
            mixed += len({p._den for p in products if not p.is_zero()}) > 1
        assert mixed or order == 1

    @pytest.mark.parametrize("order_a, order_b", ORDERS)
    def test_substitute_y_matches_fraction_loop(self, rng, monkeypatch, order_a, order_b):
        # substitute_y makes the powers of inner with Series1 products; count
        # them, so that a loop running on past a vanished power is caught
        n = min(order_a, order_b)
        made, multiply = [], Series1.__mul__

        def counted(a, b):
            made.append((a, b))
            return multiply(a, b)

        monkeypatch.setattr(Series1, "__mul__", counted)
        inners = [Series1([0] + list(s.coeffs[1:])) for s in _series1_operands(rng, order_b)]
        stopped_early = False
        for series in _product_operands(rng, order_a):
            for inner in inners:
                powers = [Series1.one(n)]
                while len(powers) < n and not powers[-1].is_zero():
                    powers.append(series1_product_by_fractions(powers[-1], inner))
                made.clear()
                result = substitute_y(series, inner)
                assert_cases([(result, substitute_y_by_fractions(series, inner))])
                assert len(made) == len(powers) - 1
                stopped_early |= not inner.is_zero() and len(powers) < n
        # a nonzero inner, the top monomial, has inner^2 = 0
        assert stopped_early or n < 4


class TestGatheredDot:
    """`_gathered_dot` in both its forms against the term-by-term sum."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_sums(self, rng, forms, n):
        def grid(density):
            return [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n * n)]

        # a single nonzero entry leaves every gather with fewer than two terms
        single = [[[0] * n for _ in range(n)] for _ in range(n)]
        single[rng.randrange(n)][rng.randrange(n)][rng.randrange(n)] = 7
        operands = [single, [[[0] * n for _ in range(n)] for _ in range(n)]]
        operands += [[[grid(density)[b * n:(b + 1) * n] for b in range(n)] for _ in range(n)]
                     for density in (0.2, 0.6, 1.0)]
        for w in operands:
            contract = series_module._gathered_dot(w, n)
            forms.clear()
            for density in (0, 1 / (n * n), 0.3, 0.7, 1.0):
                vec = grid(density)
                assert contract(vec) == contract(tuple(vec)) == gathered_dot_by_sums(w, vec, n)
            if any(x for plane in w for line in plane for x in line):
                assert set(forms) == {"row", "column"}
            else:
                assert set(forms) == {"row"}


# -- the stored integer form, against the oracles -----------------------------------


def assert_canonical(s):
    """The one stored form: int numerators in tuples over one denominator
    den >= 1 with gcd(den, *nums) = 1 (so the zero series has den = 1), and a
    `.coeffs` view of `Fraction`s equal to nums / den."""
    rows = (s._nums,) if isinstance(s, Series1) else s._nums
    view = (s.coeffs,) if isinstance(s, Series1) else s.coeffs
    assert type(s._nums) is tuple and all(type(row) is tuple for row in rows)
    assert all(type(x) is int for row in rows for x in row)
    assert type(s._den) is int and s._den >= 1
    assert gcd(s._den, *(x for row in rows for x in row)) == 1
    assert type(view) is tuple and all(type(line) is tuple for line in view)
    assert all(type(c) is Fraction and c == Fraction(x, s._den)
               for row, line in zip(rows, view) for x, c in zip(row, line))


def one_variable_cases(a, b, f):
    """(result, oracle) for every operation of `Series1` on the operands but
    the product, which `TestProductKernel` checks on every pair."""
    inner = b.add_constant(-b.coeffs[0])
    cases = [
        (a + b, entrywise_by_fractions(lambda x, y: x + y, a, b)),
        (a - b, entrywise_by_fractions(lambda x, y: x - y, a, b)),
        (Series1._combination([(f, a), (-2, b), (0, a)], min(a.trunc_order, b.trunc_order)),
         entrywise_by_fractions(lambda x, y: f * x - 2 * y, a, b)),
        (-a, entrywise_by_fractions(lambda x: -x, a)),
        (a.scale(f), entrywise_by_fractions(lambda x: f * x, a)),
        (a.scale(0), Series1.zero(a.trunc_order)),
        (a.add_constant(f), add_constant_by_fractions(a, f)),
        (a.derivative(), derivative_by_fractions(a)),
        (a.truncated(1), Series1(a.coeffs[:1])),
        (compose(a, inner), compose_by_fractions(a, inner)),
    ]
    if a.coeffs[0]:
        cases.append((a.reciprocal(), reciprocal_by_fractions(a)))
    return cases


def two_variable_cases(g, h, s, f):
    """(result, oracle) for every operation of `Series2` on the operands but
    the products and `substitute_y`, which `TestProductKernel` checks on
    every pair."""
    n = g.trunc_order
    cases = [
        (g + h, entrywise_by_fractions(lambda x, y: x + y, g, h)),
        (g - h, entrywise_by_fractions(lambda x, y: x - y, g, h)),
        (Series2._combination([(f, g), (-2, h), (0, g)], min(n, h.trunc_order)),
         entrywise_by_fractions(lambda x, y: f * x - 2 * y, g, h)),
        (-g, entrywise_by_fractions(lambda x: -x, g)),
        (g.scale(f), entrywise_by_fractions(lambda x: f * x, g)),
        (g.scale(0), Series2.zero(n)),
        (g.add_constant(f), add_constant_by_fractions(g, f)),
        (g.partial_x(), partial_x_by_fractions(g)),
        (g.partial_y(), partial_y_by_fractions(g)),
        (g.transposed(), Series2(zip(*g.coeffs))),
        (g.truncated(1), Series2([g.coeffs[0][:1]])),
        (compose(s, g.add_constant(-g.coeffs[0][0])),
         compose_by_fractions(s, g.add_constant(-g.coeffs[0][0]))),
    ]
    for k in (0, n - 1):
        cases.append((g.slice_y(k), Series1([row[k] for row in g.coeffs])))
        cases.append((g.slice_x(k), Series1(g.coeffs[k])))
    return cases


def assert_cases(cases):
    for result, oracle in cases:
        assert result == oracle
        assert result.trunc_order == oracle.trunc_order
        assert_canonical(result)


@st.composite
def mixed_orders(draw, kind):
    """Two operands of orders 1-6, either way round, and a rational factor."""
    a = draw(kind(draw(st.integers(1, 6))))
    b = draw(kind(draw(st.integers(1, 6))))
    return a, b, draw(rationals)


class TestIntegerForm:
    """Each operation on the stored (nums, den) form against its oracle
    (`oracles`), with the canonical form asserted after each one."""

    @given(operands=mixed_orders(series1))
    @settings(max_examples=50, deadline=None)
    def test_one_variable_operations(self, operands):
        a, b, f = operands
        assert_canonical(a)
        assert_cases(one_variable_cases(a, b, f))

    @given(operands=mixed_orders(series2), data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_two_variable_operations(self, operands, data):
        g, h, f = operands
        s = data.draw(series1(data.draw(st.integers(1, 6))))
        assert_canonical(g)
        assert_cases(two_variable_cases(g, h, s, f))
        x_order, y_order = min(g.trunc_order, h.trunc_order), data.draw(st.integers(0, 6))
        y_order = min(y_order, x_order)
        assert g.agrees_with(h, x_order, y_order) == all(
            g.coeffs[u][v] == h.coeffs[u][v] for u in range(x_order) for v in range(y_order))
        assert g.agrees_with(g.scale(3).scale(Fraction(1, 3)), g.trunc_order, g.trunc_order)

    @pytest.mark.parametrize("order_a, order_b", [(9, 9), (9, 7), (7, 9)])
    def test_order_nine(self, order_a, order_b):
        # zero, the top monomial, sparse and dense grids over coprime denominators
        rng = random.Random(900 + order_a * 10 + order_b)
        f = Fraction(-7, 15)
        ones = _series1_operands(rng, order_b)
        for a in _series1_operands(rng, order_a):
            for b in ones[::3]:
                assert_cases(one_variable_cases(a, b, f))
        twos = _product_operands(rng, order_b)
        for g in _product_operands(rng, order_a):
            for h, s in zip(twos[::2], ones[::3]):
                assert_cases(two_variable_cases(g, h, s, f))

    # (outer order, inner order) of `compose`: outer shorter than, equal to
    # and longer than inner; a Series2 power survives up to k = 2N - 2, so
    # the longest outer reaches past the inner order
    @pytest.mark.parametrize("outer_order, inner_order", [(2, 5), (4, 4), (9, 4), (1, 3)])
    def test_compose_orders(self, rng, outer_order, inner_order):
        top = inner_order - 1
        for _ in range(25):
            outer = random_series1(rng, outer_order)
            inners = [
                random_series1(rng, inner_order),
                Series2([[random_fraction(rng) for _ in range(inner_order)]
                         for _ in range(inner_order)]),
                # powers that vanish early, before the order does
                Series1.monomial(top, inner_order),
                Series2.monomial(top, top, inner_order),
            ]
            for inner in inners:
                inner = inner.add_constant(-constant_term(inner))
                assert_cases([(compose(outer, inner), compose_by_fractions(outer, inner))])
                with pytest.raises(NonzeroConstantTerm):
                    compose(outer, inner.add_constant(random_fraction(rng) or 1))

    def test_zero_and_top_monomial(self):
        for n in (1, 2, 9):
            top = Series2.monomial(n - 1, n - 1, n, Fraction(6, 4))
            assert (top._nums[n - 1][n - 1], top._den) == (3, 2)
            assert (top * top).is_zero() == (n > 1)
            for s in (Series1.zero(n), Series2.zero(n), top.scale(0), top - top,
                      Series1.monomial(n - 1, n, Fraction(-3, 97)).scale(0),
                      Series2._combination([(Fraction(2, 3), top), (Fraction(-4, 6), top)], n),
                      Series1._combination([], n)):
                assert_canonical(s)
                assert s._den == 1 and s.is_zero()

    def test_equal_by_different_routes(self):
        half = Fraction(1, 2)
        routes = [
            Series1([half, 1, 0]),
            Series1([Fraction(3, 6), Fraction(4, 4), 0]),
            Series1([1, 2, 0]).scale(half),
            Series1([half, 3, 5]) - Series1([0, 2, 5]),
            Series1.constant(half, 3) + Series1.x(3),
            Series1([1, 2, 0]) * Series1.constant(half, 3),
            Series1([2, 0, 0]).reciprocal().add_constant(0) + Series1.x(3),
            Series1([half, 1, 0, 7]).truncated(3),
            Series1([0, half, half]).derivative(),
            Series2([[half, 0, 0], [1, 0, 0], [0, 0, 0]]).slice_y(0),
            Series2([[half, 1, 0], [0, 0, 0], [0, 0, 0]]).slice_x(0),
            Series1.from_payload({"trunc_order": 3, "coeffs": ["1/2", "1", "0"]}),
        ]
        grid = [[half, 0, 0], [1, 0, Fraction(2, 3)], [0, 0, 0]]
        routes2 = [
            Series2(grid),
            Series2(zip(*grid)).transposed(),
            Series2(grid).scale(3).scale(Fraction(1, 3)),
            Series2.from_y_slices([Series1([half, 1, 0]), Series1.zero(3),
                                   Series1([0, Fraction(2, 3), 0])], 3),
            Series2.monomial(0, 0, 3, half) + Series2.monomial(1, 0, 3)
            + Series2.monomial(1, 2, 3, Fraction(2, 3)),
            Series2([[half, 0, 0, 1], [1, 0, Fraction(2, 3), 0], [0, 0, 0, 0],
                     [0, 0, 0, 0]]).truncated(3),
            Series2.from_payload(Series2(grid).to_payload()),
        ]
        for group in (routes, routes2):
            for s in group:
                assert_canonical(s)
                assert s == group[0] and hash(s) == hash(group[0])
                assert s._nums == group[0]._nums and s._den == group[0]._den
        assert len({*routes, *routes2}) == 2

    def test_views_are_fractions_of_their_own_series(self):
        a, b = Series1([1, Fraction(1, 3)]), Series1([Fraction(2, 5), 7])
        sums = [a + b, a - b]
        assert [s.coeffs for s in sums] == [(Fraction(7, 5), Fraction(22, 3)),
                                           (Fraction(3, 5), Fraction(-20, 3))]
        g, h = Series2.monomial(1, 0, 2, Fraction(1, 3)), Series2.monomial(0, 1, 2, 5)
        assert (g + h).coeffs == ((0, 5), (Fraction(1, 3), 0))
        assert (g - h).coeffs == ((0, -5), (Fraction(1, 3), 0))
        for s in (a, b, *sums, g, h):
            assert_canonical(s)
            assert s.coeffs is s.coeffs

    def test_sum_over_lcm_of_denominators(self, monkeypatch):
        # + and - form their sum over lcm(da, db), not da * db, so repeated
        # sums do not grow the integers
        seen, reduced = [], series_module._reduced

        def spy(rows, den):
            seen.append(den)
            return reduced(rows, den)

        monkeypatch.setattr(series_module, "_reduced", spy)
        a, b = Series1([Fraction(1, 6), 1]), Series1([Fraction(1, 10), 1])
        g, h = Series2([[Fraction(1, 6)]]), Series2([[Fraction(1, 10)]])
        for result in (a + b, a - b, g + h, g - h):
            assert seen.pop() == 30
        # the coefficients' denominators join the lcm; a zero term's do not
        sevenths = Series1([Fraction(1, 7), 1])
        Series1._combination([(Fraction(1, 2), a), (0, sevenths), (Fraction(-1, 3), b)], 2)
        assert seen.pop() == 60

    def test_public_constructors_reject_floats_and_bools(self):
        for bad in (0.1, 2.0, True, 0.0, False):
            for build in (lambda: Series1([1, bad]), lambda: Series2([[bad]]),
                          lambda: Series1.monomial(1, 3, bad),
                          lambda: Series2.monomial(0, 0, 2, bad),
                          lambda: Series1.one(2).scale(bad),
                          lambda: Series2.zero(2).add_constant(bad),
                          lambda: Series1._combination([(bad, Series1.one(2))], 2),
                          lambda: Series2._combination([(1, Series2.zero(2)),
                                                        (bad, Series2.zero(2))], 2)):
                with pytest.raises(TypeError):
                    build()


def _coefficient(rng):
    """An int in [-6, 6], an int or `Fraction` zero, or a rational in [-4, 4]
    over a denominator up to 12."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randint(-6, 6)
    if kind == 1:
        return rng.choice((0, Fraction(0)))
    return _rational(rng, 12)


def _combination_operands(cls, count, seed):
    """`count` pairs (terms, order) for `cls._combination`: int, `Fraction`
    and zero coefficients over mixed denominators, on series of orders
    `order` to 6 (a zero coefficient's series may be shorter, being skipped),
    zero series among them, and, half the time, every term again with its
    coefficient negated, so that the sum cancels to zero.  Drawn from a
    seeded `Random` after four pairs made explicitly: no terms, zero series
    only, and large coefficients (`_large`) on large series, alone and
    cancelling."""
    rng = random.Random(seed)

    def series(order, coefficient):
        if cls is Series1:
            return Series1([coefficient() for _ in range(order)])
        return Series2([[coefficient() for _ in range(order)] for _ in range(order)])

    big = [(_large(rng), series(order, lambda: _large(rng))) for order in (5, 6)]
    cases = [([], 3),
             ([(2, cls.zero(4)), (Fraction(-1, 3), cls.zero(3)), (0, cls.zero(1))], 3),
             (big + [(10 ** 30 + 1, big[0][1]), (0, series(2, lambda: _large(rng)))], 5),
             (big + [(-c, s) for c, s in big], 5)]
    while len(cases) < count:
        order = rng.randint(1, 6)
        terms = []
        for _ in range(rng.randint(0, 5)):
            c = _coefficient(rng)
            s_order = rng.randint(1 if c == 0 else order, 6)
            s = (cls.zero(s_order) if rng.randrange(5) == 0
                 else series(s_order, lambda: _rational(rng)))
            terms.append((c, s))
        if rng.random() < 0.5:
            terms += [(-c, s) for c, s in terms]
        rng.shuffle(terms)
        cases.append((terms, order))
    return cases


class TestCombinationKernel:
    """`_Series._combination`, the one n-ary sum, against the sum made
    coefficient by coefficient, on `Series1` and `Series2`."""

    @pytest.mark.parametrize("cls", [Series1, Series2])
    def test_matches_fraction_loop(self, cls):
        for terms, order in _combination_operands(cls, 80, 20261018):
            result = cls._combination(terms, order)
            # the zero series of the order fixes the oracle's type and order; a
            # term with a zero coefficient may be shorter, and is left out
            live = [(c, s) for c, s in terms if c]
            oracle = entrywise_by_fractions(
                lambda zero, *xs: sum((c * x for (c, _), x in zip(live, xs)), zero),
                cls.zero(order), *(s for _, s in live))
            assert type(result) is cls and result.trunc_order == order
            assert result == oracle and result.coeffs == oracle.coeffs
            assert_canonical(result)
            if result.is_zero():
                assert result._den == 1
            assert cls._combination(terms + [(0, cls.zero(1))], order) == result

    @pytest.mark.parametrize("cls", [Series1, Series2])
    def test_terms_below_the_order(self, cls):
        # a skipped term may be shorter than the sum; a summed one may not
        s = cls.zero(4).add_constant(Fraction(7, 6))
        assert cls._combination([(1, s), (0, cls.zero(2))], 3) == s.truncated(3)
        with pytest.raises(SeriesError, match="order"):
            cls._combination([(1, s), (2, cls.zero(2))], 3)


class TestParsing:
    def test_rational_round_trip(self):
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-5") == Fraction(-5)
        assert str(Fraction(3, 4)) == "3/4"
        assert str(Fraction(5)) == "5"
        assert parse_rational(7) == 7
        for value in (0.1, 1e300, True):
            with pytest.raises(ParseError):
                parse_rational(value)

    def test_as_fraction_is_exact(self):
        assert as_fraction(Fraction(3, 4)) == Fraction(3, 4)
        assert as_fraction(-5) == Fraction(-5)
        assert as_fraction("2/3") == Fraction(2, 3)
        for value in (0.1, 2.0, True, False):
            with pytest.raises(TypeError):
                as_fraction(value)
        with pytest.raises(TypeError):
            Series1([1, 0.5])
        with pytest.raises(TypeError):
            Series2([[True]])

    def test_payloads(self):
        s = Series1([1, Fraction(-2, 3)])
        assert Series1.from_payload(s.to_payload()) == s
        g = Series2([[1, 0], [Fraction(1, 7), 2]])
        assert Series2.from_payload(g.to_payload()) == g
        # the order is a JSON integer: 3.9, "3" and true are not truncated or coerced
        for order in (3.9, 3.0, "3", True):
            with pytest.raises(ParseError):
                Series1.from_payload({"trunc_order": order, "coeffs": ["1", "2", "3"]})
            with pytest.raises(ParseError):
                Series2.from_payload({"trunc_order": order, "coeffs": [["0"] * 3] * 3})
        # a JSON string where an array is due is not read character by character
        with pytest.raises(ParseError):
            Series1.from_payload({"trunc_order": 3, "coeffs": "123"})
        for coeffs in ("000", ["00", "00"], [["0", "0"], "00"]):
            with pytest.raises(ParseError):
                Series2.from_payload({"trunc_order": 2, "coeffs": coeffs})
        # an empty series is malformed input, like every other bad payload
        for cls in (Series1, Series2):
            with pytest.raises(ParseError, match="positive"):
                cls.from_payload({"trunc_order": 0, "coeffs": []})


class TestAlgebraProperties:
    """Laws of the series operations on operands from `_drawn`, at the
    example counts these tests ran with under hypothesis."""

    def test_mul_commutative(self):
        for a, b in _drawn(100, 1, 6, 6):
            assert a * b == b * a

    def test_mul_associative(self):
        for a, b, c in _drawn(60, 2, 5, 5, 5):
            assert (a * b) * c == a * (b * c)

    def test_distributive(self):
        for a, b, c in _drawn(60, 3, 5, 5, 5):
            assert a * (b + c) == a * b + a * c

    def test_derivative_is_derivation(self):
        for a, b in _drawn(100, 4, 6, 6):
            lhs = (a * b).derivative()
            rhs = a.derivative() * b + a * b.derivative()
            # the top coefficient of a derivative is truncation-dependent
            assert lhs.coeffs[:5] == rhs.coeffs[:5]

    def test_compose_associative(self):
        for h, k, s in _drawn(40, 5, 6, 6, 6):
            k = Series1([0] + list(k.coeffs[1:]))
            s = Series1([0] + list(s.coeffs[1:]))
            assert compose(h, compose(k, s)) == compose(compose(h, k), s)

    def test_compositional_inverse_round_trip(self):
        for q, in _drawn(60, 6, 6):
            q = Series1([0, q.coeffs[1] or 1] + list(q.coeffs[2:]))
            a = compositional_inverse(q)
            assert compose(q, a) == Series1.x(6)
            assert compose(a, q) == Series1.x(6)

    def test_binomial_inverse_pair(self):
        for alpha, b in _drawn(60, 7, None, 6):
            b = Series1([1] + list(b.coeffs[1:]))
            product = binomial_series(alpha, b) * binomial_series(-alpha, b)
            assert product == Series1.one(6)

    def test_reciprocal_round_trip(self):
        for a, in _drawn(100, 8, 6):
            a = Series1([1] + list(a.coeffs[1:]))
            assert a * a.reciprocal() == Series1.one(6)

    def test_mul_commutative_at_larger_orders(self):
        for order in range(2, 13):    # every order the hypothesis range held
            a = Series1([Fraction(i % 5 - 2, 1 + (i % 3)) for i in range(order)])
            b = Series1([Fraction((i * 7) % 4 - 1) for i in range(order)])
            assert a * b == b * a


class TestSingleLoopMatchesOracles:
    """`binomial_series` against its definition, and `**` against repeated
    products."""

    @given(rationals, series1(6))
    @settings(max_examples=40, deadline=None)
    def test_binomial_matches_loop(self, alpha, b):
        base = b.add_constant(1 - b.coeffs[0])
        assert binomial_series(alpha, base) == binomial_by_fractions(alpha, base)
        if b.coeffs[0] != 1:
            with pytest.raises(ConstantTermNotOne):
                binomial_series(alpha, b)
            with pytest.raises(ConstantTermNotOne):
                binomial_by_fractions(alpha, b)

    @given(series1(5), series2(3))
    @settings(max_examples=30, deadline=None)
    def test_powers_match_repeated_products(self, a, g):
        for s, one in ((a, Series1.one(5)), (g, Series2.monomial(0, 0, 3))):
            product = one
            for k in range(s.trunc_order + 1):
                assert s ** k == product
                product = product * s
            with pytest.raises(SeriesError):
                s ** -1
