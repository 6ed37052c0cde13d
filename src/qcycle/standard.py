"""Construction of standard cycle coalgebras from a defining series.

Given n, a degree 1 <= v0 < n and normalized parameters {p_v} (p_{v0} = 1),
set f = 1 + sum_{v0 <= v < n} p_v x^v.  The structure tensor is built in three
steps:

  1. the column series g = f (f^{v0} - 1) / f', which lies in x + x^2 K[[x]];
  2. the two-variable table G = sum g_v(x) y^v fixed by g_0 = x and

       (v+1) g_{v+1} = g * sum_{l} (v-l+1) p_{v-l+1} g_l'  -  sum_{l} p_{v-l+1} l g_l,

     equivalently G_y = g(x) f'(y) G_x - (f(y) - 1) G_y;
  3. level-1 entries t[u][v][1] = coefficient of x^u in g_v; level k is the
     k-th power of G (`tensor.extend_from_level1`).

The resulting pair (t, t) satisfies all braid-equation families exactly; the
identity suite in `operators` re-derives this through the differential
calculus on K[[x, y]].
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .errors import ValidationError
from .series import (
    ONE,
    Series1,
    Series2,
    ZERO,
    as_fraction,
    divide_exact,
)
from .tensor import CheckResult, CoeffTensor, SuiteReport, _check, extend_from_level1


def _require_degree(n: int, degree: int) -> None:
    """1 <= v0 < n, which also requires n >= 2."""
    if not 1 <= degree < n:
        raise ValidationError("degree must satisfy 1 <= v0 < n")


@dataclass(frozen=True)
class StandardCycleParams:
    """Normalized defining data: dimension n, degree v0, parameters p_v.

    coeffs maps v -> p_v for v0 <= v < n and must have p_{v0} = 1; the
    general (non-normalized) case is reached by `tensor.rescale`.
    """

    n: int
    degree: int
    coeffs: tuple  # ((v, Fraction), ...) sorted by v

    def __init__(self, n: int, degree: int, coeffs: Mapping[int, object]):
        if n < 2:
            raise ValidationError("n must be at least 2")
        _require_degree(n, degree)
        normalized = {int(v): as_fraction(c) for v, c in coeffs.items()}
        if set(normalized) != set(range(degree, n)):
            raise ValidationError("parameters must cover exactly v0 <= v < n")
        if normalized[degree] != 1:
            raise ValidationError("p_{v0} must equal 1 in normalized form")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", tuple(sorted(normalized.items())))

    @classmethod
    def from_tail(cls, n: int, degree: int, tail: Sequence[object]) -> "StandardCycleParams":
        """Parameters p_{v0+1}, ..., p_{n-1}; p_{v0} is fixed to 1."""
        _require_degree(n, degree)    # before the count, which assumes it
        if len(tail) != n - degree - 1:
            raise ValidationError(
                f"expected {n - degree - 1} parameters p_{{{degree + 1}}}..p_{{{n - 1}}}, got {len(tail)}"
            )
        coeffs = {degree: ONE}
        for offset, value in enumerate(tail):
            coeffs[degree + 1 + offset] = as_fraction(value)
        return cls(n, degree, coeffs)

    def coeff(self, v: int) -> Fraction:
        """p_v, with p_0 = 1 and p_v = 0 outside the stored range."""
        if v == 0:
            return ONE
        for w, c in self.coeffs:
            if w == v:
                return c
        return ZERO

    def row_series(self, order: int) -> Series1:
        """f = 1 + sum p_v x^v at the requested truncation order."""
        data = [ZERO] * order
        data[0] = ONE
        for v, c in self.coeffs:
            if v < order:
                data[v] = c
        return Series1(data)


@dataclass(frozen=True)
class StandardCycleBundle:
    """Everything `build_standard_cycle` produces, at one truncation order."""

    params: StandardCycleParams
    order: int
    row: Series1        # f, at truncation `order`
    column: Series1     # g = f (f^{v0} - 1) / f'
    table: Series2      # G(x, y): coefficient of x^u y^v is t[u][v][1]
    table_flip: Series2  # G(y, x)
    tensor: CoeffTensor  # dimension `order`

    @property
    def degree(self) -> int:
        return self.params.degree


def column_series(params: StandardCycleParams, order: int) -> Series1:
    """g = f (f^{v0} - 1) / f', exact to the requested order.

    For v0 > 1, f' vanishes at 0 to order v0 - 1, so the quotient is taken by
    the shifted exact division (ord(f') = v0 - 1 <= v0 = ord of the numerator).
    """
    v0 = params.degree
    work = order + v0 + 1
    f = params.row_series(work)
    numerator = f * (f ** v0).add_constant(-1)
    g = divide_exact(numerator, f.derivative())
    return g.truncated(order)


def table_slices(params: StandardCycleParams, g: Series1) -> list[Series1]:
    """The slices g_v of the table, driven degreewise from g_0 = x, at the
    order of the column g = `column_series(params, order)`."""
    v0 = params.degree
    order = g.trunc_order
    slices = [Series1.x(order)]
    derivs = [slices[0].derivative()]
    for v in range(order - 1):
        # (v+1) g_{v+1} = g * sum_l (v-l+1) p_{v-l+1} g_l' - sum_l p_{v-l+1} l g_l
        inner = Series1._combination(
            [((v - l + 1) * params.coeff(v - l + 1), derivs[l]) for l in range(v - v0 + 2)],
            order)
        nxt = Series1._combination(
            [(Fraction(1, v + 1), g * inner)]
            + [(Fraction(-l, v + 1) * params.coeff(v - l + 1), slices[l])
               for l in range(1, v - v0 + 2)], order)
        slices.append(nxt)
        derivs.append(nxt.derivative())
    return slices


def build_standard_cycle(
    params: StandardCycleParams, order: Optional[int] = None
) -> StandardCycleBundle:
    """Construct the bundle at truncation `order` (default: n).

    Orders above n are valid: the defining series is a polynomial of degree
    below n, and all recursions are triangular in the degree, so the larger
    tensor restricts to the order-n one.
    """
    if order is None:
        order = params.n
    if order < params.n:
        raise ValidationError("order must be at least n")
    column = column_series(params, order)
    slices = table_slices(params, column)
    table = Series2.from_y_slices(slices, order)
    tensor = extend_from_level1(table.coeffs)
    return StandardCycleBundle(
        params=params,
        order=order,
        row=params.row_series(order),
        column=column,
        table=table,
        table_flip=table.transposed(),
        tensor=tensor,
    )


def table_properties(bundle: StandardCycleBundle) -> SuiteReport:
    """Defining properties of the table G and its level-1 entries.

    Checked exhaustively at the bundle's truncation order:
      1. g_v = 0 for 0 < v < v0          4. G_x(0, y) = f(y)
      2. g_{v0} = g                      5. t[1][v][1] = p_v for v >= v0
      3. G(0, y) = 0                     6. t[u][v][w] = 0 for u < w
    and the column identity g f' = f (f^{v0} - 1).
    """
    v0 = bundle.degree
    order = bundle.order
    table, tensor = bundle.table, bundle.tensor
    checks = []

    fails = [v for v in range(1, v0) if not table.slice_y(v).is_zero()]
    checks.append(_check("low_slices_vanish", fails))

    checks.append(
        CheckResult("degree_slice_is_column", table.slice_y(v0) == bundle.column)
    )

    fails = [v for v in range(order) if table.coeffs[0][v]]
    checks.append(_check("table_vanishes_at_x0", fails))

    fails = [v for v in range(order) if table.coeffs[1][v] != bundle.row.coeffs[v]]
    checks.append(_check("x_derivative_at_0_is_row", fails))

    fails = [
        v for v in range(v0, order) if tensor.entry(1, v, 1) != bundle.params.coeff(v)
    ]
    checks.append(_check("level1_row_matches_params", fails))

    fails = [
        (u, v, w)
        for u in range(order)
        for v in range(order)
        for w in range(u + 1, order)
        if tensor.entries[u][v][w]
    ]
    checks.append(_check("levels_vanish_below_diagonal", fails))

    f = bundle.row
    lhs = bundle.column * f.derivative()
    rhs = f * ((f ** v0).add_constant(-1))
    ok = lhs.coeffs[: order - 1] == rhs.coeffs[: order - 1]
    checks.append(CheckResult("column_row_identity", ok))

    return SuiteReport(tuple(checks))


def invariant_suite(bundle: StandardCycleBundle) -> SuiteReport:
    """Structural identities of the tensor for a degree-v0 structure.

    Exhaustive over all valid indices at the bundle's order:
      * t[k][i][k] = 0 for 0 < i < v0;
      * t[k][v0][k] = k * t[1][v0][1];
      * t[j][0][k] = delta_{kj};
      * t[i][j][k] = 0 for 0 < j < v0;
      * t[i][v0][k] = k * t[i-k+1][v0][1];
      * the column/row identity with g, f read off the tensor itself.
    """
    t = bundle.tensor
    n = t.n
    v0 = bundle.degree
    checks = []

    fails = [(k, i) for k in range(n) for i in range(1, v0) if t.entry(k, i, k)]
    checks.append(_check("diagonal_low_column_vanishes", fails))

    base = t.entry(1, v0, 1)
    fails = [k for k in range(1, n) if t.entry(k, v0, k) != k * base]
    checks.append(_check("diagonal_column_derivation", fails))

    fails = [
        (j, k)
        for j in range(n)
        for k in range(n)
        if t.entry(j, 0, k) != (ONE if j == k else ZERO)
    ]
    checks.append(_check("column_zero_is_identity", fails))

    fails = [
        (i, j, k)
        for i in range(n)
        for j in range(1, v0)
        for k in range(n)
        if t.entry(i, j, k)
    ]
    checks.append(_check("low_columns_vanish", fails))

    fails = [
        (i, k)
        for i in range(n)
        for k in range(n)
        if t.entry(i, v0, k) != k * t.entry(i - k + 1, v0, 1)
    ]
    checks.append(_check("column_v0_derivation", fails))

    # g f' = f (f^{v0} - 1) with g, f read off the tensor.
    g = Series1([t.entry(i, v0, 1) for i in range(n)])
    f = Series1([t.entry(1, j, 1) for j in range(n)])
    lhs = g * f.derivative()
    rhs = f * ((f ** v0).add_constant(-1))
    ok = lhs.coeffs[: n - 1] == rhs.coeffs[: n - 1]
    checks.append(CheckResult("tensor_column_row_identity", ok))

    return SuiteReport(tuple(checks))


def reconstruct_from_row(n: int, degree: int, row: Sequence[object]) -> CoeffTensor:
    """Rebuild the full tensor from its normalized first row, independently.

    `row` lists t[1][v][1] for v = 0..n-1 and must satisfy row[0] = 1,
    row[v] = 0 for 0 < v < degree, row[degree] = 1.  The tensor is filled
    degree by degree from the coefficient recursions that the braid equations
    force, never touching the series construction, so it serves as a second
    route to the same object.

    One recursion serves every degree v0, with f = sum row[v] x^v:
      * the column col[i] = t[i][v0][1] comes from f^{v0+1} by the
        convolution recursion v0 col[i] = (f^{v0+1} - f)_{i+v0-1}
        - sum_{m<i} col[m] (i+v0-m) f_{i+v0-m};
      * level w >= 2 at u^i v^j is the (i, j) coefficient of level w-1 times
        level 1, from strictly lower total degree;
      * each interior entry t[i][j][1], i >= 2 and v0 < j, solves a linear
        equation with denominator i + j - 1 >= 3, whose terms use the
        diagonal constants (f^{v0})_b and t[j][v0][l] = l col[j-l+1].
    v0 = 1 needs no case of its own: there f^{v0} = f, the column is
    t[i][1][1], and the derivation identity t[j][1][l] = l t[j-l+1][1][1]
    holds for level l of any level-1 grid whose v^0 part is u.
    """
    v0 = degree
    frow = [as_fraction(c) for c in row]
    if len(frow) != n:
        raise ValidationError("row must have length n")
    _require_degree(n, v0)
    if frow[0] != 1 or any(frow[v] for v in range(1, v0)) or frow[v0] != 1:
        raise ValidationError("row is not in normalized form")

    t = [[[ZERO] * n for _ in range(n)] for _ in range(n)]
    t[0][0][0] = ONE
    for v in range(n):
        t[1][v][1] = frow[v]

    top = n + v0 - 1
    f = frow + [ZERO] * (v0 - 1)

    def times_f(a: list) -> list:
        return [
            sum((a[b] * f[j - b] for b in range(j + 1) if a[b] and f[j - b]), ZERO)
            for j in range(top)
        ]

    fp0 = [ONE] + [ZERO] * (top - 1)
    for _ in range(v0):
        fp0 = times_f(fp0)  # f^{v0}: the diagonal constants
    fpow = times_f(fp0)  # f^{v0+1}: drives the column

    col = [ZERO] * n
    col[1] = ONE
    for i in range(2, n):
        j = i + v0 - 1
        acc = fpow[j] - f[j]
        for m in range(1, i):
            idx = i + v0 - m
            if f[idx]:
                acc -= col[m] * (i + v0 - m) * f[idx]
        col[i] = acc / v0
        t[i][v0][1] = col[i]

    for s in range(2, 2 * n - 1):
        # Higher levels at this total degree, from strictly lower degrees.
        for i in range(max(0, s - n + 1), min(s, n - 1) + 1):
            j = s - i
            for w in range(2, n):
                acc = ZERO
                for i1 in range(i + 1):
                    for j1 in range(j + 1):
                        c = t[i1][j1][1]
                        if c:
                            d = t[i - i1][j - j1][w - 1]
                            if d:
                                acc += c * d
                t[i][j][w] = acc

        # Interior level-1 entries for j > v0; lower columns are zero and
        # the v0 column was computed above.
        for i in range(2, n):
            j = s - i
            if not (v0 < j < n):
                continue
            first = ZERO
            for a in range(j + 1):
                fb = fp0[j - a]
                if not fb:
                    continue
                for h in range(1, i + 1):
                    if (h, a) == (1, j):
                        continue
                    c = t[i][a][h]
                    if c and col[h]:
                        first += c * fb * col[h]
            second = ZERO
            # c = 0, h = i branch: sum_l t[j][v0][l] t[i][l][1], l < j,
            # with t[j][v0][l] = l * col[j-l+1].
            for l in range(v0, j):
                cl = t[i][l][1]
                if cl and col[j - l + 1]:
                    second += l * col[j - l + 1] * cl
            # d = 0, l = j branch: sum_{h<i} t[i][v0][h] t[h][j][1],
            # with t[i][v0][h] = h * col[i-h+1].
            for h in range(1, i):
                ch = t[h][j][1]
                if ch and col[i - h + 1]:
                    second += h * col[i - h + 1] * ch
            t[i][j][1] = (first - second) / (i + j - 1)

    return CoeffTensor(t)
