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

`reconstruct_from_row` is a second route to the same tensor, from its first
row alone: the closed form G(x, y) = a(q(x) f(y)), where q = x + ... is the
eigenfunction g q' = q (`_eigenfunction`, which `operators` shares) and a is
its compositional inverse.  It shares step 3 alone with the construction.
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
    _by_degree,
    as_fraction,
    compose,
    compositional_inverse,
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


def _eigenfunction(g: Series1) -> Series1:
    """The unique q = x + ... with g q' = q, for a column g = x + O(x^2),
    solved degree by degree (`_by_degree`).  q_k enters the x^k coefficient
    of g q' - q as (k - 1) q_k, so that coefficient is the recursion
    (k-1) q_k = - sum_{j<k} g_{k-j+1} j q_j."""
    return _by_degree(g.trunc_order, [ZERO, ONE], lambda q: g * q.derivative() - q,
                      lambda k: k - 1)


def reconstruct_from_row(n: int, degree: int, row: Sequence[object]) -> CoeffTensor:
    """Rebuild the full tensor from its normalized first row, by a second route.

    `row` lists t[1][v][1] for v = 0..n-1 and must satisfy row[0] = 1,
    row[v] = 0 for 0 < v < degree, row[degree] = 1.  With f = sum row[v] x^v
    the table is the closed form G(x, y) = a(q(x) f(y)), which the identity
    suite checks as `table_from_eigen`:
      * the column g = x + ... solves g f' = f (f^{v0} - 1) degree by degree
        (`_by_degree`); both sides vanish below x^{v0}, so the identity is
        read shifted down by v0 - 1, where g_k enters degree k as v0 g_k;
      * q = x + ... solves g q' = q (`_eigenfunction`), a is its
        compositional inverse, and G = a(q(x) f(y)) by `compose`;
      * level k is the k-th power of G (`tensor.extend_from_level1`).
    None of `build_standard_cycle`, `column_series`, `table_slices` or
    `divide_exact` is called, so the result checks the construction.
    """
    v0 = degree
    frow = [as_fraction(c) for c in row]
    if len(frow) != n:
        raise ValidationError("row must have length n")
    _require_degree(n, v0)
    if frow[0] != 1 or any(frow[v] for v in range(1, v0)) or frow[v0] != 1:
        raise ValidationError("row is not in normalized form")

    f = Series1(frow + [ZERO] * v0)          # exact at order n + v0: a polynomial
    fprime = Series1(f.derivative().coeffs[v0 - 1:])
    rhs = Series1((f * (f ** v0).add_constant(-1)).coeffs[v0 - 1:])
    g = _by_degree(n, [ZERO, ONE], lambda g: g * fprime - rhs, lambda k: v0)
    q = _eigenfunction(g)
    table = compose(compositional_inverse(q),
                    Series2.from_x_series(q, n).mul_y_series(f))
    return extend_from_level1(table.coeffs)
