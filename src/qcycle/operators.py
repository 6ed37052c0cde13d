"""Differential-operator calculus on K[[x, y]] attached to a standard cycle.

The operators partial_x^v are defined through substitution into the table G:
h(G) = sum_v (partial_x^v h)(x) y^v, which works out to

    partial_x^v h = sum_{k=1}^{v} (1/k!) (Gbar^k)_v h^(k),      Gbar = G - x.

partial_y^u is partial_x^u acting on y; the global operator is
partial^k = sum_{a+b=k} partial_x^a partial_y^b.  The tilde variants replace
Gbar by P, which regrades Gbar in powers of f(y) - 1.  Each operator is linear
on series of the context's order N: an N x N matrix with entry
[u][c] = sum_k C(c, k) (B^k)_v[u - c + k], B = Gbar or P, made on integers
and stored once per (B, v) as sparse integer columns over one denominator.
It acts on the x-index of a series (partial_x) or on its y-index (partial_y).
One kernel, `OperatorContext._image`, multiplies an input as it is stored,
integer numerators over one denominator (see `series`), and returns the
image's integer rows over the input's denominator times the matrix's;
`_apply` normalises them once into a series.  The columns make the work
follow the input's nonzeros: each nonzero entry (along y) or nonzero row
(along x) of the input adds its multiples of one column.  No input is
rescaled, and no `Fraction` is made per coefficient.  A global operator sums
its terms, the raw images along y taken along x, in int over the lcm of
their denominators, skips the zero ones and normalises once; a table of
global images B^k H, k < count (`global_table`), makes each image along y
once for all its degrees.  Degree 0 is the identity wherever an operator is
applied (`_apply`, `_y_images`, `_global_rows`), so no degree-0 matrix is
read.  Inputs at any order other than N raise SeriesError, and so does a
`Series1` given to an operator along y or a global one.  The context also
carries:

  * the eigenfunction q of the derivation h -> g h' (g q' = q, q = x + ...),
    its compositional inverse, and the scaled eigenfunctions q_i = a_i q^i;
  * the transport series between the two regradings, T = U o S with
    S(y) = 1 - (1+y)^(-v0), V(y) = (1-y)^(-1/v0) - 1, U(y) = V(f(x)^{v0} y),
    satisfying fbar(F) = T(fbar(y)) for the flipped table F(x,y) = G(y,x).

The series are read-only once the context is built, and each cache is built
from what the context holds: one chain of powers per attribute (a y-slice
(B^k)_v is read off its power) and the operator matrices.  `_replaced` is the
one way to change a series: a copy with empty caches.  It replaces only a
`Series1`, `Series2` or `CoeffTensor` attribute, or a list of them, never
order, degree or bundle, so every context keeps v0 < n <= N, on which the
suite relies.  The constructor proves only the inverse round trip of q and
the transport checks (T_0 = 0, T_1 = f^{v0}, (T^j)_j = f^{j v0}); the suite
proves the rest.

`identity_suite` checks, exactly and up to the truncation order, every
identity the construction is built on, ending with the slice symmetry
(partial^j G)_i = (partial^i G)_j that encodes the braid equations.  A PASS
of every check is a proof at order N.  A check on a fixed series reads it
whole, and the nine one-variable checks are linear in their input and read
it on the basis x^a, a < N.  The global checks on any two-variable input
follow from the one-variable ones.  Let d_a and t_a be the N x N matrices
of partial_x^a and tilde_x^a (d_0 = t_0 = I).  The global operators are
D_k = sum_{a+b=k} d_a (x) d_b and T_k = sum_{a+b=k} t_a (x) t_b on the
N x N grid, and every index stays below N, so two matrix identities carry
over exactly:

  * if t_1 t_a = (a+1) t_{a+1} + a t_a for a + 1 < w (`tilde_x_recursion`
    below w), then T_1 T_{v-1} = v T_v + (v-1) T_{v-1} for v < w: the
    global tilde recursion, and with it the binomial form
    tilde^v = C(tilde^1, v);
  * if d_v = sum_u (fbar^u)_v t_u for v < w (`partial_x_from_tilde` below
    w; v = 0 holds as fbar(0) = 0), then by the Cauchy product
    D_k = sum_m (fbar^m)_k T_m for k < w.

At the least failing w the one-variable defect E != 0 leaves the defect
E (x) I + I (x) E != 0 in the global identity, so both fail first at the
same degree.  tilde_global_recursion and tilde_global_binomial report the
least failing degree of tilde_x_recursion, and partial_global_from_tilde
that of partial_x_from_tilde.  Their PASS rests on the proved one-variable
identities and on `_image` and `_global_rows` computing D_k and T_k, which
the tests check against the defining formulas (`oracle_x`, `oracle_y`,
`oracle_global`).  x- and y-operators commute for any matrices, so
xy_commutation, on G, guards the index layout of `_image`.

Each application that several checks read is made once: the tables of
partial_x^v and tilde_x^v on the x^a, the global tables partial^k G and
tilde^k F, the images tilde_y^h F, and the (fbar^u)_v coefficients; fbar(F)
and its powers fbar(F)^i = sum_k (fbar^i)_k F^k are summed over the cached
powers of F.  No image, slice or sum is normalised only to be compared:
such a side stays raw integers (`_image`, `_global_rows`), cross-multiplied
by denominators; a sum of terms c * s is tested against a value over one
denominator (`_is_combination`), and two slices on their columns
(`_same_slice`).  Each sum of products by a one-variable series is made as
a series, over one denominator (`Series2._product_sum`).  The braid sums
R(i, j, k) that partial^j G must reproduce are made once, with the braid
scan's two integer contractions (`braid_sums`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import comb, gcd, lcm
from typing import TYPE_CHECKING, Optional, Union

from .errors import DegreeOutOfRange, InvariantViolation, SeriesError
from .series import (
    ONE,
    Series1,
    Series2,
    ZERO,
    _add_matmul,
    binomial_series,
    compose,
    compositional_inverse,
    general_binomial,
    substitute_y,
)
from .solution import _braid_operands, _second_contraction
from .standard import StandardCycleBundle, _eigenfunction, build_standard_cycle
from .tensor import CheckResult, CoeffTensor, SuiteReport, _check

if TYPE_CHECKING:
    import random

SeriesLike = Union[Series1, Series2]


class OperatorContext:
    """All series data the operator identities need, at one truncation order."""

    def __init__(self, bundle: StandardCycleBundle):
        self.bundle = bundle
        self.order = N = bundle.order
        self.degree = bundle.degree
        self.row = bundle.row                    # f
        self.column = bundle.column              # g
        self.table = bundle.table                # G
        self.flip = bundle.table_flip            # F(x,y) = G(y,x)
        self.tensor = bundle.tensor

        self.table_reduced = bundle.table - Series2.monomial(1, 0, N)   # G - x
        self.row_reduced = bundle.row.add_constant(-1)                   # f - 1

        self._pows: dict = {}
        self._matrices: dict = {}

        self.p_slices = self._build_p_slices()
        self.p_series = Series2.from_y_slices(self.p_slices, N)

        self.eigenfunction = _eigenfunction(self.column)
        self.eigenfunction_inv = compositional_inverse(self.eigenfunction)
        a = self.eigenfunction_inv.coeffs   # q_i = a_i q^i, the order-i eigenfunctions of h -> g h'
        self.eigen_slices = [Series1.zero(N)] + [
            self.power("eigenfunction", i).scale(a[i]) for i in range(1, N)]
        self.q_series = Series2.from_y_slices(self.eigen_slices, N)

        v0 = self.degree
        one_plus_y = Series1([ONE, ONE] + [ZERO] * (N - 2))
        self.to_eigen = Series1.one(N) - binomial_series(-v0, one_plus_y)      # S(y)
        one_minus_y = Series1([ONE, -ONE] + [ZERO] * (N - 2))
        self.root_kernel = binomial_series(Fraction(-1, v0), one_minus_y).add_constant(-1)  # V(y)
        self.from_eigen = Series2.from_y_slices(
            [self.f_power(v0 * k).scale(self.root_kernel.coeffs[k]) for k in range(N)], N
        )                                                                # U(x, y)
        self.transport = substitute_y(self.from_eigen, self.to_eigen)    # T = U o S

        self._verify_construction()
        self._built = True

    # -- read-only series and the caches built from them ---------------------

    _built = False

    def __setattr__(self, name: str, value) -> None:
        if self._built and not name.startswith("_"):
            raise AttributeError(f"OperatorContext.{name} is read-only; use _replaced({name}=...)")
        super().__setattr__(name, value)

    def _replaced(self, **series) -> "OperatorContext":
        """A copy holding the named series instead, with empty caches.  The
        constructor's checks do not run again, so a planted fault reaches
        the identity suite; order, degree and bundle cannot be replaced."""
        for name in series:
            held = vars(self).get(name)
            if not all(isinstance(s, (Series1, Series2, CoeffTensor))
                       for s in (held if isinstance(held, list) else [held])):
                raise AttributeError(f"not all of {sorted(series)} are series of the context")
        copy = object.__new__(OperatorContext)
        copy.__dict__.update(vars(self), **series, _pows={}, _matrices={})
        return copy

    def power(self, name: str, k: int) -> SeriesLike:
        """series^k (k >= 0) of the attribute `name`, from its one cached chain."""
        if k < 0:
            raise SeriesError(f"negative power {k} of {name}")
        pows = self._pows.get(name)
        if pows is None:
            base = getattr(self, name)
            pows = self._pows[name] = [base ** 0, base]
        while len(pows) <= k:
            pows.append(pows[-1] * pows[1])
        return pows[k]

    def power_slice(self, name: str, k: int, v: int) -> Series1:
        """(series^k)_v: the y-slice of a cached power, as a series in x, read off it."""
        return self.power(name, k).slice_y(v)

    def f_power(self, m: int) -> Series1:
        return self.power("row", m)

    def fbar_power(self, k: int) -> Series1:
        return self.power("row_reduced", k)

    def _build_p_slices(self) -> list[Series1]:
        """P_1 = g and (v+1) P_{v+1} = g P_v' - v P_v."""
        N = self.order
        slices = [Series1.zero(N), self.column]
        for v in range(1, N - 1):
            slices.append(Series1._combination(
                [(Fraction(1, v + 1), self.column * slices[v].derivative()),
                 (Fraction(-v, v + 1), slices[v])], N))
        return slices

    def _verify_construction(self) -> None:
        N, v0, q = self.order, self.degree, self.eigenfunction
        x = Series1.x(N)
        if compose(q, self.eigenfunction_inv) != x or compose(self.eigenfunction_inv, q) != x:
            raise InvariantViolation("eigenfunction_inverse_roundtrip")
        if not self.transport.slice_y(0).is_zero():
            raise InvariantViolation("transport_vanishes_at_0")
        if self.transport.slice_y(1) != self.f_power(v0):
            raise InvariantViolation("transport_unit_slice")
        # T_0 = 0 gives (T^j)_j = T_1^j, so with exact products this check
        # follows from the two before it; only a faulty product can reach it.
        for j in range(1, N):
            if self.power_slice("transport", j, j) != self.f_power(j * v0):
                raise InvariantViolation("transport_power_diagonal")

    # -- the operators -------------------------------------------------------

    def _matrix(self, name: str, v: int) -> tuple:
        """The N x N matrix of h -> sum_{k=0}^{v} (1/k!) (B^k)_v h^(k), B = `name`.

        Entry [u][c] = sum_k C(c, k) (B^k)_v[u - c + k] is the x^u coefficient of
        the image of x^c, so column c is sum_k C(c, k) x^{c-k} (B^k)_v: one
        shifted multiple of each slice.  B^0 = 1 adds nothing for v > 0 and
        makes the v = 0 matrix the identity.  The matrix is made on integers,
        over the lcm of the slices' denominators, and stored once, as
        (cols, den) in lowest terms: cols[c] keeps the nonzero entries of
        column c as (u, den * entry) pairs of integers.
        """
        key = (name, v)
        if key not in self._matrices:
            N = self.order
            slices = [self.power_slice(name, k, v) for k in range(v + 1)]
            den = lcm(*(s._den for s in slices))
            scaled = [[x * (den // s._den) for x in s._nums] for s in slices]
            columns = []
            for c in range(N):
                column = [0] * N
                for k in range(min(v, c) + 1):
                    b = comb(c, k)
                    column[c - k:] = [a + b * x for a, x in zip(column[c - k:], scaled[k])]
                columns.append([(u, entry) for u, entry in enumerate(column) if entry])
            g = gcd(den, *(entry for column in columns for _, entry in column))
            cols = tuple(tuple((u, entry // g) for u, entry in column) for column in columns)
            self._matrices[key] = (cols, den // g)
        return self._matrices[key]

    def _image(self, name: str, v: int, nums, along_y: bool) -> tuple:
        """The (name, v) matrix times the integer grid `nums`, on its row index
        (the x-index of a `Series2`) or along each row (its y-index; a
        `Series1` is one row): (rows, den), the image's integer rows over the
        input's denominator times den, the matrix's.  Not normalised.  The
        work follows the input's nonzeros: along y each nonzero entry x[c] of
        a row adds x[c] times column c, and along x each nonzero row c adds
        one multiple of itself per entry of column c (`_add_along_x`)."""
        cols, den = self._matrix(name, v)
        N = self.order
        if not along_y:
            return _add_along_x([[0] * N for _ in range(N)], cols, nums), den
        images = []
        for line in nums:
            out = [0] * N
            if any(line):
                for x, column in zip(line, cols):
                    if x:
                        for u, entry in column:
                            out[u] += x * entry
            images.append(out)
        return images, den

    def _check_input(self, v: int, h: SeriesLike, along_y: bool) -> None:
        """Raise unless 0 <= v < N, h has the context's order and, for an
        operator along y, h is a `Series2`."""
        if not 0 <= v < self.order:
            raise DegreeOutOfRange(f"degree {v} at truncation order {self.order}")
        if along_y and not isinstance(h, Series2):
            raise SeriesError(f"an operator along y acts on a Series2, not a {type(h).__name__}")
        if h.trunc_order != self.order:
            raise SeriesError(
                f"operator input has order {h.trunc_order}, the context has order {self.order}"
            )

    def _apply(self, name: str, v: int, h: SeriesLike, along_y: bool = False) -> SeriesLike:
        """Apply the (name, v) matrix to the x-coefficients of h, or to its
        y-coefficients: the image (`_image`) of h's stored integers, as a
        series over h's denominator times the matrix's, normalised once."""
        self._check_input(v, h, along_y)
        if v == 0:
            return h
        rows, den = self._image(name, v, h._rows(), along_y or isinstance(h, Series1))
        return h._from_rows(rows, h._den * den)

    def partial_x(self, v: int, h: SeriesLike) -> SeriesLike:
        """partial_x^v: acts on the x-coefficients, one y-slice at a time."""
        return self._apply("table_reduced", v, h)

    def tilde_partial_x(self, v: int, h: SeriesLike) -> SeriesLike:
        return self._apply("p_series", v, h)

    def partial_y(self, u: int, H: Series2) -> Series2:
        """partial_y^u = sum_i (1/i!) (Gbar^i)_u(y) d^i/dy^i."""
        return self._apply("table_reduced", u, H, along_y=True)

    def tilde_partial_y(self, u: int, H: Series2) -> Series2:
        return self._apply("p_series", u, H, along_y=True)

    def partial_global(self, k: int, H: Series2) -> Series2:
        """partial^k = sum_{a+b=k} partial_x^a partial_y^b."""
        return self._global_sum("table_reduced", k, self._y_images("table_reduced", H, k + 1))

    def tilde_partial_global(self, u: int, H: Series2) -> Series2:
        return self._global_sum("p_series", u, self._y_images("p_series", H, u + 1))

    def global_table(self, name: str, H: Series2, count: int) -> list[Series2]:
        """[B^k H for k < count], B^k = sum_{a+b=k} B_x^a B_y^b the global operator
        of B = `name`: each B_y^b H is made once for all k (`_y_images`) and
        the terms of B^k H are summed along x (`_global_sum`)."""
        ys = self._y_images(name, H, count)
        return [self._global_sum(name, k, ys) for k in range(count)]

    def _y_images(self, name: str, H: Series2, count: int) -> list:
        """[B_y^b H for b < count] as raw images (rows, den), each the value
        rows / den, not normalised (B_y^0 H is H as it is stored)."""
        self._check_input(count - 1, H, True)
        ys = [(H._nums, H._den)]
        for b in range(1, count):
            rows, den = self._image(name, b, H._nums, True)
            ys.append((rows, H._den * den))
        return ys

    def _global_sum(self, name: str, k: int, ys: list) -> Series2:
        """sum_{a+b=k} B_x^a ys[b] (`_global_rows`), normalised once."""
        return Series2._from_rows(*self._global_rows(name, k, ys))

    def _global_rows(self, name: str, k: int, ys: list) -> tuple:
        """sum_{a+b=k} B_x^a ys[b] for the raw images ys[b] = (rows, den),
        summed in int over the lcm of the terms' denominators, as (rows, den),
        not normalised; a zero ys[b] is skipped (B_x^0 is the identity, so
        ys[k] is a term as it is)."""
        terms = [(self._matrix(name, k - b), ys[b]) for b in range(k) if any(map(any, ys[b][0]))]
        rows, den_k = ys[k]
        den = lcm(den_k, *(mat_den * y_den for (_, mat_den), (_, y_den) in terms))
        up = den // den_k
        total = [[up * x for x in line] for line in rows]
        for (cols, mat_den), (y_rows, y_den) in terms:
            _add_along_x(total, cols, y_rows, den // (mat_den * y_den))
        return total, den


def _add_along_x(out: list, cols: tuple, grid, up: int = 1) -> list:
    """Add up * (the matrix times the integer grid) to `out` and return it:
    each nonzero row c of the grid adds up * M[u][c] times itself to row u
    of out, for each entry (u, M[u][c]) of column c of the matrix."""
    for line, column in zip(grid, cols):
        if any(line):
            for u, entry in column:
                entry *= up
                out[u] = [a + entry * x for a, x in zip(out[u], line)]
    return out


def _is_combination(rows, den: int, terms) -> bool:
    """Whether the integer rows over den equal sum c * s over the pairs
    (c, s) of `terms`, c an int or a `Fraction` and s a stored series with
    rows of the same shape.  Decided on the stored integers, read as one
    flat list, over the lcm of den and the terms' c.denominator * s._den, so
    no series is built; a term with c = 0 is skipped."""
    scaled = [(c.numerator, c.denominator * s._den, s._rows()) for c, s in terms if c]
    common = lcm(den, *(d for _, d, _ in scaled))
    up = common // den
    acc = [up * x for line in rows for x in line]
    for num, d, grid in scaled:
        c = num * (common // d)
        acc = [a - c * x for a, x in zip(acc, chain.from_iterable(grid))]
    return not any(acc)


def _same_slice(a: Series2, i: int, b: Series2, j: int) -> bool:
    """Whether the y^i slice of a equals the y^j slice of b, decided on
    their stored columns, cross-multiplied by the denominators."""
    return [row[i] * b._den for row in a._nums] == [row[j] * a._den for row in b._nums]


def braid_sums(t: CoeffTensor) -> tuple[list[list[int]], int]:
    """R(i, j, k) = sum_{a+b=j} sum_{h,l} t[i][a][h] t[k][b][l] t[h][l][1] for all
    i, j, k, as (sums, den): R(i, j, k) = sums[i][j * n + k] / den.

    Made on t scaled to integers with the braid scan's two contractions over
    the output index m = 1 (`solution._braid_operands`): first over h
    (`_add_matmul`), then over a + b = j and l on the gathered-dot kernel,
    each slice i in its row form when few of its first-contraction entries
    are nonzero and in its column form when most are (`series._gathered_dot`).
    """
    ints, den, c_rows, contract = _braid_operands(t, range(1, 2))
    sums = [_second_contraction(_add_matmul(a_i, c_rows), contract, t.n, 1)[0] for a_i in ints]
    return sums, den ** 3


def build_context(bundle: StandardCycleBundle, order: Optional[int] = None) -> OperatorContext:
    """Build the calculus at `order` (>= n); rebuilds the bundle when padded."""
    if order is not None and order != bundle.order:
        bundle = build_standard_cycle(bundle.params, order)
    return OperatorContext(bundle)


# -- the identity suite -------------------------------------------------------


def identity_suite(ctx: OperatorContext, rng: Optional[random.Random] = None) -> SuiteReport:
    """Run every identity check, exactly, at the context's truncation order.

    `rng` is accepted and not read: every check reads a basis or a fixed
    series, so the report does not depend on it."""
    N, v0 = ctx.order, ctx.degree
    checks: list[CheckResult] = []

    # the only one-variable inputs: a basis, as each such identity is linear
    x1_inputs = [Series1.monomial(a, N) for a in range(N)]

    # Each application to an input that several checks read is made once:
    # px[a][v] = partial_x^v x^a, tx[a][v] = tilde_x^v x^a.
    px = [[ctx.partial_x(v, h) for v in range(N)] for h in x1_inputs]
    tx = [[h] + [ctx.tilde_partial_x(v, h) for v in range(1, N)] for h in x1_inputs]

    # vanishing range of partial_x.  partial_x^0 is the identity by
    # construction: `_apply`, `_y_images` and `_global_rows` take degree 0
    # as the input itself and read no degree-0 matrix, so there is no
    # identity part to test.
    fails = []
    for ph in px:
        for v in range(1, v0):
            if not ph[v].is_zero():
                fails.append(("low_degree", v))
    checks.append(_check("partial_x_identity_and_gap", fails))

    # partial_x^{v0} is the derivation h -> g h'
    fails = []
    for h, ph in zip(x1_inputs, px):
        if ph[v0] != ctx.column * h.derivative():
            fails.append("derivation")
    if ctx.partial_x(v0, ctx.row) != ctx.row * ctx.f_power(v0).add_constant(-1):
        fails.append("row_flow")
    checks.append(_check("partial_x_degree_slice_derivation", fails))

    # partial_x^v x = g_v
    fails = []
    for v in range(N):
        if px[1][v] != ctx.table.slice_y(v):
            fails.append(v)
    checks.append(_check("partial_x_of_x_gives_slices", fails))

    # commutation of the x-operators, on the integer images of ph[v] and
    # ph[u], cross-multiplied by their denominators
    fails = []
    for u in range(1, N):
        for v in range(u + 1, N):
            for ph in px:
                (uv,), den_uv = ctx._image("table_reduced", u, ph[v]._rows(), True)
                (vu,), den_vu = ctx._image("table_reduced", v, ph[u]._rows(), True)
                den_uv, den_vu = den_uv * ph[v]._den, den_vu * ph[u]._den
                if [x * den_vu for x in uv] != [y * den_uv for y in vu]:
                    fails.append((u, v))
    checks.append(_check("partial_x_commutation", fails))

    # x and y operators commute, on G.  Images along x act on the row index
    # and images along y on the column index, so no operator matrices can
    # fail this check: it guards the index layout of the kernel `_image`.
    # Both orders of the integer images of G are over den(G) times the same
    # two matrix denominators, so rows compare as they are.
    pairs = [(v, u) for v in range(1, min(N, 5)) for u in range(1, min(N, 5))]
    pairs += [(N - 1, N - 1)]
    degrees = sorted({v for pair in pairs for v in pair})
    G = ctx.table._nums
    dx = {v: ctx._image("table_reduced", v, G, False)[0] for v in degrees}
    dy = {u: ctx._image("table_reduced", u, G, True)[0] for u in degrees}
    fails = [(v, u) for v, u in pairs if ctx._image("table_reduced", v, dy[u], False)[0]
             != ctx._image("table_reduced", u, dx[v], True)[0]]
    checks.append(_check("xy_commutation", fails))

    # partial_y annihilates pure-x series: each row of the image is column 0
    fails = []
    pure = Series2.from_x_series(Series1([ONE] * N), N)
    for u in range(1, N):
        if not ctx.partial_y(u, pure).is_zero():
            fails.append(u)
    checks.append(_check("partial_y_kills_pure_x", fails))

    # partial_y^{v0} G = (f(y)^{v0} - 1) partial_x^{v0} G
    dx_table = [ctx.partial_x(u, ctx.table) for u in range(N)]
    fails = []
    fyv = ctx.f_power(v0).add_constant(-1)
    if ctx.partial_y(v0, ctx.table) != dx_table[v0].mul_y_series(fyv):
        fails.append("twist")
    checks.append(_check("table_y_vs_x_twist", fails))

    # slice symmetry of the x-operators on the table
    fails = []
    for u in range(N):
        for v in range(u + 1, N):
            if not _same_slice(dx_table[u], v, dx_table[v], u):
                fails.append((u, v))
    checks.append(_check("x_slice_symmetry", fails))

    # partial_x^d g = (partial_x^{v0} G)_d = (partial_x^d G)_{v0}
    fails = []
    for d in range(N):
        lhs = ctx.partial_x(d, ctx.column)
        if lhs != dx_table[v0].slice_y(d) or lhs != dx_table[d].slice_y(v0):
            fails.append(d)
    checks.append(_check("column_slice_exchange", fails))

    # global operator: slice symmetry (the braid identity in series form)
    d_table = ctx.global_table("table_reduced", ctx.table, N)
    fails = []
    for i in range(N):
        for j in range(i + 1, N):
            if not _same_slice(d_table[j], i, d_table[i], j):
                fails.append((i, j))
    checks.append(_check("global_slice_symmetry", fails))

    # (partial^j G)_{ik} equals the braid sum R(i, j, k)
    t = ctx.tensor
    sums, den = braid_sums(t)
    fails = []
    for j in range(N):
        nums, den_j = d_table[j]._nums, d_table[j]._den
        for i in range(1, N):
            for k in range(1, N):
                if nums[i][k] * den != sums[i][j * N + k] * den_j:
                    fails.append((i, j, k))
    checks.append(_check("braid_sum_match", fails))

    # R(i, v0, k) = R(i, k, v0)
    fails = []
    for i in range(N):
        for k in range(N):
            if sums[i][v0 * N + k] != sums[i][k * N + v0]:
                fails.append((i, k))
    checks.append(_check("degree_slot_symmetry", fails))

    # tilde_x^1 = partial_x^{v0} = g d/dx
    fails = []
    for h, ph, th in zip(x1_inputs, px, tx):
        if th[1] != ctx.column * h.derivative() or th[1] != ph[v0]:
            fails.append("unit")
    checks.append(_check("tilde_x_unit", fails))

    # v tilde_x^v = tilde_x^1 tilde_x^{v-1} - (v-1) tilde_x^{v-1}, on the
    # integer image tilde_x^1 tilde_x^{v-1}
    fails = []
    for th in tx:
        for v in range(2, N):
            prev = th[v - 1]
            unit, den = ctx._image("p_series", 1, prev._rows(), True)
            if not _is_combination(unit, prev._den * den, [(v, th[v]), (v - 1, prev)]):
                fails.append(v)
    checks.append(_check("tilde_x_recursion", fails))
    # The global tilde recursion, and its binomial form, hold up to the
    # least degree at which tilde_x_recursion fails, and fail there (module
    # docstring); its fails are input-major, so the least is sorted out.
    checks.append(_check("tilde_global_recursion", sorted(fails)))
    checks.append(_check("tilde_global_binomial", sorted(fails)))

    # partial_x^v = sum_u (fbar^u)_v tilde_x^u, on the coefficients
    # fbar[v][u] = (fbar^u)_v, read again by main_series_identity
    fbar = [[ctx.fbar_power(u).coeffs[v] for u in range(N)] for v in range(N)]
    fails = []
    for v in range(1, N):
        for ph, th in zip(px, tx):
            if not _is_combination(ph[v]._rows(), ph[v]._den, zip(fbar[v][1:], th[1:])):
                fails.append(v)
    checks.append(_check("partial_x_from_tilde", fails))
    # partial^v = sum_u (fbar^u)_v tilde^u on every two-variable input holds
    # up to the least failing degree of the check above, and fails there;
    # its fails are v-major, so the first is the least
    checks.append(_check("partial_global_from_tilde", fails))

    # Gbar^u = sum_{v >= u} (P^u)_v(x) fbar(y)^v
    fails = []
    for u in range(1, N):
        acc = Series2._product_sum(
            [(ctx.power_slice("p_series", u, v), ctx.fbar_power(v)) for v in range(u, N)], N)
        if acc != ctx.power("table_reduced", u):
            fails.append(u)
    checks.append(_check("table_regrade_powers", fails))

    # The three checks on entries of t compare integers: t scaled to
    # ints / den_t against each series' stored numerators over its own den.
    ints, den_t = t.scaled_integers()

    # t[d+w][v][w] = sum_i C(w, i) (Gbar^i)_{d+i, v}
    gbar = [ctx.power("table_reduced", i) for i in range(N)]
    fails = []
    for w in range(1, N):
        den = lcm(*(gbar[i]._den for i in range(1, w + 1)))
        weights = [comb(w, i) * (den // gbar[i]._den) for i in range(w + 1)]
        for d in range(N - w):
            for v in range(N):
                if v == 0 and d == 0:
                    continue
                acc = sum(weights[i] * gbar[i]._nums[d + i][v]
                          for i in range(1, min(w, N - 1 - d) + 1))
                if ints[d + w][v][w] * den != acc * den_t:
                    fails.append((d, w, v))
    checks.append(_check("level_entry_binomial", fails))

    # sum_h t[u][v][h] l_h = (partial_x^v l)_u, linear in l: on l = x^h, h < N
    fails = []
    for v in range(N):
        for u in range(1, N):
            if any(ph[v]._nums[u] * den_t != (ints[u][v][h] if 1 <= h <= u else 0) * ph[v]._den
                   for h, ph in enumerate(px)):
                fails.append((u, v))
    checks.append(_check("row_action_is_partial", fails))

    # t[j][a][h] = (F^h)_{aj}
    fails = []
    for h in range(1, N):
        fh = ctx.power("flip", h)
        for a in range(N):
            for j in range(N):
                if ints[j][a][h] * fh._den != fh._nums[a][j] * den_t:
                    fails.append((j, a, h))
    checks.append(_check("flip_power_entries", fails))

    # partial^j G = sum_h (F^h)_j(y) partial_x^h G
    fails = []
    for j in range(1, N):
        acc = Series2._product_sum(   # each (F^h)_j is a series, read in y
            [(dx_table[h], ctx.power_slice("flip", h, j)) for h in range(1, j + 1)], N)
        if acc != d_table[j]:
            fails.append(j)
    checks.append(_check("global_as_flip_convolution", fails))

    # eigenfunction identities
    fails = []
    q = ctx.eigenfunction
    if ctx.column * q.derivative() != q:
        fails.append("ode")
    for i in range(1, N):
        qi = ctx.eigen_slices[i]
        if ctx.column * qi.derivative() != qi.scale(i):
            fails.append(("scaled_ode", i))
    qs = ctx.q_series
    if qs.partial_x().mul_x_series(ctx.column) != qs.partial_y().mul_y_series(
        Series1.x(N)
    ):
        fails.append("series_ode")
    checks.append(_check("eigen_odes", fails))

    fails = []
    # v0 q^{v0}, read again by transport_chain; eigen_slices built its power
    q_v0 = ctx.power("eigenfunction", v0).scale(v0)
    if q_v0 != Series1.one(N) - ctx.f_power(v0).reciprocal():
        fails.append("closed_form")
    acc = Series1._combination(
        [(-general_binomial(Fraction(-v0), k), ctx.fbar_power(k)) for k in range(1, N)], N)
    if q_v0 != acc:
        fails.append("binomial_form")
    checks.append(_check("eigen_power_vs_row", fails))

    fails = []
    fa = compose(ctx.row, ctx.eigenfunction_inv)
    geo = Series1(
        [Fraction(v0) ** (u // v0) if u % v0 == 0 else ZERO for u in range(N)]
    )
    if fa ** v0 != geo:
        fails.append("power_closed_form")
    acc = Series1._combination(
        [(general_binomial(Fraction(1, v0) + k - 1, k) * v0 ** k, Series1.monomial(v0 * k, N))
         for k in range((N - 1) // v0 + 1)], N)
    if fa != acc:
        fails.append("root_expansion")
    checks.append(_check("row_at_eigen_inverse", fails))

    # G = sum a_i q(x)^i f(y)^i and F = A(q(y) f(x))
    fails = []
    acc = Series2._product_sum([(ctx.eigen_slices[i], ctx.f_power(i)) for i in range(1, N)], N)
    if acc != ctx.table:
        fails.append("table_expansion")
    inner = Series2.from_y_series(q, N).mul_x_series(ctx.row)
    if compose(ctx.eigenfunction_inv, inner) != ctx.flip:
        fails.append("flip_composition")
    checks.append(_check("table_from_eigen", fails))

    # binomial transform pair between the two regradings
    fails = []
    for j in range(1, N):
        acc = Series1._combination(
            [(comb(i, j), ctx.eigen_slices[i]) for i in range(j, N)], N)
        if acc != ctx.p_slices[j]:
            fails.append(("forward", j))
        acc = Series1._combination(
            [((-1) ** (i - j) * comb(i, j), ctx.p_slices[i]) for i in range(j, N)], N)
        if acc != ctx.eigen_slices[j]:
            fails.append(("inverse", j))
    checks.append(_check("binomial_transform_pair", fails))

    # transport chain: S(fbar(y)) = v0 q(y)^{v0}; U(v0 q(y)^{v0}) = fbar(F) = T(fbar(y))
    fails = []
    fbar_y = ctx.row_reduced
    if compose(ctx.to_eigen, fbar_y) != q_v0:
        fails.append("to_eigen")
    # fbar(F) = sum_k (fbar)_k F^k on the cached powers of F, read again by
    # main_series_identity
    fbar_flip = Series2._combination(
        [(c, ctx.power("flip", k)) for k, c in enumerate(ctx.row_reduced.coeffs)], N)
    if substitute_y(ctx.from_eigen, q_v0) != fbar_flip:
        fails.append("from_eigen")
    if substitute_y(ctx.transport, fbar_y) != fbar_flip:
        fails.append("transport")
    checks.append(_check("transport_chain", fails))

    # (1+y) T_y = tilde_x^1 T + f^{v0} (T + 1)
    fails = []
    T = ctx.transport
    ty = T.partial_y()
    lhs2 = ty + ty.mul_y_series(Series1.x(N))
    rhs2 = ctx.tilde_partial_x(1, T) + (T.add_constant(1)).mul_x_series(ctx.f_power(v0))
    if not lhs2.agrees_with(rhs2, N, N - 1):
        fails.append("ode")
    checks.append(_check("transport_ode", fails))

    # tilde^k F = sum_h (T^h)_k tilde_y^h F, on tilde_y^h F for every h,
    # read again by main_series_identity
    flip_ys = ctx._y_images("p_series", ctx.flip, N)
    tilde_y_flip = [Series2._from_rows(rows, den) for rows, den in flip_ys]
    tilde_flip = [ctx._global_sum("p_series", k, flip_ys) for k in range(N)]
    fails = []
    for k in range(1, N):
        acc = Series2._product_sum(
            [(ctx.power_slice("transport", h, k), tilde_y_flip[h]) for h in range(1, k + 1)], N)
        if acc != tilde_flip[k]:
            fails.append(k)
    checks.append(_check("tilde_flip_transport", fails))

    # sum_i (fbar(y)^i)_j tilde^i F = sum_i (fbar(F)^i)_j tilde_y^i F
    fails = []
    # fbar(F)^i = sum_k (fbar^i)_k F^k, as fbar(F) above (F has no constant term)
    fbar_flip_pows = [None, fbar_flip] + [Series2._combination(
        [(c, ctx.power("flip", k)) for k, c in enumerate(ctx.fbar_power(i).coeffs)], N)
        for i in range(2, N)]
    for j in range(1, N):
        rhs3 = Series2._product_sum(
            [(fbar_flip_pows[i].slice_y(j), tilde_y_flip[i]) for i in range(1, N)], N)
        if not _is_combination(rhs3._nums, rhs3._den, zip(fbar[j][1:], tilde_flip[1:])):
            fails.append(j)
    checks.append(_check("main_series_identity", fails))

    return SuiteReport(tuple(checks))
