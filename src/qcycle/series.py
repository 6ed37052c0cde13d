"""Truncated formal power series over exact rationals, in one and two variables.

A series carries an explicit truncation order N: coefficients of x^u (resp.
x^u * y^v) are stored and exact for all u, v < N.  Binary operations between
series of different orders truncate to the smaller order, so precision loss is
always explicit.  Nothing is ever rounded.

One stored form.  A series is its integer numerators over one common
denominator: (nums, den), a tuple of ints for `Series1` and a tuple of int
rows for `Series2`, the coefficient of x^u (y^v) being nums[u] ([v]) / den.
The form is canonical: den >= 1, gcd(den, *nums) = 1, and the zero series has
den = 1.  So `==` and `hash` compare the stored tuples, and no
cross-multiplication is needed.  Every operation reads and writes the
integers and normalises its result once, with one `math.gcd` (`_reduced`).
The base `_Stored` holds this form for the tensors (`tensor.CoeffTensor`)
and the maps on C (x) C (`solution.LinearMap2`) too.

Where `Fraction`s are made.  Only at the edges:
  * the public constructors coerce each value with `as_fraction` (a float or
    a bool raises) and scale the grid to integers (`integer_grid`);
  * `.coeffs` (`.entries`, `.matrix`), a read-only tuple of tuples of
    `Fraction`s, is built on its first read and cached in a slot that is not
    part of equality or hash; `coefficient`, indexing and payloads read it.
Internal results are built by `_from_ints` from integers already normalised.

Four integer kernels do the arithmetic:
  * `_mul_ints`, the product in A = K[u, v]/<u^n, v^n>: every series product
    (in one or two variables, by an x- or a y-series), the power-chain kernel
    `_chain_break` that checks a tensor (`tensor.is_coalgebra_morphism`) and
    a map on C (x) C (`solution`) as algebra maps on A, and the rows of the
    solution map (`solution.build_solution`).  It multiplies over pairs of
    nonzero entries, one from each operand, and skips each pair that the
    truncation drops; its denominator is the product of the operands' (a
    one-variable series being a grid of one row or one column).  It adds
    into an accumulator `out` when given one: `Series2._product_sum` sums
    products by one-variable series that way, over the lcm of their
    denominators and normalised once, for `mul_x_series`, `mul_y_series` and
    the five such sums an operator identity compares (`operators`);
  * `_add_matmul`, the dense integer matrix product: the powers of the inner
    series in `substitute_y`, the blocks of `solution.superscript_map`, the
    first contraction of each braid-scan side (`solution._braid_scan`,
    `operators.braid_sums`) and `solution.LinearMap2.compose`;
  * `_gathered_dot`, the contraction S[j n + k] = sum_{a+b=j} sum_l
    vec[a n + l] w[k][b][l] with a fixed operand w, in a row form over vec's
    nonzeros or a column form of dot products gathered over w's nonzeros:
    the second contraction of each braid-scan side and the factors L_k of
    the solution map (`solution._solution_map`);
  * `_Series._combination`, the n-ary linear combination sum c * s over the
    lcm of the terms' denominators, normalised once: `+` and `-`, `compose`,
    the table slices (`standard.table_slices`) and every other sum of series
    that an operator identity compares (`operators`).
One solver, `_by_degree`, makes each series that an identity fixes, degree
by degree: q(a) = x (`compositional_inverse`), g q' = q (the one
eigenfunction solver, `standard._eigenfunction`, for `operators` and
`standard.reconstruct_from_row`), g f' = f (f^{v0} - 1) (the column in
`standard.reconstruct_from_row`), g f' = f^2 - f
(`tensor.reconstruct_f_from_g`) and delta(lambda) = lambda(delta)
(`families.build_nonroot_family`).  Each job of a kernel has one slow
oracle, in the tests: its definition in `Fraction` loops (see the job table
in the `tests/oracles.py` docstring).  The solver's series are checked by
the identities they solve.

Values are immutable after construction (tuples all the way down), so they are
safe to share freely, including across threads: a copy is the value itself,
and a pickle holds only the stored integers.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, compress
from math import gcd, lcm
from operator import itemgetter, mul
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
    """A series payload's "trunc_order", which must be a positive JSON integer."""
    order = payload["trunc_order"]
    if type(order) is not int:
        raise ParseError(f"trunc_order must be a JSON integer, got {order!r}")
    if order < 1:
        raise ParseError(f"trunc_order must be positive, got {order}")
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


def _mul_ints(a, b, n: int, out=None) -> list[list[int]]:
    """out + the product of the integer grids a and b in K[u, v]/<u^n, v^n>,
    each of at most n rows of n entries (a series in one variable is one
    row or one column): out[u][v] += sum a[ua][va] b[u - ua][v - va],
    truncated to the rows of out (a new zero grid of min(n, rows(a) +
    rows(b) - 1) rows when None), which is returned.  It runs over pairs of
    nonzero entries: each nonzero row of b is gathered once as its (vb, x)
    pairs, and each nonzero c = a[ua][va] adds c * x to out[ua + ub][va + vb]
    until the rows ub run past out or the pairs past column n - 1, so no
    multiply-add is spent on a zero or on a pair that the truncation drops."""
    if out is None:
        out = [[0] * n for _ in range(min(n, len(a) + len(b) - 1))]
    rows = len(out)
    pairs_b = [(ub, list(compress(enumerate(row), row))) for ub, row in enumerate(b) if any(row)]
    for ua, row_a in enumerate(a):
        if any(row_a):
            room = rows - ua
            for va, c in compress(enumerate(row_a), row_a):
                lim = n - va
                for ub, pairs in pairs_b:
                    if ub >= room:
                        break
                    orow = out[ua + ub]
                    for vb, x in pairs:
                        if vb >= lim:
                            break
                        orow[va + vb] += c * x
    return out


def _add_matmul(a, b, out=None) -> list[list[int]]:
    """out + a . b for integer matrices, a row of a having at most len(b)
    entries; out (a new zero matrix when None) gets each row rebound to its
    sum and is returned.  Zero entries of a are skipped."""
    if out is None:
        out = [[0] * len(b[0]) for _ in a]
    for r, (orow, arow) in enumerate(zip(out, a)):
        for x, brow in zip(arow, b):
            if x:
                orow = [o + x * y for o, y in zip(orow, brow)]
        out[r] = orow
    return out


def _gathered_dot(w, n: int):
    """contract(vec) -> S, the n^2 integers

        S[j * n + k] = sum_{a+b=j} sum_l vec[a * n + l] w[k][b][l],

    for a fixed n x n x n integer operand w and a vec of n^2 integers (a
    list or a tuple), in one of two forms:

      * the row form (`_row_form`): each nonzero vec[a * n + l] adds its
        multiples of the nonzero w[k][b][l] (b < n - a), one Python
        multiply-add each, so its work follows vec's nonzeros;
      * the column form (`_column_form`): each S[j * n + k] is one dot
        product of the nonzero w[k][b][l] (b <= j) with vec, gathered by an
        `itemgetter` (`_gather_table`, built on the first vec that takes this
        form), so its work follows w's nonzeros and runs at C speed.

    A vec takes the row form when that needs at most 3/4 of the column
    form's multiply-adds.  On every vec of full braid scans and solution maps
    at n = 8, 12 and 16 with v0 = 1 and n - 1, this cut ran each input within
    9% of the faster form per vec; rows alone took up to 1.26 times that
    (v0 = 1 scans), columns alone up to 4.7 times (v0 = n - 1).
    """
    cols = [[] for _ in range(n)]   # cols[l]: the nonzero w[k][b][l] as (b * n + k, weight)
    for b in range(n):
        for k, grid in enumerate(w):
            line = grid[b]
            for l in compress(range(n), line):
                cols[l].append((b * n + k, line[l]))
    # terms[a * n + l]: the multiply-adds of a nonzero vec[a * n + l] in the row form
    terms = [bisect_left(col, ((n - a) * n,)) for a in range(n) for col in cols]
    total = sum(terms)
    table = []

    def contract(vec) -> list[int]:
        if 4 * sum(compress(terms, vec)) <= 3 * total:
            return _row_form(vec, cols, terms, n)
        if not table:
            table.extend(_gather_table(w, n))
        return _column_form(vec, table)

    return contract


def _gather_table(w, n: int) -> list[tuple]:
    """(get, weights) per output j * n + k of `_gathered_dot`: the nonzero
    w[k][b][l] with b <= j, and an `itemgetter` of their positions
    (j - b) * n + l in vec.  Both are padded to two entries with position 0
    and weight 0, so get always returns a tuple."""
    table = [None] * (n * n)
    for k, grid in enumerate(w):
        # the nonzero w[k][b][l] in b order, each with its position less j * n
        offsets = [l - b * n for b, line in enumerate(grid) for l in compress(range(n), line)]
        weights = [x for line in grid for x in line if x]
        ends = list(accumulate(n - line.count(0) for line in grid))
        for j, end in enumerate(ends):
            pad = max(0, 2 - end)
            table[j * n + k] = (itemgetter(*[j * n + o for o in offsets[:end]], *[0] * pad),
                                (*weights[:end], *[0] * pad))
    return table


def _row_form(vec, cols, terms, n: int) -> list[int]:
    """`_gathered_dot` by the nonzeros of vec."""
    out = [0] * (n * n)
    for index in compress(range(n * n), vec):
        l = index % n
        start, t = index - l, vec[index]
        for at, x in cols[l][:terms[index]]:
            out[start + at] += t * x
    return out


def _column_form(vec, table) -> list[int]:
    """`_gathered_dot` by the gathered dot products of `_gather_table`."""
    return [sum(map(mul, get(vec), weights)) for get, weights in table]


def _chain_break(chain, gen, den: int, n: int):
    """The first failing link of the power chain chain[k] = chain[k - 1] gen
    in K[u, v]/<u^n, v^n>, for n x n integer grids over the one denominator
    den: (k, i, j, p) for the least k >= 1, then the first (i, j), with
    den * chain[k][i][j] != p, p being that entry of the integer product
    chain[k - 1] gen; None when every link holds."""
    for k in range(1, len(chain)):
        product = _mul_ints(chain[k - 1], gen, n)
        for i, (row, line) in enumerate(zip(chain[k], product)):
            if [x * den for x in row] != line:
                j = next(j for j, (x, p) in enumerate(zip(row, line)) if x * den != p)
                return k, i, j, line[j]
    return None


def _reduced(rows, den: int):
    """(rows, den) divided by their gcd: the canonical form of a grid of
    integer rows over the positive denominator den, as a tuple of tuples."""
    g = den
    for row in rows:
        g = gcd(g, *row)
        if g == 1:
            return tuple(map(tuple, rows)), den
    return tuple([tuple([x // g for x in row]) for row in rows]), den // g


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


class _Stored:
    """The one stored form of `Series1`, `Series2`, `CoeffTensor` and
    `LinearMap2`: integer numerators `_nums` over the denominator `_den`,
    canonical (den >= 1, gcd(den, *nums) = 1, den = 1 for zero), immutable,
    compared and hashed on the integers, and the `Fraction` view `_view`, made
    on its first read (`_fractions`).  A class reads its numerators as rows
    (`_rows`) and shapes rows back (`_shaped`); by default both are the
    identity on a tuple of int rows."""

    __slots__ = ("_nums", "_den", "_view")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _rows(self) -> tuple:
        return self._nums

    @staticmethod
    def _shaped(rows: tuple) -> tuple:
        return rows

    def _store(self, view: tuple) -> None:
        """Set the stored form from rows of `Fraction`s, kept as the view."""
        ints, den = integer_grid(view)
        object.__setattr__(self, "_nums", self._shaped(tuple(map(tuple, ints))))
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_view", self._shaped(view))

    @classmethod
    def _from_ints(cls, nums: tuple, den: int):
        """The value stored as (nums, den), which must be canonical."""
        if not nums:
            raise SeriesError("truncation order must be positive")
        self = object.__new__(cls)
        object.__setattr__(self, "_nums", nums)
        object.__setattr__(self, "_den", den)
        object.__setattr__(self, "_view", None)
        return self

    @classmethod
    def _from_rows(cls, rows, den: int):
        """The value with the integer rows `rows` over den > 0, normalised."""
        rows, den = _reduced(rows, den)
        return cls._from_ints(cls._shaped(rows), den)

    def _fractions(self) -> tuple:
        """The values as `Fraction`s, made on the first read and kept."""
        view = self._view
        if view is None:
            den = self._den
            view = self._shaped(tuple(tuple(Fraction(x, den) if x else ZERO for x in row)
                                      for row in self._rows()))
            object.__setattr__(self, "_view", view)
        return view

    def __reduce__(self):
        """Pickle the stored integers alone: the value is rebuilt by
        `_from_ints`, without the view or any verdict a subclass caches."""
        return type(self)._from_ints, (self._nums, self._den)

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self._den == other._den
                and self._nums == other._nums)

    def __hash__(self):
        return hash((self._nums, self._den))


class _Series(_Stored):
    """The operations written once for `Series1` and `Series2`, on their rows."""

    __slots__ = ()

    coeffs = property(_Stored._fractions, doc="The coefficients as `Fraction`s.")

    @property
    def trunc_order(self) -> int:
        return len(self._nums)

    def is_zero(self) -> bool:
        return not any(map(any, self._rows()))

    def truncated(self, order: int):
        """The series cut to order 1 <= order <= its own (no new data)."""
        if not 0 < order <= len(self._nums):
            raise SeriesError(f"truncation order {order} is not in 1..{len(self._nums)}")
        return self._from_rows([row[:order] for row in self._rows()[:order]], self._den)

    # -- arithmetic ----------------------------------------------------------

    @classmethod
    def _combination(cls, terms, order: int):
        """sum c * s over the pairs (c, s) of `terms`, truncated to `order`
        (at most the order of each s), for c an int or a `Fraction` (a float
        or a bool raises TypeError).  Summed on the stored integers over the
        lcm of the terms' denominators c.denominator * s._den and normalised
        once; a term with c = 0 is skipped."""
        scaled = []
        for c, s in terms:
            c = as_fraction(c)
            if c:
                if len(s._nums) < order:
                    raise SeriesError(f"term of order {len(s._nums)} in a sum at order {order}")
                scaled.append((c.numerator, c.denominator * s._den, s._rows()))
        if not scaled:
            return cls.zero(order)
        den = lcm(*(d for _, d, _ in scaled))
        (num, d, rows), *rest = scaled
        up = num * (den // d)
        total = [[up * x for x in row[:order]] for row in rows[:order]]
        for num, d, rows in rest:
            up = num * (den // d)
            total = [[t + up * x for t, x in zip(trow, row)] for trow, row in zip(total, rows)]
        return cls._from_rows(total, den)

    def __add__(self, other):
        return self._combination([(ONE, self), (ONE, other)],
                                 min(len(self._nums), len(other._nums)))

    def __sub__(self, other):
        return self._combination([(ONE, self), (-ONE, other)],
                                 min(len(self._nums), len(other._nums)))

    def __neg__(self):
        return self._from_ints(self._shaped(tuple(tuple(-x for x in row) for row in self._rows())),
                               self._den)

    def scale(self, factor: Rational):
        f = as_fraction(factor)
        c = f.numerator
        return self._from_rows([[c * x for x in row] for row in self._rows()],
                               self._den * f.denominator)

    def add_constant(self, value: Rational):
        c = as_fraction(value)
        den = lcm(self._den, c.denominator)
        up = den // self._den
        rows = [[x * up for x in row] for row in self._rows()]
        rows[0][0] += c.numerator * (den // c.denominator)
        return self._from_rows(rows, den)


class Series1(_Series):
    """Truncated one-variable series sum(c[u] * x^u for u < trunc_order)."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Rational]):
        data = tuple(as_fraction(c) for c in coeffs)
        if not data:
            raise SeriesError("truncation order must be positive")
        self._store((data,))

    def _rows(self) -> tuple:
        return (self._nums,)

    @staticmethod
    def _shaped(rows: tuple) -> tuple:
        return rows[0]

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series1":
        return cls._from_ints((0,) * order, 1)

    @classmethod
    def one(cls, order: int) -> "Series1":
        return cls._from_ints((1,) + (0,) * (order - 1), 1)

    @classmethod
    def x(cls, order: int) -> "Series1":
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, degree: int, order: int, coeff: Rational = 1) -> "Series1":
        if degree < 0:
            raise IndexOutOfTruncation(f"degree {degree} at order {order}")
        if degree >= order:
            return cls.zero(order)
        c = as_fraction(coeff)
        nums = [0] * order
        nums[degree] = c.numerator
        return cls._from_ints(tuple(nums), c.denominator)

    @classmethod
    def constant(cls, value: Rational, order: int) -> "Series1":
        return cls.monomial(0, order, value)

    # -- basic queries -------------------------------------------------------

    def coefficient(self, degree: int) -> Fraction:
        if not 0 <= degree < len(self._nums):
            raise IndexOutOfTruncation(f"degree {degree} at order {len(self._nums)}")
        return self.coeffs[degree]

    def __getitem__(self, degree: int) -> Fraction:
        return self.coefficient(degree)

    def valuation(self) -> Union[int, None]:
        """Least degree with a nonzero coefficient; None for the zero series."""
        for u, c in enumerate(self._nums):
            if c:
                return u
        return None

    def __repr__(self):
        return f"Series1({[str(c) for c in self.coeffs]})"

    # -- arithmetic ----------------------------------------------------------

    def __mul__(self, other: "Series1") -> "Series1":
        n = min(len(self._nums), len(other._nums))
        return Series1._from_rows(_mul_ints([self._nums[:n]], [other._nums[:n]], n),
                                  self._den * other._den)

    def __pow__(self, exponent: int) -> "Series1":
        if exponent < 0:
            raise SeriesError("negative powers: use reciprocal() explicitly")
        return _power(self, exponent, Series1.one(len(self._nums)))

    def derivative(self) -> "Series1":
        """Formal derivative, stored at the same order with the top coefficient dropped."""
        a = self._nums
        return Series1._from_rows([[u * a[u] for u in range(1, len(a))] + [0]], self._den)

    def reciprocal(self) -> "Series1":
        """Multiplicative inverse; requires a nonzero constant term.

        For self = A / d the inverse is d / A, and 1 / A has the x^k
        coefficient C_k / A_0^(k+1) for the integers C_0 = 1 and
        C_k = -sum_{j=1..k} A_j A_0^(j-1) C_(k-j); all n over A_0^n.
        """
        a, n = self._nums, len(self._nums)
        a0 = a[0]
        if not a0:
            raise ZeroConstantTerm("series has zero constant term")
        pw = [1]
        for _ in range(n):
            pw.append(pw[-1] * a0)
        c = [1]
        for k in range(1, n):
            c.append(-sum(a[j] * pw[j - 1] * c[k - j] for j in range(1, k + 1) if a[j]))
        sign = -1 if pw[n] < 0 else 1
        d = self._den * sign
        return Series1._from_rows([[d * c[k] * pw[n - 1 - k] for k in range(n)]], pw[n] * sign)

    # -- serialization ---------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "trunc_order": len(self._nums),
            "coeffs": [str(c) for c in self.coeffs],
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


class Series2(_Series):
    """Truncated two-variable series sum(c[u][v] * x^u * y^v for u, v < trunc_order)."""

    __slots__ = ()

    def __init__(self, grid: Iterable[Iterable[Rational]]):
        rows = tuple(tuple(as_fraction(c) for c in row) for row in grid)
        if not rows:
            raise SeriesError("truncation order must be positive")
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise SeriesError("coefficient grid must be square")
        self._store(rows)

    def _grid(self, n: int) -> tuple:
        """The numerators truncated to order n (at most the own order)."""
        if n == len(self._nums):
            return self._nums
        return tuple(row[:n] for row in self._nums[:n])

    # -- construction ------------------------------------------------------

    @classmethod
    def zero(cls, order: int) -> "Series2":
        return cls._from_ints(((0,) * order,) * order, 1)

    @classmethod
    def monomial(cls, xdeg: int, ydeg: int, order: int, coeff: Rational = 1) -> "Series2":
        if xdeg < 0 or ydeg < 0:
            raise IndexOutOfTruncation(f"({xdeg},{ydeg}) at order {order}")
        if not (xdeg < order and ydeg < order):
            return cls.zero(order)
        c = as_fraction(coeff)
        grid = [[0] * order for _ in range(order)]
        grid[xdeg][ydeg] = c.numerator
        return cls._from_ints(tuple(map(tuple, grid)), c.denominator)

    @classmethod
    def from_y_slices(cls, slices: Sequence[Series1], order: int) -> "Series2":
        """Assemble sum(slices[v](x) * y^v); slices beyond the list are zero."""
        slices = slices[:order]
        den = lcm(*(s._den for s in slices))
        grid = [[0] * order for _ in range(order)]
        for v, s in enumerate(slices):
            up = den // s._den
            for u, x in enumerate(s._nums[:order]):
                grid[u][v] = x * up
        return cls._from_rows(grid, den)

    @classmethod
    def from_x_series(cls, s: Series1, order: int) -> "Series2":
        """Embed a series in x as a two-variable series (constant in y)."""
        grid = [[0] * order for _ in range(order)]
        for u, x in enumerate(s._nums[:order]):
            grid[u][0] = x
        return cls._from_rows(grid, s._den)

    @classmethod
    def from_y_series(cls, s: Series1, order: int) -> "Series2":
        """Embed a series (read in y) as a two-variable series (constant in x)."""
        grid = [[0] * order for _ in range(order)]
        grid[0][:len(s._nums[:order])] = s._nums[:order]
        return cls._from_rows(grid, s._den)

    # -- queries -------------------------------------------------------------

    def coefficient(self, xdeg: int, ydeg: int) -> Fraction:
        n = len(self._nums)
        if not (0 <= xdeg < n and 0 <= ydeg < n):
            raise IndexOutOfTruncation(f"({xdeg},{ydeg}) at order {n}")
        return self.coeffs[xdeg][ydeg]

    def slice_y(self, ydeg: int) -> Series1:
        """The coefficient of y^ydeg, as a series in x."""
        n = len(self._nums)
        if not 0 <= ydeg < n:
            raise IndexOutOfTruncation(f"y-degree {ydeg} at order {n}")
        return Series1._from_rows([[row[ydeg] for row in self._nums]], self._den)

    def slice_x(self, xdeg: int) -> Series1:
        """The coefficient of x^xdeg, as a series in y."""
        n = len(self._nums)
        if not 0 <= xdeg < n:
            raise IndexOutOfTruncation(f"x-degree {xdeg} at order {n}")
        return Series1._from_rows([self._nums[xdeg]], self._den)

    def __repr__(self):
        n = len(self._nums)
        return f"Series2(order={n})"

    def agrees_with(self, other: "Series2", x_order: int, y_order: int) -> bool:
        """Coefficientwise equality restricted to x-degree < x_order, y-degree < y_order,
        each order at most that of both series."""
        top = min(len(self._nums), len(other._nums))
        if not (0 <= x_order <= top and 0 <= y_order <= top):
            raise SeriesError(f"agreement order ({x_order}, {y_order}) is not in 0..{top}")
        da, db = self._den, other._den
        return all(x * db == y * da
                   for ra, rb in zip(self._nums[:x_order], other._nums[:x_order])
                   for x, y in zip(ra[:y_order], rb[:y_order]))

    # -- arithmetic ------------------------------------------------------------

    def __mul__(self, other: "Series2") -> "Series2":
        n = min(len(self._nums), len(other._nums))
        return Series2._from_rows(_mul_ints(self._grid(n), other._grid(n), n),
                                  self._den * other._den)

    def __pow__(self, exponent: int) -> "Series2":
        if exponent < 0:
            raise SeriesError("negative powers are not defined for Series2")
        return _power(self, exponent, Series2.monomial(0, 0, len(self._nums)))

    def mul_x_series(self, s: Series1) -> "Series2":
        """Multiply by a series in x alone."""
        return Series2._product_sum([(s, self)], min(len(self._nums), len(s._nums)))

    def mul_y_series(self, s: Series1) -> "Series2":
        """Multiply by a series in y alone (s read with its variable as y)."""
        return Series2._product_sum([(self, s)], min(len(self._nums), len(s._nums)))

    @classmethod
    def _product_sum(cls, terms, order: int) -> "Series2":
        """sum a * b over the pairs (a, b) of `terms` at `order` (at most the
        order of each operand).  A `Series1` on the left is read in x, a grid
        of one column, and on the right in y, a grid of one row; the kernel
        visits only their nonzero entries in either layout.  `_mul_ints` adds
        each product into one accumulator over the lcm of the products'
        denominators, scaling the one-variable operand (b if it is one row,
        else a), and the sum is normalised once."""
        grids = [([(x,) for x in a._nums[:order]] if type(a) is Series1 else a._grid(order),
                  [b._nums[:order]] if type(b) is Series1 else b._grid(order),
                  a._den * b._den) for a, b in terms]
        den = lcm(*(d for _, _, d in grids))
        out = [[0] * order for _ in range(order)]
        for a, b, d in grids:
            up = den // d
            if up != 1:
                if len(b) == 1:
                    b = [[up * x for x in b[0]]]
                else:
                    a = [[up * x for x in row] for row in a]
            _mul_ints(a, b, order, out)
        return cls._from_rows(out, den)

    def partial_x(self) -> "Series2":
        a = self._nums
        n = len(a)
        return Series2._from_rows([[u * x for x in a[u]] for u in range(1, n)] + [[0] * n],
                                  self._den)

    def partial_y(self) -> "Series2":
        n = len(self._nums)
        return Series2._from_rows([[v * row[v] for v in range(1, n)] + [0]
                                   for row in self._nums], self._den)

    def transposed(self) -> "Series2":
        """Swap the two variables."""
        return Series2._from_ints(tuple(zip(*self._nums)), self._den)

    # -- serialization -----------------------------------------------------------

    def to_payload(self) -> dict:
        return {
            "trunc_order": len(self._nums),
            "coeffs": [[str(c) for c in row] for row in self.coeffs],
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
    inner = inner.truncated(min(len(outer._nums), inner.trunc_order))
    power = inner ** 0
    terms = [(outer.coeffs[0], power)]
    for ck in outer.coeffs[1:]:
        power = power * inner
        if power.is_zero():
            break
        terms.append((ck, power))
    return type(inner)._combination(terms, inner.trunc_order)


def substitute_y(series: Series2, inner: Series1) -> Series2:
    """series(x, inner(y)) for inner with zero constant term (read in y): the
    sum over v of slice_v(x) * inner(y)^v, the powers made until one
    vanishes.  The terms are summed in `int` over one denominator, the
    series' times the lcm of the powers'."""
    if inner._nums[0]:
        raise NonzeroConstantTerm("inner series has nonzero constant term")
    n = min(series.trunc_order, len(inner._nums))
    powers = [Series1.one(n)]
    while len(powers) < n:
        power = powers[-1] * inner
        if power.is_zero():
            break
        powers.append(power)
    den = lcm(*(p._den for p in powers))
    scaled = [[x * (den // p._den) for x in p._nums] for p in powers]
    return Series2._from_rows(_add_matmul(series._grid(n), scaled), series._den * den)


def _by_degree(order: int, head: Sequence[Rational], residual, weight) -> Series1:
    """The series s = head + sum_{k >= len(head)} s_k x^k at `order` on which
    residual(s) vanishes in every degree from len(head) up, solved one degree
    at a time: s_k = -[x^k] residual(s with s_k = 0) / weight(k).

    The contract on `residual`: s_k enters the x^k coefficient of
    residual(s) as weight(k) * s_k, and no later coefficient reaches degree k.
    So [x^k] residual(s) depends on s_0..s_k alone, and is read at order
    k + 1, where each series operation truncates to the smaller order."""
    coeffs = [as_fraction(c) for c in head] + [ZERO] * (order - len(head))
    for k in range(len(head), order):
        coeffs[k] = -residual(Series1(coeffs[:k + 1])).coeffs[k] / weight(k)
    return Series1(coeffs)


def compositional_inverse(q: Series1) -> Series1:
    """The series a with a(q(x)) = x = q(a(x)) up to truncation: the
    solution of q(a) = x with a = x / q_1 + ... (`_by_degree`).  a_k enters
    the x^k coefficient of q(a) as q_1 a_k, and for k >= 2, where x has no
    term, that coefficient is the recursion a_k = -[x^k] q(a with a_k = 0) / q_1."""
    if q.coeffs[0]:
        raise NotInvertible("series has nonzero constant term")
    if len(q.coeffs) < 2 or not q.coeffs[1]:
        raise NotInvertible("series has zero linear coefficient")
    q1 = q.coeffs[1]
    return _by_degree(len(q.coeffs), [ZERO, ONE / q1], lambda a: compose(q, a), lambda k: q1)


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
    n = min(len(a._nums), len(b._nums)) - vb
    a_shift = Series1._from_rows([a._nums[vb:vb + n]], a._den)
    b_shift = Series1._from_rows([b._nums[vb:vb + n]], b._den)
    return a_shift * b_shift.reciprocal()


def binomial_series(exponent: Rational, base: Series1) -> Series1:
    """base**exponent = sum C(exponent, k) (base - 1)^k; base(0) must be 1."""
    if base._nums[0] != base._den:
        raise ConstantTermNotOne("base must have constant term 1")
    alpha = as_fraction(exponent)
    outer = Series1([general_binomial(alpha, k) for k in range(len(base._nums))])
    return compose(outer, base.add_constant(-1))
