"""The one slow oracle of each job, shared by the test modules.

Each job of `qcycle` has one fast path in `src/` and at most one independent
slow reference, kept here.  An oracle states its job's definition, written
where it can be in `Fraction` (or scaled integer) loops over `.coeffs`,
`.entries` and `.matrix` that call no kernel of `qcycle.series`
(`_mul_ints`, `_add_matmul`, `_gathered_dot`, `_Series._combination`); the
series constructors only hold its results.  Two groups are built on other
jobs instead: the operator oracles are the paper's defining formulas, made of
series operations that the `series` oracles check in turn; the oracles of
the identity-suite checks that compare stored integers make the same
comparisons on normalised series (or on the `Fraction` view), through the
context's operators; and the global identities that the suite decides from
one-variable ones are made on every monomial x^c y^d at every degree.

    job                         fast path                          oracle
    --------------------------  ---------------------------------  --------------------------------
    entrywise operations        `+`, `-`, `scale`, `_combination`  entrywise_by_fractions
                                `add_constant`                     add_constant_by_fractions
    derivatives                 `derivative`, `partial_x`,         derivative_by_fractions,
                                `partial_y`                        partial_x/y_by_fractions
    series products             `Series1/2.__mul__`                series1/2_product_by_fractions
    integer product kernel      `series._mul_ints`                 mul_ints_by_fractions
    products by x- or y-series  `mul_x_series`, `mul_y_series`     mul_x/y_series_by_fractions
    substitution in y           `substitute_y`                     substitute_y_by_fractions
    composition                 `compose`                          compose_by_fractions
    reciprocal                  `Series1.reciprocal`               reciprocal_by_fractions
    binomial series             `binomial_series`                  binomial_by_fractions
    gathered dot products       `series._gathered_dot`             gathered_dot_by_sums
    tensor payload read         `CoeffTensor.from_payload`         tensor_from_payload_by_fractions
    coalgebra morphism          `is_coalgebra_morphism`            is_morphism_by_definition
    braid scans                 `check_braid_reduced/full`         braid_scan_by_loops
    determinant, inverse        `_eliminate`, `_invert`            determinant_by_leibniz,
                                                                   inverse_by_adjugate
    matrix product              `LinearMap2.compose`               product_by_fractions
    side map                    `gp_map`                           gp_map_by_convolution
    superscript map             `superscript_map`                  superscript_by_fractions
    solution map                `build_solution`                   solution_by_convolution
    endomorphism of C (x) C     `is_coalgebra_endomorphism`        is_endomorphism_by_scan
    braid identity on the map   `check_braid_on_map`               braid_by_sweep
    operator images             `OperatorContext.partial_*`,       oracle_x, oracle_y,
                                `global_table`                     oracle_global
    braid sums R(i, j, k)       `operators.braid_sums`             braid_sum
    identity-suite checks       `operators.identity_suite`         x_commutation_by_series,
      that compare stored                                          xy_commutation_by_series,
      integers                                                     tilde_x_pass_by_series,
                                                                   braid_match_by_fractions
    global identities decided   `operators.identity_suite`         global_checks_on_basis
      from one-variable ones
"""

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import factorial, lcm

from qcycle.errors import ConstantTermNotOne, ParseError, SingularGd, SingularGp
from qcycle.series import (
    Series1,
    Series2,
    as_fraction,
    general_binomial,
    json_array,
    parse_rational,
)
from qcycle.solution import MAX_VIOLATIONS, BraidReport
from qcycle.tensor import CoeffTensor, MorphismReport, _check


# -- truncated series ----------------------------------------------------------------


def entrywise_by_fractions(op, *operands):
    """op applied coefficient by coefficient, at the least order of the operands."""
    n = min(s.trunc_order for s in operands)
    if isinstance(operands[0], Series1):
        return Series1([op(*(s.coeffs[u] for s in operands)) for u in range(n)])
    return Series2([[op(*(s.coeffs[u][v] for s in operands)) for v in range(n)]
                    for u in range(n)])


def add_constant_by_fractions(s, c):
    if isinstance(s, Series1):
        return Series1([s.coeffs[0] + c] + list(s.coeffs[1:]))
    grid = [list(row) for row in s.coeffs]
    grid[0][0] += c
    return Series2(grid)


def derivative_by_fractions(s):
    n = s.trunc_order
    return Series1([u * s.coeffs[u] for u in range(1, n)] + [0])


def partial_x_by_fractions(s):
    n = s.trunc_order
    return Series2([[u * c for c in s.coeffs[u]] for u in range(1, n)] + [[0] * n])


def partial_y_by_fractions(s):
    n = s.trunc_order
    return Series2([[v * row[v] for v in range(1, n)] + [0] for row in s.coeffs])


def series1_product_by_fractions(a, b):
    """The product in K[x]/<x^n>, n the smaller order, term by term."""
    n = min(len(a.coeffs), len(b.coeffs))
    out = [Fraction(0)] * n
    for u in range(n):
        cu = a.coeffs[u]
        if not cu:
            continue
        for v in range(n - u):
            cv = b.coeffs[v]
            if cv:
                out[u + v] += cu * cv
    return Series1(out)


def series2_product_by_fractions(a, b):
    """The product in K[x, y]/<x^n, y^n>, n the smaller order, term by term."""
    n = min(a.trunc_order, b.trunc_order)
    out = [[Fraction(0)] * n for _ in range(n)]
    for ua in range(n):
        for va in range(n):
            c = a.coeffs[ua][va]
            if not c:
                continue
            for ub in range(n - ua):
                for vb in range(n - va):
                    d = b.coeffs[ub][vb]
                    if d:
                        out[ua + ub][va + vb] += c * d
    return Series2(out)


def mul_ints_by_fractions(a, b, n, out=None):
    """out + a * b for grids of integers in K[u, v]/<u^n, v^n>, as `Fraction`s:
    out[u][v] + sum a[ua][va] b[u - ua][v - va] over every entry of a whose
    partner lies in b, for the rows of out (min(n, rows(a) + rows(b) - 1)
    zero rows of n entries when None) and the columns v < n."""
    rows = len(out) if out is not None else min(n, len(a) + len(b) - 1)
    result = [[Fraction(out[u][v]) if out is not None else Fraction(0) for v in range(n)]
              for u in range(rows)]
    for u in range(rows):
        for v in range(n):
            for ua, row_a in enumerate(a):
                for va, c in enumerate(row_a):
                    ub, vb = u - ua, v - va
                    if 0 <= ub < len(b) and 0 <= vb < len(b[ub]):
                        result[u][v] += Fraction(c) * b[ub][vb]
    return result


def mul_x_series_by_fractions(h, s):
    """h times the series s in x, term by term."""
    n = min(h.trunc_order, len(s.coeffs))
    out = [[Fraction(0)] * n for _ in range(n)]
    for w, c in enumerate(s.coeffs[:n]):
        if not c:
            continue
        for u in range(n - w):
            row = h.coeffs[u]
            orow = out[u + w]
            for v in range(n):
                d = row[v]
                if d:
                    orow[v] += c * d
    return Series2(out)


def mul_y_series_by_fractions(h, s):
    """h times the series s in y, term by term."""
    n = min(h.trunc_order, len(s.coeffs))
    out = [[Fraction(0)] * n for _ in range(n)]
    for w, c in enumerate(s.coeffs[:n]):
        if not c:
            continue
        for u in range(n):
            row = h.coeffs[u]
            orow = out[u]
            for v in range(n - w):
                d = row[v]
                if d:
                    orow[v + w] += c * d
    return Series2(out)


def substitute_y_by_fractions(series, inner):
    """series(x, inner(x)): y^v replaced by inner^v, each power made by the
    one-variable product oracle, stopping at the first zero power."""
    n = min(series.trunc_order, len(inner.coeffs))
    out = [[Fraction(0)] * n for _ in range(n)]
    power = Series1.one(n)
    for v in range(n):
        if v:
            power = series1_product_by_fractions(power, inner)
            if not any(power.coeffs):
                break
        for u in range(n):
            c = series.coeffs[u][v]
            if not c:
                continue
            orow = out[u]
            for w, pw in enumerate(power.coeffs):
                if pw:
                    orow[w] += c * pw
    return Series2(out)


def compose_by_fractions(outer, inner):
    """outer(inner) = sum_k outer_k inner^k, at the least of outer's length
    and inner's order, over every coefficient of outer (a `Series2` power
    survives up to k = 2N - 2), with every power and sum made by the
    `Fraction` loops."""
    n = min(len(outer.coeffs), inner.trunc_order)
    if isinstance(inner, Series1):
        multiply, power = series1_product_by_fractions, Series1.one(n)
    else:
        multiply, power = series2_product_by_fractions, Series2.monomial(0, 0, n)
    acc = entrywise_by_fractions(lambda c: outer.coeffs[0] * c, power)
    for ck in outer.coeffs[1:]:
        power = multiply(power, inner)
        acc = entrywise_by_fractions(lambda x, y: x + ck * y, acc, power)
    return acc


def reciprocal_by_fractions(s):
    """1 / s by the recurrence sum_{j <= k} s_j out_{k-j} = [k = 0]."""
    a = s.coeffs
    n = len(a)
    inv0 = 1 / a[0]
    out = [Fraction(0)] * n
    out[0] = inv0
    for k in range(1, n):
        acc = Fraction(0)
        for j in range(1, k + 1):
            if a[j]:
                acc += a[j] * out[k - j]
        out[k] = -inv0 * acc
    return Series1(out)


def binomial_by_fractions(exponent, base):
    """base^exponent = sum_k C(exponent, k) (base - 1)^k, each power made by
    the one-variable product oracle."""
    if base.coeffs[0] != 1:
        raise ConstantTermNotOne("base must have constant term 1")
    alpha = as_fraction(exponent)
    n = len(base.coeffs)
    t = Series1([0] + list(base.coeffs[1:]))
    acc = [Fraction(int(u == 0)) for u in range(n)]
    power = Series1.one(n)
    for k in range(1, n):
        power = series1_product_by_fractions(power, t)
        ck = general_binomial(alpha, k)
        acc = [x + ck * y for x, y in zip(acc, power.coeffs)]
    return Series1(acc)


def gathered_dot_by_sums(w, vec, n):
    """S[j * n + k] = sum_{a+b=j} sum_l vec[a * n + l] w[k][b][l], term by term."""
    return [sum(vec[a * n + l] * w[k][j - a][l] for a in range(j + 1) for l in range(n))
            for j in range(n) for k in range(n)]


# -- tensors ---------------------------------------------------------------------------


def tensor_from_payload_by_fractions(payload):
    """`CoeffTensor.from_payload` on `Fraction`s: the shape first, by the
    constructor's check on a grid of zeros, then every value through
    `parse_rational` and the constructor."""
    try:
        rows = [[json_array(col) for col in json_array(row)] for row in json_array(payload)]
        CoeffTensor([[[0] * len(col) for col in row] for row in rows])
        return CoeffTensor([[[parse_rational(v) for v in col] for col in row] for row in rows])
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed tensor payload: {exc}") from exc


def is_morphism_by_definition(t):
    """e . t = e (x) e and D . t = (t (x) t) . D on every basis vector, as a
    `MorphismReport`.

    The x_l (x) x_h component of D(t(x_i (x) x_j)) is t[i][j][l+h], which is 0
    when l + h >= n; that of (t (x) t)(D(x_i (x) x_j)) is the sum over
    a+b=i, c+d=j of t[a][c][l] t[b][d][h].  The report names the first
    violation in the order of the chain: the counit over (i, j), as
    (i, j, 0, 0, t[i][j][0], expected); then, for k = 2, ..., n, the
    component l = 1, h = k - 1 over (i, j), as (i, j, 1, k - 1, t[i][j][k],
    sum), so l + h = n marks a nonzero G^n.  Every other component is
    compared after those.
    """
    n, e = t.n, t.entries
    for i in range(n):
        for j in range(n):
            expect = Fraction(1 if i + j == 0 else 0)
            if e[i][j][0] != expect:
                return MorphismReport(False, (i, j, 0, 0, e[i][j][0], expect))
    pairs = [(1, k - 1) for k in range(2, n + 1)]
    pairs += [(l, h) for l in range(n) for h in range(n) if (l, h) not in pairs]
    for l, h in pairs:
        for i in range(n):
            for j in range(n):
                lhs = e[i][j][l + h] if l + h < n else Fraction(0)
                rhs = sum((e[a][c][l] * e[i - a][j - c][h]
                           for a in range(i + 1) for c in range(j + 1)), Fraction(0))
                if lhs != rhs:
                    return MorphismReport(False, (i, j, l, h, lhs, rhs))
    return MorphismReport(True)


# -- braid scans -----------------------------------------------------------------------

# The three braid families by their (LHS, RHS) tensor triples.
FAMILIES = (("pdp", "ppp"), ("ppd", "ddp"), ("dpd", "ddd"))


def braid_scan_by_loops(s, ms, cap=MAX_VIOLATIONS):
    """The three families at every (i, j, k) and every m in ms, each side summed
    whole at each point over the tensors scaled to integers, with violations
    in family, i, j, k, m order and capped at `cap` (None: all of them).  A
    side is sum over a+b=j, h, l of A[i][a][h] B[k][b][l] C[h][l][m] for its
    triple (A, B, C); the right-hand side has j and k swapped."""
    n = s.n

    def scaled(t):
        den = lcm(*(v.denominator for row in t.entries for col in row for v in col))
        return [[[int(v * den) for v in col] for col in row] for row in t.entries], den

    tensors = {"p": scaled(s.p), "d": scaled(s.d)}

    def side(A, B, C, i, j, k, m):
        acc = 0
        for a in range(j + 1):
            row_a, row_b = A[i][a], B[k][j - a]
            for h in range(n):
                x = row_a[h]
                if not x:
                    continue
                inner = 0
                for l in range(n):
                    y = row_b[l]
                    if y:
                        z = C[h][l][m]
                        if z:
                            inner += y * z
                if inner:
                    acc += x * inner
        return acc

    flags = [True, True, True]
    violations = []
    for index, names in enumerate(FAMILIES):
        (A, da), (B, db), (C, dc) = (tensors[name] for name in names[0])
        (A2, da2), (B2, db2), (C2, dc2) = (tensors[name] for name in names[1])
        den_l, den_r = da * db * dc, da2 * db2 * dc2
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for m in ms:
                        lhs = side(A, B, C, i, j, k, m)
                        rhs = side(A2, B2, C2, i, k, j, m)
                        if lhs * den_r != rhs * den_l:
                            flags[index] = False
                            if cap is None or len(violations) < cap:
                                violations.append((index + 1, i, j, k, m,
                                                   Fraction(lhs, den_l), Fraction(rhs, den_r)))
    return BraidReport(flags[0], flags[1], flags[2], tuple(violations))


# -- linear algebra and the solution map ---------------------------------------------------


@lru_cache(maxsize=None)
def _signed_permutations(dim):
    """(sign(sigma), sigma) for every permutation sigma of range(dim)."""
    return tuple(((-1) ** sum(perm[a] > perm[b] for b in range(dim) for a in range(b)), perm)
                 for perm in permutations(range(dim)))


def determinant_by_leibniz(m):
    """sum over permutations sigma of sign(sigma) prod_r m[r][sigma(r)],
    summed on the entries scaled to integers over their common denominator."""
    dim = len(m)
    den = lcm(*(Fraction(v).denominator for row in m for v in row))
    ints = [[int(v * den) for v in row] for row in m]
    total = 0
    for sign, perm in _signed_permutations(dim):
        term = sign
        for r, c in enumerate(perm):
            term *= ints[r][c]
            if not term:
                break
        total += term
    return Fraction(total, den ** dim)


def inverse_by_adjugate(m):
    """The inverse of a square `Fraction` matrix as its adjugate over its
    Leibniz determinant, entry (r, c) being (-1)^(r+c) det(m without row c
    and column r) / det(m); None when det(m) = 0."""
    dim = len(m)
    det = determinant_by_leibniz(m)
    if not det:
        return None

    def minor(row, col):
        return [[m[r][c] for c in range(dim) if c != col] for r in range(dim) if r != row]

    return [[(-1) ** (r + c) * determinant_by_leibniz(minor(c, r)) / det for c in range(dim)]
            for r in range(dim)]


def product_by_fractions(a, b):
    """The row-by-column product of two square `Fraction` matrices."""
    return [[sum((a[r][k] * b[k][c] for k in range(len(b))), Fraction(0))
             for c in range(len(b[0]))] for r in range(len(a))]


def gp_map_by_convolution(t):
    """x_i (x) x_j -> sum_{a+b=j} t(x_i (x) x_a) (x) x_b, entry by entry."""
    n = t.n
    dim = n * n
    grid = [[Fraction(0)] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for b in range(j + 1):
                for k in range(n):
                    grid[k * n + b][i * n + j] += t.entries[i][j - b][k]
    return grid


def superscript_by_fractions(p):
    """The superscript map E[i][j][k], solved step by step from its defining
    identity sum_{j1+j2=j} sum_h p[i][j1][h] E[h][j2][k] = [j = 0][i = k]
    with the step-block inverse made by `inverse_by_adjugate`; `SingularGp`
    when the step block p[.][0][.] is singular."""
    n = p.n
    e = p.entries
    step_inv = inverse_by_adjugate([row[0] for row in e])
    if step_inv is None:
        raise SingularGp("left side map is not invertible")
    E = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for j in range(n):
        for k in range(n):
            rhs = [Fraction(int(j == 0 and i == k)) for i in range(n)]
            for j1 in range(1, j + 1):
                for i in range(n):
                    rhs[i] -= sum((e[i][j1][h] * E[h][j - j1][k] for h in range(n)
                                   if e[i][j1][h] and E[h][j - j1][k]), Fraction(0))
            for h in range(n):
                E[h][j][k] = sum((step_inv[h][r] * rhs[r] for r in range(n)
                                  if step_inv[h][r] and rhs[r]), Fraction(0))
    return E


def solution_by_convolution(s):
    """s(x_i (x) x_j) = sum {x_i1}x_j2 (x) x_i2^{x_j1} over i1+i2=i, j1+j2=j,
    with {x_i}x_j = sum_{j1+j2=j} sum_m E[i][j1][m] d[j2][m][.] and E the
    superscript map of `superscript_by_fractions`; both sums are written out
    coefficient by coefficient, on E and d scaled to integers over their
    common denominators.  Raises as `build_solution` does for any pair:
    `SingularGd` when d's step block has Leibniz determinant 0, then
    `SingularGp` when p's is singular."""
    n = s.n
    if not determinant_by_leibniz([row[0] for row in s.d.entries]):
        raise SingularGd("right side map is not invertible")

    def scaled(cube):
        den = lcm(*(v.denominator for plane in cube for row in plane for v in row))
        return [[[int(v * den) for v in row] for row in plane] for plane in cube], den

    (E, den_e), (d, den_d) = scaled(superscript_by_fractions(s.p)), scaled(s.d.entries)
    L = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            for j1 in range(j + 1):
                for m in range(n):
                    e = E[i][j1][m]
                    if e:
                        for k in range(n):
                            L[i][j][k] += e * d[j - j1][m][k]
    dim = n * n
    grid = [[0] * dim for _ in range(dim)]
    for i in range(n):
        for j in range(n):
            for i1 in range(i + 1):
                for j1 in range(j + 1):
                    for k in range(n):
                        c = L[i1][j - j1][k]
                        if c:
                            for l in range(n):
                                grid[k * n + l][i * n + j] += c * E[i - i1][j1][l]
    den = den_e * den_e * den_d
    return [[Fraction(x, den) for x in row] for row in grid]


def is_endomorphism_by_scan(s):
    """e . s = e and D . s = (s (x) s) . D, compared on every basis vector.

    D(x_i (x) x_j) is the sum over i1+i2=i, j1+j2=j of
    (x_i1 (x) x_j1) (x) (x_i2 (x) x_j2), and the x_a(x)x_b (x) x_c(x)x_d
    component of D(s(x_i (x) x_j)) is s[(a+c, b+d), (i, j)], 0 off the grid.
    Both sides are summed over the nonzero entries of s's columns, keyed by
    (row a * n + b, row c * n + d), and compared without their zero terms.
    """
    n = s.n
    dim = n * n
    M = s.matrix
    for col in range(dim):
        if M[0][col] != (1 if col == 0 else 0):
            return False
    cols = [[(r, M[r][c]) for r in range(dim) if M[r][c]] for c in range(dim)]
    for i in range(n):
        for j in range(n):
            lhs = {}
            for r, v in cols[i * n + j]:
                p, q = divmod(r, n)
                for a in range(p + 1):
                    for b in range(q + 1):
                        lhs[a * n + b, (p - a) * n + (q - b)] = v
            rhs = {}
            for i1 in range(i + 1):
                for j1 in range(j + 1):
                    for ra, va in cols[i1 * n + j1]:
                        for rb, vb in cols[(i - i1) * n + (j - j1)]:
                            rhs[ra, rb] = rhs.get((ra, rb), 0) + va * vb
            if lhs != {key: v for key, v in rhs.items() if v}:
                return False
    return True


def braid_by_sweep(s):
    """s12 s23 s12 = s23 s12 s23, compared on each of the n^3 basis vectors of
    C (x) C (x) C, with s as sparse integer columns over a common denominator."""
    n = s.n
    den = lcm(*(v.denominator for row in s.matrix for v in row))
    cols = [[] for _ in range(n * n)]
    for r, row in enumerate(s.matrix):
        for c, v in enumerate(row):
            if v:
                cols[c].append((r, int(v * den)))

    def apply12(vec):
        out = {}
        for idx, val in vec.items():
            ij, c = divmod(idx, n)
            for row, w in cols[ij]:
                out[row * n + c] = out.get(row * n + c, 0) + val * w
        return {k: v for k, v in out.items() if v}

    def apply23(vec):
        out = {}
        for idx, val in vec.items():
            a, jk = divmod(idx, n * n)
            for row, w in cols[jk]:
                out[a * n * n + row] = out.get(a * n * n + row, 0) + val * w
        return {k: v for k, v in out.items() if v}

    return all(
        apply12(apply23(apply12({basis: 1}))) == apply23(apply12(apply23({basis: 1})))
        for basis in range(n ** 3)
    )


# -- the operator layer ----------------------------------------------------------------


def oracle_x(ctx, name, v, h):
    """sum_{k=1}^{v} (1/k!) (B^k)_v h^(k) on each y-slice, B the cached series `name`."""
    N = ctx.order
    if v == 0:
        return h
    if isinstance(h, Series2):
        return Series2.from_y_slices([oracle_x(ctx, name, v, h.slice_y(w)) for w in range(N)], N)
    acc = Series1.zero(N)
    deriv = h
    for k in range(1, v + 1):
        deriv = deriv.derivative()
        acc = acc + (ctx.power_slice(name, k, v) * deriv).scale(Fraction(1, factorial(k)))
    return acc


def oracle_y(ctx, name, u, H):
    """sum_{i=1}^{u} (1/i!) (B^i)_u(y) d^i/dy^i H."""
    if u == 0:
        return H
    acc = Series2.zero(ctx.order)
    deriv = H
    for i in range(1, u + 1):
        deriv = deriv.partial_y()
        acc = acc + deriv.mul_y_series(ctx.power_slice(name, i, u)).scale(Fraction(1, factorial(i)))
    return acc


def oracle_global(ctx, name, k, H):
    """sum_{a+b=k} of the x-operator of degree a after the y-operator of degree b."""
    acc = Series2.zero(ctx.order)
    for b in range(k + 1):
        acc = acc + oracle_x(ctx, name, k - b, oracle_y(ctx, name, b, H))
    return acc


def braid_sum(t, i, j, k):
    """R(i, j, k) = sum_{a+b=j} sum_{h,l} t[i][a][h] t[k][b][l] t[h][l][1], summed
    point by point over h <= i and l <= k (t[i][a][h] = 0 for h > i on every
    tensor built here)."""
    acc = Fraction(0)
    for a in range(j + 1):
        b = j - a
        for h in range(i + 1):
            c1 = t.entry(i, a, h)
            if not c1:
                continue
            for l in range(k + 1):
                c2 = t.entry(k, b, l)
                if c2:
                    c3 = t.entry(h, l, 1)
                    if c3:
                        acc += c1 * c2 * c3
    return acc


def x_commutation_by_series(ctx, x1):
    """partial_x_commutation on normalised series."""
    N = ctx.order
    px = [[ctx.partial_x(v, h) for v in range(N)] for h in x1]
    for u in range(1, N):
        for v in range(u + 1, N):
            for ph in px:
                if ctx.partial_x(u, ph[v]) != ctx.partial_x(v, ph[u]):
                    return _check("partial_x_commutation", [(u, v)])
    return _check("partial_x_commutation", [])


def xy_commutation_by_series(ctx):
    """xy_commutation on normalised series, on G."""
    N, G = ctx.order, ctx.table
    pairs = [(v, u) for v in range(1, min(N, 5)) for u in range(1, min(N, 5))] + [(N - 1, N - 1)]
    return _check("xy_commutation", [
        (v, u) for v, u in pairs
        if ctx.partial_x(v, ctx.partial_y(u, G)) != ctx.partial_y(u, ctx.partial_x(v, G))])


def tilde_x_pass_by_series(ctx, x1):
    """tilde_x_recursion and partial_x_from_tilde on normalised series: each
    side of v tilde_x^v = tilde_x^1 tilde_x^{v-1} - (v-1) tilde_x^{v-1} and
    of partial_x^v = sum_u (fbar^u)_v tilde_x^u made as a series, on the
    suite's one-variable inputs x1; and the global checks that the suite
    decides from each, at its least failing degree."""
    N = ctx.order
    fbar = [[ctx.fbar_power(u).coeffs[v] for u in range(N)] for v in range(N)]
    tx = [[h] + [ctx.tilde_partial_x(v, h) for v in range(1, N)] for h in x1]
    recursion = [v for th in tx for v in range(2, N) if th[v].scale(v) != Series1._combination(
        [(1, ctx.tilde_partial_x(1, th[v - 1])), (1 - v, th[v - 1])], N)]
    from_tilde = [v for v in range(1, N) for h, th in zip(x1, tx)
                  if Series1._combination(zip(fbar[v][1:], th[1:]), N) != ctx.partial_x(v, h)]
    return [_check("tilde_x_recursion", recursion),
            _check("tilde_global_recursion", sorted(recursion)),
            _check("tilde_global_binomial", sorted(recursion)),
            _check("partial_x_from_tilde", from_tilde),
            _check("partial_global_from_tilde", sorted(from_tilde))]


def global_checks_on_basis(ctx):
    """xy_commutation, tilde_global_recursion, tilde_global_binomial and
    partial_global_from_tilde made on every monomial x^c y^d, c, d < N, at
    every degree (pair), each reporting its least failing degree: x- and
    y-operators commuted; v tilde^v = tilde^1 tilde^{v-1} - (v-1) tilde^{v-1}
    with tilde^1 applied afresh; the binomial walk w_v = tilde^1 w_{v-1} -
    (v-1) w_{v-1} from w_0 = H against v! tilde^v; and partial^v =
    sum_u (fbar^u)_v tilde^u, on the tables `global_table` makes."""
    N = ctx.order
    fbar = [[ctx.fbar_power(u).coeffs[v] for u in range(N)] for v in range(N)]
    pairs = [(v, u) for v in range(1, N) for u in range(1, N)]
    commutation, recursion, binomial, from_tilde = set(), set(), set(), set()
    for c in range(N):
        for d in range(N):
            H = Series2.monomial(c, d, N)
            dx = [ctx.partial_x(v, H) for v in range(N)]
            dy = [ctx.partial_y(u, H) for u in range(N)]
            commutation.update((v, u) for v, u in pairs
                               if ctx.partial_x(v, dy[u]) != ctx.partial_y(u, dx[v]))
            tilde = ctx.global_table("p_series", H, N)
            partial = ctx.global_table("table_reduced", H, N)
            w = H
            for v in range(1, N):
                step = Series2._combination(
                    [(1, ctx.tilde_partial_global(1, tilde[v - 1])), (1 - v, tilde[v - 1])], N)
                if tilde[v].scale(v) != step:
                    recursion.add(v)
                w = Series2._combination([(1, ctx.tilde_partial_global(1, w)), (1 - v, w)], N)
                if tilde[v] != w.scale(Fraction(1, factorial(v))):
                    binomial.add(v)
                if Series2._combination(zip(fbar[v][1:], tilde[1:]), N) != partial[v]:
                    from_tilde.add(v)
    return [_check("xy_commutation", sorted(commutation)),
            _check("tilde_global_recursion", sorted(recursion)),
            _check("tilde_global_binomial", sorted(binomial)),
            _check("partial_global_from_tilde", sorted(from_tilde))]


def braid_match_by_fractions(ctx, sums, den):
    """braid_sum_match on the `Fraction` view of each partial^j G, against
    the braid sums R(i, j, k) = sums[i][j * N + k] / den."""
    N = ctx.order
    d_table = ctx.global_table("table_reduced", ctx.table, N)
    return _check("braid_sum_match", [
        (i, j, k) for j in range(N) for i in range(1, N) for k in range(1, N)
        if d_table[j].coeffs[i][k] != Fraction(sums[i][j * N + k], den)])

