"""Braid-equation verification and the associated solution map on C (x) C.

For a pair of comultiplicative tensors (p, d) three coefficient families
(evaluated for all i, j, k and output index m) express the compatibility
conditions of the structure; for comultiplicative pairs the m = 1 instances
already imply all m: in K[x, y, z]/<x^n, y^n, z^n>, slice m of a side for
the triple (A, B, C) is the m-th power of slice 1, H = G_C(G_A(x, z), G_B(y, z)),
and the right-hand side's (i, k, j) reading is the ring automorphism y <-> z
(the lemma in `check_braid_full`).  So `check_braid_full` decides a passing
structure from its m = 1 slice, kept on the structure for
`check_braid_reduced`, and scans every m only when a family fails there.
Each side of a family is a sum over a triple of p and
d, made on integers as two contractions (first over h, then over a + b = j
and l); a triple that several sides share, as all six do when p = d, is made
once, and a failing scan stops once its report can no longer change
(`_braid_scan`).  The second contraction runs on the gathered-dot kernel
`series._gathered_dot`: a slot of the first contraction's output with few
nonzeros adds its multiples of B's nonzero entries (the row form), and a
nearly full one takes each entry as one dot product gathered over B's
nonzeros (the column form).  A family is decided on a slice by one
comparison of its two sides over one denominator.

A structure passing the checks and with invertible side maps yields a linear
endomorphism s of C (x) C that satisfies the braid identity

    s12 . s23 . s12 = s23 . s12 . s23

on C (x) C (x) C, is a coalgebra endomorphism, is bijective, and is an
involution exactly when p = d.

C (x) C is dual to A = K[u, v]/<u^n, v^n>, and a map s on C (x) C is read as
its rows in A: row (k, l) is the series whose u^i v^j coefficient is
s[(k, l), (i, j)] (`LinearMap2.from_rows`, `LinearMap2.rows`).  The side maps
and the solution map are built row by row with the product in A: row (k, b)
of `gp_map(t)` is v^b times level k of t, and row (k, l) of the solution map
is L_k E_l (see `build_solution`), the L_k made by the gathered-dot kernel on
d.  The braid and involution checks of s pull monomials of the dual of
C (x) C (x) C back through its sparse rows into a dense integer accumulator
(`_transpose_kernel`).  A pull step keeps one variable, and on a map whose
weights are not too wide it packs the terms that read one row of s along
that variable into one integer, in signed fields wide enough that none
overflows, so each weight of the row costs one multiply-add for all of them
(`_packed_pull`).  When s is a coalgebra endomorphism the checks pull only
the generators, and bijectivity is a 2 x 2 test on the linear part of the
generator rows (`is_bijective`); any other map is pulled on every monomial
and decided by `LinearMap2.determinant`.

A map is stored as integer rows over one denominator, the one stored form of
`qcycle.series` (`_Stored`), and the exact kernels read those integers: a
`Fraction` is made only for the `matrix` view or a result.  `build_solution`
and `gp_map` store their integer rows as made, `superscript_map` is a
fraction-free recurrence on integer blocks N_j (see its docstring), and
the power-chain kernel `_chain_break` that `tensor.is_coalgebra_morphism`
also uses decides whether s is a coalgebra endomorphism: `build_solution` runs
it on the factors L_k and E_l and stores the verdict on the map, and
`is_coalgebra_endomorphism` runs it on the rows of a map without one.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, partial
from itertools import chain, compress, islice, product
from math import gcd, isqrt, lcm, prod
from operator import itemgetter
from typing import Optional

from .errors import NotComultiplicative, SingularGd, SingularGp
from .series import (ONE, Series2, ZERO, _add_matmul, _chain_break, _gathered_dot, _mul_ints,
                     _Stored, as_fraction, integer_grid)
from .tensor import (
    CheckResult,
    CoeffTensor,
    QCycleStructure,
    SuiteReport,
    _Record,
    _check,
    is_coalgebra_morphism,
)

MAX_VIOLATIONS = 20


class LinearMap2(_Stored):
    """Exact n^2 x n^2 matrix acting on C (x) C in the basis {x_i (x) x_j}.

    Basis pairs are flattened as (i, j) -> i * n + j; matrix[row][col] is the
    coefficient of the row basis vector in the image of the column one.  The
    matrix is stored as integer rows over one denominator (`series._Stored`),
    and `matrix` is its `Fraction` view.  `from_rows`, `rows` and `_grids`
    read the map as its rows in A; they and the kernels on the stored rows
    (`gp_map`, `_solution_map`, `_transpose_kernel`, `is_bijective`,
    `is_coalgebra_endomorphism`) turn a row index k * n + l into (k, l) or
    back.  The slot `_endo` keeps the verdict of `is_coalgebra_endomorphism`
    once it is known, and `_sparse` the sparse rows and growth of
    `_transpose_kernel` once they are made (`_sparse_rows`); like the view,
    neither is part of equality or hash.
    """

    __slots__ = ("_endo", "_sparse")

    def __init__(self, n: int, matrix):
        dim = n * n
        rows = tuple(tuple(as_fraction(v) for v in row) for row in matrix)
        if n < 2 or len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError("matrix must be n^2 x n^2 with n >= 2")
        self._store(rows)

    matrix = property(_Stored._fractions, doc="The matrix entries as `Fraction`s.")

    @property
    def n(self) -> int:
        return isqrt(len(self._nums))

    @classmethod
    def from_rows(cls, n: int, rows) -> "LinearMap2":
        """The map whose row (k, l) is the series rows[k][l] in A (see `rows`)."""
        den = lcm(*(row._den for rows_k in rows for row in rows_k))
        return cls._from_rows([[x * (den // row._den) for line in row._nums for x in line]
                               for rows_k in rows for row in rows_k], den)

    def rows(self) -> list[list[Series2]]:
        """Row (k, l) as the series sum_{i,j} s[(k, l), (i, j)] u^i v^j in
        A = K[u, v]/<u^n, v^n>, the dual of C (x) C: the image of u^k v^l
        under the transpose of s."""
        return [[Series2._from_rows(grid, self._den) for grid in grids]
                for grids in self._grids()]

    def _grids(self) -> list[list[list[tuple]]]:
        """Row (k, l) as the n x n integer grid over the stored denominator."""
        n, M = self.n, self._nums
        return [[[M[k * n + l][i * n:(i + 1) * n] for i in range(n)] for l in range(n)]
                for k in range(n)]

    @classmethod
    def identity(cls, n: int) -> "LinearMap2":
        return cls.from_rows(n, [[Series2.monomial(k, l, n) for l in range(n)] for k in range(n)])

    @classmethod
    def flip(cls, n: int) -> "LinearMap2":
        return cls.from_rows(n, [[Series2.monomial(l, k, n) for l in range(n)] for k in range(n)])

    def compose(self, other: "LinearMap2") -> "LinearMap2":
        """self after other (matrix product self * other), by `_add_matmul`."""
        return LinearMap2._from_rows(_add_matmul(self._nums, other._nums), self._den * other._den)

    def is_identity(self) -> bool:
        return self == LinearMap2.identity(self.n)

    def inverse(self) -> Optional["LinearMap2"]:
        """Exact inverse (`_invert`), or None when singular."""
        inv = _invert(self.matrix)
        return None if inv is None else LinearMap2(self.n, inv)

    def determinant(self) -> Fraction:
        """Exact determinant: the forward elimination alone (`_eliminate`)."""
        return _eliminate(self.matrix, None)[0]


class BraidReport(_Record):
    family1_ok: bool
    family2_ok: bool
    family3_ok: bool
    # entries (family, i, j, k, m, lhs, rhs), capped at MAX_VIOLATIONS
    violations: tuple = ()

    @property
    def ok(self) -> bool:
        return self.family1_ok and self.family2_ok and self.family3_ok

    def __bool__(self) -> bool:
        return self.ok


def _require_morphisms(s: QCycleStructure) -> None:
    for name, t in (("p", s.p), ("d", s.d)):
        rep = is_coalgebra_morphism(t)
        if not rep:
            raise NotComultiplicative(f"{name} is not a coalgebra morphism: {rep.violation}")


# The three families by their (LHS, RHS) tensor triples (A, B, C).
_FAMILIES = (("pdp", "ppp"), ("ppd", "ddp"), ("dpd", "ddd"))


def _braid_scan(s: QCycleStructure, ms: range) -> BraidReport:
    """Evaluate the three families for every (i, j, k) and every m in ms.

    A side of a family, for the tensor triple (A, B, C), is

        S[i][j][k][m] = sum_{a+b=j} sum_{h,l} A[i][a][h] B[k][b][l] C[h][l][m],

    and the family holds when its LHS S[i][j][k][m] equals its RHS
    S'[i][k][j][m].  A side is made as two integer contractions over the
    tensors scaled to integers (`CoeffTensor.scaled_integers`):

        T[i][a][l][m] = sum_h A[i][a][h] C[h][l][m],
        S[i][j][k][m] = sum_{a+b=j} sum_l T[i][a][l][m] B[k][b][l],

    about n^5 + n^6/2 multiply-adds for all m, against n^7/2 for the sum taken
    whole at each point.  The first skips zero entries of A (`_add_matmul`);
    the second (`_second_contraction`) takes each slot m of T in the row or
    the column form of `series._gathered_dot`, as its multiply-add counts
    decide: rows on a nearly empty slot (nonroot pairs, v0 = n - 1), columns
    on a nearly full one (v0 = 1).  Each distinct triple is computed once per scan, one i at a
    time (both sides of a family have the same i).  When d = p all six sides
    are the one triple (p, p, p), so the three families make the same
    comparison: it is made once, as family 1, and its flag and violations
    are copied to families 2 and 3.
    A side is an integer over the product of its three denominators.  On
    slice i a family brings both sides to the lcm of theirs (`_scaled`) and
    transposes the right-hand side in j and k: it holds exactly when the two
    lists of slot lists are equal, and that comparison alone sets its flag.
    A failing slice's violations are read off the same lists in j, k, m
    order while they can still reach the joined report: up to MAX_VIOLATIONS
    less what this family and the families before it hold.  Violations are
    listed family by family, then in i, j, k, m order.

    The scan stops after slice i once every flag is False and family 1 lists
    MAX_VIOLATIONS violations: later slices can then change neither the flags
    nor the report's list, which is family 1's first MAX_VIOLATIONS.
    """
    n, count = s.n, len(ms)
    same = s.d == s.p
    tensors = {"p": s.p} if same else {"p": s.p, "d": s.d}
    ints, dens, c_rows, contracts = {}, {}, {}, {}
    for name, t in tensors.items():
        ints[name], dens[name], c_rows[name], contracts[name] = _braid_operands(t, ms)
    families = (("ppp", "ppp"),) if same else _FAMILIES
    flags = [True] * len(families)
    violations: list[list] = [[] for _ in families]
    for i in range(n):
        firsts, sides = {}, {}
        for a_name, b_name, c_name in {side for family in families for side in family}:
            if a_name + c_name not in firsts:
                firsts[a_name + c_name] = _add_matmul(ints[a_name][i], c_rows[c_name])
            sides[a_name + b_name + c_name] = _second_contraction(
                firsts[a_name + c_name], contracts[b_name], n, count)
        for index, (lhs_side, rhs_side) in enumerate(families):
            den_l, den_r = (prod(dens[name] for name in side) for side in (lhs_side, rhs_side))
            den = lcm(den_l, den_r)
            lhs = _scaled(sides[lhs_side], den // den_l)
            rhs = _scaled([[x for k in range(n) for x in slot[k::n]] for slot in sides[rhs_side]],
                          den // den_r)
            if lhs == rhs:
                continue
            flags[index] = False
            space = MAX_VIOLATIONS - sum(map(len, violations[:index + 1]))
            violations[index] += islice(
                ((index + 1, i, *divmod(jk, n), ms[slot],
                  Fraction(lhs[slot][jk], den), Fraction(rhs[slot][jk], den))
                 for jk, slot in product(range(n * n), range(count))
                 if lhs[slot][jk] != rhs[slot][jk]), max(space, 0))
        if not any(flags) and len(violations[0]) == MAX_VIOLATIONS:
            break
    if same:
        flags *= 3
        violations = [[(index,) + v[1:] for v in violations[0]] for index in (1, 2, 3)]
    joined = tuple(v for found in violations for v in found)[:MAX_VIOLATIONS]
    return BraidReport(flags[0], flags[1], flags[2], joined)


def _scaled(slots: list, cofactor: int) -> list:
    """The slot lists times cofactor: the lists themselves when it is 1."""
    return slots if cofactor == 1 else [[x * cofactor for x in slot] for slot in slots]


def _braid_operands(t: CoeffTensor, ms: range) -> tuple:
    """The layout both contractions of a braid side read, for t as A, B or C:
    (ints, den, c_rows, contract), with ints / den the tensor t, c_rows[h] the
    flattened C[h] over (m in ms, l), slot-major, and contract the
    `_gathered_dot` kernel on the operand B, built from B's nonzero entries
    (its gather table waits for the first slot that takes the column form)
    and kept on t, so the scans of one tensor share it.  The first
    contraction T[a][slot * n + l] is the matrix product A[i] . c_rows
    (`_add_matmul`), the second `_second_contraction`."""
    ints, den = t.scaled_integers()
    c_rows = [[col[m] for m in ms for col in row] for row in ints]
    contract = getattr(t, "_contract", None)
    if contract is None:
        contract = _gathered_dot(ints, t.n)
        object.__setattr__(t, "_contract", contract)
    return ints, den, c_rows, contract


def _second_contraction(first, contract, n: int, count: int) -> list[list[int]]:
    """S[slot][j * n + k] = sum_{a+b=j} sum_l T[a][slot][l] B[k][b][l], one
    call of the `_gathered_dot` kernel on B per slot, on T[.][slot][.]
    flattened to [a * n + l]: the row form on a slot with few nonzeros, the
    column form on a nearly full one."""
    flat = [*chain.from_iterable(first)]
    return [contract(get(flat)) for get in _slot_getters(n, count)]


@lru_cache(maxsize=64)
def _slot_getters(n: int, count: int) -> list:
    """One `itemgetter` per slot, reading T[.][slot][.] as [a * n + l] off the
    rows of T joined, where T[a][slot][l] sits at (a * count + slot) * n + l."""
    return [itemgetter(*[(a * count + slot) * n + l for a in range(n) for l in range(n)])
            for slot in range(count)]


def check_braid_reduced(s: QCycleStructure) -> BraidReport:
    """The m = 1 instances of the three families, for all i, j, k."""
    _require_morphisms(s)
    return _slice_one(s)


def _slice_one(s: QCycleStructure) -> BraidReport:
    """The report of the m = 1 scan, made once per structure and kept on it
    (`QCycleStructure`), so `check_braid_full` and `check_braid_reduced`
    share one scan of the slice; both require the morphisms first."""
    report = getattr(s, "_reduced", None)
    if report is None:
        report = _braid_scan(s, range(1, 2))
        object.__setattr__(s, "_reduced", report)
    return report


def check_braid_full(s: QCycleStructure) -> BraidReport:
    """All output indices m < n, decided from the m = 1 slice when it holds.

    Lemma.  Let R = K[x, y, z]/<x^n, y^n, z^n>, and for a triple (A, B, C)
    of the coalgebra morphisms p, d set alpha = G_A(x, z) and
    beta = G_B(y, z) in R, with G_T the series of level 1 of T (see
    `qcycle.tensor`).  Level h of A is G_A^h, so alpha^h = sum A[i][a][h] x^i z^a,
    and likewise beta^l; and alpha^n = beta^n = 0, because the morphism check
    proves G^n = 0.  So u -> alpha, v -> beta is a ring map from
    K[u, v]/<u^n, v^n> to R, and with H = G_C(alpha, beta) it sends
    G_C^m = sum C[h][l][m] u^h v^l to H^m:

        S[i][j][k][m] = [x^i y^k z^j] H^m.

    The right-hand side is read at (i, k, j), which is the swap y <-> z, an
    automorphism tau of R.  A family holding at m = 1 is H_L = tau(H_R), so
    H_L^m = tau(H_R^m) for every m: it holds at every m.  Hence a passing
    m = 1 slice is the full report, (True, True, True, ()), and only a
    failing one runs the scan over every m, whose report lists the
    violations at all m.  The premise is needed: `_require_morphisms` runs
    first, since a tensor that is not a morphism can hold at m = 1 and fail
    at m = 2.
    """
    _require_morphisms(s)
    reduced = _slice_one(s)
    return reduced if reduced else _braid_scan(s, range(s.n))


def gp_map(t: CoeffTensor) -> LinearMap2:
    """x_i (x) x_j -> sum_{a+b=j} t(x_i (x) x_a) (x) x_b.

    Row (k, b) is v^b times level k of t, the series sum t[i][a][k] u^i v^a.
    Block-triangular in the second index, with the n x n step block
    t[.][0][.] on the diagonal: invertible exactly when that block is.
    """
    n = t.n
    ints, den = t.scaled_integers()
    return LinearMap2._from_rows(
        [[x for row in ints for x in [0] * b + [col[k] for col in row[:n - b]]]
         for k in range(n) for b in range(n)], den)


# G_d sends x_i (x) x_j to sum_{a+b=j} t(x_i (x) x_b) (x) x_a.  C is
# cocommutative (x_j splits as sum_{a+b=j} x_a (x) x_b, symmetric in a and b),
# so renaming a <-> b turns that sum into G_p's: the two side maps coincide.
gd_map = gp_map


def superscript_map(p: CoeffTensor) -> list[list[list[Fraction]]]:
    """The coefficients E[i][j][k] of the map a (x) b -> a^b.

    E is the (k, 0)-block of the inverse of `gp_map`, found without forming
    that n^2 x n^2 inverse: it solves the defining identity

        sum_{j1+j2=j} sum_h p[i][j1][h] E[h][j2][k] = delta_{j0} delta_{ik}

    step by step in j, each step one solve with the n x n step block
    p[.][0][.].  Raises SingularGp when the side map is not invertible, which
    is exactly when the step block is singular.

    The steps are fraction-free.  With the step-block inverse scaled to S / D
    and p to Q / P (S and Q integer grids, Q_j1[i][h] = Q[i][j1][h]), the
    n x n block E_j = E[.][j][.] is N_j / (D^(j+1) P^j) for the integer grids

        N_0 = S,
        N_j = -S . sum_{j1=1..j} (D P)^(j1-1) Q_j1 . N_(j-j1),

    and each entry becomes a `Fraction` once, at the end.
    """
    blocks, dens = _superscript_blocks(p)
    return [
        [[Fraction(v, dens[j]) if v else ZERO for v in blocks[j][i]] for j in range(p.n)]
        for i in range(p.n)
    ]


def _step_block(t: CoeffTensor) -> list[list[Fraction]]:
    """The n x n step block t[.][0][.] as `Fraction`s, read off the stored
    integers (n^2 values, not the n^3 view)."""
    ints, den = t.scaled_integers()
    return [[Fraction(x, den) for x in row[0]] for row in ints]


def _superscript_blocks(p: CoeffTensor) -> tuple[list, list[int]]:
    """(blocks, dens): the integer blocks N_j of `superscript_map` and their
    denominators D^(j+1) P^j, so that E[i][j][k] = blocks[j][i][k] / dens[j]."""
    n = p.n
    step_inv = _invert(_step_block(p))
    if step_inv is None:
        raise SingularGp("left side map is not invertible")
    S, D = integer_grid(step_inv)
    q, P = p.scaled_integers()
    minus_s = [[-v for v in row] for row in S]
    weighted = [None]   # weighted[j1] = (D P)^(j1 - 1) Q_j1
    for j1 in range(1, n):
        w = (D * P) ** (j1 - 1)
        weighted.append([[w * x for x in row[j1]] for row in q])
    blocks = [S]
    for j in range(1, n):
        acc = None
        for j1 in range(1, j + 1):
            acc = _add_matmul(weighted[j1], blocks[j - j1], acc)
        blocks.append(_add_matmul(minus_s, acc))
    return blocks, [D ** (j + 1) * P ** j for j in range(n)]


def _eliminate(m, rhs) -> tuple[Fraction, list]:
    """(det, rows) of the square `Fraction` matrix m: its determinant and its
    rows after the forward pass (upper triangular), each with its row of rhs
    appended and carried along (rhs None: none); det 0 ends the pass early."""
    dim = len(m)
    a = [list(row) for row in m] if rhs is None else [list(row) + list(r) for row, r in zip(m, rhs)]
    det = ONE
    for col in range(dim):
        pivot = next((r for r in range(col, dim) if a[r][col]), None)
        if pivot is None:
            return ZERO, a
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        head = a[col]
        det *= head[col]
        for r in range(col + 1, dim):
            if a[r][col]:
                factor = a[r][col] / head[col]
                a[r][col:] = [v - factor * w for v, w in zip(a[r][col:], head[col:])]
    return det, a


def _invert(m) -> Optional[list[list[Fraction]]]:
    """Exact inverse of a square `Fraction` matrix, or None when singular:
    `_eliminate` on the identity, then back substitution (zeros skipped)."""
    dim = len(m)
    det, rows = _eliminate(m, [[ONE if r == c else ZERO for c in range(dim)] for r in range(dim)])
    if not det:
        return None
    inv = [None] * dim
    for r in reversed(range(dim)):
        row, acc = rows[r], rows[r][dim:]
        for c in range(r + 1, dim):
            if row[c]:
                acc = [v - row[c] * w for v, w in zip(acc, inv[c])]
        inv[r] = [v / row[r] for v in acc]
    return inv


def build_solution(s: QCycleStructure) -> LinearMap2:
    """The solution map s(a (x) b) = {a_(1)}b_(2) (x) a_(2)^{b_(1)}.

    Here a^b is the superscript map (`superscript_map`) and
    {a}b = b_(2) : a^{b_(1)} twists through d.  With E_l = sum E[i][j][l] u^i v^j
    and L_k = sum_m E_m D_mk(v), D_mk = sum_j d[j][m][k] v^j (the u^i v^j
    coefficient of L_k is that of x_k in {x_i}x_j), row (k, l) is L_k E_l.
    Requires both side maps to be invertible; each is decided on its n x n
    step block (see `gp_map`), so no n^2 x n^2 matrix is inverted: d's by its
    determinant, p's by the inverse the superscript map solves with.  Raises
    SingularGd, then SingularGp, then NotComultiplicative when p or d is not a
    coalgebra morphism (read from the report kept on each tensor).  E is
    read off the integer blocks of `superscript_map` (`_superscript_blocks`)
    without a `Fraction` per entry, d is scaled to integers, the L_k (by
    `series._gathered_dot` on d, a row of E per call) and the n^2 row
    products are made in `int`, and each nonzero entry of the map becomes a
    `Fraction` once.  Whether the map is a coalgebra endomorphism is decided
    here on the factors (`_factor_verdict`) and stored on it for
    `is_coalgebra_endomorphism`, unless L_0 or E_0 is not 1.
    """
    if not _eliminate(_step_block(s.d), None)[0]:
        raise SingularGd("right side map is not invertible")
    blocks, dens = _superscript_blocks(s.p)
    _require_morphisms(s)
    return _solution_map(blocks, dens, s.d)


def _solution_map(blocks: list, dens: list[int], tensor_d: CoeffTensor) -> LinearMap2:
    """The map with rows (k, l) = L_k E_l of `build_solution`, from the
    integer blocks of p's superscript map (`_superscript_blocks`) and d, for
    any pair; `build_solution` makes its checks first."""
    n = tensor_d.n
    # den_e is the lcm of the entries' denominators in lowest terms, and
    # E[l][i][j] = den_e * E[i][j][l], the grid of E_l
    den_e = lcm(*(dens[j] // gcd(v, dens[j])
                  for j, block in enumerate(blocks) for row in block for v in row))
    E = [[[blocks[j][i][l] * den_e // dens[j] for j in range(n)] for i in range(n)]
         for l in range(n)]
    d, den_d = tensor_d.scaled_integers()
    # the u^i v^j coefficient of L_k is sum_{j1+j2=j} sum_m E[i][j1][m] d[j2][m][k]:
    # entry j * n + k of `_gathered_dot` on the vec E[i][.][.], flattened to
    # [j1 * n + m], with the operand w[k][j2][m] = d[j2][m][k]
    contract = _gathered_dot(list(zip(*(zip(*grid) for grid in d))), n)
    sums = [contract([E[m][i][j] for j in range(n) for m in range(n)]) for i in range(n)]
    L = [[row[k::n] for row in sums] for k in range(n)]
    smap = LinearMap2._from_rows([[v for line in _mul_ints(L[k], E[l], n) for v in line]
                                  for k in range(n) for l in range(n)], den_e * den_e * den_d)
    object.__setattr__(smap, "_endo", _factor_verdict(L, E, den_e * den_d, den_e, n))
    return smap


def _factor_verdict(L, E, den_l: int, den_e: int, n: int) -> Optional[bool]:
    """Whether the map with rows (k, l) = L_k E_l is a coalgebra endomorphism,
    for the integer grids L_k over den_l and E_l over den_e; None when L_0 or
    E_0 is not 1, where the factors decide nothing.

    With L_0 = E_0 = 1, row (1, 0) is X = L_1 and row (0, 1) is Y = E_1, so
    the rows are X^k Y^l with X^n = Y^n = 0 (`is_coalgebra_endomorphism`)
    exactly when L_k = L_1^k and E_l = E_1^l for k, l < n and the n-th powers
    vanish: two power chains from the generator, each closed by a zero grid,
    2 (n - 1) products in A in place of the n^2 of the row walk.
    """
    zero = [[0] * n] * n
    chains = ((E, den_e), (L, den_l))
    if any(chain[0] != [[den] + [0] * (n - 1)] + zero[1:] for chain, den in chains):
        return None
    return all(_chain_break(chain[1:] + [zero], chain[1], den, n) is None for chain, den in chains)


def _sparse_rows(s: LinearMap2) -> tuple:
    """(rows, growth): rows[r] the nonzero (column, weight) pairs of row r of
    s, and growth the largest column sum of |weight|, which bounds how much
    one pull can widen a coefficient; a scan of all n^4 stored entries."""
    cols = range(len(s._nums))
    rows = tuple(tuple((c, row[c]) for c in compress(cols, row)) for row in s._nums)
    sums = [0] * len(cols)
    for row in rows:
        for c, w in row:
            sums[c] += abs(w)
    return rows, max(sums)


@lru_cache(maxsize=64)
def _pull_keys(n: int) -> tuple:
    """keys[first][c][e]: the term of a pulled image at column c = i * n + j
    of s and kept exponent e, (i, j, e) for s12^T (first) and (e, i, j) for
    s23^T."""
    pairs = [divmod(c, n) for c in range(n * n)]
    return ([tuple((e, i, j) for e in range(n)) for i, j in pairs],
            [tuple((i, j, e) for e in range(n)) for i, j in pairs])


# A map whose growth has at most this many bits is pulled in the packed form
# (`_packed_pull`), any other by terms (`_term_pull`).  On the braid and
# involution checks of standard cycles at n = 8, 12 and 16 with v0 = 1 and
# v0 = n / 2 and parameters of 1 to 6 digits (growth of 38 to 1,349 bits),
# this cut ran each map within 1.2 times the faster form below it and 1.46
# times above it; packed alone took up to 2.2 times the term form (sparse
# maps, wide weights), terms alone up to 2.3 times the packed form (dense
# maps, narrow weights).
PACKED_GROWTH_BITS = 160


def _transpose_kernel(s: LinearMap2, factors: int):
    """(pull, den, starts).  pull(f, first) applies den * s12^T (first) or
    den * s23^T to f = {(a, b, c): int} in K[y1, y2, y3]/<y_i^n>, for a common
    denominator den of s; s12^T sends y1^a y2^b y3^c to row (a, b) of s, read
    in (y1, y2), times y3^c.  Two words in s12^T and s23^T agree on the
    monomials in y1..y_factors iff they agree on starts: the generators when s
    is a coalgebra endomorphism (each word is then an algebra map), else all.

    A step keeps one variable, y3 for s12^T and y1 for s23^T, and reads the
    row of s that the other two name.  The sparse rows (`_sparse_rows`) are
    made once per map and kept on it.  A map whose growth has at most
    `PACKED_GROWTH_BITS` bits is pulled in the packed form (`_packed_pull`),
    one multiply-add per weight of each row read for all exponents of the
    kept variable; any other by terms (`_term_pull`), one multiply-add per
    weight of each term, where the packed form's padding of every field to
    the widest costs more than it saves.
    """
    sparse = getattr(s, "_sparse", None)
    if sparse is None:
        sparse = _sparse_rows(s)
        object.__setattr__(s, "_sparse", sparse)
    rows, growth = sparse
    bits = growth.bit_length()
    if bits <= PACKED_GROWTH_BITS:
        pull = partial(_packed_pull, s.n, rows, bits + 1)
    else:
        pull = partial(_term_pull, s.n, rows)
    generators = is_coalgebra_endomorphism(s)
    exps = product(*[range(s.n)] * factors + [range(1)] * (3 - factors))
    return pull, s._den, [m for m in exps if not generators or sum(m) == 1]


def _packed_pull(n: int, rows, bits: int, f: dict, first: bool) -> dict:
    """The pull of `_transpose_kernel` with the kept variable packed.

    The terms of f that read one row of s are packed along the kept exponent
    e into one integer, sum val * 2^(K e), in fields of K bits; each nonzero
    (column, weight) pair of the row adds weight times it to a dense list of
    n^2 integers, and each entry is split back into its n fields by centred
    remainders.  A field of the result is a sum val * weight over the rows
    read at one column: at most max |val| * growth < 2^(K - 1) in absolute
    value for K = bit_length(max |val|) + bits, bits = bit_length(growth) + 1,
    so the centred remainder mod 2^K is the field itself and no two fields
    overlap.
    """
    width = max(map(abs, f.values()), default=0).bit_length() + bits
    words: dict = {}
    for (a, b, c), val in f.items():
        row, kept = (a * n + b, c) if first else (b * n + c, a)
        words[row] = words.get(row, 0) + (val << width * kept)
    acc = [0] * (n * n)
    for row, word in words.items():
        for col, w in rows[row]:
            acc[col] += word * w
    mask, half = (1 << width) - 1, 1 << (width - 1)
    keys = _pull_keys(n)[first]
    out: dict = {}
    for col in compress(range(n * n), acc):
        word = acc[col]
        for key in keys[col]:
            field = word & mask
            word >>= width
            if field:
                if field >= half:        # a negative field borrowed from the next
                    field -= mask + 1
                    word += 1
                out[key] = field
            if not word:
                break
    return out


def _term_pull(n: int, rows, f: dict, first: bool) -> dict:
    """The pull of `_transpose_kernel` term by term: the terms of f are
    grouped by the kept exponent, and each group's image is summed in a dense
    list of n^2 integers, one multiply-add per (column, weight) pair of the
    row each term reads; only its nonzero entries become terms."""
    groups: dict = {}
    for (a, b, c), val in f.items():
        row, kept = (a * n + b, c) if first else (b * n + c, a)
        groups.setdefault(kept, []).append((rows[row], val))
    keys = _pull_keys(n)[first]
    out: dict = {}
    for kept, terms in groups.items():
        acc = [0] * (n * n)
        for row, val in terms:
            for col, w in row:
                acc[col] += val * w
        out.update((keys[col][kept], acc[col]) for col in compress(range(n * n), acc))
    return out


def check_braid_on_map(s: LinearMap2) -> bool:
    """Exact check of s12 s23 s12 = s23 s12 s23 on C (x) C (x) C, made on the
    transposes: pull back y1, y2, y3 if s is a coalgebra endomorphism, every
    monomial otherwise (`_transpose_kernel`).  No n^3 x n^3 matrix is formed."""
    pull, _den, starts = _transpose_kernel(s, 3)
    return all(
        pull(pull(pull({m: 1}, True), False), True) == pull(pull(pull({m: 1}, False), True), False)
        for m in starts
    )


def is_involution(s: LinearMap2) -> bool:
    """s . s = id, made as s^T s^T = id on u and v if s is a coalgebra
    endomorphism, on every u^a v^b otherwise (`_transpose_kernel`)."""
    pull, den, starts = _transpose_kernel(s, 2)
    return all(pull(pull({m: 1}, True), True) == {m: den * den} for m in starts)


def is_bijective(s: LinearMap2) -> bool:
    """Whether s is bijective: a 2 x 2 test on the generator rows if s is a
    coalgebra endomorphism, `determinant` otherwise.

    For an endomorphism the transpose phi of s is a unital algebra map of the
    local algebra A = K[u, v]/<u^n, v^n> with phi(u) = X = row (1, 0) and
    phi(v) = Y = row (0, 1), both in the maximal ideal m = <u, v> (they are
    nilpotent: X^n = Y^n = 0).  s is bijective iff phi is, and phi is iff its
    linear part J, the map of m/m^2 = K u + K v with u -> X_10 u + X_01 v and
    v -> Y_10 u + Y_01 v, is:

    * phi(m^k) lies in m^k, and the map phi induces on m^k/m^(k+1) sends the
      class of z_1 ... z_k (z_i in m) to that of J(z_1) ... J(z_k).  Such
      products span m^k/m^(k+1), so if J is onto, m^k = phi(m^k) + m^(k+1)
      for every k >= 1.  Since m^(2n-1) = 0, descending induction on k gives
      phi(m^k) = m^k; with phi(1) = 1, phi is onto, hence bijective.
    * If phi is bijective, phi(m) lies in m and has the dimension of m, so
      phi(m) = m, and J is onto m/m^2.

    So s is bijective iff X_10 Y_01 != X_01 Y_10, compared on the stored
    integers (both products carry den^2).
    """
    if not is_coalgebra_endomorphism(s):
        return s.determinant() != 0
    n, M = s.n, s._nums
    x, y = M[n], M[1]   # rows (1, 0) and (0, 1); u is column n, v column 1
    return x[n] * y[1] != x[1] * y[n]


def is_coalgebra_endomorphism(s: LinearMap2) -> bool:
    """Check that s is a coalgebra endomorphism of C (x) C.

    C (x) C is dual to A = K[u, v]/<u^n, v^n>, and row (k, l) of s, read as
    the series sum_{i,j} s[(k, l), (i, j)] u^i v^j, is the image of u^k v^l
    under the transpose of s.  So s is a coalgebra endomorphism iff that
    transpose is a unital algebra map: row (0, 0) is 1, row (k, l) is
    X^k Y^l for the generator rows X = row (1, 0) and Y = row (0, 1), and
    X^n = Y^n = 0.  The rows, stored as integers over one denominator, run
    through the power-chain kernel `_chain_break`: the rows (0, l) as the
    chain of Y, each column of rows (k, l) as a chain of X.

    The verdict is kept on s, so a map is walked at most once; a map made by
    `build_solution` with L_0 = E_0 = 1 carries the verdict of its factors
    (`_factor_verdict`) and is not walked.
    """
    verdict = getattr(s, "_endo", None)
    if verdict is None:
        n, den, rows = s.n, s._den, s._grids()
        zero = [[0] * n] * n
        verdict = (s._nums[0] == (den,) + (0,) * (n * n - 1)
                   and _chain_break(rows[0] + [zero], rows[0][1], den, n) is None
                   and _chain_break([r[0] for r in rows] + [zero], rows[1][0], den, n) is None
                   and all(_chain_break([r[l] for r in rows], rows[1][0], den, n) is None
                           for l in range(1, n)))
        object.__setattr__(s, "_endo", verdict)
    return verdict


def structure_sanity(s: QCycleStructure) -> SuiteReport:
    """Coefficient facts every verified structure must satisfy.

    * either p[1][0][1] = d[1][0][1] = 1 or p[1][1][1] = d[1][1][1] = 0;
    * p[1][1][1] = d[1][1][1];
    * sum_l p[j][0][l] p[i][l][i] = p[i][j][i], and the d-sibling.
    """
    p, d = s.p, s.d
    n = s.n
    checks = []

    first = p.entry(1, 0, 1) == 1 and d.entry(1, 0, 1) == 1
    second = not p.entry(1, 1, 1) and not d.entry(1, 1, 1)
    detail = "unit step" if first else ("null diagonal" if second else "neither case holds")
    checks.append(CheckResult("main_dichotomy", first or second, detail))

    checks.append(
        CheckResult("diagonal_entries_agree", p.entry(1, 1, 1) == d.entry(1, 1, 1))
    )

    for name, t in (("p", p), ("d", d)):
        fails = []
        for i in range(n):
            for j in range(n):
                acc = ZERO
                for l in range(j + 1):
                    c = t.entry(j, 0, l)
                    if c:
                        acc += c * t.entry(i, l, i)
                if acc != t.entry(i, j, i):
                    fails.append((i, j))
        checks.append(_check(f"column_zero_expansion_{name}", fails))

    return SuiteReport(tuple(checks))
