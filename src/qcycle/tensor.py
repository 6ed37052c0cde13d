"""Structure-constant tensors of linear maps C (x) C -> C.

C is the dual of the truncated polynomial algebra K[y]/<y^n> with basis
x_0..x_{n-1}, comultiplication D(x_i) = sum_{j+k=i} x_j (x) x_k and counit
e(x_i) = delta_{i0}.  A map m(x_i (x) x_j) = sum_k t[i][j][k] x_k is stored as
the n*n*n grid t; entries with any index outside [0, n) are 0 by convention.

C (x) C is dual to A = K[u, v]/<u^n, v^n>, with x_i (x) x_j dual to u^i v^j.
So t is a coalgebra morphism iff its transpose K[y]/<y^n> -> A is a unital
algebra map, which is fixed by the image of y: the series

    G = sum_{i,j} t[i][j][1] u^i v^j.

Level k of t (the grid t[.][.][k], read as a series in A) must be G^k, and
G^n must vanish.  `extend_from_level1` builds the powers; `is_coalgebra_morphism`
checks them, and the check G^n = 0 is what makes the result a morphism.
A tensor is stored as integers over one denominator den, in the one stored
form of `qcycle.series` (`_Stored`), and both functions work on it: the
powers are made by the integer product in A, and the check runs the
power-chain kernel `_chain_break`, comparing den * L_k with the integer
product L_(k-1) G, so no `Fraction` is made unless a violation is reported.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, isqrt, lcm
from typing import Optional, Sequence

from .errors import BadLinearTerm, NotComultiplicative, ParseError, ZeroLambda
from .series import (ONE, ZERO, Series1, Series2, _by_degree, _chain_break, _Stored,
                     as_fraction, json_array, parse_rational)

Grid = Sequence[Sequence[Fraction]]

# A payload string "a" or "a/b" in plain decimal digits, read without a Fraction.
_INTEGER_RATIO = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


class CoeffTensor(_Stored):
    """Immutable n*n*n grid of exact rationals; entry(i, j, k) is 0 off-grid.

    Stored as `_nums[i][j][k]` over `_den` (see `series._Stored`); `entries`
    is the `Fraction` view.  The slot `_morph` keeps the report of
    `is_coalgebra_morphism` once it is known, and `_contract` the braid
    scans' second-contraction kernel on the tensor
    (`solution._braid_operands`); like the view, neither is part of equality
    or hash."""

    __slots__ = ("_morph", "_contract")

    def __init__(self, entries):
        data = tuple(tuple(tuple(as_fraction(v) for v in col) for col in row) for row in entries)
        _require_cube(data)
        self._store(tuple(col for row in data for col in row))

    entries = property(_Stored._fractions, doc="The entries as `Fraction`s.")

    @property
    def n(self) -> int:
        return len(self._nums)

    def _rows(self) -> tuple:
        return tuple(col for row in self._nums for col in row)

    @staticmethod
    def _shaped(rows: tuple) -> tuple:
        n = isqrt(len(rows))
        return tuple(rows[i * n:(i + 1) * n] for i in range(n))

    def entry(self, i: int, j: int, k: int) -> Fraction:
        n = self.n
        if 0 <= i < n and 0 <= j < n and 0 <= k < n:
            return self.entries[i][j][k]
        return ZERO

    def __repr__(self):
        return f"CoeffTensor(n={self.n})"

    def level(self, k: int) -> list[list[Fraction]]:
        """The n*n grid of entries with output index k."""
        if k < 0:
            raise IndexError(f"level {k} of a tensor with n = {self.n}")
        return [[self.entries[i][j][k] for j in range(self.n)] for i in range(self.n)]

    def with_entry(self, i: int, j: int, k: int, value) -> "CoeffTensor":
        if min(i, j, k) < 0:
            raise IndexError(f"entry ({i}, {j}, {k}) of a tensor with n = {self.n}")
        grid = [[list(col) for col in row] for row in self.entries]
        grid[i][j][k] = as_fraction(value)
        return CoeffTensor(grid)

    def scaled_integers(self) -> tuple[tuple[tuple[tuple[int, ...], ...], ...], int]:
        """The stored pair (den * entries as ints, den), den the least common
        denominator; nested tuples, so the shared value is immutable."""
        return self._nums, self._den

    # -- serialization -----------------------------------------------------

    def to_payload(self) -> list:
        return [[[str(v) for v in col] for col in row] for row in self.entries]

    @classmethod
    def from_payload(cls, payload) -> "CoeffTensor":
        """The tensor of a JSON payload, an n*n*n array of rationals, each an
        "a/b" string (or an integer); stored over the lcm of the denominators."""
        return cls._from_cube(_payload_cube(payload))

    @classmethod
    def _from_cube(cls, cube: list) -> "CoeffTensor":
        """The tensor of the cells of a payload that `_payload_cube` passed."""
        pairs = [[[_payload_ratio(v) for v in col] for col in row] for row in cube]
        den = lcm(*(q for row in pairs for col in row for _, q in col))
        return cls._from_rows([[x * (den // q) for x, q in col] for row in pairs for col in row],
                              den)


def _require_cube(data) -> None:
    n = len(data)
    if n < 2 or any(len(r) != n for r in data) or any(len(c) != n for r in data for c in r):
        raise ValueError("entries must form an n*n*n grid with n >= 2")


def _payload_cube(payload) -> list:
    """A tensor payload's arrays, checked to form an n*n*n grid before any
    cell is read: a misshapen payload costs no rational parse."""
    cube = [[json_array(col) for col in json_array(row)] for row in json_array(payload)]
    try:
        _require_cube(cube)
    except ValueError as exc:
        raise ParseError(f"malformed tensor payload: {exc}") from exc
    return cube


def _payload_ratio(value) -> tuple[int, int]:
    """A payload value as (numerator, denominator > 0), not necessarily in
    lowest terms.  A string of plain digits "a" or "a/b" with b != 0 is read
    with `int`; every other value goes through `parse_rational`, which
    decides what is accepted and words every error."""
    if isinstance(value, str) and _INTEGER_RATIO.fullmatch(value):
        num, _, den = value.partition("/")
        try:
            den = int(den) if den else 1
            if den:
                return int(num), den
        except ValueError:   # more digits than `int` reads from a string
            pass
    value = parse_rational(value)
    return value.numerator, value.denominator


def counit_action(n: int) -> CoeffTensor:
    """The tensor of x_i . x_j = e(x_j) x_i, i.e. t[i][j][k] = [i==k][j==0]:
    the extension of G = u."""
    return extend_from_level1([[ONE if (i, j) == (1, 0) else ZERO for j in range(n)]
                               for i in range(n)])


@dataclass(frozen=True)
class QCycleStructure:
    """A pair (p, d) of coefficient tensors with the same n."""

    p: CoeffTensor
    d: CoeffTensor

    def __post_init__(self):
        if self.p.n != self.d.n:
            raise ValueError("p and d must have the same dimension")

    @property
    def n(self) -> int:
        return self.p.n

    @classmethod
    def involutive(cls, p: CoeffTensor) -> "QCycleStructure":
        return cls(p, p)

    def is_involutive(self) -> bool:
        return self.p == self.d

    def to_payload(self) -> dict:
        payload = {"schema": 1, "n": self.n, "p": self.p.to_payload()}
        if self.d != self.p:
            payload["d"] = self.d.to_payload()
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "QCycleStructure":
        schema = payload.get("schema") if isinstance(payload, dict) else None
        if type(schema) is not int or schema != 1:
            raise ParseError(f"unsupported structure schema {schema!r} (expected 1)")
        n = payload.get("n")
        if type(n) is not int:
            raise ParseError(f"structure n must be a JSON integer, got {n!r}")
        if "p" not in payload:
            raise ParseError("malformed structure payload: 'p'")
        tensors = []
        for key in ("p", "d") if "d" in payload else ("p",):
            cube = _payload_cube(payload[key])
            if len(cube) != n:   # checked before any cell is read
                raise ParseError("tensor dimension does not match declared n")
            tensors.append(CoeffTensor._from_cube(cube))
        return cls(tensors[0], tensors[-1])


@dataclass(frozen=True)
class MorphismReport:
    """Outcome of the coalgebra-morphism check; carries the first violation."""

    ok: bool
    # (i, j, l, h, lhs, rhs): the u^i v^j coefficient of level l + h is lhs,
    # that of level l times level h is rhs.  The counit check reports level 0
    # as (i, j, 0, 0, ...); the power check reports level k as (i, j, 1, k-1,
    # ...), and l + h = n marks a nonzero G^n.
    violation: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.ok


def is_coalgebra_morphism(t: CoeffTensor) -> MorphismReport:
    """Check that level 0 is 1, level k is G^k for 1 < k < n, and G^n = 0.

    G is level 1 read as a series in A = K[u, v]/<u^n, v^n> (see the module
    docstring).  The levels, read off the stored integers of t over its
    denominator den, run through the power-chain kernel `_chain_break`:
    den * L_k against the integer product L_(k-1) G, which is den^2 times the
    rational one.  Only the entries of a reported violation become `Fraction`s.

    The report is kept on t, so a tensor is walked at most once however often
    it is checked: `verify --full` asks for p and d in the command and in
    the full scan, and again in the reduced scan when the full one fails
    (4 or 6 times), and walks one tensor when d is p.
    """
    report = getattr(t, "_morph", None)
    if report is None:
        report = _morphism_walk(t)
        object.__setattr__(t, "_morph", report)
    return report


def _morphism_walk(t: CoeffTensor) -> MorphismReport:
    """The report of `is_coalgebra_morphism`, made on the stored integers."""
    n = t.n
    ints, den = t.scaled_integers()
    levels = [[[col[k] for col in row] for row in ints] for k in range(n)] + [[[0] * n] * n]
    for i, row in enumerate(levels[0]):
        for j, x in enumerate(row):
            expect = int(i + j == 0)
            if x != den * expect:
                return MorphismReport(False, (i, j, 0, 0, Fraction(x, den), Fraction(expect)))
    found = _chain_break(levels[1:], levels[1], den, n)
    if found:
        k, i, j, p = found
        return MorphismReport(False, (i, j, 1, k, Fraction(levels[k + 1][i][j], den),
                                      Fraction(p, den * den)))
    return MorphismReport(True)


def extend_from_level1(level1: Grid) -> CoeffTensor:
    """Build the tensor whose level w is G^w, G being level1 read as a series.

    Level 0 is delta_{0,i+j}.  The result is a coalgebra morphism exactly when
    G^n = 0 as well, e.g. when level1 has a zero top row (no pure v^j terms).
    The powers are made in `int` and stored over the lcm of their denominators.
    """
    n = len(level1)
    if n < 2 or any(len(row) != n for row in level1):
        raise ValueError("entries must form an n*n*n grid with n >= 2")
    g = Series2(level1)
    levels = [Series2.monomial(0, 0, n), g]
    while len(levels) < n:
        levels.append(levels[-1] * g)
    den = lcm(*(s._den for s in levels))
    ups = [den // s._den for s in levels]
    return CoeffTensor._from_rows([[s._nums[u][v] * up for s, up in zip(levels, ups)]
                                   for u in range(n) for v in range(n)], den)


def rescale_tensor(t: CoeffTensor, lam) -> CoeffTensor:
    """Entrywise lam^(k-i-j) twist; an isomorphism of the structure."""
    lam = as_fraction(lam)
    if not lam:
        raise ZeroLambda("rescaling factor must be nonzero")
    n = t.n
    powers = {e: lam ** e for e in range(-2 * (n - 1), n)}
    return CoeffTensor(
        [
            [[powers[k - i - j] * t.entries[i][j][k] for k in range(n)] for j in range(n)]
            for i in range(n)
        ]
    )


def rescale(s: QCycleStructure, lam) -> QCycleStructure:
    return QCycleStructure(rescale_tensor(s.p, lam), rescale_tensor(s.d, lam))


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: Optional[str] = None


@dataclass(frozen=True)
class SuiteReport:
    checks: tuple[CheckResult, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def lines(self) -> list[str]:
        return [f"{'PASS' if c.ok else 'FAIL'}  {c.name}" + (f"  [{c.detail}]" if c.detail and not c.ok else "") for c in self.checks]


def _check(name: str, failures: list) -> CheckResult:
    if failures:
        return CheckResult(name, False, f"first failure at {failures[0]}")
    return CheckResult(name, True)


def structural_lemma_suite(t: CoeffTensor) -> SuiteReport:
    """Consequences of comultiplicativity (and, when meaningful, regularity).

    Checked exhaustively over the grid:
      * vanishing above the total degree: t[i][j][k] = 0 for k > i + j;
      * the top level is binomial: t[i][j][i+j] = C(i+j, i) t10^i t01^j
        (entries with i + j >= n must therefore vanish against the convention);
      * for regular candidates (t10 != 0, t01 = 0): t[i][j][k] = 0 for k > i
        and t[i][1][i] = i * t11 * t10^(i-1).
    """
    report = is_coalgebra_morphism(t)
    if not report:
        raise NotComultiplicative(f"violation at {report.violation}")
    n = t.n
    e = t.entries
    checks = []

    fails = [
        (i, j, k)
        for i in range(n)
        for j in range(n)
        for k in range(i + j + 1, n)
        if e[i][j][k]
    ]
    checks.append(_check("vanishing_above_total_degree", fails))

    t10, t01, t11 = t.entry(1, 0, 1), t.entry(0, 1, 1), t.entry(1, 1, 1)
    fails = []
    for i in range(n):
        for j in range(n):
            if i + j == 0:
                continue
            expected = comb(i + j, i) * t10 ** i * t01 ** j
            if t.entry(i, j, i + j) != expected:
                fails.append((i, j, i + j))
    checks.append(_check("top_level_binomial", fails))

    regular_candidate = bool(t10) and not t01
    if regular_candidate:
        fails = [
            (i, j, k)
            for i in range(n)
            for j in range(n)
            for k in range(i + 1, n)
            if e[i][j][k]
        ]
        checks.append(_check("vanishing_above_first_index", fails))

        fails = []
        for i in range(1, n):
            if t.entry(i, 1, i) != i * t11 * t10 ** (i - 1):
                fails.append((i, 1, i))
        checks.append(_check("column_one_derivation", fails))
    else:
        detail = "requires t[1][0][1] != 0 and t[0][1][1] = 0"
        checks.append(CheckResult("vanishing_above_first_index", False, detail))
        checks.append(CheckResult("column_one_derivation", False, detail))

    return SuiteReport(tuple(checks))


def reconstruct_f_from_g(g: Series1) -> Series1:
    """Recover the generating series of the first row from the first column.

    For degree-1 structures the column series g(x) = sum t[i][1][1] x^i
    determines the row series f(x) = sum t[1][j][1] x^j as the solution of

        g f' = f^2 - f,        f = 1 + x + ...,

    solved degree by degree (`_by_degree`).  Requires g = x + O(x^2), so f_j
    enters the x^j coefficient of g f' - f^2 + f as (j - 1) f_j, and that
    coefficient is the recursion

        (j - 1) f_j = sum_{i=1}^{j-1} f_i f_{j-i} - sum_{h=1}^{j-1} h g_{j-h+1} f_h.
    """
    if g.coeffs[0] or len(g.coeffs) < 2 or g.coeffs[1] != 1:
        raise BadLinearTerm("column series must be x + O(x^2)")
    return _by_degree(g.trunc_order, [ONE, ONE], lambda f: g * f.derivative() - f * f + f,
                      lambda j: j - 1)
