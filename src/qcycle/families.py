"""Classification table routing, the non-root-of-unity family, and n = 3 fixtures.

Every verified structure lands in exactly one row of the classification table,
keyed on: whether t[1][1][1] vanishes, whether p = d, whether column zero of p
is the identity action, and the root-of-unity order of the step entries
p[1][0][1] and d[1][0][1].  Over the rationals the only roots of unity are
1 and -1, so the order reported is 1, 2, or "not a root below n".
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import PreconditionNotMet, RootOfUnityLambda, UnverifiedStructure, ValidationError
from .series import ONE, Series1, ZERO, _by_degree, as_fraction, compose
from .tensor import (
    CoeffTensor,
    QCycleStructure,
    SuiteReport,
    _check,
    extend_from_level1,
)
from .solution import check_braid_reduced


class ClassificationRow(Enum):
    P11_NONZERO = "p11_nonzero"
    INVOLUTIVE_DELTA_WITH_HIGHER_PARAM = "involutive_delta_with_higher_param"
    INVOLUTIVE_DELTA_ALL_ZERO = "involutive_delta_all_zero"
    INVOLUTIVE_P10_EQ_1_NONDELTA = "involutive_p10_eq_1_nondelta"
    INVOLUTIVE_P10_ROOT_OF_UNITY = "involutive_p10_root_of_unity"
    INVOLUTIVE_P10_NOT_ROOT = "involutive_p10_not_root"
    NONINV_BOTH_ROOTS = "noninv_both_roots"
    NONINV_P10_NOT_ROOT = "noninv_p10_not_root"
    NONINV_D10_NOT_ROOT = "noninv_d10_not_root"


# How completely each row is understood: "complete" rows pin the structure
# down entirely, the others are covered by partial results and examples.
ROW_STATUS = {
    ClassificationRow.P11_NONZERO: "complete",
    ClassificationRow.INVOLUTIVE_DELTA_WITH_HIGHER_PARAM: "complete",
    ClassificationRow.INVOLUTIVE_DELTA_ALL_ZERO: "partial",
    ClassificationRow.INVOLUTIVE_P10_EQ_1_NONDELTA: "examples",
    ClassificationRow.INVOLUTIVE_P10_ROOT_OF_UNITY: "partial",
    ClassificationRow.INVOLUTIVE_P10_NOT_ROOT: "complete",
    ClassificationRow.NONINV_BOTH_ROOTS: "partial",
    ClassificationRow.NONINV_P10_NOT_ROOT: "complete",
    ClassificationRow.NONINV_D10_NOT_ROOT: "complete",
}


@dataclass(frozen=True)
class ClassificationVerdict:
    row: ClassificationRow
    status: str
    notes: str

    @property
    def complete(self) -> bool:
        return self.status == "complete"


def root_of_unity_order(value: Fraction, bound: int) -> Optional[int]:
    """Least 0 < k < bound with value^k = 1, or None.  Over Q only 1 and -1 qualify."""
    if value == 1:
        return 1 if bound > 1 else None
    if value == -1 and bound > 2:
        return 2
    return None


def _verdict(row: ClassificationRow, notes: str) -> ClassificationVerdict:
    return ClassificationVerdict(row, ROW_STATUS[row], notes)


def classify(s: QCycleStructure) -> ClassificationVerdict:
    """Route a verified structure to its classification row."""
    if not check_braid_reduced(s):
        raise UnverifiedStructure("structure fails the braid checks")
    n = s.n
    p, d = s.p, s.d
    p11 = p.entry(1, 1, 1)
    p10 = p.entry(1, 0, 1)
    d10 = d.entry(1, 0, 1)

    if p11:
        return _verdict(ClassificationRow.P11_NONZERO, "equivalent to a unique degree-1 "
                        "standard cycle by rescaling with t[1][1][1]")

    if s.is_involutive():
        delta_column = all(
            p.entry(j, 0, 1) == (ONE if j == 1 else ZERO) for j in range(n)
        )
        if delta_column:
            higher = next((j for j in range(2, n) if p.entry(1, j, 1)), None)
            if higher is not None:
                return _verdict(ClassificationRow.INVOLUTIVE_DELTA_WITH_HIGHER_PARAM,
                                f"first nonzero row parameter at degree {higher}; standard "
                                "cycle after rescaling by a degree-th root of it (may not exist "
                                "over Q)")
            return _verdict(ClassificationRow.INVOLUTIVE_DELTA_ALL_ZERO,
                            "row parameters all vanish; first column forced to vanish as well")
        if p10 == 1:
            return _verdict(ClassificationRow.INVOLUTIVE_P10_EQ_1_NONDELTA,
                            "column zero is not the identity action although the step entry is 1")
        order = root_of_unity_order(p10, n)
        if order is not None:
            return _verdict(ClassificationRow.INVOLUTIVE_P10_ROOT_OF_UNITY,
                            f"step entry {p10} is a root of unity of order {order} below n = {n}")
        return _verdict(ClassificationRow.INVOLUTIVE_P10_NOT_ROOT,
                        f"step entry {p10} is not a root of unity of order below n = {n}")

    p_order = root_of_unity_order(p10, n)
    d_order = root_of_unity_order(d10, n)
    if p_order is not None and d_order is not None:
        return _verdict(ClassificationRow.NONINV_BOTH_ROOTS,
                        f"both step entries are roots of unity (orders {p_order}, {d_order})")
    if p_order is None:
        return _verdict(ClassificationRow.NONINV_P10_NOT_ROOT,
                        f"p step entry {p10} is not a root of unity below n = {n}")
    return _verdict(ClassificationRow.NONINV_D10_NOT_ROOT,
                    f"d step entry {d10} is not a root of unity below n = {n}")


@dataclass(frozen=True)
class NonRootFamilyInput:
    """Data for the family with vanishing interaction: column-zero steps
    lambda_1..lambda_{n-1} for p (lambda_1 not a root of unity below n) and
    the d step entry mu."""

    n: int
    lambdas: tuple
    mu: Fraction

    def __init__(self, n: int, lambdas: Sequence[object], mu: object):
        if n < 2:
            raise ValidationError("n must be at least 2")
        lam = tuple(as_fraction(v) for v in lambdas)
        if len(lam) != n - 1:
            raise ValidationError("need lambda_1 .. lambda_{n-1}")
        mu = as_fraction(mu)
        if not lam[0]:
            raise ValidationError("lambda_1 must be nonzero")
        if not mu:
            raise ValidationError("mu must be nonzero")
        if root_of_unity_order(lam[0], n) is not None:
            raise RootOfUnityLambda(f"lambda_1 = {lam[0]} has a power equal to 1 below n")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mu", mu)


def build_nonroot_family(inp: NonRootFamilyInput) -> QCycleStructure:
    """The unique structure with p[i][0][1] = lambda_i, d[1][0][1] = mu and no
    interaction: all entries with second index > 0 vanish.

    Column zero of level h is the h-th power of level 1's: lambda = sum
    lambda_i x^i for p, delta = sum d[i][0][1] x^i for d.  The d column solves
    delta(lambda) = lambda(delta), delta = mu x + ..., degree by degree
    (`_by_degree`): d[i][0][1] enters degree i as (lambda_1^i - lambda_1)
    d[i][0][1], nonzero as lambda_1 is no root of unity below n, and that
    coefficient is the recursion

        d[i][0][1] (lambda_1 - lambda_1^i)
            = sum_{h<i} p[i][0][h] d[h][0][1] - sum_{h>=2} d[i][0][h] p[h][0][1].

    The structure is involutive exactly when mu = lambda_1.
    """
    n, lam = inp.n, inp.lambdas
    column = Series1((ZERO, *lam))
    delta = _by_degree(n, [ZERO, inp.mu], lambda d: compose(d, column) - compose(column, d),
                       lambda i: lam[0] ** i - lam[0])
    p = _extension(n, {(i, 0): lam[i - 1] for i in range(1, n)})
    d = _extension(n, {(i, 0): delta.coeffs[i] for i in range(1, n)})
    return QCycleStructure(p, d)


def _extension(n: int, entries: dict) -> CoeffTensor:
    """`extend_from_level1` of the n*n level-1 grid that holds `entries`,
    {(i, j): t[i][j][1]}, and 0 elsewhere."""
    level1 = [[ZERO] * n for _ in range(n)]
    for (i, j), value in entries.items():
        level1[i][j] = value
    return extend_from_level1(level1)


def nonunit_vanishing_check(s: QCycleStructure, order_bound: int) -> SuiteReport:
    """For structures whose p step entry has no power equal to 1 below
    order_bound: entries with both lower indices positive vanish up to total
    degree order_bound, and the d column satisfies its forced recursion
    [x^i] delta(lambda) = [x^i] lambda(delta), lambda and delta being the
    column series of p and d, with their h-th powers read off level h as
    stored."""
    p, d = s.p, s.d
    n = s.n
    p10 = p.entry(1, 0, 1)
    order = root_of_unity_order(p10, order_bound)
    if order is not None:
        raise PreconditionNotMet(f"step entry has order {order} < {order_bound}")
    checks = []

    fails = [
        (i, j, k)
        for i in range(1, n)
        for j in range(1, n)
        for k in range(n)
        if i + j <= order_bound and (p.entry(i, j, k) or d.entry(i, j, k))
    ]
    checks.append(_check("interaction_vanishes", fails))

    fails = [i for i in range(2, min(order_bound, n - 1) + 1)
             if sum(d.entry(h, 0, 1) * p.entry(i, 0, h) for h in range(1, i + 1))
             != sum(p.entry(h, 0, 1) * d.entry(i, 0, h) for h in range(1, i + 1))]
    checks.append(_check("d_column_recursion", fails))

    return SuiteReport(tuple(checks))


def first_column_vanishing_check(s: QCycleStructure) -> SuiteReport:
    """When t[1][1][1] = 0, p = d, column zero is the identity action, and the
    whole first row vanishes, the whole first column vanishes too."""
    p = s.p
    n = s.n
    if p.entry(1, 1, 1):
        raise PreconditionNotMet("t[1][1][1] must vanish")
    if not s.is_involutive():
        raise PreconditionNotMet("structure must be involutive")
    if any(p.entry(i, 0, 1) != (ONE if i == 1 else ZERO) for i in range(n)):
        raise PreconditionNotMet("column zero must be the identity action")
    if any(p.entry(1, j, 1) for j in range(1, n)):
        raise PreconditionNotMet("first row must vanish")
    fails = [i for i in range(n) if p.entry(i, 1, 1)]
    return SuiteReport((_check("first_column_vanishes", fails),))


@dataclass(frozen=True)
class Fixture:
    name: str
    parameters: dict
    structure: QCycleStructure


# The n = 3 families: name, parameter names, three parameter points, and the
# level-1 entries {(i, j): t[i][j][1]} of p and of d (None: d is p) at a point.
_N3_FAMILIES = (
    ("unit_step", ("p22", "p20"), ((0, 0), (1, 2), (2, 0)),
     lambda p22, p20: ({(1, 0): ONE, (2, 0): p20, (2, 2): p22}, None)),
    ("negative_step", ("p12", "p20"), ((1, 2), (0, 1), (2, 1)),
     lambda p12, p20: ({(1, 0): -ONE, (1, 2): p12, (2, 0): p20, (2, 1): 2 * p12,
                        (2, 2): Fraction(-5) * p12 * p20 / 2}, None)),
    ("mixed_step", ("p12",), ((1,), (0,), (2,)),
     lambda p12: ({(1, 0): ONE, (1, 2): p12}, {(1, 0): -ONE, (1, 2): -p12})),
)


def fixtures_n3() -> list[Fixture]:
    """The three parameterized n = 3 families, at three rational points each.

    * unit_step: p = d, p[1][0][1] = 1, free entries p[2][0][1], p[2][2][1];
    * negative_step: p = d, p[1][0][1] = -1, free p[1][2][1], p[2][0][1], with
      p[2][1][1] = 2 p[1][2][1] and p[2][2][1] = -5 p[1][2][1] p[2][0][1] / 2;
    * mixed_step: p != d in general, p[1][0][1] = 1, d[1][0][1] = -1, free
      p[1][2][1], with d[1][2][1] = -p[1][2][1].

    Every fixture is extended from its level-1 grid and verified against the
    reduced braid check at build time.
    """
    fixtures = []
    for name, names, points, entries in _N3_FAMILIES:
        for point in points:
            point = tuple(Fraction(v) for v in point)
            p_entries, d_entries = entries(*point)
            p = _extension(3, p_entries)
            fixture = Fixture(name, dict(zip(names, point)), QCycleStructure(
                p, p if d_entries is None else _extension(3, d_entries)))
            report = check_braid_reduced(fixture.structure)
            if not report:
                raise AssertionError(
                    f"fixture {fixture.name}{fixture.parameters} fails the braid check: "
                    f"{report.violations[:1]}"
                )
            fixtures.append(fixture)
    return fixtures
