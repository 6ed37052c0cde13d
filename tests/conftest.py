import random
from fractions import Fraction

import pytest

from qcycle.series import Series1
from qcycle.standard import StandardCycleParams, build_standard_cycle
from qcycle.tensor import QCycleStructure


def random_fraction(rng: random.Random, span: int = 3) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.choice((1, 1, 2, 3)))


def random_series1(rng: random.Random, order: int) -> Series1:
    return Series1([random_fraction(rng) for _ in range(order)])


def random_level1(rng: random.Random, n: int, zero_top_row: bool = True):
    grid = [[random_fraction(rng, 2) for _ in range(n)] for _ in range(n)]
    grid[0][0] = Fraction(0)
    if zero_top_row:
        for j in range(n):
            grid[0][j] = Fraction(0)
    return grid


def random_standard_tail(rng: random.Random, n: int, degree: int):
    return [random_fraction(rng) for _ in range(n - degree - 1)]


def standard_structure(n: int, degree: int, tail) -> QCycleStructure:
    params = StandardCycleParams.from_tail(n, degree, list(tail))
    return QCycleStructure.involutive(build_standard_cycle(params).tensor)


@pytest.fixture
def rng():
    return random.Random(987654321)


@pytest.fixture
def forms(monkeypatch):
    """The forms `series._gathered_dot` takes, "row" or "column", call by call."""
    from qcycle import series

    seen = []
    for form in ("row", "column"):
        inner = getattr(series, f"_{form}_form")
        monkeypatch.setattr(series, f"_{form}_form",
                            lambda *args, form=form, inner=inner: seen.append(form) or inner(*args))
    return seen
