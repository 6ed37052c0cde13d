from fractions import Fraction
from math import comb

import pytest

from qcycle import standard
from qcycle.errors import ValidationError
from qcycle.series import Series1
from qcycle.solution import check_braid_full, check_braid_reduced
from qcycle.standard import (
    StandardCycleBundle,
    StandardCycleParams,
    build_standard_cycle,
    column_series,
    invariant_suite,
    reconstruct_from_row,
    table_properties,
)
from qcycle.tensor import QCycleStructure

from conftest import random_standard_tail


class TestParams:
    def test_tail_construction(self):
        p = StandardCycleParams.from_tail(5, 2, [3, Fraction(1, 2)])
        assert p.coeff(2) == 1
        assert p.coeff(3) == 3
        assert p.coeff(4) == Fraction(1, 2)
        assert p.coeff(7) == 0
        assert p.row_series(5) == Series1([1, 0, 1, 3, Fraction(1, 2)])

    def test_validation(self):
        with pytest.raises(ValidationError):
            StandardCycleParams.from_tail(4, 0, [])
        with pytest.raises(ValidationError):
            StandardCycleParams.from_tail(4, 4, [])
        with pytest.raises(ValidationError):
            StandardCycleParams.from_tail(4, 1, [1])  # wrong arity
        with pytest.raises(ValidationError):
            StandardCycleParams(4, 1, {1: 2, 2: 0, 3: 0})  # p_{v0} != 1


class TestColumnSeries:
    def test_degree_one_vanishing_params(self):
        p = StandardCycleParams.from_tail(4, 1, [0, 0])
        assert column_series(p, 4) == Series1([0, 1, 1, 0])  # x(x+1)

    def test_degree_one_all_ones(self):
        p = StandardCycleParams.from_tail(4, 1, [1, 1])
        assert column_series(p, 4) == Series1([0, 1, 0, 0])  # plain x

    def test_degree_two_shifted_division(self):
        # f = 1 + x^2: g = f(f^2 - 1)/f' = x(1 + x^2)(2 + x^2)/2
        p = StandardCycleParams.from_tail(5, 2, [0, 0])
        assert column_series(p, 5) == Series1([0, 1, 0, Fraction(3, 2), 0])


class TestBuild:
    def test_vanishing_params_entries(self):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(4, 1, [0, 0]))
        t = bundle.tensor
        for i in range(4):
            for j in range(4):
                if i + j > 0:
                    want = Fraction(1) if 0 <= i - j <= 1 else Fraction(0)
                    assert t.entry(i, j, 1) == want
        assert t.entry(3, 2, 2) == 4  # C(2,1) * C(2,1)

    def test_all_ones_entries(self):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(4, 1, [1, 1]))
        t = bundle.tensor
        assert t.entry(2, 3, 2) == comb(4, 1)
        for i in range(1, 4):
            for j in range(4):
                for k in range(1, 4):
                    if i != k:
                        assert t.entry(i, j, k) == 0

    def test_degree_two_braid(self):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(5, 2, [0, 0]))
        s = QCycleStructure.involutive(bundle.tensor)
        assert check_braid_reduced(s)
        assert check_braid_full(s)

    def test_table_properties_and_invariants(self, rng):
        for n, v0 in [(4, 1), (5, 2), (6, 3), (5, 4)]:
            tail = random_standard_tail(rng, n, v0)
            bundle = build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail))
            assert table_properties(bundle).ok
            assert invariant_suite(bundle).ok

    def test_vacuous_low_column_checks_at_degree_one(self):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(4, 1, [2, 3]))
        report = invariant_suite(bundle)
        by_name = {c.name: c for c in report.checks}
        assert by_name["low_columns_vanish"].ok  # empty range for v0 = 1
        assert report.ok

    def test_determinism(self):
        params = StandardCycleParams.from_tail(5, 2, [Fraction(1, 3), -1])
        assert build_standard_cycle(params) == build_standard_cycle(params)

    def test_padded_order_restricts(self):
        params = StandardCycleParams.from_tail(4, 1, [1, -2])
        small = build_standard_cycle(params)
        large = build_standard_cycle(params, order=7)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    assert small.tensor.entry(i, j, k) == large.tensor.entry(i, j, k)

    def test_order_below_n_rejected(self):
        params = StandardCycleParams.from_tail(4, 1, [1, -2])
        with pytest.raises(ValidationError):
            build_standard_cycle(params, order=3)

    def test_mutated_tensor_fails_suite(self, rng):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(5, 2, [1, 0]))
        bad = bundle.tensor.with_entry(3, 2, 1, bundle.tensor.entry(3, 2, 1) + 1)
        corrupted = StandardCycleBundle(
            params=bundle.params, order=bundle.order, row=bundle.row, column=bundle.column,
            table=bundle.table, table_flip=bundle.table_flip, tensor=bad)
        assert not invariant_suite(corrupted).ok


class TestReconstruction:
    def test_degree_one_examples(self):
        for tail, n in [([0, 0], 4), ([1, 1], 4)]:
            bundle = build_standard_cycle(StandardCycleParams.from_tail(n, 1, tail))
            row = [bundle.tensor.entry(1, v, 1) for v in range(n)]
            assert reconstruct_from_row(n, 1, row) == bundle.tensor

    def test_degree_two_example(self):
        bundle = build_standard_cycle(StandardCycleParams.from_tail(5, 2, [1, 1]))
        row = [bundle.tensor.entry(1, v, 1) for v in range(5)]
        assert reconstruct_from_row(5, 2, row) == bundle.tensor

    def test_random_inputs_agree(self, rng):
        shapes = [(n, v0, random_standard_tail(rng, n, v0))
                  for n in range(2, 8) for v0 in range(1, n)]
        # large coefficients above those sizes: p_{v0+1+k} = (-1)^k (k+2)/(k+3)
        shapes += [(10, v0, [Fraction((-1) ** k * (k + 2), k + 3) for k in range(9 - v0)])
                   for v0 in (1, 4, 9)]
        for n, v0, tail in shapes:
            bundle = build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail))
            row = [bundle.tensor.entry(1, v, 1) for v in range(n)]
            assert reconstruct_from_row(n, v0, row) == bundle.tensor

    def test_calls_no_construction_step(self, monkeypatch):
        bundles = [build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail))
                   for n, v0, tail in [(6, 1, [1, -2, Fraction(1, 3), 3]), (7, 3, [2, -1, 5])]]

        def forbidden(*args, **kwargs):
            raise AssertionError("reconstruct_from_row called a construction step")

        for name in ("build_standard_cycle", "column_series", "table_slices", "divide_exact"):
            monkeypatch.setattr(standard, name, forbidden)
        for bundle in bundles:
            n, v0 = bundle.params.n, bundle.degree
            row = [bundle.tensor.entry(1, v, 1) for v in range(n)]
            assert reconstruct_from_row(n, v0, row) == bundle.tensor

    def test_rejects_unnormalized_row(self):
        with pytest.raises(ValidationError):
            reconstruct_from_row(4, 1, [1, 2, 0, 0])
        with pytest.raises(ValidationError):
            reconstruct_from_row(4, 2, [1, 1, 1, 0])
        for degree in (0, 4):
            with pytest.raises(ValidationError):
                reconstruct_from_row(4, degree, [1, 0, 0, 0])
