from fractions import Fraction

import pytest

from qcycle.errors import (
    PreconditionNotMet,
    RootOfUnityLambda,
    UnverifiedStructure,
    ValidationError,
)
from qcycle.families import (
    ClassificationRow,
    NonRootFamilyInput,
    build_nonroot_family,
    classify,
    first_column_vanishing_check,
    fixtures_n3,
    nonunit_vanishing_check,
    root_of_unity_order,
)
from qcycle.series import Series1, compose
from qcycle.solution import check_braid_full, check_braid_reduced
from qcycle.standard import StandardCycleParams, build_standard_cycle
from qcycle.tensor import QCycleStructure, extend_from_level1, rescale

from conftest import random_fraction, standard_structure


class TestRootOrder:
    def test_orders_over_rationals(self):
        assert root_of_unity_order(Fraction(1), 3) == 1
        assert root_of_unity_order(Fraction(-1), 3) == 2
        assert root_of_unity_order(Fraction(-1), 2) is None
        assert root_of_unity_order(Fraction(2), 10) is None
        assert root_of_unity_order(Fraction(1, 2), 10) is None


class TestNonRootFamily:
    def test_hand_computed_values(self):
        s = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3))
        assert s.p.entry(2, 0, 2) == 4  # lambda_1 squared
        assert s.d.entry(2, 0, 1) == 3  # solves the forced recursion
        assert check_braid_reduced(s)
        assert check_braid_full(s)

    def test_d_column_commutes_with_p_column(self, rng):
        # delta(lambda) = lambda(delta) for the level-1 column series of p and d
        for n in range(2, 11):
            lambdas = [Fraction(rng.choice((-3, -2, 2, 3)), rng.choice((1, 5)))]
            lambdas += [random_fraction(rng) for _ in range(n - 2)]
            s = build_nonroot_family(NonRootFamilyInput(n, lambdas, random_fraction(rng) or 1))
            lam, delta = (Series1([t.entry(i, 0, 1) for i in range(n)]) for t in (s.p, s.d))
            assert lam == Series1([0, *lambdas])
            assert compose(delta, lam) == compose(lam, delta)

    def test_involutive_iff_mu_equals_lambda1(self):
        base = NonRootFamilyInput(4, [2, 1, -1], 2)
        assert build_nonroot_family(base).is_involutive()
        other = NonRootFamilyInput(4, [2, 1, -1], 3)
        assert not build_nonroot_family(other).is_involutive()

    def test_root_of_unity_rejected(self):
        with pytest.raises(RootOfUnityLambda):
            NonRootFamilyInput(3, [-1, 1], 2)
        # at n = 2 the power range below n is empty except k = 1
        NonRootFamilyInput(2, [-1], 2)

    def test_zero_parameters_rejected(self):
        with pytest.raises(ValidationError):
            NonRootFamilyInput(3, [0, 1], 2)
        with pytest.raises(ValidationError):
            NonRootFamilyInput(3, [2, 1], 0)

    def test_shape_rejected(self):
        with pytest.raises(ValidationError, match="^n must be at least 2$"):
            NonRootFamilyInput(1, [], 2)
        for lambdas in ([2], [2, 1, 1]):
            with pytest.raises(ValidationError, match=r"^need lambda_1 \.\. lambda_\{n-1\}$"):
                NonRootFamilyInput(3, lambdas, 2)

    def test_vanishing_check(self):
        s = build_nonroot_family(NonRootFamilyInput(4, [3, 1, 1], 4))
        assert nonunit_vanishing_check(s, 4).ok

    def test_vanishing_check_precondition(self):
        s = standard_structure(4, 1, [1, 1])
        with pytest.raises(PreconditionNotMet):
            nonunit_vanishing_check(s, 4)

    def test_vanishing_check_precondition_messages(self):
        # the order of a step entry 1 or -1 below the bound, as root_of_unity_order gives it
        negative = next(f.structure for f in fixtures_n3() if f.name == "negative_step")
        for s, order in ((standard_structure(4, 1, [1, 1]), 1), (negative, 2)):
            for bound in range(5):
                if bound <= order:
                    nonunit_vanishing_check(s, bound)
                    continue
                with pytest.raises(PreconditionNotMet) as info:
                    nonunit_vanishing_check(s, bound)
                assert str(info.value) == f"step entry has order {order} < {bound}"

    def test_vanishing_check_detects_perturbation(self):
        s = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3))
        bad = QCycleStructure(s.p, s.d.with_entry(2, 0, 1, s.d.entry(2, 0, 1) + 1))
        assert not nonunit_vanishing_check(bad, 3).ok


class TestFixtures:
    def test_nine_fixtures_all_verified(self):
        fixtures = fixtures_n3()
        F = Fraction
        assert [(f.name, f.parameters) for f in fixtures] == [
            ("unit_step", {"p22": F(0), "p20": F(0)}),
            ("unit_step", {"p22": F(1), "p20": F(2)}),
            ("unit_step", {"p22": F(2), "p20": F(0)}),
            ("negative_step", {"p12": F(1), "p20": F(2)}),
            ("negative_step", {"p12": F(0), "p20": F(1)}),
            ("negative_step", {"p12": F(2), "p20": F(1)}),
            ("mixed_step", {"p12": F(1)}),
            ("mixed_step", {"p12": F(0)}),
            ("mixed_step", {"p12": F(2)}),
        ]
        for fixture in fixtures:
            assert all(type(v) is Fraction for v in fixture.parameters.values())
            # p = d families hold one tensor, so it is walked once
            assert (fixture.structure.d is fixture.structure.p) == (fixture.name != "mixed_step")
            assert check_braid_reduced(fixture.structure)
            assert check_braid_full(fixture.structure)

    def test_negative_step_closed_forms(self):
        fixtures = [f for f in fixtures_n3() if f.name == "negative_step"]
        point = next(
            f for f in fixtures if f.parameters["p12"] == 1 and f.parameters["p20"] == 2
        )
        t = point.structure.p
        assert t.entry(2, 2, 1) == Fraction(-5)  # -5 * p12 * p20 / 2
        assert t.entry(2, 1, 1) == 2
        assert t.entry(2, 2, 2) == -2  # extension: -2 * p12
        assert t.entry(2, 0, 2) == 1

    def test_mixed_step_never_involutive(self):
        for fixture in fixtures_n3():
            if fixture.name == "mixed_step":
                assert not fixture.structure.is_involutive()

    def test_first_column_vanishing(self):
        fixtures = [f for f in fixtures_n3() if f.name == "unit_step"]
        eligible = [f for f in fixtures if f.parameters["p20"] == 0]
        assert any(f.parameters["p22"] != 0 for f in eligible)
        for f in eligible:
            assert first_column_vanishing_check(f.structure).ok

    def test_first_column_check_preconditions(self):
        # each input passes the preconditions before the one it fails
        row_one = [[Fraction(0)] * 3 for _ in range(3)]
        row_one[1][0] = row_one[1][2] = Fraction(1)
        for s, message in (
                (standard_structure(3, 1, [1]), "t[1][1][1] must vanish"),
                (build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3)),
                 "structure must be involutive"),
                (build_nonroot_family(NonRootFamilyInput(3, [2, 1], 2)),
                 "column zero must be the identity action"),
                (QCycleStructure.involutive(extend_from_level1(row_one)),
                 "first row must vanish")):
            with pytest.raises(PreconditionNotMet) as info:
                first_column_vanishing_check(s)
            assert str(info.value) == message


class TestClassify:
    def test_degree_one_standard(self):
        s = standard_structure(4, 1, [2, 0])
        assert classify(s).row is ClassificationRow.P11_NONZERO

    def test_higher_degree_standard(self):
        s = standard_structure(5, 2, [1, 1])
        assert classify(s).row is ClassificationRow.INVOLUTIVE_DELTA_WITH_HIGHER_PARAM

    def test_unit_step_rows(self):
        for fixture in fixtures_n3():
            if fixture.name != "unit_step":
                continue
            verdict = classify(fixture.structure)
            if fixture.parameters["p20"] == 0:
                assert verdict.row is ClassificationRow.INVOLUTIVE_DELTA_ALL_ZERO
            else:
                assert verdict.row is ClassificationRow.INVOLUTIVE_P10_EQ_1_NONDELTA

    def test_negative_step_row(self):
        for fixture in fixtures_n3():
            if fixture.name == "negative_step":
                verdict = classify(fixture.structure)
                assert verdict.row is ClassificationRow.INVOLUTIVE_P10_ROOT_OF_UNITY

    def test_mixed_step_row(self):
        for fixture in fixtures_n3():
            if fixture.name == "mixed_step":
                assert classify(fixture.structure).row is ClassificationRow.NONINV_BOTH_ROOTS

    def test_nonroot_rows(self):
        involutive = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 2))
        assert classify(involutive).row is ClassificationRow.INVOLUTIVE_P10_NOT_ROOT
        mixed = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3))
        assert classify(mixed).row is ClassificationRow.NONINV_P10_NOT_ROOT

    def test_swapped_nonroot_hits_d_row(self):
        # mu = 1 makes the d step a root of unity while the p step is not;
        # swapping the tensors lands in the symmetric row.
        s = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 1))
        swapped = QCycleStructure(s.d, s.p)
        assert check_braid_reduced(swapped)
        assert classify(swapped).row is ClassificationRow.NONINV_D10_NOT_ROOT

    def test_every_row_verdict_is_pinned(self):
        # status and notes of each row, on the nine fixtures and one input per other row
        nonroot = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 1))
        cases = [fixture.structure for fixture in fixtures_n3()] + [
            standard_structure(4, 1, [2, 0]), standard_structure(5, 2, [1, 1]),
            build_nonroot_family(NonRootFamilyInput(3, [2, 1], 2)),
            build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3)),
            QCycleStructure(nonroot.d, nonroot.p)]
        all_zero = ("involutive_delta_all_zero", "partial",
                    "row parameters all vanish; first column forced to vanish as well")
        negative = ("involutive_p10_root_of_unity", "partial",
                    "step entry -1 is a root of unity of order 2 below n = 3")
        mixed = ("noninv_both_roots", "partial",
                 "both step entries are roots of unity (orders 1, 2)")
        want = [all_zero,
                ("involutive_p10_eq_1_nondelta", "examples",
                 "column zero is not the identity action although the step entry is 1"),
                all_zero, negative, negative, negative, mixed, mixed, mixed,
                ("p11_nonzero", "complete",
                 "equivalent to a unique degree-1 standard cycle by rescaling with t[1][1][1]"),
                ("involutive_delta_with_higher_param", "complete",
                 "first nonzero row parameter at degree 2; standard cycle after rescaling by "
                 "a degree-th root of it (may not exist over Q)"),
                ("involutive_p10_not_root", "complete",
                 "step entry 2 is not a root of unity of order below n = 3"),
                ("noninv_p10_not_root", "complete",
                 "p step entry 2 is not a root of unity below n = 3"),
                ("noninv_d10_not_root", "complete",
                 "d step entry 2 is not a root of unity below n = 3")]
        got = [classify(s) for s in cases]
        assert [(v.row.value, v.status, v.notes) for v in got] == want
        assert [v.complete for v in got] == [v.status == "complete" for v in got]
        assert {v.complete for v in got} == {True, False}
        assert {v.row for v in got} == set(ClassificationRow)

    def test_classify_requires_verified(self):
        s = standard_structure(3, 1, [1])
        bad = QCycleStructure.involutive(s.p.with_entry(2, 1, 1, 9))
        with pytest.raises(UnverifiedStructure):
            classify(bad)

    def test_row_stable_under_rescale(self, rng):
        s = standard_structure(4, 1, [1, 2])
        scaled = rescale(s, Fraction(3, 2))
        assert classify(scaled).row is ClassificationRow.P11_NONZERO


class TestNormalize:
    def test_identity(self):
        s = standard_structure(3, 1, [1])
        assert rescale(s, 1) == s

    def test_degree_one_normalization(self):
        normalized = standard_structure(4, 1, [Fraction(1, 2), -1])
        skewed = rescale(normalized, Fraction(1, 3))
        assert skewed.p.entry(1, 1, 1) == 3
        recovered = rescale(skewed, 3)
        assert recovered == normalized
        # the normal form is the standard structure of its own first row
        row_tail = [recovered.p.entry(1, v, 1) for v in range(2, 4)]
        rebuilt = build_standard_cycle(StandardCycleParams.from_tail(4, 1, row_tail))
        assert QCycleStructure.involutive(rebuilt.tensor) == recovered

    def test_degree_two_normalization(self):
        normalized = standard_structure(5, 2, [1, 1])
        skewed = rescale(normalized, Fraction(1, 2))
        assert skewed.p.entry(1, 2, 1) == 4
        assert rescale(skewed, 2) == normalized
