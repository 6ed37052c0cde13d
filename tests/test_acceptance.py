"""Acceptance checks.

Every check is exact (tolerance zero): all arithmetic is rational and every
assertion is an equality of Fractions, tensors, or matrices.  Run with

    pytest tests/test_acceptance.py -v -s

to see the per-criterion PASS lines and timings.
"""

import random
from fractions import Fraction
from math import comb

import pytest

from qcycle.errors import NotComultiplicative, RootOfUnityLambda
from qcycle.families import (
    NonRootFamilyInput,
    build_nonroot_family,
    fixtures_n3,
)
from qcycle.operators import build_context, identity_suite
from qcycle.solution import (
    build_solution,
    check_braid_full,
    check_braid_on_map,
    check_braid_reduced,
    is_coalgebra_endomorphism,
)
from qcycle.standard import (
    StandardCycleParams,
    build_standard_cycle,
    reconstruct_from_row,
)
from qcycle.tensor import (
    QCycleStructure,
    extend_from_level1,
    is_coalgebra_morphism,
    structural_lemma_suite,
)

from conftest import random_fraction, random_level1

SEED = 20240


@pytest.fixture(scope="module")
def standard_bundles():
    """Criterion 1 inputs: every (n, v0) with 2 <= n <= 6, 1 <= v0 < n, and
    five seeded pseudo-random rational parameter vectors per pair."""
    rng = random.Random(SEED)
    bundles = []
    for n in range(2, 7):
        for v0 in range(1, n):
            for _ in range(5):
                tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
                params = StandardCycleParams.from_tail(n, v0, tail)
                bundles.append((n, v0, build_standard_cycle(params)))
    return bundles


@pytest.fixture(scope="module")
def nonroot_structures():
    """Criterion 6 inputs: n in {3,4,5}, lambda_1 in {2,3,-2}, seeded random
    higher lambdas, mu in {lambda_1, lambda_1 + 1}."""
    rng = random.Random(SEED + 6)
    items = []
    for n in (3, 4, 5):
        for lam1 in (Fraction(2), Fraction(3), Fraction(-2)):
            higher = [random_fraction(rng) for _ in range(n - 2)]
            for mu in (lam1, lam1 + 1):
                inp = NonRootFamilyInput(n, [lam1] + higher, mu)
                items.append((inp, build_nonroot_family(inp)))
    return items


@pytest.fixture(scope="module")
def fixture_structures():
    return fixtures_n3()


def test_criterion_1_standard_braid_soundness(standard_bundles):
    for n, v0, bundle in standard_bundles:
        s = QCycleStructure.involutive(bundle.tensor)
        assert check_braid_reduced(s), (n, v0)
        assert check_braid_full(s), (n, v0)
    print(
        f"\ncriterion 1 (standard-cycle braid soundness): PASS — "
        f"{len(standard_bundles)} structures, reduced and full checks exact"
    )


def test_criterion_2_closed_form_reproduction():
    n = 6
    ones = build_standard_cycle(StandardCycleParams.from_tail(n, 1, [1] * (n - 2)))
    mismatches = 0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if i == k and k > 0:
                    want = Fraction(comb(j + k - 1, k - 1))
                elif i == j == k == 0:
                    want = Fraction(1)
                else:
                    want = Fraction(0)
                if ones.tensor.entry(i, j, k) != want:
                    mismatches += 1
    assert mismatches == 0

    vanishing = build_standard_cycle(StandardCycleParams.from_tail(n, 1, [0] * (n - 2)))
    for i in range(1, n):
        for j in range(1, n):
            for k in range(1, n):
                want = (
                    Fraction(comb(i - 1, k - 1) * comb(k, i - j))
                    if 0 <= i - j <= k
                    else Fraction(0)
                )
                assert vanishing.tensor.entry(i, j, k) == want, (i, j, k)
    print(
        "criterion 2 (closed-form reproduction at n=6): PASS — "
        "all-ones and vanishing-parameter tensors match entrywise, zero mismatches"
    )


def test_criterion_3_dual_construction_oracle(standard_bundles):
    for n, v0, bundle in standard_bundles:
        row = [bundle.tensor.entry(1, v, 1) for v in range(n)]
        assert reconstruct_from_row(n, v0, row) == bundle.tensor, (n, v0)
    print(
        f"criterion 3 (dual-construction oracle): PASS — the closed form "
        f"G(x, y) = a(q(x) f(y)) reproduces all {len(standard_bundles)} tensors entrywise"
    )


def test_criterion_4_operator_identity_suite():
    rng = random.Random(SEED + 4)
    configs = []
    for n in range(2, 7):
        degrees = {1, n - 1, max(1, n // 2)}
        for v0 in sorted(degrees):
            tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
            configs.append((n, v0, tail))
    for n, v0, tail in configs:
        bundle = build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail))
        ctx = build_context(bundle, order=n + 2)
        report = identity_suite(ctx, rng=random.Random(SEED))
        assert report.ok, (n, v0, [c.name for c in report.failures()])
    print(
        f"criterion 4 (operator identity suite at pad 2): PASS — "
        f"{len(configs)} configurations, every identity exact"
    )


def test_criterion_5_solution_end_to_end(
    standard_bundles, nonroot_structures, fixture_structures
):
    structures = [
        QCycleStructure.involutive(bundle.tensor) for _, _, bundle in standard_bundles
    ]
    structures += [s for _, s in nonroot_structures]
    structures += [f.structure for f in fixture_structures]
    involutive_count = 0
    for s in structures:
        m = build_solution(s)
        assert is_coalgebra_endomorphism(m)
        assert check_braid_on_map(m)
        assert m.determinant() != 0
        is_involution = m.compose(m).is_identity()
        assert is_involution == s.is_involutive()
        involutive_count += is_involution
    print(
        f"criterion 5 (solution end-to-end): PASS — {len(structures)} structures; "
        f"endomorphism, braid matrix, bijectivity exact; involution <=> p = d "
        f"({involutive_count} involutive)"
    )


def test_criterion_6_nonroot_family(nonroot_structures):
    for inp, s in nonroot_structures:
        assert check_braid_reduced(s)
        assert check_braid_full(s)
        assert s.is_involutive() == (inp.mu == inp.lambdas[0])
    with pytest.raises(RootOfUnityLambda):
        NonRootFamilyInput(3, [Fraction(-1), Fraction(1)], Fraction(2))
    print(
        f"criterion 6 (non-root family): PASS — {len(nonroot_structures)} structures; "
        f"braid exact; p = d exactly when mu = lambda_1; root-of-unity guard active"
    )


def test_criterion_7_n3_fixtures(fixture_structures):
    assert len(fixture_structures) == 9
    for fixture in fixture_structures:
        assert check_braid_reduced(fixture.structure)

    negative = [f for f in fixture_structures if f.name == "negative_step"]
    for f in negative:
        p12, p20 = f.parameters["p12"], f.parameters["p20"]
        assert f.structure.p.entry(2, 2, 1) == Fraction(-5) * p12 * p20 / 2

    mixed = [f for f in fixture_structures if f.name == "mixed_step"]
    assert mixed
    for f in mixed:
        m = build_solution(f.structure)
        assert check_braid_on_map(m)
        assert not m.compose(m).is_identity()
    print(
        "criterion 7 (n=3 fixtures): PASS — 3 families x 3 points verified; "
        "closed forms reproduced; mixed family non-involutive"
    )


def test_criterion_8_reduction_equivalence():
    rng = random.Random(SEED + 8)
    n = 3
    passes = 0
    for _ in range(100):
        p = extend_from_level1(random_level1(rng, n))
        d = extend_from_level1(random_level1(rng, n))
        s = QCycleStructure(p, d)
        reduced = bool(check_braid_reduced(s))
        full = bool(check_braid_full(s))
        assert reduced == full
        passes += reduced
    print(
        f"criterion 8 (reduction equivalence): PASS — 100 random comultiplicative "
        f"pairs at n=3, identical verdicts ({passes} pass both checks)"
    )


def test_criterion_9_mutation_sensitivity(
    standard_bundles, nonroot_structures, fixture_structures
):
    rng = random.Random(SEED + 9)
    structures = [
        QCycleStructure.involutive(bundle.tensor) for _, _, bundle in standard_bundles
    ]
    structures += [s for _, s in nonroot_structures]
    structures += [f.structure for f in fixture_structures]
    for s in structures:
        n = s.n
        # one entry of one of the two tensors gets bumped by 1
        side = rng.choice(("p", "d"))
        i, j, k = (rng.randrange(n) for _ in range(3))
        if side == "p":
            mutated = QCycleStructure(
                s.p.with_entry(i, j, k, s.p.entry(i, j, k) + 1), s.d
            )
        else:
            mutated = QCycleStructure(
                s.p, s.d.with_entry(i, j, k, s.d.entry(i, j, k) + 1)
            )
        bumped = mutated.p if side == "p" else mutated.d
        detected = not is_coalgebra_morphism(bumped)
        if not detected:
            try:
                detected = not check_braid_reduced(mutated)
            except NotComultiplicative:
                detected = True
        if not detected:
            try:
                detected = not structural_lemma_suite(bumped).ok
            except NotComultiplicative:
                detected = True
        assert detected, (s.n, side, i, j, k)
    print(
        f"criterion 9 (mutation sensitivity): PASS — one random +1 perturbation per "
        f"structure ({len(structures)} total), every mutation detected"
    )
