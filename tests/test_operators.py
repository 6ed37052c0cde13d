import random
from collections import Counter
from fractions import Fraction

import pytest

from qcycle import operators
from qcycle.errors import DegreeOutOfRange, InvariantViolation, SeriesError
from qcycle.operators import OperatorContext, braid_sums, build_context, identity_suite
from qcycle.series import Series1, Series2, compose
from qcycle.standard import StandardCycleParams, build_standard_cycle
from qcycle.tensor import CoeffTensor

from conftest import random_fraction, random_series1
from oracles import (
    braid_match_by_fractions,
    braid_sum,
    global_checks_on_basis,
    oracle_global,
    oracle_x,
    oracle_y,
    tilde_x_pass_by_series,
    x_commutation_by_series,
    xy_commutation_by_series,
)


def make_context(n, v0, tail, pad=2):
    bundle = build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail))
    return build_context(bundle, order=n + pad)


@pytest.fixture(scope="module")
def ctx_deg1():
    return make_context(4, 1, [Fraction(1, 2), -1])


@pytest.fixture(scope="module")
def ctx_deg2():
    return make_context(5, 2, [1, Fraction(1, 3)])


class TestBasics:
    def test_partial_zero_is_identity(self, ctx_deg1, rng):
        h = random_series1(rng, ctx_deg1.order)
        assert ctx_deg1.partial_x(0, h) == h

    def test_gap_below_degree(self, ctx_deg2, rng):
        h = random_series1(rng, ctx_deg2.order)
        assert ctx_deg2.partial_x(1, h).is_zero()

    def test_degree_slice_is_derivation(self, ctx_deg2, rng):
        h = random_series1(rng, ctx_deg2.order)
        assert ctx_deg2.partial_x(2, h) == ctx_deg2.column * h.derivative()

    def test_row_flow(self, ctx_deg2):
        v0 = ctx_deg2.degree
        lhs = ctx_deg2.partial_x(v0, ctx_deg2.row)
        assert lhs == ctx_deg2.row * (ctx_deg2.f_power(v0).add_constant(-1))

    def test_tilde_unit(self, ctx_deg2, rng):
        h = random_series1(rng, ctx_deg2.order)
        t1 = ctx_deg2.tilde_partial_x(1, h)
        assert t1 == ctx_deg2.column * h.derivative()
        assert t1 == ctx_deg2.partial_x(ctx_deg2.degree, h)

    def test_degree_bound(self, ctx_deg1):
        with pytest.raises(DegreeOutOfRange):
            ctx_deg1.partial_x(ctx_deg1.order, Series1.x(ctx_deg1.order))
        with pytest.raises(DegreeOutOfRange):
            ctx_deg1.partial_y(ctx_deg1.order, Series2.zero(ctx_deg1.order))

    def test_y_twist_on_table(self, ctx_deg2):
        v0 = ctx_deg2.degree
        lhs = ctx_deg2.partial_y(v0, ctx_deg2.table)
        twist = ctx_deg2.f_power(v0).add_constant(-1)
        assert lhs == ctx_deg2.partial_x(v0, ctx_deg2.table).mul_y_series(twist)

    def test_y_operators_reject_a_series1(self, ctx_deg1):
        # a Series1 has no y-index, so no operator along y or global one
        # may read its x-coefficients as if they were y-coefficients
        ctx, N = ctx_deg1, ctx_deg1.order
        assert (N, ctx.degree) == (6, 1)
        h = Series1.monomial(2, N)
        cases = [lambda v: ctx.partial_y(v, h), lambda v: ctx.tilde_partial_y(v, h),
                 lambda v: ctx.partial_global(v, h), lambda v: ctx.tilde_partial_global(v, h),
                 lambda v: ctx.global_table("table_reduced", h, v + 1),
                 lambda v: ctx.global_table("p_series", h, v + 1)]
        for op in cases:
            for v in (0, 1, N - 1):
                with pytest.raises(SeriesError, match="acts on a Series2, not a Series1"):
                    op(v)
        # the same series in x, as a Series2, is killed by partial_y
        assert ctx.partial_y(1, Series2.from_x_series(h, N)).is_zero()


def random_series2(rng, order):
    return Series2([[random_fraction(rng) for _ in range(order)] for _ in range(order)])


def edge_inputs(rng, N):
    """Inputs for the integer kernel's zero skips, sparse columns and common
    denominators: the zero series; monomials, a random one and each basis
    monomial x^a, and x^a y^(N - 1 - a) for each a (so each row and column
    index of an operator matrix once); a grid with a single nonzero in each
    line; a grid whose even x- and y-fibres are all zero; and large coprime
    denominators."""
    big = [Fraction(1, 97), Fraction(5, 101), Fraction(-3, 103)]
    h1 = [
        Series1.zero(N),
        Series1.monomial(rng.randrange(N), N, Fraction(5, 101)),
        Series1([big[u % 3] * (u % 2) for u in range(N)]),
    ] + [Series1.monomial(a, N) for a in range(N)]
    sparse = [[random_fraction(rng) if u % 2 and w % 2 else 0 for w in range(N)] for u in range(N)]
    single = [[random_fraction(rng) or 1 if w == (u * 3) % N else 0 for w in range(N)]
              for u in range(N)]
    h2 = [
        Series2.zero(N),
        Series2.monomial(rng.randrange(N), rng.randrange(N), N, Fraction(1, 97)),
        Series2(sparse),
        Series2([[big[(u + w) % 3] for w in range(N)] for u in range(N)]),
        Series2(single),
    ] + [Series2.monomial(a, N - 1 - a, N, Fraction(-5, 7)) for a in range(N)]
    return h1, h2


def sparse_inputs(rng, N):
    """Inputs with one to three nonzeros: monomials with unit and other
    coefficients, one at the corner x^(N-1) y^(N-1), and grids with one,
    two and three nonzeros at cells drawn from rng."""
    def sparse(terms, unit=False):
        cells = rng.sample([(c, d) for c in range(N) for d in range(N)], terms)
        return Series2([[(1 if unit else random_fraction(rng) or Fraction(-5, 7))
                         if (c, d) in cells else 0 for d in range(N)] for c in range(N)])

    return [Series2.monomial(0, 1, N), Series2.monomial(N - 1, N - 1, N), sparse(1, True),
            Series2.monomial(1, 2, N, Fraction(-5, 7)), sparse(1), sparse(2), sparse(3)]


def assert_matches_defining_formula(ctx, h1, h2):
    """Every operator at every degree, on the one-variable inputs h1 and the
    two-variable inputs h2 (the global operators on h2[0]), against the
    defining formula."""
    v0, H = ctx.degree, h2[0]
    for v in range(ctx.order):
        for name, px, py, pg in (
            ("table_reduced", ctx.partial_x, ctx.partial_y, ctx.partial_global),
            ("p_series", ctx.tilde_partial_x, ctx.tilde_partial_y, ctx.tilde_partial_global),
        ):
            for one in h1:
                assert px(v, one) == oracle_x(ctx, name, v, one), (v0, v, name)
            for two in h2:
                assert px(v, two) == oracle_x(ctx, name, v, two), (v0, v, name)
                assert py(v, two) == oracle_y(ctx, name, v, two), (v0, v, name)
            assert pg(v, H) == oracle_global(ctx, name, v, H), (v0, v, name)


class TestMatrixKernel:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_defining_formula(self, n):
        rng = random.Random(100 + n)
        for v0 in range(1, n):
            tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
            ctx = make_context(n, v0, tail)
            N = ctx.order
            h, H = random_series1(rng, N), random_series2(rng, N)
            # the edge inputs spread over the v0, so that each runs once per n
            edge1, edge2 = edge_inputs(rng, N)
            assert_matches_defining_formula(
                ctx, [h] + edge1[v0 - 1::n - 1], [H] + edge2[v0 - 1::n - 1])

    @pytest.mark.parametrize("n", [7, 8, 9])
    def test_matches_defining_formula_at_high_order(self, n):
        # v0 = n - 1, the sparse structure, at orders 7-9 with no padding;
        # the one-variable edge inputs all run, the two-variable ones in
        # turn over the first four kinds (zero, a monomial, the sparse grid
        # and the large denominators)
        rng = random.Random(400 + n)
        ctx = make_context(n, n - 1, [], pad=0)
        N = ctx.order
        edge1, edge2 = edge_inputs(rng, N)
        assert_matches_defining_formula(
            ctx, [random_series1(rng, N)] + edge1, [random_series2(rng, N), edge2[n % 4]])

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_global_table_matches_per_degree(self, n):
        # against the per-degree operators on every input, and against the
        # defining formula (`oracle_global`) on the sparse ones
        rng = random.Random(200 + n)
        for v0 in sorted({1, n // 2, n - 1}):
            ctx = make_context(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
            N = ctx.order
            sparse = sparse_inputs(rng, N)
            inputs = [random_series2(rng, N)] + edge_inputs(rng, N)[1] + sparse + [ctx.flip, ctx.table]
            for H in inputs:
                for name, pg in (("table_reduced", ctx.partial_global),
                                 ("p_series", ctx.tilde_partial_global)):
                    table = ctx.global_table(name, H, N)
                    assert len(table) == N
                    for k in range(N):
                        assert table[k] == pg(k, H), (v0, name, k)
                        if H in sparse:
                            assert table[k] == oracle_global(ctx, name, k, H), (v0, name, k, H)
                    assert ctx.global_table(name, H, 2) == table[:2]
                    for count in (0, N + 1):
                        with pytest.raises(DegreeOutOfRange):
                            ctx.global_table(name, H, count)

    def test_inputs_at_another_order_raise(self, ctx_deg2, rng):
        ctx = ctx_deg2
        N = ctx.order
        x_ops = (ctx.partial_x, ctx.tilde_partial_x)
        all_ops = x_ops + (
            ctx.partial_y, ctx.tilde_partial_y, ctx.partial_global, ctx.tilde_partial_global,
            lambda v, H: ctx.global_table("table_reduced", H, v + 1),
            lambda v, H: ctx.global_table("p_series", H, v + 1),
        )
        for order in (N - 1, N + 1):
            cases = [(op, random_series2(rng, order)) for op in all_ops]
            cases += [(op, random_series1(rng, order)) for op in x_ops]
            for op, h in cases:
                for v in (0, 1, ctx.degree):
                    with pytest.raises(SeriesError, match=f"order {order}, .* order {N}"):
                        op(v, h)


class TestColumnKernel:
    """`OperatorContext._image` on the matrices stored by columns, through
    every operator at every degree, on every edge input, against the
    defining formula: at the least order (N = 2, no padding), with padding
    1, and at v0 = 1 and n - 1."""

    @pytest.mark.parametrize("n,v0,pad", [(2, 1, 0), (4, 1, 2), (4, 3, 2), (5, 2, 1)])
    def test_images_match_entry_definition(self, n, v0, pad):
        rng = random.Random(900 + 10 * n + v0)
        ctx = make_context(n, v0, [random_fraction(rng) or 1 for _ in range(n - v0 - 1)], pad)
        N = ctx.order
        edge1, edge2 = edge_inputs(rng, N)
        assert_matches_defining_formula(
            ctx, [random_series1(rng, N)] + edge1, [random_series2(rng, N)] + edge2)


class TestEigenSeries:
    def test_alternating_eigenfunction(self, ctx_deg1):
        # for the column x(1+x) the eigenfunction is x - x^2 + x^3 - ...
        q = ctx_deg1.eigenfunction
        bundle = build_standard_cycle(StandardCycleParams.from_tail(4, 1, [0, 0]))
        ctx = build_context(bundle, order=6)
        assert ctx.eigenfunction == Series1([0, 1, -1, 1, -1, 1])

    def test_eigen_ode(self, ctx_deg2):
        q = ctx_deg2.eigenfunction
        assert ctx_deg2.column * q.derivative() == q

    def test_inverse_round_trip(self, ctx_deg2):
        N = ctx_deg2.order
        assert compose(ctx_deg2.eigenfunction, ctx_deg2.eigenfunction_inv) == Series1.x(N)

    def test_power_identity(self, ctx_deg2):
        v0 = ctx_deg2.degree
        lhs = (ctx_deg2.eigenfunction ** v0).scale(v0)
        rhs = Series1.one(ctx_deg2.order) - ctx_deg2.f_power(v0).reciprocal()
        assert lhs == rhs

    def test_row_at_inverse_closed_form(self, ctx_deg2):
        v0 = ctx_deg2.degree
        N = ctx_deg2.order
        fa = compose(ctx_deg2.row, ctx_deg2.eigenfunction_inv)
        denominator = Series1.one(N) - Series1.monomial(v0, N, v0)
        assert fa ** v0 == denominator.reciprocal()


class TestSuite:
    @pytest.mark.parametrize(
        "n,v0,tail",
        [
            (3, 1, [2]),
            (4, 1, [Fraction(1, 2), -1]),
            (4, 3, []),
            (5, 2, [0, Fraction(2, 3)]),
        ],
    )
    def test_identity_suite_green(self, n, v0, tail):
        ctx = make_context(n, v0, tail)
        report = identity_suite(ctx)
        assert report.ok, [c.name for c in report.failures()]

    def test_suite_covers_core_identities(self):
        ctx = make_context(3, 1, [1])
        names = {c.name for c in identity_suite(ctx).checks}
        assert {
            "global_slice_symmetry",
            "braid_sum_match",
            "partial_x_commutation",
            "eigen_power_vs_row",
            "row_at_eigen_inverse",
            "transport_ode",
            "tilde_flip_transport",
            "main_series_identity",
            "binomial_transform_pair",
        } <= names


# -- the braid-sum table and planted faults ---------------------------------------


def perturbed(t, i, j, k, delta):
    entries = [[list(col) for col in row] for row in t.entries]
    entries[i][j][k] += delta
    return CoeffTensor(entries)


class TestPlantedFaults:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_braid_sums_match_oracle(self, n):
        rng = random.Random(300 + n)
        tensors = []
        for v0 in sorted({1, n // 2, n - 1}):
            tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
            tensors.append(build_standard_cycle(StandardCycleParams.from_tail(n, v0, tail)).tensor)
        tensors.append(perturbed(tensors[0], n - 1, 1, 1, Fraction(3, 7)))
        for t in tensors:
            sums, den = braid_sums(t)
            for i in range(n):
                for j in range(n):
                    for k in range(n):
                        assert Fraction(sums[i][j * n + k], den) == braid_sum(t, i, j, k)

    def test_perturbed_tensor_fails_braid_sum_match(self):
        ctx = make_context(4, 1, [Fraction(1, 2), -1])
        ctx = ctx._replaced(tensor=perturbed(ctx.tensor, 2, 1, 1, Fraction(1, 3)))
        failed = {c.name for c in identity_suite(ctx).failures()}
        assert "braid_sum_match" in failed

    @pytest.mark.parametrize("n,v0", [(4, 1), (4, 3)])
    def test_perturbed_p_series_fails_a_tilde_check(self, n, v0):
        ctx = make_context(n, v0, [Fraction(1, 2)] * (n - v0 - 1))
        assert not ctx._matrices
        bump = Series2.monomial(2, 2, ctx.order, Fraction(1, 5))
        ctx = ctx._replaced(p_series=ctx.p_series + bump)
        failed = {c.name for c in identity_suite(ctx).failures()}
        # P no longer solves its recursion, so tilde_x_recursion fails, and
        # with it both identities of the global tilde operator
        assert {"tilde_x_recursion", "tilde_global_recursion",
                "tilde_global_binomial"} <= failed, failed

    def test_first_failure_is_the_least_failing_degree(self):
        # This Gbar fails partial_x_from_tilde first at v = 2, on some x^a;
        # partial_global_from_tilde fails first at that degree too.
        ctx = make_context(4, 1, [Fraction(1, 2), Fraction(1, 2)])
        N = ctx.order
        assert not ctx._matrices
        bump = Series2.monomial(0, 0, N, Fraction(1, 5)) + Series2.monomial(0, 3, N, Fraction(1, 5))
        ctx = ctx._replaced(table_reduced=ctx.table_reduced + bump)
        details = {c.name: c.detail for c in identity_suite(ctx).failures()}
        assert details["partial_x_from_tilde"] == "first failure at 2"
        assert details["partial_global_from_tilde"] == "first failure at 2"

    @pytest.mark.parametrize("n", [7, 8])
    def test_from_tilde_reads_a_degree_at_high_v0(self, n):
        # at v0 = n - 1 >= 6 both sides of partial^v = sum_u (fbar^u)_v
        # tilde^u vanish for v < v0, so the check must read a degree v >= v0:
        # a P planted at x^v0 y fails it there, as its Series form does
        ctx = make_context(n, n - 1, [])
        bump = Series2.monomial(n - 1, 1, ctx.order, Fraction(1, 5))
        planted = ctx._replaced(p_series=ctx.p_series + bump)
        report = {c.name: c for c in identity_suite(planted).checks}
        wants = {want.name: want for want in tilde_x_pass_by_series(planted, suite_inputs(planted))}
        for name in ("partial_x_from_tilde", "partial_global_from_tilde"):
            assert not wants[name].ok and report[name] == wants[name], name
        assert int(report["partial_global_from_tilde"].detail.split()[-1]) >= n - 1

# -- the checks that compare integer images, against their Series forms ----------


def suite_inputs(ctx):
    """The one-variable inputs of identity_suite(ctx), in its order: the
    monomials x^a, a < N."""
    return [Series1.monomial(a, ctx.order) for a in range(ctx.order)]


# A plant takes a context and an rng and returns the context to run the suite
# on: the same one with a private kernel or cache entry planted, or a copy
# holding a changed series (`_replaced`).


def plant_matrix_entry(ctx, key, rng, at=None):
    """Add 1 to the numerator of entry [u][c] of the cached operator matrix
    `key`, which is stored by columns: at (u, c) = at, or drawn from rng."""
    cols, den = ctx._matrix(*key)
    u, c = at or (rng.randrange(ctx.order), rng.randrange(ctx.order))
    column = dict(cols[c])
    column[u] = column.get(u, 0) + 1
    cols = list(cols)
    cols[c] = tuple(sorted((row, entry) for row, entry in column.items() if entry))
    ctx._matrices[key] = (tuple(cols), den)
    return ctx


def plant_y_kernel(ctx, rng, mix):
    """A kernel fault in the images along y of partial^d, d drawn from 1-4:
    each gains 1 at x^0 y^0 (mix False), or the input's x^1 y^0 numerator
    there (mix True, on two-variable inputs).  Matrices alone cannot fail
    xy_commutation, since images along x and along y act on different
    indices; these kernels mix the x-index into an image along y."""
    image, degree = ctx._image, rng.randrange(1, min(ctx.order, 5))

    def faulty(name, v, nums, along_y):
        rows, den = image(name, v, nums, along_y)
        if along_y and (name, v) == ("table_reduced", degree):
            rows[0][0] += nums[1][0] if mix and len(nums) > 1 else (not mix)
        return rows, den

    ctx._image = faulty
    return ctx


PLANTS = {
    "none": lambda ctx, rng: ctx,
    "y_offset_kernel": lambda ctx, rng: plant_y_kernel(ctx, rng, False),
    "y_mix_kernel": lambda ctx, rng: plant_y_kernel(ctx, rng, True),
    "gbar_matrix": lambda ctx, rng: plant_matrix_entry(
        ctx, ("table_reduced", rng.randrange(1, min(ctx.order, 5))), rng),
    "p_unit_matrix": lambda ctx, rng: plant_matrix_entry(ctx, ("p_series", 1), rng),
    "p_cube_matrix": lambda ctx, rng: plant_matrix_entry(ctx, ("p_series", 3), rng),
    "p_series": lambda ctx, rng: ctx._replaced(
        p_series=ctx.p_series + Series2.monomial(2, 2, ctx.order, Fraction(1, 5))),
}


def plant_x_image(ctx, key, hit, add):
    """A fault in the images (`OperatorContext._image`) of one-variable
    inputs under the matrix `key`: each whose numerators hit(row) selects
    gains add(row) at x^0."""
    image = ctx._image

    def faulty(name, v, nums, along_y):
        rows, den = image(name, v, nums, along_y)
        if (name, v) == key and len(nums) == 1 and hit(nums[0]):
            rows[0][0] += add(nums[0])
        return rows, den

    ctx._image = faulty
    return ctx


def plant_tilde_x_step(ctx, rng, inputs):
    """tilde_x^1 on one-variable inputs other than the suite's own, that is
    on the tilde_x^{v-1} h of the recursion: each gains its x^a numerator."""
    a, own = rng.randrange(ctx.order), {h._nums for h in inputs}
    return plant_x_image(ctx, ("p_series", 1), lambda row: row not in own, lambda row: row[a])


def plant_partial_x_table(ctx, rng, inputs):
    """partial_x^d x^a gains a constant, for one a != 1 and one d > v0:
    partial_x^d x^a is read by partial_x_from_tilde alone, and as an input
    of partial_x_commutation, whose operators of degree >= 1 kill a
    constant."""
    N, v0 = ctx.order, ctx.degree
    a, d = rng.choice([0] + list(range(2, N))), rng.randrange(v0 + 1, N)
    row = Series1.monomial(a, N)._nums
    return plant_x_image(ctx, ("table_reduced", d), lambda nums: nums == row, lambda nums: 1)


# checks -> the plant whose fault no other check of the suite meets: a
# one-variable check and the global checks the suite decides from it
ONE_CHECK_PLANTS = {
    ("tilde_x_recursion", "tilde_global_recursion", "tilde_global_binomial"): plant_tilde_x_step,
    ("partial_x_from_tilde", "partial_global_from_tilde"): plant_partial_x_table,
}


class TestImageComparisons:
    """Each check that compares stored integers in place of series gives
    the verdict and the first failure of its Series form (`oracles`):
    partial_x_commutation and xy_commutation on integer images
    (`OperatorContext._image`), the tilde_x recursion on the integer image
    tilde_x^1 tilde_x^{v-1} h, partial_x^v = sum_u (fbar^u)_v tilde_x^u on
    `_is_combination`, and braid_sum_match on the numerators of
    partial^j G."""

    @pytest.mark.parametrize("n", [4, 5])
    def test_match_series_oracles(self, n):
        rng = random.Random(700 + n)
        failed = Counter()
        for v0 in (1, n - 1):
            tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
            for plant in PLANTS:
                # a planted matrix entry or kernel degree is drawn at random, so twice
                for _ in range(1 if plant in ("none", "p_series") else 2):
                    ctx = PLANTS[plant](make_context(n, v0, tail), rng)
                    report = {c.name: c for c in identity_suite(ctx).checks}
                    oracles = [x_commutation_by_series(ctx, suite_inputs(ctx)),
                               xy_commutation_by_series(ctx)]
                    for want in oracles:
                        assert report[want.name] == want, (v0, plant)
                        failed[want.name] += not want.ok
                    if plant == "none":
                        assert all(want.ok for want in oracles), v0
        # every rewritten check met a planted fault
        assert set(failed) == {"partial_x_commutation", "xy_commutation"}
        assert all(failed.values()), failed

    @pytest.mark.parametrize("n", [4, 5])
    def test_planted_fault_meets_one_check(self, n):
        """A fault that only the named checks meet: they report what their
        Series forms report under it, and every other check passes."""
        rng = random.Random(800 + n)
        failed = Counter()
        for v0 in (1, n - 1):
            tail = [random_fraction(rng) for _ in range(n - v0 - 1)]
            for names, plant in ONE_CHECK_PLANTS.items():
                for _ in range(3):
                    ctx = make_context(n, v0, tail)
                    x1 = suite_inputs(ctx)
                    ctx = plant(ctx, rng, x1)
                    report = identity_suite(ctx)
                    checks = {c.name: c for c in report.checks}
                    for want in tilde_x_pass_by_series(ctx, x1):
                        if want.name in names:
                            assert checks[want.name] == want, (v0, names)
                            failed[want.name] += not want.ok
                    assert {c.name for c in report.failures()} <= set(names), (v0, names)
        # every plant met its checks
        assert set(failed) == {name for names in ONE_CHECK_PLANTS for name in names}
        assert all(failed.values()), failed

    @pytest.mark.parametrize("n,v0", [(4, 1), (5, 4)])
    def test_braid_sum_match_on_a_planted_sum(self, monkeypatch, n, v0):
        """braid_sum_match against its `Fraction` form, with one braid sum
        R(i, j, k) off by 1 / den for j, k != v0, which no other check
        reads, and with none."""
        rng = random.Random(850 + n)
        ctx = make_context(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
        N = ctx.order
        plants = [None] + [(rng.randrange(1, N), rng.choice([j for j in range(N) if j != v0]),
                            rng.choice([k for k in range(1, N) if k != v0])) for _ in range(4)]
        for plant in plants:
            def planted(t, at=plant):
                sums, den = braid_sums(t)
                if at:
                    i, j, k = at
                    sums[i][j * N + k] += 1
                return sums, den

            monkeypatch.setattr(operators, "braid_sums", planted)
            report = identity_suite(ctx)
            want = braid_match_by_fractions(ctx, *planted(ctx.tensor))
            assert want.ok == (plant is None)
            assert [c for c in report.checks if not c.ok] == ([] if want.ok else [want])
            assert {c.name: c for c in report.checks}["braid_sum_match"] == want

    def test_work_per_suite_run(self, monkeypatch):
        """The kernel images and global sums of one suite run at n = 7,
        v0 = 1, pad 2, so that a duplicated image shows here.  The only
        global sums are the tables partial^k G and tilde^k F, k < N = 9,
        each normalised once (`_global_sum` over `_global_rows`)."""
        counts = Counter()
        for name in ("_image", "_global_rows", "_global_sum"):
            def counted(self, *args, _name=name, _method=getattr(OperatorContext, name)):
                counts[_name] += 1
                return _method(self, *args)
            monkeypatch.setattr(OperatorContext, name, counted)
        ctx = make_context(7, 1, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2),
                                  Fraction(1, 3), Fraction(-3, 4)])
        assert identity_suite(ctx).ok
        assert counts == {"_image": 798, "_global_rows": 18, "_global_sum": 18}


# The plants that leave the kernel `_image` intact, so that the global
# operators are the sums of tensor products of their one-variable matrices
KERNEL_INTACT_PLANTS = ("none", "gbar_matrix", "p_unit_matrix", "p_cube_matrix", "p_series")


class TestGlobalLemma:
    """The suite decides tilde_global_recursion and tilde_global_binomial
    from tilde_x_recursion, and partial_global_from_tilde from
    partial_x_from_tilde (the lemma in the `operators` docstring), and runs
    xy_commutation on G alone.  Under each plant that leaves the kernel
    intact, the four report what the global identities themselves give on
    all N^2 monomials x^c y^d at every degree (`global_checks_on_basis`):
    the same verdict and the same least failing degree."""

    @pytest.mark.parametrize("v0", [1, 3])
    def test_global_checks_follow_the_lemma(self, v0):
        rng = random.Random(970 + v0)
        tail = [random_fraction(rng) or 1 for _ in range(4 - v0 - 1)]
        failed = Counter()
        for plant in KERNEL_INTACT_PLANTS:
            # a planted matrix entry is drawn at random, so three times
            for _ in range(1 if plant in ("none", "p_series") else 3):
                ctx = PLANTS[plant](make_context(4, v0, tail, pad=1), rng)
                report = {c.name: c for c in identity_suite(ctx).checks}
                for want in global_checks_on_basis(ctx):
                    assert report[want.name] == want, (plant, want.name)
                    failed[want.name] += not want.ok
        # each tilde identity met a fault; commutation holds for any matrices
        assert failed["xy_commutation"] == 0
        assert all(failed[name] for name in (
            "tilde_global_recursion", "tilde_global_binomial", "partial_global_from_tilde")), failed

    def test_global_recursion_reports_the_least_failing_degree(self):
        """tilde_x_recursion scans inputs first.  With g = x + x^2 and a
        tilde_x^1 entry planted at row 0, column 3, x fails it first at
        v = 3 and x^2 at v = 2, so its first failure is at 3; the global
        recursion, and the suite's check of it, fail first at 2."""
        ctx = plant_matrix_entry(make_context(4, 1, [0, 0], pad=1), ("p_series", 1), None,
                                 at=(0, 3))
        report = {c.name: c for c in identity_suite(ctx).checks}
        assert report["tilde_x_recursion"].detail == "first failure at 3"
        for want in global_checks_on_basis(ctx):
            assert report[want.name] == want, want.name
        assert report["tilde_global_recursion"].detail == "first failure at 2"


# -- whole suite reports on planted faults ------------------------------------------


def plant_tensor_entry(ctx, rng):
    t = ctx.tensor
    return ctx._replaced(tensor=t.with_entry(3, 1, 2, t.entry(3, 1, 2) + Fraction(1, 3)))


# PLANTS, and faults in the series the constructor once proved facts about
SUITE_PLANTS = {
    **PLANTS,
    "eigenfunction": lambda ctx, rng: ctx._replaced(
        eigenfunction=ctx.eigenfunction + Series1.monomial(3, ctx.order, Fraction(1, 5))),
    "column": lambda ctx, rng: ctx._replaced(
        column=ctx.column + Series1.monomial(3, ctx.order, Fraction(1, 7))),
    "transport": lambda ctx, rng: ctx._replaced(
        transport=ctx.transport + Series2.monomial(1, 2, ctx.order, Fraction(1, 3))),
    "tensor_entry": plant_tensor_entry,
}

# The (name, detail) pairs of report.failures(), per plant, at n = 5, v0 = 1,
# pad 2 and plant seed 11.
PLANTED_FAILURES = {
    "none": [],
    "y_offset_kernel": [
        ("partial_x_of_x_gives_slices", "first failure at 4"),
        ("partial_x_commutation", "first failure at (1, 4)"),
        ("xy_commutation", "first failure at (1, 4)"),
        ("partial_y_kills_pure_x", "first failure at 4"),
        ("column_slice_exchange", "first failure at 4"),
        ("global_slice_symmetry", "first failure at (0, 4)"),
        ("partial_x_from_tilde", "first failure at 4"),
        ("partial_global_from_tilde", "first failure at 4"),
        ("global_as_flip_convolution", "first failure at 4"),
    ],
    "y_mix_kernel": [
        ("xy_commutation", "first failure at (1, 4)"),
        ("partial_y_kills_pure_x", "first failure at 4"),
        ("global_slice_symmetry", "first failure at (0, 4)"),
        ("global_as_flip_convolution", "first failure at 4"),
    ],
    "gbar_matrix": [
        ("partial_x_commutation", "first failure at (1, 4)"),
        ("x_slice_symmetry", "first failure at (1, 4)"),
        ("column_slice_exchange", "first failure at 4"),
        ("global_slice_symmetry", "first failure at (1, 4)"),
        ("braid_sum_match", "first failure at (1, 4, 6)"),
        ("partial_x_from_tilde", "first failure at 4"),
        ("partial_global_from_tilde", "first failure at 4"),
        ("row_action_is_partial", "first failure at (6, 4)"),
        ("global_as_flip_convolution", "first failure at 4"),
    ],
    "p_unit_matrix": [
        ("tilde_x_unit", "first failure at unit"),
        ("tilde_x_recursion", "first failure at 2"),
        ("tilde_global_recursion", "first failure at 2"),
        ("tilde_global_binomial", "first failure at 2"),
        ("partial_x_from_tilde", "first failure at 1"),
        ("partial_global_from_tilde", "first failure at 1"),
        ("transport_ode", "first failure at ode"),
        ("tilde_flip_transport", "first failure at 1"),
        ("main_series_identity", "first failure at 1"),
    ],
    "p_cube_matrix": [
        ("tilde_x_recursion", "first failure at 3"),
        ("tilde_global_recursion", "first failure at 3"),
        ("tilde_global_binomial", "first failure at 3"),
        ("partial_x_from_tilde", "first failure at 3"),
        ("partial_global_from_tilde", "first failure at 3"),
        ("tilde_flip_transport", "first failure at 3"),
        ("main_series_identity", "first failure at 3"),
    ],
    "p_series": [
        ("tilde_x_recursion", "first failure at 2"),
        ("tilde_global_recursion", "first failure at 2"),
        ("tilde_global_binomial", "first failure at 2"),
        ("partial_x_from_tilde", "first failure at 2"),
        ("partial_global_from_tilde", "first failure at 2"),
        ("table_regrade_powers", "first failure at 1"),
        ("tilde_flip_transport", "first failure at 2"),
        ("main_series_identity", "first failure at 2"),
    ],
    "eigenfunction": [
        ("eigen_odes", "first failure at ode"),
        ("eigen_power_vs_row", "first failure at closed_form"),
        ("table_from_eigen", "first failure at flip_composition"),
        ("transport_chain", "first failure at to_eigen"),
    ],
    "column": [
        ("partial_x_degree_slice_derivation", "first failure at derivation"),
        ("column_slice_exchange", "first failure at 0"),
        ("tilde_x_unit", "first failure at unit"),
        ("eigen_odes", "first failure at ode"),
    ],
    "transport": [
        ("transport_chain", "first failure at transport"),
        ("transport_ode", "first failure at ode"),
        ("tilde_flip_transport", "first failure at 2"),
    ],
    "tensor_entry": [
        ("braid_sum_match", "first failure at (1, 1, 3)"),
        ("degree_slot_symmetry", "first failure at (1, 3)"),
        ("level_entry_binomial", "first failure at (1, 2, 1)"),
        ("row_action_is_partial", "first failure at (3, 1)"),
        ("flip_power_entries", "first failure at (3, 1, 2)"),
    ],
}


class TestPlantedReports:
    """Whole identity-suite reports under planted faults, pinned: each check
    keeps its verdict and its first failure.  The suite is the only place
    the eigenfunction ODE, the closed form of v0 q^{v0} and the regrading of
    Gbar are proved, so each of those checks must meet a fault here."""

    @pytest.mark.parametrize("plant", sorted(SUITE_PLANTS))
    def test_failures_are_pinned(self, plant):
        ctx = make_context(5, 1, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])
        ctx = SUITE_PLANTS[plant](ctx, random.Random(11))
        report = identity_suite(ctx)
        assert [(c.name, c.detail) for c in report.failures()] == PLANTED_FAILURES[plant]

    def test_suite_only_checks_meet_a_fault(self):
        failed = {name for pairs in PLANTED_FAILURES.values() for name, _ in pairs}
        assert {"eigen_odes", "eigen_power_vs_row", "table_regrade_powers"} <= failed
        assert set(PLANTED_FAILURES) == set(SUITE_PLANTS)


# The checks whose inputs are one-variable: the monomials x^a, and the
# pure-x series 1 + x + ... + x^{N-1} of partial_y_kills_pure_x
ONE_VARIABLE_CHECKS = {
    "partial_x_identity_and_gap", "partial_x_degree_slice_derivation",
    "partial_x_of_x_gives_slices", "partial_x_commutation", "partial_y_kills_pure_x",
    "tilde_x_unit", "tilde_x_recursion", "partial_x_from_tilde", "row_action_is_partial"}


class TestOneVariableInputs:
    """The one-variable checks read each operator on the basis x^a, a < N,
    so their PASS is a proof at order N, and no random input is left."""

    @pytest.mark.parametrize("key", [("table_reduced", 3), ("p_series", 2)])
    def test_every_matrix_entry_is_read(self, key):
        """A wrong entry at any (u, c) fails a one-variable check.  A wrong
        partial_x entry in a row u >= 1 fails row_action_is_partial itself,
        above the diagonal (c > u) too, where it compares with 0."""
        ctx = make_context(4, 1, [Fraction(1, 2), Fraction(-2, 3)], pad=1)
        N = ctx.order
        for u in range(N):
            for c in range(N):
                planted = plant_matrix_entry(ctx._replaced(), key, None, at=(u, c))
                failed = {check.name for check in identity_suite(planted).failures()}
                assert failed & ONE_VARIABLE_CHECKS, (u, c)
                if key[0] == "table_reduced" and u:
                    assert "row_action_is_partial" in failed, (u, c)

    @pytest.mark.parametrize("n,v0", [(5, 1), (5, 4), (7, 1), (7, 6)])
    def test_dropped_input_denominator_fails(self, monkeypatch, n, v0):
        """Each x^a is stored over denominator 1, so an `_apply` that drops
        its input's denominator leaves their images right; the checks on
        the table G, whose denominator is not 1, meet the fault."""
        def apply(self, name, v, h, along_y=False):
            self._check_input(v, h, along_y)
            if v == 0:
                return h
            rows, den = self._image(name, v, h._rows(), along_y or isinstance(h, Series1))
            return h._from_rows(rows, den)

        tail = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(-3, 4)]
        ctx = make_context(n, v0, tail[:n - v0 - 1])
        assert ctx.table._den != 1
        monkeypatch.setattr(OperatorContext, "_apply", apply)
        failed = {c.name for c in identity_suite(ctx).failures()}
        assert {"x_slice_symmetry", "column_slice_exchange",
                "global_as_flip_convolution"} <= failed, failed


class TestReplaced:
    """A built context's series are read-only.  `_replaced` makes a copy whose
    powers and operator matrices are built from the series it holds, and
    leaves the original and its caches as they were."""

    @pytest.mark.parametrize(
        "attr", ["table_reduced", "p_series", "flip", "transport", "row", "row_reduced"])
    def test_copy_follows_the_new_series(self, attr):
        ctx = make_context(5, 1, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])
        N, old = ctx.order, getattr(ctx, attr)
        # fill the original's caches first, so that a stale entry would show
        keys = [(name, v) for name in ("table_reduced", "p_series") for v in range(N)]
        powers = [ctx.power(attr, k) for k in range(N)]
        matrices = [ctx._matrix(*key) for key in keys]
        bump = Fraction(1, 3)
        new = old + (Series1.monomial(1, N, bump) if attr in ("row", "row_reduced")
                     else Series2.monomial(1, 2, N, bump))
        copy = ctx._replaced(**{attr: new})
        assert getattr(copy, attr) is new

        want = [new ** k for k in range(N)]
        assert [copy.power(attr, k) for k in range(N)] == want
        if attr in ("row", "row_reduced"):
            power = copy.f_power if attr == "row" else copy.fbar_power
            assert [power(k) for k in range(N)] == want
        if attr in ("table_reduced", "p_series"):
            # the copy's powers are those of the new series, so the oracle is too
            apply = copy.partial_x if attr == "table_reduced" else copy.tilde_partial_x
            rng = random.Random(17)
            h, H = random_series1(rng, N), random_series2(rng, N)
            for v in range(N):
                assert apply(v, h) == oracle_x(copy, attr, v, h), v
                assert apply(v, H) == oracle_x(copy, attr, v, H), v
            assert copy._matrix(attr, 2) != ctx._matrix(attr, 2)

        assert getattr(ctx, attr) is old
        assert all(ctx.power(attr, k) is p for k, p in enumerate(powers))
        assert all(ctx._matrix(*key) is m for key, m in zip(keys, matrices))
        for c in (ctx, copy):
            for name in [name for name in vars(c) if not name.startswith("_")]:
                with pytest.raises(AttributeError, match="_replaced"):
                    setattr(c, name, new)
        assert getattr(ctx, attr) is old and getattr(copy, attr) is new

    def test_only_series_can_be_replaced(self, ctx_deg1):
        # order, degree and bundle fix v0 < n <= N, which the suite reads unguarded
        for series in ({"no_such_series": 1}, {"_pows": {}}, {"row": ctx_deg1.row, "rows": 1},
                       {"order": ctx_deg1.order + 1}, {"degree": ctx_deg1.order},
                       {"bundle": ctx_deg1.bundle}):
            with pytest.raises(AttributeError, match="series of the context"):
                ctx_deg1._replaced(**series)

    def test_negative_powers_raise(self, ctx_deg2):
        for power in (lambda k: ctx_deg2.power("table_reduced", k),
                      ctx_deg2.f_power, ctx_deg2.fbar_power):
            with pytest.raises(SeriesError, match="negative power"):
                power(-1)


class TestConstructionChecks:
    """Each InvariantViolation exit of the constructor, met by a fault planted
    in the value of a series function it calls."""

    # check: (the function in `operators`, the monomial c x^a y^b added to its
    # value; b is None for a series in x)
    FAULTS = {
        "eigenfunction_inverse_roundtrip": ("compositional_inverse", 3, None, Fraction(1, 5)),
        "transport_vanishes_at_0": ("substitute_y", 2, 0, Fraction(1, 3)),
        "transport_unit_slice": ("substitute_y", 2, 1, Fraction(1, 3)),
    }

    @pytest.mark.parametrize("check", sorted(FAULTS))
    def test_planted_fault_raises(self, monkeypatch, check):
        target, a, b, c = self.FAULTS[check]
        made = getattr(operators, target)

        def faulty(*args):
            s = made(*args)
            N = s.trunc_order
            return s + (Series1.monomial(a, N, c) if b is None else Series2.monomial(a, b, N, c))

        monkeypatch.setattr(operators, target, faulty)
        with pytest.raises(InvariantViolation, match=f"^{check}$"):
            make_context(5, 1, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])
