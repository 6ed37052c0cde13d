import itertools
import json
from fractions import Fraction
from math import comb, gcd

import pytest

from qcycle.errors import BadLinearTerm, NotComultiplicative, ParseError, ZeroLambda
from qcycle.series import Series1, Series2
from qcycle.solution import check_braid_reduced
from qcycle.tensor import (
    CoeffTensor,
    QCycleStructure,
    counit_action,
    extend_from_level1,
    is_coalgebra_morphism,
    reconstruct_f_from_g,
    rescale,
    rescale_tensor,
    structural_lemma_suite,
)

from conftest import random_fraction, random_level1, standard_structure
from oracles import (
    is_morphism_by_definition,
    series2_product_by_fractions,
    tensor_from_payload_by_fractions,
)


def vanishing_params_level1(n):
    """Level-1 grid with t[i][j][1] = C(1, i-j) for i + j > 0."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for i in range(1, n):
        for j in range(n):
            if 0 <= i - j <= 1:
                grid[i][j] = Fraction(1)
    return grid


def all_ones_level1(n):
    """Level-1 grid of the structure whose row parameters are all 1."""
    grid = [[Fraction(0)] * n for _ in range(n)]
    for j in range(n):
        grid[1][j] = Fraction(1)
    return grid


def _morphism_cases(rng, n):
    """Extensions with a zero top row, a nonzero top row, or t[0][0][1] != 0,
    and one-entry +-1 perturbations of each.  Every other nonzero top row
    comes with a zero first column, so that G lies in (v) and G^n = 0.  Then,
    from one morphism: a perturbed entry at each level k, a broken counit,
    and G = u + v, whose levels below n are its powers but G^n != 0."""
    base = extend_from_level1(random_level1(rng, n))
    cases = []
    for k in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        cases.append(base.with_entry(i, j, k, base.entry(i, j, k) + random_fraction(rng) + 1))
    cases.append(base.with_entry(rng.randrange(1, n), 0, 0, Fraction(1, 2)))
    two_sided = [[Fraction(0)] * n for _ in range(n)]
    two_sided[1][0] = two_sided[0][1] = Fraction(1)
    cases.append(extend_from_level1(two_sided))
    for round_ in range(14):
        zero_top = extend_from_level1(random_level1(rng, n))
        top = random_level1(rng, n, zero_top_row=False)
        top[0][rng.randrange(1, n)] = random_fraction(rng, 2) or Fraction(1)
        if round_ % 2:
            for i in range(1, n):
                top[i][0] = Fraction(0)
        constant = random_level1(rng, n)
        constant[0][0] = random_fraction(rng, 2) or Fraction(-1)
        for t in (zero_top, extend_from_level1(top), extend_from_level1(constant)):
            cases.append(t)
            i, j, k = (rng.randrange(n) for _ in range(3))
            cases.append(t.with_entry(i, j, k, t.entry(i, j, k) + rng.choice((-1, 1))))
    return cases


class TestMorphismCheck:
    def test_vanishing_params_tensor_is_morphism(self):
        t = extend_from_level1(vanishing_params_level1(4))
        assert is_coalgebra_morphism(t)

    def test_group_like_violation(self):
        t = counit_action(3).with_entry(0, 0, 1, 1)
        report = is_coalgebra_morphism(t)
        assert not report
        assert report.violation[:2] == (0, 0)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_definition(self, rng, n):
        verdicts = {True: 0, False: 0}
        kinds = set()
        for t in _morphism_cases(rng, n):
            report = is_coalgebra_morphism(t)
            assert report == is_morphism_by_definition(t)
            ok = bool(report)
            verdicts[ok] += 1
            if not ok:
                _i, _j, l, h = report.violation[:4]
                kinds.add("counit" if l == 0 else "top power" if l + h == n else "level")
        assert min(verdicts.values()) >= 20
        # at n = 2 the only level above 1 is the top power G^2
        assert kinds == {"counit", "top power"} | ({"level"} if n > 2 else set())

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_sided_steps_rejected_at_top_power(self, n):
        # G = u + v: levels below n are its powers, but G^n != 0.
        level1 = [[Fraction(0)] * n for _ in range(n)]
        level1[1][0] = level1[0][1] = Fraction(1)
        t = extend_from_level1(level1)
        report = is_coalgebra_morphism(t)
        assert not report and not is_morphism_by_definition(t)
        assert report.violation[2] + report.violation[3] == n


class TestMorphismMemo:
    """`is_coalgebra_morphism` keeps its report on the tensor (`_morph`), so
    each tensor object is walked once; equality and hash ignore the slot."""

    @pytest.fixture
    def walks(self, monkeypatch):
        from qcycle import tensor

        calls = []
        inner = tensor._chain_break

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(tensor, "_chain_break", counted)
        return calls

    def test_repeated_calls_walk_once(self, rng, walks):
        t = extend_from_level1(random_level1(rng, 5))
        reports = [is_coalgebra_morphism(t) for _ in range(3)]
        assert reports[0] and reports[0] == reports[1] == reports[2]
        assert len(walks) == 1
        twin = CoeffTensor(t.entries)
        assert is_coalgebra_morphism(twin) == reports[0]
        assert len(walks) == 2

    def test_failing_tensor_keeps_its_first_violation(self, rng, walks):
        base = extend_from_level1(random_level1(rng, 5))
        t = base.with_entry(3, 1, 2, base.entry(3, 1, 2) + 1)
        first = is_coalgebra_morphism(t)
        assert not first and first == is_morphism_by_definition(t)
        assert is_coalgebra_morphism(t).violation == first.violation
        assert len(walks) == 1

    def test_equality_and_hash_ignore_the_report(self, rng):
        t = extend_from_level1(random_level1(rng, 4))
        twin = CoeffTensor(t.entries)
        assert t == twin and hash(t) == hash(twin)
        is_coalgebra_morphism(t)   # t holds a report, twin none
        assert t == twin and hash(t) == hash(twin) and len({t, twin}) == 1
        is_coalgebra_morphism(twin)
        assert t == twin and hash(t) == hash(twin)

    @pytest.mark.parametrize("involutive", [True, False])
    def test_verify_walks_each_tensor_once(self, rng, tmp_path, monkeypatch, walks, involutive):
        from qcycle import cli, solution

        checked = []

        def counting(t):
            checked.append(t)
            return is_coalgebra_morphism(t)

        for module in (cli, solution):
            monkeypatch.setattr(module, "is_coalgebra_morphism", counting)
        s = standard_structure(4, 1, [Fraction(1, 2), Fraction(-1, 3)])
        if not involutive:
            s = QCycleStructure(s.p, extend_from_level1(random_level1(rng, 4)))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(s.to_payload()))
        passes = cli.main(["verify", "--tensor", str(path), "--full"]) == cli.EXIT_OK
        assert passes == involutive
        # two checks in the command and two in the full scan; a failing full
        # scan leaves the reduced scan to run, with two more.  p and d are
        # one object when d is absent
        assert len(checked) == (4 if passes else 6)
        assert len({id(t) for t in checked}) == len(walks) == (1 if involutive else 2)


class TestExtension:
    def test_delta_level1_gives_counit_action(self):
        for n in range(2, 7):
            level1 = [[Fraction(0)] * n for _ in range(n)]
            level1[1][0] = Fraction(1)
            cube = [[[int(i == k and j == 0) for k in range(n)] for j in range(n)]
                    for i in range(n)]
            assert extend_from_level1(level1) == counit_action(n) == CoeffTensor(cube)

    def test_invalid_shapes_raise_value_error(self):
        # empty, ragged and 1 x 1 grids alike, so also counit_action(n < 2)
        for level1 in ([], [[0, 0], [0]], [[0, 0, 0], [0, 0, 0]], [[1]]):
            with pytest.raises(ValueError, match="n >= 2"):
                extend_from_level1(level1)
        for n in (-1, 0, 1):
            with pytest.raises(ValueError, match="n >= 2"):
                counit_action(n)

    def test_vanishing_params_closed_form(self):
        n = 5
        t = extend_from_level1(vanishing_params_level1(n))
        for i in range(1, n):
            for j in range(1, n):
                for k in range(1, n):
                    want = (
                        Fraction(comb(i - 1, k - 1) * comb(k, i - j))
                        if 0 <= i - j <= k
                        else Fraction(0)
                    )
                    assert t.entry(i, j, k) == want

    def test_step_two_gives_powers(self):
        n = 5
        level1 = [[Fraction(0)] * n for _ in range(n)]
        level1[1][0] = Fraction(2)
        t = extend_from_level1(level1)
        for i in range(1, n):
            assert t.entry(i, 0, i) == Fraction(2) ** i

    def test_product_formula_over_compositions(self, rng):
        """Entry (i, j, k) equals the sum over k-part splittings of (i, j)
        with nonzero parts of the product of level-1 entries."""
        n = 4
        level1 = random_level1(rng, n, zero_top_row=False)
        t = extend_from_level1(level1)
        for i, j, k in [(2, 1, 2), (3, 2, 2), (2, 2, 3), (3, 0, 2)]:
            total = Fraction(0)
            pairs = [(a, b) for a in range(i + 1) for b in range(j + 1) if a + b >= 1]
            for split in itertools.product(pairs, repeat=k):
                if sum(p[0] for p in split) == i and sum(p[1] for p in split) == j:
                    prod = Fraction(1)
                    for a, b in split:
                        prod *= level1[a][b]
                    total += prod
            assert t.entry(i, j, k) == total


class TestStructuralSuite:
    def test_all_ones_tensor_passes(self):
        t = extend_from_level1(all_ones_level1(4))
        assert structural_lemma_suite(t).ok

    def test_vanishing_params_diagonal_value(self):
        t = extend_from_level1(vanishing_params_level1(5))
        assert t.entry(3, 1, 3) == 3  # both closed forms: 3*t11*t10^2 and C(2,2)C(3,2)
        assert structural_lemma_suite(t).ok

    def test_two_sided_steps_fail(self, rng):
        # G = u + v has G^3 != 0, so this is not a coalgebra morphism.
        n = 3
        level1 = [[Fraction(0)] * n for _ in range(n)]
        level1[1][0] = Fraction(1)
        level1[0][1] = Fraction(1)
        t = extend_from_level1(level1)
        with pytest.raises(NotComultiplicative):
            structural_lemma_suite(t)

    def test_requires_morphism(self):
        t = counit_action(3).with_entry(1, 1, 2, 5)
        with pytest.raises(NotComultiplicative):
            structural_lemma_suite(t)

    def test_no_regular_candidate(self):
        # G = uv is a coalgebra morphism with t10 = t01 = 0: the two regular
        # checks are reported failed, with what they require
        level1 = [[Fraction(0)] * 3 for _ in range(3)]
        level1[1][1] = Fraction(1)
        report = structural_lemma_suite(extend_from_level1(level1))
        detail = "requires t[1][0][1] != 0 and t[0][1][1] = 0"
        assert [(c.name, c.ok, c.detail) for c in report.checks] == [
            ("vanishing_above_total_degree", True, None), ("top_level_binomial", True, None),
            ("vanishing_above_first_index", False, detail),
            ("column_one_derivation", False, detail)]
        assert not report and not report.ok

    def test_regular_column_powers(self, rng):
        s = standard_structure(5, 2, [1, Fraction(1, 2)])
        t = s.p
        assert t.entry(0, 1, 1) == 0
        for i in range(1, 5):
            assert t.entry(i, 0, i) == t.entry(1, 0, 1) ** i


class TestRescale:
    def test_identity(self):
        t = extend_from_level1(all_ones_level1(4))
        assert rescale_tensor(t, 1) == t

    def test_all_ones_by_two(self):
        t = extend_from_level1(all_ones_level1(4))
        scaled = rescale_tensor(t, 2)
        assert scaled.entry(1, 1, 1) == Fraction(1, 2)
        s = QCycleStructure.involutive(scaled)
        assert check_braid_reduced(s)

    def test_round_trip(self, rng):
        t = extend_from_level1(random_level1(rng, 4))
        lam = Fraction(3, 2)
        assert rescale_tensor(rescale_tensor(t, lam), 1 / lam) == t

    def test_zero_lambda_rejected(self):
        t = counit_action(3)
        with pytest.raises(ZeroLambda):
            rescale_tensor(t, 0)

    def test_commutes_with_extension(self, rng):
        n = 4
        level1 = random_level1(rng, n)
        lam = Fraction(2, 3)
        scaled_level1 = [
            [lam ** (1 - i - j) * level1[i][j] for j in range(n)] for i in range(n)
        ]
        assert extend_from_level1(scaled_level1) == rescale_tensor(
            extend_from_level1(level1), lam
        )


class TestRowFromColumn:
    def test_column_x_times_x_plus_1(self):
        f = reconstruct_f_from_g(Series1([0, 1, 1, 0, 0]))
        assert f == Series1([1, 1, 0, 0, 0])

    def test_column_x_gives_all_ones(self):
        f = reconstruct_f_from_g(Series1([0, 1, 0, 0, 0]))
        assert f == Series1([1, 1, 1, 1, 1])

    def test_round_trip_with_construction(self, rng):
        from qcycle.standard import StandardCycleParams, build_standard_cycle

        for _ in range(3):
            tail = [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(3)]
            bundle = build_standard_cycle(StandardCycleParams.from_tail(5, 1, tail))
            g = Series1([bundle.tensor.entry(i, 1, 1) for i in range(5)])
            assert reconstruct_f_from_g(g) == bundle.row

    def test_rejects_bad_linear_term(self):
        with pytest.raises(BadLinearTerm):
            reconstruct_f_from_g(Series1([0, 2, 0]))

    def test_solves_the_row_ode(self, rng):
        # g f' = f^2 - f with f = 1 + x + ..., for random g = x + O(x^2)
        for order in range(2, 10):
            g = Series1([0, 1] + [random_fraction(rng) for _ in range(order - 2)])
            f = reconstruct_f_from_g(g)
            assert f.coeffs[:2] == (1, 1)
            # g has no constant term, so the top coefficient f' drops is never read
            assert g * f.derivative() == f * f - f


class TestPayload:
    def test_matches_fraction_route(self, rng):
        # the integer read agrees with the `Fraction` route on every value
        # and every error, message included
        outcomes = []
        for payload in _payload_corpus(rng):
            outcome = _payload_outcome(CoeffTensor.from_payload, payload)
            assert outcome == _payload_outcome(tensor_from_payload_by_fractions, payload), payload
            outcomes.append(outcome)
        kinds = {o[0] for o in outcomes if isinstance(o[0], type)}
        assert kinds == {ParseError}
        assert sum(not isinstance(o[0], type) for o in outcomes) > 20
        for payload in _payload_corpus(rng)[:6]:
            t = CoeffTensor.from_payload(payload)
            assert_stored_form(t, tensor_rows(t))

    def test_structure_round_trip(self, rng):
        p = extend_from_level1(random_level1(rng, 3))
        d = extend_from_level1(random_level1(rng, 3))
        s = QCycleStructure(p, d)
        assert QCycleStructure.from_payload(s.to_payload()) == s
        involutive = QCycleStructure.involutive(p)
        payload = involutive.to_payload()
        assert "d" not in payload
        assert QCycleStructure.from_payload(payload) == involutive

    def test_structure_without_p(self):
        with pytest.raises(ParseError, match="^malformed structure payload: 'p'$"):
            QCycleStructure.from_payload({"schema": 1, "n": 2})


def _payload_outcome(read, payload):
    try:
        t = read(payload)
    except Exception as exc:
        return type(exc), str(exc)
    return t._nums, t._den, t.entries


def _payload_corpus(rng):
    """Tensor payloads: written ones, the same with every entry spelled out of
    lowest terms, one cell replaced by each kind of accepted or rejected value,
    and each kind of wrong shape."""
    corpus = []
    for n in (2, 3, 4):
        payload = extend_from_level1(random_level1(rng, n, zero_top_row=False)).to_payload()
        corpus.append(payload)
        spelled = []
        for row in payload:
            spelled.append([])
            for col in row:
                cells = []
                for v in col:
                    v, k = Fraction(v), rng.choice((1, 2, 6))
                    cells.append(rng.choice((f"{k * v.numerator}/{k * v.denominator}",
                                             f"{v.numerator:04d}/{v.denominator:03d}")))
                spelled[-1].append(cells)
        corpus.append(spelled)
    cells = [
        "0", "-0", "0/7", "-0/3", "007", "-12/-3", "6/4", "1" * 60, "-" + "9" * 30 + "/" + "7" * 25,
        "1" * 5000, "1/" + "3" * 5000, 3, -5, 0, True, False, 0.5, 1.0, None, "1/0", "0/0",
        "-1/0", "1.5", "1e3", " 1/2", "1/2 ", "1/2\n", "+3", "1_000", "\u0663", "1/-2", "",
        "/2", "1/", "--1", "1//2", [], ["1"], {}, "nan", "inf",
    ]
    for cell in cells:
        corpus.append([[["1", "0"], ["0", cell]], [["0", "1"], ["0", "0"]]])
    corpus += [
        [], [[["1"]]], [[["1", "0"]], [["0", "1"], ["1", "0"]]],
        [[["1", "0"], ["0"]], [["0", "1"], ["1", "0"]]],
        [[["1", "0", "0"], ["0", "1"]], [["0", "1"], ["1", "0"]]],
        [[["1", "0"], ["0", "x"]], [["0", "1"]]],
        "1", {"p": 1}, None, 3, [["10", "01"], ["00", "10"]], [[[1, 0], "01"], [[0, 1], [1, 0]]],
    ]
    return corpus


def assert_stored_form(value, rows):
    """The one stored form of `series._Stored`: int numerators in nested
    tuples over one denominator den >= 1 with gcd(den, *nums) = 1 (so zero
    has den = 1); `rows` lists the numerator rows of `value`."""
    assert type(value._den) is int and value._den >= 1
    assert all(type(row) is tuple and all(type(x) is int for x in row) for row in rows)
    assert gcd(value._den, *(x for row in rows for x in row)) == 1


def tensor_rows(t):
    return [col for row in t._nums for col in row]


class TestStoredForm:
    def test_scaled_integers_is_the_stored_pair(self, rng):
        t = extend_from_level1(random_level1(rng, 4))
        ints, den = t.scaled_integers()
        assert ints is t._nums and den == t._den
        assert all(isinstance(part, tuple) for part in (ints, ints[0], ints[0][0]))
        for i, j, k in itertools.product(range(4), repeat=3):
            assert Fraction(ints[i][j][k], den) == t.entry(i, j, k)
        # the Fraction view is not part of the value
        fresh = CoeffTensor(t.entries)
        assert t == fresh and hash(t) == hash(fresh)
        for name in ("_nums", "_den", "_view", "n", "entries"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)

    def test_canonical(self, rng):
        zero = CoeffTensor([[[0] * 3] * 3] * 3)
        assert (zero._den, zero.scaled_integers()[1]) == (1, 1)
        halves = CoeffTensor([[[Fraction(2, 4)] * 2] * 2] * 2)
        assert halves.scaled_integers() == ((((1, 1),) * 2,) * 2, 2)
        for n in (2, 3, 4):
            base = extend_from_level1(random_level1(rng, n))
            for t in (zero, halves, counit_action(n), base, rescale_tensor(base, Fraction(-3, 2)),
                      base.with_entry(1, 1, 1, Fraction(6, 4)), CoeffTensor(base.entries)):
                assert_stored_form(t, tensor_rows(t))
                assert t.entries == tuple(tuple(tuple(Fraction(x, t._den) for x in col)
                                                for col in row) for row in t._nums)

    def test_with_entry_rejects_negative_indices(self):
        # entry(-1, 0, 0) reads 0, so with_entry must not write entry (n-1, 0, 0)
        t = counit_action(3)
        for index in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
            with pytest.raises(IndexError):
                t.with_entry(*index, 1)
        with pytest.raises(IndexError):
            t.with_entry(3, 0, 0, 1)

    def test_level_rejects_negative_index(self):
        # level(-1) must not read level n - 1
        t = extend_from_level1([[Fraction(i + 2 * j) for j in range(3)] for i in range(3)])
        assert t.level(2) != t.level(1)
        for k in (-1, 3):
            with pytest.raises(IndexError):
                t.level(k)

    def test_equal_by_different_routes(self, rng):
        for n in (2, 3, 5):
            level1 = random_level1(rng, n)
            t = extend_from_level1(level1)
            routes = [
                CoeffTensor(t.entries),
                CoeffTensor([[[int(v) if v.denominator == 1 else v for v in col] for col in row]
                             for row in t.entries]),
                CoeffTensor.from_payload(t.to_payload()),
                extend_from_level1([[Fraction(2 * v.numerator, 2 * v.denominator) for v in row]
                                    for row in level1]),
                rescale_tensor(rescale_tensor(t, 3), Fraction(1, 3)),
                t.with_entry(0, 0, 0, 1),
            ]
            for other in routes:
                assert other == t and hash(other) == hash(t)
                assert other.scaled_integers() == t.scaled_integers()
            assert len({t, *routes, t.with_entry(1, 1, 1, t.entry(1, 1, 1) + 1)}) == 2

    def test_extension_matches_fraction_powers(self, rng):
        # `extend_from_level1` stores its powers over their lcm; the entries
        # are those of the `Fraction` powers of G
        for n in (2, 3, 4):
            level1 = random_level1(rng, n, zero_top_row=False)
            g = Series2(level1)
            powers = [Series2.monomial(0, 0, n), g]
            while len(powers) < n:
                powers.append(series2_product_by_fractions(powers[-1], g))
            t = extend_from_level1(level1)
            assert t.entries == tuple(tuple(tuple(powers[w].coeffs[u][v] for w in range(n))
                                            for v in range(n)) for u in range(n))
            assert_stored_form(t, tensor_rows(t))
