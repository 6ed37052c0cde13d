import json
import pickle
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from qcycle import solution
from qcycle.errors import NotComultiplicative, SingularGd, SingularGp
from qcycle.solution import (
    MAX_VIOLATIONS,
    LinearMap2,
    _eliminate,
    _factor_verdict,
    _invert,
    _solution_map,
    _step_block,
    _superscript_blocks,
    build_solution,
    check_braid_full,
    check_braid_on_map,
    check_braid_reduced,
    gd_map,
    gp_map,
    is_bijective,
    is_coalgebra_endomorphism,
    is_involution,
    structure_sanity,
    superscript_map,
)
from qcycle.series import Series2, _mul_ints
from qcycle.tensor import (
    CoeffTensor,
    QCycleStructure,
    counit_action,
    extend_from_level1,
    is_coalgebra_morphism,
)

from conftest import random_fraction, random_level1, standard_structure
from oracles import (
    braid_by_sweep,
    braid_scan_by_loops,
    determinant_by_leibniz,
    gp_map_by_convolution,
    inverse_by_adjugate,
    is_endomorphism_by_scan,
    product_by_fractions,
    pull_by_matrix,
    solution_by_convolution,
    superscript_by_fractions,
)
from test_cli import _verify_cases
from test_tensor import assert_stored_form


def solution_of_any_pair(s):
    """`build_solution` without its morphism check: its SingularGd and
    SingularGp checks, then its rows, so that the row kernel runs on random
    pairs too."""
    if not _eliminate(_step_block(s.d), None)[0]:
        raise SingularGd("right side map is not invertible")
    return _solution_map(*_superscript_blocks(s.p), s.d)


def _step_block_cases(rng, n):
    """Tensors for the step-block differential test: random ones (not
    comultiplicative, a few with a singular step block by chance), the same
    with a step-block row copied onto another (rank-deficient), and
    comultiplicative ones with the step entry p[1][0][1] = 0 or not."""
    cases = []
    for _ in range(3):
        grid = [[[random_fraction(rng, 1) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        cases.append(CoeffTensor(grid))
        src, dst = rng.sample(range(n), 2)
        grid[dst][0] = list(grid[src][0])
        cases.append(CoeffTensor(grid))
    for step in (Fraction(0), Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))):
        level1 = random_level1(rng, n)
        level1[1][0] = step
        cases.append(extend_from_level1(level1))
    return cases


class TestSideMaps:
    def test_counit_action_gives_identity(self):
        assert gp_map(counit_action(3)) == LinearMap2.identity(3)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_step_block_path_matches_dense_inverse(self, rng, n):
        cases = _step_block_cases(rng, n)
        singular = 0
        for t in cases:
            inv = gp_map(t).inverse()
            try:
                E = superscript_map(t)
            except SingularGp:
                E = None
            try:
                build_solution(QCycleStructure(counit_action(n), t))
                raised = None
            except (SingularGd, NotComultiplicative) as exc:
                raised = type(exc)
            gd_singular = raised is SingularGd
            assert (inv is None) == (E is None) == gd_singular
            # past the step block, a d that is not a coalgebra morphism is refused
            if not gd_singular:
                assert (raised is NotComultiplicative) == (not is_coalgebra_morphism(t))
            if inv is None:
                singular += 1
                continue
            assert E == [
                [[inv.matrix[k * n][i * n + j] for k in range(n)] for j in range(n)]
                for i in range(n)
            ]
        # four cases are singular by construction, one is invertible
        assert 4 <= singular < len(cases)

    def test_vanishing_params_determinant(self):
        s = standard_structure(3, 1, [0])
        assert gp_map(s.p).determinant() != 0

    def test_gd_map_structure(self):
        assert gd_map(counit_action(3)) == LinearMap2.identity(3)
        t = standard_structure(3, 1, [0]).p
        m = gd_map(t)
        n = 3
        # column (1, 2): images t(x_1 (x) x_b) (x) x_a over a + b = 2
        for k in range(n):
            for a in range(n):
                want = t.entry(1, 2 - a, k) if 2 - a >= 0 else 0
                assert m.matrix[k * n + a][1 * n + 2] == want

    def test_superscript_inverts_side_map(self):
        n = 4
        s = standard_structure(n, 2, [1])
        E = superscript_map(s.p)
        rebuilt = [[None] * (n * n) for _ in range(n * n)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    for b in range(n):
                        rebuilt[k * n + b][i * n + j] = (
                            E[i][j - b][k] if j - b >= 0 else Fraction(0)
                        )
        h_map = LinearMap2(n, rebuilt)
        assert gp_map(s.p).compose(h_map) == LinearMap2.identity(n)

    def test_singular_raises(self):
        n = 3
        level1 = [[Fraction(0)] * n for _ in range(n)]
        t = extend_from_level1(level1)
        with pytest.raises(SingularGp):
            superscript_map(t)

    def test_one_step_inverse_per_build(self, monkeypatch):
        """p's step block is inverted once for the superscript map; d's is
        decided by its determinant, for p = d and for p != d alike."""
        from qcycle import solution

        calls = []
        inner = solution._invert
        monkeypatch.setattr(solution, "_invert", lambda m: calls.append(1) or inner(m))
        s = standard_structure(4, 1, [Fraction(1, 2), Fraction(-2, 3)])
        for structure in (s, _perturbed_nonroot()):
            want = solution_of_any_pair(structure)
            calls.clear()
            assert build_solution(structure) == want
            assert len(calls) == 1

    def test_error_order(self):
        n = 3
        singular = extend_from_level1([[Fraction(0)] * n for _ in range(n)])
        regular = standard_structure(n, 1, [Fraction(2)]).p
        grid = [[[regular.entry(i, j, k) for k in range(n)] for j in range(n)] for i in range(n)]
        grid[1][1][2] += 1
        broken = CoeffTensor(grid)
        assert not is_coalgebra_morphism(broken)
        for p, d, error in ((singular, singular, SingularGd), (regular, singular, SingularGd),
                            (singular, regular, SingularGp), (broken, broken, NotComultiplicative)):
            with pytest.raises(error):
                build_solution(QCycleStructure(p, d))


def _braid_scan_cases(rng, n):
    """(class, structure) pairs: standard cycles at v0 = 1 and v0 = n - 1;
    candidates made from a v0 = 1 standard cycle by perturbing one level-1
    entry t[i][j][1] with i, j >= 2 (i, j = 1 at n = 2) and re-extending;
    `family nonroot` pairs (p != d); and random comultiplicative pairs."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family

    cases = [
        ("standard", standard_structure(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)]))
        for v0 in sorted({1, n - 1})
    ]
    for _ in range(2):
        base = standard_structure(n, 1, [random_fraction(rng) for _ in range(n - 2)]).p
        level1 = base.level(1)
        low = min(2, n - 1)
        level1[rng.randint(low, n - 1)][rng.randint(low, n - 1)] += Fraction(rng.choice((-1, 1)), 2)
        cases.append(("candidate", QCycleStructure.involutive(extend_from_level1(level1))))
    for mu in (Fraction(3, 2), Fraction(-1, 3)):
        lambdas = [Fraction(rng.choice((-2, 2)))] + [random_fraction(rng) for _ in range(n - 2)]
        cases.append(("nonroot", build_nonroot_family(NonRootFamilyInput(n, lambdas, mu))))
    for _ in range(3):
        p = extend_from_level1(random_level1(rng, n))
        d = extend_from_level1(random_level1(rng, n))
        cases.append(("random", QCycleStructure(p, d)))
    return cases


@pytest.fixture
def scans(monkeypatch):
    """The output indices ms of each `solution._braid_scan` call, in order."""
    inner = solution._braid_scan
    seen = []
    monkeypatch.setattr(solution, "_braid_scan", lambda s, ms: seen.append(ms) or inner(s, ms))
    return seen


class TestBraidChecks:
    def test_standard_structures_pass(self, rng):
        for n, v0 in [(3, 1), (4, 2), (5, 3)]:
            tail = [Fraction(rng.randint(-2, 2)) for _ in range(n - v0 - 1)]
            s = standard_structure(n, v0, tail)
            assert check_braid_reduced(s)
            assert check_braid_full(s)

    def test_mutation_detected(self):
        # perturb level-1 data and re-extend: still comultiplicative, braid broken
        s = standard_structure(4, 1, [1, 1])
        level1 = [
            [s.p.entry(i, j, 1) for j in range(4)] for i in range(4)
        ]
        level1[2][1] += 1
        bad = QCycleStructure.involutive(extend_from_level1(level1))
        report = check_braid_reduced(bad)
        assert not report
        assert report.violations

    def test_requires_morphisms(self):
        bad = counit_action(3).with_entry(2, 2, 2, 7)
        with pytest.raises(NotComultiplicative):
            check_braid_reduced(QCycleStructure.involutive(bad))

    def test_full_equals_reduced_verdict(self, rng):
        for n in range(4, 8):
            verdicts = {}
            for label, s in _braid_scan_cases(rng, n):
                reduced = bool(check_braid_reduced(s))
                assert reduced == bool(check_braid_full(s))
                verdicts.setdefault(label, set()).add(reduced)
            assert verdicts["standard"] == verdicts["nonroot"] == {True}
            assert verdicts["candidate"] == verdicts["random"] == {False}

    @pytest.mark.parametrize("n", range(2, 8))
    def test_scan_matches_loop_oracle(self, rng, n, forms, scans):
        verdicts, forms_by_label = {}, {}
        capped = joined = crossed = False
        for label, s in _braid_scan_cases(rng, n):
            assert (s.p == s.d) == (label in ("standard", "candidate"))
            crossed |= s.p.scaled_integers()[1] != s.d.scaled_integers()[1]
            forms.clear()
            scans.clear()
            for check, ms in ((check_braid_full, range(n)), (check_braid_reduced, range(1, 2))):
                report = check(s)
                assert report == braid_scan_by_loops(s, ms)
                assert all(type(lhs) is type(rhs) is Fraction
                           for *_, lhs, rhs in report.violations)
                flags = (report.family1_ok, report.family2_ok, report.family3_ok)
                verdicts.setdefault(label, set()).add(flags)
                capped |= len(report.violations) == MAX_VIOLATIONS
                joined |= len({v[0] for v in report.violations}) > 1
            # the full check scans slice 1, then every m only when a family
            # fails there; the reduced check reads slice 1 off the structure
            assert scans == [range(1, 2)] + ([] if report else [range(n)])
            forms_by_label.setdefault(label, set()).update(forms)
        assert verdicts["standard"] == verdicts["nonroot"] == {(True, True, True)}
        assert (False, False, False) in verdicts["random"]
        if n >= 3:
            assert all(not all(flags) for flags in verdicts["candidate"])
        # reports cut at the cap, and reports listing more than one family
        assert capped == (n >= 3)
        assert joined or n > 4
        # a p != d pair whose sides have different denominators
        assert crossed
        # the nearly empty slots of a nonroot pair take the row form, the
        # nearly full ones of a v0 = 1 standard cycle the column form
        assert forms_by_label["nonroot"] == {"row"}
        assert "column" in forms_by_label["standard"]

    def test_violation_reports_cap(self, rng):
        p = extend_from_level1(random_level1(rng, 4))
        d = extend_from_level1(random_level1(rng, 4))
        report = check_braid_full(QCycleStructure(p, d))
        assert len(report.violations) <= 20

    def test_violations_match_fraction_sums(self, rng):
        n = 3
        families_seen = set()
        for _ in range(6):
            p = extend_from_level1(random_level1(rng, n))
            d = extend_from_level1(random_level1(rng, n))
            s = QCycleStructure(p, d)
            for report, ms in ((check_braid_reduced(s), [1]), (check_braid_full(s), range(n))):
                assert not report
                # the sides of every violation, from the oracle's uncapped list
                sides = {v[:5]: v[5:] for v in braid_scan_by_loops(s, ms, cap=None).violations}
                for family, i, j, k, m, lhs, rhs in report.violations:
                    assert sides[family, i, j, k, m] == (lhs, rhs)
                    assert lhs != rhs
                    families_seen.add(family)
                flags = (report.family1_ok, report.family2_ok, report.family3_ok)
                for family, ok in enumerate(flags, 1):
                    assert ok == all(key[0] != family for key in sides)
        assert families_seen == {1, 2, 3}


class TestBraidLemma:
    """`check_braid_full` requires the morphisms, then decides a passing
    structure from its m = 1 slice (the lemma in its docstring), and scans
    every m only when a family fails there; the m = 1 report is kept on the
    structure, so `check_braid_reduced` does not scan it again."""

    @pytest.mark.parametrize("structure, passes", _verify_cases())
    def test_verify_full_scan_counts(self, tmp_path, capsys, monkeypatch, scans,
                                     structure, passes):
        """A passing `verify --full` makes one m = 1 scan and no full scan; a
        failing one one m = 1 scan and one full scan; p and d are asked for
        4 and 6 times, and twice when they are not morphisms (no scan)."""
        from qcycle import cli

        asks = []
        for module in (cli, solution):
            inner = module.is_coalgebra_morphism
            monkeypatch.setattr(module, "is_coalgebra_morphism",
                                lambda t, inner=inner: asks.append(t) or inner(t))
        path = tmp_path / "s.json"
        path.write_text(json.dumps(structure.to_payload()))
        code = cli.main(["verify", "--tensor", str(path), "--full"])
        capsys.readouterr()
        assert code == (cli.EXIT_OK if passes else cli.EXIT_CHECK_FAILED)
        morphisms = is_coalgebra_morphism(structure.p) and is_coalgebra_morphism(structure.d)
        if not morphisms:
            assert (scans, len(asks)) == ([], 2)
        elif passes:
            assert (scans, len(asks)) == ([range(1, 2)], 4)
        else:
            assert (scans, len(asks)) == ([range(1, 2), range(structure.n)], 6)

    def test_lemma_needs_its_premise(self, scans):
        """p = the standard cycle (5, 4) with p[1][2][2] raised by 1 is no
        coalgebra morphism; its families hold at m = 1 and fail at m = 2, so a
        shortcut taken before the morphism check would pass it."""
        t = standard_structure(5, 4, []).p
        s = QCycleStructure.involutive(t.with_entry(1, 2, 2, t.entry(1, 2, 2) + 1))
        assert not is_coalgebra_morphism(s.p)
        assert braid_scan_by_loops(s, range(1, 2)).ok
        assert not braid_scan_by_loops(s, range(2, 3)).ok
        for check in (check_braid_full, check_braid_reduced):
            with pytest.raises(NotComultiplicative):
                check(s)
        assert scans == []


def _perturbed_standard(n, entry):
    """A v0 = 1 standard cycle with level-1 entry t[entry][entry][1] raised by
    1 and re-extended: comultiplicative, p = d, and failing for n >= 3."""
    tail = [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(1, 3), Fraction(2)]
    level1 = standard_structure(n, 1, tail[:n - 2]).p.level(1)
    level1[entry][entry] += 1
    return QCycleStructure.involutive(extend_from_level1(level1))


def _perturbed_nonroot(entry=(2, 2)):
    """A `family nonroot` pair (p != d) at n = 6 with level-1 entry `entry` of
    p raised by 1 and re-extended: families 1 and 2 fail, family 3 holds."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family

    lambdas = [Fraction(2), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2), Fraction(1, 3)]
    s = build_nonroot_family(NonRootFamilyInput(6, lambdas, Fraction(3, 2)))
    level1 = s.p.level(1)
    level1[entry[0]][entry[1]] += 1
    return QCycleStructure(extend_from_level1(level1), s.d)


def entries_within_reach(s, ms):
    """How many violation entries a scan with no early exit lists when, on
    each slice and in family order, a family lists its violations only until
    it and the families before it hold MAX_VIOLATIONS together."""
    counts = Counter(v[:2] for v in braid_scan_by_loops(s, ms, cap=None).violations)
    held = [0, 0, 0]
    for i in range(s.n):
        for f in range(3):
            held[f] += max(0, min(counts[f + 1, i], MAX_VIOLATIONS - sum(held[:f + 1])))
    return sum(held)


class TestBraidScanEarlyExit:
    """The scan stops after the slice i where every flag is False and family
    1 holds MAX_VIOLATIONS entries; when p = d it compares once, as family 1.
    Each distinct side triple makes one `_second_contraction` per slice."""

    @pytest.fixture
    def contractions(self, monkeypatch):
        from qcycle import solution

        calls = []
        inner = solution._second_contraction

        def counted(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(solution, "_second_contraction", counted)
        return calls

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_capped_scan_stops_early(self, n, contractions):
        s = _perturbed_standard(n, 2)
        for check, ms in ((check_braid_reduced, range(1, 2)), (check_braid_full, range(n))):
            contractions.clear()
            report = check(s)
            assert report == braid_scan_by_loops(s, ms)
            assert len(report.violations) == MAX_VIOLATIONS
            assert {v[0] for v in report.violations} == {1}
            # one triple (p, p, p) per slice, up to the slice of the 20th violation
            last = report.violations[-1][1]
            assert len(contractions) == last + 1 < n

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_uncapped_copies_family_one(self, n, contractions):
        s = _perturbed_standard(n, n - 1)
        for check, ms in ((check_braid_reduced, range(1, 2)), (check_braid_full, range(n))):
            contractions.clear()
            report = check(s)
            assert report == braid_scan_by_loops(s, ms)
            assert not (report.family1_ok or report.family2_ok or report.family3_ok)
            assert len(report.violations) < MAX_VIOLATIONS
            by_family = [[v[1:] for v in report.violations if v[0] == f] for f in (1, 2, 3)]
            assert by_family[0] and by_family[0] == by_family[1] == by_family[2]
            assert len(contractions) == n

    def test_holding_family_scans_every_slice(self, contractions, monkeypatch):
        """Family 2 lists entries on slices before the one where family 1
        reaches MAX_VIOLATIONS, and lists only those that can still reach the
        report: with entry (2, 2) it has room for all of slice 2's and none
        later; with entry (2, 4) the full scan cuts its slice 3 short."""
        from qcycle import solution

        made = []
        monkeypatch.setattr(solution, "Fraction", lambda *a: made.append(1) or Fraction(*a))
        for entry in ((2, 2), (2, 4)):
            s = _perturbed_nonroot(entry)
            assert s.p != s.d
            # the sides of a family have different denominators: cross-multiplied
            assert s.p.scaled_integers()[1] != s.d.scaled_integers()[1]
            for check, ms in ((check_braid_reduced, range(1, 2)), (check_braid_full, range(6))):
                contractions.clear()
                made.clear()
                report = check(s)
                assert report == braid_scan_by_loops(s, ms)
                assert (report.family1_ok, report.family2_ok, report.family3_ok) == (
                    False, False, True)
                assert len(report.violations) == MAX_VIOLATIONS
                # six distinct triples (pdp, ppp, ppd, ddp, dpd, ddd) at each of the 6 slices
                assert len(contractions) == 6 * 6
                # two Fractions per listed entry
                assert len(made) == 2 * entries_within_reach(s, ms) > 2 * MAX_VIOLATIONS


class TestSolutionMap:
    def test_counit_action_gives_flip(self):
        s = QCycleStructure.involutive(counit_action(4))
        assert build_solution(s) == LinearMap2.flip(4)

    def test_flip_and_identity_satisfy_braid(self):
        assert check_braid_on_map(LinearMap2.flip(3))
        assert check_braid_on_map(LinearMap2.identity(3))

    def test_standard_solution_involutive(self):
        for n, v0, tail in [(3, 1, [2]), (4, 1, [1, 1]), (4, 3, [])]:
            s = standard_structure(n, v0, tail)
            m = build_solution(s)
            assert m.compose(m).is_identity()
            assert is_involution(m)
            assert check_braid_on_map(m)
            assert is_coalgebra_endomorphism(m)
            assert m.determinant() != 0

    def test_flip_is_coalgebra_endomorphism(self):
        assert is_coalgebra_endomorphism(LinearMap2.flip(3))

    def test_random_matrix_is_not_endomorphism(self, rng):
        n = 3
        grid = [
            [Fraction(rng.randint(-3, 3)) for _ in range(n * n)] for _ in range(n * n)
        ]
        assert not is_coalgebra_endomorphism(LinearMap2(n, grid))


def _endomorphism_cases(rng, n):
    """Solution maps of standard cycles (v0 = 1 and v0 = n - 1), of the
    nonroot family and, at n = 3, of the fixtures; flip and identity; a
    one-entry +-1 perturbation of each; and three maps that fail exactly one
    of the generator-row conditions."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family, fixtures_n3

    structures = [
        standard_structure(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
        for v0 in sorted({1, n - 1})
    ]
    lambdas = [Fraction(rng.choice((-2, 2)))] + [random_fraction(rng) for _ in range(n - 2)]
    structures.append(build_nonroot_family(NonRootFamilyInput(n, lambdas, Fraction(3, 2))))
    if n == 3:
        structures += [fixture.structure for fixture in fixtures_n3()]
    maps = [build_solution(s) for s in structures] + [LinearMap2.flip(n), LinearMap2.identity(n)]
    cases = list(maps)
    for m in maps:
        grid = [list(row) for row in m.matrix]
        r, c = rng.randrange(n * n), rng.randrange(n * n)
        grid[r][c] += rng.choice((-1, 1))
        cases.append(LinearMap2(n, grid))
    # The zero map meets every product condition but not row (0, 0) = 1.
    zero = LinearMap2(n, [[0] * (n * n) for _ in range(n * n)])
    return cases + [_shear(n, False), _shear(n, True), zero]


def _shear(n, mirrored):
    """Row (k, l) is (u + v)^k v^l, or u^l (u + v)^k at row (l, k) when
    mirrored: each row is a product of the generator rows, yet (u + v)^n != 0."""
    dim = n * n
    grid = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(n):
        for l in range(n):
            for a in range(k + 1):
                i, j = a, k - a + l
                if j < n:
                    row, col = (l * n + k, j * n + i) if mirrored else (k * n + l, i * n + j)
                    grid[row][col] = Fraction(comb(k, a))
    return LinearMap2(n, grid)


class TestEndomorphismCheck:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_scan(self, rng, n):
        verdicts = set()
        for m in _endomorphism_cases(rng, n):
            ok = is_endomorphism_by_scan(m)
            assert is_coalgebra_endomorphism(m) == ok
            verdicts.add(ok)
        assert verdicts == {True, False}


def _factor_path_cases(rng, n):
    """Structures for the factor-path differential test: standard cycles at
    every v0 and nonroot pairs (endomorphisms, L_0 = E_0 = 1); a p or a d
    perturbed above level 0, or re-extended from a level 1 with a pure v^j
    term (L_0 = E_0 = 1, most not endomorphisms); and random tensors beside
    a standard p or d or each other (L_0 or E_0 != 1, so the row walk runs)."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family

    p = standard_structure(n, 1, [random_fraction(rng) for _ in range(n - 2)]).p
    cases = [standard_structure(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
             for v0 in range(1, n)]
    for _ in range(2):
        lambdas = [Fraction(rng.choice((-2, 2)))] + [random_fraction(rng) for _ in range(n - 2)]
        cases.append(build_nonroot_family(NonRootFamilyInput(n, lambdas, random_fraction(rng) or 1)))
    bumped = p.with_entry(rng.randrange(n), rng.randrange(n), rng.randrange(1, n), 5)
    extended = extend_from_level1(random_level1(rng, n, zero_top_row=False))

    def random_tensor():
        return CoeffTensor(
            [[[random_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        )

    return cases + [
        QCycleStructure(p, bumped), QCycleStructure.involutive(bumped),
        QCycleStructure.involutive(extended), QCycleStructure(p, extended),
        QCycleStructure(p, random_tensor()), QCycleStructure(random_tensor(), p),
        QCycleStructure(random_tensor(), random_tensor()),
    ]


def _power_chains(n, x, y, scale_l=1, scale_e=1):
    """(L, E) with L_k = x^k and E_l = y^l for k, l < n, as integer grids
    over the denominators scale_l and scale_e."""
    def powers(gen, scale):
        grids = [[[int(i == j == 0) for j in range(n)] for i in range(n)]]
        for _ in range(1, n):
            grids.append(_mul_ints(grids[-1], gen, n))
        return [[[scale * v for v in row] for row in grid] for grid in grids]
    return powers(x, scale_l), powers(y, scale_e)


def _generators(n):
    """x = u + 2 u v and y = v - u v^2 (both nilpotent in A), and u + v,
    whose n-th power is not 0 in A; as n x n integer grids."""
    def grid(terms):
        out = [[0] * n for _ in range(n)]
        for (i, j), c in terms.items():
            if i < n and j < n:
                out[i][j] += c
        return out
    return grid({(1, 0): 1, (1, 1): 2}), grid({(0, 1): 1, (1, 2): -1}), grid({(1, 0): 1, (0, 1): 1})


class TestFactorVerdict:
    """`build_solution` decides the endomorphism property on its factors L_k
    and E_l (`_factor_verdict`) and stores it; `is_coalgebra_endomorphism`
    returns it, or runs the row walk when L_0 or E_0 is not 1."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_row_walk(self, rng, n):
        stored = set()
        for s in _factor_path_cases(rng, n):
            try:
                m = solution_of_any_pair(s)
            except (SingularGp, SingularGd):
                continue
            stored.add(getattr(m, "_endo", None))
            # p and d morphisms make L_0 = E_0 = 1, so the factors decide
            if is_coalgebra_morphism(s.p) and is_coalgebra_morphism(s.d):
                assert m._endo is not None
            walked = LinearMap2._from_ints(m._nums, m._den)
            assert getattr(walked, "_endo", None) is None
            assert is_coalgebra_endomorphism(m) == is_coalgebra_endomorphism(walked)
            assert is_coalgebra_endomorphism(m) == is_endomorphism_by_scan(walked)
        # a stored True, a stored False and the row walk all ran
        assert stored == {True, False, None}

    def test_walk_verdict_is_kept(self):
        m = LinearMap2.flip(3)
        assert getattr(m, "_endo", None) is None
        assert is_coalgebra_endomorphism(m) and m._endo is True
        assert m == LinearMap2.flip(3) and hash(m) == hash(LinearMap2.flip(3))

    @pytest.mark.parametrize("n", range(2, 7))
    def test_power_chains_decide(self, rng, n):
        x, y, shear = _generators(n)
        # L and E over different denominators, so that a chain run over the
        # other's denominator breaks
        L, E = _power_chains(n, x, y, 6, 3)
        assert _factor_verdict(L, E, 6, 3, n) is True
        # a perturbed power (a perturbed generator may be another generator)
        for k in range(2, n):
            for chain in (L, E):
                grid = chain[k]
                i, j = rng.randrange(n), rng.randrange(n)
                grid[i][j] += 1
                assert _factor_verdict(L, E, 6, 3, n) is False
                grid[i][j] -= 1
        # links that all hold, but the n-th power of u + v is not 0
        L_shear, E_shear = _power_chains(n, shear, shear)
        assert _factor_verdict(L_shear, E, 1, 3, n) is False
        assert _factor_verdict(L, E_shear, 6, 1, n) is False

    @pytest.mark.parametrize("n", range(2, 7))
    def test_no_verdict_without_unit_factors(self, n):
        x, y, _ = _generators(n)
        for index, bump in ((0, 0), (0, n - 1), (n - 1, 0)):
            for which in ("L", "E"):
                L, E = _power_chains(n, x, y)
                (L if which == "L" else E)[0][index][bump] += 1
                assert _factor_verdict(L, E, 1, 1, n) is None


def _algebra_map(n, x, y):
    """The coalgebra endomorphism whose transpose sends u to x and v to y:
    row (k, l) is x^k y^l (x^n = y^n = 0 for every caller)."""
    return LinearMap2.from_rows(n, [[x ** k * y ** l for l in range(n)] for k in range(n)])


def _diagonal_variant(n, factor):
    """The identity with row (1, 1) multiplied by factor: the rows of u and
    v are u and v, so on the generators alone it looks like the identity,
    but it is a coalgebra endomorphism only for factor 1."""
    rows = [[Series2.monomial(k, l, n) for l in range(n)] for k in range(n)]
    rows[1][1] = Series2.monomial(1, 1, n, factor)
    return LinearMap2.from_rows(n, rows)


def _braid_map_cases(rng, n):
    """`_endomorphism_cases`; algebra maps from generator rows (u h1, v h2),
    (v, u), (u h1, u h2) with a rank-1 linear part, and (-u, v); and the
    identity with row (1, 1) negated, an involution that is no endomorphism."""
    u, v = Series2.monomial(1, 0, n), Series2.monomial(0, 1, n)

    def h():
        return Series2([[random_fraction(rng) for _ in range(n)] for _ in range(n)])

    algebra = [(u * h(), v * h()), (v, u), (u * h(), u * h()), (-u, v)]
    return (
        _endomorphism_cases(rng, n)
        + [_algebra_map(n, x, y) for x, y in algebra]
        + [_diagonal_variant(n, -1)]
    )


# A ratio with wide numerator and denominator: conjugating by its powers
# (`_conjugated`) takes a map's growth above `PACKED_GROWTH_BITS`.
WIDE = Fraction(3 ** 60, 2 ** 61)


def _conjugated(m, lam):
    """D m D^-1 for D = d (x) d, d the coalgebra automorphism x_i -> lam^i x_i
    of C: entry ((k, l), (i, j)) times lam^(k + l - i - j).  It keeps the
    verdicts of m (endomorphism, braid identity, involution)."""
    n = m.n
    return LinearMap2(n, [[v * lam ** (sum(divmod(r, n)) - sum(divmod(c, n))) if v else 0
                           for c, v in enumerate(row)] for r, row in enumerate(m.matrix)])


def _pull_form(m):
    """The pull `_transpose_kernel` takes for m: "packed" or "terms"."""
    pull = solution._transpose_kernel(m, 3)[0]
    return {solution._packed_pull: "packed", solution._term_pull: "terms"}[pull.func]


def _assert_pulls_match(maps, forms):
    """The braid and involution checks of each map agree with `braid_by_sweep`
    and `compose`, the maps take the pull forms `forms`, and each verdict is
    seen both ways."""
    verdicts = {"endo": set(), "braid": set(), "involution": set()}
    seen = set()
    for m in maps:
        braid = braid_by_sweep(m)
        involution = m.compose(m).is_identity()
        assert check_braid_on_map(m) == braid
        assert is_involution(m) == involution
        verdicts["endo"].add(is_coalgebra_endomorphism(m))
        verdicts["braid"].add(braid)
        verdicts["involution"].add(involution)
        seen.add(_pull_form(m))
    assert all(found == {True, False} for found in verdicts.values())
    assert seen == forms


class TestTransposeKernel:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_sweep_and_compose(self, rng, n):
        """On the maps of `_braid_map_cases`, all pulled packed."""
        _assert_pulls_match(_braid_map_cases(rng, n), {"packed"})

    @pytest.mark.parametrize("n", range(2, 6))
    def test_wide_weights_match_sweep_and_compose(self, rng, n):
        """On the maps of `_braid_map_cases` conjugated to weights above the
        cut; the maps whose weights stay narrow, such as the identity, are
        still pulled packed."""
        _assert_pulls_match([_conjugated(m, WIDE) for m in _braid_map_cases(rng, n)],
                            {"packed", "terms"})

    def test_form_by_growth(self):
        """A map whose growth, the largest column sum of |weight|, has
        `PACKED_GROWTH_BITS` bits is pulled packed, one with a bit more by
        terms; both give the oracle's pull."""
        n, cut = 2, solution.PACKED_GROWTH_BITS
        f = {(a, b, c): 1 - 2 * ((a + b + c) % 2) for a in range(n) for b in range(n)
             for c in range(n)}
        for growth, form in ((2 ** cut - 1, "packed"), (2 ** cut, "terms")):
            grid = [[1] * (n * n) for _ in range(n * n)]
            grid[1][2] = growth - (n * n - 1)
            m = LinearMap2(n, grid)
            assert _pull_form(m) == form
            pull = solution._transpose_kernel(m, 3)[0]
            for first in (True, False):
                assert pull(f, first) == pull_by_matrix(m, f, first)

    @pytest.mark.parametrize("sign", [1, -1, 0])
    def test_packed_fields_at_the_bound(self, rng, sign):
        """Every field of a packed pull reaches the bound the width is made
        for, max |coefficient| * growth, when every weight is positive, every
        column sums to the growth and every coefficient is +-the maximum
        (sign 1, -1); a field one bit narrower overflows.  Sign 0 mixes the
        signs of the coefficients and weights, so negative fields borrow from
        the next."""
        n, top = 3, 2 ** 20 - 1
        growth = 2 ** 40 - 1
        grid = [[rng.randint(1, 2 ** 30) for _ in range(n * n)] for _ in range(n * n - 1)]
        grid.append([growth - sum(col) for col in zip(*grid)])
        if not sign:
            grid = [[w * rng.choice((-1, 1)) for w in row] for row in grid]
        m = LinearMap2(n, grid)
        pull = solution._transpose_kernel(m, 3)[0]
        assert pull.func is solution._packed_pull
        f = {(a, b, c): top * (sign or rng.choice((-1, 1)))
             for a in range(n) for b in range(n) for c in range(n)}
        for first in (True, False):
            out = pull(f, first)
            assert out == pull_by_matrix(m, f, first)
            if sign:
                assert set(out.values()) == {sign * top * growth}
            else:
                assert min(out.values()) < 0 < max(out.values())

    @pytest.mark.parametrize("cut", [solution.PACKED_GROWTH_BITS, -1])
    def test_image_zero(self, monkeypatch, cut):
        """A word whose image is zero: the zero map pulls a monomial to the
        empty image, and that to itself, packed and (with the cut below every
        growth) by terms."""
        monkeypatch.setattr(solution, "PACKED_GROWTH_BITS", cut)
        for n in (2, 3):
            zero = LinearMap2(n, [[0] * (n * n) for _ in range(n * n)])
            assert _pull_form(zero) == ("packed" if cut >= 0 else "terms")
            pull = solution._transpose_kernel(zero, 3)[0]
            assert pull({(1, 0, 1): 5}, True) == pull({}, True) == pull({}, False) == {}
            assert check_braid_on_map(zero) and braid_by_sweep(zero)
            assert not is_involution(zero)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_non_endomorphism_uses_every_monomial(self, n):
        # Both maps fix u and v, so their words agree on y1, y2 and y3; the
        # verdicts below need the monomials of higher degree.
        negated, doubled = _diagonal_variant(n, -1), _diagonal_variant(n, 2)
        for m in (negated, doubled):
            assert not is_coalgebra_endomorphism(m)
            assert not check_braid_on_map(m) and not braid_by_sweep(m)
        assert is_involution(negated) and negated.compose(negated).is_identity()
        assert not is_involution(doubled) and not doubled.compose(doubled).is_identity()

    def test_maps_need_n_at_least_2(self):
        with pytest.raises(ValueError):
            LinearMap2(1, [[1]])

    def test_sparse_rows_made_once_per_map(self, monkeypatch):
        """The braid and involution checks of a map share one scan of its
        entries (`_sparse_rows`), kept on the map; a pickled copy, which
        holds the stored integers alone, scans again."""
        builds = Counter()
        made = solution._sparse_rows
        monkeypatch.setattr(solution, "_sparse_rows", lambda s: builds.update([s.n]) or made(s))
        smap = build_solution(standard_structure(4, 1, [Fraction(1, 2), Fraction(-2, 3)]))
        negated = _diagonal_variant(3, -1)      # no endomorphism: pulled on every monomial
        for m, braid in ((smap, True), (negated, False)):
            for _ in range(2):
                assert check_braid_on_map(m) is braid and is_involution(m)
        assert builds == {4: 1, 3: 1}
        restored = pickle.loads(pickle.dumps(smap))
        assert getattr(restored, "_sparse", None) is None
        assert check_braid_on_map(restored) and is_involution(restored)
        assert builds == {4: 2, 3: 1}


def _pull_cases(rng, n):
    """Solution maps of standard cycles (v0 = 1 and n - 1), of a nonroot pair
    and of perturbed standard cycles, whose braid check fails; and random
    maps, sparse and dense, which are no endomorphisms and take the
    every-monomial path."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family

    structures = [standard_structure(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
                  for v0 in sorted({1, n - 1})]
    lambdas = [Fraction(rng.choice((-2, 2)))] + [random_fraction(rng) for _ in range(n - 2)]
    structures.append(build_nonroot_family(NonRootFamilyInput(n, lambdas, Fraction(3, 2))))
    structures += [_perturbed_standard(n, entry) for entry in range(2, n)]
    randoms = [LinearMap2(n, [[random_fraction(rng) if rng.random() < density else 0
                               for _ in range(n * n)] for _ in range(n * n)])
               for density in (0.2, 1)]
    return [build_solution(s) for s in structures] + randoms


class TestDenseAccumulatorPull:
    """The braid and involution checks, which run on the dense-accumulator
    pull of `_transpose_kernel`, give the verdicts of `braid_by_sweep` and of
    `compose` on solution maps that pass and fail the braid check and on
    random maps."""

    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_dict_pull(self, rng, n):
        seen = set()
        for m in _pull_cases(rng, n):
            braid = braid_by_sweep(m)
            involution = m.compose(m).is_identity()
            assert check_braid_on_map(m) == braid
            assert is_involution(m) == involution
            seen.add((is_coalgebra_endomorphism(m), braid, involution))
        # endomorphisms that pass and that fail the braid check (from n = 3,
        # a perturbed standard cycle), and maps that fail all three
        assert {(True, True, True), (False, False, False)} <= seen
        assert (True, False, True) in seen or n == 2


def _bijective_cases(rng, n):
    """`_braid_map_cases` and `_pull_cases` (solution maps, perturbations,
    shears, algebra maps with a rank-1 linear part, random maps, the zero
    map); algebra maps with a singular Jacobian (X = Y = u; X = uv, Y = u;
    X = 3uv, Y = v) and one with a regular Jacobian and higher terms; and
    the identity with row (1, 1) zeroed, whose generator rows are those of
    the identity but which is no endomorphism and not bijective."""
    u, v = Series2.monomial(1, 0, n), Series2.monomial(0, 1, n)
    algebra = [(u, u), (u * v, u), ((u * v).scale(3), v), (u + u * v, v + u * u * v)]
    return (_braid_map_cases(rng, n) + _pull_cases(rng, n)
            + [_algebra_map(n, x, y) for x, y in algebra]
            + [_diagonal_variant(n, 0)])


class TestBijective:
    @pytest.mark.parametrize("n", range(2, 6))
    def test_matches_determinant(self, rng, n):
        seen = set()
        for m in _bijective_cases(rng, n):
            verdict = is_bijective(m)
            assert verdict == (m.determinant() != 0)
            seen.add((is_coalgebra_endomorphism(m), verdict))
        assert seen == {(True, True), (True, False), (False, True), (False, False)}

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_named_maps(self, n):
        u, v = Series2.monomial(1, 0, n), Series2.monomial(0, 1, n)
        for m, bijective in ((LinearMap2.identity(n), True), (LinearMap2.flip(n), True),
                             (_algebra_map(n, u, u), False), (_algebra_map(n, u * v, u), False),
                             (_diagonal_variant(n, 0), False)):
            assert is_bijective(m) == bijective == (m.determinant() != 0)


def _elimination_cases(rng, dim):
    """Square `Fraction` matrices of size dim: dense, sparse, with a row
    copied onto another (singular), and with a zero leading entry but a
    nonzero one below it, so the pass must swap rows."""
    cases = []
    for _ in range(3):
        dense = [[random_fraction(rng) for _ in range(dim)] for _ in range(dim)]
        sparse = [[random_fraction(rng) if rng.random() < 0.3 else Fraction(0)
                   for _ in range(dim)] for _ in range(dim)]
        cases += [dense, sparse]
        if dim > 1:
            copied = [list(row) for row in dense]
            src, dst = rng.sample(range(dim), 2)
            copied[dst] = list(copied[src])
            swapped = [list(row) for row in dense]
            swapped[0][0] = Fraction(0)
            swapped[rng.randrange(1, dim)][0] = Fraction(rng.choice((-2, 1, 3)))
            cases += [copied, swapped]
    return cases


class TestElimination:
    """`_eliminate`, `_invert`, `LinearMap2.determinant` and `compose`
    against oracles that share no code with them: the Leibniz sum and the
    `Fraction` row-by-column product."""

    @pytest.mark.parametrize("dim", range(1, 7))
    def test_determinant_and_inverse_match_leibniz(self, rng, dim):
        identity = [[Fraction(int(r == c)) for c in range(dim)] for r in range(dim)]
        cases = _elimination_cases(rng, dim)
        singular = 0
        for m in cases:
            det = determinant_by_leibniz(m)
            assert _eliminate(m, None)[0] == det
            inv = _invert(m)
            assert (inv is None) == (det == 0)
            assert inverse_by_adjugate(m) == inv
            if inv is None:
                singular += 1
            else:
                assert product_by_fractions(m, inv) == identity
                assert product_by_fractions(inv, m) == identity
        assert dim == 1 or 0 < singular < len(cases)

    def test_linear_map_determinant_matches_leibniz(self, rng):
        n = 2
        for m in _elimination_cases(rng, n * n):
            assert LinearMap2(n, m).determinant() == determinant_by_leibniz(m)

    @pytest.mark.parametrize("n", [2, 3])
    def test_compose_matches_fraction_product(self, rng, n):
        dim = n * n
        for _ in range(4):
            a, b = ([[random_fraction(rng) for _ in range(dim)] for _ in range(dim)]
                    for _ in range(2))
            for grid in (a, b):
                for r in rng.sample(range(dim), 2):
                    grid[r] = [Fraction(0)] * dim
            want = LinearMap2(n, product_by_fractions(a, b))
            assert LinearMap2(n, a).compose(LinearMap2(n, b)) == want

    def test_determinant_never_inverts(self, monkeypatch):
        """The determinant is the forward pass alone: a pass that also carried
        an inverse made it hundreds of times slower on a solution map at n = 6."""
        from qcycle import solution

        m = build_solution(standard_structure(6, 1, [Fraction(1, 2), Fraction(-2, 3),
                                                     Fraction(3, 2), Fraction(1, 3)]))

        def refuse(_m):
            raise AssertionError("determinant must not invert")

        monkeypatch.setattr(solution, "_invert", refuse)
        assert m.determinant() != 0


def _row_builder_cases(rng, n):
    """Standard cycles (v0 = 1 and v0 = n - 1, p = d), nonroot family pairs
    (p != d), the n = 3 fixtures, and random non-comultiplicative pairs."""
    from qcycle.families import NonRootFamilyInput, build_nonroot_family, fixtures_n3

    cases = [
        standard_structure(n, v0, [random_fraction(rng) for _ in range(n - v0 - 1)])
        for v0 in sorted({1, n - 1})
    ]
    for _ in range(2):
        lambdas = [Fraction(rng.choice((-2, 2)))] + [random_fraction(rng) for _ in range(n - 2)]
        mu = random_fraction(rng) or 1
        cases.append(build_nonroot_family(NonRootFamilyInput(n, lambdas, mu)))
    if n == 3:
        cases += [fixture.structure for fixture in fixtures_n3()]

    def random_tensor():
        return CoeffTensor(
            [[[random_fraction(rng) for _ in range(n)] for _ in range(n)] for _ in range(n)]
        )

    return cases + [QCycleStructure(random_tensor(), random_tensor()) for _ in range(3)]


def _matches_convolution(s):
    """The checks of `s` against the definitions: `gp_map` of both sides,
    `superscript_map` of p and the rows of `build_solution`, or the same
    SingularGp/SingularGd as `solution_by_convolution`; the outcome class."""
    for t in (s.p, s.d):
        assert gp_map(t).matrix == tuple(map(tuple, gp_map_by_convolution(t)))
    supers = []
    for build in (superscript_map, superscript_by_fractions):
        try:
            supers.append(build(s.p))
        except SingularGp as exc:
            supers.append(type(exc))
    assert supers[0] == supers[1]
    try:
        m = solution_of_any_pair(s)
    except (SingularGp, SingularGd) as exc:
        with pytest.raises(type(exc)):
            solution_by_convolution(s)
        return type(exc)
    assert m.matrix == tuple(map(tuple, solution_by_convolution(s)))
    if is_coalgebra_morphism(s.p) and is_coalgebra_morphism(s.d):
        assert build_solution(s) == m
    else:
        with pytest.raises(NotComultiplicative):
            build_solution(s)
    return LinearMap2


class TestFractionFreeKernels:
    """`superscript_map` and the rows of `build_solution` (`_solution_map`),
    which run on integers, against the `Fraction` step solve of
    `superscript_by_fractions` and `solution_by_convolution`, on the
    step-block cases (singular ones among them) as p and as d beside the
    counit action."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_match_fraction_loops(self, rng, n, forms):
        outcomes = set()
        for t in _step_block_cases(rng, n):
            for s in (QCycleStructure(t, counit_action(n)), QCycleStructure(counit_action(n), t)):
                outcomes.add(_matches_convolution(s))
        assert outcomes == {LinearMap2, SingularGp, SingularGd}
        # the L_k of the solution maps ran in both forms of `_gathered_dot`
        assert set(forms) == {"row", "column"}


class TestRowBuilders:
    """`gp_map`, `superscript_map` and the rows of `build_solution` against
    their definitions, on standard cycles, nonroot pairs and random pairs."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_match_convolution(self, rng, n):
        cases = _row_builder_cases(rng, n)
        outcomes = [_matches_convolution(s) for s in cases]
        # only a random pair can have a singular step block, and not all three do
        assert outcomes.count(LinearMap2) >= len(cases) - 2
        dim = n * n
        # identity fixes x_i (x) x_j (column i * n + j); flip sends it to x_j (x) x_i
        assert LinearMap2.identity(n).matrix == tuple(
            tuple(Fraction(r == c) for c in range(dim)) for r in range(dim)
        )
        assert LinearMap2.flip(n).matrix == tuple(
            tuple(Fraction(r == (c % n) * n + c // n) for c in range(dim))
            for r in range(dim)
        )

    def test_rows_round_trip(self, rng):
        n = 3
        grid = [[random_fraction(rng) for _ in range(n * n)] for _ in range(n * n)]
        m = LinearMap2(n, grid)
        rows = m.rows()
        assert rows[1][2].coefficient(2, 0) == grid[1 * n + 2][2 * n + 0]
        assert LinearMap2.from_rows(n, rows) == m


class TestStoredForm:
    """`LinearMap2` holds the one stored form of `series._Stored`: int rows
    over one canonical denominator, the `Fraction` matrix a view of it."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_canonical(self, rng, n):
        dim = n * n
        zero = LinearMap2(n, [[0] * dim for _ in range(dim)])
        assert zero._den == 1
        maps = [zero, LinearMap2.identity(n), LinearMap2.flip(n)]
        for s in _row_builder_cases(rng, n)[:3]:
            m = build_solution(s)
            maps += [m, gp_map(s.p), m.compose(m), m.inverse(), LinearMap2(n, m.matrix)]
        for m in maps:
            assert_stored_form(m, m._nums)
            assert len(m._nums) == dim and m.n == n
            assert m.matrix == tuple(tuple(Fraction(x, m._den) for x in row) for row in m._nums)
        for name in ("_nums", "_den", "n", "matrix"):
            with pytest.raises(AttributeError):
                setattr(maps[3], name, None)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_equal_by_different_routes(self, rng, n):
        for s in _row_builder_cases(rng, n)[:3]:
            m = build_solution(s)
            routes = [
                LinearMap2(n, m.matrix),
                LinearMap2(n, [[Fraction(3 * v.numerator, 3 * v.denominator) for v in row]
                               for row in m.matrix]),
                LinearMap2.from_rows(n, m.rows()),
                LinearMap2(n, solution_by_convolution(s)),
                m.compose(LinearMap2.identity(n)),
            ]
            for other in routes:
                assert other == m and hash(other) == hash(m)
                assert (other._nums, other._den) == (m._nums, m._den)
        assert LinearMap2.flip(n).compose(LinearMap2.flip(n)) == LinearMap2.identity(n)
        assert LinearMap2.identity(n) != LinearMap2.flip(n)


class TestSanity:
    def test_standard_hits_unit_step_case(self):
        s = standard_structure(4, 1, [0, 0])
        report = structure_sanity(s)
        by_name = {c.name: c for c in report.checks}
        assert report.ok
        assert by_name["main_dichotomy"].detail == "unit step"

    def test_nonroot_family_hits_null_diagonal(self):
        from qcycle.families import NonRootFamilyInput, build_nonroot_family

        s = build_nonroot_family(NonRootFamilyInput(3, [2, 1], 3))
        report = structure_sanity(s)
        by_name = {c.name: c for c in report.checks}
        assert report.ok
        assert by_name["main_dichotomy"].detail == "null diagonal"

    def test_negative_step_fixture_hits_null_diagonal(self):
        from qcycle.families import fixtures_n3

        for fixture in fixtures_n3():
            if fixture.name != "negative_step":
                continue
            report = structure_sanity(fixture.structure)
            by_name = {c.name: c for c in report.checks}
            assert report.ok
            assert by_name["main_dichotomy"].detail == "null diagonal"

    @staticmethod
    def _planted():
        """One planted structure per failure branch of `structure_sanity`:
        G = 2u + uv (n = 3), where neither case of the dichotomy holds; p a
        standard cycle with d re-extended from its level 1 with t[1][1] = 2,
        so the diagonal entries differ; and that p with the column-zero entry
        p[2][0][1] raised by 1, as p or as d."""
        level1 = [[Fraction(0)] * 3 for _ in range(3)]
        level1[1][0], level1[1][1] = Fraction(2), Fraction(1)
        neither = QCycleStructure.involutive(extend_from_level1(level1))
        t = standard_structure(4, 1, [Fraction(1, 2), Fraction(-2, 3)]).p
        level1 = t.level(1)
        level1[1][1] = Fraction(2)
        bent = t.with_entry(2, 0, 1, t.entry(2, 0, 1) + 1)
        return {"neither": neither, "diagonal": QCycleStructure(t, extend_from_level1(level1)),
                "expansion_p": QCycleStructure(bent, t), "expansion_d": QCycleStructure(t, bent)}

    @pytest.mark.parametrize("case, lines", [
        ("neither", ["FAIL  main_dichotomy  [neither case holds]", "PASS  diagonal_entries_agree",
                     "FAIL  column_zero_expansion_p  [first failure at (1, 1)]",
                     "FAIL  column_zero_expansion_d  [first failure at (1, 1)]"]),
        ("diagonal", ["PASS  main_dichotomy", "FAIL  diagonal_entries_agree",
                      "PASS  column_zero_expansion_p", "PASS  column_zero_expansion_d"]),
        ("expansion_p", ["PASS  main_dichotomy", "PASS  diagonal_entries_agree",
                         "FAIL  column_zero_expansion_p  [first failure at (1, 2)]",
                         "PASS  column_zero_expansion_d"]),
        ("expansion_d", ["PASS  main_dichotomy", "PASS  diagonal_entries_agree",
                         "PASS  column_zero_expansion_p",
                         "FAIL  column_zero_expansion_d  [first failure at (1, 2)]"]),
    ])
    def test_planted_failures(self, case, lines):
        report = structure_sanity(self._planted()[case])
        assert not report
        assert report.lines() == lines
        by_name = {c.name: c for c in report.checks}
        # the diagonal check reports no witness; the dichotomy names its case
        assert by_name["diagonal_entries_agree"].detail is None
        assert by_name["main_dichotomy"].detail == (
            "neither case holds" if case == "neither" else "unit step")
