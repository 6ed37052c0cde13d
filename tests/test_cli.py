import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from qcycle import cli
from qcycle.cli import EXIT_CHECK_FAILED, EXIT_OK, EXIT_USAGE, main
from qcycle.families import NonRootFamilyInput, build_nonroot_family
from qcycle.solution import check_braid_full
from qcycle.tensor import QCycleStructure, extend_from_level1, is_coalgebra_morphism

from conftest import standard_structure


def test_scc_emit_and_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "scc.json"
    assert main(["scc", "--n", "4", "--v0", "1", "--params", "1,1", "--emit-json", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["n"] == 4
    restored = QCycleStructure.from_payload(payload)
    assert restored.to_payload()["p"] == payload["p"]

    report = tmp_path / "report.json"
    assert main(
        ["verify", "--tensor", str(out), "--full", "--solution", "--report-json", str(report)]
    ) == EXIT_OK
    captured = capsys.readouterr().out
    assert "braid_full: pass" in captured
    assert "solution_involutive: True" in captured
    results = json.loads(report.read_text())
    assert results["schema"] == 1
    assert results["results"]["braid_full"] is True


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    # `main` reuses the parser it built first; a run of calls in one process,
    # usage errors included, prints and exits as separate processes do
    scc, report = tmp_path / "scc.json", tmp_path / "report.json"
    argvs = [
        ["scc", "--n", "4", "--v0", "1", "--params=1/2,-2/3", "--emit-json", str(scc)],
        ["verify", "--tensor", str(scc), "--full", "--solution", "--report-json", str(report)],
        ["ops-check", "--n", "3", "--v0", "1", "--params=1/2", "--pad", "1"],
        ["verify", "--full"],
        ["fixtures", "--n", "4", "--emit", str(tmp_path / "fx")],
        ["scc", "--n", "4", "--v0", "3", "--params="],
    ]

    def written():
        return [path.read_text() if path.exists() else None for path in (scc, report)]

    in_process = []
    for argv in argvs:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err, written()))
    assert [run[0] for run in in_process] == [EXIT_OK, EXIT_OK, EXIT_OK, EXIT_USAGE, EXIT_USAGE,
                                              EXIT_OK]
    assert cli._build_parser() is cli._build_parser()
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    scc.unlink()
    report.unlink()
    for argv, run in zip(argvs, in_process):
        proc = subprocess.run([sys.executable, "-m", "qcycle.cli"] + argv, env=env,
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr, written()) == run, argv


def test_verify_detects_corruption(tmp_path, capsys):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)])
    payload = json.loads(out.read_text())
    payload["p"][2][1][1] = "7"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--tensor", str(bad)]) == EXIT_CHECK_FAILED
    assert "FAIL" in capsys.readouterr().out


def test_verify_non_morphism_records_every_check(tmp_path, capsys):
    # G = u + v: every level below n is a power of G, but G^3 != 0.
    n = 3
    level1 = [[Fraction(0)] * n for _ in range(n)]
    level1[1][0] = level1[0][1] = Fraction(1)
    path = tmp_path / "two_sided.json"
    structure = QCycleStructure.involutive(extend_from_level1(level1))
    path.write_text(json.dumps(structure.to_payload()))
    report = tmp_path / "report.json"
    argv = ["verify", "--tensor", str(path), "--full", "--solution", "--report-json", str(report)]
    assert main(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    results = json.loads(report.read_text())["results"]
    checks = ["morphism_p", "morphism_d", "braid_reduced", "braid_full", "solution_braid",
              "solution_coalgebra_endo", "solution_bijective"]
    assert results == dict.fromkeys(checks + ["solution_involutive"], False)
    for name in checks:
        assert f"{name}: FAIL" in out
    assert "solution_involutive: False" in out


def test_verify_singular_side_map_records_every_solution_check(tmp_path, capsys):
    # G = uv is a coalgebra morphism (G^3 = 0) whose step block is singular.
    n = 3
    level1 = [[Fraction(0)] * n for _ in range(n)]
    level1[1][1] = Fraction(1)
    path = tmp_path / "uv.json"
    path.write_text(json.dumps(QCycleStructure.involutive(extend_from_level1(level1)).to_payload()))
    report = tmp_path / "report.json"
    argv = ["verify", "--tensor", str(path), "--solution", "--report-json", str(report)]
    assert main(argv) == EXIT_CHECK_FAILED
    out = capsys.readouterr().out
    results = json.loads(report.read_text())["results"]
    assert results["morphism_p"] and results["morphism_d"]
    solution = ["solution_braid", "solution_coalgebra_endo", "solution_bijective"]
    assert {k: results[k] for k in solution + ["solution_involutive"]} == dict.fromkeys(
        solution + ["solution_involutive"], False
    )
    assert "solution construction failed: right side map is not invertible" in out
    for name in solution:
        assert f"{name}: FAIL" in out
    assert "solution_involutive: False" in out


def _verify_cases():
    """The reordered braid scans of verify --full meet passing and failing
    inputs with p = d and p != d, and a pair that is not coalgebra morphisms."""
    scc = standard_structure(5, 1, [Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)])
    nonroot = build_nonroot_family(NonRootFamilyInput(
        5, [Fraction(2), Fraction(1, 2), Fraction(-2, 3), Fraction(3, 2)], Fraction(3, 2)))
    bent = []
    for s in (scc, nonroot):
        level1 = s.p.level(1)
        level1[2][2] += 1
        p = extend_from_level1(level1)
        bent.append(QCycleStructure(p, p if s.is_involutive() else s.d))
    two_sided = [[Fraction(0)] * 3 for _ in range(3)]
    two_sided[1][0] = two_sided[0][1] = Fraction(1)   # G = u + v, G^3 != 0
    not_morphism = QCycleStructure.involutive(extend_from_level1(two_sided))
    return [pytest.param(scc, True, id="pass p = d"), pytest.param(nonroot, True, id="pass p != d"),
            pytest.param(bent[0], False, id="fail p = d"),
            pytest.param(bent[1], False, id="fail p != d"),
            pytest.param(not_morphism, False, id="not a morphism")]


@pytest.mark.parametrize("structure, passes", _verify_cases())
def test_verify_full_reads_the_reduced_verdict_off_a_passing_full_scan(
        tmp_path, capsys, monkeypatch, structure, passes):
    # verify --full runs the full scan first and the reduced scan only when
    # the full one fails; its output is plain verify's plus the braid_full line
    morphisms = is_coalgebra_morphism(structure.p) and is_coalgebra_morphism(structure.d)
    if morphisms and not passes and not structure.is_involutive():
        full = check_braid_full(structure)   # families 1 and 2 fail, family 3 holds
        assert not full.family1_ok and not full.family2_ok and full.family3_ok
    path = tmp_path / "s.json"
    path.write_text(json.dumps(structure.to_payload()))
    reduced_calls = []
    reduced = cli.check_braid_reduced

    def counted(s):
        reduced_calls.append(s)
        return reduced(s)

    monkeypatch.setattr(cli, "check_braid_reduced", counted)
    plain_code = main(["verify", "--tensor", str(path)])
    plain = capsys.readouterr().out
    del reduced_calls[:]
    full_code = main(["verify", "--tensor", str(path), "--full"])
    full = capsys.readouterr().out
    assert full_code == plain_code == (EXIT_OK if passes else EXIT_CHECK_FAILED)
    lines = full.splitlines(keepends=True)
    assert sum(line.startswith("braid_full:") for line in lines) == 1
    assert "".join(line for line in lines if not line.startswith("braid_full:")) == plain
    assert len(reduced_calls) == (0 if passes or not morphisms else 1)


def test_schema_is_checked(tmp_path):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)])
    payload = json.loads(out.read_text())
    for schema in (None, 2, "1", True):
        if schema is None:
            del payload["schema"]
        else:
            payload["schema"] = schema
        bad = tmp_path / "schema.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE


def test_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE
    assert main(["scc", "--n", "4", "--v0", "1", "--params", "1,zzz"]) == EXIT_USAGE


def test_non_utf8_tensor_file_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: cannot read tensor file")


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_tensor_file_nested_too_deep_is_a_parse_error(tmp_path, capsys, command):
    # json.loads raises RecursionError here; exit 1 would read as a FAIL verdict
    bad = tmp_path / "deep.json"
    bad.write_text("[" * 100_000 + "]" * 100_000)
    assert main([command, "--tensor", str(bad)]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert not out
    assert err.startswith("error: cannot read tensor file") and "Traceback" not in err


def test_scc_unwritable_output_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "scc.json"
    argv = ["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")


def test_verify_unwritable_report_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)])
    report = tmp_path / "missing" / "report.json"
    assert main(["verify", "--tensor", str(out), "--report-json", str(report)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {report}: ")


def test_float_coefficient_is_a_parse_error(tmp_path):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)])
    payload = json.loads(out.read_text())
    payload["p"][2][1][1] = 0.1
    bad = tmp_path / "float.json"
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE


def test_string_where_a_list_is_expected_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "digits.json"
    bad.write_text(json.dumps({"schema": 1, "n": 2, "p": [["10", "01"], ["00", "10"]]}))
    assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE
    assert "JSON array" in capsys.readouterr().err


def test_structure_n_must_be_an_integer(tmp_path, capsys):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "1", "--emit-json", str(out)])
    payload = json.loads(out.read_text())
    for n in (3.9, 3.0, "3", True, None):
        payload["n"] = n
        bad = tmp_path / "n.json"
        bad.write_text(json.dumps(payload))
        assert main(["verify", "--tensor", str(bad)]) == EXIT_USAGE
        assert "integer" in capsys.readouterr().err
    payload["n"] = 3
    bad.write_text(json.dumps(payload))
    assert main(["verify", "--tensor", str(bad)]) == EXIT_OK


def test_misshapen_tensor_is_rejected_before_any_cell_is_read(tmp_path, monkeypatch, capsys):
    # a p of the wrong size for the declared n, a ragged row, and a d of the
    # wrong size are each rejected on the raw arrays: no cell becomes a rational
    from qcycle import tensor

    read = []
    ratio = tensor._payload_ratio
    monkeypatch.setattr(tensor, "_payload_ratio", lambda value: read.append(value) or ratio(value))
    good = QCycleStructure.involutive(extend_from_level1([[Fraction(0)] * 3] * 3)).to_payload()
    big = [[["0"] * 30 for _ in range(30)] for _ in range(30)]
    ragged = [list(row) for row in good["p"]]
    ragged[1][2] = ["0"] * 100_000
    cases = [({**good, "p": big}, "tensor dimension does not match declared n"),
             ({**good, "p": ragged}, "malformed tensor payload: entries must form an n*n*n grid"),
             ({**good, "d": big}, "tensor dimension does not match declared n")]
    for payload, message in cases:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        for flags in ([], ["--full"]):
            assert main(["verify", "--tensor", str(path)] + flags) == EXIT_USAGE
            assert message in capsys.readouterr().err
            # d is checked after p is read, so only p's 27 cells are
            assert len(read) == (27 if "d" in payload else 0)
            del read[:]


def test_negative_rational_option_values(capsys):
    assert main(["scc", "--n", "3", "--v0", "1", "--params", "-1/2"]) == EXIT_OK
    assert "params='-1/2'" in capsys.readouterr().out
    assert main(["ops-check", "--n", "3", "--v0", "1", "--params", "-1/2", "--pad", "1"]) == EXIT_OK
    assert main(["family", "nonroot", "--n", "3", "--lambdas", "-1/2,2", "--mu", "-3/4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "lambda_1=-1/2 mu=-3/4" in out
    # the --opt=value form reads the same
    assert main(["family", "nonroot", "--n", "3", "--lambdas=-1/2,2", "--mu=-3/4"]) == EXIT_OK
    assert "lambda_1=-1/2 mu=-3/4" in capsys.readouterr().out


def test_validation_error_exit_code():
    assert main(["scc", "--n", "4", "--v0", "1", "--params", "1,2,3"]) == EXIT_USAGE


def test_ops_check(capsys):
    assert main(["ops-check", "--n", "3", "--v0", "2", "--params", "", "--pad", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "identity suite: all pass" in out


def test_bad_degree_is_reported_before_the_parameter_count(capsys):
    # v0 = n and n = 1 leave no valid degree; the count p_{v0+1}..p_{n-1}
    # would be negative, so the degree is checked first.
    for argv in (["ops-check", "--n", "3", "--v0", "3", "--params="],
                 ["scc", "--n", "1", "--v0", "1", "--params="]):
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "degree must satisfy 1 <= v0 < n" in err
        assert "parameters" not in err


def test_ops_check_rejects_an_order_above_the_cap(monkeypatch, capsys):
    def no_series(*args):
        raise AssertionError("a series was built for an order above the cap")

    monkeypatch.setattr(cli, "build_standard_cycle", no_series)
    start = time.perf_counter()
    argv = ["ops-check", "--n", "4", "--v0", "2", "--params=1/2", "--pad", "1000000000"]
    assert main(argv) == EXIT_USAGE
    assert time.perf_counter() - start < 1.0
    assert f"is above the limit {cli.MAX_OPS_ORDER}" in capsys.readouterr().err
    # the cap itself is accepted (only the build is stubbed out here)
    pad = str(cli.MAX_OPS_ORDER - 4)
    with pytest.raises(AssertionError, match="a series was built"):
        main(["ops-check", "--n", "4", "--v0", "2", "--params=1/2", "--pad", pad])


def test_verify_rejects_a_declared_n_above_the_cap(tmp_path, monkeypatch, capsys):
    def no_check(*args):
        raise AssertionError("the structure was parsed or checked")

    for name in ("is_coalgebra_morphism", "check_braid_reduced", "check_braid_full",
                 "build_solution"):
        monkeypatch.setattr(cli, name, no_check)
    monkeypatch.setattr(cli.QCycleStructure, "from_payload", staticmethod(no_check))

    def write(n):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"schema": 1, "n": n, "p": [[["1", "0"], ["0", "1"]]] * 2}))
        return str(path)

    above = write(cli.MAX_VERIFY_N + 1)
    for flags in ([], ["--full"], ["--solution"], ["--full", "--solution"]):
        start = time.perf_counter()
        assert main(["verify", "--tensor", above] + flags) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert f"is above the limit {cli.MAX_VERIFY_N}" in capsys.readouterr().err
    # at the cap itself the guard lets the payload through to the (stubbed) parser
    for flags in ([], ["--full", "--solution"]):
        with pytest.raises(AssertionError, match="was parsed"):
            main(["verify", "--tensor", write(cli.MAX_VERIFY_N)] + flags)


def test_every_braid_scan_rejects_n_above_the_cap(tmp_path, monkeypatch, capsys):
    # scc, family nonroot and classify scan at any n they are given; each
    # rejects n = cap + 1 before it parses or builds anything (all stubbed)
    def no_work(*args, **kwargs):
        raise AssertionError("input was parsed or built")

    for name in ("NonRootFamilyInput", "parse_rational", "classify", "check_braid_reduced"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.StandardCycleParams, "from_tail", staticmethod(no_work))
    monkeypatch.setattr(cli.QCycleStructure, "from_payload", staticmethod(no_work))

    def argvs(n):
        path = tmp_path / f"n{n}.json"
        path.write_text(json.dumps({"schema": 1, "n": n, "p": []}))
        return (["scc", "--n", str(n), "--v0", "1", "--params=1"],
                ["family", "nonroot", "--n", str(n), "--lambdas=2", "--mu=3/2"],
                ["classify", "--tensor", str(path)])

    for argv in argvs(cli.MAX_VERIFY_N + 1):
        start = time.perf_counter()
        assert main(argv) == EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        assert f"n = {cli.MAX_VERIFY_N + 1} is above the limit {cli.MAX_VERIFY_N}" in \
            capsys.readouterr().err
    for argv in argvs(cli.MAX_VERIFY_N):
        with pytest.raises(AssertionError, match="parsed or built"):
            main(argv)
    for command in ("scc", "verify", "classify", "family"):
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"n <= {cli.MAX_VERIFY_N}" in capsys.readouterr().out


def test_classify_output(tmp_path, capsys):
    out = tmp_path / "scc.json"
    main(["scc", "--n", "3", "--v0", "1", "--params", "2", "--emit-json", str(out)])
    capsys.readouterr()
    assert main(["classify", "--tensor", str(out)]) == EXIT_OK
    assert "row: p11_nonzero" in capsys.readouterr().out


def test_family_nonroot(tmp_path, capsys):
    out = tmp_path / "family.json"
    code = main(
        ["family", "nonroot", "--n", "3", "--lambdas", "2,1", "--mu", "3", "--emit-json", str(out)]
    )
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "involutive: False" in printed
    restored = QCycleStructure.from_payload(json.loads(out.read_text()))
    assert restored.d.entry(2, 0, 1) == 3
    assert main(["verify", "--tensor", str(out), "--full", "--solution"]) == EXIT_OK
    assert "solution_involutive: False" in capsys.readouterr().out


def test_family_rejects_root_of_unity(capsys):
    # an invalid input, like mu = 0: a usage error, not a failed check
    assert main(["family", "nonroot", "--n", "3", "--lambdas=-1,1", "--mu", "2"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: lambda_1 = -1 has a power equal to 1 below n\n"


def test_fixture_emission(tmp_path):
    out_dir = tmp_path / "fixtures"
    assert main(["fixtures", "--n", "3", "--emit", str(out_dir)]) == EXIT_OK
    files = sorted(Path(out_dir).glob("*.json"))
    assert len(files) == 9
    for path in files:
        QCycleStructure.from_payload(json.loads(path.read_text()))


def test_fixtures_into_a_regular_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["fixtures", "--n", "3", "--emit", str(taken)]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: cannot write {taken}: ")


def test_fixture_wrong_n():
    assert main(["fixtures", "--n", "4", "--emit", "/tmp/unused"]) == EXIT_USAGE


def test_import_loads_no_dataclasses_or_inspect():
    # every CLI call is a fresh process that pays for its imports, and these
    # two modules, with the dataclasses built on them, were more than half of
    # `import qcycle.cli`; checked in a fresh interpreter, as pytest imports both
    src = str(Path(cli.__file__).resolve().parents[1])
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qcycle.cli; "
             "print(sorted({'dataclasses', 'inspect'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-I", "-c", probe, src], capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
