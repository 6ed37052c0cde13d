"""The benchmark's workloads: seeded inputs, items run through the CLI, and the
verdict oracle.

An item is one user-visible verdict, made of one or more `qcycle.cli.main`
calls run in process with stdout and stderr captured.  Every item carries the
verdict it must produce, known by construction; `judge` compares the exit
codes, the printed verdict lines and the report JSON against it.  The checks
that need the library itself (`oracle_checks`) and the size record run
outside the timed items.
"""

from __future__ import annotations

import io
import json
import random
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Optional

import qcycle.cli
from qcycle.errors import QcycleError
from qcycle.solution import build_solution
from qcycle.standard import StandardCycleParams, build_standard_cycle, reconstruct_from_row
from qcycle.tensor import QCycleStructure, extend_from_level1, is_coalgebra_morphism

from calibrate import SpeedProbe, speed_factor

# Size mix of each workload.  "full" is what the benchmark measures; "tiny"
# (n <= 4) runs in seconds and backs the self-test.
PROFILES = {
    "full": {
        "verify-pass": {"standard": [(6, 1), (6, 5), (8, 1), (8, 7), (10, 1), (10, 9)],
                        "nonroot": [6, 8]},
        "screen-fail": {"candidates": [8, 8, 10, 10]},
        "ops-identity": {"standard": [(5, 1), (5, 4), (6, 1), (6, 5), (7, 1), (7, 6)]},
    },
    "tiny": {
        "verify-pass": {"standard": [(3, 1), (3, 2), (4, 1), (4, 3)], "nonroot": [3, 4]},
        "screen-fail": {"candidates": [3, 4]},
        "ops-identity": {"standard": [(3, 1), (3, 2), (4, 1), (4, 3)]},
    },
}

VERIFY_KEYS = ("morphism_p", "morphism_d", "braid_reduced", "braid_full")
SOLUTION_KEYS = ("solution_braid", "solution_coalgebra_endo", "solution_bijective")
OPS_CHECKS = 32


@dataclass(frozen=True)
class Expect:
    """What one CLI call must produce."""

    rc: int
    lines: tuple = ()                 # lines stdout must contain
    results: Optional[dict] = None    # the exact report JSON "results"
    passes: Optional[int] = None      # number of "PASS  " lines


@dataclass(frozen=True)
class Item:
    key: str            # names the input; unique within a workload
    kind: str           # "scc", "nonroot", "candidate" or "ops"
    n: int
    v0: int             # degree of the standard cycle; 0 for nonroot pairs
    steps: tuple        # argv of each CLI call, in order
    expects: tuple      # one Expect per step
    emitted: Optional[str] = None   # tensor file the first step writes
    tensor: Optional[str] = None    # tensor file the item reads
    report: Optional[str] = None    # report JSON the last step writes
    params: tuple = ()              # p_{v0+1}..p_{n-1} of an ops-check item


@dataclass
class Outcome:
    seconds: float      # CPU seconds at reference speed (see calibrate.py)
    cpu_seconds: float  # as measured
    factor: float       # reference speed over the host's speed during the item
    calls: list = field(default_factory=list)   # (rc, stdout, stderr) per step
    report: Optional[dict] = None


# Parameter magnitudes by position; the seed picks the signs.  Fixed
# magnitudes keep the coefficient sizes, and with them the work per item,
# alike across seeds, so runs with different seeds measure the same load.
MAGNITUDES = tuple(Fraction(m) for m in ("1/2", "2/3", "3/2", "1/3", "3/4", "4/3", "2", "1/4", "5/2"))


def _signed(rng: random.Random, magnitude: Fraction) -> Fraction:
    return rng.choice((-1, 1)) * magnitude


def _tail(rng: random.Random, count: int) -> list:
    return [_signed(rng, m) for m in MAGNITUDES[:count]]


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _verify_expect(results: dict) -> Expect:
    ok = all(v for k, v in results.items() if k != "solution_involutive")
    lines = tuple(
        f"{k}: {v}" if k == "solution_involutive" else f"{k}: {'pass' if v else 'FAIL'}"
        for k, v in results.items()
    )
    return Expect(rc=0 if ok else 1, lines=lines, results=results)


def make_items(workload: str, seed: int, inputs: Path, work: Path, profile: str = "full") -> list:
    """The items of one round of `workload`, in order, from `seed`.

    Tensor inputs (screen-fail candidates) are written under `inputs`; files
    the items themselves write go under `work`.  Parameters go on the command
    line as `--params=...`, because argparse takes `--params -1/2,...` for an
    unknown option.
    """
    rng = random.Random(f"{workload}:{seed}")
    mix = PROFILES[profile][workload]
    items = []
    if workload == "verify-pass":
        full_pass = dict.fromkeys(VERIFY_KEYS + SOLUTION_KEYS, True)
        for n, v0 in mix["standard"]:
            key = f"scc-n{n}-v{v0}"
            tail = _tail(rng, n - v0 - 1)
            emitted, report = str(work / f"{key}.json"), str(work / f"{key}.report.json")
            items.append(Item(
                key, "scc", n, v0,
                steps=(("scc", "--n", str(n), "--v0", str(v0), f"--params={_csv(tail)}",
                        "--emit-json", emitted),
                       ("verify", "--tensor", emitted, "--full", "--solution", "--report-json", report)),
                expects=(Expect(0, lines=("braid (reduced): pass",)),
                         _verify_expect({**full_pass, "solution_involutive": True})),
                emitted=emitted, tensor=emitted, report=report))
        for n in mix["nonroot"]:
            key = f"nonroot-n{n}"
            # |lambda_1| = 2 is no root of unity, and |mu| != |lambda_1| makes p != d.
            lambdas = [_signed(rng, Fraction(2))] + _tail(rng, n - 2)
            mu = _signed(rng, Fraction(3, 2))
            emitted, report = str(work / f"{key}.json"), str(work / f"{key}.report.json")
            items.append(Item(
                key, "nonroot", n, 0,
                steps=(("family", "nonroot", "--n", str(n), f"--lambdas={_csv(lambdas)}",
                        f"--mu={mu}", "--emit-json", emitted),
                       ("verify", "--tensor", emitted, "--full", "--solution", "--report-json", report)),
                expects=(Expect(0, lines=("braid (reduced): pass", "involutive: False")),
                         _verify_expect({**full_pass, "solution_involutive": False})),
                emitted=emitted, tensor=emitted, report=report))
    elif workload == "screen-fail":
        inputs.mkdir(parents=True, exist_ok=True)
        expect = _verify_expect({"morphism_p": True, "morphism_d": True,
                                 "braid_reduced": False, "braid_full": False})
        for index, n in enumerate(mix["candidates"]):
            key = f"candidate-n{n}-{index}"
            tail = _tail(rng, n - 2)
            tensor = build_standard_cycle(StandardCycleParams.from_tail(n, 1, tail)).tensor
            level1 = [[tensor.entries[u][v][1] for v in range(n)] for u in range(n)]
            i, j = rng.randint(2, n - 1), rng.randint(2, n - 1)
            level1[i][j] += _signed(rng, Fraction(1, 2))
            path = inputs / f"{key}.json"
            payload = QCycleStructure.involutive(extend_from_level1(level1)).to_payload()
            path.write_text(json.dumps(payload) + "\n")
            report = str(work / f"{key}.report.json")
            items.append(Item(
                key, "candidate", n, 1,
                steps=(("verify", "--tensor", str(path), "--full", "--report-json", report),),
                expects=(expect,), tensor=str(path), report=report))
    elif workload == "ops-identity":
        for n, v0 in mix["standard"]:
            tail = _tail(rng, n - v0 - 1)
            items.append(Item(
                f"ops-n{n}-v{v0}", "ops", n, v0,
                steps=(("ops-check", "--n", str(n), "--v0", str(v0), f"--params={_csv(tail)}",
                        "--pad", "2", "--seed", str(rng.randrange(1 << 30))),),
                expects=(Expect(0, lines=("identity suite: all pass",), passes=OPS_CHECKS),),
                params=tuple(tail)))
    else:
        raise ValueError(f"unknown workload: {workload}")
    return items


def plant_wrong_expectation(item: Item) -> Item:
    """The same item expecting the opposite exit code of its last step."""
    *head, last = item.expects
    return replace(item, expects=(*head, replace(last, rc=1 - min(last.rc, 1))))


# -- running an item ----------------------------------------------------------


def _call(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = qcycle.cli.main(list(argv))   # looked up per call, so tracing sees it
        except SystemExit as exc:              # argparse rejects its input this way
            rc = exc.code
        except Exception:                      # counted as a failed operation
            rc = None
            err.write(traceback.format_exc())
    return rc, out.getvalue(), err.getvalue()


def prepare(item: Item) -> None:
    """Remove what a previous run of the item wrote, so a missing report shows."""
    for path in (item.report, item.emitted):
        if path:
            Path(path).unlink(missing_ok=True)


def execute(item: Item) -> Outcome:
    """Run the item's CLI calls in order, timing them in CPU seconds.

    The process runs one thread and the calls wait on nothing but small local
    files, so its CPU time is the item's latency without the time other
    tenants of a shared host take the CPU away; `SpeedProbe` then removes
    the slowdown they cause on the core itself.
    """
    calls = []
    with SpeedProbe() as probe:
        start = time.process_time()
        for argv, expect in zip(item.steps, item.expects):
            call = _call(argv)
            calls.append(call)
            if call[0] != expect.rc:
                break
        cpu = time.process_time() - start
    outcome = Outcome(probe.scale(cpu), cpu, speed_factor(probe.samples), calls)
    if item.report and Path(item.report).exists():
        outcome.report = json.loads(Path(item.report).read_text())
    return outcome


def judge(item: Item, outcome: Outcome) -> tuple:
    """(failed, mismatches) of one run of the item.

    It failed when a call raised, exited 2 or the report was not written;
    each difference from the expected verdict is one mismatch.
    """
    mismatches = []
    failed = False
    for index, (expect, (rc, out, err)) in enumerate(zip(item.expects, outcome.calls)):
        if rc is None or rc == 2:
            failed = True
        if rc != expect.rc:
            mismatches.append(f"step {index}: exit {rc}, expected {expect.rc}")
        lines = out.splitlines()
        for line in expect.lines:
            if line not in lines:
                mismatches.append(f"step {index}: missing line {line!r}")
        if expect.passes is not None:
            passes = sum(line.startswith("PASS  ") for line in lines)
            fails = sum(line.startswith("FAIL  ") for line in lines)
            if (passes, fails) != (expect.passes, 0):
                mismatches.append(f"step {index}: {passes} pass / {fails} fail lines")
    if len(outcome.calls) < len(item.steps):
        mismatches.append(f"stopped after step {len(outcome.calls) - 1}")
    expected = item.expects[-1].results
    if expected is not None:
        if outcome.report is None:
            failed = True
            mismatches.append("no report written")
        elif outcome.report.get("results") != expected:
            mismatches.append(f"report {outcome.report.get('results')} != {expected}")
    return failed, mismatches


# -- checks and record outside the timed items --------------------------------


def _max_bits(values) -> int:
    return max((max(abs(v.numerator).bit_length(), v.denominator.bit_length()) for v in values),
               default=0)


def tensor_bits(t) -> int:
    return _max_bits(v for row in t.entries for col in row for v in col)


def map_bits(smap) -> int:
    return _max_bits(v for row in smap.matrix for v in row)


def _nnz(t) -> int:
    return sum(1 for row in t.entries for col in row for v in col if v)


def oracle_checks(item: Item, text: Optional[str]) -> tuple:
    """(mismatches, record) for one input, from an independent route.

    `text` is the tensor file the item read.  An scc tensor must equal
    `reconstruct_from_row` of its first row; a screen-fail candidate must be
    a coalgebra morphism.  The record gives the input's nnz and coefficient
    bit length, and for verify-pass the bit length of its solution map.
    """
    record = {"n": item.n, "v0": item.v0, "kind": item.kind, "nnz": 0, "max_coeff_bits": 0}
    try:
        return _oracle_checks(item, text, record), record
    except (QcycleError, ValueError) as exc:    # a malformed or unbuildable input
        return [f"oracle could not run: {type(exc).__name__}: {exc}"], record


def _oracle_checks(item: Item, text: Optional[str], record: dict) -> list:
    mismatches = []
    if item.kind == "ops":
        params = StandardCycleParams.from_tail(item.n, item.v0, item.params)
        structure = QCycleStructure.involutive(build_standard_cycle(params).tensor)
    elif text is None:
        return ["input file missing"]
    else:
        structure = QCycleStructure.from_payload(json.loads(text))
    p = structure.p
    if item.kind == "scc":
        row = [p.entries[1][v][1] for v in range(item.n)]
        if reconstruct_from_row(item.n, item.v0, row) != p:
            mismatches.append("emitted tensor differs from reconstruct_from_row")
    if item.kind == "candidate" and not is_coalgebra_morphism(p):
        mismatches.append("candidate is not a coalgebra morphism")
    record["nnz"] = _nnz(p) + (0 if structure.is_involutive() else _nnz(structure.d))
    record["max_coeff_bits"] = max(tensor_bits(p), tensor_bits(structure.d))
    if item.kind in ("scc", "nonroot"):
        record["solution_max_coeff_bits"] = map_bits(build_solution(structure))
    return mismatches
