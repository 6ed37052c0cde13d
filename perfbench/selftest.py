#!/usr/bin/env python3
"""Self-test of the benchmark on the tiny profile (n <= 4); runs in seconds.

    python3 perfbench/selftest.py

For each workload, untraced and traced, it checks that the result line
carries exactly the metrics BENCHMARK.json declares, with their units; that
the record carries every metric the benchmark defines; that every verdict is
right; and that the call counts show the layer split each workload was
chosen for.  It then plants one wrong expected verdict and checks that
`wrong_verdicts` counts it, so the verdict check is shown able to fail.
Exits 1 on any failed check.
"""

from __future__ import annotations

import json
import sys

import run


def check_workload(workload: str, declared: dict, failures: list) -> None:
    from workloads import plant_wrong_expectation

    specs = run.metric_specs()

    def fail(message):
        failures.append(f"{workload}: {message}")

    for trace in (False, True):
        record, result = run.run_workload(workload, seed=1, seconds=0, trace=trace, profile="tiny")
        got = {name: metric["unit"] for name, metric in result["metrics"].items()}
        want = declared["per_layer" if trace else "end_to_end"]
        if got != want:
            fail(f"trace={int(trace)}: result metrics {sorted(set(got) ^ set(want))} or units differ")
        values = {name: metric["value"] for name, metric in record["metrics"].items()}
        for name in specs if trace else run.END_TO_END:
            if name not in values or record["metrics"][name]["unit"] != specs[name]:
                fail(f"trace={int(trace)}: record lacks {name} [{specs[name]}]")
            elif not isinstance(values[name], (int, float)):
                fail(f"trace={int(trace)}: {name} is not a number")
        if not result["correct"] or result["failed"] or values.get("wrong_verdicts") or values.get("failed_ops"):
            fail(f"trace={int(trace)}: wrong verdicts or failed items: {record['mismatches']}")
        if not trace:
            continue
        solution_calls = sum(v for k, v in values.items() if k.startswith("solution.") and k.endswith(".calls"))
        if workload == "verify-pass" and values["solution.build_solution.calls"] != 1:
            fail("expected one build_solution call per item")
        if workload == "screen-fail" and (values["solution.build_solution.calls"] != 0
                                          or values["tensor.is_coalgebra_morphism.calls"] != 6):
            fail("expected no build_solution and 6 morphism scans per item")
        if workload == "ops-identity" and solution_calls:
            fail("expected no solution calls")

    def planted(items):
        return [plant_wrong_expectation(items[0])] + items[1:]

    record, result = run.run_workload(workload, seed=1, seconds=0, trace=False, profile="tiny",
                                      plant=planted)
    if record["metrics"]["wrong_verdicts"]["value"] < 1 or result["correct"]:
        fail("a planted wrong expected verdict was not counted")


def main() -> int:
    run.use_source_tree()
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {kind: {m["name"]: m["unit"] for m in bench[kind]}
                for kind in ("end_to_end", "per_layer")}
    failures = []
    for workload in run.WORKLOADS:
        check_workload(workload, declared, failures)
        print(f"{workload}: checked")
    for line in failures:
        print(f"FAIL {line}")
    print("self-test:", "FAIL" if failures else "pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
