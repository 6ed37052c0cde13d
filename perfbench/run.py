#!/usr/bin/env python3
"""qcycle benchmark: time the CLI's verdict pipelines end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-pass --seed 1 --seconds 30 --trace 0

The workload's inputs are generated from --seed during set-up.  Items then
run one after another, in process, through `qcycle.cli.main` (one process,
one thread, a closed loop) until --seconds have passed and every input of
the mix has run at least once.  Times are CPU seconds at reference speed
(see calibrate.py).  --trace 0 reports the end-to-end metrics; --trace 1
runs each item both untraced and traced, over whole rounds of the mix, and
reports per-layer metrics from the traced runs (see tracing.py).

Every item's verdict is checked against the one expected by construction.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The line before it is the full record: the input mix and sizes,
the machine, and every metric with its unit.  See NOTES.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import SpeedProbe
from tracing import MODULES, TRACED, Tracer, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 11
WORKLOADS = ("verify-pass", "screen-fail", "ops-identity")

# Layer functions whose self time is fitted against n (on v0 = 1 inputs).
GROWTH = ("solution.build_solution", "solution.check_braid_on_map", "solution.check_braid_full",
          "tensor.is_coalgebra_morphism", "operators.identity_suite")

# Run in a fresh interpreter: argv[1] is src/, argv[2] this directory.  The
# kernel runs after the import, so the import still pays for `fractions`.
IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "start = time.process_time()\n"
    "import qcycle.cli\n"
    "seconds = time.process_time() - start\n"
    "import calibrate\n"
    "print(seconds * calibrate.speed_factor([calibrate.kernel_seconds() for _ in range(10)]))\n"
)


def use_source_tree() -> None:
    """Import qcycle from this checkout's src/, or stop if it has none."""
    if not (SRC / "qcycle" / "__init__.py").is_file():
        sys.exit(f"error: no qcycle sources under {SRC}; run from the root of a qcycle checkout")
    sys.path.insert(0, str(SRC))


def import_seconds() -> float:
    """CPU seconds of `import qcycle.cli` in a fresh interpreter, at reference speed."""
    proc = subprocess.run([sys.executable, "-I", "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def machine_record() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


END_TO_END = {"setup_s": "s", "items_per_s": "1/s", "item_s_p50": "s", "item_s_p50_nmax": "s",
              "failed_ops": "ratio", "wrong_verdicts": "count", "peak_rss_mb": "MB"}


def metric_specs() -> dict:
    """{name: unit} of every metric, end-to-end first; per-layer follow."""
    specs = dict(END_TO_END)
    for module, qualname in TRACED:
        specs[f"{span_name(module, qualname)}.calls"] = "count"
        specs[f"{span_name(module, qualname)}.self_s"] = "s"
    for module in MODULES:
        specs[f"{module}.self_s"] = "s"
    for name in GROWTH:
        specs[f"{name}.growth_n"] = "slope"
    specs["tensor.is_coalgebra_morphism.repeat_ratio"] = "ratio"
    specs["tensor.input_max_coeff_bits"] = "bits"
    specs["solution.build_solution.max_coeff_bits"] = "bits"
    specs["trace.overhead_ratio"] = "ratio"
    return specs


def _slope(points) -> float:
    """Least-squares slope of log y against log x; 0.0 with fewer than 2 points."""
    pts = [(math.log(x), math.log(y)) for x, y in points if y > 0]
    if len(pts) < 2:
        return 0.0
    return statistics.linear_regression(*zip(*pts)).slope


@dataclass
class Tally:
    """What the measured loop saw, per input and in total."""

    times: dict        # input key -> untraced item seconds at reference speed
    cpu_times: dict    # input key -> the same, as measured
    traced: list = field(default_factory=list)      # (run id, item, speed factor)
    pairs: list = field(default_factory=list)       # (untraced, traced) seconds of one item
    texts: dict = field(default_factory=dict)       # input key -> its tensor file's text
    mismatches: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0

    def check(self, item, outcome) -> None:
        """Count the item's verdict; its tensor file must not change between runs."""
        from workloads import judge

        failed, wrong = judge(item, outcome)
        if item.tensor and Path(item.tensor).exists():
            text = Path(item.tensor).read_text()
            if self.texts.setdefault(item.key, text) != text:
                wrong.append("tensor differs from the first run of this input")
        self.count(item, failed, wrong)

    def count(self, item, failed: bool, wrong: list) -> None:
        self.failed += failed
        self.wrong += bool(wrong)
        self.mismatches += [f"{item.key}: {m}" for m in wrong]


def set_up(workload: str, seed: int, profile: str, inputs: Path, work: Path) -> tuple:
    """(items, setup_s): the median of SETUP_REPEATS imports plus input generations."""
    from workloads import make_items

    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_seconds()
        with SpeedProbe() as probe:
            start = time.process_time()
            items = make_items(workload, seed, inputs, work, profile)
            generated = time.process_time() - start
        setups.append(imported + probe.scale(generated))
    return items, statistics.median(setups)


def measure(items: list, seconds: float, tracer) -> Tally:
    """Run the items round after round until `seconds` have passed.

    Every input runs at least once.  With a tracer, each item runs untraced
    and traced, and the loop stops only at the end of a round.
    """
    from workloads import execute, prepare

    tally = Tally({item.key: [] for item in items}, {item.key: [] for item in items})
    deadline = time.perf_counter() + seconds
    run_id = 0
    while True:
        item = items[run_id % len(items)]
        # Alternate which pass goes first, so neither always runs warm.
        passes = (run_id % 2 == 1, run_id % 2 == 0) if tracer else (False,)
        seconds_by_pass = {}
        for traced in passes:
            prepare(item)
            gc.collect()
            if traced:
                tracer.item = run_id
                tracer.install()
            try:
                outcome = execute(item)
            finally:
                if traced:
                    tracer.uninstall()
            tally.attempted += 1
            seconds_by_pass[traced] = outcome.seconds
            if traced:
                tally.traced.append((run_id, item, outcome.factor))
            else:
                tally.times[item.key].append(outcome.seconds)
                tally.cpu_times[item.key].append(outcome.cpu_seconds)
            tally.check(item, outcome)
        if tracer:
            tally.pairs.append((seconds_by_pass[False], seconds_by_pass[True]))
        run_id += 1
        done = run_id % len(items) == 0 if tracer else run_id >= len(items)
        if done and time.perf_counter() >= deadline:
            return tally


def layer_metrics(tracer, tally: Tally) -> dict:
    """Per-layer metrics per traced item, from the tracer's spans and captures."""
    from workloads import map_bits

    spans = tracer.per_item()
    # {run id: {span name: (calls, self seconds at reference speed)}}
    layer = {r: {name: (calls, self_s * factor) for name, (calls, self_s) in spans[r].items()}
             for r, _, factor in tally.traced}
    count = len(layer)
    values = {}
    for module, qualname in TRACED:
        name = span_name(module, qualname)
        values[f"{name}.calls"] = sum(layer[r].get(name, (0, 0.0))[0] for r in layer) / count
        values[f"{name}.self_s"] = sum(layer[r].get(name, (0, 0.0))[1] for r in layer) / count
    for module in MODULES:
        values[f"{module}.self_s"] = sum(
            values[f"{span_name(m, q)}.self_s"] for m, q in TRACED if m == module)
    for name in GROWTH:
        by_n = {}
        for r, item, _ in tally.traced:
            if item.v0 == 1:
                by_n.setdefault(item.n, []).append(layer[r].get(name, (0, 0.0))[1])
        values[f"{name}.growth_n"] = _slope((n, statistics.fmean(v)) for n, v in by_n.items())
    scans = repeats = solution_bits = 0
    for r in layer:
        seen = set()
        for tensor in tracer.take_captured("tensor.is_coalgebra_morphism", r):
            repeats += hash(tensor) in seen
            seen.add(hash(tensor))
            scans += 1
        for smap in tracer.take_captured("solution.build_solution", r):
            solution_bits = max(solution_bits, map_bits(smap))
    values["tensor.is_coalgebra_morphism.repeat_ratio"] = repeats / scans if scans else 0.0
    values["solution.build_solution.max_coeff_bits"] = solution_bits
    values["trace.overhead_ratio"] = (sum(t for _, t in tally.pairs)
                                      / sum(u for u, _ in tally.pairs))
    return values


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 profile: str = "full", plant=None) -> tuple:
    """Set up, measure and check one workload; returns (record, result).

    `plant`, when given, maps the item list to the one whose verdicts are
    expected; the self-test uses it to plant a wrong expectation.
    """
    from workloads import oracle_checks

    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        inputs, work = Path(tmp) / "inputs", Path(tmp) / "work"
        work.mkdir()
        items, setup_s = set_up(workload, seed, profile, inputs, work)
        if plant is not None:
            items = plant(items)
        tracer = Tracer() if trace else None
        tally = measure(items, seconds, tracer)

        inputs_record = {}
        for item in items:
            wrong, record = oracle_checks(item, tally.texts.get(item.key))
            tally.count(item, False, wrong)
            record["samples"] = len(tally.times[item.key])
            record["median_s"] = statistics.median(tally.times[item.key])
            record["median_cpu_s"] = statistics.median(tally.cpu_times[item.key])
            inputs_record[item.key] = record

    medians = [inputs_record[item.key]["median_s"] for item in items]
    nmax = max(item.n for item in items)
    values = {
        "setup_s": setup_s,
        "items_per_s": len(items) / sum(medians),
        "item_s_p50": statistics.median(medians),
        "item_s_p50_nmax": statistics.median(
            m for m, item in zip(medians, items) if item.n == nmax),
        "failed_ops": tally.failed / tally.attempted,
        "wrong_verdicts": tally.wrong,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if trace:
        values.update(layer_metrics(tracer, tally))
        values["tensor.input_max_coeff_bits"] = max(
            r["max_coeff_bits"] for r in inputs_record.values())
        tracer.dump(WORK / f"trace-{workload}-seed{seed}.jsonl")

    specs = metric_specs()
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "profile": profile, "machine": machine_record(),
        "mix": [f"n={item.n} v0={item.v0} {item.kind}" if item.v0 else f"n={item.n} {item.kind}"
                for item in items],
        "items_per_round": len(items), "items_attempted": tally.attempted,
        "inputs": inputs_record,
        "metrics": {n: {"value": values[n], "unit": specs[n]} for n in specs if n in values},
        "mismatches": tally.mismatches[:20],
    }
    # failed_ops and wrong_verdicts read 0 at a correct commit; the result
    # line carries them as `failed` and `correct`.
    shown = [n for n in specs if (n in END_TO_END) != trace
             and n not in ("failed_ops", "wrong_verdicts")]
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: record["metrics"][n] for n in shown},
    }
    return record, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_source_tree()
    record, result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in record["metrics"].items():
        print(f"{name}: {metric['value']:.6g} {metric['unit']}")
    for line in record["mismatches"]:
        print(f"mismatch: {line}")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
