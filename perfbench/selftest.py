"""Fast self-test of the benchmark harness on tiny instances.

Usage: python3 perfbench/selftest.py

Runs one round of K6 -> (3,3) (arrows) and K5 -> (3,3) (free, with its
witness decoded), untraced and traced, and checks that every metric is
printed with its unit, that the JSON line has the agreed shape and that
BENCHMARK.json declares exactly those metrics.  It also checks that the
harness counts a wrong verdict and a non-free colouring as failures.
Exits 0 when all checks pass.
"""
from __future__ import annotations

import json

import checks
import inputs
import run

K6 = inputs.pinned_instance("K6", inputs.complete(6), (3, 3), "arrows", 10_000, "E~~w")
K5 = inputs.pinned_instance("K5", inputs.complete(5), (3, 3), "free", 10_000, "D~{")
K6_WRONG = inputs.Instance("K6", K6.graph, (3, 3), "free", 10_000, K6.graph6)


def expect(cond: bool, what: str, problems: list[str]):
    if not cond:
        problems.append(what)


def check_run(trace: bool, problems: list[str]):
    result_run = run.execute("selftest", (K6, K5), seed=0, seconds=0, trace=trace)
    lines, result = run.report(result_run)
    printed = {}
    for line in lines:
        if line.startswith("metric "):
            _, name, value, unit = line.split(" ")
            printed[name] = (float(value), unit)
    wanted = {**(run.PER_LAYER if trace else run.END_TO_END), **run.OUTCOME}
    for name, unit in wanted.items():
        expect(name in printed and printed[name][1] == unit,
               f"trace={int(trace)}: metric {name} not printed with unit {unit}", problems)
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"trace={int(trace)}: JSON keys {sorted(result)}", problems)
    chosen = run.PER_LAYER_JSON if trace else tuple(run.END_TO_END)
    expect(list(result["metrics"]) == list(chosen)
           and all(set(m) == {"value", "unit"} for m in result["metrics"].values()),
           f"trace={int(trace)}: JSON metrics {list(result['metrics'])}", problems)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] == 2,
           f"trace={int(trace)}: result {result}; errors {result_run.errors} "
           f"{[j.error for j in result_run.jobs]}", problems)
    k5 = [j for j in result_run.jobs if j.label == "K5"]
    expect(len(k5) == 1 and k5[0].commands == 2 and k5[0].witness is not None,
           "K5: witness was not checked and decoded", problems)
    json.dumps(result)  # must serialise


def check_benchmark_json(problems: list[str]):
    """BENCHMARK.json lists exactly the metrics the JSON line carries."""
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END, f"end_to_end {declared} != {run.END_TO_END}", problems)
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    wanted = [(name, run.PER_LAYER[name]) for name in run.PER_LAYER_JSON]
    expect(declared == wanted, f"per_layer {declared} != {wanted}", problems)
    expect([w["name"] for w in spec["workloads"]] == list(inputs.INSTANCES),
           "BENCHMARK.json workloads differ from the harness's", problems)


def check_failures_counted(problems: list[str]):
    wrong = run.execute("selftest", (K6_WRONG,), seed=0, seconds=0, trace=False)
    expect(wrong.failed == 1 and not run.report(wrong)[1]["correct"],
           "a wrong verdict was not counted as a failure", problems)
    mono = {e: 1 for e in K5.graph.edges}
    expect(checks.monochromatic_clique(K5.graph, (3, 3), mono) is not None,
           "the brute-force checker accepted a monochromatic colouring", problems)


def main() -> int:
    problems: list[str] = []
    check_benchmark_json(problems)
    check_run(False, problems)
    check_run(True, problems)
    check_failures_counted(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest ok" if not problems else f"selftest: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
