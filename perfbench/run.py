"""folkman benchmark: real CLI workloads, end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 30 --trace 0
    python3 perfbench/selftest.py      # fast check of the harness itself

Workloads are `exhaust`, `witness` and `theorem`; BENCHMARK.json says why.
A run repeats the workload's jobs in rounds until `--seconds` have passed.
Every command is `python -m folkman.cli ...` against `src/` in a fresh
interpreter; one client runs them one after another (a closed loop).

`--trace 0` reports the end-to-end metrics; `--trace 1` runs the same jobs
again in process, through the package's public functions with spans
around each call, and reports per-layer metrics.  The last line of standard
output is one JSON object; the lines before it print every metric by name
and unit, the run's context, and baseline cross-checks.  A results file
(and, when tracing, the spans) goes to `.perfbench-out/`.
"""
from __future__ import annotations

import argparse
import hashlib
import json
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

import cli_jobs
import inputs
import tracing

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ".perfbench-out"
SETUP_EVERY_S = 2.0
SETUP_MIN = 7
# Every run must end well inside three minutes; CLI commands are killed at
# this point and count as failed.
HARD_LIMIT_S = 170.0

# wall_s: mean over rounds of one round's CLI wall time; setup_s: median
# fresh-interpreter `import folkman.cli` plus graph builds; peak_rss_mb: the
# largest child's resident set.  fail_ratio and miss_ratio are printed but
# kept out of the JSON line, where every metric must be non-zero.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
OUTCOME = {"fail_ratio": "ratio", "miss_ratio": "ratio"}
# Per layer, from the traced run: `<module>.self_s` sums the module's span
# self time; other `_s` metrics sum the spans of one call.  search_s is the
# search span less the index probe, node_us is search_s per node;
# cli.overhead_s is the CLI jobs' wall less the layers' self time (start-up,
# imports, argument parsing, file I/O); trace.overhead_s is the traced replay
# less the same replay untraced.  Times are medians over rounds.
PER_LAYER = {
    "graphs.self_s": "s", "bounds.self_s": "s", "arrowing.self_s": "s", "cnf.self_s": "s",
    "graphs.build_s": "s", "graphs.graph6_s": "s", "graphs.cliques_s": "s",
    "graphs.cliques": "count", "graphs.max_clique_s": "s",
    "bounds.q_gate_s": "s", "bounds.certify_s": "s",
    "arrowing.index_s": "s", "arrowing.search_s": "s", "arrowing.nodes": "count",
    "arrowing.node_us": "us", "arrowing.prunings.clique": "count",
    "arrowing.prunings.neighborhood": "count", "arrowing.prune_ratio": "ratio",
    "arrowing.verify_s": "s",
    "arrowing.theorem_index_s": "s", "arrowing.theorem_node_us": "us",
    "arrowing.theorem_prune_ratio": "ratio",
    "cnf.encode_s": "s", "cnf.emit_s": "s", "cnf.bytes": "bytes", "cnf.parse_s": "s",
    "cnf.decode_s": "s",
    "cli.overhead_s": "s", "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
}
# Per-layer metrics that go into the final JSON line: those every workload
# exercises, plus counts and ratios.  A time of a layer that a workload never
# calls would read 0 on every run; it is still printed above the JSON line.
PER_LAYER_JSON = (
    "graphs.self_s", "arrowing.self_s",
    "graphs.build_s", "graphs.graph6_s", "graphs.cliques_s", "graphs.cliques",
    "graphs.max_clique_s", "arrowing.nodes", "arrowing.prunings.clique",
    "arrowing.prunings.neighborhood", "arrowing.prune_ratio",
    "arrowing.theorem_index_s", "arrowing.theorem_node_us",
    "arrowing.theorem_prune_ratio", "cnf.bytes", "cli.overhead_s",
    "cli.bytes_written", "trace.overhead_s",
)
COUNTS = {name for name, unit in PER_LAYER.items() if unit in ("count", "bytes")}
# ROADMAP baselines, cross-checked (not gated: a faster search may change them).
BASELINES = {"K9 nodes": 711_368, "DIMACS bytes": 238_657,
             "triangle clauses": 914, "K5 clauses": 6_374}


@dataclass
class Run:
    workload: str
    seed: int
    trace: bool
    instances: tuple
    setup_labels: tuple
    rounds: list[list[cli_jobs.JobResult]] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)
    context: dict = field(default_factory=dict)
    baseline: dict = field(default_factory=dict)
    spans: list[dict] = field(default_factory=list)

    @property
    def jobs(self):
        return [job for rnd in self.rounds for job in rnd]

    @property
    def attempted(self) -> int:
        return len(self.jobs) + len(self.errors)

    @property
    def failed(self) -> int:
        return sum(job.failed for job in self.jobs) + len(self.errors)


def setup_probe(run: Run, deadline: float) -> float:
    """One fresh-interpreter set-up; returns its wall time, checks its output."""
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *run.setup_labels],
            env=cli_jobs.child_env(ROOT), capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        run.errors.append("setup: exceeded the run's hard deadline")
        return time.perf_counter() - t0
    wall = time.perf_counter() - t0
    pinned = {i.label: i.graph6 for i in run.instances}
    built = {}
    for line in proc.stdout.splitlines():
        kind, _, rest = line.partition(" ")
        if kind == "graph":
            label, g6 = rest.split(" ", 1)
            built[label] = g6
        elif kind == "folkman":
            version, path = rest.split(" ", 1)
            run.context["folkman_version"] = version
            if not Path(path).resolve().is_relative_to(ROOT / "src"):
                raise SystemExit(f"folkman imported from {path}, not from {ROOT / 'src'}")
    if proc.returncode != 0 or built != pinned:
        run.errors.append(f"setup: exit {proc.returncode}, built {built}, expected {pinned}; "
                          f"{proc.stderr.strip()[-300:]}")
    return wall


def measure_untraced(run: Run, workdir: Path, seconds: float, start: float):
    """The end-to-end metrics, with no tracing."""
    hard = start + HARD_LIMIT_S
    cli = cli_jobs.Cli(ROOT, workdir, hard)
    setup_probe(run, hard)  # warms the bytecode cache; untimed
    setups: list[float] = []
    last_setup = -SETUP_EVERY_S
    loop_start = time.monotonic()
    while not run.rounds or time.monotonic() - loop_start < seconds:
        r = len(run.rounds)
        results = []
        for inst in run.instances:
            # Set-ups are spread over the run so their median does not hang
            # on how busy the machine was in one second of it.
            if time.monotonic() - last_setup >= SETUP_EVERY_S:
                last_setup = time.monotonic()
                setups.append(setup_probe(run, hard))
            results.append(cli_jobs.run_job(cli, *inputs.instance_for_round(inst, run.seed, r)))
        run.rounds.append(results)
    while len(setups) < SETUP_MIN:
        setups.append(setup_probe(run, hard))
    run.metrics["setup_s"] = statistics.median(setups)
    walls = [sum(job.wall_s for job in rnd) for rnd in run.rounds]
    # The mean over rounds: with a node cap every round's cost is bounded,
    # and the mean settles faster than the median over a few labellings.
    run.metrics["wall_s"] = statistics.fmean(walls)
    run.metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def import_folkman():
    sys.path.insert(0, str(ROOT / "src"))
    import folkman
    from folkman import arrowing, bounds, cli, cnf, graphs
    if not Path(folkman.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"folkman imported from {folkman.__file__}, not from {ROOT / 'src'}")
    return folkman, (graphs, bounds, arrowing, cnf, cli)


def measure_traced(run: Run, workdir: Path, seconds: float, start: float):
    """Per-layer metrics: each job runs through the CLI and is then replayed
    in process with and without spans; each round ends with the probes."""
    from setup_probe import build_graphs

    folkman, modules = import_folkman()
    run.context["folkman_version"] = folkman.__version__
    cli = cli_jobs.Cli(ROOT, workdir, start + HARD_LIMIT_S)
    per_round: list[dict[str, float]] = []
    loop_start = time.monotonic()
    while not run.rounds or time.monotonic() - loop_start < seconds:
        r = len(run.rounds)
        run.rounds.append([])
        rec = tracing.Recorder()
        try:
            per_round.append(traced_round(modules, build_graphs, run, cli, rec, r))
        except ValueError as exc:  # the package's own errors are ValueErrors
            run.errors.append(f"round {r}: in-process replay failed: {exc}")
            continue
        run.spans += [dict(s, round=r) for s in rec.spans]
    for name in PER_LAYER:
        values = [m[name] for m in per_round] or [0.0]
        # Counts repeat exactly for a fixed seed only in round 0, whose
        # labellings do not depend on how many rounds fit in the run.
        run.metrics[name] = values[0] if name in COUNTS else statistics.median(values)


def traced_round(modules, build_graphs, run: Run, cli: cli_jobs.Cli, rec: tracing.Recorder,
                 r: int) -> dict[str, float]:
    replayers = {True: tracing.Replayer(modules, rec),
                 False: tracing.Replayer(modules, tracing.Recorder(False))}
    replay_s = {True: 0.0, False: 0.0}

    def both(step, k: int):
        # Replay right after the CLI job, so both see the machine in the
        # same state; alternate whether the traced replay goes first.
        kept = None
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            t0 = time.perf_counter()
            got = step(replayers[traced])
            replay_s[traced] += time.perf_counter() - t0
            kept = got if traced else kept
        return kept

    both(lambda rp: rp.setup(run.setup_labels, build_graphs), r)
    answered, outcomes = [], []
    counts = {"graphs.cliques": 0}
    for k, base in enumerate(run.instances):
        inst, g6 = inputs.instance_for_round(base, run.seed, r)
        res = cli_jobs.run_job(cli, inst, g6)
        run.rounds[r].append(res)
        if res.failed:
            continue
        answered.append(res)
        job_id = f"r{r}.{inst.label}"
        if inst.source == "theorem-graph":
            g, spec, text = both(lambda rp: rp.theorem(inst, job_id), r + k)
            counts["graphs.cliques"] += replayers[True].theorem_probes(g, spec, text, job_id)
            counts["cnf.bytes"] = len(text.encode())
            continue
        g, spec, out = both(lambda rp: rp.arrows(inst, g6, job_id), r + k)
        if out.stats.nodes != res.nodes:
            raise ValueError(f"{res.label}: in-process search took {out.stats.nodes} "
                             f"nodes, the CLI {res.nodes}")
        counts["graphs.cliques"] += replayers[True].arrows_probes(g, spec, out, job_id)
        outcomes.append(out)
    theorem = replayers[True].theorem_search_probe()
    return layer_metrics(rec.spans, answered, outcomes, counts, theorem,
                         replay_s[True] - replay_s[False])


def layer_metrics(spans, answered, outcomes, counts, theorem,
                  trace_overhead) -> dict[str, float]:
    total: dict[str, float] = {}
    for s in spans:
        total[s["name"]] = total.get(s["name"], 0.0) + s["end"] - s["start"]
    t = lambda name: total.get(name, 0.0)  # noqa: E731
    nodes = sum(o.stats.nodes for o in outcomes)
    prunings = {c: sum(o.stats.prunings.get(c, 0) for o in outcomes)
                for c in ("clique", "neighborhood")}
    search = t("arrowing.search") - t("arrowing.index")
    own = tracing.self_times(spans)
    calls = [s for s in spans if s["kind"] == "call"]
    module_self = {m: sum(own[s["id"]] for s in calls if s["name"].split(".")[0] == m)
                   for m in tracing.LAYERS}
    # The CLI jobs' walls cover the jobs, not the set-up replay.
    layer_self = sum(own[s["id"]] for s in calls if s["job"] != "setup"
                     and s["name"].split(".")[0] in tracing.LAYERS)
    theorem_search = t("arrowing.theorem_search") - t("arrowing.theorem_index")
    return {
        **{f"{m}.self_s": module_self[m] for m in tracing.LAYERS},
        "graphs.build_s": t("graphs.build"), "graphs.graph6_s": t("graphs.graph6"),
        "graphs.cliques_s": t("graphs.cliques"), "graphs.cliques": counts["graphs.cliques"],
        "graphs.max_clique_s": t("graphs.max_clique"),
        "bounds.q_gate_s": t("bounds.q_gate"), "bounds.certify_s": t("bounds.certify"),
        "arrowing.index_s": t("arrowing.index"), "arrowing.search_s": search,
        "arrowing.nodes": nodes, "arrowing.node_us": search / nodes * 1e6 if nodes else 0.0,
        "arrowing.prunings.clique": prunings["clique"],
        "arrowing.prunings.neighborhood": prunings["neighborhood"],
        "arrowing.prune_ratio": sum(prunings.values()) / nodes if nodes else 0.0,
        "arrowing.verify_s": t("arrowing.verify"),
        "arrowing.theorem_index_s": t("arrowing.theorem_index"),
        "arrowing.theorem_node_us": theorem_search / theorem["nodes"] * 1e6,
        "arrowing.theorem_prune_ratio": theorem["prunings"] / theorem["nodes"],
        "cnf.encode_s": t("cnf.encode"), "cnf.emit_s": t("cnf.emit"),
        "cnf.bytes": counts.get("cnf.bytes", 0), "cnf.parse_s": t("cnf.parse"),
        "cnf.decode_s": t("cnf.decode"),
        "cli.overhead_s": sum(res.wall_s for res in answered) - layer_self,
        "cli.bytes_written": sum(res.bytes_written for res in answered),
        "trace.overhead_s": trace_overhead,
    }


def cross_check_baselines(run: Run):
    """At seed 0, compare exact counts with ROADMAP's baseline table."""
    if run.seed != 0 or not run.rounds:
        return
    for job in run.rounds[0]:
        if job.label == "K9" and not job.failed:
            run.baseline["K9 nodes"] = job.nodes
        if job.dimacs is not None:
            run.baseline["DIMACS bytes"] = job.dimacs["bytes"]
            run.baseline["triangle clauses"] = job.dimacs["shapes"].get("-3")
            run.baseline["K5 clauses"] = job.dimacs["shapes"].get("+10")


def workload_reasons() -> dict[str, str]:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    return {w["name"]: w["why"] for w in spec.get("workloads", [])}


def record_context(run: Run):
    src = ROOT / "src" / "folkman"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    run.context.update({
        "workload": run.workload, "seed": run.seed, "trace": int(run.trace),
        "why": workload_reasons().get(run.workload), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit or None,
        "source_sha256": digest.hexdigest(), "loop": "closed, one client, one process at a time",
    })


def outcome_metrics(run: Run) -> dict[str, float]:
    jobs = run.jobs
    return {"fail_ratio": run.failed / run.attempted,
            "miss_ratio": sum(job.miss for job in jobs) / run.attempted}


def report(run: Run) -> tuple[list[str], dict]:
    """Human-readable lines (every metric by name and unit) and the JSON result."""
    units = PER_LAYER if run.trace else END_TO_END
    lines = [f"context {json.dumps(run.context, sort_keys=True)}",
             f"rounds {len(run.rounds)} jobs {len(run.jobs)} attempted {run.attempted} "
             f"failed {run.failed}"]
    if not run.trace:
        walls = [sum(job.wall_s for job in rnd) for rnd in run.rounds]
        lines.append("round_wall_s " + " ".join(f"{w:.4f}" for w in walls))
    for name, unit in units.items():
        value = run.metrics[name]
        lines.append(f"metric {name} {value if name in COUNTS else f'{value:.6g}'} {unit}")
    for name, value in outcome_metrics(run).items():
        lines.append(f"metric {name} {value:.6g} {OUTCOME[name]}")
    for key, value in run.baseline.items():
        same = "matches" if value == BASELINES[key] else "differs from"
        lines.append(f"baseline {key} {value} {same} ROADMAP {BASELINES[key]}")
    lines += [f"error {e}" for e in run.errors]
    lines += [f"error {job.error}" for job in run.jobs if job.failed]
    chosen = PER_LAYER_JSON if run.trace else tuple(END_TO_END)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {name: {"value": run.metrics[name], "unit": units[name]}
                          for name in chosen}}
    return lines, result


def execute(workload: str, instances, seed: int, seconds: float, trace: bool) -> Run:
    start = time.monotonic()
    labels = tuple(dict.fromkeys(i.label for i in instances))
    run = Run(workload, seed, trace, tuple(instances), labels)
    record_context(run)
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        if trace:
            measure_traced(run, Path(tmp), seconds, start)
        else:
            measure_untraced(run, Path(tmp), seconds, start)
    cross_check_baselines(run)
    return run


def write_outputs(run: Run, result: dict):
    out = ROOT / OUT_DIR
    out.mkdir(exist_ok=True)
    stem = f"{run.workload}-seed{run.seed}-trace{int(run.trace)}"
    rounds = [[{"label": j.label, "wall_s": j.wall_s, "commands": j.commands, "nodes": j.nodes,
                "prunings": j.prunings, "miss": j.miss, "error": j.error} for j in rnd]
              for rnd in run.rounds]
    (out / f"{stem}.json").write_text(json.dumps(
        {"context": run.context, "result": result, "all_metrics": run.metrics,
         "outcome": outcome_metrics(run), "baseline": run.baseline, "rounds": rounds},
        indent=1, sort_keys=True))
    if run.trace:
        (out / f"{stem}-spans.json").write_text(json.dumps(run.spans))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(inputs.INSTANCES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "folkman" / "cli.py").is_file():
        print(f"error: no folkman sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = execute(args.workload, inputs.INSTANCES[args.workload], args.seed,
                  args.seconds, bool(args.trace))
    lines, result = report(run)
    write_outputs(run, result)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
