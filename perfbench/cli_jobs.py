"""Run the workloads' jobs as real CLI commands and check every answer.

Each command is `python -m folkman.cli ...` in a fresh interpreter, started
only after the previous one has exited (a closed loop with one client).
Only stable CLI surface is used: `arrows edges --graph --spec [--witness]
[--max-nodes]`, `encode -o`, `decode` and `certify`.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
from inputs import THEOREM_BOUND, THEOREM_DIMACS, THEOREM_Q, Instance, parse_graph6

EXIT_ARROWS, EXIT_FREE, EXIT_BUDGET = 0, 1, 2
OUTPUT_FILES = ("witness.json", "model.txt", "decoded.json", "theorem.cnf",
                "unsat.json", "certificate.json")


@dataclass
class JobResult:
    """One job: an arrows question (plus `decode` of its witness), or one
    encode-and-certify pipeline.  `wall_s` sums its CLI commands."""

    label: str
    wall_s: float = 0.0
    commands: int = 0
    miss: bool = False
    error: str | None = None
    nodes: int = 0
    prunings: dict = field(default_factory=dict)
    bytes_written: int = 0
    witness: dict | None = None
    dimacs: dict | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


class JobFailure(Exception):
    pass


def child_env(root: Path) -> dict[str, str]:
    """Environment for a child interpreter that imports the package from `<root>/src`."""
    return dict(os.environ, PYTHONPATH=str(root / "src"))


class Cli:
    """Starts CLI commands against the package under `<root>/src`."""

    def __init__(self, root: Path, workdir: Path, hard_deadline: float):
        self.workdir = workdir
        self.hard_deadline = hard_deadline
        self.env = child_env(root)

    def run(self, job: JobResult, *args: str) -> tuple[int, dict[str, str]]:
        """Run one command; returns its exit code and its `key value` lines."""
        timeout = self.hard_deadline - time.monotonic()
        if timeout <= 0:
            raise JobFailure("no time left before the run's hard deadline")
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-m", "folkman.cli", *args],
                                  cwd=self.workdir, env=self.env, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise JobFailure(f"`{args[0]}` exceeded the run's hard deadline")
        finally:
            job.wall_s += time.perf_counter() - t0
            job.commands += 1
        out = dict(line.split(" ", 1) for line in proc.stdout.splitlines() if " " in line)
        if proc.returncode not in (EXIT_ARROWS, EXIT_FREE, EXIT_BUDGET):
            raise JobFailure(f"`{args[0]}` exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return proc.returncode, out

    def written(self, job: JobResult, name: str) -> bytes:
        path = self.workdir / name
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise JobFailure(f"expected output file missing: {exc}")
        job.bytes_written += len(data)
        return data


def spec_text(inst: Instance) -> str:
    return ",".join(map(str, inst.spec))


def arrows_argv(inst: Instance, graph6: str) -> list[str]:
    witness = ["--witness", "witness.json"] if inst.expect == "free" else []
    return ["arrows", "edges", "--graph", graph6, "--spec", spec_text(inst),
            "--max-nodes", str(inst.max_nodes), *witness]


def decode_argv(inst: Instance, graph6: str) -> list[str]:
    return ["decode", "--graph", graph6, "--spec", spec_text(inst),
            "--model", "model.txt", "--witness", "decoded.json"]


def encode_argv(inst: Instance) -> list[str]:
    return ["encode", "--graph", inst.source, "--spec", spec_text(inst), "-o", "theorem.cnf"]


def certify_argv(inst: Instance) -> list[str]:
    return ["certify", "--graph", inst.source, "--spec", spec_text(inst),
            "--q", str(THEOREM_Q), "--evidence", "unsat.json", "-o", "certificate.json"]


def run_job(cli: Cli, inst: Instance, graph6: str) -> JobResult:
    job = JobResult(inst.label)
    for name in OUTPUT_FILES:  # never read a file an earlier job left behind
        (cli.workdir / name).unlink(missing_ok=True)
    try:
        if inst.source == "theorem-graph":
            _theorem(cli, job, inst)
        else:
            _arrows(cli, job, inst, graph6)
    except (JobFailure, ValueError, KeyError, IndexError, TypeError, OSError) as exc:
        # Whatever the program wrote, a malformed answer is a failed job.
        job.error = f"{inst.label}: {type(exc).__name__}: {exc}"
    return job


def _arrows(cli: Cli, job: JobResult, inst: Instance, graph6: str):
    free = inst.expect == "free"
    code, out = cli.run(job, *arrows_argv(inst, graph6))
    job.nodes = int(out["nodes"])
    job.prunings = {k.split(".", 1)[1]: int(v) for k, v in out.items()
                    if k.startswith("prunings.")}
    if code == EXIT_BUDGET and out.get("verdict") == "budget-exhausted":
        job.miss = True
        # An ARROWS verdict needs the whole tree, so there the cap is only a
        # hang guard and hitting it is a failure.  For a first-success search
        # the cap is the latency limit: hitting it is a miss, not a failure.
        if not free:
            raise JobFailure(f"budget exhausted after {job.nodes} nodes")
        return
    want = (EXIT_FREE, "free-coloring") if free else (EXIT_ARROWS, "arrows")
    if (code, out.get("verdict")) != want:
        raise JobFailure(f"verdict {out.get('verdict')!r} exit {code}, expected {want}")
    if free:
        _check_witness(cli, job, inst, graph6)


def _check_witness(cli: Cli, job: JobResult, inst: Instance, graph6: str):
    obj = json.loads(cli.written(job, "witness.json"))
    if parse_graph6(obj["graph6"]) != inst.graph or tuple(obj["spec"]) != inst.spec:
        raise JobFailure("witness names another graph or spec")
    col = checks.coloring_from_witness(inst.graph, obj)
    bad = checks.monochromatic_clique(inst.graph, inst.spec, col)
    if bad is not None:
        raise JobFailure(f"witness not free: colour {bad[0]} on {bad[1]}")
    job.witness = col
    (cli.workdir / "model.txt").write_text(checks.model_text(inst.graph, col))
    code, out = cli.run(job, *decode_argv(inst, graph6))
    if code != 0 or out.get("verdict") != "free-coloring":
        raise JobFailure(f"decode exit {code} verdict {out.get('verdict')!r}")
    back = checks.coloring_from_witness(inst.graph, json.loads(cli.written(job, "decoded.json")))
    if back != col:
        raise JobFailure("decode returned a different colouring than the witness")


def _theorem(cli: Cli, job: JobResult, inst: Instance):
    code, out = cli.run(job, *encode_argv(inst))
    if code != 0:
        raise JobFailure(f"encode exit {code}")
    summary = checks.dimacs_summary(cli.written(job, "theorem.cnf"))
    job.dimacs = summary
    pinned = {k: summary[k] for k in THEOREM_DIMACS}
    if pinned != THEOREM_DIMACS:
        raise JobFailure(f"DIMACS {pinned} differs from pin {THEOREM_DIMACS}")
    reported = {"sha256": out.get("sha256"), "vars": int(out.get("vars", -1)),
                "clauses": int(out.get("clauses", -1))}
    if reported != pinned:
        raise JobFailure(f"encode reports {reported}, file has {pinned}")
    expected = checks.expected_clause_shapes(inst.graph, inst.spec)
    if summary["clause_lines"] != summary["clauses"] or summary["shapes"] != expected:
        raise JobFailure(f"clause shapes {summary['shapes']} differ from the "
                         f"graph's cliques {expected}")
    # A stand-in solver record: it exercises the solver route of `certify`
    # with the hash of the file just written.
    record = {"status": "UNSAT", "solver": "perfbench stand-in",
              "dimacs_sha256": summary["sha256"]}
    (cli.workdir / "unsat.json").write_text(json.dumps(record))
    code, out = cli.run(job, *certify_argv(inst))
    cert = json.loads(cli.written(job, "certificate.json"))
    if code != 0 or out.get("bound") != THEOREM_BOUND or cert.get("bound") != THEOREM_BOUND:
        raise JobFailure(f"certify exit {code} bound {out.get('bound')!r}/"
                         f"{cert.get('bound')!r}, expected {THEOREM_BOUND!r}")
    (cli.workdir / "certificate.json").unlink()
