"""trbroadcast benchmark: four CLI workloads, a referee for every answer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. NAME is one of sweep, grid-search,
audit-large and lattice (see workloads.py and README.md). The run

1. writes the workload's inputs for seed N under bench/_work;
2. times fresh interpreters that import trbroadcast.cli, build the
   parser and load the inputs (setup_s, the median of several, taken
   before and after step 3);
3. starts one fresh interpreter (child.py) that calls
   trbroadcast.cli.main(argv) in-process, job after job, for S seconds,
   and reports its own peak RSS after the first pass;
4. checks every answer with the referee (referee.py);
5. prints, as the last line of stdout, one JSON object with the keys
   correct, attempted, failed and metrics. With --trace 0 the metrics
   are the end-to-end ones; with --trace 1 they are the per-layer ones
   of a run whose passes alternate untraced and traced.

A detailed report with quartiles, sample counts and the environment is
written to bench/_out, and the spans of a traced run next to it.
Without the program's sources next to this directory the run exits
with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
# Set-up samples taken before the measurement, and again after it.
SETUP_RUNS = {0: 5, 1: 2}
# Every run, child included, must end well inside three minutes.
DEADLINE_S = 150


def quartiles(values: list[float]) -> dict:
    """Median, quartiles, the highest of p90/p95/p99 with at least ten
    samples beyond it, and the sample count."""
    ordered = sorted(values)
    n = len(ordered)
    summary = {"n": n, "median": statistics.median(ordered)}
    if n >= 2:
        summary["q1"], _, summary["q3"] = statistics.quantiles(ordered, n=4)
    for p in (99, 95, 90):
        if n * (100 - p) >= 1000:
            summary[f"p{p}"] = statistics.quantiles(ordered, n=100)[p - 1]
            break
    return summary


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "note": "one caller, no --threads: no scaling metric is reported, "
                "because the reference box has 2 shared cores",
    }


def time_setup(plan_path: Path, runs: int, env: dict) -> tuple[list[float], list[float]]:
    walls, imports = [], []
    for _ in range(runs):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, str(CHILD), "setup", str(plan_path)],
                              env=env, capture_output=True, text=True, timeout=60, check=True)
        walls.append(time.perf_counter() - start)
        imports.append(json.loads(done.stdout)["import_s"])
    return walls, imports


def run_child(argv: list[str], env: dict, limit: float) -> int:
    """Run the measuring child to completion; return its exit code."""
    try:
        done = subprocess.run([sys.executable, str(CHILD), *argv], env=env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                              timeout=limit)
    except subprocess.TimeoutExpired:
        return -1
    return done.returncode


def referee_verdicts(plan, result: dict, referee) -> tuple[int, list[str]]:
    """Check every run; return the failed count and one line per distinct failure."""
    verdicts: dict[tuple, str | None] = {}
    failed, reasons = 0, []
    for job, _, _, rc, digest, error in result["runs"]:
        key = (job, rc, digest, error)
        if key not in verdicts:
            if error is not None:
                verdicts[key] = f"crashed (exit {rc}): {error.strip().splitlines()[-1:]}"
            else:
                verdicts[key] = referee.check(plan.jobs[job].check, rc, result["outputs"][digest])
            if verdicts[key]:
                reasons.append(f"{' '.join(plan.jobs[job].argv)}: {verdicts[key]}")
        failed += verdicts[key] is not None
    return failed, reasons


def end_to_end(plan, result: dict, setup_walls: list[float]) -> tuple[dict, dict]:
    items = sum(job.items for job in plan.jobs)
    pass_s = [p["s"] for p in result["passes"]]
    by_job: dict[int, list[float]] = {}
    for job, _, seconds, *_ in result["runs"]:
        by_job.setdefault(job, []).append(seconds)
    job_medians = [statistics.median(times) for times in by_job.values()]
    detail = {"items_per_pass": items, "pass_s": quartiles(pass_s),
              "job_s": quartiles([run[2] for run in result["runs"]]),
              "job_median_s": quartiles(job_medians), "setup_s": quartiles(setup_walls)}
    metrics = {
        # Work over time across all passes: every pass is the same work,
        # and the total averages over more of the machine's drift than the
        # median of a handful of pass rates does.
        "items_per_s": items * len(pass_s) / sum(pass_s),
        # The median job of the workload, each job taken at its median over
        # the passes. Pooling all latencies instead lets the median jump
        # between two jobs of different cost when the machine speeds up or
        # slows down within a run.
        "job_p50_s": statistics.median(job_medians),
        "setup_s": statistics.median(setup_walls),
        "peak_rss_mb": result["peak_rss_kib"] / 1024,
    }
    return metrics, detail


def per_layer(workload: str, result: dict, imports: list[float]) -> tuple[dict, dict]:
    layers = result["layers"]
    metrics = dict(layers["metrics"])
    metrics["cli.import_s"] = statistics.median(imports)
    plain = statistics.median(p["s"] for p in result["passes"] if not p["traced"])
    traced = statistics.median(p["s"] for p in result["passes"] if p["traced"])
    metrics["bench.trace_overhead_s"] = traced - plain
    job_s = layers["job_s"]
    share = {
        "sweep": metrics["solver.search_s"] / job_s,
        "grid-search": metrics["solver.search_s"] / job_s,
        "audit-large": (metrics["solver.setup_s"] + metrics["signal.audit_ok_s"]
                        + metrics["signal.audit_fail_s"]) / job_s,
        "lattice": layers["shares"]["lattice"],
    }[workload]
    holds = share > 0.5
    if workload == "lattice":
        holds = holds and layers["span_count"]["graphs"] == layers["span_count"]["solver"] == 0
    detail = {"shares": layers["shares"], "span_count": layers["span_count"],
              "job_s_per_traced_pass": job_s, "untraced_pass_s": plain, "traced_pass_s": traced,
              "purpose_share": share, "purpose_holds": holds}
    return metrics, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "trbroadcast" / "cli.py").is_file():
        print(f"error: no trbroadcast sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from referee import Referee, load_golden

    started = time.monotonic()
    golden, sweep_golden = load_golden()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out_dir = HERE / "_out"
    out_dir.mkdir(exist_ok=True)
    (HERE / "_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / "_work"))
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        plan = workloads.build_plan(args.workload, args.seed, workdir, len(sweep_golden))
        plan_path = workdir / "plan.json"
        plan_path.write_text(json.dumps(plan.to_json_dict()), encoding="utf-8")
        # Half the set-up samples are taken before the measurement and half
        # after it, so that they see the machine at two moments.
        setup_walls, imports = time_setup(plan_path, SETUP_RUNS[args.trace], env)
        result_path = workdir / "result.json"
        child_argv = ["measure", str(plan_path), str(result_path), str(args.seconds),
                      str(args.trace), str(out_dir / f"spans-{stem}.json")]
        limit = DEADLINE_S - (time.monotonic() - started)
        code = run_child(child_argv, env, limit)
        if code != 0:
            print(f"error: measuring child exited with {code}", file=sys.stderr)
            return 1
        walls, more = time_setup(plan_path, SETUP_RUNS[args.trace], env)
        setup_walls += walls
        imports += more
        result = json.loads(result_path.read_text(encoding="utf-8"))
        failed, reasons = referee_verdicts(plan, result, Referee(golden, sweep_golden))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics, detail = per_layer(args.workload, result, imports)
    else:
        metrics, detail = end_to_end(plan, result, setup_walls)
    attempted = len(result["runs"])
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "passes": result["passes"], "attempted": attempted, "failed": failed,
        "fail_frac": failed / attempted, "failures": reasons,
        "metrics": metrics, "detail": detail,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(report, indent=2) + "\n")
    for line in reasons:
        print(f"referee: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
