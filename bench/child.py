"""Fresh-interpreter side of the trbroadcast benchmark.

    child.py setup PLAN
        Import trbroadcast.cli, build its parser, parse every argv of the
        plan and load every input file; print {"import_s": ...}. The
        caller times the whole process as the set-up time.

    child.py measure PLAN RESULT SECONDS TRACE [SPANS]
        Call trbroadcast.cli.main(argv) in-process for each job of the
        plan, one after another (a closed loop with one caller, stdout
        and stderr captured), pass after pass, until SECONDS have been
        spent. A new pass starts only if a typical pass still fits. With
        TRACE 1, passes alternate untraced and traced, and the spans of
        the traced passes are summarized into RESULT and written to SPANS.
        RESULT also holds the peak RSS of this process after its first
        pass.

Each distinct output is kept once, keyed by its digest, so the referee
checks every answer without holding every copy.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
import traceback


def setup(plan: dict) -> None:
    start = time.perf_counter()
    from trbroadcast import cli

    imported = time.perf_counter()
    parser = cli.build_parser()
    for job in plan["jobs"]:
        parser.parse_args(job["argv"])
    for path in plan["files"]:
        with open(path, encoding="utf-8") as fh:
            json.load(fh)
    print(json.dumps({"import_s": imported - start}))


def run_job(main, argv: list[str], tracer, job: int) -> tuple:
    """One CLI invocation: (seconds, exit code, stdout, error text or None)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if tracer is None:
                rc = main(argv)
            else:
                tracer.job = job
                rc, _ = tracer.call("cli.main", main, argv)
    except SystemExit as exc:
        rc, error = exc.code, err.getvalue()
    except Exception:
        # A crash is a failed job, not the end of the run.
        rc, error = None, traceback.format_exc()
    return time.perf_counter() - start, rc, out.getvalue(), error


def measure(plan: dict, seconds: float, trace: bool, spans_path: str | None) -> dict:
    from trbroadcast import cli

    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
    passes, runs, outputs = [], [], {}
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        pass_start = time.perf_counter()
        with tracer.installed() if traced else contextlib.nullcontext():
            for job, spec in enumerate(plan["jobs"]):
                elapsed, rc, text, error = run_job(
                    cli.main, spec["argv"], tracer if traced else None, job)
                digest = hashlib.sha256(text.encode()).hexdigest()
                outputs.setdefault(digest, text)
                runs.append([job, len(passes), elapsed, rc, digest, error])
        passes.append({"traced": traced, "s": time.perf_counter() - pass_start})
        if len(passes) == 1:
            # Peak RSS of a fresh process that has run one pass; read here,
            # not at exit, so that the number of passes does not move it.
            peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        typical = statistics.median(p["s"] for p in passes)
        enough = not trace or len(passes) >= 2
        if enough and time.perf_counter() - start + typical > seconds:
            break
    result = {"passes": passes, "runs": runs, "outputs": outputs, "peak_rss_kib": peak_kib}
    if trace:
        from tracing import summarize

        traced_passes = sum(p["traced"] for p in passes)
        result["layers"] = summarize(tracer.spans, tracer.repairs, traced_passes)
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump([{"name": n, "start": s, "end": e, "parent": p, "job": j, **a}
                       for n, s, e, p, j, a in tracer.spans], fh)
    return result


def main(argv: list[str]) -> int:
    with open(argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    if argv[0] == "setup":
        setup(plan)
        return 0
    result = measure(plan, float(argv[3]), argv[4] == "1", argv[5] if len(argv) > 5 else None)
    with open(argv[2], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
