"""Benchmark runner for cdga: one workload, one seed, one measurement.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The runner writes the seeded documents to
a scratch directory inside the checkout, times set-up in fresh processes,
then starts one fresh workload process (``worker.py``) that runs the job
cycle in a closed loop for S seconds and checks every answer.  Job and
set-up times are wall times scaled to a fixed machine speed (``speed.py``).
It prints a human-readable report, one stdout SHA-256 per job, and as its
last line a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Exit code 0 on a completed measurement, 2 when
the checkout has no ``src/cdga`` or the measurement could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_work")
# fresh-process set-up samples; the workload process adds one more
SETUP_SAMPLES = 10
# every process this runner starts has ended by then, or has been killed
DEADLINE_S = 170


def tail(walls):
    """(value, percentile, samples beyond) of the tail job time.

    The highest percentile that has at least ten samples beyond it, as long as
    that percentile is at least p90 (100 jobs or more).  With fewer jobs it
    would sink towards the median and jump with the job count, so the slowest
    job is reported instead, with its true count beyond (0).
    """
    s = sorted(walls)
    n = len(s)
    i = n - 11
    if i < 0 or (i + 1) / n < 0.9:
        i = n - 1
    return s[i], 100.0 * (i + 1) / n, n - 1 - i


def child(args, workdir, out, deadline, extra=()):
    env = {k: v for k, v in os.environ.items() if k not in ("CDGA_LIBRARY", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--root", ROOT,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", out, *extra]
    proc = subprocess.run(cmd, cwd=workdir, env=env, timeout=max(1.0, deadline - time.time()),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError("workload process failed (exit %d): %s"
                           % (proc.returncode, proc.stderr.strip()[-2000:]))
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def end_to_end(result, setups):
    """The end-to-end metrics; job and set-up times are scaled by ``speed``."""
    walls = result["job_s"]
    value, pct, beyond = tail(walls)
    attempted = len(walls)
    print("jobs: %d in %.3f s; tail at p%.1f with %d samples beyond"
          % (attempted, result["elapsed_s"], pct, beyond))
    print("unscaled: job p50 %.6f s, set-up %.6f s (the metrics below are scaled)"
          % (statistics.median(result["job_wall_s"]), result["setup_wall_s"]))
    print("fail_frac: %.6f fraction (%d of %d)" % (result["failed"] / attempted,
                                                  result["failed"], attempted))
    return {
        "job_s_p50": (statistics.median(walls), "s"),
        "job_s_tail": (value, "s"),
        "jobs_per_s": (attempted / sum(walls), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated runner still stops and waits for its workload process
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not os.path.isfile(os.path.join(ROOT, "src", "cdga", "cli.py")):
        print("no cdga sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2

    deadline = time.time() + DEADLINE_S
    docs, jobs = workloads.plan(args.workload, args.seed)
    workdir = os.path.join(WORK, "run-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        for name, doc in docs.items():
            with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                json.dump(doc, fh, indent=1)
        out = os.path.join(workdir, "result.json")
        setups = [child(args, workdir, out, deadline, ["--setup-only"])["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        spans = os.path.join(WORK, "%s.spans.jsonl.gz" % args.workload)
        result = child(args, workdir, out, deadline, ["--spans", spans] if args.trace else [])
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        print("benchmark failed: %s" % exc, file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    setups.append(result["setup_s"])

    print("workload %s, seed %d, %d job kinds, trace %d"
          % (args.workload, args.seed, len(jobs), args.trace))
    for name, reason in sorted(result["reasons"].items()):
        print("FAILED %s: %s" % (name, reason))
    per_job = {}
    for name, wall, _, sha, _ in result["records"]:
        per_job.setdefault(name, (sha, []))[1].append(wall)
    for name, (sha, walls) in per_job.items():
        print("job %-22s n=%-4d wall p50=%.6f s  stdout-sha256 %s"
              % (name, len(walls), statistics.median(walls), sha))
    if args.trace:
        metrics = result["per_layer"]
        print("traced spans written to %s" % os.path.relpath(spans, ROOT))
    else:
        metrics = end_to_end(result, setups)
    for name, (value, unit) in metrics.items():
        print("%-34s %14.6g %s" % (name, value, unit))
    attempted = len(result["records"])
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": attempted,
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
