"""The workload process: set-up, then a closed loop of jobs, then the checks.

Started fresh by ``run.py`` for every measurement, with the workload's
documents in the current directory.  One client, one thread: the next job
starts only when the previous one has returned.  Each CLI job calls
``cdga.cli.main(argv)`` in this process with stdout captured; the library-only
job calls ``cdga.free.free_graded_lie`` directly.  Answers are checked after
the timed section, so the checks cost no measured time.  While set-up and
the untraced jobs run, a ``speed.Sampler`` times a fixed reference slice
every 50 ms, and each time is scaled by the machine speed it saw.

Usage (from run.py): worker.py --root DIR --workload W --seed N --seconds S
                     --trace 0|1 --out RESULT.json [--setup-only] [--spans FILE]
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import resource
import sys
import time

import speed
import workloads


def setup(root, jobs):
    """Import cdga.cli, then resolve, load and schema-check every document once."""
    import cdga.cli  # noqa: F401 - the import is part of what is timed
    from cdga import documents

    for name in dict.fromkeys(d for job in jobs for d in job.documents()):
        doc = documents.load_json(documents.resolve_input(name))
        try:
            documents.validate_document(doc)
        except documents.DocumentError:
            pass  # the schema-invalid document of docs-mix, rejected by design


def check_source(root):
    import cdga

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cdga.__file__).startswith(src + os.sep):
        raise SystemExit("cdga was imported from %s, not from %s" % (cdga.__file__, src))


def run_call(call):
    """(exit code, stdout, error or None) of one call, stdout and stderr captured."""
    import cdga.cli
    import cdga.free

    out = io.StringIO()
    rc = None
    error = None
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if call.lib is not None:
                gens, top = call.lib
                dims = cdga.free.free_graded_lie(gens, top).dims()
                sys.stdout.write(json.dumps({str(k): v for k, v in sorted(dims.items())},
                                            sort_keys=True, separators=(",", ":")) + "\n")
                rc = 0
            else:
                rc = cdga.cli.main(call.argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # noqa: BLE001 - a raising job is counted as failed
        error = "raised %s: %s" % (type(exc).__name__, exc)
    return rc, out.getvalue(), error


def run_job(job):
    """(wall seconds, exit codes, stdouts, error or None) of one job."""
    rcs, outs, error = [], [], None
    t0 = time.perf_counter()
    for call in job.calls:
        rc, out, error = run_call(call)
        rcs.append(rc)
        outs.append(out)
        if error is not None:
            break
    return time.perf_counter() - t0, rcs, outs, error


class Recorder:
    """Per-job records of one pass, plus each distinct answer for checking.

    A job's SHA-256 is over the concatenated stdout of its calls, so for a
    one-call job it is the hash of that command's stdout bytes.
    """

    def __init__(self):
        self.records = []  # (job name, wall, exit codes, sha256, error)
        self.answers = {}  # (job name, sha256) -> stdouts

    def run(self, job):
        wall, rcs, outs, error = run_job(job)
        sha = hashlib.sha256("".join(outs).encode("utf-8")).hexdigest()
        self.answers.setdefault((job.name, sha), outs)
        self.records.append((job.name, wall, rcs, sha, error))


def closed_loop(jobs, seconds, rec, sampler):
    """Run the job cycle until `seconds` have passed.

    Returns the elapsed seconds, and per record the job time scaled by
    `sampler` and the unscaled job time (both without the sampler's own time).
    """
    scaled, unscaled = [], []
    t0 = time.perf_counter()
    i = 0
    while True:
        mark = sampler.mark()
        rec.run(jobs[i % len(jobs)])
        job_s, wall = sampler.scaled(mark)
        scaled.append(job_s)
        unscaled.append(wall)
        i += 1
        if time.perf_counter() - t0 >= seconds:
            return time.perf_counter() - t0, scaled, unscaled


def _verdict(job, rcs, outs):
    if len(outs) != len(job.calls):
        return "stopped after %d of %d calls" % (len(outs), len(job.calls))
    for call, rc, out in zip(job.calls, rcs, outs):
        if rc != call.expect_rc:
            return "exit code %s, expected %d" % (rc, call.expect_rc)
        reason = call.check(out)
        if reason is not None:
            return reason
    return None


def check(jobs, rec):
    """The failure reason of every record of a pass (None for a correct run)."""
    by_name = {job.name: job for job in jobs}
    verdicts = {}
    first_sha = {}
    reasons = []
    for name, _, rcs, sha, error in rec.records:
        first_sha.setdefault(name, sha)
        reason = error
        if reason is None:
            key = (name, sha, tuple(rcs))
            if key not in verdicts:
                verdicts[key] = _verdict(by_name[name], rcs, rec.answers[(name, sha)])
            reason = verdicts[key]
        if reason is None and sha != first_sha[name]:
            reason = "stdout differs between runs of the same job"
        reasons.append(reason)
    return reasons


def summarise(records, reasons):
    failures = {}
    for (name, *_), reason in zip(records, reasons):
        if reason is not None:
            failures.setdefault(name, reason)
    return sum(r is not None for r in reasons), failures


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)
    sys.path.insert(0, os.path.join(args.root, "src"))

    _, jobs = workloads.plan(args.workload, args.seed)
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        setup(args.root, jobs)
        setup_s, setup_wall = sampler.scaled(mark)
        check_source(args.root)
        result = {"setup_s": setup_s, "setup_wall_s": setup_wall}
        if not args.setup_only:
            if args.trace:
                sampler.stop()  # per-layer times are not scaled
            result.update(measure(args, jobs, sampler))
    finally:
        sampler.stop()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def measure(args, jobs, sampler):
    plain = Recorder()
    if not args.trace:
        elapsed, scaled, unscaled = closed_loop(jobs, args.seconds, plain, sampler)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed, reasons = summarise(plain.records, check(jobs, plain))
        return {"records": plain.records, "job_s": scaled, "job_wall_s": unscaled,
                "elapsed_s": elapsed, "peak_rss_mb": peak, "failed": failed,
                "reasons": reasons}

    import tracing

    # Untraced and traced passes run the same whole cycles, interleaved and in
    # alternating order so that warm-up and drift fall on both sides alike.
    # The wrappers are removed (and checked to be) before every untraced cycle.
    traced = Recorder()
    tracer = tracing.Tracer()
    restored = True
    cycle = 0
    t0 = time.perf_counter()
    while cycle == 0 or time.perf_counter() - t0 < args.seconds:
        for traced_pass in ((False, True) if cycle % 2 == 0 else (True, False)):
            if traced_pass:
                tracer.install()
                patched = list(tracer.patches)
                try:
                    for job in jobs:
                        tracer.job = len(traced.records)
                        traced.run(job)
                finally:
                    tracer.uninstall()
                restored = restored and tracer.restored(patched)
            else:
                for job in jobs:
                    plain.run(job)
        cycle += 1
    plain_reasons = check(jobs, plain)
    traced_reasons = [
        reason or (a[3] != b[3] and "traced stdout differs from untraced stdout") or None
        for a, b, reason in zip(plain.records, traced.records, check(jobs, traced))
    ]
    failed, reasons = summarise(plain.records + traced.records, plain_reasons + traced_reasons)
    if not restored:
        failed += 1
        reasons["tracer"] = "a wrapped function was not restored"
    untraced_s = sum(r[1] for r in plain.records)
    traced_s = sum(r[1] for r in traced.records)
    metrics = tracer.metrics(len(traced.records))
    metrics["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "fraction")
    if args.spans:
        with gzip.open(args.spans, "wt", encoding="utf-8") as fh:
            for span in tracer.spans():
                fh.write(json.dumps(span) + "\n")
    return {"records": plain.records + traced.records, "per_layer": metrics,
            "failed": failed, "reasons": reasons}


if __name__ == "__main__":
    sys.exit(main())
