"""Tests of the benchmark itself: inputs, forced answers, checks and tracer.

Run with ``python3 -m pytest bench/tests -q`` from the repository root.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import gen
import run
import speed
import tracing
import worker
import workloads

SEEDS = (1, 2, 3)


def _write_docs(tmp_path, docs):
    for name, doc in docs.items():
        (tmp_path / name).write_text(json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_deterministic_per_seed(workload):
    docs_a, jobs_a = workloads.plan(workload, 7)
    docs_b, jobs_b = workloads.plan(workload, 7)
    assert json.dumps(docs_a, sort_keys=True) == json.dumps(docs_b, sort_keys=True)
    assert ([(j.name, [(c.argv, c.lib) for c in j.calls]) for j in jobs_a]
            == [(j.name, [(c.argv, c.lib) for c in j.calls]) for j in jobs_b])


def test_seeds_change_the_documents_but_not_their_shape():
    a, _ = workloads.plan("docs-mix", 1)
    b, _ = workloads.plan("docs-mix", 2)
    assert a["complex_small.json"] != b["complex_small.json"]
    assert a["complex_small.json"]["complex"]["degrees"] == b["complex_small.json"]["complex"]["degrees"]
    for seed in SEEDS:
        docs, _ = workloads.plan("minimal-staged", seed)
        assert len(docs["s2xs2_contractible.json"]["generators"]) == 6


def test_constructions_hold_without_cdga():
    rng = gen.rng_for("test", 0)
    p = gen.unimodular(rng, 5)
    assert gen.matmul(p, gen.inverse(p)) == gen.eye(5)
    g = gen.posdef_gram(rng, 4)
    assert g == gen.transpose(g)
    assert all(gen.rank([row[:s] for row in g[:s]]) == s for s in range(1, 5))
    body, betti = gen.twisted_complex(rng, workloads.AUDIT_FREE, workloads.AUDIT_PAIRS)
    diffs = {int(k): [[Fraction(x) for x in r] for r in m] for k, m in body["differential"].items()}
    for k in diffs:
        if k + 1 in diffs:
            assert not any(any(r) for r in gen.matmul(diffs[k + 1], diffs[k]))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_forced_answers_hold(tmp_path, monkeypatch, workload, seed):
    docs, jobs = workloads.plan(workload, seed)
    _write_docs(tmp_path, docs)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("CDGA_LIBRARY", raising=False)
    for job in jobs:
        _, rcs, outs, error = worker.run_job(job)
        assert error is None, (job.name, error)
        for call, rc, out in zip(job.calls, rcs, outs):
            assert rc == call.expect_rc, job.name
            assert call.check(out) is None, (job.name, call.check(out))


def test_checks_reject_wrong_answers():
    _, jobs = workloads.plan("docs-mix", 1)
    by_name = {j.name: j.calls[0] for j in jobs}
    assert by_name["homotopy-sphere2"].check('{"certified_through":8,"pi":{"2":1}}\n')
    assert by_name["free-lie"].check('{"1":3,"2":1,"3":2,"4":3,"5":6,"6":9}\n')
    assert by_name["check-bad-square"].check('{"kind":"cdga","ok":true}\n')
    _, jobs = workloads.plan("minimal-staged", 1)
    wrong = {"already_minimal": False, "certified_through": 11,
             "generators": [["v2_0", 2], ["v3_0", 3]]}
    assert jobs[0].calls[0].check(json.dumps(wrong))
    cone = workloads.check_cone({"dim_source": 1, "dim_target": 1})
    not_acyclic = {"weak_equivalence": True,
                   "complex": {"degrees": {"0": ["a"], "1": ["b"]}, "differential": {"0": [["0"]]}}}
    assert cone(json.dumps(not_acyclic))


def test_failures_are_counted_per_run():
    _, jobs = workloads.plan("docs-mix", 1)
    job = next(j for j in jobs if j.name == "check-sphere2")
    rec = worker.Recorder()
    rec.records = [(job.name, 0.1, [0], "a", None), (job.name, 0.1, [2], "a", None),
                   (job.name, 0.1, [0], "b", None), (job.name, 0.1, [None], "c", "raised")]
    rec.answers = {(job.name, "a"): ['{"kind":"cdga","ok":true}\n'],
                   (job.name, "b"): ['{"kind":"cdga","ok":true}\n'],
                   (job.name, "c"): [""]}
    failed, reasons = worker.summarise(rec.records, worker.check(jobs, rec))
    # wrong exit code, stdout changed between runs, raised
    assert failed == 3 and job.name in reasons


def _snapshot():
    """Every cdga module global and class attribute, by identity."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "cdga" or name.startswith("cdga."):
            for key, value in vars(mod).items():
                out[(name, key)] = value
                if isinstance(value, type) and value.__module__.startswith("cdga"):
                    for attr, member in vars(value).items():
                        out[(name, key, attr)] = member
    return out


def test_every_wrapped_function_is_restored(tmp_path, monkeypatch):
    import cdga.cli  # noqa: F401 - loads every layer

    docs, jobs = workloads.plan("docs-mix", 1)
    _write_docs(tmp_path, docs)
    monkeypatch.chdir(tmp_path)
    before = _snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    patched = list(tracer.patches)
    assert len(patched) >= len(tracing.TARGETS)
    assert _snapshot() != before
    try:
        for job in jobs:
            worker.run_job(job)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.restored(patched)
    assert tracer.group_calls["documents.validate"] > 0


def test_each_elimination_is_counted_once():
    import cdga.linalg  # noqa: F401 - must be loaded before installing
    from cdga import Mat, SparseEliminator

    m = Mat.from_rows([[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        m.inv()  # solve_matrix -> rref: one elimination of the 3x6 augmented matrix
        assert tracer.group_calls["linalg.elim"] == 1
        assert tracer.elim_entries == 18
        m.nullspace()  # nullspace -> rref: one elimination of 3x3
        assert tracer.group_calls["linalg.elim"] == 2
        assert tracer.elim_entries == 27
        m.rank()
        assert tracer.group_calls["linalg.elim"] == 3
        elim = SparseEliminator()
        elim.add({0: 1, 2: 3})
        elim.express({0: 2, 2: 6})
        assert tracer.group_calls["linalg.elim"] == 5
        assert tracer.elim_entries == 27 + 9 + 2 + 2
    finally:
        tracer.uninstall()
    counted = tracer.self_times()
    assert counted["linalg.Mat.rref"][0] == 2  # the inner calls still have spans
    assert counted["linalg.Mat.solve_matrix"][0] == 1


def test_self_time_excludes_children():
    tracer = tracing.Tracer()
    tracer.span_name.extend([0, 1, 1])
    tracer.span_parent.extend([-1, 0, 0])
    tracer.span_job.extend([0, 0, 0])
    tracer.span_start.extend([0.0, 1.0, 3.0])
    tracer.span_end.extend([10.0, 2.0, 5.0])
    times = tracer.self_times()
    assert times[tracer.names[0]] == (1, 7.0)
    assert times[tracer.names[1]] == (2, 3.0)


def test_tail_percentile_has_ten_samples_beyond():
    walls = [float(i) for i in range(1, 201)]
    value, pct, beyond = run.tail(walls)
    assert beyond == 10 and value == 190.0 and pct == pytest.approx(95.0)
    # below 100 jobs the percentile would fall under p90: the slowest job instead
    assert run.tail([float(i) for i in range(1, 13)]) == (12.0, 100.0, 0)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)


def test_sampler_scales_by_the_samples_taken_during_the_interval():
    sampler = speed.Sampler()
    sampler.start()
    try:
        mark = sampler.mark()
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.4:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(sampler.samples) - mark[0] >= 4
    job_s, wall = sampler.scaled(mark)
    # the handler's own time is not the job's
    assert 0.4 - sampler.spent - 0.05 < wall < 0.4 + 0.1
    inside = sampler.samples[mark[0]:]
    assert job_s == pytest.approx(wall * sum(speed.REFERENCE_S / x for x in inside) / len(inside),
                                  rel=1e-6)


def test_runner_refuses_a_directory_without_sources(tmp_path):
    root = os.path.dirname(run.BENCH)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(root, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "docs-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
