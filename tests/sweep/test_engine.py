"""The sweep engine: grid expansion, serial/parallel parity, and the
pool's one failure path (a killed worker forfeits exactly its job)."""

import os
import time

import pytest

import repro.sweep.engine
from repro.core.driver import CompilerOptions
from repro.obs import Metrics
from repro.programs import dgefa_source, tomcatv_source
from repro.sweep import SweepJob, SweepResult, SweepSpec, run_sweep

SRC = dgefa_source(n=8, procs=2)
OPTS = CompilerOptions(num_procs=2)


def _job(label="", **kwargs):
    kwargs.setdefault("program", "dgefa")
    kwargs.setdefault("source", SRC)
    kwargs.setdefault("options", OPTS)
    kwargs.setdefault("procs", 2)
    return SweepJob(label=label, **kwargs)


class TestSpec:
    def test_grid_expansion_order(self):
        spec = SweepSpec(
            programs={"a": "SRC-A", "b": "SRC-B"},
            procs=(2, 4),
            axes={"strategy": ("consumer", "selected")},
        )
        jobs = spec.jobs()
        assert len(jobs) == len(spec) == 8
        # programs outermost, then procs, then axes
        assert [j.program for j in jobs] == ["a"] * 4 + ["b"] * 4
        assert [j.procs for j in jobs[:4]] == [2, 2, 4, 4]
        assert jobs[0].options.strategy == "consumer"
        assert jobs[1].options.strategy == "selected"
        assert jobs[0].options.num_procs == 2

    def test_callable_program_source(self):
        spec = SweepSpec(
            programs={"tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p)},
            procs=(2, 4),
        )
        jobs = spec.jobs()
        assert "PROCS(2)" in jobs[0].source and "PROCS(4)" in jobs[1].source

    def test_rejects_unknown_axis(self):
        with pytest.raises(ValueError, match="no_such_flag"):
            SweepSpec(programs={"a": "x"}, axes={"no_such_flag": (1,)})

    def test_rejects_num_procs_axis(self):
        with pytest.raises(ValueError, match="SweepSpec.procs"):
            SweepSpec(programs={"a": "x"}, axes={"num_procs": (2, 4)})

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            SweepSpec(programs={"a": "x"}, mode="fly")

    def test_job_label_auto(self):
        job = _job(procs=4, options=CompilerOptions(num_procs=4, strategy="producer"))
        assert job.label == "dgefa[p=4,strategy=producer]"

    def test_result_as_dict_is_flat_json(self):
        import json

        result = SweepResult(
            label="x", program="p", mode="estimate", procs=2, options=OPTS,
            total_time=1.5,
        )
        record = result.as_dict()
        json.dumps(record)
        assert record["total_time"] == 1.5
        assert "elapsed" not in record  # other modes' fields stay out


class TestSerial:
    def test_estimate_mode(self):
        results = run_sweep([_job()], workers=0)
        (r,) = results
        assert r.ok and r.worker == "serial"
        assert r.total_time == pytest.approx(r.compute_time + r.comm_time)
        assert r.grid_size == 2

    def test_simulate_mode(self):
        (r,) = run_sweep([_job(mode="simulate")], workers=0)
        assert r.ok
        assert r.elapsed > 0
        assert set(r.canonical_stats) == {"procs", "clocks", "stats", "tiers"}
        assert r.messages is not None and r.fetches is not None

    def test_compile_mode(self):
        (r,) = run_sweep([_job(mode="compile")], workers=0)
        assert r.ok and "grid:" in r.report

    def test_on_result_streams_in_order(self):
        seen = []
        jobs = [_job(), _job(mode="compile")]
        run_sweep(jobs, workers=0, on_result=lambda r: seen.append(r.mode))
        assert seen == ["estimate", "compile"]

    def test_bad_source_reports_not_raises(self):
        (r,) = run_sweep(
            [_job(program="bad", source="garbage ! source")], workers=0
        )
        assert not r.ok and "ParseError" in r.error


class TestParallel:
    def test_parity_with_serial(self):
        spec = SweepSpec(
            programs={"tomcatv": lambda p: tomcatv_source(n=8, niter=1, procs=p)},
            procs=(2, 4),
            axes={"strategy": ("consumer", "selected")},
        )
        serial = run_sweep(spec, workers=0, mode="pool")
        # force the pool: in auto mode the procs axis now fuses into
        # batches and this grid would never reach a worker process
        parallel = run_sweep(spec, workers=2, mode="pool")
        assert [r.label for r in serial] == [r.label for r in parallel]
        for s, p in zip(serial, parallel):
            assert s.ok and p.ok
            assert p.total_time == pytest.approx(s.total_time, abs=0, rel=0)
            assert p.worker.startswith("worker-")

    def test_killed_worker_forfeits_only_its_job(self, monkeypatch):
        """A pool worker that dies mid-job forfeits exactly that job: it
        comes back ok=False with the crash marker, a replacement worker
        finishes the rest, and results stay in job order."""
        parent = os.getpid()
        execute_job = repro.sweep.engine.execute_job

        def dies_on_doomed(job, **kwargs):
            if job.label == "doomed" and os.getpid() != parent:
                os._exit(32)  # a hard worker death (segfault/OOM kill)
            return execute_job(job, **kwargs)

        # patched before the pool forks, so the workers inherit it
        monkeypatch.setattr(repro.sweep.engine, "execute_job", dies_on_doomed)
        metrics = Metrics()
        labels = ["a", "doomed", "b", "c", "d"]
        start = time.monotonic()
        results = run_sweep(
            [_job(label) for label in labels],
            workers=2,
            mode="pool",
            metrics=metrics,
        )
        assert time.monotonic() - start < 60
        assert [r.label for r in results] == labels
        doomed = results[1]
        assert not doomed.ok and doomed.worker == "crashed"
        assert doomed.error == "worker crashed (exit code 32)"
        rest = results[:1] + results[2:]
        assert all(r.ok and r.worker.startswith("worker-") for r in rest)
        assert metrics.counters["sweep.worker_crashes"] == 1
        assert metrics.counters["sweep.jobs_failed"] == 1

    def test_deterministic_failure_is_not_retried(self):
        jobs = [_job("raiser", program="bad", source="garbage ! x"), _job()]
        results = run_sweep(jobs, workers=2, mode="pool")
        raiser = next(r for r in results if r.label == "raiser")
        assert not raiser.ok
        assert raiser.attempts == 1
        assert raiser.worker.startswith("worker-")
        assert "ParseError" in raiser.error

    def test_disk_cache_shared_across_workers(self, tmp_path):
        jobs = [_job(), _job(options=CompilerOptions(num_procs=4), procs=4)]
        cold = run_sweep(jobs, workers=2, cache=tmp_path)
        assert not any(r.cache_hit for r in cold)
        warm = run_sweep(jobs, workers=2, cache=tmp_path)
        assert all(r.cache_hit for r in warm)
        for c, w in zip(cold, warm):
            assert w.total_time == pytest.approx(c.total_time, abs=0, rel=0)
