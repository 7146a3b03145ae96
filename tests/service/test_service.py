"""SweepService end-to-end: byte-parity with direct sweeps, catalog
reuse, the JobHandle client surface, sharding, and backends."""

import json

import pytest

from repro import Session
from repro.core import CompilerOptions
from repro.obs import Metrics
from repro.programs import tomcatv_source
from repro.records import comparable
from repro.service import JobFailed, SweepService, shard_jobs
from repro.sweep import run_sweep
from repro.sweep.spec import SweepJob, SweepSpec


def _spec(procs=(2, 4), **kwargs):
    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
        **kwargs,
    )


def _canon(results):
    return json.dumps(
        [comparable(r.as_dict()) for r in results], sort_keys=True
    )


class TestEndToEnd:
    def test_submitted_job_matches_direct_sweep_byte_identical(
        self, tmp_path
    ):
        spec = _spec()
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, name="parity")
        assert service.serve_forever(once=True) >= 1
        via_service = handle.result(timeout=60)

        direct = Session(cache=False, use_calibration=False).sweep(
            spec, workers=0, mode="batched"
        )
        assert _canon(via_service) == _canon(direct)
        service.close()

    def test_resubmit_serves_from_catalog_without_reevaluating(
        self, tmp_path
    ):
        spec = _spec()
        service = SweepService(tmp_path / "svc")
        first = service.submit(spec)
        service.serve_forever(once=True)
        first_results = first.result(timeout=60)

        second = service.submit(spec)
        service.serve_forever(once=True)
        second_results = second.result(timeout=60)

        status = second.poll()
        assert status.reused == len(spec.jobs())
        assert [r.worker for r in second_results] == (
            ["catalog"] * len(spec.jobs())
        )
        assert _canon(first_results) == _canon(second_results)
        # each point was computed exactly once across both jobs
        assert all(
            service.catalog.evaluations(job) == 1 for job in spec.jobs()
        )
        service.close()

    def test_multiple_shards_drain_to_completion(self, tmp_path):
        spec = _spec(procs=(2, 4, 8))
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, shards=3)
        assert handle.poll().n_shards == 3
        service.serve_forever(once=True)
        results = handle.result(timeout=60)
        assert [r.label for r in results] == [j.label for j in spec.jobs()]
        service.close()

    def test_metrics_and_events(self, tmp_path):
        metrics = Metrics()
        service = SweepService(tmp_path / "svc", metrics=metrics)
        handle = service.submit(_spec())
        service.serve_forever(once=True)
        handle.result(timeout=60)
        assert metrics.counters["service.jobs_submitted"] == 1
        assert metrics.counters["service.points_done"] == 2
        assert metrics.gauges["service.queue.jobs_open"] == 0
        kinds = [e.kind for e in handle.stream_events(timeout=5)]
        assert kinds[0] == "submitted" and kinds[-1] == "done"
        service.close()

    def test_colliding_labels_commit_to_their_own_points(self, tmp_path):
        """Auto labels leave out the mode and the seed, so two points
        of one grid can share a label; each streamed result must still
        land on its own point, in the job and in the catalog."""

        def job(mode, procs):
            return SweepJob(
                program="tomcatv",
                source=tomcatv_source(n=10, niter=1, procs=procs),
                options=CompilerOptions(num_procs=procs),
                mode=mode,
                procs=procs,
            )

        jobs = [job("compile", 4), job("estimate", 4), job("estimate", 8)]
        assert jobs[0].label == jobs[1].label
        modes = [j.mode for j in jobs]
        assert [r.mode for r in run_sweep(jobs, workers=0)] == modes

        service = SweepService(tmp_path / "svc")
        handle = service.submit(jobs, shards=1)
        service.serve_forever(once=True)
        assert [r.mode for r in handle.result(timeout=60)] == modes
        assert [service.catalog.lookup(j).mode for j in jobs] == modes
        service.close()


class TestJobHandle:
    def test_poll_and_result_timeout(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        assert handle.poll().state == "queued"
        with pytest.raises(TimeoutError, match="still queued"):
            handle.result(timeout=0.05, poll=0.01)
        service.close()

    def test_cancel_raises_jobfailed(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        assert handle.cancel()
        assert not handle.cancel()
        with pytest.raises(JobFailed, match="cancelled"):
            handle.result(timeout=5)
        service.close()

    def test_reattach_by_id(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        handle = service.submit(_spec())
        again = service.handle(handle.job_id)
        assert again.poll().n_points == handle.poll().n_points
        with pytest.raises(KeyError):
            service.handle(999)
        service.close()

    def test_empty_grid_rejected(self, tmp_path):
        service = SweepService(tmp_path / "svc")
        with pytest.raises(ValueError, match="empty grid"):
            service.submit([])
        with pytest.raises(ValueError, match="exec_mode"):
            service.submit(_spec(), exec_mode="warp")
        service.close()


class TestSessionSubmit:
    def test_session_submit_round_trip(self, tmp_path):
        session = Session(use_calibration=False)
        handle = session.submit(_spec(), service=tmp_path / "svc")
        worker = SweepService(tmp_path / "svc")
        worker.serve_forever(once=True)
        results = handle.result(timeout=60)
        assert len(results) == 2 and all(r.ok for r in results)
        direct = session.sweep(_spec(), workers=0, mode="batched")
        assert _canon(results) == _canon(direct)
        worker.close()
        handle.service.close()


class TestBackends:
    def test_as_backend_forms(self, tmp_path):
        """A backend name only sets the evaluation pool's size."""
        forms = {None: 0, "inline": 0, "pool": 2, "pool:3": 3}
        for backend, workers in forms.items():
            service = SweepService(tmp_path / "svc", backend=backend)
            assert service.workers == workers
            service.close()
        for bad in ("cloud", "inline:2"):
            with pytest.raises(ValueError, match="unknown worker backend"):
                SweepService(tmp_path / "svc", backend=bad)

    def test_pool_backend_matches_inline(self, tmp_path):
        spec = _spec()
        inline = SweepService(tmp_path / "a", backend="inline")
        handle = inline.submit(spec)
        inline.serve_forever(once=True)
        inline_results = handle.result(timeout=60)
        inline.close()

        pool = SweepService(tmp_path / "b", backend="pool:2")
        handle = pool.submit(spec)
        pool.serve_forever(once=True)
        pool_results = handle.result(timeout=120)
        pool.close()
        assert _canon(inline_results) == _canon(pool_results)


class TestShardJobs:
    def test_default_one_shard_per_fusion_group(self):
        jobs = _spec(procs=(2, 4, 8)).jobs()
        shards = shard_jobs(jobs)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(jobs)))

    def test_explicit_shard_count_partitions(self):
        jobs = _spec(procs=(2, 4, 8, 16)).jobs()
        shards = shard_jobs(jobs, 2)
        assert len(shards) <= 2
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(jobs)))

    def test_more_shards_than_points_clamps(self):
        jobs = _spec(procs=(2,)).jobs()
        assert shard_jobs(jobs, 5) == [[0]]
        assert shard_jobs([], 3) == []
        with pytest.raises(ValueError, match="shards must be >= 1"):
            shard_jobs(jobs, 0)
