"""The durable job queue: submit/claim/lease/complete lifecycle,
crash-reclaim, and persistence across reopen."""

import pickle
import time

import pytest

from repro.programs import tomcatv_source
from repro.service import JobQueue, make_owner, point_key, shard_jobs
from repro.sweep.spec import SweepResult, SweepSpec


def _spec(procs=(2, 4)):
    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
    )


def _submit(queue, jobs, shards=None, **kwargs):
    return queue.submit(
        jobs,
        [point_key(j) for j in jobs],
        shard_jobs(jobs, shards),
        **kwargs,
    )


def _result(job, **overrides):
    fields = dict(
        label=job.label, program=job.program, mode=job.mode,
        procs=job.procs, options=job.options, ok=True, worker="test",
    )
    fields.update(overrides)
    return SweepResult(**fields)


class TestSubmit:
    def test_submit_persists_points_and_shards(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, name="grid")
        status = queue.status(job_id)
        assert status.state == "queued"
        assert status.n_points == len(jobs)
        assert status.done == 0 and status.n_shards >= 1
        assert queue.results(job_id) == [None] * len(jobs)

    def test_shards_must_partition(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        keys = [point_key(j) for j in jobs]
        with pytest.raises(ValueError, match="partition"):
            queue.submit(jobs, keys, [[0]], name="bad")
        with pytest.raises(ValueError, match="one catalog key"):
            queue.submit(jobs, keys[:-1], [[0], [1]])

    def test_unknown_job_raises(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        with pytest.raises(KeyError, match="no job 99"):
            queue.status(99)


class TestClaimLease:
    def test_claim_leases_and_marks_running(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, shards=1)
        claim = queue.claim("me:1:a")
        assert claim is not None and claim.job_id == job_id
        assert [idx for idx, _ in claim.points] == list(range(len(jobs)))
        assert queue.status(job_id).state == "running"
        # the only shard is leased: nothing else claimable
        assert queue.claim("other:2:b") is None

    def test_heartbeat_extends_and_guards_owner(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs(), shards=1)
        claim = queue.claim("me:1:a")
        assert queue.heartbeat(job_id, claim.shard, "me:1:a")
        assert not queue.heartbeat(job_id, claim.shard, "impostor:9:z")

    def test_expired_lease_is_reclaimable_with_done_points_kept(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path / "q.sqlite", lease_ttl=0.05)
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, shards=1)
        claim = queue.claim("remotehost:1:a")
        idx, job = claim.points[0]
        queue.complete_point(job_id, idx, _result(job))
        time.sleep(0.1)
        reclaim = queue.claim("remotehost:1:b")
        assert reclaim is not None and reclaim.shard == claim.shard
        # only the still-pending point is reissued
        assert [i for i, _ in reclaim.points] == [
            i for i, _ in claim.points[1:]
        ]
        kinds = [e.kind for e in queue.events_since(job_id)]
        assert "reclaimed" in kinds

    def test_dead_local_owner_reclaimed_before_expiry(self, tmp_path):
        import socket

        queue = JobQueue(tmp_path / "q.sqlite", lease_ttl=3600)
        job_id = _submit(queue, _spec().jobs(), shards=1)
        dead = f"{socket.gethostname()}:999999:dead"
        assert queue.claim(dead) is not None
        # long un-expired lease, but the pid does not exist locally
        reclaim = queue.claim(make_owner())
        assert reclaim is not None and reclaim.job_id == job_id

    def test_remote_owner_not_presumed_dead(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite", lease_ttl=3600)
        _submit(queue, _spec().jobs(), shards=1)
        assert queue.claim("elsewhere:999999:far") is not None
        assert queue.claim(make_owner()) is None


class TestCompletion:
    def test_complete_all_points_finishes_job(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, shards=1)
        claim = queue.claim("me:1:a")
        for idx, job in claim.points:
            assert queue.complete_point(job_id, idx, _result(job))
        assert queue.finish_shard(job_id, claim.shard, "me:1:a")
        status = queue.status(job_id)
        assert status.state == "done" and status.done == len(jobs)
        results = queue.results(job_id)
        assert [r.label for r in results] == [j.label for j in jobs]
        assert [e.kind for e in queue.events_since(job_id)][-1] == "done"

    def test_double_completion_dropped(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, shards=1)
        claim = queue.claim("me:1:a")
        idx, job = claim.points[0]
        assert queue.complete_point(job_id, idx, _result(job))
        assert not queue.complete_point(job_id, idx, _result(job))

    def test_finish_shard_refuses_pending_points(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs(), shards=1)
        claim = queue.claim("me:1:a")
        assert not queue.finish_shard(job_id, claim.shard, "me:1:a")

    def test_release_returns_shard_to_ready(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs(), shards=1)
        claim = queue.claim("me:1:a")
        queue.release_shard(job_id, claim.shard, "me:1:a", "shutdown")
        assert queue.claim("me:1:b") is not None


class TestPoisonShard:
    def test_shard_that_keeps_failing_fails_its_job(self, tmp_path):
        from repro.service.queue import MAX_SHARD_ATTEMPTS

        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs(), shards=1)
        for attempt in range(MAX_SHARD_ATTEMPTS):
            claim = queue.claim(f"me:1:{attempt}")
            assert claim is not None and claim.job_id == job_id
            queue.release_shard(job_id, claim.shard, claim.owner, "crashed")
        healthy = _submit(queue, _spec().jobs(), shards=1)
        # the poison shard is not leased again: its job fails and the
        # claim moves on to the next job's work
        claim = queue.claim("me:1:next")
        assert claim is not None and claim.job_id == healthy
        status = queue.status(job_id)
        assert status.state == "failed"
        assert "shard 0" in status.error
        assert f"after {MAX_SHARD_ATTEMPTS} attempts" in status.error
        assert queue.events_since(job_id)[-1].kind == "failed"
        assert queue.claim("me:1:last") is None


class TestCancel:
    def test_cancel_stops_heartbeats(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs(), shards=1)
        claim = queue.claim("me:1:a")
        assert queue.cancel(job_id)
        assert not queue.heartbeat(job_id, claim.shard, "me:1:a")
        assert not queue.cancel(job_id)  # idempotent: already terminal
        assert queue.status(job_id).state == "cancelled"

    def test_fail_job_records_error(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        job_id = _submit(queue, _spec().jobs())
        queue.fail_job(job_id, "boom\nlast line")
        status = queue.status(job_id)
        assert status.state == "failed" and "last line" in status.error


class TestDurability:
    def test_queue_survives_reopen(self, tmp_path):
        path = tmp_path / "q.sqlite"
        queue = JobQueue(path, lease_ttl=0.01)
        jobs = _spec().jobs()
        job_id = _submit(queue, jobs, shards=1)
        claim = queue.claim("me:1:a")
        idx, job = claim.points[0]
        queue.complete_point(job_id, idx, _result(job))
        queue.close()

        reopened = JobQueue(path, lease_ttl=0.01)
        status = reopened.status(job_id)
        assert status.done == 1 and status.n_points == len(jobs)
        time.sleep(0.05)
        reclaim = reopened.claim("me:1:b")
        assert reclaim is not None
        assert len(reclaim.points) == len(jobs) - 1
        stored = reopened.results(job_id)[idx]
        assert stored.label == job.label and stored.ok

    def test_jobs_round_trip_pickle_identical(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        jobs = _spec().jobs()
        _submit(queue, jobs, shards=1)
        claim = queue.claim("me:1:a")
        for (idx, loaded), original in zip(claim.points, jobs):
            assert pickle.dumps(loaded) == pickle.dumps(original)

    def test_depth_gauges(self, tmp_path):
        queue = JobQueue(tmp_path / "q.sqlite")
        assert queue.depth() == {
            "shards_ready": 0, "shards_leased": 0, "jobs_open": 0,
        }
        _submit(queue, _spec().jobs(), shards=2)
        depth = queue.depth()
        assert depth["jobs_open"] == 1 and depth["shards_ready"] == 2
        queue.claim("me:1:a")
        depth = queue.depth()
        assert depth["shards_ready"] == 1 and depth["shards_leased"] == 1
