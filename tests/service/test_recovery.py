"""Crash recovery: a worker killed mid-job forfeits only its lease,
and a pool worker killed mid-job forfeits only its point.  The queue
re-claims the work; the job completes with canonical stats
byte-identical to an uninterrupted run, and the catalog shows each
grid point evaluated exactly once (commit-level: completed points are
never re-run; only uncommitted in-flight work repeats)."""

import json
import os
import re
import subprocess
import sys

import repro
import repro.sweep.engine
from repro.records import comparable
from repro.service import KILL_AFTER_ENV, SweepService
from repro.service.service import KILLED_EXIT_CODE
from repro.sweep.spec import SweepSpec

from pathlib import Path

_SRC_ROOT = Path(repro.__file__).resolve().parents[1]

_SERVE_SNIPPET = """
import sys
from repro.service import SweepService

service = SweepService(sys.argv[1], lease_ttl=30.0)
service.serve_forever(once=True)
"""


def _spec(procs=(2, 3, 4, 5), **kwargs):
    from repro.programs import tomcatv_source

    return SweepSpec(
        programs={"tomcatv": lambda p: tomcatv_source(n=10, niter=1, procs=p)},
        procs=procs,
        **kwargs,
    )


def _serve_subprocess(root, kill_after=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC_ROOT)
    if kill_after is not None:
        env[KILL_AFTER_ENV] = str(kill_after)
    else:
        env.pop(KILL_AFTER_ENV, None)
    return subprocess.run(
        [sys.executable, "-c", _SERVE_SNIPPET, str(root)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def _canon(results):
    records = [comparable(r.as_dict()) for r in results]
    for record in records:
        if record.get("report") is not None:
            # statement ids come from a process-global counter, so a
            # report compiled in a pool worker numbers them differently:
            # number them by first appearance instead
            ids: dict = {}
            record["report"] = re.sub(
                r"\bS\d+\b",
                lambda m: ids.setdefault(m.group(), f"S#{len(ids)}"),
                record["report"],
            )
    return json.dumps(records, sort_keys=True)


class TestCrashRecovery:
    def test_killed_worker_job_completes_byte_identical(self, tmp_path):
        spec = _spec()
        n_points = len(spec.jobs())

        # the uninterrupted reference: same grid, separate service dir
        reference = SweepService(tmp_path / "ref")
        ref_handle = reference.submit(spec)
        reference.serve_forever(once=True)
        ref_results = ref_handle.result(timeout=60)
        reference.close()

        # submit, then kill the serving subprocess after 2 commits
        client = SweepService(tmp_path / "svc")
        handle = client.submit(spec, shards=n_points)
        killed = _serve_subprocess(tmp_path / "svc", kill_after=2)
        assert killed.returncode == KILLED_EXIT_CODE, killed.stderr
        partial = handle.poll()
        assert 0 < partial.done < n_points
        assert partial.state == "running"

        # a fresh worker (new pid) resumes and drains the job: the dead
        # owner's lease is reclaimed without waiting out its TTL
        finished = _serve_subprocess(tmp_path / "svc")
        assert finished.returncode == 0, finished.stderr
        results = handle.result(timeout=60)

        assert _canon(results) == _canon(ref_results)
        assert all(
            client.catalog.evaluations(job) == 1 for job in spec.jobs()
        ), "a grid point was evaluated more than once after the crash"
        kinds = [e.kind for e in handle.stream_events(timeout=5)]
        assert "reclaimed" in kinds or "claimed" in kinds
        assert kinds[-1] == "done"
        client.close()

    def test_killed_pool_worker_point_is_reclaimed(
        self, tmp_path, monkeypatch
    ):
        # compile-mode points do not batch, so they reach the pool
        spec = _spec(mode="compile")
        jobs = spec.jobs()
        reference = SweepService(tmp_path / "ref", backend="inline")
        ref_handle = reference.submit(spec)
        reference.serve_forever(once=True)
        ref_results = ref_handle.result(timeout=60)
        reference.close()

        # the first pool worker to reach the doomed point dies on it;
        # patched before the pool forks, so the workers inherit it
        parent, doomed = os.getpid(), jobs[1].label
        died = tmp_path / "died"
        execute_job = repro.sweep.engine.execute_job

        def dies_once(job, **kwargs):
            if job.label == doomed and os.getpid() != parent:
                if not died.exists():
                    died.touch()
                    os._exit(KILLED_EXIT_CODE)
            return execute_job(job, **kwargs)

        monkeypatch.setattr(repro.sweep.engine, "execute_job", dies_once)
        service = SweepService(tmp_path / "svc", backend="pool:2")
        handle = service.submit(spec, shards=1)
        service.serve_forever(once=True)

        assert died.exists(), "no pool worker was killed"
        assert handle.poll().state == "done"
        assert _canon(handle.result(timeout=60)) == _canon(ref_results)
        assert all(
            service.catalog.evaluations(job) == 1 for job in jobs
        ), "a grid point was evaluated more than once after the crash"
        kinds = [e.kind for e in handle.stream_events(timeout=5)]
        released = kinds.index("released")
        assert kinds[:released].count("claimed") == 1
        assert "claimed" in kinds[released + 1:]
        assert kinds[-1] == "done"
        service.close()

    def test_kill_marker_fires_between_commits(self, tmp_path, monkeypatch):
        """In-process check of the injection point: the service exits
        only *after* a point commit, so no point is ever lost
        mid-flight."""
        spec = _spec(procs=(2, 3))
        service = SweepService(tmp_path / "svc")
        handle = service.submit(spec, shards=2)

        monkeypatch.setenv(KILL_AFTER_ENV, "1")
        exits = []
        monkeypatch.setattr(os, "_exit", lambda code: exits.append(code))
        service.run_next()
        assert exits == [KILLED_EXIT_CODE]
        assert handle.poll().done == 1
        service.close()
