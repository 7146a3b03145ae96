"""Correctness checks, run outside the timed region.

Each function returns a list of problems (empty: the output is
correct), so one failing operation counts once toward ``failed`` and
the problems are printed for diagnosis.
"""

from __future__ import annotations

import json
import re
from typing import Any, Iterable, Sequence

import numpy as np


def check_run(result: Any) -> list[str]:
    """A validated ``Session.run``: its own verdict, then every array
    compared again against the sequential oracle's copy."""
    problems = []
    if not result.ok:
        problems.append(
            f"run not ok: matches={result.matches}, unexpected fetches="
            f"{result.unexpected_fetches}"
        )
    for symbol in result.compiled.proc.symbols.arrays():
        simulated = result.gather(symbol.name)
        oracle = result.sequential.get_array(symbol.name)
        if not np.allclose(simulated, oracle):
            problems.append(f"array {symbol.name} differs from the oracle")
    return problems


def stats_bytes(canonical_stats: Any) -> bytes:
    return json.dumps(canonical_stats, sort_keys=True).encode("utf-8")


def check_tie(point: Any, run: Any) -> list[str]:
    """A simulate grid point against a validated ``Session.run`` of the
    same source, options and seed: the run must pass the oracle checks
    and its canonical stats must equal the point's byte for byte."""
    problems = [f"{point.label}: {p}" for p in check_run(run)]
    if stats_bytes(point.canonical_stats) != stats_bytes(run.canonical_stats()):
        problems.append(
            f"{point.label}: canonical_stats differ from the validated run"
        )
    return problems


def check_estimate(point: Any, estimate: Any) -> list[str]:
    """An estimate grid point against a direct ``Session.estimate``."""
    got = (point.total_time, point.compute_time, point.comm_time)
    want = (estimate.total_time, estimate.compute_time, estimate.comm_time)
    if got != want:
        return [f"{point.label}: estimate {got} != direct {want}"]
    return []


def check_job(jobs: Sequence[Any], results: Sequence[Any]) -> list[str]:
    """Every grid point came back, in order, and ok."""
    if len(results) != len(jobs):
        return [f"job returned {len(results)} results for {len(jobs)} points"]
    problems = []
    for job, result in zip(jobs, results):
        if (result.label, result.mode) != (job.label, job.mode):
            problems.append(
                f"result {result.label} ({result.mode}) where {job.label} "
                f"({job.mode}) was due"
            )
        elif not result.ok:
            error = (result.error or "").strip().splitlines()[-1:]
            problems.append(f"{result.label} failed: {error}")
    return problems


def _renumber_statements(text: str) -> str:
    """Statement ids come from a process-global counter, so a compile
    report names the same statements differently in another process;
    number them by first appearance instead."""
    ids: dict[str, str] = {}
    return re.sub(
        r"\bS\d+\b", lambda m: ids.setdefault(m.group(), f"S#{len(ids)}"), text
    )


def records_bytes(results: Iterable[Any], *, renumber: bool = False) -> bytes:
    """The deterministic part of a job's results: the shared record
    schema minus execution bookkeeping (``renumber``: also compile
    reports up to statement numbering, for jobs compiled in other
    processes)."""
    from repro.records import comparable

    records = [comparable(r.as_dict()) for r in results]
    if renumber:
        for record in records:
            if record.get("report") is not None:
                record["report"] = _renumber_statements(record["report"])
    return json.dumps(records, sort_keys=True).encode("utf-8")


def check_same(
    results: Sequence[Any], reference: Sequence[Any], what: str,
    *, renumber: bool = False,
) -> list[str]:
    """``results`` equal the ``reference`` job's results."""
    if records_bytes(results, renumber=renumber) != records_bytes(
        reference, renumber=renumber
    ):
        return [f"{what} differ from the reference job's results"]
    return []


def check_audit(catalog: Any, jobs: Sequence[Any]) -> list[str]:
    """The catalog's exactly-once audit: every point evaluated once."""
    counts = [catalog.evaluations(job) for job in jobs]
    wrong = [
        f"{job.label}={count}"
        for job, count in zip(jobs, counts)
        if count != 1
    ]
    if wrong:
        return [f"catalog evaluations != 1 for {len(wrong)} points: {wrong[:3]}"]
    return []
