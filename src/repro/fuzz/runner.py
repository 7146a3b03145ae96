"""Fuzz campaigns: generate → check → shrink → report.

:func:`run_campaign` drives a fixed-seed, fixed-budget batch (the CI
``fuzz-smoke`` job and ``repro fuzz`` both call it): program ``k`` of a
campaign with seed ``s`` is always ``generate(s * STRIDE + k)``, so any
failure is reproducible from ``(seed, k)`` alone and a re-run after a
fix covers the identical program set.

Every failing program is minimized with :func:`repro.fuzz.shrink`
under a predicate that requires the *same divergence kind* to persist
(so a shrink step cannot wander from, say, a clock mismatch to an
unrelated crash), and lands in the report — and, when ``artifact_dir``
is set, on disk as ``divergence_NNN.hpf`` next to a JSON summary.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field

from .generator import GenConfig, generate
from .grammar import FuzzProgram
from .harness import Divergence, check_program
from .shrink import shrink

#: seed stride between campaigns — larger than any count we run, so
#: campaigns with different seeds never share a program
STRIDE = 1_000_000


@dataclass
class Finding:
    """One failing program: where it came from, what diverged, and the
    minimized reproducer."""

    index: int
    gen_seed: int
    divergences: list[Divergence]
    minimized: FuzzProgram
    minimized_source: str


@dataclass
class FuzzReport:
    seed: int
    count: int
    checked: int = 0
    invalid: int = 0
    findings: list[Finding] = field(default_factory=list)
    #: how many generated programs actually exercised the slab tier
    slab_hits: int = 0
    #: slab plan kind -> programs where that kind took over a nest
    plan_hits: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.findings and self.invalid == 0

    def summary(self) -> str:
        plans = ", ".join(
            f"{kind} {self.plan_hits[kind]}"
            for kind in ("inner", "column", "triangular")
        )
        lines = [
            f"fuzz: {self.checked}/{self.count} programs checked, "
            f"{self.slab_hits} ran slabs ({plans}), {self.invalid} invalid, "
            f"{len(self.findings)} divergent"
        ]
        for finding in self.findings:
            kinds = sorted({d.kind for d in finding.divergences})
            lines.append(
                f"  #{finding.index} (seed {finding.gen_seed}): "
                f"{', '.join(kinds)} — minimized to "
                f"{finding.minimized.stmt_count()} statement(s)"
            )
            lines.append("    " + finding.divergences[0].describe())
        return "\n".join(lines)


def run_campaign(
    seed: int = 0,
    count: int = 150,
    *,
    config: GenConfig | None = None,
    procs_list: tuple[int, ...] = (1, 3, 4),
    sweep_every: int = 25,
    artifact_dir: str | None = None,
    shrink_steps: int = 400,
    verbose: bool = False,
    log=print,
) -> FuzzReport:
    """Check ``count`` generated programs; shrink and report failures.

    ``sweep_every > 0`` adds the pool-vs-batched sweep differential to
    every ``sweep_every``-th program (it multiplies runtime, so the
    smoke budget samples it rather than paying it everywhere).
    """
    config = config or GenConfig()
    report = FuzzReport(seed=seed, count=count)
    for index in range(count):
        gen_seed = seed * STRIDE + index
        program = generate(gen_seed, config)
        with_sweep = sweep_every > 0 and index % sweep_every == sweep_every - 1
        plans: set[str] = set()
        divergences = check_program(
            program,
            procs_list=procs_list,
            sweep=with_sweep,
            plans=plans,
        )
        report.checked += 1
        report.slab_hits += bool(plans)
        report.plan_hits.update(plans)
        if not divergences:
            continue
        if all(d.kind == "invalid" for d in divergences):
            report.invalid += 1
            if verbose:
                log(f"  invalid program at seed {gen_seed}: "
                    f"{divergences[0].detail}")
            continue
        kinds = {d.kind for d in divergences} - {"invalid"}
        if verbose:
            log(f"  divergence at #{index} (seed {gen_seed}): "
                + "; ".join(sorted(kinds)))

        def still_fails(candidate: FuzzProgram) -> bool:
            found = check_program(
                candidate,
                procs_list=procs_list,
                sweep=with_sweep,
            )
            return bool({d.kind for d in found} & kinds)

        minimized = shrink(program, still_fails, max_steps=shrink_steps)
        final = check_program(
            minimized, procs_list=procs_list, sweep=with_sweep
        )
        report.findings.append(
            Finding(
                index=index,
                gen_seed=gen_seed,
                divergences=final or divergences,
                minimized=minimized,
                minimized_source=minimized.emit(),
            )
        )
    if artifact_dir and report.findings:
        write_artifacts(report, artifact_dir)
    return report


def write_artifacts(report: FuzzReport, artifact_dir: str) -> None:
    os.makedirs(artifact_dir, exist_ok=True)
    summary = []
    for pos, finding in enumerate(report.findings):
        path = os.path.join(artifact_dir, f"divergence_{pos:03d}.hpf")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"! minimized fuzz divergence (campaign seed "
                         f"{report.seed}, program seed {finding.gen_seed})\n")
            handle.write(finding.minimized_source)
        summary.append(
            {
                "file": os.path.basename(path),
                "index": finding.index,
                "gen_seed": finding.gen_seed,
                "kinds": sorted({d.kind for d in finding.divergences}),
                "details": [d.describe() for d in finding.divergences[:5]],
            }
        )
    path = os.path.join(artifact_dir, "findings.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1, sort_keys=True)
        handle.write("\n")
