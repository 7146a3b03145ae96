"""The repository benchmark: closed-loop workloads over the three user
verbs (a validated ``Session.run``, and cold and warm sweep-service
jobs), timed end to end and, in a separate traced run, per layer.

``perfbench/run.py`` is the entry point; ``perfbench/README.md`` says
why each workload was chosen and which layer moves which metric.
"""

#: the workloads ``run.py --workload`` accepts (see README.md)
WORKLOADS = ("run-tomcatv", "run-dgefa", "grid-cold", "grid-warm")
