"""Actor-centric runtime-architecture planning and simulation.

The pipeline: a declarative use-case model (actors, use cases, triggers,
include/extend relations, traffic flows) is partitioned into view cases,
mapped onto process nodes under a fault-tolerance or memory policy, wired
with shared-segment / message-queue channels, and then executed as a
deterministic discrete-event simulation of processes with four logical
threads each (watchdog, receiver, processor, transmitter).
"""

__version__ = "0.1.0"
