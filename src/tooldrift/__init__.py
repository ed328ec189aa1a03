"""tooldrift: tool learning under API drift.

A simulator for drifting tool APIs, a PUCT tree search with cached rollouts,
self-reflection and in-prompt tool updating, a deterministic API mutator, and
an exporter of successful trajectories as SFT records.
"""

__version__ = "0.1.0"
