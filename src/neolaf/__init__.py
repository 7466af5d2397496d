"""Neural-symbolic learning agent runtime.

Modules by responsibility:

* ``kstar``: the encounter record schema and state machine (pure).
* ``errors``: the exception root and the readers of input files.
* ``provider``: LLM and embedding boundary, with a deterministic
  scripted provider for offline work.
* ``calculator`` / ``toolkit``: exact arithmetic grounding and the tool
  registry with its directive syntax.
* ``memory``: the append-only episodic store, retrieval, knowledge
  extraction, and consolidation export.
* ``templates``: the starter kit's prompt templates and their rendering.
* ``cognition``: the starter kit, fast/slow routing, and the slow-path
  encounter loop.
* ``harness``: dataset loading, answer checking, eval and comparison.
* ``cli``: the ``neolaf`` command.
"""
