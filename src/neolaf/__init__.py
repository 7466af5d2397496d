"""Neural-symbolic learning agent runtime.

Subpackages by responsibility:

* ``kstar``: the encounter record schema and state machine (pure).
* ``provider``: LLM and embedding boundary, with a deterministic
  scripted provider for offline work.
* ``calculator`` / ``toolkit``: exact arithmetic grounding and the tool
  registry with its directive syntax.
* ``memory``: the append-only episodic store, retrieval, knowledge
  extraction, and consolidation export.
* ``cognition``: the starter kit, fast/slow routing, and the slow-path
  encounter loop.
* ``harness``: dataset loading, answer checking, eval and comparison.
* ``cli``: the ``neolaf`` command.
"""

__version__ = "0.1.0"

from .cognition import Route, Solution, StarterKit, default_kit, route, solve
from .errors import NeolafError
from .kstar import EncounterEvent, EncounterPhase, EncounterState, KstarRecord, advance
from .memory import EpisodicStore, KnowledgeItem, extract_knowledge, similarity
from .provider import (
    Completion,
    DeterministicEmbedder,
    ProviderRequest,
    ScriptedProvider,
)
from .toolkit import ToolRegistry, default_registry, parse_tool_directive

__all__ = [
    "Completion",
    "DeterministicEmbedder",
    "EncounterEvent",
    "EncounterPhase",
    "EncounterState",
    "EpisodicStore",
    "KnowledgeItem",
    "KstarRecord",
    "NeolafError",
    "ProviderRequest",
    "Route",
    "ScriptedProvider",
    "Solution",
    "StarterKit",
    "ToolRegistry",
    "advance",
    "default_kit",
    "default_registry",
    "extract_knowledge",
    "parse_tool_directive",
    "route",
    "similarity",
    "solve",
]
