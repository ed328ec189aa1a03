"""tooldrift: tool learning under API drift.

A simulator for drifting tool APIs, a PUCT tree search with cached rollouts,
self-reflection and in-prompt tool updating, a deterministic API mutator, and
an exporter of successful trajectories as SFT records.
"""

from .adapt import (
    ExpansionMode,
    apply_update_tool,
    execute_action,
    reflection_gate,
)
from .corpus import Corpus, load_corpus
from .env import (
    ApiSpec,
    DeprecationEntry,
    Observation,
    ParamSpec,
    TaskInstance,
    ToolRegistry,
    evaluate,
    invoke,
    registry_from_json,
    registry_to_json,
)
from .mcts import (
    SearchConfig,
    SearchTree,
    TreeNode,
    backpropagate,
    best_child,
    expand,
    puct_score,
    run_search,
    select_leaf,
    simulate_cached,
    tree_from_json,
    tree_to_json,
)
from .mutation import (
    MutationPlan,
    MutationReport,
    mutate_registry,
    verify_mutation,
)
from .policy import (
    PolicyConfig,
    PolicyError,
    build_policy,
    run_greedy_episode,
)
from .react import ActionParseError, ActionRecord, StateRecord, parse_action, render_prompt
from .trajectory import (
    SftRecord,
    collect_from_trees,
    export_sft,
    load_sft,
)

__version__ = "0.1.0"

__all__ = [
    "ActionParseError",
    "ActionRecord",
    "ApiSpec",
    "Corpus",
    "DeprecationEntry",
    "ExpansionMode",
    "MutationPlan",
    "MutationReport",
    "Observation",
    "ParamSpec",
    "PolicyConfig",
    "PolicyError",
    "SearchConfig",
    "SearchTree",
    "SftRecord",
    "StateRecord",
    "TaskInstance",
    "ToolRegistry",
    "TreeNode",
    "apply_update_tool",
    "backpropagate",
    "best_child",
    "build_policy",
    "collect_from_trees",
    "evaluate",
    "execute_action",
    "expand",
    "export_sft",
    "invoke",
    "load_corpus",
    "load_sft",
    "mutate_registry",
    "parse_action",
    "puct_score",
    "reflection_gate",
    "registry_from_json",
    "registry_to_json",
    "render_prompt",
    "run_greedy_episode",
    "run_search",
    "select_leaf",
    "simulate_cached",
    "tree_from_json",
    "tree_to_json",
    "verify_mutation",
]
