from __future__ import annotations

import pytest
from hypothesis import settings

from tooldrift import mcts
from tooldrift.corpus import load_corpus
from tooldrift.mutation import MutationPlan, mutate_registry

# Same examples on every run, no wall-clock deadline on a shared machine, and
# a bound on the examples per property so tier-1 stays fast.
settings.register_profile("tier1", derandomize=True, deadline=None, max_examples=100)
settings.load_profile("tier1")


@pytest.fixture(scope="session")
def corpus():
    return load_corpus()


@pytest.fixture(scope="session")
def base_registry(corpus):
    return corpus.base_registry


@pytest.fixture(scope="session")
def mutated_registry(base_registry):
    return mutate_registry(base_registry, MutationPlan(seed=11))


@pytest.fixture
def selected_leaves(monkeypatch):
    """(id, cached at return) of every leaf ``mcts.select_leaf`` returns while
    the test runs; ``run_search`` looks the function up by that name."""
    seen = []
    select = mcts.select_leaf

    def spy(tree):
        leaf = select(tree)
        if leaf is not None:
            seen.append((leaf, tree.nodes[leaf].cached))
        return leaf

    monkeypatch.setattr(mcts, "select_leaf", spy)
    return seen


@pytest.fixture(scope="session")
def mutated_registry_alt(base_registry):
    return mutate_registry(base_registry, MutationPlan(seed=42))


@pytest.fixture(scope="session")
def greedy_episode():
    """Greedy decoding, which is the one-simulation search with k = 1: a
    function of (policy, task, registry, manual, demos, max_steps, ablations)
    that returns the episode's reward and the state of its last node."""

    def run(policy, task, registry, manual, demos=(), max_steps=15, **ablations):
        config = mcts.SearchConfig(k=1, max_simulations=1, max_depth=max_steps, **ablations)
        tree = mcts.run_search(task, registry, policy, config, manual, demos)
        return tree.simulations[0][2], tree.state(len(tree.parent) - 1)

    return run
