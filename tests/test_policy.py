from __future__ import annotations

import json
import logging
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from tooldrift import policy as policy_module
from tooldrift.env import invoke
from tooldrift.mcts import SearchConfig, run_search
from tooldrift.mutation import MutationPlan, mutate_registry
from tooldrift.policy import (
    PolicyConfig,
    PolicyError,
    RemotePolicy,
    ScriptedAdaptivePolicy,
    ScriptedRigidPolicy,
    ScriptedSemiAdaptivePolicy,
    UnknownTaskError,
    build_policy,
    parse_deprecation_guidance,
    run_greedy_episode,
    update_tool_desc,
)
from tooldrift.react import StateRecord, parse_action


def state_for(corpus, task_id, steps=()):
    return StateRecord(
        task=corpus.task(task_id),
        tool_manual=tuple(corpus.manual),
        demos=tuple(corpus.demos),
        steps=tuple(steps),
    )


def executed(corpus, registry, task_id, actions):
    """Drive a state through the environment with explicit parsed actions."""
    from tooldrift.adapt import execute_action

    state = state_for(corpus, task_id)
    for text in actions:
        record = parse_action(text)
        state = execute_action(state, record, registry).state
    return state


class TestScriptedPolicies:
    def test_exact_candidate_arity(self, corpus):
        policy = ScriptedAdaptivePolicy(corpus)
        candidates = policy.propose(state_for(corpus, "coffee-easy-1"), 5)
        assert len(candidates) == 5

    def test_fresh_coffee_state_loads_db(self, corpus):
        text = ScriptedAdaptivePolicy(corpus).next_step(state_for(corpus, "coffee-easy-1"))
        record = parse_action(text)
        assert record.action_name == "LoadDB"
        assert record.action_input == {"DBName": "coffee"}

    def test_adaptive_reacts_to_deprecation(self, corpus, mutated_registry):
        state = executed(
            corpus,
            mutated_registry,
            "coffee-easy-1",
            ['Thought: load\nAction: LoadDB\nAction Input: {"DBName": "coffee"}'],
        )
        assert state.steps[-1].kind == "deprecation_error"
        record = parse_action(ScriptedAdaptivePolicy(corpus).propose(state, 5)[0])
        successor = mutated_registry.deprecated["LoadDB"].successor
        assert record.action_name == successor
        assert "deprecated" in record.thought
        obs = invoke(mutated_registry, record.action_name, record.action_input)
        assert obs.kind == "response"

    def test_rigid_repeats_deprecated_call(self, corpus, mutated_registry):
        state = executed(
            corpus,
            mutated_registry,
            "coffee-easy-1",
            ['Thought: load\nAction: LoadDB\nAction Input: {"DBName": "coffee"}'],
        )
        record = parse_action(ScriptedRigidPolicy(corpus).propose(state, 5)[0])
        assert record.action_name == "LoadDB"
        assert record.action_input == {"DBName": "coffee"}

    def test_adaptive_emits_update_tool_after_retry(self, corpus, mutated_registry):
        successor = mutated_registry.deprecated["LoadDB"].successor
        example = mutated_registry.deprecated["LoadDB"].param_example
        state = executed(
            corpus,
            mutated_registry,
            "coffee-easy-1",
            [
                'Thought: load\nAction: LoadDB\nAction Input: {"DBName": "coffee"}',
                f"Thought: retry\nAction: {successor}\nAction Input: "
                + json.dumps({k: ("coffee" if isinstance(v, str) else v) for k, v in example.items()}),
            ],
        )
        record = parse_action(ScriptedAdaptivePolicy(corpus).propose(state, 5)[0])
        assert record.action_name == "UpdateTool"
        desc = record.action_input["newtool_desc"]
        assert successor in desc
        assert "LoadDB" in desc
        assert "For example," in desc

    def test_finish_with_gold_answer_when_plan_done(self, corpus, base_registry):
        task = corpus.task("agenda-easy-1")
        plan = corpus.plans[task.id]
        actions = [
            f"Thought: {c.thought}\nAction: {c.tool}\nAction Input: {json.dumps(c.args)}"
            for c in plan.calls
        ]
        state = executed(corpus, base_registry, task.id, actions)
        record = parse_action(ScriptedAdaptivePolicy(corpus).propose(state, 1)[0])
        assert record.action_name == "Finish"
        assert record.action_input == {"answer": task.gold_answer}

    def test_unknown_task_is_explicit_error(self, corpus):
        state = StateRecord(
            task=corpus.task("coffee-easy-1"),
            tool_manual=tuple(corpus.manual),
        )
        state = StateRecord(
            task=state.task.__class__(
                id="mystery", description="?", gold_answer="1", dataset="coffee", difficulty="easy"
            ),
            tool_manual=tuple(corpus.manual),
        )
        with pytest.raises(UnknownTaskError):
            ScriptedAdaptivePolicy(corpus).next_step(state)

    def test_semi_adaptive_fumbles_then_recovers(self, corpus, base_registry):
        policy = ScriptedSemiAdaptivePolicy(corpus)
        state = state_for(corpus, "coffee-easy-1")
        record = parse_action(policy.propose(state, 1)[0])
        assert "WrongDBName" in record.action_input
        obs = invoke(base_registry, record.action_name, record.action_input)
        assert obs.kind == "invocation_error"
        result = run_greedy_episode(policy, corpus.task("coffee-easy-1"), base_registry, corpus.manual, corpus.demos)
        assert result.reward == 1
        kinds = [s.kind for s in result.state.steps]
        assert "invocation_error" in kinds


class TestClosedLoop:
    def test_adaptive_succeeds_everywhere(self, corpus, base_registry, mutated_registry, mutated_registry_alt):
        policy = ScriptedAdaptivePolicy(corpus)
        for registry in (base_registry, mutated_registry, mutated_registry_alt):
            for task in corpus.tasks:
                result = run_greedy_episode(policy, task, registry, corpus.manual, corpus.demos)
                assert result.reward == 1, (registry.generation, task.id)

    def test_adaptive_succeeds_on_exotic_plans(self, corpus, base_registry):
        plans = [
            MutationPlan(seed=5, kinds=frozenset({"name_special_char", "param_special_char"})),
            MutationPlan(seed=3, kinds=frozenset({"param_format"})),
            MutationPlan(seed=8, kinds=frozenset({"response_format"})),
            MutationPlan(seed=6, kinds=frozenset(
                {"name_text", "name_special_char", "param_text", "param_special_char", "param_format", "response_format"}
            ), special_char="."),
        ]
        policy = ScriptedAdaptivePolicy(corpus)
        for plan in plans:
            registry = mutate_registry(base_registry, plan)
            for task in corpus.tasks:
                result = run_greedy_episode(policy, task, registry, corpus.manual, corpus.demos)
                assert result.reward == 1, (plan.kinds, task.id)

    def test_rigid_splits_by_setting(self, corpus, base_registry, mutated_registry):
        policy = ScriptedRigidPolicy(corpus)
        for task in corpus.tasks:
            assert run_greedy_episode(policy, task, base_registry, corpus.manual, corpus.demos).reward == 1
            assert run_greedy_episode(policy, task, mutated_registry, corpus.manual, corpus.demos).reward == -1

    def test_scripted_determinism(self, corpus, mutated_registry):
        policy = ScriptedAdaptivePolicy(corpus)
        state = executed(
            corpus,
            mutated_registry,
            "agenda-hard-1",
            ['Thought: load\nAction: LoadDB\nAction Input: {"DBName": "agenda"}'],
        )
        assert policy.propose(state, 3) == policy.propose(state, 3)


class TestGuidanceParsing:
    def test_round_trip_with_update_desc(self):
        desc = update_tool_desc("Initialize_Database", "LoadDB", {"DatabaseName": "flights"})
        from tooldrift.policy import parse_update_desc

        old, new, example = parse_update_desc(desc)
        assert (old, new) == ("LoadDB", "Initialize_Database")
        assert example == {"DatabaseName": "flights"}

    def test_parse_deprecation_guidance(self):
        text = (
            "Error: LoadDB[DBName] is deprecated. Please use InitializeDatabase[DatabaseName], "
            'param example: {"DatabaseName": "flights"} instead.'
        )
        assert parse_deprecation_guidance(text) == (
            "LoadDB",
            "InitializeDatabase",
            {"DatabaseName": "flights"},
        )


class _CompletionHandler(BaseHTTPRequestHandler):
    fail_with = None
    seen = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        type(self).seen.append(payload)
        if type(self).fail_with is not None:
            self.send_response(type(self).fail_with)
            self.end_headers()
            return
        body = json.dumps(
            {"choices": [{"text": f"Thought: t{i}\nAction: Finish\nAction Input: {{\"answer\": \"5\"}}"}
                         for i in range(payload["n"])]}
        ).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture()
def completion_server():
    _CompletionHandler.fail_with = None
    _CompletionHandler.seen = []
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CompletionHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/complete", _CompletionHandler
    server.shutdown()
    thread.join(timeout=2)


class _FakeResponse:
    def __init__(self, reply):
        self.reply = reply

    def raise_for_status(self):
        pass

    def json(self):
        return self.reply


class _FakeSession:
    """Answers every POST with the same decoded JSON reply."""

    def __init__(self, reply):
        self.reply = reply
        self.posts = 0

    def post(self, url, json, timeout):
        self.posts += 1
        return _FakeResponse(self.reply)


BAD_REPLIES = {
    "text_not_a_string": {"choices": [{"text": 5}] * 5},
    "text_is_a_list": {"choices": [{"text": ["a"]}] * 5},
    "choice_not_an_object": {"choices": [7] * 5},
    "choices_not_a_list": {"choices": "Thought: t"},
    "reply_is_a_list": [1, 2],
}


class TestRemotePolicy:
    @pytest.mark.parametrize("shape", sorted(BAD_REPLIES))
    def test_reply_of_the_wrong_shape_is_a_policy_error(self, corpus, base_registry, shape, monkeypatch):
        monkeypatch.setattr(policy_module.time, "sleep", lambda seconds: None)
        session = _FakeSession(BAD_REPLIES[shape])
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint="http://localhost/complete"), session=session)
        with pytest.raises(PolicyError):
            policy.propose(state_for(corpus, "coffee-easy-1"), 5)
        assert session.posts == 1 + RemotePolicy.MAX_RETRIES
        tree = run_search(
            corpus.task("coffee-easy-1"), base_registry, policy, SearchConfig(max_simulations=3),
            corpus.manual, corpus.demos,
        )
        root = tree.node(tree.root_id)
        assert len(tree.nodes) == 1 and root.terminal and root.reward == -1
        assert root.failure.startswith("remote policy failed")

    def test_wire_format_and_arity(self, corpus, completion_server, caplog):
        url, handler = completion_server
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url, temperature=0.3))
        with caplog.at_level(logging.DEBUG, logger="tooldrift.policy"):
            texts = policy.propose(state_for(corpus, "coffee-easy-1"), 4)
        assert len(texts) == 4
        assert [r.levelno for r in caplog.records] == [logging.DEBUG]
        assert caplog.records[0].getMessage().startswith(f"POST {url} took ")
        request = handler.seen[-1]
        assert set(request) == {"prompt", "n", "temperature", "stop"}
        assert request["n"] == 4
        assert request["temperature"] == 0.3
        assert request["stop"] == ["Observation:"]
        assert "Question:" in request["prompt"]

    def test_transport_failure_raises_policy_error(self, corpus, completion_server, caplog):
        url, handler = completion_server
        handler.fail_with = 500
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url, request_timeout=2))
        with caplog.at_level(logging.WARNING, logger="tooldrift.policy"), pytest.raises(PolicyError):
            policy.propose(state_for(corpus, "coffee-easy-1"), 2)
        assert len(handler.seen) == 1 + RemotePolicy.MAX_RETRIES == 3  # first try plus the retries
        retries = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
        assert len(retries) == RemotePolicy.MAX_RETRIES
        assert all(f"attempt {n} failed" in m and "500" in m for n, m in enumerate(retries, 1))

    def test_config_requires_endpoint_for_remote(self):
        with pytest.raises(ValueError):
            PolicyConfig(kind="remote")
        with pytest.raises(ValueError):
            PolicyConfig(kind="scripted_adaptive", endpoint="http://x")
        with pytest.raises(ValueError):
            PolicyConfig(kind="nonsense")

    def test_build_policy_dispatch(self, corpus):
        assert isinstance(build_policy(PolicyConfig(kind="scripted_rigid"), corpus), ScriptedRigidPolicy)
        assert isinstance(
            build_policy(PolicyConfig(kind="scripted_semi_adaptive"), corpus), ScriptedSemiAdaptivePolicy
        )
