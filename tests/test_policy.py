from __future__ import annotations

import json
import logging
import shutil
import ssl
import subprocess
import sys
import threading
from http.server import ThreadingHTTPServer

import pytest

from tooldrift import policy as policy_module
from tooldrift.adapt import UPDATE_TOOL_OK_TEXT
from tooldrift.env import DEPRECATION_ERROR_TEMPLATE, INVOCATION_ERROR_TEXT, invoke
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
    read_path,
    update_tool_desc,
)
from tooldrift.react import ActionRecord, StateRecord, parse_action


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
        example = mutated_registry.apis[successor].example_args()
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

    @pytest.mark.parametrize("kind", ["scripted_adaptive", "scripted_rigid"])
    def test_planned_steps_are_rendered_once(self, corpus, base_registry, kind):
        """An unchanged planned call and the Finish step are the plan's stored
        texts, rendered once rather than on every propose."""
        policy = build_policy(PolicyConfig(kind=kind), corpus)
        plan = corpus.plans["agenda-easy-1"]
        done = executed(corpus, base_registry, "agenda-easy-1", [call.text for call in plan.calls])
        for _ in range(2):
            assert policy.propose(state_for(corpus, "agenda-easy-1"), 2) == [plan.calls[0].text] * 2
            assert policy.propose(state_for(corpus, "agenda-easy-1"), 1)[0] is plan.calls[0].text
            assert policy.propose(done, 1)[0] is plan.finish_text
        assert parse_action(plan.finish_text).action_input == {"answer": plan.answer}

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

    def test_semi_adaptive_fumbles_then_recovers(self, corpus, base_registry, greedy_episode):
        policy = ScriptedSemiAdaptivePolicy(corpus)
        state = state_for(corpus, "coffee-easy-1")
        record = parse_action(policy.propose(state, 1)[0])
        assert "WrongDBName" in record.action_input
        obs = invoke(base_registry, record.action_name, record.action_input)
        assert obs.kind == "invocation_error"
        reward, final = greedy_episode(policy, corpus.task("coffee-easy-1"), base_registry, corpus.manual, corpus.demos)
        assert reward == 1
        kinds = [s.kind for s in final.steps]
        assert "invocation_error" in kinds


class TestClosedLoop:
    def test_adaptive_succeeds_everywhere(
        self, corpus, base_registry, mutated_registry, mutated_registry_alt, greedy_episode
    ):
        policy = ScriptedAdaptivePolicy(corpus)
        for registry in (base_registry, mutated_registry, mutated_registry_alt):
            for task in corpus.tasks:
                reward, _ = greedy_episode(policy, task, registry, corpus.manual, corpus.demos)
                assert reward == 1, (registry.generation, task.id)

    def test_adaptive_succeeds_on_exotic_plans(self, corpus, base_registry, greedy_episode):
        plans = [
            MutationPlan(seed=5, kinds=frozenset({"name_special_char", "param_special_char"})),
            MutationPlan(seed=3, kinds=frozenset({"param_format"})),
            MutationPlan(seed=6, kinds=frozenset(
                {"name_text", "name_special_char", "param_text", "param_special_char", "param_format"}
            ), special_char="."),
        ]
        policy = ScriptedAdaptivePolicy(corpus)
        for plan in plans:
            registry = mutate_registry(base_registry, plan)
            for task in corpus.tasks:
                reward, _ = greedy_episode(policy, task, registry, corpus.manual, corpus.demos)
                assert reward == 1, (plan.kinds, task.id)

    def test_rigid_splits_by_setting(self, corpus, base_registry, mutated_registry, greedy_episode):
        policy = ScriptedRigidPolicy(corpus)
        for task in corpus.tasks:
            assert greedy_episode(policy, task, base_registry, corpus.manual, corpus.demos)[0] == 1
            assert greedy_episode(policy, task, mutated_registry, corpus.manual, corpus.demos)[0] == -1

    def test_scripted_determinism(self, corpus, mutated_registry):
        policy = ScriptedAdaptivePolicy(corpus)
        state = executed(
            corpus,
            mutated_registry,
            "agenda-hard-1",
            ['Thought: load\nAction: LoadDB\nAction Input: {"DBName": "agenda"}'],
        )
        assert policy.propose(state, 3) == policy.propose(state, 3)


def deprecation_text(old, new, example):
    return DEPRECATION_ERROR_TEMPLATE.format(
        old=old, old_params="DBName", new=new, new_params=", ".join(example), example=json.dumps(example)
    )


def step(action_name, observation, kind=None):
    return ActionRecord(thought="t", action_name=action_name, action_input={}, observation=observation, kind=kind)


class TestReadPath:
    """``read_path``: the planned calls done and the successors, in one pass."""

    def test_updates_and_errors_are_not_done(self, corpus):
        guidance = deprecation_text("LoadDB", "InitializeDatabase", {"DatabaseName": "coffee"})
        steps = [
            step("LoadDB", guidance, "deprecation_error"),
            step("InitializeDatabase", INVOCATION_ERROR_TEXT, "invocation_error"),
            step("InitializeDatabase", "We have successfully loaded the coffee database.", "response"),
            step("UpdateTool", UPDATE_TOOL_OK_TEXT, "response"),
            step("FilterDB", "We have filtered."),
        ]
        done, successors = read_path(state_for(corpus, "coffee-easy-1", steps))
        assert done == 2
        assert successors == {"LoadDB": ("InitializeDatabase", {"DatabaseName": "coffee"})}

    def test_later_guidance_wins(self, corpus):
        steps = [
            step("LoadDB", deprecation_text("LoadDB", "InitializeDatabase", {"DatabaseName": "coffee"})),
            step("LoadDB", deprecation_text("LoadDB", "Open_DB", {"Label": "coffee"})),
        ]
        assert read_path(state_for(corpus, "coffee-easy-1", steps)) == (0, {"LoadDB": ("Open_DB", {"Label": "coffee"})})

    def test_a_response_that_contains_guidance_is_done(self, corpus):
        """Guidance is the whole observation text, so a response that merely
        quotes a deprecation message is a planned call done."""
        quoted = "Row 1: " + deprecation_text("LoadDB", "InitializeDatabase", {"DatabaseName": "coffee"})
        assert read_path(state_for(corpus, "coffee-easy-1", [step("GetValue", quoted)])) == (1, {})

    def test_the_manual_teaches_no_successor(self, corpus):
        """An update in the manual, with no deprecation error on the path, does
        not change the call: the agent proposes the plan's own LoadDB step."""
        registry = mutate_registry(corpus.base_registry, MutationPlan(seed=7))
        successor = registry.deprecated["LoadDB"].successor
        manual = (*corpus.manual, update_tool_desc(successor, "LoadDB", registry.apis[successor].example_args()))
        state = StateRecord(task=corpus.task("coffee-easy-1"), tool_manual=manual)
        assert ScriptedAdaptivePolicy(corpus).propose(state, 1) == [corpus.plans["coffee-easy-1"].calls[0].text]


class TestGuidanceParsing:
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


BAD_REPLIES = {
    "text_not_a_string": json.dumps({"choices": [{"text": 5}] * 5}),
    "text_is_a_list": json.dumps({"choices": [{"text": ["a"]}] * 5}),
    "choice_not_an_object": json.dumps({"choices": [7] * 5}),
    "choices_not_a_list": json.dumps({"choices": "Thought: t"}),
    "reply_is_a_list": json.dumps([1, 2]),
    "too_few_choices": json.dumps({"choices": [{"text": "Thought: t"}] * 4}),
    "nested_too_deep": '{"choices": ' + "[" * 100_000,
}


class TestRemotePolicy:
    @pytest.mark.parametrize("shape", sorted(BAD_REPLIES))
    def test_reply_of_the_wrong_shape_is_a_policy_error(
        self, corpus, base_registry, completion_server, shape, monkeypatch
    ):
        monkeypatch.setattr(policy_module.time, "sleep", lambda seconds: None)
        url, handler = completion_server
        handler.reply = BAD_REPLIES[shape]
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url))
        with pytest.raises(PolicyError):
            policy.propose(state_for(corpus, "coffee-easy-1"), 5)
        assert len(handler.seen) == 1 + RemotePolicy.MAX_RETRIES
        tree = run_search(
            corpus.task("coffee-easy-1"), base_registry, policy, SearchConfig(max_simulations=3),
            corpus.manual, corpus.demos,
        )
        assert len(tree.parent) == 1 and tree.reward[tree.root_id] == -1
        assert tree.failure[tree.root_id].startswith("remote policy failed")

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

    @pytest.mark.parametrize("protocol, connections", [("HTTP/1.1", 1), ("HTTP/1.0", 5)])
    def test_each_thread_keeps_its_connection_while_the_server_does(
        self, corpus, completion_server, caplog, protocol, connections
    ):
        """An HTTP/1.1 server keeps the connection open, so five POSTs share
        it; an HTTP/1.0 one closes it after each reply, and the next POST opens
        a new one without a retry."""
        url, handler = completion_server
        handler.protocol_version = protocol
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url))
        with caplog.at_level(logging.WARNING, logger="tooldrift.policy"):
            for _ in range(5):
                assert len(policy.propose(state_for(corpus, "coffee-easy-1"), 2)) == 2
        policy.close()
        assert not caplog.records
        assert len(handler.ports) == 5 and len(set(handler.ports)) == connections

    def test_threads_sharing_a_policy_each_keep_one_connection(self, corpus, completion_server):
        """Six threads, more than the cores, POST ten times each through one
        policy while the interpreter switches threads often: every POST
        succeeds, each thread opens one connection, and close() ends them all."""
        url, handler = completion_server
        handler.protocol_version = "HTTP/1.1"
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url))
        state = state_for(corpus, "coffee-easy-1")
        barrier = threading.Barrier(6)
        counts = []

        def work():
            barrier.wait(timeout=30)
            counts.append(sum(len(policy.propose(state, 2)) for _ in range(10)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert counts == [20] * 6
        assert len(handler.ports) == 60 and len(set(handler.ports)) == 6
        policy.close()
        assert not policy._connections

    def test_a_connection_the_server_dropped_is_reopened_by_the_retry(
        self, corpus, completion_server, caplog, monkeypatch
    ):
        """The HTTP/1.1 server closes each connection after its reply without
        saying so, as one does when a keep-alive connection idles too long."""
        monkeypatch.setattr(policy_module.time, "sleep", lambda seconds: None)
        url, handler = completion_server
        handler.protocol_version = "HTTP/1.1"
        handler.drop_after_reply = True
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url))
        state = state_for(corpus, "coffee-easy-1")
        assert len(policy.propose(state, 2)) == 2
        with caplog.at_level(logging.WARNING, logger="tooldrift.policy"):
            assert len(policy.propose(state, 2)) == 2
        policy.close()
        assert len(caplog.records) == 1 and "attempt 1 failed" in caplog.records[0].getMessage()
        assert len(handler.ports) == 2 and len(set(handler.ports)) == 2

    @pytest.mark.parametrize(
        "protocol, framing, extra_headers, connections",
        [
            ("HTTP/1.1", "length", 0, 1),
            ("HTTP/1.1", "chunked", 0, 1),
            ("HTTP/1.0", "eof", 0, 3),
            ("HTTP/1.1", "length", 96, 1),
        ],
        ids=["content_length", "chunked", "http_1_0_to_eof", "100_headers"],
    )
    def test_every_framing_gives_the_same_texts(
        self, corpus, completion_server, caplog, protocol, framing, extra_headers, connections
    ):
        """A reply framed by its length, by chunks or by the end of an
        HTTP/1.0 connection reads the same; a chunked reply keeps the
        connection open, and 100 header lines (Server, Date, Content-Type,
        Content-Length and 96 more) are within the limit."""
        url, handler = completion_server
        handler.protocol_version = protocol
        handler.framing = framing
        handler.extra_headers = [(f"X-Extra-{i}", "v") for i in range(extra_headers)]
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url))
        expected = [f'Thought: t{i}\nAction: Finish\nAction Input: {{"answer": "5"}}' for i in range(3)]
        with caplog.at_level(logging.WARNING, logger="tooldrift.policy"):
            for _ in range(3):
                assert policy.propose(state_for(corpus, "coffee-easy-1"), 3) == expected
        policy.close()
        assert not caplog.records
        assert len(set(handler.ports)) == connections

    @pytest.mark.parametrize(
        "protocol, framing, extra_headers, fail_with",
        [
            ("HTTP/1.0", "length", [(f"X-Extra-{i}", "v") for i in range(97)], None),
            ("HTTP/1.1", "length", [("X-Long", "a" * 65_536)], None),
            ("HTTP/1.1", "length", [], 503),
            ("HTTP/1.1", "cut_short", [], None),
            ("HTTP/1.1", "terabyte", [], None),
            ("HTTP/1.1", "chunked", [], 404),
        ],
        ids=["101_headers", "header_line_over_64_kib", "status_503", "body_cut_short", "terabyte_content_length",
             "chunked_404"],
    )
    def test_a_malformed_or_failed_reply_is_retried_then_a_policy_error(
        self, corpus, completion_server, caplog, monkeypatch, protocol, framing, extra_headers, fail_with
    ):
        monkeypatch.setattr(policy_module.time, "sleep", lambda seconds: None)
        url, handler = completion_server
        handler.protocol_version = protocol
        handler.framing = framing
        handler.extra_headers = extra_headers
        handler.fail_with = fail_with
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=url, request_timeout=5))
        with caplog.at_level(logging.WARNING, logger="tooldrift.policy"), pytest.raises(PolicyError):
            policy.propose(state_for(corpus, "coffee-easy-1"), 2)
        policy.close()
        assert len(handler.seen) == 1 + RemotePolicy.MAX_RETRIES
        assert len([r for r in caplog.records if r.levelno == logging.WARNING]) == RemotePolicy.MAX_RETRIES
        if fail_with is not None:
            assert f"{fail_with} " in caplog.records[0].getMessage()

    def test_an_https_endpoint_is_served_once_its_certificate_is_trusted(
        self, corpus, completion_server, tmp_path, monkeypatch
    ):
        if shutil.which("openssl") is None:
            pytest.skip("no openssl to make a certificate with")
        cert, key = tmp_path / "cert.pem", tmp_path / "key.pem"
        subprocess.run(
            ["openssl", "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1", "-nodes",
             "-days", "1", "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1",
             "-keyout", str(key), "-out", str(cert)],
            check=True, capture_output=True, timeout=60,
        )
        monkeypatch.setattr(policy_module.time, "sleep", lambda seconds: None)
        _, handler = completion_server
        handler.protocol_version = "HTTP/1.1"
        server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(cert, key)
        server.socket = context.wrap_socket(server.socket, server_side=True)
        thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
        thread.start()
        try:
            endpoint = f"https://127.0.0.1:{server.server_address[1]}/complete"
            state = state_for(corpus, "coffee-easy-1")
            with pytest.raises(PolicyError, match="CERTIFICATE_VERIFY_FAILED"):
                RemotePolicy(PolicyConfig(kind="remote", endpoint=endpoint)).propose(state, 2)
            policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=endpoint))
            policy._tls_context.load_verify_locations(cert)
            for _ in range(2):
                assert len(policy.propose(state, 2)) == 2
            policy.close()
        finally:
            server.shutdown()
            server.server_close()
            thread.join(timeout=2)
        assert not thread.is_alive()
        assert len(handler.seen) == 2 and len(set(handler.ports)) == 1

    def test_the_host_header_carries_no_credentials(self, corpus, completion_server):
        url, handler = completion_server
        port = url.split(":")[2].split("/")[0]
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=f"http://u:p@127.0.0.1:{port}/x"))
        assert len(policy.propose(state_for(corpus, "coffee-easy-1"), 1)) == 1
        policy.close()
        assert handler.hosts == [f"127.0.0.1:{port}"]

    @pytest.mark.parametrize(
        "endpoint, scheme, host, port, path",
        [
            ("http://127.0.0.1:8080/complete", "http", "127.0.0.1", 8080, "/complete"),
            ("http://[::1]/complete", "http", "::1", 80, "/complete"),
            ("https://Example.org/v1/complete?model=m", "https", "example.org", 443, "/v1/complete?model=m"),
            ("http://localhost", "http", "localhost", 80, "/"),
        ],
    )
    def test_endpoint_sets_the_connection_and_the_path(self, endpoint, scheme, host, port, path):
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=endpoint))
        assert (policy._tls_context is not None, policy._address) == (scheme == "https", (host, port))
        assert policy._head.startswith(f"POST {path} HTTP/1.1\r\n".encode())

    @pytest.mark.parametrize(
        "endpoint, host_header",
        [
            ("http://127.0.0.1:8080/complete", "127.0.0.1:8080"),
            ("http://[::1]/complete", "[::1]"),
            ("http://[::1]:8080/complete", "[::1]:8080"),
            ("https://Example.org:443/v1", "example.org"),
            ("http://localhost:80", "localhost"),
            ("http://u:p@localhost:81/", "localhost:81"),
        ],
    )
    def test_host_header_names_the_host_and_a_port_that_is_not_the_default(self, endpoint, host_header):
        policy = RemotePolicy(PolicyConfig(kind="remote", endpoint=endpoint))
        assert f"\r\nHost: {host_header}\r\n".encode() in policy._head

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

