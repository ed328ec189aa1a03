from __future__ import annotations

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

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


class _CompletionHandler(BaseHTTPRequestHandler):
    """Answers each POST with ``fail_with`` as its status, else the canned
    ``reply`` body, else n Finish candidates. It records each request, the
    client port it came from and its Host header. HTTP/1.0 closes every
    connection after one reply; set ``protocol_version`` to "HTTP/1.1" to keep
    them open, and ``drop_after_reply`` to close them anyway without saying so.
    ``extra_headers`` go out after Content-Type. ``framing`` sets how the body
    ends: "length" (a Content-Length), "chunked" (two chunks), "eof" (no
    length; the connection closes after it), "cut_short" (a Content-Length
    one byte longer than the body, then the connection closes) or "terabyte"
    (the same with a Content-Length of 10**12)."""

    fail_with = None
    reply = None
    drop_after_reply = False
    extra_headers = ()
    framing = "length"
    seen = []
    ports = []
    hosts = []

    def do_POST(self):
        handler = type(self)
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        handler.seen.append(payload)
        handler.ports.append(self.client_address[1])
        handler.hosts.append(self.headers["Host"])
        status, body = 200, handler.reply
        if handler.fail_with is not None:
            status, body = handler.fail_with, ""
        elif body is None:
            body = json.dumps(
                {"choices": [{"text": f"Thought: t{i}\nAction: Finish\nAction Input: {{\"answer\": \"5\"}}"}
                             for i in range(payload["n"])]}
            )
        body = body.encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        for name, value in handler.extra_headers:
            self.send_header(name, value)
        if handler.framing == "chunked":
            self.send_header("Transfer-Encoding", "chunked")
            self.end_headers()
            half = len(body) // 2
            for chunk in (body[:half], body[half:], b""):
                self.wfile.write(b"%x\r\n%s\r\n" % (len(chunk), chunk))
        elif handler.framing == "eof":
            self.end_headers()
            self.wfile.write(body)
            self.close_connection = True
        else:
            claimed = {"cut_short": len(body) + 1, "terabyte": 10**12}.get(handler.framing, len(body))
            self.send_header("Content-Length", str(claimed))
            self.end_headers()
            self.wfile.write(body)
        if handler.drop_after_reply or handler.framing in ("cut_short", "terabyte"):
            self.close_connection = True

    def log_message(self, *args):
        pass


class _CompletionServer(ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        """A client that stops reading a reply it rejects, one header line too
        long for instance, breaks the handler's write; that is no error here."""
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


@pytest.fixture()
def completion_server():
    """The URL of a local completion server, and its handler class to steer it."""
    _CompletionHandler.protocol_version = "HTTP/1.0"
    _CompletionHandler.fail_with = None
    _CompletionHandler.reply = None
    _CompletionHandler.drop_after_reply = False
    _CompletionHandler.extra_headers = ()
    _CompletionHandler.framing = "length"
    _CompletionHandler.seen = []
    _CompletionHandler.ports = []
    _CompletionHandler.hosts = []
    server = _CompletionServer(("127.0.0.1", 0), _CompletionHandler)
    # A short poll, so that shutdown() at teardown waits 50 ms rather than 500.
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_address[1]}/complete", _CompletionHandler
    server.shutdown()
    server.server_close()
    thread.join(timeout=2)
    assert not thread.is_alive()
