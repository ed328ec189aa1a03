"""Loopback completion server for the remote_loopback benchmark workload.

It speaks the protocol of ``tooldrift.policy.RemotePolicy``: a POST with
``{"prompt", "n", "temperature", "stop"}`` is answered with
``{"choices": [{"text": ...}, ...]}``. The choices are a pure function of the
prompt. The server rebuilds the search state from the prompt text and returns
k distinct REACT steps: the adaptive agent's step, two paraphrases of it, the
rigid agent's step and one malformed step that has no Action Input line.

Each reply leaves in one write on a TCP_NODELAY socket, and every connection
gets its own thread, so concurrent searches never wait on delayed ACKs or on
each other.

Run with the package on the path; the server prints its port on the first
line of standard output and serves until standard input closes:

    PYTHONPATH=src python3 bench/stub_server.py
"""

from __future__ import annotations

import json
import re
import socket
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from tooldrift.corpus import Corpus, load_corpus
from tooldrift.policy import ScriptedAdaptivePolicy, ScriptedRigidPolicy
from tooldrift.react import StateRecord, parse_action

_STEP_SPLIT_RE = re.compile(r"\n\n(?=Thought: )")
_MANUAL_LINE_RE = re.compile(r"\[\d+\] (.*)")


class Oracle:
    """Maps a rendered prompt onto k candidate steps, deterministically."""

    def __init__(self, corpus: Corpus):
        self.tasks = {task.description: task for task in corpus.tasks}
        self.adaptive = ScriptedAdaptivePolicy(corpus)
        self.rigid = ScriptedRigidPolicy(corpus)

    def state_from_prompt(self, prompt: str) -> StateRecord:
        """Rebuild task, manual and steps from ``render_prompt`` output.

        The few-shot demos carry questions of their own, so the task is the
        one named by the last ``Question:`` line.
        """
        head, sep, tail = prompt.rpartition("\nQuestion: ")
        if not sep or "\nTools:\n" not in head:
            raise ValueError("prompt has no tool list or question")
        question, _, history = tail.partition("\n")
        task = self.tasks.get(question)
        if task is None:
            raise ValueError(f"unknown question {question!r}")
        manual = []
        for line in head.split("\nTools:\n", 1)[1].split("\n"):
            match = _MANUAL_LINE_RE.fullmatch(line)
            if match is None:
                break
            manual.append(match.group(1))
        steps = tuple(parse_action(block) for block in _STEP_SPLIT_RE.split(history) if block.strip())
        return StateRecord(task=task, tool_manual=tuple(manual), steps=steps)

    def choices(self, prompt: str, n: int) -> list[str]:
        state = self.state_from_prompt(prompt)
        adaptive = self.adaptive.next_step(state)
        rigid = self.rigid.next_step(state)

        def paraphrase(prefix: str) -> str:
            return adaptive.replace("Thought: ", f"Thought: {prefix}", 1)

        pool = [
            adaptive,
            paraphrase("On reflection, "),
            rigid if rigid != adaptive else paraphrase("To be sure, "),
            paraphrase("Step by step: "),
            adaptive.split("\nAction Input:", 1)[0],
        ]
        return [pool[i % len(pool)] for i in range(n)]


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server: "StubServer"

    def setup(self) -> None:
        super().setup()
        self.connection.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)

    def do_POST(self) -> None:
        length = int(self.headers.get("Content-Length", "0"))
        try:
            request = json.loads(self.rfile.read(length))
            texts = self.server.oracle.choices(request["prompt"], int(request["n"]))
            status, doc = "200 OK", {"choices": [{"text": text} for text in texts]}
        except (KeyError, TypeError, ValueError) as exc:
            status, doc = "400 Bad Request", {"error": str(exc)}
        body = json.dumps(doc, ensure_ascii=False).encode("utf-8")
        head = (
            f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + body)

    def log_message(self, format, *args) -> None:  # noqa: A002 - stdlib signature
        pass


class StubServer(ThreadingHTTPServer):
    daemon_threads = True

    def __init__(self, oracle: Oracle, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.oracle = oracle


def main() -> int:
    server = StubServer(Oracle(load_corpus()))
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    print(server.server_address[1], flush=True)
    try:
        sys.stdin.read()
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    return 0


if __name__ == "__main__":
    sys.exit(main())
