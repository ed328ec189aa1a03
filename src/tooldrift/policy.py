"""Action proposers: deterministic scripted agents and a remote chat endpoint.

A policy only proposes: given a state and k, it returns k candidate texts.
Parsing and executing them, and the episode loop, belong to ``mcts.run_search``;
greedy (ReAct-style) decoding is that search with k = 1 and one simulation,
which follows each node's single candidate to a terminal or the depth limit.

Scripted policies are table-driven stand-ins for an LLM. The adaptive one
follows each task's reference tool plan, reads deprecation guidance out of
observations, retries through successor APIs, and records what it learned
with UpdateTool; the rigid one replays the base plan no matter what the
environment says. Both read their path once (``read_path``) and learn the
drift only from the deprecation errors on it: they never read their UpdateTool
text back, and look in the manual only so as not to record an update twice.
Both are pure functions of the rendered state, which makes them usable as
oracles in tests; ``pure = True`` says so, and search asks them once per
distinct path. ``RemotePolicy`` is not marked: an LLM samples.

Framework decisions (the reflection gate, ``inspect``) read the typed
``Observation.kind`` on each step. The scripted agents, like an LLM, see only
the prompt text: they recognise errors solely by the environment's exact
templates (``parse_deprecation_guidance`` matches the whole deprecation
message; an invocation error equals ``INVOCATION_ERROR_TEXT``). Steps parsed
back from a rendered prompt carry no kind, and a completion server that
rebuilds the state that way still gets the same answers.

The remote policy retries a failed request a fixed ``RemotePolicy.MAX_RETRIES``
times. It has no request limit of its own: ``search --jobs`` shares one policy
across its worker threads, so the number of jobs bounds the requests in flight.
Only ``RemotePolicy`` loads ``socket``, ``ssl`` (for an https endpoint) and
``logging`` (its retries and latency go to the ``tooldrift.policy`` logger), so
scripted runs import none of them. It does its one HTTP/1.1 exchange over a
plain socket, which costs less CPU than ``http.client``: that parses every
reply's headers with the ``email`` package.
"""

from __future__ import annotations

import functools
import json
import math
import re
import threading
import time
from dataclasses import dataclass
from urllib.parse import urlsplit

from .corpus import Corpus, PlannedCall, load_corpus, remap_args
from .env import INVOCATION_ERROR_TEXT
from .react import ActionRecord, PolicyError, StateRecord, render_action_input, render_prompt, render_step

POLICY_KINDS = ("scripted_adaptive", "scripted_rigid", "scripted_semi_adaptive", "remote")

_DEPRECATION_MSG_RE = re.compile(
    r"Error: ([A-Za-z0-9_.\-]+)\[.*?\] is deprecated\. "
    r"Please use ([A-Za-z0-9_.\-]+)\[.*?\], param example: (\{.*\}) instead\.",
    re.DOTALL,
)


# An endpoint goes into the request line and the Host header as written, so it
# must be printable ASCII without spaces; an internationalised host is written
# in its IDNA form.
_REQUEST_TARGET_RE = re.compile(r"[!-~]+")


class UnknownTaskError(PolicyError):
    """A scripted policy was asked about a task outside its corpus."""


@dataclass(frozen=True)
class PolicyConfig:
    """How to build a policy; a non-empty endpoint, an http or https URL with
    a host and no space or non-ASCII character, is required exactly for the
    remote kind."""

    kind: str = "scripted_adaptive"
    endpoint: str | None = None
    temperature: float = 0.7
    request_timeout: float = 10.0
    emit_tool_updates: bool = True

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ValueError(f"unknown policy kind {self.kind!r}")
        if (self.kind == "remote") != bool(self.endpoint):
            raise ValueError("endpoint is required exactly when kind is remote")
        if self.endpoint:
            try:
                url = urlsplit(self.endpoint)
                valid = (
                    url.scheme in ("http", "https") and bool(url.hostname) and url.port != 0
                    and _REQUEST_TARGET_RE.fullmatch(self.endpoint) is not None
                )
            except ValueError:  # an unbalanced IPv6 bracket, or a port that is not a number in range
                valid = False
            if not valid:
                raise ValueError(f"endpoint {self.endpoint!r} is not an http or https URL with a host")
        if not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ValueError("temperature must be a finite number >= 0")
        if not (math.isfinite(self.request_timeout) and self.request_timeout > 0):
            raise ValueError("request_timeout must be a finite positive number")


def candidate_text(thought: str, action_name: str, action_input: dict) -> str:
    return render_step(ActionRecord(thought=thought, action_name=action_name, action_input=action_input))


def update_tool_desc(successor: str, old_name: str, example: dict) -> str:
    """The description an agent appends after mastering a successor API."""
    signature = f"{successor}[{', '.join(example)}]"
    return (
        f"{signature}, which is an updated version of {old_name}. "
        f"For example, {render_action_input(example)}."
    )


@functools.lru_cache(maxsize=1024)
def parse_deprecation_guidance(text: str | None) -> tuple[str, str, dict] | None:
    """(old name, successor name, param example) if the text is exactly a
    deprecation message, else None. Results are cached, so the example dict
    is shared and must not be mutated."""
    match = _DEPRECATION_MSG_RE.fullmatch(text or "")
    if match is None:
        return None
    old, new, example_json = match.groups()
    try:
        example = json.loads(example_json)
    except json.JSONDecodeError:
        return None
    return old, new, example


def read_path(state: StateRecord) -> tuple[int, dict[str, tuple[str, dict]]]:
    """One pass over the steps: the number of planned calls done (steps that
    are neither an UpdateTool nor answered by an error message), and each old
    name -> (successor, example) from the deprecation errors, later guidance
    winning."""
    done, successors = 0, {}
    for step in state.steps:
        guidance = parse_deprecation_guidance(step.observation)
        if guidance is not None:
            old, new, example = guidance
            successors[old] = (new, example)
        elif step.action_name != "UpdateTool" and step.observation != INVOCATION_ERROR_TEXT:
            done += 1
    return done, successors


class ScriptedPolicy:
    """Shared plumbing for the table-driven policies. A corpus task without a
    plan raises UnknownTaskError when the policy is built."""

    pure = True

    def __init__(self, corpus: Corpus | None = None):
        self.corpus = corpus if corpus is not None else load_corpus()
        unplanned = [task.id for task in self.corpus.tasks if task.id not in self.corpus.plans]
        if unplanned:
            raise UnknownTaskError(f"no plan for task {unplanned[0]!r}")

    def propose(self, state: StateRecord, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        return [self.next_step(state)] * k

    def _plan(self, state: StateRecord):
        plan = self.corpus.plans.get(state.task.id)
        if plan is None:
            raise UnknownTaskError(f"no plan for task {state.task.id!r}")
        return plan

    def _base_param_order(self, tool: str) -> list[str]:
        return self.corpus.base_registry.apis[tool].param_names()

    def next_step(self, state: StateRecord) -> str:  # pragma: no cover - abstract
        raise NotImplementedError


class ScriptedRigidPolicy(ScriptedPolicy):
    """Replays the base tool plan verbatim: deprecation feedback is ignored
    and the same outdated invocation is repeated after any error."""

    def next_step(self, state: StateRecord) -> str:
        plan = self._plan(state)
        done, _ = read_path(state)
        if done >= len(plan.calls):
            return plan.finish_text
        return plan.calls[done].text


class ScriptedAdaptivePolicy(ScriptedPolicy):
    """Follows the plan but adapts to feedback: retries deprecated calls via
    the advertised successor, repairs malformed invocations, and appends an
    UpdateTool summary after the first successful use of a new API."""

    def __init__(self, corpus: Corpus | None = None, emit_tool_updates: bool = True):
        super().__init__(corpus)
        self.emit_tool_updates = emit_tool_updates

    def _translated_call(self, call: PlannedCall, successors: dict[str, tuple[str, dict]]):
        mapped = successors.get(call.tool)
        if mapped is None:
            return call.tool, call.args, call.thought
        new_name, example = mapped
        args = remap_args(call.args, self._base_param_order(call.tool), example)
        thought = f"{call.thought} The manual says {call.tool} was replaced by {new_name}, so I will use that."
        return new_name, args, thought

    def _pending_update(self, state: StateRecord, successors: dict[str, tuple[str, dict]]) -> str | None:
        if not self.emit_tool_updates or not state.steps:
            return None
        last = state.steps[-1]
        if last.action_name == "UpdateTool" or last.observation == INVOCATION_ERROR_TEXT:
            return None
        if parse_deprecation_guidance(last.observation) is not None:
            return None
        for old, (new, example) in successors.items():
            if last.action_name != new:
                continue
            desc = update_tool_desc(new, old, example)
            if desc not in state.tool_manual:
                thought = (
                    f"The {new} API works as intended. Before moving on, let me update "
                    f"the tool description for the new API."
                )
                return candidate_text(thought, "UpdateTool", {"newtool_desc": desc})
        return None

    def next_step(self, state: StateRecord) -> str:
        plan = self._plan(state)
        done, successors = read_path(state)
        last = state.steps[-1].observation if state.steps else None
        guidance = parse_deprecation_guidance(last)

        if guidance is not None and done < len(plan.calls):
            old, new, example = guidance
            call = plan.calls[done]
            args = remap_args(call.args, self._base_param_order(call.tool), example)
            thought = (
                f"The {old} tool has been deprecated. I should use {new} "
                f"with its new parameters instead."
            )
            return candidate_text(thought, new, args)

        if last == INVOCATION_ERROR_TEXT and done < len(plan.calls):
            name, args, _ = self._translated_call(plan.calls[done], successors)
            thought = (
                "The previous invocation was malformed. Let me correct the action "
                "input and try again."
            )
            return candidate_text(thought, name, args)

        update = self._pending_update(state, successors)
        if update is not None:
            return update

        if done >= len(plan.calls):
            return plan.finish_text
        call = plan.calls[done]
        if call.tool not in successors:
            return call.text
        name, args, thought = self._translated_call(call, successors)
        return candidate_text(thought, name, args)


class ScriptedSemiAdaptivePolicy(ScriptedAdaptivePolicy):
    """Adaptive, but always fumbles its first invocation with a bad parameter
    name, so every task needs one invocation-error recovery."""

    def next_step(self, state: StateRecord) -> str:
        if not state.steps:
            plan = self._plan(state)
            call = plan.calls[0]
            first, *rest = call.args
            broken = {f"Wrong{first}": call.args[first], **{k: call.args[k] for k in rest}}
            return candidate_text(call.thought, call.tool, broken)
        return super().next_step(state)


class RemotePolicy:
    """Minimal HTTP+JSON completion client.

    Request: {"prompt": text, "n": int, "temperature": float, "stop": [text]}.
    Response: {"choices": [{"text": ...}, ...]} with exactly n choices. The
    stop sequence is the Observation label so the model never invents
    environment feedback. Each thread POSTs over its own keep-alive socket,
    opened on first use and again after a reply that closes it or a transport
    error. A reply body is framed by its Content-Length, by chunked transfer
    coding, or else by the end of the connection; a status or header line
    longer than 65,536 bytes, or more than 100 header lines, is a malformed
    reply. Proxy variables, ``.netrc``, redirects and the credentials in the
    URL are not honoured. A failed POST, a malformed reply, a status that is
    not 2xx, or a reply that does not decode (one nested past the recursion
    limit included) or has another shape, is retried MAX_RETRIES times and
    then raises PolicyError.
    """

    STOP_SEQUENCES = ["Observation:"]
    MAX_RETRIES = 2

    def __init__(self, config: PolicyConfig):
        import logging
        if config.kind != "remote":
            raise ValueError("RemotePolicy requires a remote PolicyConfig")
        self.config = config
        url = urlsplit(config.endpoint)
        default_port = 443 if url.scheme == "https" else 80
        self._address = (url.hostname, url.port or default_port)
        path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        # The Host header: an IPv6 host in brackets, a port only if not the default.
        host = f"[{url.hostname}]" if ":" in url.hostname else url.hostname
        if url.port not in (None, default_port):
            host += f":{url.port}"
        self._head = (
            f"POST {path} HTTP/1.1\r\nHost: {host}\r\n"
            "Content-Type: application/json\r\nContent-Length: "
        ).encode("ascii")
        self._tls_context = None
        if url.scheme == "https":
            import ssl
            self._tls_context = ssl.create_default_context()
        self._local = threading.local()
        self._connections = set()  # every thread's open (socket, reader), for close()
        self._log = logging.getLogger(__name__)

    def _open(self) -> tuple:
        import socket
        sock = socket.create_connection(self._address, timeout=self.config.request_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls_context is not None:
                sock = self._tls_context.wrap_socket(sock, server_hostname=self._address[0])
        except BaseException:
            sock.close()
            raise
        conn = (sock, sock.makefile("rb"))
        self._connections.add(conn)
        return conn

    def _discard(self, conn: tuple) -> None:
        self._connections.discard(conn)
        for end in conn:
            end.close()

    def _post(self, body: bytes) -> bytes:
        """POST ``body`` on this thread's connection and return the reply body.
        A transport error or a malformed reply closes the connection, so the
        next POST opens a fresh one."""
        conn = getattr(self._local, "conn", None)
        if conn not in self._connections:  # none yet, or closed
            conn = self._local.conn = self._open()
        try:
            conn[0].sendall(self._head + b"%d\r\n\r\n" % len(body) + body)
            status, reason, data, keep_open = _read_reply(conn[1])
        except (OSError, ValueError):
            self._discard(conn)
            raise
        if not keep_open:
            self._discard(conn)
        if not 200 <= status < 300:
            raise ValueError(f"{status} {reason} from {self.config.endpoint}")
        return data

    def close(self) -> None:
        """Close every thread's connection; a later POST opens a new one."""
        while self._connections:
            self._discard(self._connections.pop())

    def propose(self, state: StateRecord, k: int) -> list[str]:
        if k < 1:
            raise ValueError("k must be >= 1")
        payload = {
            "prompt": render_prompt(state),
            "n": k,
            "temperature": self.config.temperature,
            "stop": self.STOP_SEQUENCES,
        }
        body = json.dumps(payload).encode()
        last_error: Exception | None = None
        for attempt in range(self.MAX_RETRIES + 1):
            try:
                start = time.perf_counter()
                data = self._post(body)
                self._log.debug("POST %s took %.1f ms", self.config.endpoint, 1000 * (time.perf_counter() - start))
                reply = json.loads(data)
                choices = reply.get("choices", []) if isinstance(reply, dict) else None
                if not isinstance(choices, list) or not all(
                    isinstance(c, dict) and isinstance(c.get("text"), str) for c in choices
                ):
                    raise ValueError('endpoint reply is not {"choices": [{"text": <string>}, ...]}')
                texts = [c["text"] for c in choices]
                if len(texts) < k:
                    raise ValueError(f"endpoint returned {len(texts)} candidates, wanted {k}")
                return texts[:k]
            except (OSError, ValueError, RecursionError) as exc:
                last_error = exc
                if attempt < self.MAX_RETRIES:
                    self._log.warning("remote policy attempt %d failed, retrying: %s", attempt + 1, exc)
                    time.sleep(0.05 * (attempt + 1))
        raise PolicyError(f"remote policy failed after retries: {last_error}")


# http.client's limits on a reply: the longest status or header line, and the most header lines.
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _read_line(rfile) -> bytes:
    line = rfile.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError(f"reply line longer than {_MAX_LINE} bytes")
    if not line.endswith(b"\n"):
        raise ValueError("reply cut short")
    return line


def _read_exactly(rfile, size: int) -> bytes:
    """``size`` bytes, read at most a MiB at a time, so that a length the
    reply overstates ends in ValueError at the end of the stream and is never
    allocated up front."""
    parts = []
    while size > 0:
        part = rfile.read(min(size, 1 << 20))
        if not part:
            raise ValueError("reply cut short")
        parts.append(part)
        size -= len(part)
    return b"".join(parts)


def _read_headers(rfile) -> dict[bytes, bytes]:
    """Header lines up to the blank line that ends them, by lower-cased name."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _read_line(rfile)
        if line in (b"\r\n", b"\n"):
            return headers
        name, colon, value = line.partition(b":")
        if not colon:
            raise ValueError(f"malformed reply header {line[:80]!r}")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"reply has more than {_MAX_HEADERS} headers")


def _read_chunked(rfile) -> bytes:
    chunks = []
    while True:
        size = int(_read_line(rfile).split(b";", 1)[0], 16)
        if size == 0:
            _read_headers(rfile)  # the trailer
            return b"".join(chunks)
        if size < 0:
            raise ValueError("malformed chunked reply")
        chunks.append(_read_exactly(rfile, size))
        if _read_line(rfile) not in (b"\r\n", b"\n"):
            raise ValueError("malformed chunked reply")


def _read_reply(rfile) -> tuple[int, str, bytes, bool]:
    """One HTTP/1.x reply to a POST: its status, reason and body, and whether
    the connection stays open after it. A malformed or cut-short reply, or a
    1xx status, raises ValueError."""
    line = _read_line(rfile)
    version, _, rest = line.rstrip(b"\r\n").partition(b" ")
    code, _, reason = rest.partition(b" ")
    if not (version.startswith(b"HTTP/1.") and len(code) == 3 and code.isdigit()):
        raise ValueError(f"malformed status line {line[:80]!r}")
    status = int(code)
    if status < 200:
        raise ValueError(f"unexpected status {status}")
    headers = _read_headers(rfile)
    connection = headers.get(b"connection", b"").lower()
    keep_open = b"keep-alive" in connection if version == b"HTTP/1.0" else b"close" not in connection
    length = headers.get(b"content-length")
    if status in (204, 304):
        body = b""
    elif headers.get(b"transfer-encoding", b"").lower() == b"chunked":
        body = _read_chunked(rfile)
    elif length is not None:
        if not length.isdigit():
            raise ValueError(f"malformed Content-Length {length[:80]!r}")
        body = _read_exactly(rfile, int(length))
    else:
        body, keep_open = rfile.read(), False
    return status, reason.decode("latin-1"), body, keep_open


def build_policy(config: PolicyConfig, corpus: Corpus | None = None):
    if config.kind == "scripted_adaptive":
        return ScriptedAdaptivePolicy(corpus, emit_tool_updates=config.emit_tool_updates)
    if config.kind == "scripted_rigid":
        return ScriptedRigidPolicy(corpus)
    if config.kind == "scripted_semi_adaptive":
        return ScriptedSemiAdaptivePolicy(corpus, emit_tool_updates=config.emit_tool_updates)
    return RemotePolicy(config)

