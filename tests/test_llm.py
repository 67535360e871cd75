from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
import requests

from apisynth import llm
from apisynth.llm import (
    BackendConfig,
    BackendError,
    ChatExchange,
    ConfigError,
    HttpBackend,
    MockBackend,
    TokenUsage,
    TranscriptWriter,
    load_mock_script,
    make_backend,
    read_transcript,
)
from apisynth.prompting import Message, load_templates
from apisynth.records import to_json_dict
from apisynth.refine import FinalStatus, synthesize
from helpers import StubSandbox, load_script, ok, simple_response, transcript_in


def conversation(text: str = "implement it") -> list[Message]:
    return [Message("system", "persona"), Message("user", text)]


def test_backend_config_validation():
    BackendConfig(kind="mock", temperature=0.0)
    BackendConfig(kind="http", temperature=2.0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="grpc")
    with pytest.raises(ConfigError):
        BackendConfig(temperature=2.5)


def test_mock_array_script_consumed_in_order():
    backend = MockBackend(script=["first", "second"])
    assert backend.complete(conversation(), "t").response_text == "first"
    assert backend.complete(conversation(), "t").response_text == "second"
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "u")  # one queue, whatever the task id
    assert str(excinfo.value) == "mock script exhausted after 2 responses"


def test_mock_keyed_script_tracks_tasks_independently():
    backend = MockBackend(script={"a": ["a1", "a2"], "b": ["b1"]})
    assert backend.complete(conversation(), "a").response_text == "a1"
    assert backend.complete(conversation(), "b").response_text == "b1"
    assert backend.complete(conversation(), "a").response_text == "a2"
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "b")
    assert str(excinfo.value) == "mock script for task 'b' exhausted after 1 responses"


def test_mock_unknown_task_id():
    backend = MockBackend(script={"a": ["a1"]})
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "mystery")
    assert str(excinfo.value) == "mock script has no entry for task 'mystery'"


def test_mock_ignores_prompt_content():
    first = MockBackend(script=["canned"])
    second = MockBackend(script=["canned"])
    a = first.complete(conversation("completely different prompt A"), "t")
    b = second.complete(conversation("prompt B with other words"), "t")
    assert a.response_text == b.response_text == "canned"


def test_conversation_preconditions():
    backend = MockBackend(script=["x"])
    with pytest.raises(BackendError):
        backend.complete([], "t")
    with pytest.raises(BackendError):
        backend.complete([Message("user", "q"), Message("assistant", "a")], "t")


def test_transcript_written_per_exchange(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path, "mock")
    backend = MockBackend(script=["one", "two"])
    first = backend.complete(conversation("q1"), "task-1")
    assert writer.append("task-1", conversation("q1"), first) == 1
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # persisted before append returned
    second = backend.complete(conversation("q2"), "task-2")
    assert writer.append("task-2", conversation("q2"), second) == 2
    entries = read_transcript(path)
    assert len(entries) == 2
    (line, request), (later, _) = entries
    assert line.task_id == "task-1"
    assert line.response_text == "one"
    assert request == tuple(conversation("q1"))
    assert line.timestamp
    assert later.latency_seconds == 0.0


def test_transcript_line_layout(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path, "test-model")
    first = ChatExchange(
        response_text="the code",
        latency_seconds=0.25,
        usage=TokenUsage(prompt_tokens=12, completion_tokens=34, total_tokens=46),
    )
    conversation_id = writer.append("task-9", [Message("system", "persona"), Message("user", "naïve q")], first)
    writer.append("task-9", [Message("user", "fix")], ChatExchange("fixed", 0.5), conversation_id, 1)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    stamps = [json.loads(line)["timestamp"] for line in lines]
    assert lines == [
        f'{{"timestamp": "{stamps[0]}", "task_id": "task-9", "model": "test-model", '
        '"conversation": 1, "turn": 0, "new_messages": [{"role": "system", "content": "persona"}, '
        '{"role": "user", "content": "naïve q"}], "response_text": "the code", '
        '"latency_seconds": 0.25, "usage": {"prompt_tokens": 12, "completion_tokens": 34, '
        '"total_tokens": 46}}\n',
        f'{{"timestamp": "{stamps[1]}", "task_id": "task-9", "model": "test-model", '
        '"conversation": 1, "turn": 1, "new_messages": [{"role": "user", "content": "fix"}], '
        '"response_text": "fixed", "latency_seconds": 0.5, "usage": null}\n',
    ]


REPLY = ChatExchange("reply", 0.0)
OPENING = (Message("system", "persona"), Message("user", "q"))


def test_transcript_ids_stay_unique_across_writers(tmp_path):
    """A resumed run appends with a new writer; its conversations get new ids."""
    path = tmp_path / "transcript.jsonl"
    assert TranscriptWriter(path, "m").append("a", OPENING, REPLY) == 1
    assert TranscriptWriter(path, "m").append("a", OPENING, REPLY) == 2
    later = TranscriptWriter(path, "m")
    assert later.append("a", OPENING, REPLY) == 3
    assert later.append("a", [Message("user", "follow-up")], REPLY, 3, 1) == 3
    entries = read_transcript(path)
    assert [(line.conversation, line.turn) for line, _ in entries] == [(1, 0), (2, 0), (3, 0), (3, 1)]
    assert entries[3][1] == OPENING + (Message("assistant", "reply"), Message("user", "follow-up"))


def test_transcript_resume_drops_a_torn_last_line(tmp_path):
    """A run killed while writing leaves a line without its newline; a resumed run's writer cuts it off."""
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path, "m")
    writer.append("a", OPENING, REPLY)
    writer.append("b", OPENING, REPLY)
    path.write_bytes(path.read_bytes()[:-30])  # line 2 loses its end
    assert TranscriptWriter(path, "m").append("b", OPENING, REPLY) == 2
    entries = read_transcript(path)
    assert [(line.task_id, line.conversation) for line, _ in entries] == [("a", 1), ("b", 2)]


def test_transcript_refuses_the_older_layout(tmp_path, repo_root, capsys):
    """A line that held the whole request, with no conversation id, does not decode."""
    path = tmp_path / "transcript.jsonl"
    request = [to_json_dict(message) for message in OPENING]
    line = {"timestamp": "t", "task_id": "a", "model": "m", "request_messages": request, **to_json_dict(REPLY)}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    message = f"{path}: line 1: conversation: missing required field"
    with pytest.raises(ValueError) as excinfo:
        read_transcript(path)
    assert str(excinfo.value) == message
    assert load_script(repo_root, "show_transcript").main([str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_transcript_reader_rejects_an_unknown_conversation(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path, "m")
    writer.append("a", OPENING, REPLY)
    writer.append("a", [Message("user", "follow-up")], REPLY, 1, 1)
    first, second = path.read_text(encoding="utf-8").splitlines()
    for lines, message in (
        ([second], "line 1: turn 1 continues an unknown conversation 1 of task 'a'"),
        ([first, second.replace('"task_id": "a"', '"task_id": "b"')], "line 2: turn 1"),
        ([first, second.replace('"turn": 1', '"turn": 2')], "line 2: turn 2 cannot follow turn 0"),
        ([first, first], "line 2: turn 0 cannot follow turn 0 of conversation 1 of task 'a'"),
        ([first, second.replace('"user"', '"robot"')], "line 2: invalid message role"),
        ([first, second.replace('"turn": 1', '"turn": "1"')], "line 2: turn: expected an integer"),
    ):
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            read_transcript(path)


def test_load_mock_script_shapes(tmp_path):
    array = tmp_path / "array.json"
    array.write_text(json.dumps(["a", "b"]))
    assert load_mock_script(array) == ["a", "b"]

    keyed = tmp_path / "keyed.json"
    keyed.write_text(json.dumps({"t1": "single", "t2": ["x", "y"]}))
    assert load_mock_script(keyed) == {"t1": ["single"], "t2": ["x", "y"]}

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, 2]))
    with pytest.raises(BackendError):
        load_mock_script(bad)
    bad.write_text(json.dumps("just a string"))
    with pytest.raises(BackendError):
        load_mock_script(bad)


@pytest.mark.parametrize(
    "script, entry",
    [(["a", ""], "[1]"), ({"t1": ""}, "'t1'[0]"), ({"t1": "a", "t2": ["x", ""]}, "'t2'[1]")],
)
def test_load_mock_script_refuses_empty_responses(tmp_path, script, entry):
    path = tmp_path / "script.json"
    path.write_text(json.dumps(script))
    with pytest.raises(BackendError) as raised:
        load_mock_script(path)
    assert str(raised.value) == f"{path}: mock script entry {entry} is an empty response"


def test_make_backend_mock_requires_script():
    with pytest.raises(ConfigError):
        make_backend(BackendConfig(kind="mock"))


def test_http_backend_requires_credential(monkeypatch):
    monkeypatch.delenv("DEMO_KEY", raising=False)
    with pytest.raises(BackendError) as excinfo:
        HttpBackend(BackendConfig(credential_source="DEMO_KEY"))
    assert str(excinfo.value) == "credential environment variable DEMO_KEY is not set"


class _Handler(BaseHTTPRequestHandler):
    responses: list[tuple[int, dict]] = []
    seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        type(self).seen.append(
            {"path": self.path, "auth": self.headers.get("Authorization"), "body": body}
        )
        status, payload = type(self).responses.pop(0)
        data = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_stub(monkeypatch):
    monkeypatch.setattr(llm, "REQUEST_TIMEOUT", 5)  # a stuck stub fails the test in seconds
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    _Handler.responses = []
    _Handler.seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server, _Handler
    server.shutdown()
    server.server_close()


def _completion_payload(text: str) -> dict:
    return {
        "choices": [{"message": {"role": "assistant", "content": text}}],
        "usage": {"prompt_tokens": 12, "completion_tokens": 34, "total_tokens": 46},
    }


def test_http_backend_round_trip(http_stub, monkeypatch, tmp_path):
    server, handler = http_stub
    handler.responses.append((200, _completion_payload("the code")))
    monkeypatch.setenv("DEMO_KEY", "sekrit")
    config = BackendConfig(
        model="test-model",
        temperature=0.7,
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
    )
    backend = HttpBackend(config)
    exchange = backend.complete(conversation("write code"), "task-9")

    assert exchange == ChatExchange(
        "the code", exchange.latency_seconds, TokenUsage(prompt_tokens=12, completion_tokens=34, total_tokens=46)
    )
    request = handler.seen[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["auth"] == "Bearer sekrit"
    assert set(request["body"]) == {"model", "messages", "temperature"}
    assert request["body"]["model"] == "test-model"
    assert request["body"]["temperature"] == 0.7
    assert request["body"]["messages"] == [to_json_dict(message) for message in conversation("write code")]

    # A count that is not exactly an integer is not kept, so its transcript line reads back.
    payload = _completion_payload("more code")
    payload["usage"].update(prompt_tokens=12.0, total_tokens=True)
    handler.responses.append((200, payload))
    exchange = backend.complete(conversation("write code"), "task-9")
    assert exchange.usage == TokenUsage(prompt_tokens=None, completion_tokens=34, total_tokens=None)
    TranscriptWriter(tmp_path / "transcript.jsonl", "test-model").append("task-9", conversation("write code"), exchange)
    [(line, _)] = read_transcript(tmp_path / "transcript.jsonl")
    assert line.usage == exchange.usage


def test_http_backend_session_per_thread(monkeypatch):
    monkeypatch.setenv("DEMO_KEY", "k")
    backend = HttpBackend(BackendConfig(credential_source="DEMO_KEY"))
    mine = backend._session
    assert backend._session is mine
    theirs = []
    worker = threading.Thread(target=lambda: theirs.extend([backend._session, backend._session]))
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive()
    assert theirs[0] is theirs[1]
    assert theirs[0] is not mine


def test_http_backend_retries_transient_status(http_stub, monkeypatch):
    server, handler = http_stub
    handler.responses.append((503, {"error": "busy"}))
    handler.responses.append((200, _completion_payload("after retry")))
    monkeypatch.setenv("DEMO_KEY", "k")
    monkeypatch.setattr(llm, "TRANSPORT_RETRIES", 1)
    config = BackendConfig(
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
    )
    backend = HttpBackend(config)
    assert backend.complete(conversation(), "t").response_text == "after retry"
    assert len(handler.seen) == 2


def test_http_backend_fails_fast_on_client_error(http_stub, monkeypatch):
    server, handler = http_stub
    handler.responses.append((401, {"error": "bad key"}))
    monkeypatch.setenv("DEMO_KEY", "k")
    monkeypatch.setattr(llm, "TRANSPORT_RETRIES", 3)
    config = BackendConfig(
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
    )
    backend = HttpBackend(config)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "t")
    assert "401" in str(excinfo.value)
    assert len(handler.seen) == 1


def test_http_backend_rejects_malformed_payload(http_stub, monkeypatch):
    server, handler = http_stub
    handler.responses.append((200, {"unexpected": True}))
    monkeypatch.setenv("DEMO_KEY", "k")
    config = BackendConfig(
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
    )
    backend = HttpBackend(config)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "t")
    assert "malformed" in str(excinfo.value)



# Run in a fresh interpreter: this module's own import of requests would hide a start-up import.
FIRST_CALLS_ON_THREADS = """
import json, sys, threading
import apisynth.cli
from apisynth.llm import BackendConfig, HttpBackend
from apisynth.prompting import Message

loaded_at_start = "requests" in sys.modules
backend = HttpBackend(BackendConfig(endpoint_url=sys.argv[1], credential_source="DEMO_KEY"))
conversation = [Message("user", "implement it")]
barrier = threading.Barrier(4)
replies = []

def call():
    barrier.wait()
    replies.append(backend.complete(conversation, "t").response_text)

threads = [threading.Thread(target=call) for _ in range(4)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
print(json.dumps([loaded_at_start, sorted(replies)]))
"""


def test_http_backend_imports_requests_at_its_first_calls(http_stub, repo_root):
    """Start-up leaves requests unloaded; four threads that then call at once each get their reply."""
    server, handler = http_stub
    handler.responses.extend((200, _completion_payload(f"reply {i}")) for i in range(4))
    env = {**os.environ, "PYTHONPATH": str(repo_root / "src"), "DEMO_KEY": "k"}
    endpoint = f"http://127.0.0.1:{server.server_port}/v1"
    done = subprocess.run([sys.executable, "-c", FIRST_CALLS_ON_THREADS, endpoint], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [False, [f"reply {i}" for i in range(4)]]
    assert len(handler.seen) == 4


class _StubSession:
    """Answers each post with the next (status, headers, payload) it was given."""

    def __init__(self, *replies):
        self.replies = list(replies)
        self.posts = 0

    def post(self, url, **kwargs):
        self.posts += 1
        status, headers, payload = self.replies.pop(0)
        response = requests.Response()
        response.status_code = status
        response.headers.update(headers)
        response._content = json.dumps(payload).encode()
        return response


def test_http_backend_honours_retry_after(monkeypatch):
    monkeypatch.setenv("DEMO_KEY", "k")
    sleeps = []
    monkeypatch.setattr(llm.time, "sleep", sleeps.append)
    monkeypatch.setattr(llm, "TRANSPORT_RETRIES", 4)
    backend = HttpBackend(BackendConfig(credential_source="DEMO_KEY"))
    backend._local.session = session = _StubSession(
        (429, {"Retry-After": "7"}, {}),
        (503, {"Retry-After": "3600"}, {}),  # capped
        (503, {"Retry-After": "Wed, 21 Oct 2015 07:28:00 GMT"}, {}),  # a date: backoff
        (500, {"Retry-After": "3"}, {}),  # only 429 and 503 are honoured: backoff
        (200, {}, _completion_payload("at last")),
    )
    assert backend.complete(conversation(), "t").response_text == "at last"
    assert session.posts == 5
    assert sleeps == [7.0, llm.RETRY_AFTER_CAP, 4.0, 8.0]


def test_http_backend_gives_up_after_transport_failures(ellipse_task, monkeypatch, tmp_path):
    """A port that refuses every connection: two retries, then an environment failure of the task."""
    monkeypatch.setenv("DEMO_KEY", "k")
    sleeps = []
    monkeypatch.setattr(llm.time, "sleep", sleeps.append)
    with socket.socket() as refusing:
        refusing.bind(("127.0.0.1", 0))  # bound but not listening: a connection is refused
        endpoint = f"http://127.0.0.1:{refusing.getsockname()[1]}/v1"
        backend = HttpBackend(BackendConfig(endpoint_url=endpoint, credential_source="DEMO_KEY"))
        with pytest.raises(BackendError) as excinfo:
            backend.complete(conversation(), "t")
        assert sleeps == [1.0, 2.0]
        assert str(excinfo.value).startswith("transport failed after 3 attempts: ")
        record = synthesize(
            ellipse_task, backend, load_templates(), StubSandbox(), tmp_path / ellipse_task.id, transcript_in(tmp_path)
        )
    assert record.final_status is FinalStatus.FAILED_ENVIRONMENT
    assert record.error.startswith("transport failed after 3 attempts: ")
    assert record.attempts == ()


@pytest.mark.parametrize("kind", ["mock", "http"])
def test_a_lone_surrogate_in_a_reply_is_replaced_before_it_is_written(
    kind, http_stub, ellipse_task, monkeypatch, tmp_path
):
    """As the sandbox decodes child output: the reply is judged and written with U+FFFD in the surrogate's place."""
    reply = simple_response().replace("    void testAll", "    // \ud800 and \U0001F600\n    void testAll")
    if kind == "mock":
        backend = MockBackend(script=[reply])
    else:
        server, handler = http_stub
        handler.responses.append((200, _completion_payload(reply)))  # sent as "\ud800" and "\ud83d\ude00"
        monkeypatch.setenv("DEMO_KEY", "k")
        endpoint = f"http://127.0.0.1:{server.server_port}/v1"
        backend = HttpBackend(BackendConfig(endpoint_url=endpoint, credential_source="DEMO_KEY"))
    sandbox = StubSandbox(outcomes=[ok()])
    record = synthesize(
        ellipse_task, backend, load_templates(), sandbox, tmp_path / ellipse_task.id, transcript_in(tmp_path)
    )
    assert record.final_status is FinalStatus.SOLVED
    replaced = reply.replace("\ud800", "\ufffd")
    [(line, _)] = read_transcript(tmp_path / "transcript.jsonl")
    assert line.response_text == replaced
    [(_, _, unit)] = sandbox.calls
    assert "// \ufffd and \U0001F600\n" in unit.source_text
