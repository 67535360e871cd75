from __future__ import annotations

import json
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
    CredentialError,
    HttpBackend,
    MockBackend,
    ScriptExhaustedError,
    TokenUsage,
    TranscriptWriter,
    load_mock_script,
    make_backend,
    read_transcript,
)
from apisynth.prompting import Message
from apisynth.records import to_json_dict
from helpers import load_script


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
    with pytest.raises(ScriptExhaustedError) as excinfo:
        backend.complete(conversation(), "u")  # one queue, whatever the task id
    assert str(excinfo.value) == "mock script exhausted after 2 responses"


def test_mock_keyed_script_tracks_tasks_independently():
    backend = MockBackend(script={"a": ["a1", "a2"], "b": ["b1"]})
    assert backend.complete(conversation(), "a").response_text == "a1"
    assert backend.complete(conversation(), "b").response_text == "b1"
    assert backend.complete(conversation(), "a").response_text == "a2"
    with pytest.raises(ScriptExhaustedError) as excinfo:
        backend.complete(conversation(), "b")
    assert str(excinfo.value) == "mock script for task 'b' exhausted after 1 responses"


def test_mock_unknown_task_id():
    backend = MockBackend(script={"a": ["a1"]})
    with pytest.raises(ScriptExhaustedError) as excinfo:
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
    backend = MockBackend(script=["one", "two"], transcript=TranscriptWriter(path))
    backend.complete(conversation("q1"), "task-1")
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1  # persisted before the call returned
    backend.complete(conversation("q2"), "task-2")
    entries = read_transcript(path)
    assert len(entries) == 2
    assert entries[0].task_id == "task-1"
    assert entries[0].exchange.response_text == "one"
    assert entries[0].exchange.request_messages[-1] == Message("user", "q1")
    assert entries[0].timestamp
    assert entries[1].exchange.latency_seconds == 0.0


def test_transcript_line_layout(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path)
    first = ChatExchange(
        request_messages=(Message("system", "persona"), Message("user", "naïve q")),
        response_text="the code",
        latency_seconds=0.25,
        usage=TokenUsage(prompt_tokens=12, completion_tokens=34, total_tokens=46),
    )
    llm._persist(writer, "task-9", "test-model", first)
    followup = first.request_messages + (Message("assistant", "the code"), Message("user", "fix"))
    llm._persist(writer, "task-9", "test-model", ChatExchange(followup, "fixed", 0.5))
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


def exchange(*contents: str, reply: str = "reply") -> ChatExchange:
    """A request of alternating user and assistant messages after a system message."""
    roles = ["user", "assistant"] * len(contents)
    messages = (Message("system", "persona"),) + tuple(map(Message, roles, contents))
    return ChatExchange(messages, reply, 0.0)


def test_transcript_continues_only_a_matching_conversation(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path)
    sent = [
        ("a", exchange("q")),
        ("b", exchange("q")),  # same messages, another task: a conversation of its own
        ("a", exchange("q", "reply", "follow-up")),
        ("a", exchange("q", "another reply", "follow-up")),  # differs from what was written
        ("a", exchange("q", "another reply", "follow-up", "reply", "again")),
        ("a", exchange("q")),  # a re-run starts over
    ]
    for task_id, ex in sent:
        writer.append(task_id, "m", ex)
    entries = read_transcript(path)
    assert [(e.task_id, e.conversation, e.turn) for e in entries] == [
        ("a", 1, 0),
        ("b", 2, 0),
        ("a", 1, 1),
        ("a", 4, 0),
        ("a", 4, 1),
        ("a", 6, 0),
    ]
    assert [e.exchange for e in entries] == [ex for _, ex in sent]
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert [len(line["new_messages"]) for line in lines] == [2, 2, 1, 4, 1, 2]


def test_transcript_ids_stay_unique_across_writers(tmp_path):
    """A resumed run appends with a new writer; its conversations get new ids."""
    path = tmp_path / "transcript.jsonl"
    TranscriptWriter(path).append("a", "m", exchange("q"))
    TranscriptWriter(path).append("a", "m", exchange("q"))
    later = TranscriptWriter(path)
    later.append("a", "m", exchange("q"))
    later.append("a", "m", exchange("q", "reply", "follow-up"))
    entries = read_transcript(path)
    assert [(e.conversation, e.turn) for e in entries] == [(1, 0), (2, 0), (3, 0), (3, 1)]


def test_transcript_refuses_the_older_layout(tmp_path, repo_root, capsys):
    """A line that held the whole request, with no conversation id, does not decode."""
    path = tmp_path / "transcript.jsonl"
    line = {"timestamp": "t", "task_id": "a", "model": "m", **to_json_dict(exchange("q"))}
    path.write_text(json.dumps(line) + "\n", encoding="utf-8")
    message = f"{path}: line 1: conversation: missing required field"
    with pytest.raises(ValueError) as excinfo:
        read_transcript(path)
    assert str(excinfo.value) == message
    assert load_script(repo_root, "show_transcript").main([str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_transcript_reader_rejects_an_unknown_conversation(tmp_path):
    path = tmp_path / "transcript.jsonl"
    writer = TranscriptWriter(path)
    writer.append("a", "m", exchange("q"))
    writer.append("a", "m", exchange("q", "reply", "follow-up"))
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
    with pytest.raises(CredentialError) as excinfo:
        HttpBackend(BackendConfig(credential_source="DEMO_KEY"))
    assert "DEMO_KEY" in str(excinfo.value)


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
    transcript = TranscriptWriter(tmp_path / "t.jsonl")
    backend = HttpBackend(config, transcript=transcript)
    exchange = backend.complete(conversation("write code"), "task-9")

    assert exchange.response_text == "the code"
    assert exchange.usage.total_tokens == 46
    request = handler.seen[0]
    assert request["path"] == "/v1/chat/completions"
    assert request["auth"] == "Bearer sekrit"
    assert set(request["body"]) == {"model", "messages", "temperature"}
    assert request["body"]["model"] == "test-model"
    assert request["body"]["temperature"] == 0.7
    assert request["body"]["messages"][-1]["content"] == "write code"
    persisted = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert persisted["response_text"] == "the code"
    assert persisted["usage"]["total_tokens"] == 46


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
