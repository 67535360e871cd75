from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

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
)
from apisynth.prompting import Message


def conversation(text: str = "implement it") -> list[Message]:
    return [Message("system", "persona"), Message("user", text)]


def test_backend_config_validation():
    BackendConfig(kind="mock", temperature=0.0)
    BackendConfig(kind="http", temperature=2.0)
    with pytest.raises(ConfigError):
        BackendConfig(kind="grpc")
    with pytest.raises(ConfigError):
        BackendConfig(temperature=2.5)
    with pytest.raises(ConfigError):
        BackendConfig(request_timeout=0)
    with pytest.raises(ConfigError):
        BackendConfig(max_retries_transport=-1)


def test_mock_array_script_consumed_in_order():
    backend = MockBackend(script=["first", "second"])
    assert backend.complete(conversation(), "t").response_text == "first"
    assert backend.complete(conversation(), "t").response_text == "second"
    with pytest.raises(ScriptExhaustedError):
        backend.complete(conversation(), "t")


def test_mock_keyed_script_tracks_tasks_independently():
    backend = MockBackend(script={"a": ["a1", "a2"], "b": ["b1"]})
    assert backend.complete(conversation(), "a").response_text == "a1"
    assert backend.complete(conversation(), "b").response_text == "b1"
    assert backend.complete(conversation(), "a").response_text == "a2"
    with pytest.raises(ScriptExhaustedError) as excinfo:
        backend.complete(conversation(), "b")
    assert "'b'" in str(excinfo.value)


def test_mock_unknown_task_id():
    backend = MockBackend(script={"a": ["a1"]})
    with pytest.raises(ScriptExhaustedError) as excinfo:
        backend.complete(conversation(), "mystery")
    assert "mystery" in str(excinfo.value)


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
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    assert len(lines) == 2
    assert lines[0]["task_id"] == "task-1"
    assert lines[0]["response_text"] == "one"
    assert lines[0]["request_messages"][-1] == {"role": "user", "content": "q1"}
    assert "timestamp" in lines[0]
    assert "latency_seconds" in lines[1]


def test_transcript_line_layout(tmp_path):
    path = tmp_path / "transcript.jsonl"
    exchange = ChatExchange(
        request_messages=(Message("system", "persona"), Message("user", "naïve q")),
        response_text="the code",
        latency_seconds=0.25,
        usage=TokenUsage(prompt_tokens=12, completion_tokens=34, total_tokens=46),
    )
    llm._persist(TranscriptWriter(path), "task-9", "test-model", exchange)
    line = path.read_text(encoding="utf-8")
    timestamp = json.loads(line)["timestamp"]
    assert line == (
        f'{{"timestamp": "{timestamp}", "task_id": "task-9", "model": "test-model", '
        '"request_messages": [{"role": "system", "content": "persona"}, '
        '{"role": "user", "content": "naïve q"}], "response_text": "the code", '
        '"latency_seconds": 0.25, "usage": {"prompt_tokens": 12, "completion_tokens": 34, '
        '"total_tokens": 46}}\n'
    )


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
def http_stub():
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
        request_timeout=5,
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
    config = BackendConfig(
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
        request_timeout=5,
        max_retries_transport=1,
    )
    backend = HttpBackend(config)
    assert backend.complete(conversation(), "t").response_text == "after retry"
    assert len(handler.seen) == 2


def test_http_backend_fails_fast_on_client_error(http_stub, monkeypatch):
    server, handler = http_stub
    handler.responses.append((401, {"error": "bad key"}))
    monkeypatch.setenv("DEMO_KEY", "k")
    config = BackendConfig(
        endpoint_url=f"http://127.0.0.1:{server.server_port}/v1",
        credential_source="DEMO_KEY",
        request_timeout=5,
        max_retries_transport=3,
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
        request_timeout=5,
    )
    backend = HttpBackend(config)
    with pytest.raises(BackendError) as excinfo:
        backend.complete(conversation(), "t")
    assert "malformed" in str(excinfo.value)

