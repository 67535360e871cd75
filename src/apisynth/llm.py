"""Chat-completion backends: an HTTP client and a deterministic scripted mock."""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Protocol, Sequence

import requests

from .prompting import Message
from .records import to_json_dict

RETRYABLE_STATUS = (429, 500, 502, 503, 504)


class ConfigError(Exception):
    """Bad configuration; callers map this to the environment/config exit code."""


class BackendError(Exception):
    """The backend could not produce a completion; an environment failure."""


class CredentialError(BackendError):
    """The credential environment variable is unset; a configuration failure."""


class ScriptExhaustedError(BackendError):
    """The mock script has no further response for this request."""


@dataclass(frozen=True)
class BackendConfig:
    kind: str = "http"
    model: str = "gpt-4o"
    temperature: float = 0.7
    endpoint_url: str = "https://api.openai.com/v1"
    credential_source: str = "OPENAI_API_KEY"
    request_timeout: float = 120.0
    max_retries_transport: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"backend kind must be 'http' or 'mock', got {self.kind!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature must be within [0, 2], got {self.temperature}")
        if self.request_timeout <= 0:
            raise ConfigError("request timeout must be positive")
        if self.max_retries_transport < 0:
            raise ConfigError("transport retry count must be >= 0")


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    total_tokens: int | None = None


@dataclass(frozen=True)
class ChatExchange:
    request_messages: tuple[Message, ...]
    response_text: str
    latency_seconds: float
    usage: TokenUsage | None = None


@dataclass
class TranscriptWriter:
    """Append-only JSONL log of every model exchange, flushed before use."""

    path: Path
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def append(self, record: dict) -> None:
        line = json.dumps(record, ensure_ascii=False)
        with self._lock:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(line + "\n")


class ChatBackend(Protocol):
    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange: ...


def _check_conversation(conversation: Sequence[Message]) -> None:
    if not conversation:
        raise BackendError("conversation must be non-empty")
    if conversation[-1].role != "user":
        raise BackendError("conversation must end with a user message")


def _persist(
    transcript: TranscriptWriter | None, task_id: str, model: str, exchange: ChatExchange
) -> None:
    if transcript is None:
        return
    transcript.append(
        {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "task_id": task_id,
            "model": model,
            **to_json_dict(exchange),
        }
    )


@dataclass
class HttpBackend:
    """Client for a chat-completions endpoint; retries transport-level faults.

    Each thread that calls it gets its own ``requests.Session``: a session is
    not safe to share between the ``--workers`` threads.
    """

    config: BackendConfig
    transcript: TranscriptWriter | None = None
    _api_key: str = field(init=False, repr=False)
    _local: threading.local = field(default_factory=threading.local, init=False, repr=False)

    def __post_init__(self) -> None:
        key = os.environ.get(self.config.credential_source)
        if not key:
            raise CredentialError(
                f"credential environment variable {self.config.credential_source} is not set"
            )
        self._api_key = key

    @property
    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            session = self._local.session = requests.Session()
        return session

    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange:
        _check_conversation(conversation)
        url = self.config.endpoint_url.rstrip("/") + "/chat/completions"
        body = {
            "model": self.config.model,
            "messages": [{"role": m.role, "content": m.content} for m in conversation],
            "temperature": self.config.temperature,
        }
        headers = {"Authorization": f"Bearer {self._api_key}"}

        attempts = self.config.max_retries_transport + 1
        last_error: Exception | None = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.5 * 2**attempt, 8.0))
            start = time.monotonic()
            try:
                response = self._session.post(
                    url, json=body, headers=headers, timeout=self.config.request_timeout
                )
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code in RETRYABLE_STATUS and attempt + 1 < attempts:
                last_error = BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                continue
            if response.status_code != 200:
                raise BackendError(
                    f"chat completion failed with HTTP {response.status_code}: "
                    f"{response.text[:500]}"
                )
            exchange = self._parse(conversation, response, time.monotonic() - start)
            _persist(self.transcript, task_id, self.config.model, exchange)
            return exchange
        raise BackendError(f"transport failed after {attempts} attempts: {last_error}")

    def _parse(
        self, conversation: Sequence[Message], response: requests.Response, latency: float
    ) -> ChatExchange:
        try:
            data = response.json()
            text = data["choices"][0]["message"]["content"]
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            raise BackendError(f"malformed completion response: {exc}") from exc
        if not isinstance(text, str) or not text:
            raise BackendError("completion response contains no message text")
        usage = None
        raw_usage = data.get("usage")
        if isinstance(raw_usage, dict):
            usage = TokenUsage(
                prompt_tokens=raw_usage.get("prompt_tokens"),
                completion_tokens=raw_usage.get("completion_tokens"),
                total_tokens=raw_usage.get("total_tokens"),
            )
        return ChatExchange(
            request_messages=tuple(conversation),
            response_text=text,
            latency_seconds=latency,
            usage=usage,
        )


def load_mock_script(path: Path) -> list[str] | dict[str, list[str]]:
    """A mock script is a JSON array of responses or a task-id-keyed object."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BackendError(f"{path}: cannot load mock script: {exc}") from exc
    if isinstance(data, list):
        if not all(isinstance(item, str) for item in data):
            raise BackendError(f"{path}: mock script array must contain only strings")
        return data
    if isinstance(data, dict):
        normalized: dict[str, list[str]] = {}
        for key, value in data.items():
            if isinstance(value, str):
                normalized[key] = [value]
            elif isinstance(value, list) and all(isinstance(v, str) for v in value):
                normalized[key] = list(value)
            else:
                raise BackendError(
                    f"{path}: mock script entry {key!r} must be a string or array of strings"
                )
        return normalized
    raise BackendError(f"{path}: mock script must be a JSON array or object")


@dataclass
class MockBackend:
    """Replays scripted responses; blind to prompt content except the task id."""

    script: list[str] | dict[str, list[str]]
    model: str = "mock"
    transcript: TranscriptWriter | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _cursors: dict[str, int] = field(default_factory=dict, repr=False)
    _cursor: int = field(default=0, repr=False)

    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange:
        _check_conversation(conversation)
        with self._lock:
            if isinstance(self.script, list):
                if self._cursor >= len(self.script):
                    raise ScriptExhaustedError(
                        f"mock script exhausted after {len(self.script)} responses"
                    )
                text = self.script[self._cursor]
                self._cursor += 1
            else:
                entries = self.script.get(task_id)
                if entries is None:
                    raise ScriptExhaustedError(f"mock script has no entry for task '{task_id}'")
                position = self._cursors.get(task_id, 0)
                if position >= len(entries):
                    raise ScriptExhaustedError(
                        f"mock script for task '{task_id}' exhausted after "
                        f"{len(entries)} responses"
                    )
                text = entries[position]
                self._cursors[task_id] = position + 1
        exchange = ChatExchange(
            request_messages=tuple(conversation), response_text=text, latency_seconds=0.0
        )
        _persist(self.transcript, task_id, self.model, exchange)
        return exchange


def make_backend(
    config: BackendConfig,
    transcript: TranscriptWriter | None = None,
    mock_script_path: Path | None = None,
) -> HttpBackend | MockBackend:
    if config.kind == "mock":
        if mock_script_path is None:
            raise ConfigError("the mock backend requires a script file (--mock-script)")
        return MockBackend(
            script=load_mock_script(mock_script_path),
            model=config.model,
            transcript=transcript,
        )
    return HttpBackend(config=config, transcript=transcript)
