"""Chat-completion backends: an HTTP client and a deterministic scripted mock."""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Protocol, Sequence

import requests

from .prompting import Message, PromptError
from .records import from_json_dict, to_json_dict

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
REQUEST_TIMEOUT = 120.0  # seconds per HTTP request
TRANSPORT_RETRIES = 2  # further tries after a transport error or a retryable status
# The longest wait a Retry-After header gets; a larger value is taken as this.
RETRY_AFTER_CAP = 60.0


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

    def __post_init__(self) -> None:
        if self.kind not in ("http", "mock"):
            raise ConfigError(f"backend kind must be 'http' or 'mock', got {self.kind!r}")
        if not 0.0 <= self.temperature <= 2.0:
            raise ConfigError(f"temperature must be within [0, 2], got {self.temperature}")


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


@dataclass(frozen=True)
class TranscriptLine:
    """One transcript line: an exchange, holding only the messages its request adds.

    A conversation's first line (turn 0) holds its whole request. A later turn
    holds the messages after the previous turn's reply, which is on disk as
    that line's response_text. A conversation id is the number of the line
    that starts the conversation, so it is unique within the file.
    """

    timestamp: str
    task_id: str
    model: str
    conversation: int
    turn: int
    new_messages: tuple[Message, ...]
    response_text: str
    latency_seconds: float
    usage: TokenUsage | None = None


@dataclass(frozen=True)
class TranscriptEntry:
    """An exchange as read back from a transcript, with its whole request rebuilt."""

    task_id: str
    conversation: int
    turn: int
    model: str
    timestamp: str
    exchange: ChatExchange


@dataclass(frozen=True)
class _Tail:
    """A writer's state for a task's latest conversation: a digest in place of its messages."""

    conversation: int
    turn: int
    count: int  # messages written so far, the last reply included
    digest: bytes


def _digest(pairs) -> bytes:
    """A hash of (role, content) pairs; each content is fed after its role and byte length."""
    hasher = hashlib.blake2b(digest_size=16)
    for role, content in pairs:
        data = content.encode("utf-8")
        hasher.update(f"{role} {len(data)}\n".encode("utf-8"))
        hasher.update(data)
    return hasher.digest()


def _count_lines(path: Path) -> int:
    try:
        with path.open("rb") as fh:
            return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 16), b""))
    except FileNotFoundError:
        return 0


@dataclass
class TranscriptWriter:
    """Append-only JSONL log of every model exchange, flushed before use.

    A request continues its task's latest conversation when it starts with
    every message written for it so far, the last reply included as an
    assistant message; its line then holds only the messages after those.
    Any other request starts a new conversation. Per task the writer keeps
    the conversation id, the turn, the message count and a digest, never
    the messages.
    """

    path: Path
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _lines: int | None = field(default=None, repr=False)  # counted on first append
    _tails: dict[str, _Tail] = field(default_factory=dict, repr=False)

    def append(self, task_id: str, model: str, exchange: ChatExchange) -> None:
        request = exchange.request_messages
        pairs = [(m.role, m.content) for m in request]
        with self._lock:
            if self._lines is None:
                self._lines = _count_lines(self.path)
            tail = self._tails.get(task_id)
            if (
                tail is not None
                and len(pairs) > tail.count
                and _digest(pairs[: tail.count]) == tail.digest
            ):
                conversation, turn, start = tail.conversation, tail.turn + 1, tail.count
            else:
                conversation, turn, start = self._lines + 1, 0, 0
            line = TranscriptLine(
                timestamp=datetime.now(timezone.utc).isoformat(),
                task_id=task_id,
                model=model,
                conversation=conversation,
                turn=turn,
                new_messages=request[start:],
                response_text=exchange.response_text,
                latency_seconds=exchange.latency_seconds,
                usage=exchange.usage,
            )
            text = json.dumps(to_json_dict(line), ensure_ascii=False) + "\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(text)
            self._lines += 1
            pairs.append(("assistant", exchange.response_text))
            self._tails[task_id] = _Tail(conversation, turn, len(pairs), _digest(pairs))


def _written(entry: TranscriptEntry) -> tuple[Message, ...]:
    """The conversation as it stands after an exchange: its request, then the reply."""
    return entry.exchange.request_messages + (Message("assistant", entry.exchange.response_text),)


def read_transcript(path: Path) -> list[TranscriptEntry]:
    """Every exchange of a transcript in file order, each with its whole request.

    A line that continues an unknown conversation, or that does not decode,
    raises ValueError naming its line number. A line of the older layout,
    which has no ``conversation``, does not decode.
    """
    entries: list[TranscriptEntry] = []
    tails: dict[tuple[str, int], TranscriptEntry] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for number, text in enumerate(fh, 1):
            try:
                line = from_json_dict(TranscriptLine, json.loads(text))
                key = (line.task_id, line.conversation)
                tail = tails.get(key)
                if tail is None and line.turn:
                    raise ValueError(
                        f"turn {line.turn} continues an unknown conversation "
                        f"{line.conversation} of task {line.task_id!r}"
                    )
                if tail is not None and line.turn != tail.turn + 1:
                    raise ValueError(
                        f"turn {line.turn} cannot follow turn {tail.turn} of conversation "
                        f"{line.conversation} of task {line.task_id!r}"
                    )
                request = line.new_messages if tail is None else _written(tail) + line.new_messages
            except (ValueError, PromptError) as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            exchange = ChatExchange(request, line.response_text, line.latency_seconds, line.usage)
            entry = TranscriptEntry(
                line.task_id, line.conversation, line.turn, line.model, line.timestamp, exchange
            )
            tails[key] = entry
            entries.append(entry)
    return entries


def _retry_after(response: requests.Response) -> float | None:
    """The wait a 429 or 503 reply asks for in delta-seconds, capped; None for none."""
    if response.status_code not in (429, 503):
        return None
    value = response.headers.get("Retry-After", "").strip()
    if not (value.isascii() and value.isdigit()):  # absent, or an HTTP date
        return None
    return min(float(value), RETRY_AFTER_CAP)


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
    if transcript is not None:
        transcript.append(task_id, model, exchange)


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

        attempts = TRANSPORT_RETRIES + 1
        last_error: Exception | None = None
        wait: float | None = None  # what the last reply asked for
        for attempt in range(attempts):
            if attempt:
                time.sleep(min(0.5 * 2**attempt, 8.0) if wait is None else wait)
                wait = None
            start = time.monotonic()
            try:
                response = self._session.post(url, json=body, headers=headers, timeout=REQUEST_TIMEOUT)
            except requests.RequestException as exc:
                last_error = exc
                continue
            if response.status_code in RETRYABLE_STATUS and attempt + 1 < attempts:
                last_error = BackendError(f"HTTP {response.status_code}: {response.text[:200]}")
                wait = _retry_after(response)
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
    """A mock script is a JSON array of responses or a task-id-keyed object.

    An empty response is refused here, as HttpBackend refuses empty message
    text, so a run stops before its first task instead of within one.
    """
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise BackendError(f"{path}: cannot load mock script: {exc}") from exc
    if isinstance(data, list):
        if not all(isinstance(item, str) for item in data):
            raise BackendError(f"{path}: mock script array must contain only strings")
        _refuse_empty(path, "", data)
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
            _refuse_empty(path, repr(key), normalized[key])
        return normalized
    raise BackendError(f"{path}: mock script must be a JSON array or object")


def _refuse_empty(path: Path, key: str, responses: list[str]) -> None:
    for index, response in enumerate(responses):
        if not response:
            raise BackendError(f"{path}: mock script entry {key}[{index}] is an empty response")


@dataclass
class MockBackend:
    """Replays scripted responses; blind to prompt content except the task id."""

    script: list[str] | dict[str, list[str]]
    model: str = "mock"
    transcript: TranscriptWriter | None = None
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # The next response's position per task id; an array script is one queue, under None.
    _cursors: dict[str | None, int] = field(default_factory=dict, repr=False)

    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange:
        _check_conversation(conversation)
        with self._lock:
            key = None if isinstance(self.script, list) else task_id
            entries = self.script if key is None else self.script.get(key)
            if entries is None:
                raise ScriptExhaustedError(f"mock script has no entry for task '{task_id}'")
            position = self._cursors.get(key, 0)
            if position >= len(entries):
                queue = "" if key is None else f" for task '{task_id}'"
                raise ScriptExhaustedError(f"mock script{queue} exhausted after {len(entries)} responses")
            text = entries[position]
            self._cursors[key] = position + 1
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
