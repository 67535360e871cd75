"""Chat-completion backends and the transcript of their exchanges.

A backend only answers: an HTTP client, or a deterministic scripted mock.
Its ``ChatExchange`` is the model's reply and what it cost, never the
request. The synthesis loop holds the conversation, so it writes each
exchange to the transcript with the messages that request added, its
conversation id and its turn. ``read_transcript`` returns each line as
written, beside the whole request rebuilt from the lines before it.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING, Protocol, Sequence

from .prompting import Message, PromptError
from .records import from_json_dict, loads_unicode, to_json_dict

if TYPE_CHECKING:
    import requests

RETRYABLE_STATUS = (429, 500, 502, 503, 504)
REQUEST_TIMEOUT = 120.0  # seconds per HTTP request
TRANSPORT_RETRIES = 2  # further tries after a transport error or a retryable status
# The longest wait a Retry-After header gets; a larger value is taken as this.
RETRY_AFTER_CAP = 60.0


class ConfigError(Exception):
    """Bad configuration; callers map this to the environment/config exit code."""


class BackendError(Exception):
    """The backend could not produce a completion; an environment failure."""


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
    """One model answer: its text, the wall time of the call that got it, and
    the token counts the backend reported (None when it reported none)."""

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


def _whole_lines(path: Path) -> int:
    """The number of lines in path, after cutting off a last line that has no newline.

    A line is only ever written whole, so a last line without its newline was
    torn by a killed run. Its task has no record, so a resumed run runs it again.
    """
    try:
        fh = path.open("r+b")
    except FileNotFoundError:
        return 0
    with fh:
        lines = whole = size = 0
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            if b"\n" in chunk:
                lines += chunk.count(b"\n")
                whole = size + chunk.rindex(b"\n") + 1
            size += len(chunk)
        if whole < size:
            fh.truncate(whole)
        return lines


@dataclass
class TranscriptWriter:
    """Append-only JSONL log of every model exchange, flushed before use.

    The caller says where each line belongs. A line with no conversation id
    starts a conversation, whose id is the line's number. A later turn
    passes that id and its turn number, and its new messages are only those
    after the previous turn's reply. The writer keeps no per-task state:
    only the line count, read from the file on the first append, so that
    ids stay unique when a resumed run appends to the file. That first
    append also drops a torn last line, which a killed run can leave.
    """

    path: Path
    model: str
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    _lines: int | None = field(default=None, repr=False)  # counted on first append

    def append(
        self,
        task_id: str,
        new_messages: Sequence[Message],
        exchange: ChatExchange,
        conversation: int | None = None,
        turn: int = 0,
    ) -> int:
        """Write one exchange and return its conversation id."""
        with self._lock:
            if self._lines is None:
                self._lines = _whole_lines(self.path)
            line = TranscriptLine(
                timestamp=datetime.now(timezone.utc).isoformat(),
                task_id=task_id,
                model=self.model,
                conversation=self._lines + 1 if conversation is None else conversation,
                turn=turn,
                new_messages=tuple(new_messages),
                response_text=exchange.response_text,
                latency_seconds=exchange.latency_seconds,
                usage=exchange.usage,
            )
            text = json.dumps(to_json_dict(line), ensure_ascii=False) + "\n"
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with self.path.open("a", encoding="utf-8") as fh:
                fh.write(text)
            self._lines += 1
            return line.conversation


def read_transcript(path: Path) -> list[tuple[TranscriptLine, tuple[Message, ...]]]:
    """Every line of a transcript in file order, each with its whole request.

    The request is the conversation's earlier requests and replies, then the
    line's new messages. A line that continues an unknown conversation, or
    that does not decode, raises ValueError naming its line number. A line
    of the older layout, which has no ``conversation``, does not decode.
    """
    entries: list[tuple[TranscriptLine, tuple[Message, ...]]] = []
    tails: dict[tuple[str, int], tuple[TranscriptLine, tuple[Message, ...]]] = {}
    with Path(path).open(encoding="utf-8") as fh:
        for number, text in enumerate(fh, 1):
            try:
                line = from_json_dict(TranscriptLine, json.loads(text))
                key = (line.task_id, line.conversation)
                request = line.new_messages
                if key in tails:
                    tail, tail_request = tails[key]
                    if line.turn != tail.turn + 1:
                        raise ValueError(
                            f"turn {line.turn} cannot follow turn {tail.turn} of conversation "
                            f"{line.conversation} of task {line.task_id!r}"
                        )
                    reply = Message("assistant", tail.response_text)
                    request = tail_request + (reply,) + line.new_messages
                elif line.turn:
                    raise ValueError(
                        f"turn {line.turn} continues an unknown conversation "
                        f"{line.conversation} of task {line.task_id!r}"
                    )
            except (ValueError, PromptError) as exc:
                raise ValueError(f"{path}: line {number}: {exc}") from None
            tails[key] = (line, request)
            entries.append((line, request))
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


@dataclass
class HttpBackend:
    """Client for a chat-completions endpoint; retries transport-level faults.

    Each thread that calls it gets its own ``requests.Session``: a session is
    not safe to share between the ``--workers`` threads. ``requests`` is
    imported at the first call, so a process that never calls a model (a
    mock run, ``validate``, a dry run) never loads it.
    """

    config: BackendConfig
    _api_key: str = field(init=False, repr=False)
    _local: threading.local = field(default_factory=threading.local, init=False, repr=False)

    def __post_init__(self) -> None:
        key = os.environ.get(self.config.credential_source)
        if not key:
            raise BackendError(
                f"credential environment variable {self.config.credential_source} is not set"
            )
        self._api_key = key

    @property
    def _session(self) -> requests.Session:
        session = getattr(self._local, "session", None)
        if session is None:
            import requests

            session = self._local.session = requests.Session()
        return session

    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange:
        import requests  # here rather than at start-up, and before any latency is timed

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
            return self._parse(response, time.monotonic() - start)
        raise BackendError(f"transport failed after {attempts} attempts: {last_error}")

    def _parse(self, response: requests.Response, latency: float) -> ChatExchange:
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
            # A count that is not exactly an int (12.0, true) is not kept: the
            # transcript's reader would refuse the line it was written to.
            counts = [raw_usage.get(name) for name in ("prompt_tokens", "completion_tokens", "total_tokens")]
            usage = TokenUsage(*(count if type(count) is int else None for count in counts))
        return ChatExchange(text, latency, usage)


def load_mock_script(path: Path) -> list[str] | dict[str, list[str]]:
    """A mock script is a JSON array of responses or a task-id-keyed object.

    An empty response is refused here, as HttpBackend refuses empty message
    text, so a run stops before its first task instead of within one.
    """
    try:
        data = loads_unicode(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeError) as exc:
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
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)
    # The next response's position per task id; an array script is one queue, under None.
    _cursors: dict[str | None, int] = field(default_factory=dict, repr=False)

    def complete(self, conversation: Sequence[Message], task_id: str) -> ChatExchange:
        _check_conversation(conversation)
        with self._lock:
            key = None if isinstance(self.script, list) else task_id
            entries = self.script if key is None else self.script.get(key)
            if entries is None:
                raise BackendError(f"mock script has no entry for task '{task_id}'")
            position = self._cursors.get(key, 0)
            if position >= len(entries):
                queue = "" if key is None else f" for task '{task_id}'"
                raise BackendError(f"mock script{queue} exhausted after {len(entries)} responses")
            text = entries[position]
            self._cursors[key] = position + 1
        return ChatExchange(text, 0.0)


def make_backend(
    config: BackendConfig, mock_script_path: Path | None = None
) -> HttpBackend | MockBackend:
    if config.kind == "mock":
        if mock_script_path is None:
            raise ConfigError("the mock backend requires a script file (--mock-script)")
        return MockBackend(script=load_mock_script(mock_script_path))
    return HttpBackend(config=config)
