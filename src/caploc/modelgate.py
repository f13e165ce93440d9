"""Uniform model access: one request/response shape for every role a model
plays (injector, detector, model under test, captioner), with an HTTP
backend, a deterministic scripted backend for tests, a response cache
keyed by request content (in memory, or an append-only log of JSON lines
per directory that several processes may share), and retry with
exponential backoff or the server's Retry-After.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Callable

logger = logging.getLogger(__name__)


class Purpose(str, Enum):
    INJECT = "inject"
    DETECT = "detect"
    EVALUATE = "evaluate"


# every request is sent greedily with one length cap and an empty system
# message; the cache key still names them, so existing caches stay valid
_TEMPERATURE = 0.0
_MAX_TOKENS = 4096
_HTTP_TIMEOUT_S = 120.0
# a request that fails with a retryable error is sent at most _ATTEMPTS
# times, waiting _FIRST_WAIT_S, then twice that, before each resend; a
# Retry-After in seconds sets the wait instead, up to _RETRY_AFTER_CAP_S
_ATTEMPTS = 3
_FIRST_WAIT_S = 0.5
_RETRY_AFTER_CAP_S = 8.0


@dataclass(frozen=True)
class ImageAttachment:
    data: bytes
    media_type: str = "image/png"


@dataclass(frozen=True)
class ModelRequest:
    model: str
    user: str
    purpose: str
    image: ImageAttachment | None = None


@dataclass(frozen=True)
class ModelResponse:
    text: str
    cache_hit: bool
    attempts: int


class BackendError(Exception):
    pass


class RetryableBackendError(BackendError):
    """A failure worth retrying; retry_after is the wait in seconds the
    server asked for, if it named one."""

    def __init__(self, message: str, retry_after: float | None = None):
        super().__init__(message)
        self.retry_after = retry_after


class ScriptExhaustedError(BackendError):
    pass


def cache_key(req: ModelRequest) -> str:
    """Hex digest identifying a request by content.

    Image bytes enter via their own digest so keys stay fixed-size; any field
    that can change the response participates.
    """
    image = None
    if req.image is not None:
        image = {
            "media_type": req.image.media_type,
            "sha256": hashlib.sha256(req.image.data).hexdigest(),
        }
    payload = {
        "model": req.model,
        "system": "",
        "user": req.user,
        "image": image,
        "sampling": {"temperature": _TEMPERATURE, "max_tokens": _MAX_TOKENS},
        "purpose": req.purpose,
    }
    blob = json.dumps(payload, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_utf8(text: str) -> bool:
    """Whether text encodes as UTF-8, i.e. holds no surrogate code point."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


class ResponseCache:
    """Replies keyed by request digest, held in a dict and, with a
    directory, appended to its log file responses.jsonl.

    Each log line is one JSON object {"key": ..., "text": ...}. Construction
    reads the log into the dict; a later line for a key wins. The
    <key>.json entry files of the older one-file-per-entry layout are not
    read: such a cache is cold, never wrong. get() is a dict lookup. put()
    appends its line with one write to a descriptor opened with O_APPEND,
    so processes sharing a directory never interleave parts of lines; a
    process does not see lines another process appends after it started.
    A line that cannot be read is skipped with a warning naming it: a line
    left torn by a crash or a full disk is a miss, never a wrong reply.
    Without a directory the cache lives in memory only.
    """

    def __init__(self, directory: str | Path | None):
        self.directory = None if directory is None else Path(directory)
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()
        self._torn = False  # the log ends inside a line
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self._log = self.directory / "responses.jsonl"
        try:
            data = self._log.read_bytes()
        except FileNotFoundError:
            return
        self._torn = bool(data) and not data.endswith(b"\n")
        # only b"\n" ends a line: a reply may hold U+2028 or U+0085 raw
        for lineno, line in enumerate(data.split(b"\n"), 1):
            if line:
                self._load(line, f"{self._log}:{lineno}")

    def _load(self, line: bytes, where: str) -> None:
        """Take one log line. Anything but UTF-8 JSON holding an object with
        a string "key" and a string "text" is skipped with a warning, as is
        a surrogate escape such as \\ud800, which the gate never caches."""
        try:
            entry = json.loads(line.decode("utf-8"))
            key, text = entry["key"], entry["text"]
        # ValueError covers bad JSON and UTF-8, RecursionError too deep a nesting
        except (ValueError, KeyError, TypeError, RecursionError):
            key = text = None
        if isinstance(key, str) and isinstance(text, str) and _is_utf8(key) and _is_utf8(text):
            self._entries[key] = text
        else:
            logger.warning("dropping unreadable cache entry %s", where)

    def get(self, key: str) -> str | None:
        """The cached reply, or None on a miss."""
        return self._entries.get(key)

    def put(self, key: str, text: str) -> None:
        """Append the entry's line to the log in one write, then hold it.
        A failed or short write raises, and the entry is not held."""
        line = json.dumps({"key": key, "text": text}, ensure_ascii=False).encode("utf-8")
        with self._lock:
            if self.directory is not None:
                # after a torn line, start a fresh one rather than glue onto it
                data = (b"\n" if self._torn else b"") + line + b"\n"
                fd = os.open(self._log, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
                try:
                    written = os.write(fd, data)
                finally:
                    os.close(fd)
                if written != len(data):
                    self._torn = True
                    raise OSError(f"{self._log}: wrote {written} of {len(data)} bytes")
                self._torn = False
            self._entries[key] = text


@dataclass
class ScriptRule:
    """Matches requests by purpose and an optional substring of the user text.

    A responder callable answers every matching request; a response list is
    consumed one element per match and the rule stops matching when empty.
    """

    purpose: str
    contains: str | None = None
    responses: list[str] = field(default_factory=list)
    responder: Callable[[ModelRequest], str] | None = None

    def matches(self, req: ModelRequest) -> bool:
        if req.purpose != self.purpose:
            return False
        if self.contains is not None and self.contains not in req.user:
            return False
        return self.responder is not None or bool(self.responses)


class ScriptedBackend:
    """Deterministic in-process backend: first matching rule answers.

    Safe to share between threads: recording a request and matching and
    consuming a listed response happen under one lock, so concurrent
    requests never take the same response. Responders run outside it.
    """

    def __init__(self, rules: list[ScriptRule]):
        self.rules = list(rules)
        self.requests: list[ModelRequest] = []
        self._lock = threading.Lock()

    def send(self, req: ModelRequest) -> str:
        with self._lock:
            self.requests.append(req)
            for rule in self.rules:
                if rule.matches(req):
                    if rule.responder is None:
                        return rule.responses.pop(0)
                    responder = rule.responder
                    break
            else:
                raise ScriptExhaustedError(
                    f"scripted backend has no response for a {req.purpose!r} request"
                )
        return responder(req)


class HttpBackend:
    """Chat-style JSON-over-HTTP backend.

    Sends {model, messages, temperature, max_tokens}; message content is a
    list of {"type":"text"|"image"} parts, images base64-encoded. Expects a
    JSON object body with a string "text" field; any other reply raises
    BackendError. The bearer token is read from the environment variable
    named at construction.

    requests is imported here and nowhere else in the package, so only a
    command given --base-url loads the HTTP stack; without it installed,
    construction raises BackendError.
    """

    def __init__(
        self,
        base_url: str,
        api_key_env: str | None = None,
        session: requests.Session | None = None,
    ):
        try:
            import requests
        except ImportError as exc:
            raise BackendError(
                f"the HTTP backend needs the 'requests' package, which cannot be imported: {exc}"
            ) from exc
        self.base_url = base_url.rstrip("/")
        self.api_key_env = api_key_env or "CAPLOC_API_KEY"
        self.session = session or requests.Session()

    def send(self, req: ModelRequest) -> str:
        import base64

        import requests

        headers = {}
        token = os.environ.get(self.api_key_env)
        if token:
            headers["Authorization"] = f"Bearer {token}"
        user_content: list[dict] = [{"type": "text", "text": req.user}]
        if req.image is not None:
            user_content.append(
                {
                    "type": "image",
                    "media_type": req.image.media_type,
                    "data": base64.b64encode(req.image.data).decode("ascii"),
                }
            )
        body = {
            "model": req.model,
            "messages": [
                {"role": "system", "content": [{"type": "text", "text": ""}]},
                {"role": "user", "content": user_content},
            ],
            "temperature": _TEMPERATURE,
            "max_tokens": _MAX_TOKENS,
        }
        try:
            resp = self.session.post(
                self.base_url, json=body, headers=headers, timeout=_HTTP_TIMEOUT_S
            )
        except (requests.ConnectionError, requests.Timeout) as exc:
            raise RetryableBackendError(f"transport failure: {exc}") from exc
        except requests.RequestException as exc:
            raise BackendError(f"request failed: {type(exc).__name__}: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            retry_after = None
            if resp.status_code in (429, 503):
                retry_after = _retry_after_seconds(resp.headers.get("Retry-After"))
            raise RetryableBackendError(
                f"HTTP {resp.status_code}: {resp.text[:200]}", retry_after=retry_after
            )
        if resp.status_code >= 400:
            raise BackendError(f"HTTP {resp.status_code}: {resp.text[:200]}")
        try:
            data = resp.json()
        except (ValueError, RecursionError) as exc:
            raise BackendError(f"malformed backend response: {exc}") from exc
        text = data.get("text") if isinstance(data, dict) else None
        if not isinstance(text, str):
            raise BackendError(
                f'malformed backend response: no string "text" in {resp.text[:200]}'
            )
        return text


def _retry_after_seconds(value: str | None) -> float | None:
    """A Retry-After header given in seconds; None for an HTTP-date, a
    malformed value or no header."""
    if value is None or not re.fullmatch(r"[0-9]+(\.[0-9]+)?", value.strip()):
        return None
    return float(value)


class ModelGate:
    """Front door for model calls. Under one lock, complete() looks the
    request up in the cache and among the calls in flight: a cached reply
    answers it, an identical call in flight is joined and its outcome,
    reply or error, shared; otherwise the request is sent, with retries,
    and its reply cached. A gate built without a cache keeps replies in
    memory. A reply that is not valid UTF-8 raises BackendError without a
    retry and is not cached."""

    def __init__(
        self,
        backend,
        cache: ResponseCache | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.backend = backend
        self.cache = ResponseCache(None) if cache is None else cache
        self.sleep = sleep
        self._lock = threading.Lock()
        self._inflight: dict[str, Future[str]] = {}

    def complete(self, req: ModelRequest) -> ModelResponse:
        key = cache_key(req)
        with self._lock:
            cached = self.cache.get(key)
            flight = self._inflight.get(key)
            owner = cached is None and flight is None
            if owner:
                flight = self._inflight[key] = Future()
        if cached is not None:
            return ModelResponse(text=cached, cache_hit=True, attempts=0)
        if not owner:
            return ModelResponse(text=flight.result(), cache_hit=True, attempts=0)
        try:
            response = self._call(req)
            self.cache.put(key, response.text)
            flight.set_result(response.text)
            return response
        except BaseException as exc:
            flight.set_exception(exc)
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)

    def _call(self, req: ModelRequest) -> ModelResponse:
        last: BaseException | None = None
        for attempt in range(1, _ATTEMPTS + 1):
            try:
                text = self.backend.send(req)
                if not _is_utf8(text):
                    # every consumer writes replies as UTF-8; fail the one
                    # request now, before the cache or a transcript sees it
                    raise BackendError(
                        f"model {req.model!r} ({req.purpose}) replied with a "
                        "surrogate code point, which is not valid UTF-8"
                    )
                return ModelResponse(text=text, cache_hit=False, attempts=attempt)
            except RetryableBackendError as exc:
                last = exc
                if attempt < _ATTEMPTS:
                    if exc.retry_after is None:
                        wait = _FIRST_WAIT_S * 2 ** (attempt - 1)
                    else:
                        wait = min(exc.retry_after, _RETRY_AFTER_CAP_S)
                    logger.warning(
                        "retryable failure (attempt %d/%d), backing off %.1fs: %s",
                        attempt,
                        _ATTEMPTS,
                        wait,
                        exc,
                    )
                    self.sleep(wait)
        raise BackendError(
            f"backend failed after {_ATTEMPTS} attempts: {last}"
        ) from last
