import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings, strategies as st

from caploc import modelgate
from caploc.modelgate import (
    BackendError,
    HttpBackend,
    ImageAttachment,
    ModelGate,
    ModelRequest,
    ModelResponse,
    Purpose,
    ResponseCache,
    RetryableBackendError,
    ScriptExhaustedError,
    ScriptRule,
    ScriptedBackend,
    cache_key,
)


def make_req(**kw):
    base = dict(model="m", user="hello", purpose="detect")
    base.update(kw)
    return ModelRequest(**base)


@pytest.mark.parametrize(
    "exc, retryable",
    [
        (requests.ConnectionError("refused"), True),
        (requests.Timeout("slow"), True),
        (requests.exceptions.ChunkedEncodingError("connection broken"), False),
        (requests.TooManyRedirects("redirect loop"), False),
    ],
    ids=["connection", "timeout", "chunked_encoding", "redirects"],
)
def test_http_transport_errors_are_backend_errors(exc, retryable):
    class Session:
        def post(self, url, **kwargs):
            raise exc

    backend = HttpBackend("http://localhost:9", session=Session())
    with pytest.raises(BackendError) as info:
        backend.send(make_req())
    assert isinstance(info.value, RetryableBackendError) == retryable


def test_http_reply_nested_too_deeply_is_not_retried():
    class Session:
        def post(self, url, **kwargs):
            resp = requests.Response()
            resp.status_code, resp._content = 200, b"[" * 100_000
            return resp

    backend = HttpBackend("http://localhost:9", session=Session())
    with pytest.raises(BackendError, match="malformed backend response") as info:
        backend.send(make_req())
    assert not isinstance(info.value, RetryableBackendError)


def test_http_backend_without_requests_raises_backend_error(monkeypatch):
    monkeypatch.setitem(sys.modules, "requests", None)
    with pytest.raises(BackendError, match="needs the 'requests' package"):
        HttpBackend("http://localhost:9")


class BusySession:
    """Stands in for requests.Session: the first post gets the given status
    and Retry-After header (None for no header), every later one a 200."""

    def __init__(self, status, retry_after):
        self.first = (status, retry_after)

    def post(self, url, **kwargs):
        resp = requests.Response()
        resp.status_code, resp._content = 200, json.dumps({"text": "ok"}).encode()
        if self.first is not None:
            (resp.status_code, header), self.first = self.first, None
            resp._content = b"busy"
            if header is not None:
                resp.headers["Retry-After"] = header
        return resp


@pytest.mark.parametrize(
    "status, header, wait",
    [
        (429, "3", 3.0),
        (503, " 0 ", 0.0),
        (503, "1.5", 1.5),
        (429, "120", 8.0),
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.5),
        (503, "soon", 0.5),
        (429, "-1", 0.5),
        (429, None, 0.5),
        (500, "3", 0.5),
    ],
    ids=[
        "429_seconds",
        "503_zero",
        "503_fraction",
        "capped_at_max_delay",
        "http_date_ignored",
        "malformed_ignored",
        "negative_ignored",
        "no_header",
        "500_not_read",
    ],
)
def test_retry_after_sets_the_backoff(status, header, wait):
    """429 and 503 replies wait the server's Retry-After seconds, capped at
    8 s; otherwise the first backoff wait, 0.5 s, applies."""
    sleeps = []
    gate = ModelGate(
        HttpBackend("http://localhost:9", session=BusySession(status, header)),
        sleep=sleeps.append,
    )
    response = gate.complete(make_req())
    assert (response.text, response.attempts) == ("ok", 2)
    assert sleeps == [wait]


@pytest.mark.parametrize("status", [400, 401, 404, 422])
def test_http_4xx_other_than_429_is_sent_once(status):
    """A client error is no transient failure: the gate does not resend it,
    though the next post would be answered."""
    sleeps = []
    gate = ModelGate(
        HttpBackend("http://localhost:9", session=BusySession(status, "3")),
        sleep=sleeps.append,
    )
    with pytest.raises(BackendError, match=f"HTTP {status}: busy") as info:
        gate.complete(make_req())
    assert not isinstance(info.value, RetryableBackendError)
    assert sleeps == []


@pytest.mark.parametrize(
    "kwargs, env, headers",
    [
        ({}, {"CAPLOC_API_KEY": "secret"}, {"Authorization": "Bearer secret"}),
        (
            {"api_key_env": "OTHER_KEY"},
            {"OTHER_KEY": "secret", "CAPLOC_API_KEY": "wrong"},
            {"Authorization": "Bearer secret"},
        ),
        ({}, {"CAPLOC_API_KEY": ""}, {}),
        ({}, {}, {}),
    ],
    ids=["default_variable", "named_variable", "empty", "unset"],
)
def test_http_bearer_token_only_when_its_variable_is_set(monkeypatch, kwargs, env, headers):
    posts = []

    class Session:
        def post(self, url, **kwargs):
            posts.append(kwargs["headers"])
            resp = requests.Response()
            resp.status_code, resp._content = 200, b'{"text": "ok"}'
            return resp

    for name in ("CAPLOC_API_KEY", "OTHER_KEY"):
        monkeypatch.delenv(name, raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    assert HttpBackend("http://localhost:9", session=Session(), **kwargs).send(make_req()) == "ok"
    assert posts == [headers]


def test_cache_key_stable():
    assert cache_key(make_req()) == cache_key(make_req())


def test_cache_key_sensitive_to_fields():
    base = cache_key(make_req())
    assert cache_key(make_req(user="other")) != base
    assert cache_key(make_req(model="m2")) != base
    assert cache_key(make_req(purpose="inject")) != base
    assert cache_key(make_req(image=ImageAttachment(b"\x00\x01"))) != base
    assert cache_key(make_req(image=ImageAttachment(b"\x00\x02"))) != cache_key(
        make_req(image=ImageAttachment(b"\x00\x01"))
    )


def test_cache_keys_are_pinned():
    """A key's payload holds an empty system message and sampling (0.0,
    4096), so caches written with those fields stay warm."""
    assert cache_key(make_req()) == (
        "36de1b1947a25e08e6ab79d1097ba9558c9f601a2d563c0fecf9ed49dfc8c301"
    )
    req = make_req(purpose="evaluate", image=ImageAttachment(b"png-bytes"))
    assert cache_key(req) == "727f7af539ea5f80c13a176792555029e08efbb60627b34729b9f09e11d5dd46"


def test_http_body_is_pinned():
    """The HTTP body holds an empty system message, temperature 0.0 and
    max_tokens 4096, and the post waits at most 120 s."""
    posts = []

    class Session:
        def post(self, url, **kwargs):
            posts.append((url, kwargs))
            resp = requests.Response()
            resp.status_code, resp._content = 200, b'{"text": "ok"}'
            return resp

    backend = HttpBackend("http://localhost:9/", session=Session())
    assert backend.send(make_req(image=ImageAttachment(b"png-bytes"))) == "ok"
    ((url, kwargs),) = posts
    assert url == "http://localhost:9"
    assert kwargs["timeout"] == 120.0
    assert kwargs["json"] == {
        "model": "m",
        "messages": [
            {"role": "system", "content": [{"type": "text", "text": ""}]},
            {
                "role": "user",
                "content": [
                    {"type": "text", "text": "hello"},
                    {"type": "image", "media_type": "image/png", "data": "cG5nLWJ5dGVz"},
                ],
            },
        ],
        "temperature": 0.0,
        "max_tokens": 4096,
    }


def test_scripted_single_reply():
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["found it"])])
    gate = ModelGate(backend)
    resp = gate.complete(make_req())
    assert resp.text == "found it"
    assert resp.attempts == 1
    assert not resp.cache_hit


def test_scripted_matches_purpose_and_content():
    backend = ScriptedBackend(
        [
            ScriptRule(purpose="inject", responses=["wrong"]),
            ScriptRule(purpose="detect", contains="red car", responses=["by content"]),
            ScriptRule(purpose="detect", responses=["fallback"]),
        ]
    )
    gate = ModelGate(backend)
    assert gate.complete(make_req(user="about a red car")).text == "by content"
    assert gate.complete(make_req(user="something else")).text == "fallback"


def test_scripted_responses_consumed_in_order():
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["a", "b"])])
    gate = ModelGate(backend)
    assert gate.complete(make_req(user="u1")).text == "a"
    assert gate.complete(make_req(user="u2")).text == "b"


def test_scripted_responder_callable():
    backend = ScriptedBackend(
        [ScriptRule(purpose="detect", responder=lambda req: req.user.upper())]
    )
    gate = ModelGate(backend)
    assert gate.complete(make_req(user="shout")).text == "SHOUT"


def test_scripted_exhaustion_names_purpose():
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["only"])])
    gate = ModelGate(backend)
    gate.complete(make_req(user="u1"))
    with pytest.raises(ScriptExhaustedError, match="detect"):
        gate.complete(make_req(user="u2"))


def test_cache_roundtrip(tmp_path):
    cache = ResponseCache(tmp_path / "cache")
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["once"])])
    gate = ModelGate(backend, cache=cache)
    first = gate.complete(make_req())
    second = gate.complete(make_req())
    assert not first.cache_hit
    assert second.cache_hit
    assert second.text == "once"
    assert second.attempts == 0
    assert len(backend.requests) == 1


def test_cache_survives_new_gate(tmp_path):
    cache_dir = tmp_path / "cache"
    gate1 = ModelGate(
        ScriptedBackend([ScriptRule(purpose="detect", responses=["persisted"])]),
        cache=ResponseCache(cache_dir),
    )
    gate1.complete(make_req())
    gate2 = ModelGate(ScriptedBackend([]), cache=ResponseCache(cache_dir))
    assert gate2.complete(make_req()).text == "persisted"


KEY = cache_key(make_req())


def log_of(directory):
    return directory / "responses.jsonl"


@pytest.mark.parametrize(
    "line",
    [
        b'{"key": "KEY", "text": "\xff\xfe not utf-8"}',
        b'["KEY", "stale"]',
        b'{"key": "KEY", "text": 5}',
        b'{"key": "KEY", "text": "A\\ud800"}',
        b"[" * 100_000,
        b'{"key": 5, "text": "stale"}',
        b'{"text": "stale"}',
    ],
    ids=[
        "not_utf8",
        "json_list",
        "text_not_a_string",
        "lone_surrogate",
        "deep",
        "key_not_a_string",
        "no_key",
    ],
)
def test_unreadable_cache_entry_is_a_miss(tmp_path, caplog, line):
    """A log line that is not UTF-8 JSON holding an object with a string
    "key" and "text", free of surrogates, is skipped with a warning naming
    its file and line; the fresh reply is appended and read back."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    log_of(cache_dir).write_bytes(b"\n" + line.replace(b"KEY", KEY.encode()) + b"\n")
    with caplog.at_level("WARNING", logger="caploc.modelgate"):
        cache = ResponseCache(cache_dir)
    assert f"dropping unreadable cache entry {log_of(cache_dir)}:2" in caplog.text
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["fresh"])])
    response = ModelGate(backend, cache=cache).complete(make_req())
    assert (response.text, response.cache_hit) == ("fresh", False)
    assert len(backend.requests) == 1
    assert ResponseCache(cache_dir).get(KEY) == "fresh"


def test_cache_entry_bytes(tmp_path):
    """One JSON object per line, non-ASCII text kept as UTF-8, each put
    appended after the last."""
    cache = ResponseCache(tmp_path)
    cache.put("k", 'café "q"\n')
    cache.put("k2", "b")
    assert log_of(tmp_path).read_bytes() == (
        b'{"key": "k", "text": "caf\xc3\xa9 \\"q\\"\\n"}\n{"key": "k2", "text": "b"}\n'
    )
    assert [p.name for p in tmp_path.iterdir()] == ["responses.jsonl"]
    assert ResponseCache(tmp_path).get("k") == 'café "q"\n'


def _enospc(*args):
    raise OSError(28, "No space left on device")


@pytest.mark.parametrize("failing", ["write", "short_write", "directory_removed"])
def test_failed_cache_put_leaves_no_hit(tmp_path, monkeypatch, caplog, failing):
    """A put that fails raises; neither the cache nor one built afterwards
    on the same directory holds the entry."""
    cache_dir = tmp_path / "cache"
    cache = ResponseCache(cache_dir)
    real_write = os.write
    if failing == "directory_removed":
        cache_dir.rmdir()
        error = FileNotFoundError
    elif failing == "write":
        monkeypatch.setattr(os, "write", _enospc)
        error = OSError
    else:
        monkeypatch.setattr(os, "write", lambda fd, data: real_write(fd, data[: len(data) // 2]))
        error = OSError
    with pytest.raises(error):
        cache.put("k", "reply")
    monkeypatch.undo()
    assert cache.get("k") is None
    with caplog.at_level("WARNING", logger="caploc.modelgate"):
        assert ResponseCache(cache_dir).get("k") is None


def test_torn_last_line_is_a_miss_and_the_next_put_reads_back(tmp_path, caplog):
    """A log that ends inside a line, as a crash or a full disk leaves it:
    the torn entry is a miss, and the next put starts a line of its own."""
    whole = b'{"key": "a", "text": "kept"}\n'
    torn = b'{"key": "b", "text": "cut sh'
    log_of(tmp_path).write_bytes(whole + torn)
    with caplog.at_level("WARNING", logger="caploc.modelgate"):
        cache = ResponseCache(tmp_path)
    assert f"dropping unreadable cache entry {log_of(tmp_path)}:2" in caplog.text
    assert (cache.get("a"), cache.get("b")) == ("kept", None)
    cache.put("b", "whole")
    cache.put("c", "next")
    assert log_of(tmp_path).read_bytes() == (
        whole + torn + b'\n{"key": "b", "text": "whole"}\n{"key": "c", "text": "next"}\n'
    )
    reread = ResponseCache(tmp_path)
    assert [reread.get(k) for k in "abc"] == ["kept", "whole", "next"]


def test_legacy_entry_files_are_ignored(tmp_path, caplog):
    """<key>.json files of the older one-file-per-entry layout are neither
    read nor warned about: such a cache is cold, and the request goes to the
    backend, whose reply goes only to the log."""
    (tmp_path / f"{KEY}.json").write_bytes(b'{"text": "from an old run"}')
    (tmp_path / "bad.json").write_bytes(b'{"text": 5}')
    with caplog.at_level("WARNING", logger="caploc.modelgate"):
        cache = ResponseCache(tmp_path)
    assert caplog.text == ""
    assert cache.get(KEY) is None
    gate = ModelGate(ScriptedBackend([ScriptRule(purpose="detect", responses=["fresh"])]), cache=cache)
    assert gate.complete(make_req()) == ModelResponse("fresh", False, 1)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["bad.json", f"{KEY}.json", "responses.jsonl"]
    )
    assert ResponseCache(tmp_path).get(KEY) == "fresh"


def test_line_separators_and_control_characters_round_trip(tmp_path):
    """Only b"\\n" ends a log line: replies holding the separators that
    str.splitlines also splits on, a carriage return or a NUL come back
    whole."""
    texts = {
        "ls": "a\u2028b",
        "ps": "a\u2029b",
        "nel": "a\u0085b",
        "cr": "a\rb\r\n",
        "nul": "a\x00b",
        "fs": "a\x1c\x1d\x1eb\x0b\x0c",
        "lf": "a\nb\n",
    }
    cache = ResponseCache(tmp_path)
    for key, text in texts.items():
        cache.put(key, text)
    reread = ResponseCache(tmp_path)
    assert {key: reread.get(key) for key in texts} == texts


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.text(), st.text(), max_size=4))
def test_any_utf8_text_round_trips(entries):
    with tempfile.TemporaryDirectory() as directory:
        cache = ResponseCache(directory)
        for key, text in entries.items():
            cache.put(key, text)
        reread = ResponseCache(directory)
        assert {key: reread.get(key) for key in entries} == entries


_WRITER = """
import sys
from caploc.modelgate import ResponseCache

directory, name, n = sys.argv[1], sys.argv[2], int(sys.argv[3])
cache = ResponseCache(directory)
for i in range(n):
    cache.put(f"{name}{i}", f"{name} reply {i} " * 50)
"""

_READER = """
import sys
from caploc.modelgate import ResponseCache

directory, n = sys.argv[1], int(sys.argv[2])
cache = ResponseCache(directory)
missed = [f"{name}{i}" for name in "ab" for i in range(n)
          if cache.get(f"{name}{i}") != f"{name} reply {i} " * 50]
print(len(missed))
"""


def test_processes_share_a_cache_directory(tmp_path):
    """Two processes appending to one log at once lose no line; a third
    reads every entry back. A cache built before a put elsewhere does not
    see it."""
    n = 300
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    early = ResponseCache(tmp_path)
    writers = [
        subprocess.Popen([sys.executable, "-c", _WRITER, str(tmp_path), name, str(n)], env=env)
        for name in "ab"
    ]
    assert [w.wait(timeout=60) for w in writers] == [0, 0]
    reader = subprocess.run(
        [sys.executable, "-c", _READER, str(tmp_path), str(n)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert (reader.returncode, reader.stdout, reader.stderr) == (0, "0\n", "")
    assert len(log_of(tmp_path).read_bytes().split(b"\n")) == 2 * n + 1
    assert early.get("a0") is None


def test_threads_share_a_cache(tmp_path):
    """Threads putting into one cache at once lose no entry and no line."""
    n_threads, per_thread = 8, 50
    cache = ResponseCache(tmp_path)
    barrier = threading.Barrier(n_threads)

    def worker(t):
        barrier.wait()
        for i in range(per_thread):
            cache.put(f"{t}-{i}", f"reply {t} {i} " * 20)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    want = {f"{t}-{i}": f"reply {t} {i} " * 20 for t in range(n_threads) for i in range(per_thread)}
    reread = ResponseCache(tmp_path)
    assert {key: reread.get(key) for key in want} == want == {key: cache.get(key) for key in want}
    assert log_of(tmp_path).read_bytes().count(b"\n") == len(want)


def test_cache_without_a_directory_lives_in_memory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    cache = ResponseCache(None)
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["once"])])
    gate = ModelGate(backend, cache=cache)
    assert [gate.complete(make_req()).cache_hit for _ in range(2)] == [False, True]
    assert len(backend.requests) == 1
    assert list(tmp_path.iterdir()) == []


class FlakyBackend:
    id = "flaky"

    def __init__(self, fail_times):
        self.fail_times = fail_times
        self.calls = 0

    def send(self, req):
        self.calls += 1
        if self.calls <= self.fail_times:
            raise RetryableBackendError("transient")
        return "recovered"


def test_retry_until_success():
    sleeps = []
    backend = FlakyBackend(fail_times=2)
    gate = ModelGate(backend, sleep=sleeps.append)
    resp = gate.complete(make_req())
    assert resp.text == "recovered"
    assert resp.attempts == 3
    assert sleeps == [0.5, 1.0]


def test_retry_exhausted():
    backend = FlakyBackend(fail_times=99)
    gate = ModelGate(backend, sleep=lambda s: None)
    with pytest.raises(BackendError, match="after 3 attempts"):
        gate.complete(make_req())
    assert backend.calls == 3


class FatalBackend:
    id = "fatal"

    def __init__(self):
        self.calls = 0

    def send(self, req):
        self.calls += 1
        raise BackendError("HTTP 401: bad key")


def test_non_retryable_not_retried():
    backend = FatalBackend()
    gate = ModelGate(backend)
    with pytest.raises(BackendError, match="401"):
        gate.complete(make_req())
    assert backend.calls == 1


def test_reply_with_a_lone_surrogate_fails_once_and_is_not_cached(tmp_path):
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["A red car.\ud800"])])
    gate = ModelGate(backend, cache=ResponseCache(tmp_path / "cache"))
    with pytest.raises(BackendError, match=r"model 'm' \(detect\).*not valid UTF-8"):
        gate.complete(make_req())
    assert len(backend.requests) == 1
    assert list((tmp_path / "cache").iterdir()) == []


class SlowBackend:
    id = "slow"

    def __init__(self):
        self.calls = 0
        self.release = threading.Event()

    def send(self, req):
        self.calls += 1
        self.release.wait(timeout=5)
        return "slow answer"


def test_inflight_dedup():
    backend = SlowBackend()
    gate = ModelGate(backend)
    results = []

    def worker():
        results.append(gate.complete(make_req()))

    threads = [threading.Thread(target=worker) for _ in range(4)]
    for t in threads:
        t.start()
    # give all threads time to reach the gate before releasing the backend
    import time

    time.sleep(0.2)
    backend.release.set()
    for t in threads:
        t.join()
    assert backend.calls == 1
    assert {r.text for r in results} == {"slow answer"}


def test_request_missing_the_cache_while_its_twin_finishes_is_sent_once():
    """A request that misses the cache while an identical one is answered
    and leaves flight is not sent again: the cache lookup and the in-flight
    lookup are one step. Thread A is held inside the cache lookup, after its
    miss, until B's complete returns, or for at most a second when the
    lookup holds the gate's lock and B cannot get past it."""
    backend = ScriptedBackend([ScriptRule(purpose="detect", responder=lambda req: "once")])
    gate = ModelGate(backend, cache=ResponseCache(None))
    get = gate.cache.get
    a_inside, b_done = threading.Event(), threading.Event()

    def holding_get(key):
        cached = get(key)
        if not a_inside.is_set():  # only A calls get before B starts
            a_inside.set()
            b_done.wait(timeout=1)
        return cached

    gate.cache.get = holding_get
    texts = []

    def run(done):
        texts.append(gate.complete(make_req()).text)
        done.set()

    a = threading.Thread(target=run, args=(threading.Event(),))
    a.start()
    assert a_inside.wait(timeout=5)
    b = threading.Thread(target=run, args=(b_done,))
    b.start()
    for t in (a, b):
        t.join(timeout=10)
    assert not a.is_alive() and not b.is_alive()
    assert texts == ["once", "once"]
    assert len(backend.requests) == 1


def test_threads_send_each_distinct_request_once():
    """Threads racing over a few distinct requests, with thread switches
    forced often, send each one once and all get its reply."""
    backend = ScriptedBackend([ScriptRule(purpose="detect", responder=lambda req: req.user)])
    gate = ModelGate(backend)
    n_threads, n_users, per_thread = 8, 5, 200
    barrier = threading.Barrier(n_threads)
    wrong = []

    def worker(t):
        barrier.wait()
        for i in range(per_thread):
            user = f"u{(i * 7 + t) % n_users}"
            if gate.complete(make_req(user=user)).text != user:
                wrong.append(user)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert wrong == []
    assert sorted(r.user for r in backend.requests) == [f"u{i}" for i in range(n_users)]


def test_joined_call_raises_the_owners_error(monkeypatch):
    """A request identical to one in flight waits for it and raises the
    error its call raised; the backend is called once, and the failed
    request is not remembered, so the next one is sent again."""
    joined = threading.Event()

    class WatchedFuture(modelgate.Future):
        def result(self, timeout=None):
            joined.set()
            return super().result(timeout)

    monkeypatch.setattr(modelgate, "Future", WatchedFuture)

    class FailingAfterJoin:
        def __init__(self):
            self.calls = 0
            self.entered = threading.Event()

        def send(self, req):
            self.calls += 1
            self.entered.set()
            joined.wait(timeout=5)
            raise BackendError("HTTP 401: bad key")

    backend = FailingAfterJoin()
    gate = ModelGate(backend)
    errors = []

    def run():
        try:
            gate.complete(make_req())
        except BackendError as exc:
            errors.append(exc)

    a = threading.Thread(target=run)
    a.start()
    assert backend.entered.wait(timeout=5)
    b = threading.Thread(target=run)
    b.start()
    for t in (a, b):
        t.join(timeout=10)
    assert not a.is_alive() and not b.is_alive()
    assert len(errors) == 2 and errors[0] is errors[1]
    assert backend.calls == 1
    with pytest.raises(BackendError, match="401"):
        gate.complete(make_req())
    assert backend.calls == 2


def test_purpose_enum_values():
    assert {p.value for p in Purpose} == {"inject", "detect", "evaluate"}


class SlowList(list):
    """A response list whose emptiness check yields to other threads, which
    widens the window between a rule's check and its pop."""

    def __len__(self):
        n = super().__len__()
        time.sleep(0.001)
        return n


def test_scripted_backend_shared_between_threads():
    """Threads racing for listed responses each take a different one; once
    the list is empty every further request raises ScriptExhaustedError."""
    n_responses, n_threads, per_thread = 20, 4, 10
    backend = ScriptedBackend(
        [ScriptRule(purpose="detect", responses=SlowList(str(i) for i in range(n_responses)))]
    )
    got: list[str] = []
    exhausted: list[int] = []
    barrier = threading.Barrier(n_threads)

    def worker():
        barrier.wait()
        for _ in range(per_thread):
            try:
                got.append(backend.send(make_req()))
            except ScriptExhaustedError:
                exhausted.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert sorted(got, key=int) == [str(i) for i in range(n_responses)]
    assert len(exhausted) == n_threads * per_thread - n_responses
    assert len(backend.requests) == n_threads * per_thread
