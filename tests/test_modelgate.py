import json
import os
import sys
import threading
import time

import pytest
import requests

from caploc.modelgate import (
    BackendError,
    HttpBackend,
    ImageAttachment,
    ModelGate,
    ModelRequest,
    Purpose,
    ResponseCache,
    RetryPolicy,
    RetryableBackendError,
    Sampling,
    ScriptExhaustedError,
    ScriptRule,
    ScriptedBackend,
    cache_key,
)


def make_req(**kw):
    base = dict(model="m", system="sys", user="hello", purpose="detect")
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
    max_delay; otherwise the policy's backoff applies."""
    sleeps = []
    gate = ModelGate(
        HttpBackend("http://localhost:9", session=BusySession(status, header)),
        retry=RetryPolicy(attempts=3, base_delay=0.5, max_delay=8.0),
        sleep=sleeps.append,
    )
    response = gate.complete(make_req())
    assert (response.text, response.attempts) == ("ok", 2)
    assert sleeps == [wait]


def test_cache_key_stable():
    assert cache_key(make_req()) == cache_key(make_req())


def test_cache_key_sensitive_to_fields():
    base = cache_key(make_req())
    assert cache_key(make_req(user="other")) != base
    assert cache_key(make_req(model="m2")) != base
    assert cache_key(make_req(purpose="inject")) != base
    assert cache_key(make_req(sampling=Sampling(temperature=0.7))) != base
    assert cache_key(make_req(image=ImageAttachment(b"\x00\x01"))) != base
    assert cache_key(make_req(image=ImageAttachment(b"\x00\x02"))) != cache_key(
        make_req(image=ImageAttachment(b"\x00\x01"))
    )


def test_temperature_defaults_to_zero():
    assert Sampling().temperature == 0.0


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


@pytest.mark.parametrize(
    "entry",
    [
        b"\xff\xfe not utf-8",
        b'["text", "stale"]',
        b'{"text": 5}',
        b'{"text": "A\\ud800"}',
        b"[" * 100_000,
    ],
    ids=["not_utf8", "json_list", "text_not_a_string", "lone_surrogate", "deep"],
)
def test_unreadable_cache_entry_is_a_miss(tmp_path, caplog, entry):
    cache = ResponseCache(tmp_path / "cache")
    path = tmp_path / "cache" / f"{cache_key(make_req())}.json"
    path.write_bytes(entry)
    backend = ScriptedBackend([ScriptRule(purpose="detect", responses=["fresh"])])
    gate = ModelGate(backend, cache=cache)
    with caplog.at_level("WARNING", logger="caploc.modelgate"):
        response = gate.complete(make_req())
    assert (response.text, response.cache_hit) == ("fresh", False)
    assert len(backend.requests) == 1
    assert "dropping unreadable cache entry" in caplog.text
    assert json.loads(path.read_text(encoding="utf-8")) == {"text": "fresh"}


def test_cache_entry_bytes(tmp_path):
    """One JSON object, non-ASCII text kept as UTF-8, no trailing newline."""
    cache = ResponseCache(tmp_path)
    cache.put("k", 'café "q"\n')
    assert (tmp_path / "k.json").read_bytes() == b'{"text": "caf\xc3\xa9 \\"q\\"\\n"}'
    assert cache.get("k") == 'café "q"\n'


@pytest.mark.parametrize("failing", ["write", "replace"])
def test_failed_cache_put_leaves_no_temp_file(tmp_path, monkeypatch, failing):
    cache = ResponseCache(tmp_path)

    def fail(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, failing, fail)
    with pytest.raises(OSError, match="No space left"):
        cache.put("k", "reply")
    monkeypatch.undo()
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
    gate = ModelGate(
        backend,
        retry=RetryPolicy(attempts=3, base_delay=0.5),
        sleep=sleeps.append,
    )
    resp = gate.complete(make_req())
    assert resp.text == "recovered"
    assert resp.attempts == 3
    assert sleeps == [0.5, 1.0]


def test_retry_exhausted():
    backend = FlakyBackend(fail_times=99)
    gate = ModelGate(backend, retry=RetryPolicy(attempts=2, base_delay=0.0), sleep=lambda s: None)
    with pytest.raises(BackendError, match="after 2 attempts"):
        gate.complete(make_req())
    assert backend.calls == 2


class FatalBackend:
    id = "fatal"

    def __init__(self):
        self.calls = 0

    def send(self, req):
        self.calls += 1
        raise BackendError("HTTP 401: bad key")


def test_non_retryable_not_retried():
    backend = FatalBackend()
    gate = ModelGate(backend, retry=RetryPolicy(attempts=3))
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


def test_retry_delay_capped():
    policy = RetryPolicy(attempts=10, base_delay=1.0, max_delay=4.0)
    assert policy.delay(1) == 1.0
    assert policy.delay(3) == 4.0
    assert policy.delay(9) == 4.0


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
