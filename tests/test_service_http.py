"""End-to-end HTTP tests: in-process servers plus the CLI subprocess path."""
import http.client
import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from email.utils import parsedate_to_datetime
from http.server import BaseHTTPRequestHandler
from urllib.error import HTTPError
from urllib.parse import urlsplit
from urllib.request import urlopen

import pytest

from antiwatt.errors import CapabilityError
from antiwatt.fixture import generate_fixture
from antiwatt.workload import AntipatternKind, default_config, handlers
from antiwatt.workload.service import WorkloadHTTPHandler, pin_to_core, serve
from antiwatt.workload.state import make_state

K = AntipatternKind


def start_server(kind, handler=None, **overrides):
    """Serve *kind* from a thread; returns its base URL and a stop function."""
    server = serve(default_config(kind, **overrides))
    if handler is not None:
        server.RequestHandlerClass = handler
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()

    def stop():
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)

    host, port = server.server_address[:2]
    return f"http://{host}:{port}", stop


@pytest.fixture
def running(request):
    """Start a server for the given kind; yields its base URL."""

    def start(kind, handler=None, **overrides):
        base, stop = start_server(kind, handler, **overrides)
        request.addfinalizer(stop)
        return base

    return start


def get_json(url):
    with urlopen(url, timeout=10) as resp:
        return resp.status, json.loads(resp.read())


def test_healthz(running):
    base = running(K.THE_RAMP)
    with urlopen(base + "/healthz", timeout=10) as resp:
        assert resp.status == 200
        assert resp.read() == b"ok"


def test_endpoint_returns_work_response_envelope(running):
    base = running(K.THE_RAMP)
    status, payload = get_json(base + "/the-ramp")
    assert status == 200
    assert payload["status"] == "success"
    assert payload["server_elapsed_ms"] >= 0
    assert payload["body_summary"]["store_size"] == 1


def test_wrong_slug_is_404_and_names_the_real_one(running):
    base = running(K.THE_RAMP)
    with pytest.raises(HTTPError) as err:
        urlopen(base + "/god-class", timeout=10)
    assert err.value.code == 404
    payload = json.loads(err.value.read())
    assert payload["expected"] == "/the-ramp"


def test_query_params_reach_the_handler(running):
    base = running(K.SISYPHUS_RETRIEVAL)
    _, payload = get_json(base + "/sisyphus-retrieval?page=3&page_size=7")
    body = payload["body_summary"]
    assert body["page"] == 3 and body["page_size"] == 7 and body["returned"] == 7


def test_god_class_malformed_query_over_http(running):
    base = running(K.GOD_CLASS, iterations=50)
    _, payload = get_json(base + "/god-class?broken~~query")
    assert payload["status"] == "success"
    assert payload["body_summary"]["error_count"] == 1


def test_unbalanced_store_cap_maps_to_507(running, monkeypatch):
    monkeypatch.setattr(handlers, "MAX_STORE_ITEMS", 1)
    base = running(K.UNBALANCED_PROCESSING, iterations=2)
    get_json(base + "/unbalanced-processing")
    with pytest.raises(HTTPError) as err:
        urlopen(base + "/unbalanced-processing", timeout=10)
    assert err.value.code == 507
    assert json.loads(err.value.read())["status"] == "failure"


def test_bind_conflict_raises_actionable_error(running):
    base = running(K.THE_RAMP)
    port = int(base.rsplit(":", 1)[1])
    with pytest.raises(CapabilityError, match="--port"):
        serve(default_config(K.GOD_CLASS), port=port)


def test_concurrent_http_clients_all_served(running):
    base = running(K.ONE_LANE_BRIDGE, iterations=200)
    results = []
    lock = threading.Lock()

    def hit():
        status, payload = get_json(base + "/one-lane-bridge")
        with lock:
            results.append((status, payload["body_summary"]["max_occupancy"]))

    threads = [threading.Thread(target=hit) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(results) == 8
    assert all(status == 200 for status, _ in results)
    assert all(occ == 1 for _, occ in results)


# ------------------------------------------------------------------ reply path


class _CountingSocket(socket.socket):
    """A second handle on an accepted connection that counts its sends."""

    def __init__(self, sock):
        super().__init__(sock.family, sock.type, sock.proto, fileno=os.dup(sock.fileno()))
        self.sends = 0

    def send(self, data, *args):
        self.sends += 1
        return super().send(data, *args)

    def sendall(self, data, *args):
        self.sends += 1
        return super().sendall(data, *args)


class _CountingHandler(WorkloadHTTPHandler):
    """Writes every reply through a counting socket; one per connection."""

    connections = []

    def setup(self):
        self.request = _CountingSocket(self.request)
        self.connections.append(self.request)
        super().setup()

    def finish(self):
        try:
            super().finish()
        finally:
            self.request.close()


def test_a_reply_leaves_in_one_write(running):
    _CountingHandler.connections = []
    base = urlsplit(running(K.UNNECESSARY_PROCESSING, handler=_CountingHandler, iterations=1))
    conn = http.client.HTTPConnection(base.hostname, base.port, timeout=10)
    try:
        for n in (1, 2, 3):
            conn.request("GET", "/unnecessary-processing")
            resp = conn.getresponse()
            assert resp.status == 200 and json.loads(resp.read())["status"] == "success"
            # status line, headers and body in one send per reply
            assert [c.sends for c in _CountingHandler.connections] == [n]
    finally:
        conn.close()


def _reply_headers(base, path, headers):
    conn = http.client.HTTPConnection(base.hostname, base.port, timeout=10)
    try:
        conn.request("GET", path, headers=headers)
        resp = conn.getresponse()
        resp.read()
        return resp.status, resp.getheaders()
    finally:
        conn.close()


@pytest.mark.parametrize("path, status", [
    ("/unnecessary-processing", 200), ("/healthz", 200), ("/elsewhere", 404),
])
def test_a_reply_carries_exactly_its_headers(running, path, status):
    base = urlsplit(running(K.UNNECESSARY_PROCESSING, iterations=1))
    got_status, headers = _reply_headers(base, path, {})
    assert got_status == status
    assert sorted(name for name, _ in headers) == ["Content-Length", "Content-Type", "Date"]
    sent = parsedate_to_datetime(dict(headers)["Date"]).timestamp()
    assert abs(sent - time.time()) < 5
    got_status, headers = _reply_headers(base, path, {"Connection": "close"})
    assert got_status == status
    assert sorted(headers)[0] == ("Connection", "close")
    assert sorted(name for name, _ in headers) == [
        "Connection", "Content-Length", "Content-Type", "Date",
    ]


def test_make_state_builds_the_fixture_only_for_its_readers():
    assert make_state(default_config(K.UNNECESSARY_PROCESSING)).fixture is None
    for kind in (K.SISYPHUS_RETRIEVAL, K.GOD_CLASS, K.CIRCUITOUS_TREASURE_HUNT):
        config = default_config(kind)
        assert make_state(config).fixture == generate_fixture(
            config.dataset_seed, config.dataset_scale
        )


# ---------------------------------------------------------------- request head


class _StockHeadHandler(WorkloadHTTPHandler):
    """The reference: the service's handler with the stdlib's parse_request."""

    parse_request = BaseHTTPRequestHandler.parse_request


@pytest.fixture(scope="module")
def head_servers():
    """The service and the reference, started once for every head case."""
    started = [
        start_server(K.UNNECESSARY_PROCESSING, handler, iterations=1)
        for handler in (None, _StockHeadHandler)
    ]
    yield [urlsplit(base) for base, _ in started]
    for _, stop in started:
        stop()


def _read_status(reader):
    """Status code of the next reply on *reader*, its body skipped; None
    when the server has closed the connection instead."""
    try:
        status_line = reader.readline()
        if not status_line:
            return None
        if not status_line.startswith(b"HTTP/"):
            # an error page alone, as HTTP/0.9 has it: sent when the request
            # line's version is refused, before any version is accepted
            page = status_line + reader.read()
            return int(re.search(rb"Error code: (\d+)", page)[1])
        length = 0
        for line in iter(reader.readline, b"\r\n"):
            assert line, "connection closed inside a reply head"
            name, _, value = line.partition(b":")
            if name.lower() == b"content-length":
                length = int(value)
        reader.read(length)
        return int(status_line.split()[1])
    except ConnectionResetError:  # closed with request bytes left unread
        return None


def _status_and_kept(base, head):
    """Send one raw request *head*: its reply's status, and whether the
    connection stayed open (a second request on it is answered)."""
    with socket.create_connection((base.hostname, base.port), timeout=10) as sock:
        reader = sock.makefile("rb")
        sock.sendall(head)
        status = _read_status(reader)
        try:
            sock.sendall(b"GET /healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
        except (BrokenPipeError, ConnectionResetError):
            return status, False
        return status, _read_status(reader) is not None


_GET = b"GET /unnecessary-processing"


def _fields(n):
    return b"".join(b"X-Field-%d: %d\r\n" % (i, i) for i in range(n))


@pytest.mark.parametrize("head", [
    _GET + b" HTTP/1.1\r\nHost: x\r\n\r\n",
    _GET + b" HTTP/1.0\r\nHost: x\r\n\r\n",
    _GET + b" HTTP/1.1\r\ncoNNection: ClOsE\r\n\r\n",
    _GET + b" HTTP/1.0\r\nCONNECTION: Keep-Alive\r\n\r\n",
    _GET + b" HTTP/1.1\r\nConnection: KEEP-alive\r\n\r\n",
    _GET + b"\r\n\r\n",  # HTTP/0.9
    _GET + b" extra HTTP/1.1\r\n\r\n",
    _GET + b" HTTP/2.0\r\n\r\n",
    _GET + b" HTTP/1\r\n\r\n",
    _GET + b" HTTP/x.1\r\n\r\n",
    _GET + b" HTTP/1.\xb2\r\n\r\n",  # a digit to str.isdigit, not to int()
    _GET + b" HTTP/1.1\r\nConnection: close\r\nConnection: keep-alive\r\n\r\n",
    b"GET //unnecessary-processing HTTP/1.1\r\n\r\n",
    # 65,536 bytes a line is the limit, the line break counted
    _GET + b" HTTP/1.1\r\nX-Pad: " + b"a" * (65_536 - 9) + b"\r\n\r\n",
    _GET + b" HTTP/1.1\r\nX-Pad: " + b"a" * (65_537 - 9) + b"\r\n\r\n",
    # 100 lines is the limit, the blank line that ends the head counted
    _GET + b" HTTP/1.1\r\n" + _fields(99) + b"\r\n",
    _GET + b" HTTP/1.1\r\n" + _fields(100) + b"\r\n",
    _GET + b" HTTP/1.1\r\n" + _fields(101) + b"\r\n",
], ids=[
    "http11", "http10", "close", "keep-alive-10", "keep-alive-11", "http09",
    "four-words", "http2", "http1", "httpx1", "superscript-digit",
    "first-connection-wins", "double-slash",
    "line-65536", "line-65537", "fields-99", "fields-100", "fields-101",
])
def test_request_head_matches_the_stdlib_parse(head_servers, head):
    ours, stock = head_servers
    expected = _status_and_kept(stock, head)
    assert expected[0] is not None
    assert _status_and_kept(ours, head) == expected


@pytest.mark.parametrize("line", [
    b"X-No-Colon\r\n",
    b"X-Folded: a\r\n  b\r\n",
], ids=["no-colon", "obs-fold"])
def test_a_malformed_field_line_is_400(head_servers, line):
    # the stdlib's email parse lets both through; RFC 9112 5 and 5.2 allow 400
    base = head_servers[0]
    head = _GET + b" HTTP/1.1\r\nHost: x\r\n" + line + b"\r\n"
    assert _status_and_kept(base, head) == (400, False)


def test_requests_are_served_without_the_stdlib_header_parse(head_servers, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("http.client.parse_headers called")

    base = head_servers[0]
    # the client side reads raw bytes: http.client would parse with it too
    monkeypatch.setattr(http.client, "parse_headers", refuse)
    with socket.create_connection((base.hostname, base.port), timeout=10) as sock:
        reader = sock.makefile("rb")
        for _ in range(3):
            sock.sendall(_GET + b" HTTP/1.1\r\nHost: x\r\nAccept-Encoding: identity\r\n\r\n")
            assert _read_status(reader) == 200


def open_keepalive(host, port, n, timeout_s=3.0):
    """*n* connections, each left open after one answered /healthz."""
    conns = []
    for _ in range(n):
        conn = http.client.HTTPConnection(host, port, timeout=timeout_s)
        conns.append(conn)
        conn.request("GET", "/healthz")
        resp = conn.getresponse()
        assert (resp.status, resp.read()) == (200, b"ok")
    return conns


def test_every_open_keepalive_connection_is_answered(running):
    # a keep-alive connection holds its server thread for its whole life,
    # so every open connection, however many, needs a thread of its own
    base = urlsplit(running(K.THE_RAMP))
    conns = []
    try:
        conns = open_keepalive(base.hostname, base.port, 65)
        for conn in conns:  # and each one stays usable
            conn.request("GET", "/healthz")
            assert conn.getresponse().read() == b"ok"
    finally:
        for conn in conns:
            conn.close()


# ----------------------------------------------------------- subprocess layer


def launch_service(*extra):
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "antiwatt.workload.service",
            "--antipattern",
            "the-ramp",
            "--port",
            "0",
            *extra,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    try:
        announce = json.loads(line)
    except json.JSONDecodeError:
        proc.kill()
        raise AssertionError(f"expected JSON announce line, got {line!r}")
    return proc, announce


def test_service_subprocess_lifecycle():
    proc, announce = launch_service()
    try:
        assert announce["event"] == "listening"
        assert announce["antipattern"] == "the-ramp"
        assert announce["pid"] == proc.pid
        base = f"http://{announce['host']}:{announce['port']}"
        _, first = get_json(base + "/the-ramp")
        _, second = get_json(base + "/the-ramp")
        # a fresh process starts with an empty store
        assert first["body_summary"]["store_size"] == 1
        assert second["body_summary"]["store_size"] == 2
    finally:
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == 0
        proc.stdout.close()
        proc.stderr.close()


def test_service_exits_on_sigterm_while_idle_connections_stay_open():
    proc, announce = launch_service()
    conns = []
    try:
        conns = open_keepalive(announce["host"], announce["port"], 3)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=2) == 0
    finally:
        for conn in conns:
            conn.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()


def test_service_subprocess_restart_resets_state():
    sizes = []
    for _ in range(2):
        proc, announce = launch_service()
        try:
            base = f"http://{announce['host']}:{announce['port']}"
            _, payload = get_json(base + "/the-ramp")
            sizes.append(payload["body_summary"]["store_size"])
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            proc.stdout.close()
            proc.stderr.close()
    assert sizes == [1, 1]


# ------------------------------------------------------------- startup chores


def test_pin_to_core_off_is_noop():
    assert pin_to_core("off") is None


def test_pin_to_core_auto_uses_an_allowed_core():
    import os

    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no affinity API on this platform")
    before = os.sched_getaffinity(0)
    try:
        core = pin_to_core("auto")
        assert core in before
        assert os.sched_getaffinity(0) == {core}
    finally:
        os.sched_setaffinity(0, before)
