"""HTTP service exposing one antipattern endpoint plus /healthz.

One process serves exactly one antipattern at /<kind-slug>; any other path is
a 404 naming the expected endpoint. Replies are JSON WorkResponse envelopes
over HTTP/1.1 keep-alive, each written in one send with only the headers a
client needs (Content-Type, Content-Length, Date, and Connection: close when
closing). A request's head is read for its Connection field alone, with no
header object built. Each connection gets its own thread for its whole life,
so every concurrent user is served however many there are (CPU-bound handler
code is serialized by the interpreter anyway on a single core).

On startup the process prints a single JSON "listening" line to stdout —
the orchestrator parses it to learn the bound port and the echoed config.
"""
from __future__ import annotations

import json
import logging
import os
import signal
import sys
import threading
import time
from http import HTTPStatus
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional
from urllib.parse import parse_qsl, urlsplit

from ..errors import CapabilityError
from .config import (
    AntipatternKind,
    WorkloadConfig,
    build_arg_parser,
    config_from_args,
    service_argv,  # noqa: F401 - still importable from here
)
from .handlers import (
    WorkloadFailure,
    WorkResponse,
    handle_circuitous_treasure_hunt,
    handle_excessive_dynamic_allocation,
    handle_god_class,
    handle_more_is_less,
    handle_one_lane_bridge,
    handle_sisyphus_retrieval,
    handle_the_ramp,
    handle_traffic_jam,
    handle_unbalanced_processing,
    handle_unnecessary_processing,
)
from .state import ServiceState, make_state

logger = logging.getLogger(__name__)

# http.client's limits on a request head: bytes in one line, and lines in
# the head counting the blank line that ends it
_MAX_LINE = 65536
_MAX_HEAD_LINES = 100


def _int_param(params: dict, name: str) -> Optional[int]:
    raw = params.get(name)
    return int(raw) if raw is not None else None


def dispatch(state: ServiceState, config: WorkloadConfig, raw_query: str) -> dict:
    """Route one request body computation to the configured handler."""
    kind = config.kind
    if kind is AntipatternKind.GOD_CLASS:
        return handle_god_class(state, config, raw_query)
    params = dict(parse_qsl(raw_query)) if raw_query else {}
    if kind is AntipatternKind.UNBALANCED_PROCESSING:
        return handle_unbalanced_processing(state, config)
    if kind is AntipatternKind.UNNECESSARY_PROCESSING:
        return handle_unnecessary_processing(state, config, _int_param(params, "iterations"))
    if kind is AntipatternKind.THE_RAMP:
        return handle_the_ramp(state, config)
    if kind is AntipatternKind.SISYPHUS_RETRIEVAL:
        return handle_sisyphus_retrieval(
            state,
            config,
            page=_int_param(params, "page") or 0,
            page_size=_int_param(params, "page_size") or 10,
        )
    if kind is AntipatternKind.MORE_IS_LESS:
        return handle_more_is_less(
            state,
            config,
            workers=_int_param(params, "workers"),
            iterations=_int_param(params, "iterations"),
        )
    if kind is AntipatternKind.EXCESSIVE_DYNAMIC_ALLOCATION:
        return handle_excessive_dynamic_allocation(state, config, _int_param(params, "iterations"))
    if kind is AntipatternKind.CIRCUITOUS_TREASURE_HUNT:
        return handle_circuitous_treasure_hunt(state, config, _int_param(params, "customer_id"))
    if kind is AntipatternKind.ONE_LANE_BRIDGE:
        return handle_one_lane_bridge(state, config)
    if kind is AntipatternKind.TRAFFIC_JAM:
        return handle_traffic_jam(state, config)
    raise ValueError(f"no handler for {kind}")  # pragma: no cover - enum is closed


def execute(state: ServiceState, config: WorkloadConfig, raw_query: str):
    """Run the handler under a timer; map outcomes to (http_code, WorkResponse)."""
    t0 = time.perf_counter()
    try:
        body = dispatch(state, config, raw_query)
        status, code = "success", 200
    except WorkloadFailure as exc:
        body, status, code = exc.summary, "failure", 507
    except Exception as exc:  # noqa: BLE001 - handler bug must not kill the server
        logger.exception("handler error")
        body = {"error": f"{type(exc).__name__}: {exc}"}
        status, code = "failure", 500
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return code, WorkResponse(status=status, body_summary=body, server_elapsed_ms=elapsed_ms)


class WorkloadHTTPHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # without TCP_NODELAY, Nagle + delayed ACK stalls every keep-alive
    # response by ~40 ms, burying the workloads' own timing signal
    disable_nagle_algorithm = True
    # buffered: status line, headers and body leave in one send, flushed by
    # handle_one_request after each method (and by finish() on error paths)
    wbufsize = -1

    def parse_request(self):
        """Parse the request line by BaseHTTPRequestHandler's rules, then read
        the head line by line for the one field the service acts on.

        The stock parse_request hands the head to http.client.parse_headers,
        whose email-package parse is the largest cost of a cheap request, to
        build a header object of which only Connection is read. This keeps
        its limits (431 for a line over 65,536 bytes or more than 100 lines)
        and its close decision. It differs on purpose in two cases the email
        parser let through: a field line with no colon and an obs-fold line
        get 400 (RFC 9112 sections 5 and 5.2). Expect is ignored: requests
        carry no body, so the reply itself answers it (RFC 9110 10.1.1).
        """
        self.command = None  # set in case of error on the first line
        self.request_version = self.default_request_version
        self.close_connection = True
        self.requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        words = self.requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            numbers = version[5:].split(".") if version.startswith("HTTP/") else []
            # isdecimal, not isdigit: int() refuses the digit "²"
            if len(numbers) != 2 or not all(n.isdecimal() and len(n) <= 10 for n in numbers):
                self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request version ({version!r})")
                return False
            major, minor = int(numbers[0]), int(numbers[1])
            if major >= 2:
                self.send_error(
                    HTTPStatus.HTTP_VERSION_NOT_SUPPORTED,
                    f"Invalid HTTP version ({version[5:]})",
                )
                return False
            self.close_connection = (major, minor) < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad request syntax ({self.requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2 and command != "GET":
            self.send_error(HTTPStatus.BAD_REQUEST, f"Bad HTTP/0.9 request type ({command!r})")
            return False
        self.command = command
        # gh-87389: clients read a path starting with // as a host, which
        # would open a redirect; reduce it to a single /
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        connection = None
        for _ in range(_MAX_HEAD_LINES):
            line = self.rfile.readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Line too long")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = line.partition(b":")
            if not colon or line[0] in b" \t":
                self.send_error(HTTPStatus.BAD_REQUEST, "Bad header line")
                return False
            if connection is None and name.lower() == b"connection":
                connection = value.lstrip(b" \t").rstrip(b"\r\n").lower()
        else:
            self.send_error(HTTPStatus.REQUEST_HEADER_FIELDS_TOO_LARGE, "Too many headers")
            return False
        if connection == b"close":
            self.close_connection = True
        elif connection == b"keep-alive":
            self.close_connection = False
        return True

    def send_response(self, code, message=None):
        # reached only from send_error: status line and Date (RFC 9110
        # requires it), no Server header and no per-request access log line
        self.send_response_only(code, message)
        self.send_header("Date", self.date_time_string())

    def _reply(self, code: int, content_type: str, body: bytes) -> None:
        close = "Connection: close\r\n" if self.close_connection else ""
        self.wfile.write(
            (
                f"{self.protocol_version} {code} {self.responses[code][0]}\r\n"
                f"Date: {self.date_time_string()}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n{close}\r\n"
            ).encode("latin-1")
        )
        self.wfile.write(body)

    def _send_json(self, code: int, payload: dict) -> None:
        self._reply(code, "application/json", json.dumps(payload).encode("utf-8"))

    def do_GET(self):  # noqa: N802 - stdlib naming
        parts = urlsplit(self.path)
        if parts.path == "/healthz":
            self._reply(200, "text/plain", b"ok")
            return
        expected = "/" + self.server.config.kind.slug
        if parts.path != expected:
            self._send_json(
                404, {"error": f"unknown endpoint {parts.path!r}", "expected": expected}
            )
            return
        code, response = execute(self.server.state, self.server.config, parts.query)
        self._send_json(code, response.to_dict())

    def log_message(self, fmt, *args):
        logger.debug("http: " + fmt, *args)


def serve(
    config: WorkloadConfig,
    host: str = "127.0.0.1",
    port: int = 0,
    state: Optional[ServiceState] = None,
) -> ThreadingHTTPServer:
    """Bind and return the server (caller drives serve_forever)."""
    if state is None:
        state = make_state(config)
    try:
        server = ThreadingHTTPServer((host, port), WorkloadHTTPHandler)
    except OSError as exc:
        raise CapabilityError(
            f"cannot bind {host}:{port} ({exc}); pick a free port with --port or "
            "stop the process holding it"
        ) from exc
    # an idle keep-alive connection must not hold up server_close or exit
    server.block_on_close = False
    server.state = state
    server.config = state.config
    return server


# ------------------------------------------------------------- startup chores


def pin_to_core(choice: str) -> Optional[int]:
    """Restrict this process to one CPU core; None when unsupported/off."""
    if choice == "off":
        return None
    if not hasattr(os, "sched_setaffinity"):
        logger.warning("CPU pinning unsupported on this platform; running unpinned")
        return None
    try:
        allowed = sorted(os.sched_getaffinity(0))
        core = allowed[0] if choice == "auto" else int(choice)
        os.sched_setaffinity(0, {core})
        return core
    except (OSError, ValueError) as exc:
        logger.warning("CPU pinning failed (%s); running unpinned", exc)
        return None


# ----------------------------------------------------------------- entrypoint


def run_service(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, stream=sys.stderr)
    args = build_arg_parser().parse_args(argv)
    config = config_from_args(args)
    pinned = pin_to_core(args.pin_core)
    try:
        server = serve(config, host=args.host, port=args.port)
    except CapabilityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    announce = {
        "event": "listening",
        "host": server.server_address[0],
        "port": server.server_address[1],
        "pid": os.getpid(),
        "antipattern": config.kind.value,
        "pinned_core": pinned,
        "config": config.to_dict(),
    }
    print(json.dumps(announce), flush=True)

    def _graceful(signum, frame):
        logger.info("signal %d: shutting down", signum)
        threading.Thread(target=server.shutdown, daemon=True).start()

    signal.signal(signal.SIGTERM, _graceful)
    signal.signal(signal.SIGINT, _graceful)
    try:
        server.serve_forever(poll_interval=0.2)
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(run_service())
