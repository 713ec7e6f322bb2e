"""HttpProvider's default transport against an in-process HTTP/1.1 server."""

from __future__ import annotations

import base64
import json
import os
import select
import shutil
import socket
import ssl
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

import kpe
from kpe.backend import GenParams, HttpProvider, run_batch
from kpe.errors import ProviderError, TransportError
from kpe.prompting import RenderedPrompt

PARAMS = GenParams(model_id="model-x")
PATH = "/v1/chat/completions"
PROXY_VARS = ("http_proxy", "https_proxy", "no_proxy", "all_proxy")


def _prompt(text: str) -> RenderedPrompt:
    return RenderedPrompt(template_id="gemba_classify", version=1, final_text=text, bindings={})


class ChatServer:
    """Answers each prompt with "echo <prompt>" and counts what it saw.

    close_after_reply drops the connection after each reply without sending
    "Connection: close"; drop_first closes that many requests' connections
    without any reply; body, if given, is sent instead of the JSON reply;
    tls is a (certificate, key) pair to serve https with.
    """

    def __init__(self, delay_s: float = 0.0, close_after_reply: bool = False,
                 drop_first: int = 0, body: bytes | None = None,
                 tls: tuple[Path, Path] | None = None) -> None:
        self.lock = threading.Lock()
        self.connections = 0
        self.requests = 0
        self.paths: list[str] = []
        self.headers: list[dict[str, str]] = []
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                with server.lock:
                    server.connections += 1

            def do_POST(self) -> None:
                payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                with server.lock:
                    server.requests += 1
                    drop = server.requests <= drop_first
                    server.paths.append(self.path)
                    server.headers.append(dict(self.headers))
                if drop:
                    self.close_connection = True
                    return
                time.sleep(delay_s)
                text = "echo " + payload["messages"][0]["content"]
                data = body if body is not None else json.dumps(
                    {"choices": [{"message": {"role": "assistant", "content": text}}]}
                ).encode("utf-8")
                self.send_response(200)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                if close_after_reply:
                    self.close_connection = True

            def log_message(self, format, *args) -> None:
                pass

        self._start(Handler, tls)
        self.url = self.origin + PATH

    def _start(self, handler, tls: tuple[Path, Path] | None = None) -> None:
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
        if tls is not None:
            context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            context.load_cert_chain(*tls)
            self._server.socket = context.wrap_socket(self._server.socket, server_side=True)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True,
                                        kwargs={"poll_interval": 0.05})
        self._thread.start()
        host, port = self._server.server_address[:2]
        self.origin = f"{'https' if tls else 'http'}://{host}:{port}"

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)


class ConnectProxy(ChatServer):
    """Tunnels CONNECT requests and records each one's target and credentials."""

    def __init__(self) -> None:
        self.tunnels: list[tuple[str, str | None]] = []
        proxy = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def do_CONNECT(self) -> None:
                proxy.tunnels.append((self.path, self.headers.get("Proxy-Authorization")))
                host, port = self.path.rsplit(":", 1)
                with socket.create_connection((host, int(port))) as upstream:
                    self.send_response(200, "Connection established")
                    self.end_headers()
                    ends = {self.connection: upstream, upstream: self.connection}
                    while True:
                        readable, _, _ = select.select(list(ends), [], [], 10)
                        data = readable[0].recv(65536) if readable else b""
                        if not data:
                            break
                        ends[readable[0]].sendall(data)
                self.close_connection = True

            def log_message(self, format, *args) -> None:
                pass

        self._start(Handler)


@pytest.fixture(scope="module")
def tls_cert(tmp_path_factory) -> tuple[Path, Path]:
    """A self-signed certificate for 127.0.0.1 and its key."""
    openssl = shutil.which("openssl")
    if openssl is None:
        pytest.skip("the openssl command is needed to make a test certificate")
    folder = tmp_path_factory.mktemp("tls")
    cert, key = folder / "cert.pem", folder / "key.pem"
    subprocess.run(
        [openssl, "req", "-x509", "-newkey", "ec", "-pkeyopt", "ec_paramgen_curve:prime256v1",
         "-nodes", "-keyout", str(key), "-out", str(cert), "-days", "1",
         "-subj", "/CN=127.0.0.1", "-addext", "subjectAltName=IP:127.0.0.1"],
        check=True, capture_output=True, timeout=60,
    )
    return cert, key


@pytest.fixture(autouse=True)
def no_proxy_env(monkeypatch):
    for name in PROXY_VARS:
        monkeypatch.delenv(name, raising=False)
        monkeypatch.delenv(name.upper(), raising=False)


@pytest.fixture
def serve():
    servers: list[ChatServer] = []

    def start(**kwargs) -> ChatServer:
        servers.append(ChatServer(**kwargs))
        return servers[-1]

    yield start
    for server in servers:
        server.stop()


def _provider(url: str, **kwargs) -> tuple[HttpProvider, list[float]]:
    sleeps: list[float] = []
    return HttpProvider(url, sleep=sleeps.append, timeout_s=10.0, **kwargs), sleeps


def test_two_batches_share_at_most_max_in_flight_connections(serve):
    server = serve(delay_s=0.002)
    provider, sleeps = _provider(server.url)
    try:
        for batch in range(2):
            prompts = [_prompt(f"b{batch} q{i}") for i in range(20)]
            results = run_batch(provider, None, prompts, PARAMS, max_in_flight=2)
            assert [r.text for r in results] == [f"echo {p.final_text}" for p in prompts]
    finally:
        provider.session.close()
    assert server.requests == provider.attempts == 40
    assert 1 <= server.connections <= 2
    assert sleeps == []


def test_shared_idle_connections_under_thread_switching(serve):
    # more workers than cores and a short switch interval: a connection handed
    # to two threads at once would garble replies or exceed the worker count
    server = serve(delay_s=0.001)
    provider, sleeps = _provider(server.url)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        prompts = [_prompt(f"q{i}") for i in range(200)]
        results = run_batch(provider, None, prompts, PARAMS, max_in_flight=8)
    finally:
        sys.setswitchinterval(interval)
        provider.session.close()
    assert [r.text for r in results] == [f"echo q{i}" for i in range(200)]
    assert server.requests == provider.attempts == 200
    assert server.connections <= 8
    assert sleeps == []


def test_connection_closed_by_server_is_replaced_without_backoff(serve):
    # the server ends each connection after its reply but never says so, so
    # every reuse finds a dead connection and must be resent on a new one
    server = serve(close_after_reply=True)
    provider, sleeps = _provider(server.url)
    try:
        for i in range(5):
            assert provider.complete(_prompt(f"q{i}"), PARAMS) == f"echo q{i}"
        results = run_batch(provider, None, [_prompt(f"r{i}") for i in range(10)], PARAMS,
                            max_in_flight=2)
        assert [r.text for r in results] == [f"echo r{i}" for i in range(10)]
    finally:
        provider.session.close()
    assert sleeps == []
    assert provider.attempts == provider.calls == 15
    assert server.requests == 15


def test_failure_on_a_new_connection_goes_to_the_retry_loop(serve):
    server = serve(drop_first=1)
    provider, sleeps = _provider(server.url)
    try:
        assert provider.complete(_prompt("q"), PARAMS) == "echo q"
    finally:
        provider.session.close()
    assert sleeps == [1.0]
    assert provider.attempts == 2
    assert server.connections == 2


def test_http_proxy_gets_absolute_form_and_credentials(serve, monkeypatch):
    server = serve()
    monkeypatch.setenv("http_proxy", server.origin.replace("//", "//user:p%40ss@"))
    provider, _ = _provider("http://kpe-upstream.invalid" + PATH)
    try:
        assert provider.complete(_prompt("via proxy"), PARAMS) == "echo via proxy"
    finally:
        provider.session.close()
    assert server.paths == ["http://kpe-upstream.invalid" + PATH]
    assert server.headers[0]["Host"] == "kpe-upstream.invalid"
    expected = "Basic " + base64.b64encode(b"user:p@ss").decode("ascii")
    assert server.headers[0]["Proxy-Authorization"] == expected


def test_no_proxy_host_goes_direct(serve, monkeypatch):
    server = serve()
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        dead_port = probe.getsockname()[1]
    monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{dead_port}")
    monkeypatch.setenv("no_proxy", "127.0.0.1")
    provider, sleeps = _provider(server.url, max_attempts=1)
    try:
        assert provider.complete(_prompt("direct"), PARAMS) == "echo direct"
    finally:
        provider.session.close()
    assert server.paths == [PATH]
    assert sleeps == []


def test_https_verifies_against_ssl_cert_file(serve, tls_cert, monkeypatch):
    server = serve(tls=tls_cert)
    untrusted, _ = _provider(server.url, max_attempts=1)
    with pytest.raises(TransportError, match="CERTIFICATE_VERIFY_FAILED"):
        untrusted.complete(_prompt("q"), PARAMS)
    monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
    provider, _ = _provider(server.url, max_attempts=1)
    try:
        assert provider.complete(_prompt("q1"), PARAMS) == "echo q1"
        assert provider.complete(_prompt("q2"), PARAMS) == "echo q2"
    finally:
        provider.session.close()
    # a failed handshake never reaches a handler; both calls share one connection
    assert server.connections == 1


def test_https_proxy_tunnels_with_credentials(serve, tls_cert, monkeypatch):
    server = serve(tls=tls_cert)
    proxy = ConnectProxy()
    try:
        monkeypatch.setenv("SSL_CERT_FILE", str(tls_cert[0]))
        monkeypatch.setenv("https_proxy", proxy.origin.replace("//", "//user:pw@"))
        provider, _ = _provider(server.url, max_attempts=1)
        try:
            assert provider.complete(_prompt("q1"), PARAMS) == "echo q1"
            assert provider.complete(_prompt("q2"), PARAMS) == "echo q2"
        finally:
            provider.session.close()
    finally:
        proxy.stop()
    target = server.origin.removeprefix("https://")
    assert proxy.tunnels == [(target, "Basic " + base64.b64encode(b"user:pw").decode("ascii"))]
    assert server.paths == [PATH, PATH]


def test_non_json_body_is_provider_error(serve):
    server = serve(body=b"<html>busy</html>")
    provider, sleeps = _provider(server.url)
    try:
        with pytest.raises(ProviderError, match="malformed") as err:
            provider.complete(_prompt("q"), PARAMS)
    finally:
        provider.session.close()
    assert not isinstance(err.value, TransportError)
    assert provider.attempts == 1
    assert sleeps == []


def test_unsupported_url_scheme_is_transport_error():
    provider, _ = _provider("ftp://example.invalid/chat", max_attempts=1)
    with pytest.raises(TransportError, match="not an http"):
        provider.complete(_prompt("q"), PARAMS)


def test_default_provider_never_imports_requests(serve):
    server = serve()
    src = str(Path(kpe.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key.lower() not in PROXY_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import sys\n"
        "from kpe.backend import GenParams, HttpProvider\n"
        "from kpe.prompting import RenderedPrompt\n"
        "provider = HttpProvider(sys.argv[1], max_attempts=1)\n"
        "print(provider.complete(RenderedPrompt('gemba_classify', 1, 'ping', {}),"
        " GenParams('model-x')))\n"
        "provider.session.close()\n"
        "print('requests' in sys.modules)\n"
    )
    result = subprocess.run([sys.executable, "-c", code, server.url], capture_output=True,
                            text=True, env=env, check=True, timeout=60)
    assert result.stdout.splitlines() == ["echo ping", "False"]
