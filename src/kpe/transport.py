"""Keep-alive HTTP/1.1 transport for the chat-completions provider.

A byte pipe: `KeepAliveTransport.post` sends one POST body and returns
the response's status and body, reusing idle connections across threads.
What the bytes mean, and whether the URL is a valid endpoint, is the
provider's business (`kpe.backend.HttpProvider` checks the URL when it is
built). Proxies come from the environment and TLS is verified against the
system CA store.
"""

from __future__ import annotations

import base64
import http.client
import ssl
import threading
import urllib.parse
import urllib.request
from dataclasses import dataclass

# How a reused keep-alive connection that the server has closed fails before
# any response (RemoteDisconnected is a ConnectionResetError).
_STALE_CONNECTION = (ConnectionResetError, BrokenPipeError)


@dataclass(frozen=True)
class _Route:
    """Where connections for one scheme://host:port go: direct or via a proxy."""

    scheme: str
    host: str
    port: int
    proxy: tuple[str, int] | None = None
    proxy_auth: str | None = None  # a Proxy-Authorization header value


def _proxy_route(scheme: str, host: str, port: int) -> _Route:
    """Read HTTP_PROXY/HTTPS_PROXY/NO_PROXY from the environment for one host."""
    proxy_url = urllib.request.getproxies().get(scheme)
    if not proxy_url or urllib.request.proxy_bypass(host):
        return _Route(scheme, host, port)
    if "://" not in proxy_url:
        proxy_url = "http://" + proxy_url
    proxy = urllib.parse.urlsplit(proxy_url)
    auth = None
    if proxy.username is not None:
        user = urllib.parse.unquote(proxy.username)
        password = urllib.parse.unquote(proxy.password or "")
        auth = "Basic " + base64.b64encode(f"{user}:{password}".encode()).decode("ascii")
    return _Route(scheme, host, port, (proxy.hostname, proxy.port or 80), auth)


class KeepAliveTransport:
    """HTTP/1.1 POST client on http.client that reuses keep-alive connections.

    Idle connections wait in one list per route, shared by every thread under
    a lock, so a run never holds more connections than requests in flight. A
    request takes an idle connection or opens one; afterwards the connection
    goes back unless the response says it will close, and one that raised is
    closed. A request on a reused connection that fails before any response
    (the server dropped the idle connection) is sent once more on a new one.
    HTTP_PROXY, HTTPS_PROXY and NO_PROXY are read once per URL: http goes
    to the proxy in absolute form, https through a CONNECT tunnel, and
    user:pass in the proxy URL becomes Basic proxy authorization. TLS is
    verified against the system CA store, or SSL_CERT_FILE if set. A
    connection keeps the timeout it was opened with.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._idle: dict[_Route, list[http.client.HTTPConnection]] = {}
        self._targets: dict[str, tuple[_Route, str, dict[str, str]]] = {}
        self._tls: ssl.SSLContext | None = None

    def post(self, url: str, body: bytes, headers: dict[str, str],
             timeout: float | None) -> tuple[int, bytes]:
        """POST body to url and return the response's status and body."""
        route, target, route_headers = self._target(url)
        sent_headers = {"User-Agent": "kpe", **route_headers, **headers}
        with self._lock:
            idle = self._idle.get(route)
            conn = idle.pop() if idle else None
        reused = conn is not None
        if conn is None:
            conn = self._connect(route, timeout)
        while True:
            try:
                conn.request("POST", target, body, sent_headers)
                resp = conn.getresponse()
                break
            except _STALE_CONNECTION:
                conn.close()
                if not reused:
                    raise
                conn, reused = self._connect(route, timeout), False
            except BaseException:
                conn.close()
                raise
        try:
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        if resp.will_close:
            conn.close()
        else:
            with self._lock:
                self._idle.setdefault(route, []).append(conn)
        return resp.status, data

    def close(self) -> None:
        """Close every idle connection."""
        with self._lock:
            idle, self._idle = self._idle, {}
        for conns in idle.values():
            for conn in conns:
                conn.close()

    def _target(self, url: str) -> tuple[_Route, str, dict[str, str]]:
        """The route, the request target and the proxy headers for an http(s) url."""
        found = self._targets.get(url)
        if found is not None:
            return found
        parts = urllib.parse.urlsplit(url)
        port = parts.port or (443 if parts.scheme == "https" else 80)
        route = _proxy_route(parts.scheme, parts.hostname, port)
        target = urllib.parse.urlunsplit(("", "", parts.path or "/", parts.query, ""))
        route_headers: dict[str, str] = {}
        if route.proxy is not None and route.scheme == "http":
            target = f"http://{parts.netloc.rpartition('@')[2]}{target}"
            if route.proxy_auth:
                route_headers["Proxy-Authorization"] = route.proxy_auth
        found = self._targets[url] = (route, target, route_headers)
        return found

    def _connect(self, route: _Route, timeout) -> http.client.HTTPConnection:
        host, port = route.proxy or (route.host, route.port)
        if route.scheme == "http":
            return http.client.HTTPConnection(host, port, timeout=timeout)
        with self._lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
        conn = http.client.HTTPSConnection(host, port, timeout=timeout, context=self._tls)
        if route.proxy is not None:
            tunnel_headers = {"Proxy-Authorization": route.proxy_auth} if route.proxy_auth else None
            conn.set_tunnel(route.host, route.port, headers=tunnel_headers)
        return conn
