"""Chat-completions stub for the benchmark's HTTP workload.

The stub answers each prompt from a ``final_text -> text`` map recorded
with the library's ``MockProvider``, after a fixed service delay, so an
HTTP run must produce the same score files as a mock run. It speaks
HTTP/1.1 keep-alive with Nagle's algorithm off: with Nagle on, each
response (headers and body sent in two writes) stalls on the client's
delayed ACK, and the stub would measure itself instead of the client.
A prompt missing from the map gets HTTP 400, which kpe records as a
per-pair provider error.

``StubProcess`` serves a ``Stub`` from a child process, so that a kpe run
inside the benchmark's own process does not share an interpreter lock
with it.
"""

from __future__ import annotations

import json
import select
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

PATH = "/v1/chat/completions"
REPLY_TIMEOUT_S = 30


class Stub:
    """Counts requests, connections, unknown prompts and in-flight time."""

    def __init__(self, answers: dict[str, str], delay_s: float) -> None:
        self.answers = answers
        self.delay_s = delay_s
        self._lock = threading.Lock()
        self._server: ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.requests = 0
            self.connections = 0
            self.unknown = 0
            self.busy_s = 0.0

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}{PATH}"

    def start(self) -> str:
        stub = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            disable_nagle_algorithm = True

            def setup(self) -> None:
                super().setup()
                with stub._lock:
                    stub.connections += 1

            def do_POST(self) -> None:
                started = time.perf_counter()
                body = self.rfile.read(int(self.headers["Content-Length"]))
                prompt = json.loads(body)["messages"][0]["content"]
                text = stub.answers.get(prompt)
                time.sleep(stub.delay_s)
                if text is None:
                    status, reply = 400, {"error": {"message": "unknown prompt"}}
                else:
                    status = 200
                    reply = {"choices": [{"message": {"role": "assistant", "content": text}}]}
                data = json.dumps(reply).encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", "application/json")
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)
                with stub._lock:
                    stub.requests += 1
                    stub.unknown += text is None
                    stub.busy_s += time.perf_counter() - started

            def log_message(self, format, *args) -> None:
                pass

        self._server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._server.daemon_threads = True
        self._thread = threading.Thread(target=self._server.serve_forever, daemon=True)
        self._thread.start()
        return self.url

    def stop(self) -> None:
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=10)
        self._server = None


class StubProcess:
    """A ``Stub`` run as ``python stub.py ANSWERS_JSON DELAY_S``.

    The counters are read over the child's standard input and output, one
    command and one JSON reply per line.
    """

    def __init__(self, answers_json: Path, delay_s: float) -> None:
        self._argv = [sys.executable, __file__, str(answers_json), repr(delay_s)]
        self._proc: subprocess.Popen | None = None
        self.url = ""

    def start(self) -> str:
        self._proc = subprocess.Popen(self._argv, stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.url = self._receive()
        return self.url

    def _receive(self):
        ready, _, _ = select.select([self._proc.stdout], [], [], REPLY_TIMEOUT_S)
        line = self._proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError("the stub process did not answer")
        return json.loads(line)

    def _ask(self, command: str):
        self._proc.stdin.write(command + "\n")
        self._proc.stdin.flush()
        return self._receive()

    def reset(self) -> None:
        self._ask("reset")

    @property
    def requests(self) -> int:
        return self._ask("counts")["requests"]

    @property
    def connections(self) -> int:
        return self._ask("counts")["connections"]

    @property
    def unknown(self) -> int:
        return self._ask("counts")["unknown"]

    @property
    def busy_s(self) -> float:
        return self._ask("counts")["busy_s"]

    def stop(self) -> None:
        """Close the child's input, which ends it, and wait for it."""
        if self._proc is None:
            return
        try:
            self._proc.stdin.close()
            self._proc.wait(timeout=REPLY_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired):
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()
        self._proc = None


def main(argv: list[str]) -> None:
    answers_json, delay_s = argv
    stub = Stub(json.loads(Path(answers_json).read_text(encoding="utf-8")), float(delay_s))
    print(json.dumps(stub.start()), flush=True)
    try:
        for line in sys.stdin:
            if line.strip() == "reset":
                stub.reset()
                reply = None
            else:
                with stub._lock:
                    reply = {"requests": stub.requests, "connections": stub.connections,
                             "unknown": stub.unknown, "busy_s": stub.busy_s}
            print(json.dumps(reply), flush=True)
    finally:
        stub.stop()


if __name__ == "__main__":
    main(sys.argv[1:])
