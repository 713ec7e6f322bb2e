"""kpe end-to-end benchmark: `kpe score` then `kpe report`, checked by an oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload mock-warm --seed 1 --seconds 45 --trace 0

Workloads (closed loop: one CLI invocation at a time, max_in_flight=2):

    mock-warm  2 tiles of the toy corpus (480 outputs, 2,400 scores,
               4,800 prompt requests, 2,400 unique prompts), mock provider,
               cache filled by cold `score` runs during set-up; each score
               run must make 0 provider calls: cache reads and the executor
               are the whole cost.
    http-cold  one tile (240 outputs, 1,200 unique prompts) against an HTTP
               stub in a child process with a 10 ms service delay and an
               empty cache: waiting on the provider dominates.
    mock-cold  the mock-warm corpus with an empty cache: kpe's own CPU and
               the cache write path do the work. Not in BENCHMARK.json: on
               a host that steals CPU time its run-to-run spread exceeds
               any allowed bound, so it is kept for runs by hand.

With --trace 0 each cycle runs `python -m kpe.cli score`, one `report` run
and one `--version` launch as child processes and checks every score file
and report.csv against the oracle. A new cycle starts while at least half
a cycle fits into --seconds (the first always runs); the run prints the
end-to-end metrics as medians over its samples.
With --trace 1 the CLI runs in this process, once untraced and once with
spans around kpe's public calls, and the run prints the per-layer metrics.
`--workload all` runs every workload in turn and prints only the tables;
`--smoke` shrinks every workload to one tile for a quick self-check.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 1 when an
output fails the oracle and 2 when the checkout has no kpe sources.
"""

from __future__ import annotations

import argparse
import contextlib
import filecmp
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

MAX_IN_FLIGHT = 2
MODEL_ID = "mock-1"
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Workload:
    tiles: int
    provider: str
    warm: bool
    # Set-up is repeated and its median reported; a warm set-up includes
    # the cold score run that fills the cache, so it repeats less.
    setup_repeats: int


WORKLOADS = {
    "mock-cold": Workload(tiles=2, provider="mock", warm=False, setup_repeats=5),
    "mock-warm": Workload(tiles=2, provider="mock", warm=True, setup_repeats=3),
    "http-cold": Workload(tiles=1, provider="http", warm=False, setup_repeats=5),
}


@dataclass(frozen=True)
class Settings:
    import_launches: int = 3
    stub_delay_s: float = 0.010
    tiles: int | None = None
    setup_repeats: int | None = None


FULL = Settings()
SMOKE = Settings(import_launches=1, stub_delay_s=0.001, tiles=1, setup_repeats=1)

# Shown in the run's table but not in its JSON. provider_calls and
# failed_share are 0 on healthy runs (the oracle checks the calls; the JSON's
# attempted/failed carry the failures). report_s and cli_start_s are
# dominated by interpreter start-up, whose speed drifts on a shared host
# from one run to the next by more than any bound a regression gate could
# use; the traced run reports them as cli.report_s and cli.start_s.
# score_cpu_s (the child's user + system time) tells a host that steals CPU
# time from kpe's own work apart, but on http-cold it spreads by a fifth
# from run to run, so it is not gated either.
TABLE_ONLY_UNITS = {"provider_calls": "count", "failed_share": "ratio",
                    "report_s": "s", "cli_start_s": "s", "score_cpu_s": "s",
                    "score_s min": "s", "score_s max": "s"}


def declared_units(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in declared["per_layer" if trace else "end_to_end"]}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for key in ("NO_PROXY", "no_proxy"):
        env[key] = ",".join(filter(None, ["127.0.0.1,localhost", env.get(key)]))
    return env


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    code: int
    cpu_s: float  # the child's own user + system time
    peak_rss_mb: float


def run_child(argv: list[str], log: Path) -> ChildRun:
    """Run one child and wait for it; its rusage is its own, from wait4."""
    with open(log, "wb") as out:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdin=subprocess.DEVNULL, stdout=out,
            stderr=subprocess.STDOUT, env=child_env(), cwd=ROOT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, proc.returncode, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024)


class Bench:
    """One workload's inputs, caches and stub inside a private work directory."""

    def __init__(self, workload: str, seed: int, settings: Settings) -> None:
        import tiles

        self.tiles = tiles
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.settings = settings
        self.n_tiles = settings.tiles or self.spec.tiles
        self.setup_repeats = settings.setup_repeats or self.spec.setup_repeats
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.cache = self.dir / "cache"
        self.out = self.dir / "out"
        self.ref = self.dir / "ref"
        self.stub = None
        self.corpus = None
        self.tally = Tally()

    # set-up ---------------------------------------------------------------

    def setup(self) -> float:
        """Set the workload up several times; return the median set-up time.

        A set-up builds the inputs; on http-cold it also records the stub's
        answers, on mock-warm it fills the cache with a cold `score` child.
        """
        times = []
        for _ in range(self.setup_repeats):
            shutil.rmtree(self.dir, ignore_errors=True)
            started = time.perf_counter()
            self.corpus = self.tiles.build_corpus(self.dir / "in", self.seed, self.n_tiles)
            if self.spec.provider == "http":
                # The stub's answers, and the score files an HTTP run must
                # reproduce byte for byte.
                answers = self.tiles.score_with_mock(self.corpus, self.ref, MODEL_ID,
                                                     MAX_IN_FLIGHT)
            if self.spec.warm:
                fill = run_child(self.score_argv(self.ref), self.dir / "fill.log")
                if fill.code != 0:
                    raise SystemExit(f"cache fill failed with exit code {fill.code}: "
                                     f"{self.log_tail('fill.log')}")
            times.append(time.perf_counter() - started)
        if self.spec.warm:
            self.tiles.check_scores(self.corpus, self.ref)
        if self.spec.provider == "http":
            from stub import StubProcess

            answers_json = self.dir / "answers.json"
            answers_json.write_text(json.dumps(answers), encoding="utf-8")
            self.stub = StubProcess(answers_json, self.settings.stub_delay_s)
            self.stub.start()
        return statistics.median(times)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stop()
        shutil.rmtree(self.dir, ignore_errors=True)

    # CLI arguments ----------------------------------------------------------

    def score_args(self, out: Path) -> list[str]:
        c = self.corpus
        args = ["score", "--segments", str(c.segments), "--outputs", str(c.outputs),
                "--judgments", str(c.judgments), "--out", str(out),
                "--cache-dir", str(self.cache), "--max-in-flight", str(MAX_IN_FLIGHT),
                "--estimators", ",".join(self.tiles.ESTIMATORS), "--mode", "cat5"]
        if self.spec.provider == "http":
            return args + ["--provider", "http", "--endpoint-url", self.stub.url,
                           "--model-id", MODEL_ID]
        return args + ["--provider", "mock", "--mock-fixtures", str(c.fixtures)]

    def report_args(self) -> list[str]:
        return ["report", "--scores", str(self.out), "--judgments", str(self.corpus.judgments)]

    def score_argv(self, out: Path) -> list[str]:
        return ["-m", "kpe.cli", *self.score_args(out)]

    def log_tail(self, name: str) -> str:
        text = (self.dir / name).read_text(encoding="utf-8", errors="replace")
        return text[-600:]

    # one cycle ------------------------------------------------------------

    def before_score(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        if not self.spec.warm:
            shutil.rmtree(self.cache, ignore_errors=True)
        # Flush the last cycle's file writes and deletions now, so that the
        # file system does not do that work during the timed run.
        os.sync()
        if self.stub is not None:
            self.stub.reset()

    def check_score(self, code: int) -> int:
        """Check one score run's outputs; return the provider calls it made."""
        t, c = self.tally, self.corpus
        t.attempted += c.n_scores + 1
        if code != 0:
            t.failed += 1
            t.problems.append(f"score exited {code}")
        try:
            summary = json.loads((self.out / "run_summary.json").read_text(encoding="utf-8"))
            calls = summary["provider_calls"]
            _checked, errored = self.tiles.check_scores(c, self.out)
            t.failed += errored
            if self.spec.warm and calls != 0:
                raise self.tiles.OracleError(f"warm run made {calls} provider calls")
            if self.stub is not None and calls != self.stub.requests:
                raise self.tiles.OracleError(
                    f"run_summary says {calls} provider calls, the stub saw {self.stub.requests}")
            if self.ref.exists():
                for name in self.tiles.ESTIMATORS:
                    f = f"scores_{name}.jsonl"
                    if not filecmp.cmp(self.out / f, self.ref / f, shallow=False):
                        raise self.tiles.OracleError(f"{f} differs from the reference run")
        except (OSError, ValueError, KeyError, self.tiles.OracleError) as exc:
            t.problems.append(f"score output: {exc}")
            t.failed += c.n_scores
            t.correct = False
            return -1
        return calls

    def check_report(self, code: int) -> None:
        t = self.tally
        t.attempted += 1
        if code != 0:
            t.failed += 1
            t.problems.append(f"report exited {code}")
        try:
            self.tiles.check_report(self.corpus, self.out / "report.csv")
        except (OSError, ValueError, KeyError, self.tiles.OracleError) as exc:
            t.problems.append(f"report output: {exc}")
            t.failed += 1
            t.correct = False

    # trace 0 --------------------------------------------------------------

    def measure(self, seconds: float) -> tuple[dict, dict]:
        # The host's speed changes from minute to minute (CPU steal from other
        # guests, core speed), so a run takes as many short score samples as
        # fit into its length and reports their medians.
        scores: list[ChildRun] = []
        calls, report_s, starts, in_flight, cycle_s = [], [], [], [], []
        started = time.perf_counter()
        while not cycle_s or (time.perf_counter() - started
                              + statistics.median(cycle_s) / 2 < seconds):
            cycle_started = time.perf_counter()
            self.before_score()
            score = run_child(self.score_argv(self.out), self.dir / "score.log")
            scores.append(score)
            calls.append(self.check_score(score.code))
            if self.stub is not None:
                in_flight.append(self.stub.busy_s / score.wall_s)
            report = run_child(["-m", "kpe.cli", *self.report_args()], self.dir / "report.log")
            report_s.append(report.wall_s)
            self.check_report(report.code)
            starts.append(run_child(["-m", "kpe.cli", "--version"],
                                    self.dir / "version.log").wall_s)
            cycle_s.append(time.perf_counter() - cycle_started)
        median_score = statistics.median(s.wall_s for s in scores)
        metrics = {
            "score_s": median_score,
            "scores_per_s": self.corpus.n_scores / median_score,
            "score_peak_rss_mb": statistics.median(s.peak_rss_mb for s in scores),
        }
        extra = {
            "score_cpu_s": statistics.median(s.cpu_s for s in scores),
            "report_s": statistics.median(report_s),
            "cli_start_s": statistics.median(starts),
            "provider_calls": statistics.median(calls),
            "failed_share": self.tally.failed / self.tally.attempted,
            "cycles": len(scores),
            "score_s min": min(s.wall_s for s in scores),
            "score_s max": max(s.wall_s for s in scores),
        }
        if in_flight:
            extra["stub.mean_in_flight"] = statistics.median(in_flight)
        return metrics, extra

    # trace 1 --------------------------------------------------------------

    def invoke(self, args: list[str]) -> int:
        """Run the CLI in this process; return its exit code."""
        import kpe.cli

        with open(self.dir / f"{args[0]}.log", "w", encoding="utf-8") as log, \
                contextlib.redirect_stderr(log):
            try:
                kpe.cli.main.main(args=args, prog_name="kpe", standalone_mode=False)
            except SystemExit as exc:
                return exc.code if isinstance(exc.code, int) else 1
        return 0

    def traced_run(self) -> dict:
        from tracing import Tracer

        env = child_env()
        os.environ.update({key: env[key] for key in ("NO_PROXY", "no_proxy")})
        imports = []
        for _ in range(self.settings.import_launches):
            log = self.dir / "import.log"
            run_child(["-c", "import time; t = time.perf_counter(); import kpe.cli; "
                             "print(time.perf_counter() - t)"], log)
            imports.append(float(log.read_text(encoding="utf-8").split()[-1]))

        # The traced run sits between two untraced ones, so that a host
        # whose speed drifts during the three runs does not bias the overhead.
        timed = {False: [], True: []}
        tracer = Tracer()
        for traced in (False, True, False):
            self.before_score()
            if traced:
                tracer.install()
            try:
                started = time.perf_counter()
                code = self.invoke(self.score_args(self.out))
                timed[traced].append(time.perf_counter() - started)
                self.check_score(code)
                if traced:
                    stub_counts = (self.stub.requests, self.stub.connections,
                                   self.stub.busy_s) if self.stub else (0, 0, 0.0)
                self.check_report(self.invoke(self.report_args()))
            finally:
                tracer.uninstall()
                for provider in tracer.providers:
                    session = getattr(provider, "session", None)
                    if session is not None:
                        session.close()
        WORK.mkdir(parents=True, exist_ok=True)
        tracer.write(WORK / f"trace-{self.name}.jsonl")

        starts, reports = [], []
        for _ in range(self.settings.import_launches):
            starts.append(run_child(["-m", "kpe.cli", "--version"],
                                    self.dir / "version.log").wall_s)
            report = run_child(["-m", "kpe.cli", *self.report_args()], self.dir / "report.log")
            reports.append(report.wall_s)
            self.check_report(report.code)

        metrics = {
            "cli.import_s": statistics.median(imports),
            "cli.start_s": statistics.median(starts),
            "cli.report_s": statistics.median(reports),
        }
        metrics.update(tracer.layer_metrics(self.tiles.ESTIMATORS))
        requests, connections, busy = stub_counts
        metrics["stub.requests"] = requests
        metrics["stub.connections"] = connections
        untraced_s, (traced_s,) = statistics.mean(timed[False]), timed[True]
        metrics["stub.mean_in_flight"] = busy / traced_s
        metrics["trace.untraced_score_s"] = untraced_s
        metrics["trace.traced_score_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 settings: Settings) -> tuple[dict, Tally]:
    bench = Bench(name, seed, settings)
    try:
        setup_s = bench.setup()
        if trace:
            values, extra = bench.traced_run(), {}
        else:
            values, extra = bench.measure(seconds)
            values["setup_s"] = setup_s
    finally:
        bench.close()
    units = declared_units(trace)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    print(f"# {name} seed={seed} trace={int(trace)} tiles={bench.n_tiles} "
          f"scores/run={bench.corpus.n_scores}")
    for key, unit in units.items():
        print(f"  {key:<40} {values[key]:>14.6g} {unit}")
    for key, value in extra.items():
        print(f"  {key:<40} {value:>14.6g} {TABLE_ONLY_UNITS.get(key, '')}")
    for problem in bench.tally.problems:
        print(f"  PROBLEM: {problem}")
    return metrics, bench.tally


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one tile per workload and single repeats, for self-checks")
    args = parser.parse_args(argv)

    if not (SRC / "kpe" / "cli.py").is_file():
        print(f"error: no kpe sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    settings = SMOKE if args.smoke else FULL

    if args.workload == "all":
        ok = True
        for name in WORKLOADS:
            for trace in (False, True):
                _metrics, tally = run_workload(name, args.seed, args.seconds, trace, settings)
                ok = ok and tally.correct and not tally.failed
        return 0 if ok else 1

    metrics, tally = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), settings)
    print(json.dumps({"correct": tally.correct, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0 if tally.correct else 1


if __name__ == "__main__":
    sys.exit(main())
