"""genus-forge benchmark: cold CLI requests in a closed loop, checked exactly.

    python3 perfbench/run.py --workload {qseries,orbits,selftest} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; it runs the package under `src/` as it
is, with nothing to build.  One client keeps one request in flight: each
request is a fresh `python3 perfbench/child.py -- ARGS` process (what the
`genus-forge` console script does), spawned only after the previous one
was reaped.  Requests come in decks (see workloads.py); the run stops at the
first deck boundary after S seconds, so every run measures whole decks.
Every response is checked exactly (check.py).

The machine is shared: its speed swings by up to half for seconds to
minutes at a time, on both cores at once.  So every end-to-end time is
also rescaled to a reference speed.  The harness times a fixed slice of
pure-Python Fraction arithmetic (the probe) just before a sample, every
PROBE_EVERY_S while it runs (on the other core; about 2 % of one core)
and just after it, and multiplies the sample by REFERENCE_PROBE_S over the
median probe.  The JSON metrics are rescaled; the raw ones are printed too.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs every request
twice, untraced and traced in alternating order, and prints the per-layer
metrics of tracer.py.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  See README.md for the
definition of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import check
import tracer
import workloads

HERE = Path(__file__).resolve().parent
REQUEST_CAP_S = 60     # a request still running after this is killed and failed
OVERRUN_S = 45         # past --seconds, stop even inside a deck
SETUP_SPAWNS = 7       # setup_s is the median of this many cold starts
TAIL_BEYOND = 10       # latency_tail_s needs this many samples above it
REFERENCE_PROBE_S = 0.001  # probe time that counts as reference speed
PROBE_EVERY_S = 0.05


def probe() -> float:
    """Seconds for a fixed slice of Fraction arithmetic, the kind of work
    the program does."""
    start = time.perf_counter()
    total = Fraction(0)
    for k in range(1, 300):
        total += Fraction(1, k)
    return time.perf_counter() - start


def rescale(seconds: float, probes) -> float:
    return seconds * REFERENCE_PROBE_S / statistics.median(probes)


def wait_probing(fd, start: float, probes: list) -> bool:
    """Wait until `fd` is readable, probing every PROBE_EVERY_S; False if
    REQUEST_CAP_S passed first."""
    while not select.select([fd], [], [], PROBE_EVERY_S)[0]:
        if time.perf_counter() - start > REQUEST_CAP_S:
            return False
        probes.append(probe())
    return True


class Runner:
    """Spawns request processes one at a time and reaps them with their
    resource usage."""

    def __init__(self, root: Path, workdir: Path) -> None:
        self.root, self.workdir = root, workdir
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("GENUS_FORGE_")}
        self.env["PYTHONPATH"] = str(root / "src")
        self.command = [sys.executable, str(HERE / "child.py")]

    def setup_time(self) -> tuple[float, float]:
        """Seconds, raw and rescaled, from spawning a fresh interpreter
        until the CLI has imported genus_forge and built its parser."""
        probes = [probe()]
        start = time.perf_counter()
        with subprocess.Popen(self.command + ["--ready"], cwd=self.root, env=self.env,
                              stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            if not wait_probing(proc.stdout, start, probes):
                proc.kill()
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != b"ready":
            raise RuntimeError(f"CLI failed to start (exit {proc.returncode})")
        probes.append(probe())
        return elapsed, rescale(elapsed, probes)

    def request(self, argv, trace_out: Path | None = None):
        """Run one CLI invocation; return (Response, wall seconds raw and
        rescaled, peak RSS KiB, stderr text)."""
        args = (["--trace", str(trace_out)] if trace_out else []) + ["--", *argv]
        out_path, err_path = self.workdir / "stdout", self.workdir / "stderr"
        with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
            probes = [probe()]
            start = time.perf_counter()
            proc = subprocess.Popen(self.command + args, cwd=self.root, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                pidfd = os.pidfd_open(proc.pid)
                try:
                    timed_out = not wait_probing(pidfd, start, probes)
                finally:
                    os.close(pidfd)
                if timed_out:
                    proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            probes.append(probe())
            out.seek(0)
            err.seek(0)
            stdout = out.read().decode("utf-8", "replace")
            stderr = err.read().decode("utf-8", "replace")
        return (check.Response(proc.returncode, stdout, timed_out), wall,
                rescale(wall, probes), usage.ru_maxrss, stderr)


class Tally:
    """Attempted, failed and wrong invocations, and the first failure."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.verified = 0
        self.wrong = False
        self.props = dict.fromkeys(workloads.PROPERTIES, 0)
        self.first_failure = None

    def add(self, job, responses, stderrs) -> bool:
        count = len(job.argvs)
        self.attempted += count
        for prop in job.props:
            self.props[prop] += count
        reason = check.check(job, responses)
        if reason is None:
            self.verified += count
            return True
        self.failed += count
        self.wrong |= not any(r.timed_out for r in responses)
        if self.first_failure is None:
            tail = " | ".join(s.strip().splitlines()[-1] for s in stderrs if s.strip())
            self.first_failure = f"{' ; '.join(map(' '.join, job.argvs))}: {reason}" + (
                f" [stderr: {tail}]" if tail else "")
        return False


def _jobs(deck_iter, seconds: float, start: float):
    """Jobs of whole decks until `seconds` have passed, cut inside a deck
    only after OVERRUN_S more."""
    for deck in deck_iter:
        for job in deck:
            if time.perf_counter() - start >= seconds + OVERRUN_S:
                return
            yield job
        if time.perf_counter() - start >= seconds:
            return


def tail_latency(latencies):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples above it, or None when there are too few samples."""
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        return None
    return ordered[index], 100.0 * (index + 1) / len(ordered)


def run_untraced(runner: Runner, deck_iter, seconds: float):
    runner.setup_time()  # the first start may compile bytecode; not measured
    raw_setups, setups = zip(*(runner.setup_time() for _ in range(SETUP_SPAWNS)))
    tally, raw_latencies, latencies, peak_kib = Tally(), [], [], 0
    start = time.perf_counter()
    for job in _jobs(deck_iter, seconds, start):
        responses, stderrs = [], []
        for argv in job.argvs:
            response, raw, wall, rss_kib, stderr = runner.request(argv)
            responses.append(response)
            stderrs.append(stderr)
            raw_latencies.append(raw)
            latencies.append(wall)
            peak_kib = max(peak_kib, rss_kib)
        tally.add(job, responses, stderrs)
    metrics = {
        "requests_per_s": (tally.verified / sum(latencies), "1/s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (peak_kib / 1024, "MiB"),
    }
    lines = [f"failed_ratio = {tally.failed / tally.attempted} ratio "
             f"({tally.failed} of {tally.attempted})",
             f"raw, not rescaled: requests_per_s = {tally.verified / sum(raw_latencies)}"
             f" 1/s, latency_p50_s = {statistics.median(raw_latencies)} s, "
             f"setup_s = {statistics.median(raw_setups)} s"]
    tail = tail_latency(latencies)
    if tail is None:
        lines.append(f"latency_tail_s omitted: {len(latencies)} samples, needs at "
                     f"least {TAIL_BEYOND + 1}")
    else:
        lines.append(f"latency_tail_s = {tail[0]} s (p{tail[1]:.1f} of "
                     f"{len(latencies)} samples, {TAIL_BEYOND} beyond)")
    return tally, metrics, lines


def _sum_traces(paths):
    total = {"import_ns": 0, "covered_ns": 0, "spans": {}, "modules": {}, "caches": {}}
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        total["import_ns"] += data["import_ns"]
        total["covered_ns"] += data["covered_ns"]
        for key in ("spans", "modules", "caches"):
            for name, values in data[key].items():
                acc = total[key].setdefault(name, [0] * len(values))
                for i, v in enumerate(values):
                    acc[i] += v
    return total


def layer_metrics(total, requests: int, traced_s: float, untraced_s: float) -> dict:
    """Per-request means of the traced totals, named as in LAYER_METRICS."""
    spans, modules = total["spans"], total["modules"]
    out = {}
    for name, (unit, _, _) in tracer.LAYER_METRICS.items():
        if name == "cli.startup_s":
            busy = spans.get("cli.build_parser", [0, 0, 0])[1]
            value = (total["import_ns"] + busy) / 1e9 / requests
        elif name == "modular.eisenstein_qexp.hit_ratio":
            hits, misses = total["caches"].get("modular.eisenstein_qexp", [0, 0])
            value = hits / (hits + misses) if hits + misses else 0.0
        elif name == "trace.overhead_ratio":
            value = traced_s / untraced_s - 1
        elif name == "trace.coverage":
            value = (total["import_ns"] + total["covered_ns"]) / 1e9 / traced_s
        else:
            prefix, suffix = name.rsplit(".", 1)
            if "." in prefix:  # one span name: [calls, busy_ns, self_ns]
                stats = spans.get(prefix, [0, 0, 0])
                raw = {"calls": stats[0], "count": stats[0],
                       "busy_s": stats[1], "self_s": stats[2]}[suffix]
            else:  # a whole module: [busy_ns, self_ns]
                stats = modules.get(prefix, [0, 0])
                raw = {"busy_s": stats[0], "self_s": stats[1]}[suffix]
            value = raw / requests / (1e9 if unit == "s" else 1)
        out[name] = (value, unit)
    return out


def run_traced(runner: Runner, deck_iter, seconds: float):
    tally, traces = Tally(), []
    traced_s = untraced_s = 0.0
    start = time.perf_counter()
    for job in _jobs(deck_iter, seconds, start):
        responses, stderrs = [], []
        for argv in job.argvs:
            trace_path = runner.workdir / f"trace{len(traces)}.json"
            traced_first = len(traces) % 2 == 0
            if traced_first:
                traced = runner.request(argv, trace_path)
            untraced = runner.request(argv)
            if not traced_first:
                traced = runner.request(argv, trace_path)
            traced_s += traced[1]
            untraced_s += untraced[1]
            traces.append(trace_path)
            responses += [traced[0], untraced[0]]
            stderrs += [traced[4], untraced[4]]
        # Check the traced and the untraced responses as two copies of the job.
        tally.add(job, responses[0::2], stderrs[0::2])
        tally.add(job, responses[1::2], stderrs[1::2])
    total = _sum_traces(p for p in traces if p.exists())
    metrics = layer_metrics(total, len(traces), traced_s, untraced_s)
    lines = [f"traced requests: {len(traces)}, traced {traced_s:.3f} s vs "
             f"untraced {untraced_s:.3f} s"]
    return tally, metrics, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run still kills its request and removes its files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "genus_forge" / "cli.py").is_file():
        print(f"error: no genus_forge package under {root / 'src'}; run from the "
              "root of a genus-forge checkout", file=sys.stderr)
        return 2
    workdir = root / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workdir)
        decks = workloads.decks(args.workload, args.seed, workdir)
        run = run_traced if args.trace else run_untraced
        tally, metrics, lines = run(runner, decks, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, "
          f"trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value} {unit}")
    for line in lines:
        print(line)
    if args.workload != "selftest":
        shares = ", ".join(f"{p} {n / tally.attempted:.3f}"
                           for p, n in tally.props.items() if n)
        print(f"share of requests: {shares or 'none of the tracked properties'}")
    if tally.first_failure:
        print(f"first failure: {tally.first_failure}", file=sys.stderr)
    print(json.dumps({"correct": not tally.wrong, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if not tally.wrong else 1


if __name__ == "__main__":
    sys.exit(main())
