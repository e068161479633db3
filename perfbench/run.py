#!/usr/bin/env python3
"""Closed-loop benchmark of the speigen CLI, one workload per run.

    python3 perfbench/run.py --workload decide-large-t --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports the package from
``src/`` and exits 2 without a result when that tree is missing.  One client
in this process sends one request at a time, each an in-process
``speigen.cli.main(argv)`` call with ``--json`` and stdout captured, for
``--seconds`` seconds of timed work.  Each response is checked as it
arrives, with the clock stopped (``checker.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

With ``--trace 1`` every request is sent twice, untraced and traced, and the
run reports the per-layer metrics of the traced calls plus the tracing
overhead: the traced calls' extra share of time.  Spans are written to
``perfbench-out/trace-<workload>.json``.  README.md explains the workloads
and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import workloads  # noqa: E402  (needs ROOT on sys.path)

SETUP_PROBES = 7  # fresh processes timed for setup_s; the median is reported
DIGEST_REQUESTS = 64  # responses covered by the digest, run untimed if need be
# p95 for every workload: at this commit's rates at least ten samples lie
# beyond it.  p99 on sign-words sits at the edge of a sparse band of rare
# long searches: over five seeds its quartiles spread by 14% of the median,
# p95's by 5%.
TAIL_PERCENTILE = 95.0
TAIL_GRID = (50.0, 75.0, 90.0, 95.0, 99.0, 99.5, 99.9)
DEFAULT_SEED = 1
# sha256 of the first DIGEST_REQUESTS responses for DEFAULT_SEED.
RECORDED_DIGESTS = {
    "decide-large-t": "375b2dcb0068e73fd9101638bc0a8234732a37bbfd3c3df654ea3e6a620c65b7",
    "validate-probe": "296f49bc591f8595495cecc29009b163dd9aff0d754615a59d32b3165bc03124",
    "sign-words": "c929afdbb650480aa9b0032e730e839c8541fd38728912392d904c41f3a55621",
}


class SourceMissing(Exception):
    pass


def load_cli():
    """Import ``speigen.cli`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "speigen" / "__init__.py").is_file():
        raise SourceMissing(f"no speigen package under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    from speigen import cli

    if Path(cli.__file__).resolve().parent.parent != src.resolve():
        raise SourceMissing(f"speigen was imported from {cli.__file__}, not from {src}")
    return cli


# --------------------------------------------------------------------------
# Requests
# --------------------------------------------------------------------------


def call(cli, req: workloads.Request, tracer=None) -> tuple[object, str, str, float]:
    """One request: (exit code or failure description, stdout, stderr, latency in s)."""
    out, err = io.StringIO(), io.StringIO()
    argv = req.argv
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.span("cli.main"):
                    rc = cli.main(argv)
    except SystemExit as exc:
        rc = f"SystemExit({exc.code!r})"
    except Exception as exc:  # a failed request is counted, not fatal
        rc = f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), err.getvalue(), perf_counter() - start


def warm_up(cli, workload: str) -> None:
    for req in workloads.warm_up_requests(workload):
        rc, _, err, _ = call(cli, req)
        if rc != 0:
            raise RuntimeError(f"warm-up request {req.argv} failed: {rc} {err.strip()}")


class Tally:
    """Checks each response as it arrives and keeps only counts and latencies.

    Checking between requests, with the clock stopped, keeps the memory the
    benchmark holds independent of how many requests a run completes, so
    ``peak_rss_mb`` measures the program rather than stored responses.
    """

    def __init__(self):
        from perfbench.checker import Checker

        self.checker = Checker()
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.check_s = 0.0
        self._digest = hashlib.sha256()

    def add(self, req: workloads.Request, rc, stdout: str, stderr: str, extra: tuple[str, ...] = ()) -> None:
        start = perf_counter()
        if self.attempted < DIGEST_REQUESTS:
            self._digest.update(f"{rc}\n{stdout}\0".encode())
        self.attempted += 1
        problems = self.checker.check(req, rc, stdout) + list(extra)
        if problems:
            self.failed += 1
            if len(self.failures) < 5:
                self.failures.append(f"FAILED {' '.join(req.argv)}: {'; '.join(problems)} {stderr.strip()[:200]}")
        self.check_s += perf_counter() - start

    @property
    def digest(self) -> str:
        """sha256 of the first DIGEST_REQUESTS responses."""
        return self._digest.hexdigest()


def drive(step, stream, seconds: float, tally: Tally) -> float:
    """Closed loop: the next request goes out only after the previous returned.

    ``step(req, request_id)`` sends one request and returns its (rc, stdout,
    stderr, latency, extra problems).  The clock stops while a response is
    checked.  The loop runs until ``seconds`` of timed work, then on, untimed,
    until the digest's requests are done.  Returns the timed wall time.
    """
    elapsed = 0.0
    while elapsed < seconds or tally.attempted < DIGEST_REQUESTS:
        timed = elapsed < seconds
        start = perf_counter()
        req = next(stream)
        rc, out, err, latency, extra = step(req, tally.attempted)
        if timed:
            elapsed += perf_counter() - start
            tally.latencies.append(latency)
        tally.add(req, rc, out, err, extra)
    return elapsed


# --------------------------------------------------------------------------
# Metrics
# --------------------------------------------------------------------------


def percentile(sorted_values: list[float], p: float) -> float:
    """Linear interpolation between closest ranks."""
    if not sorted_values:
        return 0.0
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int) -> float:
    """The declared tail percentile while >= 10 samples lie beyond it.

    A fixed percentile keeps the metric comparable when a faster commit
    completes more requests; with too few samples the highest grid
    percentile that has ten beyond it is used instead.
    """
    if n * (1.0 - TAIL_PERCENTILE / 100.0) >= 10:
        return TAIL_PERCENTILE
    fitting = [p for p in TAIL_GRID if n * (1.0 - p / 100.0) >= 10]
    return fitting[-1] if fitting else TAIL_GRID[0]


def end_to_end(tally: Tally, elapsed: float) -> tuple[dict, list[str]]:
    latencies = sorted(1e3 * x for x in tally.latencies)
    n = len(latencies)
    p = tail_percentile(n)
    tail = percentile(latencies, p)
    beyond = sum(1 for x in latencies if x > tail)
    error_rate = tally.failed / tally.attempted
    metrics = {
        "ops_per_s": (n / elapsed, "1/s"),
        "latency_p50_ms": (percentile(latencies, 50.0), "ms"),
        "latency_tail_ms": (tail, "ms"),
        "success_rate": (1.0 - error_rate, "ratio"),
    }
    lines = [
        f"timed requests: {n} in {elapsed:.3f} s; attempted {tally.attempted}, failed {tally.failed}, "
        f"error_rate {error_rate:.4f}",
        f"latency_tail_ms is p{p:g} over {n} samples, {beyond} beyond it",
    ]
    return metrics, lines


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


# --------------------------------------------------------------------------
# Set-up, facts and the kernel check
# --------------------------------------------------------------------------


def setup_probe(workload: str) -> int:
    """Child mode: time import plus warm-up in a fresh interpreter."""
    start = perf_counter()
    cli = load_cli()
    warm_up(cli, workload)
    print(json.dumps({"setup_s": perf_counter() - start}))
    return 0


def measure_setup(workload: str, probes: int) -> list[float]:
    times = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        ref_file = ROOT / ".git" / name
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable (not a git checkout)"


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: shows how fast the machine ran then."""
    start = perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return perf_counter() - start


def run_facts(args, stage: str) -> list[str]:
    import numpy

    from speigen import _kernels

    lane = getattr(_kernels, "ACTIVE_LANE", "numpy (no lane switch)")
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    lines = [f"load average at {stage}: {load}; reference loop {1e3 * reference_loop_s():.2f} ms"]
    if stage == "start":
        lines = [
            f"workload {args.workload}, seed {args.seed}, {args.seconds} s, trace {args.trace}",
            f"python {platform.python_version()}, numpy {numpy.__version__}, active kernel lane {lane}",
            f"nproc {cpus}, commit {git_commit()}",
            *lines,
        ]
    return lines


def kernel_check() -> tuple[bool, list[str]]:
    """Lane agreement plus agreement with the scalar transform, before timing.

    The lane comparison is the one in benchmarks/bench_kernels.py: every
    compiled lane must match the numpy lane within 5e-12.
    """
    import numpy as np

    from speigen import _kernels, build_instance, fourier_value, fourier_values, spectrum_level

    inst = build_instance(2, 3, 2, [1])
    elements = np.array(spectrum_level(inst, 1, 3).elements, dtype=np.float64)
    grid = np.arange(8, dtype=np.float64) / 8.0
    xs = (grid[:, None] - elements[None, :]).ravel()
    tol = 1e-12
    active = fourier_values(inst, xs, tol=tol)
    scalar = np.array([fourier_value(inst, x, tol=tol) for x in xs])
    worst_scalar = float(np.max(np.abs(active - scalar)))
    ok = worst_scalar <= 5e-12
    lines = [f"kernel check: max |batched - scalar| = {worst_scalar:.3e} over {xs.size} frequencies"]
    numpy_lane = getattr(_kernels, "fourier_products_numpy", None)
    if getattr(_kernels, "HAVE_NUMBA", False) and numpy_lane is not None:
        from speigen.measure import _numeric_params

        n_base, scales, m_scale, max_digit = _numeric_params(inst)
        params = (scales, n_base, m_scale, max_digit, tol)
        worst = float(np.max(np.abs(_kernels.fourier_products_jit(xs, *params) - numpy_lane(xs, *params))))
        ok = ok and worst <= 5e-12
        lines.append(f"lane agreement: max |numba - numpy| = {worst:.3e}")
    else:
        lines.append("numba is not installed (or disabled): its lane goes unmeasured")
    return ok, lines


# --------------------------------------------------------------------------
# Runs
# --------------------------------------------------------------------------


def traced_run(cli, args, tally: Tally):
    """Each request twice, untraced and traced, in alternating order.

    Pairing the two calls in time keeps the machine's drifting speed out of
    the tracing overhead.  The traced response is checked, and its untraced
    twin must be byte-identical.  Returns the tracer, each request's M, the
    traced and untraced seconds over all pairs, and the patch targets that
    do not exist.
    """
    from perfbench import tracing

    tracer = tracing.Tracer()
    request_m: dict[int, int] = {}
    missing: set[str] = set()
    seconds = {"traced": 0.0, "untraced": 0.0}

    def traced(req):
        with tracing.patched(tracer) as absent:
            missing.update(absent)
            with tracer.span("request"):
                return call(cli, req, tracer)

    def step(req, rid):
        tracer.request_id = rid
        request_m[rid] = req.instance.M
        if rid % 2:
            rc, out, err, latency = traced(req)
            twin = call(cli, req)
        else:
            twin = call(cli, req)
            rc, out, err, latency = traced(req)
        seconds["traced"] += latency
        seconds["untraced"] += twin[3]
        extra = () if twin[:2] == (rc, out) else ("untraced twin returned different output",)
        return rc, out, err, latency, extra

    drive(step, workloads.requests(args.workload, args.seed), args.seconds, tally)
    return tracer, request_m, seconds, sorted(missing)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    try:
        if args.setup_probe:
            return setup_probe(args.workload)
        start = perf_counter()
        cli = load_cli()
        warm_up(cli, args.workload)
        in_process_setup = perf_counter() - start
    except SourceMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from perfbench import checker, tracing

    lines = run_facts(args, "start")
    # Set-up is an end-to-end metric only.  Its probes run partly before the
    # loop and partly after it, so the median spans two stretches of the
    # machine's drifting speed.
    setup_times = [] if args.trace else measure_setup(args.workload, SETUP_PROBES // 2)
    kernel_ok, kernel_lines = kernel_check()
    lines += kernel_lines
    for line in lines:
        print(line)

    tally = Tally()
    if args.trace:
        tracer, request_m, seconds, missing = traced_run(cli, args, tally)
        pairs = tally.attempted
        layers = tracing.Layers(tracer, request_m)
        metrics = tracing.layer_metrics(layers)
        metrics["trace.ops_per_s"] = (pairs / seconds["traced"], "1/s")
        metrics["trace.overhead_ratio"] = (1.0 - seconds["untraced"] / seconds["traced"], "ratio")
        out_path = ROOT / "perfbench-out" / f"trace-{args.workload}.json"
        tracer.write(out_path)
        report = [
            f"{pairs} request pairs: untraced {pairs / seconds['untraced']:.3f} ops/s, "
            f"traced {pairs / seconds['traced']:.3f} ops/s, overhead {metrics['trace.overhead_ratio'][0]:.2%}",
            f"{len(tracer.start)} spans written to {out_path}",
            *(f"not traced (no such attribute): {m}" for m in missing),
            *tracing.layer_table(layers),
        ]
    else:
        elapsed = drive(
            lambda req, _: (*call(cli, req), ()), workloads.requests(args.workload, args.seed), args.seconds, tally
        )
        metrics, report = end_to_end(tally, elapsed)
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    recorded = RECORDED_DIGESTS[args.workload] if args.seed == DEFAULT_SEED else None
    verdict = "no digest recorded for this seed" if recorded is None else (
        "matches the recorded one" if tally.digest == recorded else "DIFFERS from the recorded one"
    )
    report.append(f"digest of the first {DIGEST_REQUESTS} responses: {tally.digest} ({verdict})")
    if not args.trace:
        setup_times = sorted(setup_times + measure_setup(args.workload, SETUP_PROBES - SETUP_PROBES // 2))
        metrics["setup_s"] = (setup_times[len(setup_times) // 2], "s")
        report.append(
            f"setup_s {metrics['setup_s'][0]:.4f} s: median of {SETUP_PROBES} fresh processes "
            f"({', '.join(f'{x:.4f}' for x in setup_times)})"
        )
    report += [
        f"set-up in this process: {in_process_setup:.4f} s",
        f"checks took {tally.check_s:.3f} s untimed; oracle-checked responses: {tally.checker.oracle_checked} "
        f"(word budget per response {checker.WORD_BUDGET})",
    ]
    correct = tally.failed == 0 and kernel_ok
    for line in tally.failures + report + run_facts(args, "end"):
        print(line)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
