"""nablainv benchmark: seeded closed-loop CLI workloads checked against references.

    python3 bench/run.py --workload rational-short --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --selftest

One client sends ``nablainv.cli.main(argv)`` requests in this process, one
at a time (closed loop, one outstanding request), each under a 1 s deadline.
A run sends a fixed list of whole blocks of the seed's request stream, at
least MIN_REQUESTS and, in rational-short, REQUESTS_PER_S per second of
--seconds; requests faster than FAST_S are timed REPEATS times in passes
over the list.  Times and the deadline are at reference speed (``speed.py``).
Every answer is judged against a reference computed by ``reference.py``
outside the timed region.

--trace 0 prints the end-to-end metrics; --trace 1 replays a fixed prefix of
the same request stream untraced and then traced, and prints the per-layer
metrics.  The last line of stdout is the JSON result.  See README.md here for
the metrics, the workloads and which layer should move which metric.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the measured client is single-threaded on a 2-core machine.
# Set before numpy is first imported, here or in the setup interpreters.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

import harness  # noqa: E402
import reference  # noqa: E402
import selftest  # noqa: E402
import workloads  # noqa: E402
from speed import Speed  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

MIN_REQUESTS = 100
# About --seconds of request time at the seed, counting the REPEATS timings.
REQUESTS_PER_S = {"rational-short": 40, "fractional": 15}
REPEATS = 3
# Requests faster than this at reference speed get REPEATS timings: the p50
# and p90 of the invert workloads lie below it.  At most half the deadline,
# so that a repeat cannot come near it.
FAST_S = 0.5
SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
# Requests replayed by --trace 1: whole blocks.
TRACE_REQUESTS = {"rational-short": 240, "rational-long": 20, "fractional": 20,
                  "verify": 20}
# The child reports the time since its parent's spawn call on the system-wide
# monotonic clock, so the parent's polling in subprocess.wait adds no jitter.
# Then it times the calibration kernel, so its own speed scales that time.
SETUP_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
              "import nablainv.cli as cli; cli.build_parser(); "
              "ready = time.monotonic() - float(sys.argv[2]); "
              "sys.path.insert(0, sys.argv[3]); import speed; s = speed.Speed(); "
              "[s.sample() for _ in range(2 * speed.WINDOW + 3)]; "
              "print(ready * s.factor(len(s.times) - speed.WINDOW - 1))")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def spawn_seconds():
    """Seconds at reference speed until a fresh interpreter could take a request."""
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), repr(time.monotonic()),
                           str(BENCH)],
                          check=True, timeout=60, capture_output=True, text=True)
    return float(proc.stdout)


def setup_seconds():
    """Median over fresh interpreters of the time, at reference speed, from
    spawning one to its first request being possible."""
    return statistics.median(spawn_seconds() for _ in range(SETUP_REPEATS))


def import_breakdown():
    """numpy, scipy and nablainv's own import time (ms) from ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); import nablainv.cli", str(SRC)],
        check=True, timeout=60, capture_output=True, text=True)
    rows = []  # (depth, name, cumulative us)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        field = parts[2].rstrip()
        rows.append(((len(field) - len(field.lstrip()) - 1) // 2, field.strip(),
                     int(parts[1])))
    # importtime prints a module after its children: attach pending children
    parent, pending = {}, {}
    for i, (depth, _, _) in enumerate(rows):
        for child in pending.pop(depth + 1, []):
            parent[child] = i
        pending.setdefault(depth, []).append(i)

    def under(i, prefixes):
        name = rows[i][1]
        return any(name == p or name.startswith(p + ".") for p in prefixes)

    def outermost_ms(prefix, exclusive=("numpy", "scipy")):
        """Cumulative time of ``prefix`` imports not nested in an ``exclusive`` one."""
        total = 0
        for i in range(len(rows)):
            if not under(i, (prefix,)):
                continue
            j = parent.get(i)
            while j is not None and not under(j, (prefix, *exclusive)):
                j = parent.get(j)
            total += rows[i][2] if j is None else 0
        return total / 1e3

    numpy_ms, scipy_ms = outermost_ms("numpy"), outermost_ms("scipy")
    return {"setup.numpy_ms": numpy_ms, "setup.scipy_ms": scipy_ms,
            "setup.nablainv_ms": outermost_ms("nablainv", ()) - numpy_ms - scipy_ms}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Client:
    """Closed-loop client: prepares each request's reference, sends it, judges it."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.stream = workloads.requests(workload, seed)
        self.census = harness.Census()
        self.samples = []  # one per request: (seconds at reference speed, ok, K, size)
        self.busy = 0.0  # wall time spent in main(argv), every timing counted
        self.speed = Speed()

    def take(self, count):
        """The next whole blocks of the stream, at least ``count`` requests."""
        reqs = []
        for req in self.stream:
            reqs.append(req)
            if len(reqs) >= count and req["block_end"]:
                return reqs

    def prepare(self, req):
        """Reference grid and, for verify, the confirmation; never timed."""
        expected = reference.values(req["ref"], req["K"])
        confirmed = None
        if req["argv"][0] == "verify":
            confirmed = harness.inversion_confirmed(self.cli.main, req["argv"], expected)
        return expected, confirmed

    def send(self, req, prepared, tracer=None):
        """(wall seconds, kernel sample, failure kind or None, detail) of one
        judged request, sent right after a calibration kernel timing."""
        expected, confirmed = prepared
        sample = self.speed.sample()
        outcome = harness.send(self.cli.main, req["argv"], tracer and tracer.on_deadline,
                               self.speed.deadline(harness.DEADLINE_S))
        if tracer:
            tracer.end_request()
        self.busy += outcome.elapsed
        return (outcome.elapsed, sample,
                *harness.judge(req["argv"], outcome, expected, confirmed))

    def measure(self, reqs, prepared=None, repeats=1, tracer=None):
        """Send every request once, then ``repeats - 1`` more passes over the
        ones that took less than FAST_S.  A request's latency is the median
        of its timings at reference speed, and it fails if any of its answers
        is wrong, so both depend on the request list, not on the machine's
        phase.  Returns the summed latencies."""
        timings, failures, fast = [], [], {}
        for i, req in enumerate(reqs):
            ready = prepared[i] if prepared else self.prepare(req)
            seconds, sample, kind, detail = self.send(req, ready, tracer)
            timings.append([(seconds, sample)])
            failures.append((kind, detail))
            if seconds * self.speed.factor(sample) < FAST_S:
                fast[i] = ready
        for _ in range(repeats - 1):
            for i, ready in fast.items():
                seconds, sample, kind, detail = self.send(reqs[i], ready, tracer)
                timings[i].append((seconds, sample))
                if kind and not failures[i][0]:
                    failures[i] = (kind, detail)
        self.speed.sample()  # closes the window of the last request
        latencies = [statistics.median(t * self.speed.factor(k) for t, k in ts)
                     for ts in timings]
        for req, seconds, (kind, detail) in zip(reqs, latencies, failures):
            if kind:
                self.census.add(kind, req, detail)
            self.samples.append((seconds, kind is None, req["K"], req["size"]))
        return sum(latencies)

    def failed(self):
        return sum(1 for _, ok, _, _ in self.samples if not ok)


def quantile(values, p):
    """Harrell-Davis estimate of the p-quantile: order statistics weighted by a
    Beta(p(n+1), (1-p)(n+1)) law.  With ~100 samples it is far steadier than a
    single order statistic, whose value carries one request's timing noise.
    The Beta CDF is integrated numerically (needs n >= 10 for p = 0.9)."""
    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    t = np.linspace(0.0, 1.0, 20001)
    with np.errstate(divide="ignore"):
        pdf = np.exp((a - 1) * np.log(t) + (b - 1) * np.log1p(-t)
                     + math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b))
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) / 2)))
    weights = np.diff(np.interp(np.arange(n + 1) / n, t, cdf / cdf[-1]))
    return float(np.dot(weights, x))


def end_to_end(cli, workload, seed, seconds):
    setup = setup_seconds()
    client = Client(cli, workload, seed)
    reqs = client.take(max(MIN_REQUESTS, round(REQUESTS_PER_S.get(workload, 0) * seconds)))
    busy = client.measure(reqs, repeats=REPEATS)
    times = [t for t, _, _, _ in client.samples]
    good = [(K, size) for _, ok, K, size in client.samples if ok]
    n = len(times)
    Ks = [K for _, _, K, _ in client.samples]
    metrics = {
        "setup_s": (setup, "s"),
        "latency_p50_ms": (1e3 * quantile(times, 0.5), "ms"),
        "latency_p90_ms": (1e3 * quantile(times, 0.9), "ms"),
        "goodput_rps": (len(good) / busy, "req/s"),
        "values_per_s": (sum(K for K, _ in good) / busy, "1/s"),
        "ok_frac": (len(good) / n, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"workload {workload}, seed {seed}: {n} requests, {client.busy:.2f} s of request "
          f"time, {busy:.2f} s at reference speed; "
          f"K {min(Ks)}..{max(Ks)} (mean {statistics.fmean(Ks):.0f}), mean size "
          f"{statistics.fmean(s for _, _, _, s in client.samples):.2f}")
    notes = {"setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
             "latency_p90_ms": f"n={n}, {n - int(0.9 * n)} beyond",
             "values_per_s": f"at mean K {statistics.fmean(Ks):.0f}"}
    for name, (value, unit) in metrics.items():
        print(f"  {name:<16} {value:14.6g} {unit:<6} {notes.get(name, f'n={n}')}")
    report(client)
    return client, metrics


def traced(cli, workload, seed):
    import nablainv

    setup = [import_breakdown() for _ in range(IMPORTTIME_REPEATS)]
    client = Client(cli, workload, seed)
    reqs = client.take(TRACE_REQUESTS[workload])
    prepared = [client.prepare(r) for r in reqs]
    # Raw wall times here: the spans' self times are raw wall times too.
    client.measure(reqs, prepared)
    untraced = client.busy

    client.census, client.samples = harness.Census(), []
    tracer = Tracer()
    tracer.install(nablainv)
    client.measure(reqs, prepared, tracer=tracer)
    wall = client.busy - untraced

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_ms"] = (1e3 * tracer.self_s[layer], "ms")
        metrics[f"{layer}.calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}.errors"] = (tracer.errors[layer], "count")
        metrics[f"{layer}.deadline_hits"] = (tracer.deadline_hits[layer], "count")
    evaluate = ("ClosedFormSequence.evaluate", "ClosedFormSequence.evaluate_complex")
    metrics.update({
        "polynomial.roots_ms": (tracer.inclusive_ms("roots_with_multiplicities"), "ms"),
        "polynomial.series_divide_ms": (tracer.inclusive_ms("series_divide"), "ms"),
        "polynomial.series_coeffs": (tracer.series_coeffs, "count"),
        "inversion.evaluate_ms": (tracer.inclusive_ms(*evaluate), "ms"),
        "inversion.values": (tracer.name_calls(*evaluate), "count"),
        "special.ml_ms": (tracer.inclusive_ms("discrete_mittag_leffler"), "ms"),
        "special.ml_calls": (tracer.name_calls("discrete_mittag_leffler"), "count"),
        "verify.quadrature_ms": (tracer.inclusive_ms("numeric_inverse"), "ms"),
        "verify.quadrature_calls": (tracer.name_calls("numeric_inverse"), "count"),
        "verify.forward_sum_ms": (tracer.inclusive_ms("forward_transform"), "ms"),
        "verify.forward_sum_calls": (tracer.name_calls("forward_transform"), "count"),
    })
    for name in setup[0]:
        metrics[name] = (statistics.median(s[name] for s in setup), "ms")
    metrics["trace.overhead_frac"] = (wall / untraced - 1.0, "ratio")

    self_total = sum(1e3 * tracer.self_s[layer] for layer in LAYERS)
    print(f"workload {workload}, seed {seed}: traced {len(reqs)} requests; traced wall "
          f"{1e3 * wall:.1f} ms, untraced {1e3 * untraced:.1f} ms; layer self times sum "
          f"to {self_total:.1f} ms ({100 * self_total / (1e3 * wall):.2f}% of traced wall)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{workload}-{seed}.jsonl"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} of {tracer.next_id} written to {path.relative_to(ROOT)}")
    report(client)
    return client, metrics


def report(client):
    print(f"failures: {client.failed()} of {len(client.samples)}")
    for line in client.census.lines():
        print(line)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(workloads.BLOCKS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="run the benchmark's own checks and exit")
    args = ap.parse_args()

    if not (SRC / "nablainv" / "cli.py").is_file():
        fail(f"no nablainv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nablainv.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        fail(f"imported nablainv from {cli.__file__}, not from {SRC}")
    problems = selftest.reference_checks()
    if problems:
        fail("reference self-check failed: " + "; ".join(problems))
    if args.selftest:
        sys.exit(selftest.main(cli))
    if not args.workload:
        fail("--workload is required")

    if args.trace:
        client, metrics = traced(cli, args.workload, args.seed)
    else:
        client, metrics = end_to_end(cli, args.workload, args.seed, args.seconds)
    print(json.dumps({
        "correct": True,  # every answer was judged; wrong ones are counted in "failed"
        "attempted": len(client.samples),
        "failed": client.failed(),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
