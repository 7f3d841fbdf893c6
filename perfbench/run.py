"""boundfilter benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload family-scan --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from that
checkout's src/, never from an installed copy.  One client issues requests
in a closed loop, in this process and without extra threads, by calling
boundfilter.cli.main(argv) with stdout captured; fresh `python -m
boundfilter` processes give the set-up time and the peak RSS.  Every output
is checked through an independent route (checks.py, oracles.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs each request
twice, plain and with spans around the package's public functions
(spans.py), in alternating order; it checks that both print the same bytes
and reports per-layer metrics and the tracing overhead.  `--workload all`
runs every workload in turn.  The last line of stdout is one JSON object
with keys correct, attempted, failed and metrics; the full record,
provenance included, goes to perfbench/out/.
"""

import os

THREAD_PINS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)  # before numpy is imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import calib  # noqa: E402
from checks import Checker, corruptions  # noqa: E402
from spans import Tracer, metric_names  # noqa: E402
from workloads import WORKLOADS, Request  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 9
TAIL_CAP = 0.95
CHILD_TIMEOUT_S = 120
# seconds of requests between two samples of the reference kernel
REF_EVERY_S = 0.2
HELP = Request("help", ["--help"])

# (name, unit) of the metrics gated per workload with --trace 0
END_TO_END = (
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
TRACE_SUMMARY = (
    ("trace.overhead_pct", "%"),
    ("trace.untraced_p50_ms", "ms"),
    ("trace.traced_p50_ms", "ms"),
    ("trace.spans_per_req", "count/req"),
)
PER_LAYER = tuple(metric_names()) + TRACE_SUMMARY


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# the package under test
# ---------------------------------------------------------------------------


def load_package():
    if not (SRC / "boundfilter" / "__init__.py").is_file():
        raise BenchError(f"no boundfilter sources under {SRC}")
    sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("boundfilter")
    for sub in ("cli", "mcsim", "kernels"):
        importlib.import_module(f"boundfilter.{sub}")
    if Path(pkg.__file__).resolve().parent != SRC / "boundfilter":
        raise BenchError(f"imported boundfilter from {pkg.__file__}, not {SRC}")
    return pkg


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() or None


def provenance(pkg):
    kernels = pkg.kernels
    enabled = getattr(kernels, "numba_enabled", lambda: False)()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "numba_imported": "numba" in sys.modules,
        "numba_enabled": enabled,
        "lottery_path": "numba" if enabled else "numpy",
        "generator": getattr(kernels, "GENERATOR_NAME", None),
        "boundfilter_file": pkg.__file__,
        "boundfilter_version": getattr(pkg, "__version__", None),
        "git_commit": git_commit(),
        "thread_pins": THREAD_PINS,
    }


# ---------------------------------------------------------------------------
# issuing requests
# ---------------------------------------------------------------------------


def call_cli(pkg, argv):
    """One in-process request: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = pkg.cli.main(argv)
        except SystemExit as e:
            rc = e.code if isinstance(e.code, int) else 2
        except Exception:  # a crash is a failed request, not a dead run
            traceback.print_exc()
            rc = "exception"
        elapsed = time.perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


# `python -m boundfilter` plus a report of the process's own peak RSS.  The
# wait4/getrusage figure would not do: a child inherits the spawning
# process's high-water mark at exec, so it never reads below the harness.
PEAK_TAG = "PERFBENCH_PEAK_RSS_KB"
PEAK_MAIN = """\
import atexit, runpy, sys
def report():
    with open("/proc/self/status") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("\\n%s " + kb + "\\n")
atexit.register(report)
runpy.run_module("boundfilter", run_name="__main__", alter_sys=True)
""" % PEAK_TAG


def run_child(argv, peak=False):
    """`python -m boundfilter argv` in a fresh process:
    (exit code, stdout, stderr, wall seconds, peak RSS in MB or None)."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    if peak:
        cmd = [sys.executable, "-c", PEAK_MAIN]
    else:
        cmd = [sys.executable, "-m", "boundfilter"]
    start = time.perf_counter()
    try:
        res = subprocess.run(
            cmd + argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "timeout", "", "", time.perf_counter() - start, None
    wall = time.perf_counter() - start
    err, mb = res.stderr, None
    if peak and PEAK_TAG in err:
        err, _, kb = err.rpartition(f"\n{PEAK_TAG} ")
        mb = int(kb) / 1024
    return res.returncode, res.stdout, err, wall, mb


class Tally:
    """Requests attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []  # failures of the harness itself, e.g. a blind check
        self.reasons = []

    def record(self, req, reason, stderr=""):
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        if len(self.reasons) < 10:
            detail = f" [{stderr.strip().splitlines()[-1]}]" if stderr.strip() else ""
            self.reasons.append(f"{' '.join(req.argv)}: {reason}{detail}")

    @property
    def correct(self):
        return self.failed == 0 and not self.problems


def warm_up(pkg, checker, req, tally):
    """First request of a run, untimed; its checked output must also be
    rejected by the check after each corruption."""
    rc, out, err, _ = call_cli(pkg, req.argv)
    reason = checker.check(req, rc, out)
    tally.record(req, reason, err)
    if reason is None:
        for name, bad in corruptions(req, out):
            if checker.check(req, 0, bad) is None:
                tally.problems.append(f"check missed a corruption: {name}")


def latency_summary(lat):
    """Median, and the highest percentile up to p95 that has at least 10
    samples above it (nearest rank).  The cap binds only above 200 samples;
    it keeps a run of thousands of small requests from reporting the host's
    scheduling stalls, rather than its slowest requests, as the tail."""
    s = sorted(lat)
    n = len(s)
    if n > 10:
        rank = min(n - 10, math.ceil(n * TAIL_CAP))
        tail, pct, beyond = s[rank - 1], 100.0 * rank / n, n - rank
    else:
        tail, pct, beyond = s[-1], 100.0, 0
    return {
        "samples": n,
        "p50_ms": statistics.median(s) * 1e3,
        "tail_ms": tail * 1e3,
        "tail_percentile": pct,
        "tail_samples_beyond": beyond,
    }


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


class HostSpeed:
    """Recent timings of the reference kernel (calib.py)."""

    def __init__(self):
        self.samples = []

    def sample(self):
        self.samples.append(calib.kernel_seconds())

    def scale(self):
        """Factor that takes a time measured now to reference speed; the
        median of the last three samples damps one-off interruptions."""
        return calib.REFERENCE_S / statistics.median(self.samples[-3:])


def run_plain(wl, pkg, checker, seconds, tally):
    setup = []
    for _ in range(SETUP_REPS):
        rc, out, err, wall, _ = run_child(HELP.argv)
        tally.record(HELP, checker.check(HELP, rc, out), err)
        setup.append(wall)
    rss, rss_requests = [], wl.first(wl.rss_requests)
    for req in rss_requests:
        rc, out, err, _, mb = run_child(req.argv, peak=True)
        reason = checker.check(req, rc, out)
        if reason is None and mb is None:
            reason = "no peak RSS report"
        tally.record(req, reason, err)
        rss.append(mb or 0.0)

    gen = wl.requests()
    warm_up(pkg, checker, next(gen), tally)
    speed = HostSpeed()
    lat, lat_raw, work = [], [], 0
    if wl.scaled:
        speed.sample()
    last_sample = time.perf_counter()
    end = last_sample + seconds
    while time.perf_counter() < end:
        req = next(gen)
        rc, out, err, elapsed = call_cli(pkg, req.argv)
        tally.record(req, checker.check(req, rc, out), err)
        lat_raw.append(elapsed)
        lat.append(elapsed * speed.scale() if wl.scaled else elapsed)
        work += req.work
        if wl.scaled and time.perf_counter() - last_sample >= REF_EVERY_S:
            speed.sample()
            last_sample = time.perf_counter()

    units = dict(END_TO_END)
    timings, lat_s = timing_metrics(lat)
    metrics = dict(timings, peak_rss_mb=max(rss), setup_s=statistics.median(setup))
    metrics = {name: metrics[name] for name in units}
    extra = {}
    if wl.scaled:
        raw, raw_s = timing_metrics(lat_raw)
        extra = {f"{k}.raw": (v, units[k]) for k, v in raw.items()}
        lat_s["raw"] = raw_s
    extra["error_rate"] = (tally.failed / tally.attempted, "ratio")
    if wl.work_metric:
        name, unit = wl.work_metric
        extra[name] = (work / sum(lat_raw), unit)
    details = dict(
        lat_s, scaled=wl.scaled, latencies_raw_ms=[v * 1e3 for v in lat_raw],
        reference_kernel_ms=[v * 1e3 for v in speed.samples],
        setup_samples_s=setup, rss_samples_mb=rss,
        rss_argv=[r.argv for r in rss_requests],
    )
    return metrics, units, extra, details


def timing_metrics(lat):
    lat_s = latency_summary(lat)
    return {
        "req_per_s": len(lat) / sum(lat),
        "latency_p50_ms": lat_s["p50_ms"],
        "latency_tail_ms": lat_s["tail_ms"],
    }, lat_s


def run_traced(wl, pkg, checker, seconds, tally, spans_path):
    tracer = Tracer()
    gen = wl.requests()
    warm_up(pkg, checker, next(gen), tally)
    plain, traced = [], []
    end = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < end:
        req = next(gen)
        runs = {}
        # alternate which twin goes first so warm caches favour neither
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                tracer.request = i
                tracer.install()
            try:
                runs[with_trace] = call_cli(pkg, req.argv)
            finally:
                tracer.uninstall()
        rc, out, err, elapsed = runs[False]
        reason = checker.check(req, rc, out)
        tally.record(req, reason, err)
        plain.append(elapsed)
        rc_t, out_t, err_t, elapsed_t = runs[True]
        if (rc_t, out_t) != (rc, out):
            reason = "stdout or exit code differs with tracing on"
        tally.record(req, reason, err_t)
        traced.append(elapsed_t)
        i += 1

    metrics = tracer.metrics(len(traced))
    p50_plain = statistics.median(plain)
    p50_traced = statistics.median(traced)
    metrics.update({
        "trace.overhead_pct": (p50_traced / p50_plain - 1.0) * 100.0,
        "trace.untraced_p50_ms": p50_plain * 1e3,
        "trace.traced_p50_ms": p50_traced * 1e3,
        "trace.spans_per_req": (len(tracer.spans) + tracer.dropped) / len(traced),
    })
    tracer.write_spans(spans_path)
    details = {
        "pairs": len(traced),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.dropped,
    }
    return metrics, dict(PER_LAYER), {}, details


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_workload(name, args, pkg, prov):
    tag = f"{name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}-{name}"
    wl = WORKLOADS[name](args.seed, os.path.relpath(workdir, ROOT))
    checker = Checker(pkg)
    tally = Tally()
    try:
        wl.prepare()
        if args.trace:
            spans = OUT / f"spans-{tag}.jsonl.gz"
            result = run_traced(wl, pkg, checker, args.seconds, tally, spans)
        else:
            result = run_plain(wl, pkg, checker, args.seconds, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics, units, extra, details = result

    print(f"workload {name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    for key, value in metrics.items():
        print(f"  {key:<48} {value:>16.6g} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"  {key:<48} {value:>16.6g} {unit}  (not gated)")
    if not args.trace:
        print(f"  latency: {details['samples']} samples; tail is "
              f"p{details['tail_percentile']:.1f} with "
              f"{details['tail_samples_beyond']} samples above it; "
              f"req_per_s = samples / busy seconds")
    print(f"  attempted {tally.attempted}, failed {tally.failed}")
    for line in tally.reasons + tally.problems:
        print(f"  FAIL {line}")

    record = {
        "workload": name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "provenance": prov,
        "correct": tally.correct, "attempted": tally.attempted,
        "failed": tally.failed, "failures": tally.reasons,
        "problems": tally.problems,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "not_gated": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "details": details,
    }
    with open(OUT / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        pkg = load_package()
    except (BenchError, ImportError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    OUT.mkdir(exist_ok=True)
    prov = provenance(pkg)
    print("provenance " + json.dumps(prov))

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    records = [run_workload(name, args, pkg, prov) for name in names]
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": v for r in records
            for k, v in r["metrics"].items()
        }
    print(json.dumps({
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
