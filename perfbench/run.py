#!/usr/bin/env python3
"""Benchmark of qct: time to verdict, per-op latency, memory and set-up time.

Usage, from the root of a qct checkout:

    python3 perfbench/run.py --workload ct-point --seed 0 --seconds 20 --trace 0

Each workload is a closed loop: one client, one process, one thread, and the
next op starts only when the previous one has returned.  The op list (see
workloads.py) is run in whole passes until ``--seconds`` have elapsed; every
op is checked for the right answer.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` first runs untraced passes for half the time, then
traced passes, and reports per-layer metrics (see spans.py) together with
the tracing overhead.

The end-to-end times are CPU times of this single-threaded process (user +
system), normalised to a reference host speed by a kernel run beside the
ops (see speed.py).  CPU time leaves out the seconds a shared host's
hypervisor takes the CPU away, and the normalisation removes the drift of
the host's speed.  On a host where the kernel takes its nominal time and
nothing preempts the process, normalised time equals wall-clock time.  The
raw wall-clock and CPU figures are printed beside them for reference.

The last line of stdout is one JSON object; the lines before it print every
metric with its unit and the run's environment.  The exit code is 1 when any
op failed or a self-check broke, 2 on a usage or set-up error (then no
result is printed).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import speed

# users get the library defaults: one worker, the default fold kernel
os.environ.pop("QCT_THREADS", None)
os.environ.pop("QCT_KERNEL", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
SETUP_PROBES = 7


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile, 0 <= p <= 100, of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def environment() -> dict:
    """Facts that say how comparable two runs are."""
    env = {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "loadavg_1m_at_start": os.getloadavg()[0],
        "git_commit": None,
        "git_dirty": None,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            env["git_commit"] = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                check=True, timeout=30).stdout.strip()
            status = subprocess.run(
                ["git", "-C", ROOT, "status", "--porcelain"], capture_output=True, text=True,
                check=True, timeout=30).stdout
            env["git_dirty"] = status.strip() != ""
        except (OSError, subprocess.SubprocessError):
            pass
    return env


def measure_setup(workload: str, seed: int, host: speed.Host) -> dict[str, float]:
    """Time from starting a fresh benchmark process to its first op, which
    covers importing qct and building the op list: the median over
    SETUP_PROBES processes of its normalised CPU time (``norm_s``), raw CPU
    time (``cpu_s``) and wall time (``wall_s``)."""
    samples = {"norm_s": [], "cpu_s": [], "wall_s": []}
    for _ in range(SETUP_PROBES):
        host.samples()  # drop the kernel runs made before this probe
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, check=True, timeout=120)
        refs = host.samples()
        # the probe prints its own CPU time, counted from its start, and
        # CLOCK_MONOTONIC, which all processes share, just before its first op
        probe_cpu, probe_clock = map(float, done.stdout.split()[-2:])
        samples["norm_s"].append(probe_cpu * speed.factor(refs))
        samples["cpu_s"].append(probe_cpu)
        samples["wall_s"].append(probe_clock - start)
    return {key: statistics.median(values) for key, values in samples.items()}


def run_passes(ops, seconds: float, check, host: speed.Host, tracer=None) -> list[dict]:
    """Whole passes over ``ops`` until ``seconds`` have elapsed (at least one).

    ``check(op)`` runs one op and returns its verdict.  Each op is timed by
    the wall clock (``op_s``) and the CPU clock (``op_cpu_s``); ``wall_s``
    and ``cpu_s`` are their sums over the pass.  ``op_norm_s`` and its sum
    ``norm_s`` are the CPU times normalised by the reference kernel that
    ``host`` runs during the pass (see speed.py).
    """
    passes = []
    host.samples()  # drop the kernel runs made before the first pass
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        verdicts, op_s, op_cpu_s = [], [], []
        for op in ops:
            if tracer is not None:
                tracer.op_id += 1
            t0, c0 = time.perf_counter(), time.process_time()
            verdicts.append(check(op))
            op_cpu_s.append(time.process_time() - c0)
            op_s.append(time.perf_counter() - t0)
        refs = host.samples()
        scale = speed.factor(refs)
        passes.append({"wall_s": sum(op_s), "cpu_s": sum(op_cpu_s),
                       "norm_s": sum(op_cpu_s) * scale, "op_s": op_s, "op_cpu_s": op_cpu_s,
                       "op_norm_s": [t * scale for t in op_cpu_s], "speed_factor": scale,
                       "kernel_runs": len(refs), "verdicts": verdicts})
    return passes


def tally(passes) -> tuple[int, int]:
    attempted = sum(len(p["verdicts"]) for p in passes)
    failed = sum(v is not True for p in passes for v in p["verdicts"])
    return attempted, failed


def end_to_end(passes, setup_s: float) -> dict:
    """The metrics of BENCHMARK.json: normalised CPU time of a pass (median
    over passes) and of an op (percentiles), peak RSS and set-up time."""
    op_ms = [t * 1000 for p in passes for t in p["op_norm_s"]]
    return {
        "norm_cpu_s": (statistics.median(p["norm_s"] for p in passes), "s"),
        "norm_op_p50_ms": (percentile(op_ms, 50), "ms"),
        "norm_op_p90_ms": (percentile(op_ms, 90), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }


def raw_times(passes, setup: dict) -> dict:
    """The same times, not normalised, printed for reference only."""
    op_ms = [t * 1000 for p in passes for t in p["op_s"]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "op_p50_ms": (percentile(op_ms, 50), "ms"),
        "op_p90_ms": (percentile(op_ms, 90), "ms"),
        "setup_cpu_s": (setup["cpu_s"], "s"),
        "setup_wall_s": (setup["wall_s"], "s"),
        "speed_factor": (statistics.median(p["speed_factor"] for p in passes), "ratio"),
    }


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="build the op list, print the CPU time and the monotonic clock, exit")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qct", "__init__.py")):
        print(f"no qct sources under {os.path.join(ROOT, 'src')}; run from a qct checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, build_ops, op_label, run_op

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    ops = build_ops(args.workload, args.seed)
    if args.setup_probe:
        print(time.process_time(), time.monotonic())
        return 0

    env = environment()
    os.makedirs(OUT_DIR, exist_ok=True)
    check = functools.partial(run_op, workdir=OUT_DIR)
    details = {"workload": args.workload, "seed": args.seed, "ops_per_pass": len(ops), "env": env}
    if args.workload == "lemma-key":
        details["note"] = "the seed has no effect on this workload"

    reference = {}
    with speed.Host() as host:
        if args.trace == 0:
            setup = measure_setup(args.workload, args.seed, host)
            passes = run_passes(ops, args.seconds, check, host)
            attempted, failed = tally(passes)
            metrics = end_to_end(passes, setup["norm_s"])
            reference = raw_times(passes, setup)
            self_checks_ok = True
        else:
            from spans import OVERHEAD_METRIC, Tracer, metric_names

            plain = run_passes(ops, args.seconds / 2, check, host)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_passes(ops, args.seconds / 2, check, host, tracer)
            finally:
                restored = tracer.uninstall()
            passes = plain + traced
            attempted, failed = tally(passes)
            same_verdicts = all(p["verdicts"] == plain[0]["verdicts"] for p in passes)
            self_checks_ok = restored and same_verdicts
            details.update(bindings_restored=restored, traced_verdicts_match=same_verdicts,
                           untraced_passes=len(plain), traced_passes=len(traced))
            layer = tracer.metrics(len(traced))
            layer[OVERHEAD_METRIC] = (statistics.median(p["norm_s"] for p in traced)
                                      - statistics.median(p["norm_s"] for p in plain))
            metrics = {name: (layer[name], unit) for name, unit in metric_names()}
            spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}.csv.gz")
            tracer.write_spans(spans_path)
            details["spans_file"] = os.path.relpath(spans_path, ROOT)

    details.update(passes=len(passes), pass_kernel_runs=[p["kernel_runs"] for p in passes],
                   pass_norm_s=[p["norm_s"] for p in passes],
                   pass_cpu_s=[p["cpu_s"] for p in passes],
                   pass_walls_s=[p["wall_s"] for p in passes],
                   attempted=attempted, failed=failed,
                   failed_ops=sorted({op_label(ops[i]) for p in passes
                                      for i, v in enumerate(p["verdicts"]) if v is not True}))
    correct = failed == 0 and self_checks_ok
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-trace{args.trace}.json"), "w") as fh:
        json.dump({"details": details, "metrics": metrics}, fh, indent=1)
        fh.write("\n")

    print(json.dumps({"env": env}))
    for key, value in details.items():
        if key not in ("env", "failed_ops"):
            print(f"# {key}: {value}")
    rows = dict(metrics, **reference, fail_ratio=(failed / attempted, "ratio"))
    for name, (value, unit) in rows.items():
        print(f"{name:<48} {value:>16.6f} {unit}")
    for label in details["failed_ops"]:
        print(f"FAILED {label}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
