"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload cli-ladder --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ``src/`` of the
checkout that holds this file; without it the run exits with code 1.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Details go to standard error.
"""

import time

_START = time.perf_counter()

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys

# one BLAS thread: under two, repeats of one dense solve split into a fast
# and a ten-times-slower group on a 2-core machine
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("GERBECALC_TOL", None)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 3
END_TO_END_CALLS = ("validate", "charge", "equiv")
# Times are scaled to a nominal machine speed.  This shared machine runs the
# same interpreter-bound work up to 40 % slower for minutes at a time, so each
# pass's seconds are multiplied by PROBE_NOMINAL_S over the median time of a
# fixed probe, run before and after the pass and every PROBE_EVERY_S between
# its timed calls.
PROBE_NOMINAL_S = 0.025
PROBE_REPS = 3
PROBE_EVERY_S = 0.25
PROBE_DOC = {f"k{i}": [i, i * 0.5, [str(i)] * 3] for i in range(2000)}
LAYER_UNITS = {
    "cover.integer_rank_calls": "count",
    "cover.nerve_entries": "count",
    "cover.overlap_calls": "count",
    "bicomplex.big_d_calls": "count",
    "simplicial.exterior_derivative_calls": "count",
    "bicomplex.cech_delta_useful_ratio": "ratio",
    "serialize.bytes": "B",
    "deligne.equiv_residual_max": "1",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_package():
    """Import gerbecalc from this checkout's src/, and nothing else."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gerbecalc", "__init__.py")):
        sys.exit(f"error: no gerbecalc package under {src}")
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    import gerbecalc

    if not os.path.abspath(gerbecalc.__file__).startswith(src + os.sep):
        sys.exit(f"error: gerbecalc was imported from {gerbecalc.__file__}, not {src}")
    import numpy, scipy.sparse  # noqa: F401  (import cost belongs to set-up)


def thread_count():
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Threads:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def main(argv=None):
    args = parse_args(argv)
    import_package()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"tmp-{tag}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        return run(args, workloads, workdir, tag)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def probe_once():
    """A fixed unit of interpreter work that never touches gerbecalc."""
    table = {}
    for i in range(20000):
        table[(i, i % 7)] = str(i)
    json.loads(json.dumps(PROBE_DOC))
    return sorted(table, key=lambda t: (t[1], -t[0]))[:3]


class Probe:
    """Samples the machine's speed with ``probe_once``, outside timed calls."""

    def __init__(self):
        self.samples: list[float] = []
        self._last = 0.0

    def sample(self, reps=1):
        for _ in range(reps):
            start = time.perf_counter()
            probe_once()
            self._last = time.perf_counter()
            self.samples.append(self._last - start)

    def tick(self):
        """Sample if PROBE_EVERY_S has passed since the last sample."""
        if time.perf_counter() - self._last >= PROBE_EVERY_S:
            self.sample()

    def scale(self):
        """Seconds at nominal speed per measured second, then start afresh."""
        factor = PROBE_NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        return factor


def run(args, workloads, workdir, tag):
    import_s = time.perf_counter() - _START
    probe = Probe()
    bench = workloads.WORKLOADS[args.workload](args.seed, workdir, between=probe.tick)
    probe.sample(PROBE_REPS)
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        bench.setup()
        setups.append(time.perf_counter() - start)
        probe.sample(PROBE_REPS)
    raw_setup_s = import_s + statistics.median(setups)
    setup_s = raw_setup_s * probe.scale()

    tracer = None
    if args.trace:
        import spans

        trace_path = os.path.join(OUT, f"trace-{tag}.jsonl")
        open(trace_path, "w").close()
        tracer = spans.Tracer(trace_path)

    # passes are (result, scale): scale turns the pass's seconds into seconds
    # at the probe's nominal speed, from probes run between its calls
    plain, traced, layers = [], [], []
    loop_start = time.perf_counter()
    while True:
        # objects alive now (inputs, checker caches) are left out of the
        # collector's scans, so a pass's collections see only its own objects
        gc.collect()
        gc.freeze()
        use_trace = tracer is not None and len(plain) > len(traced)
        probe.sample(PROBE_REPS)
        pass_start = time.perf_counter()
        if use_trace:
            tracer.install()
            try:
                result = bench.run_pass()
            finally:
                tracer.uninstall()
        else:
            result = bench.run_pass()
        last = time.perf_counter() - pass_start
        probe.sample(PROBE_REPS)
        scale = probe.scale()
        if use_trace:
            layers.append(tracer.finish_pass())
            traced.append((result, scale))
        else:
            plain.append((result, scale))
            if len(plain) == 1:
                # set-up plus one pass, as one CLI call would hold; later
                # passes can only add what the allocator keeps from earlier ones
                rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.perf_counter() - loop_start
        enough = len(traced) >= 1 if tracer is not None else True
        if enough and elapsed + last > args.seconds:
            break

    gc.collect()
    bench.cross_check_all()
    threads = thread_count()
    bench.check(threads is None or threads <= 2, f"{threads} threads in the benchmark process")
    passes = [p for p, _ in plain + traced]
    attempted = sum(p.ops for p in passes)
    failed = sum(p.failed for p in passes)

    work = lambda p: sum(p.times.values())
    raw = {
        "setup_s": raw_setup_s,
        "pass_s": statistics.median(work(p) for p, _ in plain),
        "probe_s": PROBE_NOMINAL_S / statistics.median(s for _, s in plain),
    }
    if tracer is None:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (statistics.median(p.ops / (work(p) * s) for p, s in plain), "1/s"),
        }
        for call in END_TO_END_CALLS:
            metrics[f"{call}_s"] = (statistics.median(p.times[call] * s for p, s in plain), "s")
            raw[f"{call}_s"] = statistics.median(p.times[call] for p, _ in plain)
        metrics["peak_rss_mb"] = (rss_kb / 1024.0, "MB")
    else:
        metrics = {}
        for name in layers[0]:
            unit = LAYER_UNITS.get(name, "s")
            scales = [s for _, s in traced] if unit == "s" else [1.0] * len(traced)
            metrics[name] = (statistics.median(layer[name] * s for layer, s in zip(layers, scales)), unit)
        for name in ("rows", "cols", "nnz"):
            metrics[f"deligne.d_{name}"] = (statistics.median(getattr(p.sizes, name) for p, _ in traced), "count")
        # the first pass of a process runs slower (fresh heap), so it is left out
        baseline = plain[1:] or plain
        metrics["trace.overhead_s"] = (
            statistics.median(work(p) * s for p, s in traced)
            - statistics.median(work(p) * s for p, s in baseline),
            "s",
        )
        print(f"trace spans written to {tracer.out_path}", file=sys.stderr)

    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}", file=sys.stderr)
    print(
        f"{len(plain)} plain and {len(traced)} traced passes; unscaled medians "
        + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()),
        file=sys.stderr,
    )
    line = {
        "correct": not bench.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(dict(line, unscaled=raw), handle, indent=1)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
