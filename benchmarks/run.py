"""Benchmark entry point: one workload, one seed, one closed loop.

    python3 benchmarks/run.py --workload hard-sweep --seed 1 --seconds 60 --trace 0

Runs from the repository root and imports fcco from ./src.  The process is
the only caller: it sets up the workload (import fcco, generate inputs, build
the problem), then repeats the workload's calls one after another for
--seconds seconds.  Between repetitions it times the same set-up again in
fresh child processes, so that the set-up samples spread over the run.
Every repetition's outputs are checked.

After each repetition a fixed numpy reference computation, which does not
touch fcco, is timed for a few per cent of the repetition's time.  A
shared virtual machine can change speed by up to 1.5x in phases that last
minutes, and the reference slows with it, so the end-to-end times are
reported corrected to a fixed reference speed (see end_to_end); the wall
times are printed beside them.

With --trace 0 the last stdout line is a JSON object with the end-to-end
metrics listed in BENCHMARK.json; with --trace 1 it holds the per-layer
metrics, from repetitions that alternate between untraced and traced, and
every span of the traced repetitions is written to
.bench-spans/<workload>-seed<seed>.npz.  The lines before the result repeat
every metric by name and unit, the quality figures and the failed cells,
and stamp the environment.  Exit code 0 means every
check passed; 1 means a check failed (the result line says so); 2 means the
benchmark could not run.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time starts before the imports)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOADS = ("hard-sweep", "gdro-compare", "pauc-cli")  # keys of workloads.WORKLOADS
SPANS_DIR = os.path.join(ROOT, ".bench-spans")
SETUPS = 15  # set-ups timed per run: this process plus SETUPS - 1 children
REF_SHAPE, REF_PASSES = (200, 4000), 32  # reference sample: in-place passes over 6.4 MB
REF_SHARE = 0.04  # reference samples after each repetition, as a share of its wall time
# A reference sample's time at the nominal speed that corrected times are
# given in, about the median on a 2.1 GHz shared vCPU.
REF_NOMINAL_S = 0.022
MIN_REPS = 2  # per kind of repetition, even when --seconds is shorter
CHILD_TIMEOUT_S = 120


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up times as JSON and exit")
    return parser.parse_args(argv)


def set_up(workload, seed, tmp):
    """Import fcco from ./src and set the workload up; returns the workload
    and the time `import fcco` took."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import fcco
    import fcco.cli  # noqa: F401  (imported by the pauc-cli workload)
    import_s = time.perf_counter() - start
    if os.path.dirname(os.path.abspath(fcco.__file__)) != os.path.join(SRC, "fcco"):
        raise ImportError(f"fcco imported from {fcco.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[workload]()
    wl.setup(seed, tmp)
    return wl, import_s


def child_set_up(args):
    """Time one set-up in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed ({proc.returncode}): {proc.stderr.strip()}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return out["setup_s"], out["import_s"]


def git_sha():
    """HEAD of the checkout when it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


def environment(loadavg_before, loadavg_after):
    import numpy
    import scipy

    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "loadavg_before": loadavg_before, "loadavg_after": loadavg_after,
    }


def reference_sample(data):
    """Wall time of fixed work that does not touch fcco: REF_PASSES passes
    that negate `data` in place and sum it.  `data` is built once and the
    pass count is even, so the reference allocates nothing and leaves
    `data` as it found it.  The median over a run measures how fast the
    machine ran during that run."""
    start = time.perf_counter()
    total = 0.0
    for _ in range(REF_PASSES):
        data *= -1.0
        total += float(data.sum())
    return time.perf_counter() - start


class Rep:
    """One repetition: its wall time, traced or not, and its checked output."""

    def __init__(self, wl, tracer=None):
        self.traced = tracer is not None
        if tracer is not None:
            tracer.begin_rep()
            tracer.install(wl.problems())
        start = time.perf_counter()
        try:
            raw = wl.call()
        finally:
            self.run_s = time.perf_counter() - start
            if tracer is not None:
                tracer.uninstall()
                self.spans = tracer.end_rep()
        self.raw = raw
        self.checked = wl.check(raw)
        self.quality = wl.quality(raw)
        self.oracle_count = wl.oracle_count(raw)
        self.bytes_written = wl.bytes_written(raw)


def measure(wl, seconds, tracer, setups, set_up_again):
    """Repeat the workload until the next repetition would end after
    `seconds`; with a tracer, alternate untraced and traced repetitions.
    Between repetitions, append timed set-ups (`set_up_again()`) to
    `setups` at a pace that reaches SETUPS by the end, so that the
    machine's slow phases hit set-ups as they hit repetitions, and take
    reference samples for REF_SHARE of each repetition's wall time.  The
    first output also goes through the checker self-test.  Returns the
    repetitions, the self-test result and the reference samples."""
    import numpy  # after set_up, which limits the BLAS threads first

    reps, refs, selftest = [], [], None
    ref_data = numpy.linspace(-1.0, 1.0, REF_SHAPE[0] * REF_SHAPE[1]).reshape(REF_SHAPE)
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(reps) % 2 == 1
        rep = Rep(wl, tracer if traced else None)
        if not reps:
            selftest = checker_selftest(wl, rep.raw)
        wl.cleanup(rep.raw)
        reps.append(rep)
        ref_start = time.perf_counter()
        refs.append(reference_sample(ref_data))
        while time.perf_counter() - ref_start < REF_SHARE * rep.run_s:
            refs.append(reference_sample(ref_data))
        while len(setups) < SETUPS * min(1.0, (time.perf_counter() - start) / seconds):
            setups.append(set_up_again())
        next_traced = tracer is not None and len(reps) % 2 == 1
        same_kind = [r.run_s for r in reps if r.traced == next_traced]
        untraced = sum(not r.traced for r in reps)
        enough = untraced >= MIN_REPS and (tracer is None or untraced < len(reps))
        next_cost = same_kind[-1] if same_kind else 0.0
        next_cost *= 1.0 + REF_SHARE
        next_cost += SETUPS * next_cost / seconds * statistics.median(s for s, _ in setups)
        if enough and time.perf_counter() - start + next_cost > seconds:
            while len(setups) < SETUPS:
                setups.append(set_up_again())
            return reps, selftest, refs


def checker_selftest(wl, raw):
    """Feed corrupted copies of a real output to the checker: each must be
    counted as failed, and none may crash it.  Returns (ok, detail)."""
    try:
        cases = wl.selftest(raw)
    except Exception as exc:  # a crashing checker is a failed self-test, not a crash
        return False, f"self-test crashed: {exc!r}"
    details = [f"{c.failed}/{c.attempted} failed (want >= {want})" for c, want in cases]
    ok = all(want <= c.failed <= c.attempted for c, want in cases)
    return ok, "; ".join(details)


def spread_note(values):
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_declared(metrics, units):
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")


def end_to_end(reps, setups, refs):
    """The gated metrics.  Times are corrected for the machine's speed during
    the run: each wall time is multiplied by REF_NOMINAL_S over the run's
    median reference sample.  run_s is the mean repetition, and
    samples_per_s all oracle samples over all repetitions' time, so that
    both weigh every second of the run alike, as the reference median does.
    The notes keep the wall times."""
    scale = REF_NOMINAL_S / statistics.median(refs)
    setup = [s for s, _ in setups]
    run_s = [r.run_s for r in reps]
    rate = [r.oracle_count / r.run_s for r in reps]
    metrics = {
        "setup_s": statistics.median(setup) * scale,
        "run_s": statistics.fmean(run_s) * scale,
        "samples_per_s": sum(r.oracle_count for r in reps) / sum(run_s) / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": "wall " + spread_note(setup) + " set-ups",
        "run_s": "wall " + spread_note(run_s) + " reps",
        "samples_per_s": ("wall " + spread_note(rate)
                          + f" reps; {reps[0].oracle_count} oracle samples per rep"),
        "peak_rss_mb": "ru_maxrss of this process",
    }
    speed = (f"reference sample {spread_note(refs)} s; wall times scaled by {scale:.6g}"
             f" (REF_NOMINAL_S {REF_NOMINAL_S} s over the median)")
    return metrics, notes, speed


def per_layer(wl, reps, setups, tracer):
    import tracing

    traced = [r for r in reps if r.traced]
    untraced = [r for r in reps if not r.traced]
    summaries = [tracing.RepSummary(r.spans, tracer.names) for r in traced]
    metrics = tracing.layer_metrics(summaries, [r.run_s for r in traced])
    metrics["harness.bytes_written"] = traced[0].bytes_written
    metrics["fcco.import_s"] = statistics.median(i for _, i in setups)
    run_untraced = statistics.median(r.run_s for r in untraced)
    run_traced = statistics.median(r.run_s for r in traced)
    metrics["trace.run_s_untraced"] = run_untraced
    metrics["trace.run_s_traced"] = run_traced
    metrics["trace.overhead_s"] = run_traced - run_untraced
    metrics["trace.spans_per_rep"] = summaries[0].spans
    mismatches = []
    for summary in summaries:
        counts = tracing.layer_metrics([summary], [1.0])
        for name, want in wl.expected_counts().items():
            if counts[name] != want:
                mismatches.append(f"{name}: traced {counts[name]}, config implies {want}")
    return metrics, mismatches, len(traced), len(untraced)


def report_line(name, value, unit, note=""):
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<40} {shown:>14} {unit:<6} {note}")


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "fcco", "__init__.py")):
        print(f"error: no fcco package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        wl, import_s = set_up(args.workload, args.seed, tmp)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "import_s": import_s}))
            return 0
        return run(args, wl, [(setup_s, import_s)])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def run(args, wl, setups):
    e2e_units, layer_units = declared_metrics()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer({layer: sys.modules[f"fcco.{layer}"] for layer in tracing.LAYERS})
    loadavg_before = os.getloadavg()
    reps, (selftest_ok, selftest_detail), refs = measure(wl, args.seconds, tracer, setups,
                                                         lambda: child_set_up(args))
    loadavg_after = os.getloadavg()

    attempted = sum(r.checked.attempted for r in reps)
    failed = sum(r.checked.failed for r in reps)
    correct = failed == 0 and selftest_ok
    mode = "traced" if args.trace else "untraced"
    print(f"{wl.name} seed={args.seed} {mode}: {len(reps)} reps, {len(setups)} set-ups")
    if args.trace:
        metrics, mismatches, n_traced, n_untraced = per_layer(wl, reps, setups, tracer)
        units = layer_units
        check_declared(metrics, units)
        correct = correct and not mismatches
        for name in units:
            report_line(name, metrics[name], units[name])
        print(f"  span-count self-check: {'ok' if not mismatches else 'FAILED'}")
        for line in mismatches:
            print(f"    {line}")
        print(f"  {n_traced} traced and {n_untraced} untraced reps; percentiles pool the traced"
              f" reps, so each rests on {n_traced} x its count metric samples")
        os.makedirs(SPANS_DIR, exist_ok=True)
        spans_path = os.path.join(SPANS_DIR, f"{wl.name}-seed{args.seed}.npz")
        tracer.write(spans_path)
        print(f"  spans of the traced reps written to {os.path.relpath(spans_path, ROOT)}")
    else:
        metrics, notes, speed = end_to_end(reps, setups, refs)
        units = e2e_units
        check_declared(metrics, units)
        for name in units:
            report_line(name, metrics[name], units[name], notes[name])
        print(f"  machine speed: {speed}")
    for name, (value, unit, note) in reps[-1].quality.items():
        report_line(name, value, unit, note)
    report_line("cells_failed", failed, "count", f"of {attempted} cells attempted")
    print(f"  checker self-test: {'ok' if selftest_ok else 'FAILED'} ({selftest_detail})")
    for r in reps:
        for line in r.checked.notes:
            print(f"    failed: {line}")
    print("env " + json.dumps(environment(loadavg_before, loadavg_after), sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
