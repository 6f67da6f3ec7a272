"""bayonet benchmark: CLI requests end to end, and per-layer spans.

    python3 perfbench/run.py --workload fit_mix --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  The inputs are generated from --seed, the requests run as a closed
loop with one client for --seconds, every output is checked, and the last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  --trace 0 reports the
end-to-end metrics; --trace 1 runs every request once untraced and once
traced and reports the per-layer metrics.  See perfbench/README.md.
"""

import os
import sys

# Fixed thread settings, applied before numpy loads its BLAS.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BAYONET_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("fit_mix", "marginal_all", "cv_grid")
SETUP_REPS = 3  # set-ups per run; setup_s is their median
MIN_CYCLES = 2  # whole cycles of rounds per untraced run
TAIL_BEYOND = 10
PROBE_REF_S = 0.005  # host-speed kernel time that counts as speed 1.0

END_TO_END = {
    "request_p50_s": "s",
    "request_tail_s": "s",
    "throughput_rps": "1/s",
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "cli.self_s": "s", "cli.bytes_out": "count",
    "data.load_csv_s": "s", "data.standardize_s": "s",
    "data.problem_build_s": "s", "data.problem_builds": "count",
    "mlfit.solve_s": "s", "mlfit.cycles": "count",
    "saddle.solve_s": "s", "saddle.cycles": "count",
    "saddle.converged_frac": "frac", "saddle.path_s": "s",
    "saddle.path_cycles": "count",
    "partition.log_z_s": "s", "partition.lowrank_frac": "frac",
    "posterior.marginal_s": "s", "posterior.grid_points": "count",
    "posterior.grid_point_s": "s", "posterior.sd_s": "s",
    "gibbs.sweep_s": "s", "gibbs.draws": "count",
    "hyper.map_tau_s": "s", "hyper.cv_s": "s", "hyper.cv_self_s": "s",
    "hyper.cv_cell_s": "s", "hyper.cv_scored_frac": "frac",
    "ratio.saddle_over_ml": "ratio",
    "trace.overhead_frac": "frac",
}


def _args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args()


def _import_program():
    """Import bayonet from this checkout's src/; exit 1 when it is not there."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import bayonet.cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bayonet from {SRC}: {exc}")
    if Path(bayonet.cli.__file__).resolve().parent.parent != SRC.resolve():
        sys.exit(f"perfbench: bayonet was imported from {bayonet.cli.__file__}, not {SRC}")
    return bayonet.cli, time.perf_counter() - t0


class HostSpeed:
    """A fixed kernel, independent of the program, timed between requests.

    On a shared host the CPU speed one process sees drifts by a third within
    seconds.  The kernel has five parts of about 1 ms each, one per kind of
    work the program does: float arithmetic in Python, parsing decimal
    strings, small numpy calls, BLAS, and streaming over 8 MB.  Each
    request's wall time is multiplied by PROBE_REF_S over the mean kernel
    time just before and just after it, so reported times are seconds at a
    fixed reference speed.
    """

    def __init__(self, np):
        rng = np.random.default_rng(0)
        self._np = np
        self._matrix = rng.standard_normal((64, 64))
        self._vector = rng.standard_normal(50)
        self._stream = rng.standard_normal(1_000_000)
        self._text = [repr(v) for v in rng.standard_normal(2500).tolist()]

    def _once(self):
        t0 = time.perf_counter()
        s = 0.0
        for i in range(10000):
            s += math.sqrt(i)
        [float(t.strip()) for t in self._text]
        x = self._vector
        for _ in range(500):
            x = self._np.abs(x) * 1.0001 - 0.0001
        for _ in range(100):
            self._matrix @ self._matrix
        self._stream.sum()
        self._stream.sum()
        return time.perf_counter() - t0

    def sample(self):
        return statistics.fmean(self._once() for _ in range(3))


class Client:
    """Closed-loop caller of ``bayonet.cli.main`` that checks every output."""

    def __init__(self, cli, speed, tracer=None):
        self.cli = cli
        self.speed = speed
        self.tracer = tracer
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.traced = {}  # request id -> (request, speed factor), traced calls
        self._probe = speed.sample()
        self._next_id = 0

    def timed(self, fn):
        """Run fn(); return (its result, wall seconds, host-speed factor)."""
        before = self._probe
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        self._probe = self.speed.sample()
        return out, wall, PROBE_REF_S / (0.5 * (before + self._probe))

    def _main(self, req, rid, traced):
        try:
            if traced:
                with self.tracer.installed():
                    return self.tracer.request(rid, lambda: self.cli.main(req.argv))
            return self.cli.main(req.argv)
        except Exception as exc:  # a crashing request is a failed request
            return f"{type(exc).__name__}: {exc}"

    def call(self, req, traced=False):
        """One request; returns (request id, wall seconds, speed factor)."""
        from workloads import CheckFailed

        rid = self._next_id
        self._next_id += 1
        self.attempted += 1
        rc, wall, factor = self.timed(lambda: self._main(req, rid, traced))
        if traced:
            self.traced[rid] = (req, factor)
        try:
            if rc != 0:
                raise CheckFailed(f"exit status {rc}")
            blobs = req.read_outputs()
            req.check(blobs)
            digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
            if self.digests.setdefault(req.key, digest) != digest:
                raise CheckFailed("output differs from an earlier identical request")
        except (CheckFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            self.failed += 1
            self.errors.append(f"{req.key}: {exc}")
        return rid, wall, factor


def _setup(name, seed, client, base, import_s):
    """Generate inputs and warm every request class, SETUP_REPS times.

    A set-up's time is input generation plus the warm-up requests, each at
    reference speed; output checks and probes between them are not counted.
    """
    import workloads

    reps = []
    plan = None
    for _ in range(SETUP_REPS):
        workdir = tempfile.mkdtemp(dir=base)
        plan, wall, factor = client.timed(lambda: workloads.build(name, seed, workdir))
        total = wall * factor
        for req in plan.warmups:
            _, wall, factor = client.call(req, traced=client.tracer is not None)
            total += wall * factor
        reps.append(total)
    return plan, import_s + statistics.median(reps), reps


def _tail(times):
    """Highest percentile with at least TAIL_BEYOND requests beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        return ordered[-1], 100.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def _closed_loop(plan, seconds, on_request, min_cycles=1):
    """Run rounds until seconds have passed and min_cycles whole cycles of
    rounds are done; on_request gets each request and its round number."""
    start = time.perf_counter()
    r = 0
    while r < min_cycles * len(plan.rounds) or time.perf_counter() - start < seconds:
        for req in plan.rounds[r % len(plan.rounds)]:
            on_request(req, r)
        r += 1


def _end_to_end(plan, client, seconds):
    """Untraced closed loop; metrics over the whole cycles of rounds only.

    Every design then appears equally often, so the median and the tail fall
    on one design's repeats rather than between two designs.
    """
    samples = []

    def one(req, r):
        _, wall, factor = client.call(req)
        samples.append((req.klass, wall, wall * factor, r))

    _closed_loop(plan, seconds, one, MIN_CYCLES)
    cycles = (samples[-1][3] + 1) // len(plan.rounds)
    whole = [s for s in samples if s[3] < cycles * len(plan.rounds)]
    norm = [s[2] for s in whole]
    wall = [s[1] for s in whole]
    tail, pct = _tail(norm)
    metrics = {
        "request_p50_s": statistics.median(norm),
        "request_tail_s": tail,
        "throughput_rps": len(norm) / math.fsum(norm),
    }
    info = {
        "requests": len(samples),
        "requests_in_whole_cycles": len(norm),
        "tail_percentile": pct,
        "tail_beyond": TAIL_BEYOND,
        "wall_request_p50_s": statistics.median(wall),
        "wall_request_tail_s": _tail(wall)[0],
        "wall_throughput_rps": len(wall) / math.fsum(wall),
        "per_class_p50_s": {
            k: statistics.median(s[2] for s in whole if s[0] == k)
            for k in sorted({s[0] for s in whole})
        },
    }
    return metrics, info


def _per_layer(plan, client, seconds, seed, workdir):
    """Paired untraced and traced requests; per-layer metrics from the spans.

    The set-up warm-ups were traced too: they and the coverage requests only
    feed the iteration-count repeat check and layers the workload misses.
    """
    import tracing
    import workloads

    untraced, traced = [], []
    warmups = set(client.traced)

    def pair(req, r):
        _, wall, factor = client.call(req)
        untraced.append(wall * factor)
        _, wall, factor = client.call(req, traced=True)
        traced.append(wall * factor)

    _closed_loop(plan, seconds, pair)
    own = set(client.traced) - warmups
    for req in workloads.coverage(seed, workdir):
        for _ in range(2):
            client.call(req, traced=True)
    cover = set(client.traced) - own - warmups
    spans = client.tracer.spans
    scale = {rid: factor for rid, (_, factor) in client.traced.items()}

    # Counts and shares come from the first traced call of each distinct
    # request, so they do not depend on how many rounds fitted in the time.
    firsts = {}
    for rid in sorted(own | cover):
        firsts.setdefault(client.traced[rid][0].key, rid)
    firsts = set(firsts.values())

    def values(requests):
        timed = tracing.layer_metrics(tracing.Layers(spans, requests, scale))
        counted = tracing.layer_metrics(tracing.Layers(spans, requests & firsts, scale))
        return {k: v if PER_LAYER[k] in ("s", "ratio") else counted[k]
                for k, v in timed.items()}

    metrics = values(own)
    from_coverage = sorted(k for k, v in metrics.items() if v is None)
    covered = values(cover)
    for k in from_coverage:
        metrics[k] = covered[k]
    metrics["trace.overhead_frac"] = 1.0 - math.fsum(untraced) / math.fsum(traced)

    every = tracing.Layers(spans, set(scale), scale)
    iterations = {}
    for rid, (req, _) in sorted(client.traced.items()):
        c = tracing.iteration_counts(every, rid)
        if iterations.setdefault(req.key, c) != c:
            client.failed += 1
            client.errors.append(f"{req.key}: iteration counts differ between repeats")
    classes = {}
    for rid in own:
        classes.setdefault(client.traced[rid][0].klass, set()).add(rid)
    info = {
        "traced_requests": len(own),
        "ratio_saddle_over_ml_by_class": {
            k: tracing.saddle_over_ml(tracing.Layers(spans, ids, scale))
            for k, ids in sorted(classes.items())
        },
        "from_coverage_requests": from_coverage,
        "iteration_counts_sha256": hashlib.sha256(
            repr(sorted(iterations.items())).encode()).hexdigest(),
        "spans": _span_table(spans),
    }
    return metrics, info


def _span_table(spans):
    table = {}
    for name, _, _, t0, t1, _ in spans:
        row = table.setdefault(name, [0, 0.0])
        row[0] += 1
        row[1] += t1 - t0
    return {k: {"calls": v[0], "wall_s": v[1]} for k, v in sorted(table.items())}


def main():
    args = _args()
    cli, import_s = _import_program()
    import numpy as np
    import scipy

    import tracing

    speed = HostSpeed(np)
    import_s *= PROBE_REF_S / speed.sample()
    client = Client(cli, speed, tracing.Tracer() if args.trace else None)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as base:
        plan, setup_s, reps = _setup(args.workload, args.seed, client, base, import_s)
        if args.trace:
            metrics, info = _per_layer(plan, client, args.seconds, args.seed,
                                       tempfile.mkdtemp(dir=base))
            units = PER_LAYER
        else:
            metrics, info = _end_to_end(plan, client, args.seconds)
            metrics["setup_s"] = setup_s
            metrics["ok_frac"] = 1.0 - client.failed / client.attempted
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            units = END_TO_END
    for name in units:
        if metrics[name] is None:  # no traced call reached the layer at all
            client.failed += 1
            client.errors.append(f"{name}: not measured")
            metrics[name] = 0.0
    info.update({
        "workload": args.workload,
        "seed": args.seed,
        "setup_reps_s": reps,
        "import_s": import_s,
        "failed_frac": client.failed / client.attempted,
        "errors": client.errors[:10],
        "env": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "BAYONET_THREADS": os.environ["BAYONET_THREADS"],
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        },
    })
    for name, unit in units.items():
        print(f"{name:24s} {metrics[name]:.6g} {unit}")
    print(json.dumps(info))
    print(json.dumps({
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))


if __name__ == "__main__":
    main()
