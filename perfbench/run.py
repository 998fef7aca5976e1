"""recoverylab benchmark: one workload per run, every end-to-end metric printed.

    python3 perfbench/run.py --workload eval-protocol --seed 0 --seconds 10 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the named workload repeats its round for ``--seconds`` and the
reported figures are medians over those rounds; the other two workloads then
run one round each, so every run prints all end-to-end metrics.  With
``--trace 1`` untraced and traced rounds of the named workload alternate, and
the per-layer metrics come from the traced ones (see ``tracing.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Metric names and
units are those of ``BENCHMARK.json``.
"""

import os

# One BLAS thread: the thread count changes the last bits of trained weights
# and widens timing spread.  Must be set before numpy is imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = HERE / ".runs"
SETUP_REPEATS = 3


class NominalClock:
    """A clock that runs at the machine's nominal speed while installed.

    On a shared 2-core VM, co-tenants change the speed of the cores:
    round times moved by 30% or more between runs minutes apart, and the
    speed switches within a round too.  Medians over rounds cannot remove a
    shift that lasts a whole run.  So every ``PERIOD_S`` SIGALRM times two
    fixed probes, a pure-Python loop and a small numpy matmul, the two kinds
    of work recoverylab does.  The clock advances by the elapsed wall time
    divided by the geometric mean of their slowdowns against their nominal
    durations.  Probe time itself is left out.  The probes do not touch
    recoverylab, so a change to the program moves the measured times, not
    the slowdown.
    """

    PERIOD_S = 0.025
    # Approximate probe durations on an uncontended core of a 2-core Xeon VM;
    # they set the scale of the reported figures, not their spread.
    PY_NOMINAL_S = 45e-6
    NP_NOMINAL_S = 100e-6
    FACTOR_RANGE = (0.5, 3.0)   # a probe hit by preemption says little about its tick

    def __init__(self):
        # (nominal seconds at mark, perf_counter at mark, slowdown factor), replaced
        # as one tuple so that now() never mixes the fields of two ticks.
        self._state = (0.0, time.perf_counter(), 1.0)
        self.factors: list[float] = []
        rng = np.random.default_rng(0)
        self._a, self._b = rng.standard_normal((64, 96)), rng.standard_normal((96, 128))

    @staticmethod
    def _python_probe() -> float:
        t0 = time.perf_counter()
        acc = 0
        for i in range(1000):
            acc += i * i
        return time.perf_counter() - t0

    def _numpy_probe(self) -> float:
        t0 = time.perf_counter()
        for _ in range(2):
            np.tanh(self._a @ self._b)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame) -> None:
        tick = time.perf_counter()
        nominal, mark, previous = self._state
        # The first passes warm the caches the interrupted code evicted; the
        # second ones measure the core, not the program's own cache footprint.
        self._python_probe()
        self._numpy_probe()
        slowdown = math.sqrt(self._python_probe() / self.PY_NOMINAL_S
                             * self._numpy_probe() / self.NP_NOMINAL_S)
        lo, hi = self.FACTOR_RANGE
        factor = min(hi, max(lo, slowdown))
        self.factors.append(factor)
        nominal += (tick - mark) / ((previous + factor) / 2)
        self._state = (nominal, time.perf_counter(), factor)

    def now(self) -> float:
        nominal, mark, factor = self._state
        return nominal + (time.perf_counter() - mark) / factor

    def __enter__(self):
        self._state = (self.now(), time.perf_counter(), self._state[2])
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def _load():
    """Import the workloads against this checkout's sources, or stop."""
    src = ROOT / "src"
    if not (src / "recoverylab" / "__init__.py").is_file():
        raise SystemExit(f"recoverylab sources not found under {src}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(src))
    import tracing
    import workloads
    return spec, workloads, tracing


def _code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *HERE.glob("*.py"), *HERE.glob("checkpoint/*")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _compare_digests(seed: int, digests: dict[str, str], tally) -> None:
    """Record each workload's digest; a different digest for the same code and seed fails."""
    path = RUNS / "digests.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    fingerprint = _code_fingerprint()
    for workload, digest in sorted(digests.items()):
        earlier = known.setdefault(f"{fingerprint}:{workload}:{seed}", digest)
        tally.check(earlier == digest, f"{workload}: digest differs from an earlier run of this code and seed")
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def _median_metrics(rounds) -> dict[str, float]:
    return {k: statistics.median(r.metrics[k] for r in rounds) for k in rounds[0].metrics}


def timed_run(wl, workload, ctx, setup_times, tally, seconds):
    own = wl.ROUNDS[workload]
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(own(ctx, tally))
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tally.check(len({r.digest for r in rounds}) == 1, f"{workload}: rounds of one run gave different digests")
    metrics = _median_metrics(rounds)
    digests = {workload: rounds[0].digest}
    for other, fn in wl.ROUNDS.items():
        if other != workload:
            r = fn(ctx, tally)
            metrics.update(r.metrics)
            digests[other] = r.digest
    metrics["setup_s"] = statistics.median(setup_times)
    metrics["peak_rss_mb"] = peak_mib
    info = {"rounds": len(rounds), "round_s": [round(r.wall, 4) for r in rounds]}
    return metrics, digests, info


def traced_run(wl, tracing, workload, ctx, tally, seconds):
    own = wl.ROUNDS[workload]
    tracer = tracing.Tracer(ctx.clock)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(own(ctx, tally))
        tracer.install()
        try:
            traced.append(own(ctx, tally))
        finally:
            tracer.uninstall()
    tally.check(len({r.digest for r in plain + traced}) == 1,
                f"{workload}: traced and untraced rounds gave different digests")
    measured = {"trace.overhead_share":
                statistics.median(r.wall for r in traced) / statistics.median(r.wall for r in plain) - 1.0}
    for sub in plain[0].cli_s:
        measured[f"cli.{sub}.s"] = statistics.median(r.cli_s[sub] for r in plain)
    if "train.align_loss_tail" in plain[0].metrics:
        measured["value.train_alignment.loss_tail"] = plain[0].metrics["train.align_loss_tail"]
    metrics, absent = tracing.layer_metrics(tracer.records, len(traced), measured)
    dump = {
        "functions": {key: {"calls": rec.calls, "incl_s": rec.incl, "self_s": rec.self, "units": rec.units}
                      for key, rec in sorted(tracer.records.items())},
        "layers": {layer.name: {"value": metrics[layer.name], "moves": layer.moves,
                                "workloads": layer.workloads, "absent": layer.name in absent}
                   for layer in tracing.LAYERS},
    }
    (RUNS / f"trace-{workload}-seed{ctx.seed}.json").write_text(json.dumps(dump, indent=1) + "\n")
    info = {"rounds": len(traced), "plain_round_s": [round(r.wall, 4) for r in plain],
            "traced_round_s": [round(r.wall, 4) for r in traced], "absent_layers": absent}
    return metrics, {workload: plain[0].digest}, info


def main(argv=None) -> int:
    spec, wl, tracing = _load()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    tally = wl.Tally()
    RUNS.mkdir(exist_ok=True)
    contexts, setup_times = [], []
    clock = NominalClock()
    try:
        with clock:
            for _ in range(1 if args.trace else SETUP_REPEATS):
                t0 = clock.now()
                contexts.append(wl.setup(args.seed, RUNS, clock.now))
                setup_times.append(clock.now() - t0)
            if args.trace:
                metrics, digests, info = traced_run(wl, tracing, args.workload, contexts[-1], tally, args.seconds)
            else:
                metrics, digests, info = timed_run(wl, args.workload, contexts[-1], setup_times, tally,
                                                   args.seconds)
    finally:
        for ctx in contexts:
            shutil.rmtree(ctx.workdir, ignore_errors=True)
    info["speed_factor_median"] = statistics.median(clock.factors) if clock.factors else 1.0
    _compare_digests(args.seed, digests, tally)
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics named in BENCHMARK.json were not measured: {sorted(missing)}")
    info["unbounded"] = {k: v for k, v in metrics.items() if k not in units}

    for name in units:
        print(f"{name:48s} {metrics[name]:16.6f} {units[name]}")
    print(f"{'failed_share':48s} {tally.failed / max(1, tally.attempted):16.6f} share")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "digests": digests,
                      "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS}, **info}))
    for problem in tally.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
