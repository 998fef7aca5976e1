"""Per-layer tracing from outside the package.

``Tracer`` replaces each public function of the recoverylab modules with a
timing wrapper, in every module namespace that holds it (``world.step`` is
also patched as ``policy.step``, ``faults.step`` and ``datagen.step``), and
records per function: calls, inclusive time, self time (inclusive minus the
time of traced callees) and a few workload units taken from arguments or
results.  Times are read from the clock the tracer is given.  ``uninstall``
puts the originals back.

``LAYERS`` turns those records into the per-layer metrics of BENCHMARK.json.
Each entry also names the end-to-end metrics it should move and the workloads
where it does most of its work.  A layer whose functions no longer exist, or
were never called, is reported as absent with the value 0 instead of failing
the run, so the benchmark survives refactors that fold or rename functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
from dataclasses import dataclass
from typing import Callable

MODULES = ("world", "planner", "faults", "policy", "nets", "value", "labeling",
           "store", "bench", "datagen", "cli", "config")
# Methods and private loops that carry a layer's work besides the public functions.
EXTRA = ("planner.PlanExecutor.next_action", "nets.Adam.step", "datagen._induced_episode")
# Counted but not timed: a ~100 ns call would mostly measure the wrapper.
COUNT_ONLY = ("config.Config.__getattr__",)
# Sub-microsecond leaf helpers left unwrapped for the same reason.
LEAVES = ("world.wrap_angle", "world.arm_reach", "world.in_reach", "world.in_workspace",
          "world.task_registry", "world.get_task", "faults.detect_failure")

_IO = "/proc/self/io"


def _bytes_written() -> int:
    """Bytes this process has passed to write calls so far (Linux), else 0."""
    try:
        with open(_IO) as fh:
            for line in fh:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _frames(result) -> int:
    return len(result.frames) if result is not None else 0


def bound_arg(fn: Callable, name: str) -> Callable:
    """Extractor of one bound argument of ``fn`` by name."""
    sig = inspect.signature(fn)

    def get(args, kwargs):
        bound = sig.bind_partial(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments.get(name)
    return get


def _units_for(key: str, fn: Callable):
    """Return ``(before, after)`` hooks adding workload units for ``key``."""
    if key in ("policy.rollout_actor", "faults.run_nominal", "faults.run_interception",
               "datagen._induced_episode", "labeling.label_episode"):
        return None, lambda a, k, r, b: {"frames": _frames(r)}
    if key == "bench.run_protocol":
        def after(a, k, r, b):
            adversarial = r.condition == "Adversarial"
            return {"steps": sum(t.steps_used for t in r.trials),
                    "adv_trials": r.n_trials if adversarial else 0,
                    "adv_verified": r.n_verified if adversarial else 0}
        return None, after
    if key == "faults.verify_adverse":
        return None, lambda a, k, r, b: {"true": int(bool(r))}
    if key == "datagen.generate_recovery":
        n = bound_arg(fn, "n")
        return None, lambda a, k, r, b: {"written": r["written"], "attempted": n(a, k)}
    if key == "store.write_episode":
        episode = bound_arg(fn, "episode")

        def after(a, k, r, b):
            return {"frames": len(episode(a, k).frames), "bytes": _bytes_written() - b,
                    "episode_bytes": os.path.getsize(r)}
        return _bytes_written, after
    if key == "store.read_dataset":
        return None, lambda a, k, r, b: {"frames": sum(len(e.frames) for e in r)}
    if key == "policy.build_frame_dataset":
        return None, lambda a, k, r, b: {"rows": len(r)}
    if key in ("policy.train_bc", "policy.train_value_conditioned", "value.train_alignment"):
        return None, lambda a, k, r, b: {"steps": len(r)}
    return None, None


def package_modules(package: str = "recoverylab") -> dict[str, object]:
    """The package's submodules by short name, plus the package itself under ''."""
    pkg = importlib.import_module(package)
    mods = {"": pkg}
    for info in pkgutil.iter_modules(pkg.__path__):
        mods[info.name] = importlib.import_module(f"{package}.{info.name}")
    return mods


def patch(namespaces, original: Callable, wrapper: Callable, undo: list) -> None:
    """Replace ``original`` by ``wrapper`` in every namespace that holds it by name."""
    for ns in namespaces:
        for name, obj in list(vars(ns).items()):
            if obj is original:
                undo.append((ns, name, original))
                setattr(ns, name, wrapper)


def unpatch(undo: list) -> None:
    while undo:
        owner, name, original = undo.pop()
        setattr(owner, name, original)


@dataclass
class Record:
    calls: int = 0
    incl: float = 0.0
    self: float = 0.0
    units: dict | None = None


class Tracer:
    """Wraps the package's functions while installed; see the module docstring."""

    def __init__(self, clock: Callable[[], float]):
        self.clock = clock
        self.records: dict[str, Record] = {}
        self._stack: list[float] = []
        self._undo: list = []

    @staticmethod
    def _targets(modules) -> dict[str, tuple[object, str, Callable]]:
        """key -> (owner, attribute, original) for every function to wrap."""
        targets = {}
        for short in MODULES:
            mod = modules.get(short)
            if mod is None:
                continue
            for name, obj in vars(mod).items():
                key = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_") and key not in LEAVES):
                    targets[key] = (mod, name, obj)
        for key in EXTRA + COUNT_ONLY:
            short, *path = key.split(".")
            owner = modules.get(short)
            for part in path[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, path[-1], None) if owner is not None else None
            if callable(original):
                targets[key] = (owner, path[-1], original)
        return targets

    def _timed(self, key: str, fn: Callable) -> Callable:
        rec = self.records.setdefault(key, Record())
        before, after = _units_for(key, fn)
        stack = self._stack
        clock = self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            mark = before() if before else None
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                rec.calls += 1
                rec.incl += dur
                rec.self += dur - child
                if stack:
                    stack[-1] += dur
            if after:
                rec.units = rec.units or {}
                for unit, amount in after(args, kwargs, result, mark).items():
                    rec.units[unit] = rec.units.get(unit, 0) + amount
            return result
        return wrapper

    def _counted(self, key: str, fn: Callable) -> Callable:
        rec = self.records.setdefault(key, Record())

        def wrapper(*args, **kwargs):
            rec.calls += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        modules = package_modules()
        for key, (owner, attr, original) in self._targets(modules).items():
            wrapper = (self._counted if key in COUNT_ONLY else self._timed)(key, original)
            if inspect.ismodule(owner):
                patch(modules.values(), original, wrapper, self._undo)
            else:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        unpatch(self._undo)


# ---------------------------------------------------------------------------
# per-layer metrics


class View:
    """Read access to tracer records, per traced round."""

    def __init__(self, records: dict[str, Record], rounds: int):
        self.records = records
        self.rounds = max(1, rounds)

    def has(self, *keys: str) -> bool:
        return any(self.records.get(k) and self.records[k].calls for k in keys)

    def calls(self, *keys: str) -> float:
        return sum(self.records[k].calls for k in keys if k in self.records) / self.rounds

    def unit(self, key: str, name: str) -> float:
        rec = self.records.get(key)
        return (rec.units or {}).get(name, 0) if rec else 0

    def self_us(self, key: str) -> float:
        """Mean self time per call, in microseconds."""
        rec = self.records[key]
        return 1e6 * rec.self / rec.calls

    def incl_us(self, *keys: str) -> float:
        """Mean inclusive time per call over ``keys``, in microseconds."""
        calls = sum(self.records[k].calls for k in keys if k in self.records)
        return 1e6 * sum(self.records[k].incl for k in keys if k in self.records) / calls

    def per_unit(self, keys: tuple[str, ...], unit: str, scale: float, inclusive: bool) -> float:
        t = sum((self.records[k].incl if inclusive else self.records[k].self)
                for k in keys if k in self.records)
        n = sum(self.unit(k, unit) for k in keys)
        return scale * t / n if n else 0.0


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str
    keys: tuple[str, ...]           # functions the metric reads; absent if none was called
    value: Callable[[View], float] | None   # None: measured by the workload, not the tracer
    moves: tuple[str, ...]          # end-to-end metrics it should move
    workloads: str                  # where it does most work; where little or none


_EVAL_DATA = ("eval.env_steps_per_s", "data.gen_frames_per_s")
_W_ROLL = "most: eval-protocol, cli-data; none: train-recipe"
_W_EVAL = "most: eval-protocol; little: cli-data (collect-induced); none: train-recipe"
_W_DATA = "most: cli-data; none: eval-protocol, train-recipe"
_W_TRAIN = "most: train-recipe; none: eval-protocol, cli-data"
_W_LABEL = "most: train-recipe, cli-data; none: eval-protocol"
_TRAIN = ("train.samples_per_s", "train.bc_loss_tail", "train.vcr_loss_tail")
_STORE = ("data.gen_frames_per_s", "data.label_frames_per_s", "peak_rss_mb")
_PLAN = ("planner.plan_nominal", "planner.plan_recovery")
_EPISODES = ("faults.run_nominal", "faults.run_interception")
_ALL = ("setup_s", "eval.env_steps_per_s", "train.samples_per_s", "data.gen_frames_per_s",
        "data.label_frames_per_s")


def _calls(name, key, moves, workloads):
    return Layer(name, "count", "lower", (key,), lambda v: v.calls(key), moves, workloads)


def _self(name, key, moves, workloads):
    return Layer(name, "us", "lower", (key,), lambda v: v.self_us(key), moves, workloads)


def _per(name, unit, keys, per, scale, inclusive, moves, workloads):
    return Layer(name, unit, "lower", keys,
                 lambda v: v.per_unit(keys, per, scale, inclusive), moves, workloads)


LAYERS: tuple[Layer, ...] = (
    _calls("world.step.calls", "world.step", _EVAL_DATA, _W_ROLL),
    _self("world.step.us", "world.step", _EVAL_DATA, _W_ROLL),
    _calls("world.observe.calls", "world.observe", _EVAL_DATA, _W_ROLL),
    _self("world.observe.us", "world.observe", _EVAL_DATA, _W_ROLL),
    _self("world.success_check.us", "world.success_check", _EVAL_DATA, _W_ROLL),
    _calls("policy.forward.calls", "policy.forward", ("eval.env_steps_per_s",), _W_EVAL),
    _self("policy.forward.us", "policy.forward", ("eval.env_steps_per_s",), _W_EVAL),
    _self("policy.action_from_vector.us", "policy.action_from_vector", ("eval.env_steps_per_s",), _W_EVAL),
    _per("policy.rollout.us_per_step", "us", ("policy.rollout_actor",), "frames", 1e6, False,
         ("eval.env_steps_per_s",), _W_EVAL),
    _per("bench.run_protocol.us_per_step", "us", ("bench.run_protocol",), "steps", 1e6, False,
         ("eval.env_steps_per_s",), _W_EVAL),
    _calls("faults.inject.calls", "faults.inject", ("eval.env_steps_per_s", "eval.recovery_rate"),
           "most: eval-protocol (adversarial); little: cli-data; none: train-recipe"),
    _self("faults.inject.us", "faults.inject", ("eval.env_steps_per_s", "eval.recovery_rate"),
          "most: eval-protocol (adversarial); little: cli-data; none: train-recipe"),
    _calls("faults.verify_adverse.calls", "faults.verify_adverse",
           ("eval.env_steps_per_s", "eval.recovery_rate"),
           "most: eval-protocol (adversarial), cli-data; none: train-recipe"),
    Layer("faults.verified_share", "share", "higher", ("faults.verify_adverse",),
          lambda v: v.unit("faults.verify_adverse", "true") / v.records["faults.verify_adverse"].calls,
          ("eval.env_steps_per_s", "eval.recovery_rate"),
          "most: eval-protocol (adversarial), cli-data; none: train-recipe"),
    Layer("bench.verified_share", "share", "higher", ("bench.run_protocol",),
          lambda v: (v.unit("bench.run_protocol", "adv_verified")
                     / max(1, v.unit("bench.run_protocol", "adv_trials"))),
          ("eval.env_steps_per_s", "eval.recovery_rate"), _W_EVAL),
    Layer("planner.next_action.calls", "count", "lower", ("planner.PlanExecutor.next_action",),
          lambda v: v.calls("planner.PlanExecutor.next_action"), ("data.gen_frames_per_s",), _W_DATA),
    _self("planner.next_action.us", "planner.PlanExecutor.next_action", ("data.gen_frames_per_s",), _W_DATA),
    Layer("planner.plan.calls", "count", "lower", _PLAN, lambda v: v.calls(*_PLAN),
          ("data.gen_frames_per_s",), _W_DATA),
    Layer("planner.plan.us", "us", "lower", _PLAN, lambda v: v.incl_us(*_PLAN),
          ("data.gen_frames_per_s",), _W_DATA),
    _per("faults.episode.us_per_frame", "us", _EPISODES, "frames", 1e6, False,
         ("data.gen_frames_per_s",), _W_DATA),
    Layer("datagen.recovery_yield", "share", "higher", ("datagen.generate_recovery",),
          lambda v: (v.unit("datagen.generate_recovery", "written")
                     / max(1, v.unit("datagen.generate_recovery", "attempted"))),
          ("data.gen_frames_per_s",), _W_DATA),
    _per("datagen.induced.us_per_frame", "us", ("datagen._induced_episode",), "frames", 1e6, False,
         ("data.gen_frames_per_s",), _W_DATA),
    _per("store.write_episode.us_per_frame", "us", ("store.write_episode",), "frames", 1e6, True,
         _STORE, _W_DATA),
    Layer("store.bytes_written_per_frame", "B", "lower", ("store.write_episode",),
          lambda v: v.unit("store.write_episode", "bytes") / v.unit("store.write_episode", "frames"),
          _STORE, _W_DATA),
    Layer("store.episode_bytes_per_frame", "B", "lower", ("store.write_episode",),
          lambda v: v.unit("store.write_episode", "episode_bytes") / v.unit("store.write_episode", "frames"),
          _STORE, _W_DATA),
    _per("store.read.us_per_frame", "us", ("store.read_dataset",), "frames", 1e6, True, _STORE, _W_DATA),
    _calls("store.validate_episode.calls", "store.validate_episode", _STORE, _W_DATA),
    _self("store.validate_episode.us", "store.validate_episode", _STORE, _W_DATA),
    _calls("store.build_history.calls", "store.build_history", ("train.samples_per_s",), _W_TRAIN),
    _self("store.build_history.us", "store.build_history", ("train.samples_per_s",), _W_TRAIN),
    Layer("policy.build_frame_dataset.rows", "count", "lower", ("policy.build_frame_dataset",),
          lambda v: v.unit("policy.build_frame_dataset", "rows") / v.rounds, ("train.samples_per_s",), _W_TRAIN),
    _per("policy.build_frame_dataset.us_per_row", "us", ("policy.build_frame_dataset",), "rows", 1e6, True,
         ("train.samples_per_s",), _W_TRAIN),
    _calls("policy.loss_and_grads.calls", "policy.loss_and_grads", _TRAIN, _W_TRAIN),
    _self("policy.loss_and_grads.us", "policy.loss_and_grads", _TRAIN, _W_TRAIN),
    _self("nets.adam_step.us", "nets.Adam.step", _TRAIN, _W_TRAIN),
    _self("nets.mlp_forward.us", "nets.mlp_forward", _TRAIN, _W_TRAIN),
    _self("nets.mlp_backward.us", "nets.mlp_backward", _TRAIN, _W_TRAIN),
    _per("policy.train_bc.ms_per_step", "ms", ("policy.train_bc",), "steps", 1e3, True, _TRAIN, _W_TRAIN),
    _per("policy.train_value_conditioned.ms_per_step", "ms", ("policy.train_value_conditioned",),
         "steps", 1e3, True, _TRAIN, _W_TRAIN),
    _calls("value.train_alignment.calls", "value.train_alignment",
           ("train.samples_per_s", "data.label_frames_per_s"), _W_LABEL),
    _per("value.train_alignment.ms_per_step", "ms", ("value.train_alignment",), "steps", 1e3, True,
         ("train.samples_per_s", "data.label_frames_per_s"), _W_LABEL),
    _calls("value.estimate_progress.calls", "value.estimate_progress",
           ("train.samples_per_s", "data.label_frames_per_s"), _W_LABEL),
    # Seed-to-seed spread of this loss (~16% IQR) is too wide for an end-to-end bound.
    Layer("value.train_alignment.loss_tail", "loss", "lower", (), None, ("train.vcr_loss_tail",), _W_TRAIN),
    _per("labeling.label_episode.us_per_frame", "us", ("labeling.label_episode",), "frames", 1e6, True,
         ("train.samples_per_s", "data.label_frames_per_s"), _W_LABEL),
    Layer("bench.write_report.us", "us", "lower", ("bench.write_report",),
          lambda v: v.incl_us("bench.write_report"), _ALL, _W_EVAL),
    Layer("config.getattr.calls_per_step", "count", "lower", ("config.Config.__getattr__",),
          lambda v: v.calls("config.Config.__getattr__") / (
              v.calls("world.step") or v.calls("nets.Adam.step") or 1.0),
          _ALL, "all workloads; per env step, or per optimizer step where no env steps"),
) + tuple(
    # Wall time of each CLI subcommand per round, timed by the cli-data workload itself.
    Layer(f"cli.{sub}.s", "s", "lower", (), None, moves, _W_DATA)
    for sub, moves in (
        ("gen-nominal", ("data.gen_frames_per_s",)),
        ("gen-recovery", ("data.gen_frames_per_s",)),
        ("train-value", ("data.label_frames_per_s",)),
        ("label", ("data.label_frames_per_s",)),
        ("stats", ("data.label_frames_per_s",)),
        ("collect-induced", ("data.gen_frames_per_s",)),
    )
) + (
    Layer("trace.overhead_share", "share", "lower", (), None, _ALL,
          "all workloads: traced round wall time over untraced, minus one"),
)


def layer_metrics(records: dict[str, Record], rounds: int,
                  measured: dict[str, float]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metric values and the names of layers that were absent.

    ``measured`` supplies the layers with no traced functions (value None).
    """
    view = View(records, rounds)
    values, absent = {}, []
    for layer in LAYERS:
        if layer.value is None and layer.name in measured:
            values[layer.name] = float(measured[layer.name])
        elif layer.value is not None and view.has(*layer.keys):
            values[layer.name] = float(layer.value(view))
        else:
            values[layer.name] = 0.0
            absent.append(layer.name)
    return values, absent
