"""Dataset generation: nominal demonstrations, paired failure-recovery
episodes, deliberate pure failures, and policy-induced recovery collection.
``expert_episodes`` and ``verified_interceptions`` decide which generated
episodes a dataset keeps, for the writers here and the in-memory suites."""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from itertools import islice
from pathlib import Path

from .config import Config
from .errors import InputError, PlanningError
from .faults import ErrorType, TimeoutTakeover, Trial, detect_failure, interception_trial, nominal_trial, run_episodes
from .policy import LearnedActor, Policy
from .store import Episode, EpisodeKind, write_episodes
from .world import EnvMode, get_task


# Seeds per ``run_episodes`` call of every generator here.  Expert trials
# step in lockstep, where a larger block spreads a tick's fixed cost over
# more rows but holds more frames at once: through ``gen-nominal`` on 120
# pick-place and 16 each of stack-two and bimanual-handover seeds, blocks of
# 64 took 0.6x the CPU time of one by one for 3.6 MiB more peak memory, and
# blocks of 128 0.5x for 6.9 MiB.  Interception and induced trials step
# alone, one after another in seed order within the call, so a block costs
# them only the trials made and begun for seeds past where a caller stops.
SEED_BLOCK = 64


def _seed_ordered(cfg: Config, trial_of: Callable[[int], Trial], seeds: Iterable[int],
                  counts: dict) -> Iterator[Episode]:
    """The episodes of the trials ``trial_of(seed)`` over ``seeds``, in seed
    order, counting seeds whose trial raises PlanningError as ``skipped``.

    The seeds run in blocks of ``SEED_BLOCK``, each block's trials in one
    ``run_episodes`` call.  An episode is yielded once it and every episode
    before it have ended, and a seed is counted only when the caller has
    taken every episode before it, as if the seeds ran one by one."""
    seeds = iter(seeds)
    while block := list(islice(seeds, SEED_BLOCK)):
        trials = []
        for seed in block:
            try:
                trials.append(trial_of(seed))
            except PlanningError:
                trials.append(None)
        runs = run_episodes(cfg, [trial for trial in trials if trial is not None])
        ended: dict[int, Episode] = {}  # by place among the planned trials, until their turn
        k = 0
        for trial in trials:
            if trial is None:
                counts["skipped"] += 1
                continue
            while k not in ended:
                i, episode = next(runs)
                ended[i] = episode
            yield ended.pop(k)
            k += 1


def expert_episodes(cfg: Config, task_id: str, env_mode: EnvMode, seeds: Iterable[int], counts: Counter,
                    keep_failures: bool = False) -> Iterator[Episode]:
    """Expert episodes over ``seeds`` in seed order (see ``_seed_ordered``),
    executed with ``cfg.expert_action_noise``: the successes, and the
    failures too with ``keep_failures``.  Counts seeds the planner cannot
    plan as ``skipped`` and failed runs as ``failures``."""
    noise = float(cfg.expert_action_noise)
    for episode in _seed_ordered(cfg, lambda seed: nominal_trial(cfg, task_id, env_mode, seed, action_noise=noise),
                                 seeds, counts):
        if episode.kind is EpisodeKind.PURE_FAILURE:
            counts["failures"] += 1
            if not keep_failures:
                continue
        yield episode


def verified_interceptions(cfg: Config, task_id: str, env_mode: EnvMode, error: ErrorType, seeds: Iterable[int],
                           counts: Counter, recover: bool = True) -> Iterator[Episode]:
    """Interception episodes over ``seeds`` in seed order (see
    ``_seed_ordered``) whose adverse state verified: paired failure-recovery
    episodes, or pure failures with ``recover=False``.  Counts injections
    that did not verify as ``unverified``, and seeds the planner cannot plan
    or that end as the other kind as ``skipped``."""
    wanted = EpisodeKind.FAILURE_RECOVERY if recover else EpisodeKind.PURE_FAILURE
    for episode in _seed_ordered(cfg, lambda seed: interception_trial(cfg, task_id, env_mode, error, seed,
                                                                      recover=recover), seeds, counts):
        if not episode.provenance.get("adverse_verified", False):
            counts["unverified"] += 1
        elif episode.kind is not wanted:
            counts["skipped"] += 1
        else:
            yield episode


def generate_nominal(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    n: int,
    seed0: int,
    out_dir: str | Path,
    keep_failures: bool = False,
) -> dict:
    """Write the expert episodes of seeds seed0 .. seed0 + n - 1; returns
    generation stats.  An unknown task is a ConfigError, raised before
    ``out_dir`` is made."""
    get_task(cfg, task_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = Counter(skipped=0, failures=0)
    episodes = expert_episodes(cfg, task_id, env_mode, range(seed0, seed0 + n), counts, keep_failures)
    written = len(write_episodes(episodes, out_dir))
    return {"written": written, **counts, "out_dir": str(out_dir)}


def generate_recovery(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    error: ErrorType,
    n: int,
    seed0: int,
    out_dir: str | Path,
    pure_failure: bool = False,
) -> dict:
    """Write the verified paired failure-recovery episodes (or pure failures)
    of seeds seed0 .. seed0 + n - 1.

    Episodes whose adverse state fails verification are not stored; they are
    counted and reported so recovery datasets contain verified samples only.
    An unknown task is a ConfigError, raised before ``out_dir`` is made.
    """
    get_task(cfg, task_id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = Counter(skipped=0, unverified=0)
    episodes = verified_interceptions(cfg, task_id, env_mode, error, range(seed0, seed0 + n), counts,
                                      recover=not pure_failure)
    written = len(write_episodes(episodes, out_dir))
    return {"written": written, **counts, "out_dir": str(out_dir)}


def collect_policy_induced(
    cfg: Config,
    policy: Policy,
    task_ids: list[str],
    n: int,
    seed0: int,
    out_dir: str | Path,
    t_max: int,
) -> dict:
    """Roll out a trained policy; when it times out, let the planner take over.

    The takeover instant is the recovery onset.  Frames before the Error
    onset are Nominal: the onset is the first drop that leaves an object short
    of its objectives, or else the step after the last change in grasp state.
    The planner's corrective phases are Recovery.  Runs the planner cannot
    recover, or does not finish, are stored as pure failures; policy
    successes are counted but not stored.  The trials run in seed order (see
    ``_seed_ordered``).  No task ids, or a ``t_max`` that is not positive, is
    an InputError, and an unknown task id a ConfigError, each raised before
    ``out_dir`` is made.
    """
    if not task_ids:
        raise InputError("collect_policy_induced needs at least one task id")
    for task_id in task_ids:
        get_task(cfg, task_id)
    detect_failure(0, t_max)  # InputError for a t_max that is not positive
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {"recovery": 0, "pure_failure": 0, "policy_success": 0, "skipped": 0}

    def trial_of(seed: int) -> Trial:
        return Trial(LearnedActor(policy), task_ids[(seed - seed0) % len(task_ids)], EnvMode.RANDOM, seed, "induced",
                     {"generator": "policy-induced"}, t_max, takeover=TimeoutTakeover())

    def kept():
        for episode in _seed_ordered(cfg, trial_of, range(seed0, seed0 + n), counts):
            if episode.kind is EpisodeKind.FAILURE_RECOVERY:
                counts["recovery"] += 1
            elif episode.kind is EpisodeKind.PURE_FAILURE:
                counts["pure_failure"] += 1
            else:
                counts["policy_success"] += 1
                continue  # successes are not recovery data
            yield episode

    write_episodes(kept(), out_dir)
    counts["out_dir"] = str(out_dir)
    return counts
