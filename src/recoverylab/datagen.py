"""Dataset generation: nominal demonstrations, paired failure-recovery
episodes, deliberate pure failures, and policy-induced recovery collection."""

from __future__ import annotations

from pathlib import Path

from .config import Config
from .errors import PlanningError
from .faults import ErrorType, TimeoutTakeover, run_episode, run_interception, run_nominal
from .policy import LearnedActor, Policy
from .store import EpisodeKind, Outcome, write_episodes
from .world import EnvMode


def generate_nominal(
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    n: int,
    seed0: int,
    out_dir: str | Path,
    keep_failures: bool = False,
) -> dict:
    """Write ``n`` expert episodes starting at seed0, executed with
    ``cfg.expert_action_noise``; returns generation stats."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    noise = float(cfg.expert_action_noise)
    counts = {"skipped": 0, "failures": 0}

    def kept():
        for i in range(n):
            try:
                episode = run_nominal(cfg, task_id, env_mode, seed0 + i, action_noise=noise)
            except PlanningError:
                counts["skipped"] += 1
                continue
            if episode.outcome is Outcome.FAILURE:
                counts["failures"] += 1
                if not keep_failures:
                    continue
            yield episode

    written = len(write_episodes(kept(), out_dir))
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
    """Write paired failure-recovery episodes (or pure failures) via interception.

    Episodes whose adverse state fails verification are not stored; they are
    counted and reported so recovery datasets contain verified samples only.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wanted = EpisodeKind.PURE_FAILURE if pure_failure else EpisodeKind.FAILURE_RECOVERY
    counts = {"skipped": 0, "unverified": 0}

    def kept():
        for i in range(n):
            try:
                episode = run_interception(cfg, task_id, env_mode, error, seed0 + i, recover=not pure_failure)
            except PlanningError:
                counts["skipped"] += 1
                continue
            if not episode.provenance.get("adverse_verified", False):
                counts["unverified"] += 1
            elif episode.kind is not wanted:
                counts["skipped"] += 1
            else:
                yield episode

    written = len(write_episodes(kept(), out_dir))
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
    successes are counted but not stored.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts = {"recovery": 0, "pure_failure": 0, "policy_success": 0, "skipped": 0}

    def kept():
        for i in range(n):
            episode = run_episode(
                cfg, LearnedActor(policy), task_ids[i % len(task_ids)], EnvMode.RANDOM, seed0 + i, "induced",
                {"generator": "policy-induced"}, t_max=t_max, takeover=TimeoutTakeover(),
            )
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
