"""Actors and the one-trial rollout that only the tests use: the uniform
random floor, the scripted expert run closed-loop as a policy (the oracle
ceiling), and a learned policy deployed for a single episode."""

import numpy as np

from recoverylab.config import Config
from recoverylab.errors import PlanningError, UnrecoverableState
from recoverylab.faults import UNTRIGGERED, Actor, ErrorType, PlannerActor, Trial, run_episodes
from recoverylab.planner import plan_recovery
from recoverylab.policy import LearnedActor, Policy, action_from_vector
from recoverylab.store import Episode
from recoverylab.world import EnvMode, WorldState, success_check


class RandomActor(Actor):
    """Uniform random workspace targets; the evaluation floor."""

    def __init__(self, seed: int):
        self._seed = seed
        self._cfg: Config | None = None

    def begin(self, cfg, state):
        self._cfg = cfg
        self._rng = np.random.default_rng([self._seed, 0x8A])

    def act(self, state, obs):
        cfg = self._cfg
        vec = np.concatenate([
            [
                self._rng.uniform(cfg.workspace_x_min, cfg.workspace_x_max),
                self._rng.uniform(cfg.workspace_y_min, cfg.workspace_y_max),
                self._rng.uniform(-0.5, 0.5),
                self._rng.uniform(0.0, 1.0),
            ]
            for _ in range(2)
        ])
        return tuple(action_from_vector(cfg, vec).tolist())


# Steps in one plan phase after which the oracle replans.
ORACLE_STALL_BUDGET = 60


class OracleActor(Actor):
    """The scripted expert run closed-loop as a policy.

    Executes the nominal plan and self-monitors: a stalled phase or an
    exhausted plan without success triggers replanning from the live state
    via the recovery planner; with nothing left to do it holds pose.  Bounds
    every learned policy from above.
    """

    def __init__(self):
        self._cfg: Config | None = None
        self._planner: PlannerActor | None = None

    def begin(self, cfg, state):
        self._cfg = cfg
        self._planner = PlannerActor()
        self._planner.begin(cfg, state)

    def _replan(self, state: WorldState) -> bool:
        try:
            planner = PlannerActor(plan_recovery(self._cfg, state))
        except (UnrecoverableState, PlanningError):
            return False
        planner.begin(self._cfg, state)
        self._planner = planner
        return True

    def act(self, state: WorldState, obs: np.ndarray) -> tuple[float, ...]:
        if self._planner.steps_in_phase > ORACLE_STALL_BUDGET:
            self._replan(state)
        action = self._planner.act(state, obs)
        if self._planner.exhausted and not success_check(self._cfg, state):
            if self._replan(state):
                action = self._planner.act(state, obs)
        return action



def rollout(
    policy: Policy,
    cfg: Config,
    task_id: str,
    env_mode: EnvMode,
    seed: int,
    v_fixed: float = 1.0,
    injection: ErrorType | None = None,
    t_max: int | None = None,
) -> Episode:
    """Deploy the policy closed-loop: raw rolling history, fixed value input.

    With ``injection``, the error fires at scene geometry (see
    ``faults.Trial``): frames inside the override window are tagged Error
    and the post-window continuation Recovery, provided the adverse state
    verifies when the window closes.
    """
    actor = LearnedActor(policy, v_fixed=v_fixed)
    if injection is None:
        trial = Trial(actor, task_id, env_mode, seed, "pol", {"generator": "rollout", **UNTRIGGERED}, t_max)
    else:
        trial = Trial(actor, task_id, env_mode, seed, f"pol-{injection.kind.value}", {"generator": "rollout"},
                      t_max, injection)
    (_, episode), = run_episodes(cfg, [trial])
    return episode
