"""Runtime configuration.

All tunable constants live in one flat namespace so every experiment can be
reproduced from a config snapshot; training and labeling functions read their
settings from the Config they are given and take no copies of them.  Values
can be overridden from a plain ``key = value`` text file (``#`` starts a
comment); unknown keys are rejected, and so are values of the wrong type:
integer keys take integers, float keys take any finite real number.  Physical
scales, divisors, the decay exponent, batch sizes, the episode length bound
and the evaluation's trial count (POSITIVE) must be greater than zero.  No
integer key (step counts, windows, dimensions, seeds) means anything below
zero, so none takes a negative value; other step counts may be zero.  Nor
do the loss weight, the noise scales and the E3/E4 draw bounds
(NON_NEGATIVE): a negative weight or noise would be dropped as zero, and a
negative bound would mirror its draw range, so they take zero or more.  The
documented keys and their defaults are the DEFAULTS table below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError

DEFAULTS: dict[str, float | int | str] = {
    # --- simulation world ---
    "dt": 0.05,                    # seconds per step
    "v_max": 0.5,                  # max end-effector speed, m/s (per axis)
    "omega_max": 2.0,              # max end-effector angular speed, rad/s
    "grasp_radius": 0.03,          # attach distance, m
    "goal_radius": 0.05,           # success distance, m
    "workspace_x_min": -0.5,
    "workspace_x_max": 0.5,
    "workspace_y_min": 0.0,
    "workspace_y_max": 0.5,
    "table_y": 0.02,               # resting height of objects
    "lift_y": 0.2,                 # carry height used by the planner
    "left_reach_x_max": 0.1,       # left arm cannot move right of this
    "right_reach_x_min": -0.1,     # right arm cannot move left of this
    # --- planner ---
    "pos_tol": 0.01,               # phase-completion position tolerance, m
    "ang_tol": 0.05,               # phase-completion angle tolerance, rad
    "approach_standoff": 0.08,     # hover height above an object before descending
    "grasp_settle_steps": 1,       # open dwell before the grasp close
    "plan_max_steps": 300,         # budget for a nominal plan to succeed
    "phase_stall_limit": 80,       # steps before a stuck phase aborts the episode
    # --- error injection ---
    "e1_hold_steps": 20,           # premature-close hold window
    "e2_window_steps": 30,         # grasp-slip forced-open window, frames
    "e3_offset_max": 0.05,         # per-axis translational offset bound, m
    "e3_window_steps": 12,
    "e4_dtheta_max": math.pi / 3,  # rotational mismatch bound, rad
    "e4_lat_max": 0.08,            # lateral offset bound, m
    "e4_window_steps": 12,
    "episode_max_steps": 400,      # hard cap when no timeout budget is given
    # --- trajectory store ---
    "history_window": 5,           # W, observations per history buffer
    # --- progress value model ---
    "feature_dim": 64,             # frozen feature dimension F
    "embed_dim": 32,               # shared manifold dimension D
    "value_hidden": 64,
    "feature_seed": 1234,          # seed of the frozen trajectory projection
    "instruction_seed": 777,       # seed of the frozen instruction table
    "align_lr": 1e-3,
    "align_batch": 32,
    "align_steps": 1500,
    # --- hindsight labeling ---
    "alpha": 3.0,                  # reliability-decay exponent
    "clamp_min": 0.0,
    "clamp_max": 1.0,
    # --- policy ---
    "policy_hidden": 128,
    "value_token_dim": 16,
    "instr_embed_dim": 8,
    "sigma": 0.1,                  # fixed action-noise scale in the Gaussian likelihood
    "lambda_recovery": 1.0,        # mixing weight of the recovery term
    "policy_lr": 1e-3,
    "policy_batch": 64,
    "bc_steps": 8000,              # phase-one imitation steps
    "refine_steps": 8000,          # value-conditioned refinement steps
    "input_noise": 0.02,           # train-time obs/history jitter (meters, rad)
    "expert_action_noise": 0.02,   # collection-time target jitter for expert data
    # --- evaluation harness ---
    "eval_trials": 50,
    "adversarial_budget_mult": 2.0,  # adversarial horizon = mult*t_max + window
}


# Keys whose value scales motion or tolerances, divides, is an exponent of
# decay, sizes a batch or an evaluation, or bounds an episode: zero or less
# has no meaning for them.
POSITIVE = frozenset({
    "dt", "v_max", "omega_max", "grasp_radius", "goal_radius", "pos_tol", "ang_tol",
    "sigma", "alpha", "align_lr", "policy_lr", "align_batch", "policy_batch", "episode_max_steps",
    "eval_trials",
})

# Float keys that weigh a loss term, scale noise or bound an error draw: a
# value below zero has no meaning for them, while zero turns them off.
NON_NEGATIVE = frozenset({
    "lambda_recovery", "input_noise", "expert_action_noise", "e3_offset_max", "e4_dtheta_max", "e4_lat_max",
})


@dataclass(frozen=True)
class Config:
    """Immutable snapshot of every tunable constant; each key also reads as
    a plain attribute (``cfg.dt``)."""

    values: dict[str, float | int | str] = field(default_factory=lambda: dict(DEFAULTS))

    def __post_init__(self):
        self.__dict__.update(self.values)

    def with_overrides(self, **overrides) -> "Config":
        unknown = set(overrides) - set(DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key, value in overrides.items():
            integer = isinstance(DEFAULTS[key], int)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
                raise ConfigError(f"{key} takes {'an integer' if integer else 'a number'}, got {value!r}")
            if not integer and not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value!r}")
            if key in POSITIVE and not value > 0:
                raise ConfigError(f"{key} must be positive, got {value!r}")
            if (integer or key in NON_NEGATIVE) and value < 0:
                raise ConfigError(f"{key} must not be negative, got {value!r}")
        merged = dict(self.values)
        merged.update(overrides)
        return Config(values=merged)

    def snapshot(self) -> dict[str, float | int | str]:
        """Stable copy for embedding in reports and checkpoints."""
        return dict(sorted(self.values.items()))


def _parse_scalar(text: str) -> float | int | str:
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            continue
    return text


def load_config(path: str | Path | None = None, **overrides) -> Config:
    """Build a Config from defaults, an optional file, then keyword overrides."""
    values: dict[str, float | int | str] = {}
    if path is not None:
        path = Path(path)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, val = line.partition("=")
            key = key.strip()
            if key not in DEFAULTS:
                raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
            values[key] = _parse_scalar(val.strip())
    cfg = Config().with_overrides(**values)
    return cfg.with_overrides(**overrides) if overrides else cfg
