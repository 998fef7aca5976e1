"""Shared fixtures: a default config, small in-memory datasets, and a mini
trained pipeline reused by the policy and harness tests to keep the suite
fast.  The acceptance tests build their own full-scale bundles."""

import numpy as np
import pytest

from recoverylab.config import load_config
from recoverylab.faults import ErrorKind, error_from_config, run_interception, run_nominal
from recoverylab.labeling import label_episode
from recoverylab.store import EpisodeKind, Outcome, slice_recovery_suffix
from recoverylab.value import build_reference_cluster, init_progress_model, train_alignment
from recoverylab.world import EnvMode
from recoverylab import policy as policy_mod


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def mini_cfg(cfg):
    """Reduced step counts: enough to behave, fast enough for unit tests."""
    return cfg.with_overrides(bc_steps=1500, refine_steps=1500, align_steps=800)


@pytest.fixture(scope="session")
def expert_episodes(cfg):
    eps = [
        run_nominal(cfg, "pick-place", EnvMode.RANDOM, seed, action_noise=float(cfg.expert_action_noise))
        for seed in range(24)
    ]
    return [e for e in eps if e.outcome is Outcome.SUCCESS]


@pytest.fixture(scope="session")
def recovery_episodes(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    eps = [run_interception(cfg, "pick-place", EnvMode.RANDOM, error, 1000 + s) for s in range(12)]
    return [e for e in eps if e.kind is EpisodeKind.FAILURE_RECOVERY]


@pytest.fixture(scope="session")
def failure_episodes(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    eps = [
        run_interception(cfg, "pick-place", EnvMode.RANDOM, error, 2000 + s, recover=False)
        for s in range(6)
    ]
    return [e for e in eps if e.kind is EpisodeKind.PURE_FAILURE]


@pytest.fixture(scope="session")
def progress_model(mini_cfg, expert_episodes):
    model = init_progress_model(mini_cfg, seed=0)
    train_alignment(model, expert_episodes[:16], mini_cfg, seed=1)
    return model


@pytest.fixture(scope="session")
def reference_cluster(progress_model, expert_episodes):
    return build_reference_cluster(progress_model, expert_episodes[:16])


@pytest.fixture(scope="session")
def mini_policies(mini_cfg, expert_episodes, recovery_episodes, failure_episodes,
                  progress_model, reference_cluster):
    """(sft, phase1, full) trained at reduced scale."""
    expert_ds = policy_mod.build_frame_dataset(mini_cfg, expert_episodes)

    sft = policy_mod.init_policy(mini_cfg, seed=0)
    policy_mod.train_bc(sft, expert_ds, None, mini_cfg, seed=0)

    sliced = [slice_recovery_suffix(e) for e in recovery_episodes]
    rec_ds = policy_mod.build_frame_dataset(mini_cfg, sliced)
    phase1 = policy_mod.init_policy(mini_cfg, seed=0)
    policy_mod.train_bc(phase1, expert_ds, rec_ds, mini_cfg, seed=0)

    labeled = [
        label_episode(e, progress_model, reference_cluster, mini_cfg)
        for e in expert_episodes + recovery_episodes + failure_episodes
    ]
    full = phase1.clone()
    vcr_ds = policy_mod.build_frame_dataset(mini_cfg, labeled, require_labels=True)
    policy_mod.train_value_conditioned(full, vcr_ds, mini_cfg, seed=0)
    return sft, phase1, full


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
