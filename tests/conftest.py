"""Shared fixtures: a default config, small in-memory datasets, and a mini
trained pipeline reused by the policy and harness tests to keep the suite
fast.  The acceptance tests build their own full-scale bundles."""

import os
from collections import Counter

# One BLAS thread, set before numpy loads: several threads may split a
# product differently, and the suite's trained weights should not depend on
# how many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from recoverylab import bench, datagen  # noqa: E402
from recoverylab.config import load_config  # noqa: E402
from recoverylab.faults import ErrorKind, error_from_config  # noqa: E402
from recoverylab.policy import build_frame_dataset  # noqa: E402
from recoverylab.world import EnvMode  # noqa: E402


@pytest.fixture(scope="session")
def cfg():
    return load_config()


@pytest.fixture(scope="session")
def mini_cfg(cfg):
    """Reduced step counts: enough to behave, fast enough for unit tests."""
    return cfg.with_overrides(bc_steps=1500, refine_steps=1500, align_steps=800)


@pytest.fixture(scope="session")
def expert_episodes(cfg):
    return list(datagen.expert_episodes(cfg, "pick-place", EnvMode.RANDOM, range(24), Counter()))


@pytest.fixture(scope="session")
def recovery_episodes(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    return list(datagen.verified_interceptions(cfg, "pick-place", EnvMode.RANDOM, error, range(1000, 1012), Counter()))


@pytest.fixture(scope="session")
def failure_episodes(cfg):
    error = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    return list(datagen.verified_interceptions(cfg, "pick-place", EnvMode.RANDOM, error, range(2000, 2006), Counter(),
                                               recover=False))


@pytest.fixture(scope="session")
def progress_model(mini_cfg, expert_episodes):
    """The progress model of the first 16 expert episodes, which are its
    success references."""
    return bench.fit_progress(mini_cfg, expert_episodes[:16], seed=0)[0]


@pytest.fixture(scope="session")
def mini_policies(mini_cfg, expert_episodes, recovery_episodes, failure_episodes, progress_model):
    """(sft, phase1, full) trained at reduced scale."""
    expert_ds = build_frame_dataset(mini_cfg, expert_episodes)
    sft, _ = bench.phase_one(mini_cfg, expert_ds, [], seed=0)
    phase1, _ = bench.phase_one(mini_cfg, expert_ds, recovery_episodes, seed=0)
    full = bench.refine(mini_cfg, phase1, progress_model, expert_episodes + recovery_episodes + failure_episodes,
                        seed=0)
    return sft, phase1, full


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)
