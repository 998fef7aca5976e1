"""Regenerate the pick-place policy checkpoint that the eval-protocol and
cli-data workloads load.

The recipe is the acceptance suite's 4x-tier "full" policy: 60 expert attempts
(seeds 0-59, successes kept), the first 16 verified E2 recoveries from seed
10000, the first 10 verified E2 pure failures from seed 70000, default step
counts, training seed 0.  Training it takes about half a minute, which is why
the benchmark loads it instead of training it during set-up.

Run from the repository root:

    python3 perfbench/make_checkpoint.py

It writes ``perfbench/checkpoint/pp_full.json`` and, next to it,
``pp_full.meta.json`` with the file's sha256, the timeout ``t_max`` derived from
the expert set and the training seeds.  BLAS runs on one thread, as in the
benchmark, because the thread count changes the last bits of trained weights.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["MKL_NUM_THREADS"] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from recoverylab import bench  # noqa: E402
from recoverylab.config import load_config  # noqa: E402
from recoverylab.faults import ErrorKind, error_from_config  # noqa: E402
from recoverylab.policy import save_policy  # noqa: E402

from workloads import CHECKPOINT, CHECKPOINT_META, TASK, expert_episodes, verified_episodes  # noqa: E402


def main() -> int:
    cfg = load_config()
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    expert = expert_episodes(cfg, range(60))
    recoveries = verified_episodes(cfg, e2, range(10_000, 20_000), 16, recover=True)
    failures = verified_episodes(cfg, e2, range(70_000, 80_000), 10, recover=False)
    variants = bench.train_variants(cfg, expert, recoveries, failures, seed=0, which=("full",))
    CHECKPOINT.parent.mkdir(parents=True, exist_ok=True)
    save_policy(variants.full, CHECKPOINT)
    meta = {
        "sha256": hashlib.sha256(CHECKPOINT.read_bytes()).hexdigest(),
        "task": TASK,
        "t_max": variants.t_max,
        "training_seeds": sorted(variants.training_seeds),
        "recipe": {"expert_attempts": 60, "e2_recoveries": 16, "e2_pure_failures": 10,
                   "train_seed": 0, "variant": "full"},
    }
    CHECKPOINT_META.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    print(json.dumps({k: meta[k] for k in ("sha256", "t_max")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
