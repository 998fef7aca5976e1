"""Golden determinism net: sha256 of the bytes that ``write_episode`` and
``write_report`` produce for fixed configs and seeds, and of the training
arrays that ``build_frame_dataset`` derives from those episodes.

The digests pin episode JSON, eval reports and training inputs across
refactors of the episode loops and the dataset builder.  Each case names the finalisation branch its seed was chosen to reach.
Branches that default geometry never reaches in a given loop are forced with
a config override (or, for a failing recovery planner, a patched planner)
and say so.  The learned actor is mostly an untrained
``init_policy(cfg, seed=9)``, so those digests depend on neither training nor
BLAS summation order; the reports of the committed trained policy exercise
its grasps and recoveries, and those of the two-object tasks pin lockstep
runs whose trials grasp two objects, hand over and end at different ticks.
The checkpoint digests pin the bytes ``save_policy`` and
``save_progress_model`` write, and the training digests
the weights each training loop leaves.  The suite digests pin the tables,
checkpoints and evaluated weights of the CLI's scaling, ablation and
train-rai runs at nano scale.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from recoverylab import bench, datagen, faults
from recoverylab.errors import UnrecoverableState
from recoverylab.faults import ErrorKind, error_from_config, run_interception, run_nominal
from recoverylab.labeling import label_failure, label_recovery, label_success
from recoverylab.policy import LearnedActor, build_frame_dataset, fit_normalizer, init_policy, load_policy, save_policy
from recoverylab.store import EpisodeKind, Outcome, episode_to_dict, slice_recovery_suffix, write_episode
from recoverylab.value import ReferenceCluster, init_progress_model, save_progress_model
from recoverylab.world import EnvMode
from tests.actors import OracleActor, RandomActor

TASKS = ("pick-place", "stack-two", "bimanual-handover")
# max_nominal_duration of the 24 pick-place expert episodes the suite trains on.
T_MAX = 94


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _episode_digest(episode, out_dir) -> str:
    out_dir.mkdir(parents=True)
    return _sha(write_episode(episode, out_dir))


def _dataset_digests(out_dir) -> dict[str, str]:
    return {p.name: _sha(p) for p in sorted(out_dir.glob("*.json")) if p.name != "manifest.json"}


def _manifests_digest(root, names) -> str:
    """One digest of the manifests under ``root/<name>``, in name order."""
    h = hashlib.sha256()
    for name in sorted(names):
        h.update(name.encode())
        h.update((root / name / "manifest.json").read_bytes())
    return h.hexdigest()


def _assert_golden(got: dict, want: dict) -> None:
    wrong = {k: got.get(k) for k in set(got) | set(want) if got.get(k) != want.get(k)}
    assert not wrong, f"digests changed: {sorted(wrong)}"


# The manifests the nominal, interception and induced cases write, one
# digest per test over every case's manifest.
MANIFEST_GOLDEN = {
    "nominal":
        "bb4672a10f66fac35bee5917d940ed3da9d8947c08a36eeaeab592c4b54798a1",
    "interception":
        "254d02f2468f3fd9b14e86b2f55439c3428b1cbb96fc43391b4c2db4abc036fb",
    "induced":
        "0e93ede4dd40d0608394e263df49c17f2eab0ec1e1be91d903dfebda8dbb3709",
}


NOMINAL_CASES = {
    # name: (config overrides, task, env mode, seed, t_max, action_noise)
    "pick-place-clean-success": ({}, "pick-place", EnvMode.CLEAN, 0, None, 0.0),
    "pick-place-s0-success": ({}, "pick-place", EnvMode.RANDOM, 0, None, 0.02),
    "pick-place-s1-phase-stall": ({}, "pick-place", EnvMode.RANDOM, 1, None, 0.02),
    "stack-two-s0": ({}, "stack-two", EnvMode.RANDOM, 0, None, 0.02),
    "bimanual-handover-s0": ({}, "bimanual-handover", EnvMode.RANDOM, 0, None, 0.02),
    "pick-place-s0-timeout": ({}, "pick-place", EnvMode.RANDOM, 0, 30, 0.0),
    # goal_radius below pos_tol: the plan finishes without success.
    "stack-two-s0-plan-exhausted": ({"goal_radius": 0.005}, "stack-two", EnvMode.RANDOM, 0, None, 0.0),
}

NOMINAL_GOLDEN = {
    "bimanual-handover-s0":
        "0ed1a23d9020089e2d2461087cc48f9d20cdad9ab2586556ecf148f0712bcf39",
    "pick-place-clean-success":
        "4e4ebb0bb56ba9f4b58f12417cbcbf595e8ba2fcc3ff45d302648b59322a916d",
    "pick-place-s0-success":
        "ee53cffa0f4a92df24f31bcd46b8df0814216d6e14a9237d83b57ddc525233eb",
    "pick-place-s0-timeout":
        "b2e4785ab3cf37dded3b58627ccbaa8d59981362e0e724cc657aca709d74b4e9",
    "pick-place-s1-phase-stall":
        "6245d35f45387d37dc16bab62fe56418efdbd2826ee00f89aed0b338bdf91878",
    "stack-two-s0":
        "45309823c3ffcce48c3c893754ce541a2a97d39837a09d392ff3c00cd803655e",
    "stack-two-s0-plan-exhausted":
        "7c2afaccf68cc218dfd31b24fb6d7caaa415701916f3cea28001691ab2ac6608",
}


def test_nominal_golden(cfg, tmp_path):
    got = {}
    for name, (overrides, task, mode, seed, t_max, noise) in NOMINAL_CASES.items():
        c = cfg.with_overrides(**overrides) if overrides else cfg
        episode = run_nominal(c, task, mode, seed, t_max=t_max, action_noise=noise)
        got[name] = _episode_digest(episode, tmp_path / name)
    _assert_golden(got, NOMINAL_GOLDEN)
    assert _manifests_digest(tmp_path, NOMINAL_CASES) == MANIFEST_GOLDEN["nominal"]


def _interception_cases():
    # Grid: recover=True reaches verified recovery (E1/E2/E4) or an unverified
    # injection retagged Nominal (E3); recover=False reaches verified pure failure.
    cases = {
        f"{task}-{kind.value}-{'rec' if recover else 'pf'}-s{seed}": ({}, task, kind, seed, None, recover)
        for task in TASKS for kind in ErrorKind for recover in (True, False) for seed in (0, 1)
    }
    cases.update({
        # Timeout inside the recovery phase.
        "pick-place-E1-rec-s40-timeout": ({}, "pick-place", ErrorKind.E1_PREMATURE_CLOSE, 40, 60, True),
        # Phase stall (a short stall limit) at frame 35, inside the E2 window
        # [15, 45): the injection never verifies and the run is all Nominal.
        "pick-place-E2-rec-s0-stall": ({"phase_stall_limit": 12}, "pick-place",
                                       ErrorKind.E2_GRASP_SLIP, 0, None, True),
        "stack-two-E3-rec-s0-stall": ({"phase_stall_limit": 12}, "stack-two",
                                      ErrorKind.E3_POSITION_OFFSET, 0, None, True),
        # Plan exhaustion: the recovery plan finishes without success and
        # the episode ends at once.
        "bimanual-handover-E2-rec-s0-idle": ({"goal_radius": 0.005}, "bimanual-handover",
                                             ErrorKind.E2_GRASP_SLIP, 0, None, True),
    })
    return cases


INTERCEPTION_GOLDEN = {
    "bimanual-handover-E1-pf-s0":
        "ffa5cda7150ba55bf221f2e4ec43b3276576412fc6476f26ae67f85f8c096622",
    "bimanual-handover-E1-pf-s1":
        "d0d204527b913cddb5b0be17190dd39f296a073a535635947c725d9c1bd8f94f",
    "bimanual-handover-E1-rec-s0":
        "e7b360e11fa2182f2c88fb23c5692d3d7b51096630bd6f2763439a68c1bac28f",
    "bimanual-handover-E1-rec-s1":
        "9f2b633e7b69e1e60a5249d6be93857bb023f3ea9fc589fce8d5ed3757d8e30e",
    "bimanual-handover-E2-pf-s0":
        "b1fc0a2ee7ba6e972e93fe31e5f71df7f9daf0562143d870f8f0f56ff4abe5f4",
    "bimanual-handover-E2-pf-s1":
        "55555fdd5433c31e6cf9c120b071c0d8e929cb675b91ce2e91f7fe83dcebf20f",
    "bimanual-handover-E2-rec-s0":
        "c81713ba8eecd5b07a2b4af7c341d60faaa4c74a5ff1fe4839ee107d940b18d2",
    "bimanual-handover-E2-rec-s0-idle":
        "1cc8b7856963cd5d90bb1660ddbe7258201f4cdf61299a0509e542dc9e64a6db",
    "bimanual-handover-E2-rec-s1":
        "12df8012136e60ea0f0b0ec92077a3b7a60344c7c8136050a2967b1ad8156ee0",
    "bimanual-handover-E3-pf-s0":
        "d592670cd3edec5a7205bbfa80f06d52cf1ad81ecd62cf545598f0ec4b470ebd",
    "bimanual-handover-E3-pf-s1":
        "9db11e32894d10e3c8fc95c0a0dac3aeb54116280a29782b26f0cffdef5ae721",
    "bimanual-handover-E3-rec-s0":
        "94f6b84fc40dcea0e52e6f6f7fc29a87e90519a7d070ef3c0ab4641baa4c7af9",
    "bimanual-handover-E3-rec-s1":
        "4dd37e46ace045af076d52993c216db56db8589d02dc729fad9f1b62f6d50582",
    "bimanual-handover-E4-pf-s0":
        "78340a41f528c27870383ef49aead350b4915f3245c8695b0eee5de981e3f582",
    "bimanual-handover-E4-pf-s1":
        "fb7a7b9f2829a8d3b5149449100d086adf57361e161facf5a2abcc3b73d8e716",
    "bimanual-handover-E4-rec-s0":
        "1f0ce3ea396e11e815630c3300d374c8c35ad45a48d3f76855f5fa7026f730fb",
    "bimanual-handover-E4-rec-s1":
        "61a2e2cfab6c0a302e77212564b25f0916827e96c9d5bfc30eb0d78c87eddb5c",
    "pick-place-E1-pf-s0":
        "dd5c7c0982bbffc7a022e0b83f0e760f5ba492ff9b075394e2ff6d58ae0193c8",
    "pick-place-E1-pf-s1":
        "cef038830f590a2274d15e41ef223c1e3058658ef1ab3546a38015ddd03c68d6",
    "pick-place-E1-rec-s0":
        "4a19fd78e7f1cc9b1b4431210ed0166ba5fb869305a9c97bd1c8c6fe12428806",
    "pick-place-E1-rec-s1":
        "9344c3e34d28d748f1b51f6f1424d8f9301b19e130d01ed771a907d5d89fa861",
    "pick-place-E1-rec-s40-timeout":
        "22aef101de112ba35d9453233a14eddea64e1e4793ed8cbda5d5ee210ce01b23",
    "pick-place-E2-pf-s0":
        "5ede0a560e113c2a204a39bf3ff9248a051306a2c6ac2d6c613f4d8bfe2800f8",
    "pick-place-E2-pf-s1":
        "7736a631c71deb10a7f62d61db13381eecec1330ce092da713013c5b8fe8e449",
    "pick-place-E2-rec-s0":
        "bf6bb96b8c273484feb26499c3e0dabda7c6d18bde4262f14519f71f90d49df6",
    "pick-place-E2-rec-s0-stall":
        "fd1034a2bf61a71edc7660181b1c8d4d48fb7e16dfdc5c34993eea670d05be56",
    "pick-place-E2-rec-s1":
        "abe8fe61c5fbfdbb584ab098260b01b5b7d48faf096f2ffd13b5e714d7f88fe0",
    "pick-place-E3-pf-s0":
        "c8e71c46f176724887c4bcbbfbe42be0b3075fbd6132fcbd39a4e9226bb94a33",
    "pick-place-E3-pf-s1":
        "8f2d781cc1017f5e5c00c74191ed01a92fd719a3ca3757c825c3ee4d52c317be",
    "pick-place-E3-rec-s0":
        "bce45f5554b6bcfc1e6e6a89d81995730a12e2992baa6bcb49c1b9ee25dd4d2e",
    "pick-place-E3-rec-s1":
        "a333dae4dbee1341d43d1daf1f8b147e301d70989ae161e67e57db844ada5644",
    "pick-place-E4-pf-s0":
        "69b569f1b8bacb1b3ffb7e4e12d0109c1ebbba611bb6e887941f40ddebbcbd28",
    "pick-place-E4-pf-s1":
        "b83a18633bcc872fab583b3eb4a54f347fbbccb5f73dd48c3bdd0372e3c7ecfc",
    "pick-place-E4-rec-s0":
        "cd9dde121d1a876d3b9d74ae49187d91365994bb3272c33f4a69151228d3aeca",
    "pick-place-E4-rec-s1":
        "78b309de0a22a132371e74f940735ba40dd0f3a9f9a26b60d46fd378395bb2d0",
    "stack-two-E1-pf-s0":
        "54f456c7fbfaea1b939ebb68b94879c16b0f59b02ddbc7005f808a152480e6fc",
    "stack-two-E1-pf-s1":
        "f4dc26fbb3a3828832c6c24d0d1be76c5965c2dd23a107882b5a185cd066c514",
    "stack-two-E1-rec-s0":
        "3dd4b25ea9156ce8d69454b279af439f1f94044f697338dbed2224606de0696f",
    "stack-two-E1-rec-s1":
        "ab68515a8335e11d7e73f981998b588411eb71f4397ca14429c0842b5363e513",
    "stack-two-E2-pf-s0":
        "0678a752f1a0adbe54df2d08f235a7081606529026e50940110e014ff3d64697",
    "stack-two-E2-pf-s1":
        "61e9bbc4dccb870a90994fd00197c91a446e4bc48dae6192bcd92ce818ee043f",
    "stack-two-E2-rec-s0":
        "b42bc1d0cc2189bf64fda2599b7134c3e30a2857b219a454177ae0983faca99f",
    "stack-two-E2-rec-s1":
        "a8d1f9d3304944b890a9ae111b57bf3e39c651b9f5f20e181981341d57d49bb2",
    "stack-two-E3-pf-s0":
        "78491b767509b04c742724033ff64e589940aea55d741da2411b8e8a649ae384",
    "stack-two-E3-pf-s1":
        "81215903e5d0f6fa7a54b2c003332195a5c314fe977caf2321b588c6809141c4",
    "stack-two-E3-rec-s0":
        "d9fdb5b01ed35320483be976e971443d87ac4139e0677749e4c3013908086f9a",
    "stack-two-E3-rec-s0-stall":
        "5bcee5e6a3149c2ee6ff316da3dabcb9db0c914edcb05f84d78ebef21987589a",
    "stack-two-E3-rec-s1":
        "3c1b800db667da873f0a62cf5c9badf2db0d2fab7671b50dbd37370df8993665",
    "stack-two-E4-pf-s0":
        "3ed40171234b103579e538f40aad2f9f2f1ebf099ca68d38d68068e819fa7dc0",
    "stack-two-E4-pf-s1":
        "4a66bfb10f8a1db8b6549c0642615923013e0d2ce5a88e96847f9b0b56a71532",
    "stack-two-E4-rec-s0":
        "fe217ba9032bb36751770c3c0b18c04f4ea14cf023f3fc9e5712a43524e2a19f",
    "stack-two-E4-rec-s1":
        "ddaf9d8dfe81b7c0f39db99de20346896f6aed55eb8cb9e2bd3df363e26e7454",
}


def test_interception_golden(cfg, tmp_path):
    got = {}
    cases = _interception_cases()
    for name, (overrides, task, kind, seed, t_max, recover) in cases.items():
        c = cfg.with_overrides(**overrides) if overrides else cfg
        episode = run_interception(c, task, EnvMode.RANDOM, error_from_config(c, kind), seed,
                                   t_max=t_max, recover=recover)
        got[name] = _episode_digest(episode, tmp_path / name)
    _assert_golden(got, INTERCEPTION_GOLDEN)
    assert _manifests_digest(tmp_path, cases) == MANIFEST_GOLDEN["interception"]


RECOVERY_FAILED_GOLDEN = {
    "E1":
        "b2ea89b7cba364a8500b928de32bd93992e049bac32f65c1be77fb6e53af1cae",
    "E2":
        "20b904948e2ac90ba7914792ec8b2726053eb0d9905c4aa7d109bc13f3ea7326",
}


def test_interception_recovery_failed_golden(cfg, tmp_path, monkeypatch):
    # Objects only move while carried, so no default adverse state defeats the
    # recovery planner; a refusing planner reaches the recovery_failed branch.
    def refuse(cfg_, state):
        raise UnrecoverableState("object cannot be retrieved")

    monkeypatch.setattr(faults, "plan_recovery", refuse)
    got = {}
    for kind in (ErrorKind.E1_PREMATURE_CLOSE, ErrorKind.E2_GRASP_SLIP):
        episode = run_interception(cfg, "pick-place", EnvMode.RANDOM, error_from_config(cfg, kind), 0)
        assert "recovery_failed" in episode.provenance
        got[kind.value] = _episode_digest(episode, tmp_path / kind.value)
    _assert_golden(got, RECOVERY_FAILED_GOLDEN)


INDUCED_GOLDEN = {
    "anomaly/stack-two-random-induced-s000006.json":
        "5a7fde0635a2d0f988a9dcd9cf7850b4fcae56a2d23730a37acde4ecc89420ff",
    "failed/bimanual-handover-random-induced-s000002.json":
        "239577a1b1e99bba9c449c27f5836681a5ba1d92dd252415373cc280c59029ec",
    "failed/pick-place-random-induced-s000000.json":
        "99dfbecf374e76554c3cb25cec778fe28b560d695a40544bd7f13f3ad2d817de",
    "failed/stack-two-random-induced-s000001.json":
        "e1ab51484e8e7391ac6bf2766d14118c671f06c3cd03a9431fb99f080818cfa0",
    "success/bimanual-handover-random-induced-s000002.json":
        "75b122b0efdbaf5d1149f48b02d6a689396433cb2162ededa61805488493af95",
    "success/pick-place-random-induced-s000000.json":
        "3d2582db86d25e7ff6ef3ca7a1d2be2af9b4518d5cde71636990fd9f365153f7",
    "success/stack-two-random-induced-s000001.json":
        "ae1b087fefb9cc7e8486d542e2830f17798c15ae81d6c2db5b798c4fb5240d4c",
    "unrecoverable/pick-place-random-induced-s000000.json":
        "23ffc052f0300757e914d14a11ad6a80c28dd287e8d72813999f25e19a6a22f6",
    "unrecoverable/pick-place-random-induced-s000001.json":
        "761f2e0e9f2a1169e57cdc92a957f0f911cbdb4b90faa4c342b46e7299cfdb20",
}


def test_policy_induced_golden(cfg, tmp_path):
    weak = init_policy(cfg, seed=9)
    runs = {
        # Takeover succeeds after a timeout, one seed per task.
        "success": (cfg, list(TASKS), 3, 0, T_MAX),
        # stack-two s6: a mid-run drop sets the Error onset, then the takeover succeeds.
        "anomaly": (cfg, ["stack-two"], 1, 6, T_MAX),
        # Late timeout: the takeover runs out of episode_max_steps ("failed").
        "failed": (cfg, list(TASKS), 3, 0, 360),
        # Object outside the right arm's reach: the takeover is "unrecoverable".
        "unrecoverable": (cfg.with_overrides(right_reach_x_min=0.45), ["pick-place"], 2, 0, T_MAX),
    }
    got = {}
    for name, (c, tasks, n, seed0, t_max) in runs.items():
        out = tmp_path / name
        datagen.collect_policy_induced(c, weak, tasks, n, seed0, out, t_max=t_max)
        got.update({f"{name}/{k}": v for k, v in _dataset_digests(out).items()})
    _assert_golden(got, INDUCED_GOLDEN)
    assert _manifests_digest(tmp_path, runs) == MANIFEST_GOLDEN["induced"]


REPORT_GOLDEN = {
    "learned-E2.csv":
        "4406049548535225f1915d9a616f87753866b387dbf75930d9fbbf78f7eb7a7a",
    "learned-E2.json":
        "c6fee524a1f049171ad6eccfd0aece3cbf7aaddc64c8d8da86cfbb650194a9d1",
    "learned-standard.csv":
        "1be8cd538d284e5487d312701303cc0d802a61e01bf107e809824ef9d7e9105b",
    "learned-standard.json":
        "f72b8e96c3ed646954dc8525399d1e6f99a0e6f4919c3640a757e57fb1187afb",
    "oracle-E2-short.csv":
        "f7346aa5abda6c7332c288a3279bb1a4632e9ec6499159d376c808f87ab69158",
    "oracle-E2-short.json":
        "8262c7ceac9df5a3e09ff5d5fd87d811e2d5c8ebbd0169b17381834b7e1a54aa",
    "oracle-E2.csv":
        "20757e594a104c5bbd76234ca39559efba70d8ac27c2e58e0e5c238130c0ce6c",
    "oracle-E2.json":
        "7d497f64a9b42e8fbdef136b0767e55c051e1996cbd0600a1303e998c71f5ea1",
    "oracle-E3.csv":
        "71804ccc9beb9e9355d4d0259710c586628161fa3e92241863d62caa0ad34c1e",
    "oracle-E3.json":
        "52599d72d627abebf4ee081102ef349b57cfdd3c957746c2dca8b542079a772f",
    "oracle-standard-short.csv":
        "717e583b36942ab3cfec3ac3756fe7a8320387b0a933fe6a8eb5a27412f8596b",
    "oracle-standard-short.json":
        "93e62895a0e053feb73a4359e87b698540a26f0b04f661814dceee63fd663403",
    "oracle-standard.csv":
        "66e40df74e18ffff913feb84f2e31dbe25854c9ad8eccefc99f9e219a274125e",
    "oracle-standard.json":
        "2c1f7d0666fcd04869877b70143ccdc50baf0f27b7c2e3cc459577c39cf910f4",
    "random-E2.csv":
        "4406049548535225f1915d9a616f87753866b387dbf75930d9fbbf78f7eb7a7a",
    "random-E2.json":
        "c6fee524a1f049171ad6eccfd0aece3cbf7aaddc64c8d8da86cfbb650194a9d1",
    "random-standard.csv":
        "1be8cd538d284e5487d312701303cc0d802a61e01bf107e809824ef9d7e9105b",
    "random-standard.json":
        "f72b8e96c3ed646954dc8525399d1e6f99a0e6f4919c3640a757e57fb1187afb",
}


def test_protocol_report_golden(cfg, tmp_path):
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    e3 = error_from_config(cfg, ErrorKind.E3_POSITION_OFFSET)
    actors = {
        "random": lambda s: RandomActor(s),
        "oracle": lambda s: OracleActor(),
        "learned": bench.policy_actor_factory(init_policy(cfg, seed=9)),
    }
    cells = {
        # Random and learned never grasp: the E2 trigger never fires.
        f"{actor}-{cond}": (actor, err, T_MAX)
        for actor in actors for cond, err in (("standard", None), ("E2", e2))
    }
    cells.update({
        # Short budget: s0 verified pure failure, s1-s2 verified recovery.
        "oracle-E2-short": ("oracle", e2, 30),
        # s0-s1 unverified (retagged Nominal), s2 verified recovery.
        "oracle-E3": ("oracle", e3, T_MAX),
        # Standard timeout truncation: s0, s2 fail at t_max + 1.
        "oracle-standard-short": ("oracle", None, 40),
    })
    got = {}
    for name, (actor, err, t_max) in cells.items():
        report = bench.run_protocol(cfg, actors[actor], "pick-place", err, [0, 1, 2], t_max)
        paths = bench.write_report(report, tmp_path, name)
        got[f"{name}.csv"] = _sha(paths["csv"])
        got[f"{name}.json"] = _sha(paths["json"])
    _assert_golden(got, REPORT_GOLDEN)


# max_nominal_duration of the first 8 expert episodes of each two-object task.
MULTI_T_MAX = {"stack-two": 90, "bimanual-handover": 96}

# Reports of the two-object tasks under every condition: the oracle grasps,
# hands over and recovers, and its trials end at different ticks; the random
# actor wanders past both objects.  The short cells cut the oracle's trials
# at the timeout, and mid-window under E2.
MULTI_REPORT_GOLDEN = {
    "bimanual-handover-oracle-E1.csv":
        "a05ace494db0247964d044c55247dcb124535734344fc68f58864ec0235336e2",
    "bimanual-handover-oracle-E1.json":
        "7cc87181fa86250a7308bb487e4cae9cb6eda97d93db23f9e560a86cc782568c",
    "bimanual-handover-oracle-E2-short.csv":
        "474bf9ef304f1e3d7272fb277ffe268428a7b0383d1b0b91eb2860625681f3de",
    "bimanual-handover-oracle-E2-short.json":
        "6a8ceb331316c63a2f6f599f1d92fd3ec32b59540d5f31d4eeba22eadc238744",
    "bimanual-handover-oracle-E2.csv":
        "c64463225819138465d129971f1a0153d486c0863fe9718b973d028ed79324a3",
    "bimanual-handover-oracle-E2.json":
        "f0ab72167bafcdd9184d230b174791613a061cc3de748113b90bd5385caaa3b6",
    "bimanual-handover-oracle-E3.csv":
        "5dc1b45f117e1e0e966e8c428f344879c374b516711c1634b4142c417a7f3321",
    "bimanual-handover-oracle-E3.json":
        "6252a51aee314d64f154cd87aa5f0b3f71cb80cc247cf488bd98a35d430d4ffb",
    "bimanual-handover-oracle-E4.csv":
        "12d8e133531d2ac128b404c69146757ece63a854ed791caa11f0f606120116a0",
    "bimanual-handover-oracle-E4.json":
        "a80a41aac846185bec02404be7c04d73961dace126fdd3573b5d3cb19b851e13",
    "bimanual-handover-oracle-standard-short.csv":
        "021bb13353a108e553d08ec6888c3cf58eee310f789e648a95f6d5cd37e63e0c",
    "bimanual-handover-oracle-standard-short.json":
        "51fbe71539242d198e10dd3444940ca00430c0942c1978ec10c18aac7b8ba08c",
    "bimanual-handover-oracle-standard.csv":
        "c7cf33e601a873325fc904625cd5bf21e2984f2ef4a3f7c1c577dd61aa1c0fa6",
    "bimanual-handover-oracle-standard.json":
        "e4d2b0cde6dba9b7da9895bbdac52d7014d23e37e3e6f03c0fcd308b991f551b",
    "bimanual-handover-random-E1.csv":
        "88a462560e7360276127d6fbf64a4e5636ad078f0fd8d43cbcdec029daaf74ea",
    "bimanual-handover-random-E1.json":
        "d006504a48384621a369076f5dc63ba66bf2062fbf16dc58171b24cf06b400c3",
    "bimanual-handover-random-E2.csv":
        "c339a5e250aee372cb484e70249c2cde819e848d61ae8bf05e25a15e849463b5",
    "bimanual-handover-random-E2.json":
        "b506f62826255309da431680e6ee889dc1825a51cd1dc4c186ce670b426f1e85",
    "bimanual-handover-random-E3.csv":
        "b914358d5a1b10b2a21985a80d1a53df85e75e5abfcdf65e6f559431baf8f4f2",
    "bimanual-handover-random-E3.json":
        "877b2a492086602953326078e4d2e4d42adcd135753a0fcc8f8a1043e845673a",
    "bimanual-handover-random-E4.csv":
        "6a8e50accb75c6523f13847c2d2245e440e26b59ecdabda4fe736c0cd7f945aa",
    "bimanual-handover-random-E4.json":
        "6b38ce57a2660ebfce533e9fe0af2c7902a7ffa0f58722940829bcfabf03c023",
    "bimanual-handover-random-standard.csv":
        "65cb27b62b63e5324a675e0cf3a529ad4cc5d6fed97d6e042fbaa78dc962aefd",
    "bimanual-handover-random-standard.json":
        "cf6d806e99945809e8092126b24a913c00007604c8a3389541fce25a2fea2791",
    "stack-two-oracle-E1.csv":
        "a0b3592995be5abf3401cf8dd54fe67bf49efe660d9bae45078269835866ee9d",
    "stack-two-oracle-E1.json":
        "80a46243664c33be69a48a6997d1f7afadaa658596c85c36481b842bd00bc698",
    "stack-two-oracle-E2-short.csv":
        "78e988cbd2b0b4980c6fdd3d639f6e9c018c6ceee90ae2a673f877603d9c5d03",
    "stack-two-oracle-E2-short.json":
        "14c399d8ec5dfd99eb03a1365b22a3a22807a425f7c8d09bcd6505de7497d40a",
    "stack-two-oracle-E2.csv":
        "a7828093f481fa74e350ba861da9b9ce666173fae91d55c35242c7be8ea96c14",
    "stack-two-oracle-E2.json":
        "df16b1ddc2d16f2c8612c3e41f9667ea717c5bd2dd35b16603f368207802ef71",
    "stack-two-oracle-E3.csv":
        "f0db16c985676c7411b3fbcc8286765d9d4c06e931db8e93605dc1521d297cd0",
    "stack-two-oracle-E3.json":
        "7d7e8c63c23956ab21b8157489ffbdd1e103e1b1c97e9ef8128daa19be4e412a",
    "stack-two-oracle-E4.csv":
        "66be41b101cb509990fc8cc26a4e4d62c31e9bf15b2d85bf0b1b8ed3a3e4a403",
    "stack-two-oracle-E4.json":
        "7efd696bd1bb63ab54587af3fe458ebafe871462b046eedaae774901cd24ba29",
    "stack-two-oracle-standard-short.csv":
        "8e997a981daab49feb9a87f081f6fd0178d637a338341a8a7964f9bd65f57084",
    "stack-two-oracle-standard-short.json":
        "7a1643642e98b85f9d2acb23136edd0e9d78120a52f9add36e689de766787a43",
    "stack-two-oracle-standard.csv":
        "5ccd0d9b091f3e842eac56aa4cd458fcedc4295755adb3f62191f5ffa0dbd63c",
    "stack-two-oracle-standard.json":
        "e625377e28ea1c4e63cce8b5fc053eb4adcb92f57123486198d3571d424bf535",
    "stack-two-random-E1.csv":
        "d7ce9e902b8cf3e9db2ab8c30c75047ee3d064abc9f59b7196bde28b89e80af4",
    "stack-two-random-E1.json":
        "52c39d7c33f56bd39ef1c532ee9de038046588a6fbcdf6cb91359e002254441a",
    "stack-two-random-E2.csv":
        "dc2d33b1bdd75542b36361371f921c960da311152535a1d5ce99ed448a20f3f4",
    "stack-two-random-E2.json":
        "f2df4e08fde312c8307c0b6f19dfb7bdf7bc6a2807f50a3369ca94726b626995",
    "stack-two-random-E3.csv":
        "e4ee422826408c68364249bfa9ddd7641ebf1a69ebe7191ea30eac99a3bc8c77",
    "stack-two-random-E3.json":
        "341b3e18c961fa54d49645451cc718ea7fa68d1605733e71543dbb12502420d1",
    "stack-two-random-E4.csv":
        "8b7cd848f7cce8c3b69452dde966ff75f63328a2e5b35ed9e93970d013a83295",
    "stack-two-random-E4.json":
        "ae31ee76efa822325e5b96232453b55e5be37d3bfa05caf828facd17113513c0",
    "stack-two-random-standard.csv":
        "c9ddc494f5269504cf57a0083f52511063d5231627d6c9682efb60e1ab5d9ee0",
    "stack-two-random-standard.json":
        "3560a510fa3eb018b374f258664b5063e360e4028d5ac9f1a00ba31db6ebdab0",
}


def test_multi_object_report_golden(cfg, tmp_path):
    actors = {"oracle": lambda s: OracleActor(), "random": lambda s: RandomActor(s)}
    conditions = (None,) + tuple(ErrorKind)
    got = {}
    for task, t_max in MULTI_T_MAX.items():
        cells = {f"{task}-{actor}-{cond.value if cond else 'standard'}": (actor, cond, t_max)
                 for actor in actors for cond in conditions}
        cells[f"{task}-oracle-standard-short"] = ("oracle", None, 40)
        cells[f"{task}-oracle-E2-short"] = ("oracle", ErrorKind.E2_GRASP_SLIP, 30)
        for name, (actor, cond, budget) in cells.items():
            err = error_from_config(cfg, cond) if cond else None
            report = bench.run_protocol(cfg, actors[actor], task, err, [0, 1, 2, 3], budget)
            paths = bench.write_report(report, tmp_path, name)
            got[f"{name}.csv"] = _sha(paths["csv"])
            got[f"{name}.json"] = _sha(paths["json"])
    _assert_golden(got, MULTI_REPORT_GOLDEN)


def _learned_lockstep_trials(cfg) -> dict[str, faults.Trial]:
    """Learned trials of three forward groups in one lockstep call: one
    untrained policy at v 1.0 and at v 0.0, and a second policy, interleaved
    with a planner trial.  Every trial gets its own ``t_max``, so trials end
    on different ticks and leave their groups one by one, from the middle of
    the trial order as well as from its ends."""
    first, second = init_policy(cfg, seed=9), init_policy(cfg, seed=10)
    groups = {"a": (first, 1.0), "b": (first, 0.0), "c": (second, 1.0)}
    e1 = error_from_config(cfg, ErrorKind.E1_PREMATURE_CLOSE)
    e3 = error_from_config(cfg, ErrorKind.E3_POSITION_OFFSET)
    rollout = {"generator": "rollout"}
    plan = [  # group, task, seed, t_max, error
        ("a", "pick-place", 0, 41, None), ("b", "pick-place", 1, 23, e3), ("c", "stack-two", 2, 57, e1),
        ("a", "stack-two", 3, 12, e1), ("b", "pick-place", 4, 66, None), ("a", "pick-place", 5, 30, e3),
        ("c", "pick-place", 6, 19, None), ("b", "stack-two", 7, 48, e1), ("a", "pick-place", 8, 71, None),
        ("c", "stack-two", 9, 35, e3),
    ]
    trials = {}
    for group, task, seed, t_max, error in plan:
        policy, v = groups[group]
        trigger = faults.InjectionSchedule(error, None, seed) if error is not None else None
        trials[f"{group}-{task}-s{seed}"] = faults.Trial(
            LearnedActor(policy, v_fixed=v), task, EnvMode.RANDOM, seed, f"eval-{group}", rollout, t_max, trigger)
        if seed == 4:
            trials["planner-pick-place-s4"] = faults.Trial(
                faults.PlannerActor(action_noise=0.02), "pick-place", EnvMode.RANDOM, 4, "nom", {})
    return trials


LEARNED_LOCKSTEP_GOLDEN = {
    "a-pick-place-s0":
        "849c2e008b324cf4b87360481aaeaf6cf37b6390a864a911490aaf9351eb60af",
    "b-pick-place-s1":
        "24980bf9b546261d13524a0a700f68ff13c6ec2665a5ecc44e7db75ace5f5b8e",
    "c-stack-two-s2":
        "5e5cac4f585f4659d097e307565098e113563ace06889f54adb8a2667b1748de",
    "a-stack-two-s3":
        "278d8980e4f890eeba127497261f17c622535112f36d8cc8abfb4d1fe677090d",
    "b-pick-place-s4":
        "cac33367a689d59a56e5f20eab0dec993309bda23042b58271c1528dc357382d",
    "planner-pick-place-s4":
        "2c5e577275e376028dbc08684fde9aac08c1fe647bbcae6d66018bdb530b8eca",
    "a-pick-place-s5":
        "1c867c57e748da3498df6b397a69d1d10e19d927d73f3d3be421a41dfe08f2cd",
    "c-pick-place-s6":
        "c8119a9fad4f14d3e7bf71c55655e5ace2ded4e239e6006029daf74be1c19423",
    "b-stack-two-s7":
        "6114237c8c3b46d2d82fa75782ecca86bdf58d9c0ffcd7392639f0ed602d817f",
    "a-pick-place-s8":
        "5896883d7264cc20720c3f66f6bc809dc0b3c7e459337d47656a5b161b52eb0a",
    "c-stack-two-s9":
        "77fc86e8e3f117820c20f413349a4f4364314a08c8d5bf50d80c87e52aeaa087",
}


def test_learned_lockstep_golden(cfg, tmp_path):
    names = list(_learned_lockstep_trials(cfg))
    together = dict(faults.run_episodes(cfg, list(_learned_lockstep_trials(cfg).values())))
    got = {name: _episode_digest(together[i], tmp_path / name) for i, name in enumerate(names)}
    _assert_golden(got, LEARNED_LOCKSTEP_GOLDEN)
    # Each forward group gives the episodes it gives in a lockstep run of its own.
    for group in "abc":
        trials = {name: trial for name, trial in _learned_lockstep_trials(cfg).items() if name[0] == group}
        alone = dict(faults.run_episodes(cfg, list(trials.values())))
        for j, name in enumerate(trials):
            assert episode_to_dict(alone[j]) == episode_to_dict(together[names.index(name)]), name


CHECKPOINT_DIR = Path(__file__).parents[1] / "perfbench" / "checkpoint"

# Reports of the committed trained pick-place policy, which grasps, slips and
# recovers, over 12 seeds clear of its training seeds.  Trial lengths differ,
# so a run of all 12 seeds loses trials one by one.
TRAINED_REPORT_GOLDEN = {
    "trained-E1.csv":
        "d9da637a870b47d97b883817c848616f240c21289af9f1741135940906a613e4",
    "trained-E1.json":
        "2d0654d8cf144439e5066609102d5c3023a54bb389ebd9bdfc01907dc959c9c6",
    "trained-E2.csv":
        "afac97054b24cf4ca5cfc3da84a916092e38b31071282995ae5e94580a9de490",
    "trained-E2.json":
        "8e96a0080d884eaebe2757558faa4b1641ac665a550c8798330c2205a6ce657c",
    "trained-E3.csv":
        "8b2f5d19d0329fbeb5a5d4984e1bbfb76f413e28c79327748682bb55866f5290",
    "trained-E3.json":
        "dc1cecfd77ff8f97eb57ba0ed9026527be28a7b844b3f6d3276e41604a27dd89",
    "trained-E4.csv":
        "6bc8d2e141e1331537554b0a4c15497c6c497cfa869f6476b84636ddd653dd08",
    "trained-E4.json":
        "c71ecace1a9c071184fff45347f20303d73c2cfe23b0bc06dbaccb0db82a73fb",
    "trained-standard.csv":
        "5f38f90c5d5fd21f2d709f3151261c679435dc84d9b3d1a8ee5778fe42193ca0",
    "trained-standard.json":
        "9cf2128858d33753b7b13b80c72605ec511e6b06f2c2e1a2c9e06f4242ffecb3",
}


def test_trained_policy_report_golden(cfg, tmp_path):
    policy = load_policy(CHECKPOINT_DIR / "pp_full.json")
    meta = json.loads((CHECKPOINT_DIR / "pp_full.meta.json").read_text())
    seeds = list(range(1_000_000, 1_000_012))
    got = {}
    for cond in (None,) + tuple(ErrorKind):
        name = f"trained-{cond.value if cond else 'standard'}"
        err = error_from_config(cfg, cond) if cond else None
        report = bench.run_protocol(cfg, bench.policy_actor_factory(policy), "pick-place", err, seeds,
                                    int(meta["t_max"]), training_seeds=set(meta["training_seeds"]))
        paths = bench.write_report(report, tmp_path, name)
        got[f"{name}.csv"] = _sha(paths["csv"])
        got[f"{name}.json"] = _sha(paths["json"])
    _assert_golden(got, TRAINED_REPORT_GOLDEN)


# Each array as the training batches read it: "hist" is every row's history
# window, gathered through FrameDataset.history.
DATASET_ARRAYS = ("hist", "obs", "instr", "actions", "values", "sample_pool")


def _array_digest(arr) -> str:
    head = f"{arr.dtype.str}{arr.shape}".encode()
    return hashlib.sha256(head + np.ascontiguousarray(arr).tobytes()).hexdigest()


def _task_episodes(cfg, task):
    """Noisy expert successes, verified recoveries and pure failures of one task."""
    noise = float(cfg.expert_action_noise)
    expert = [run_nominal(cfg, task, EnvMode.RANDOM, s, action_noise=noise) for s in range(3)]
    kinds = (ErrorKind.E1_PREMATURE_CLOSE, ErrorKind.E2_GRASP_SLIP, ErrorKind.E4_ORIENTATION_MISMATCH)
    intercepted = {
        recover: [run_interception(cfg, task, EnvMode.RANDOM, error_from_config(cfg, k), s, recover=recover)
                  for k in kinds for s in (0, 1)]
        for recover in (True, False)
    }
    return (
        [e for e in expert if e.outcome is Outcome.SUCCESS],
        [e for e in intercepted[True] if e.kind is EpisodeKind.FAILURE_RECOVERY],
        [e for e in intercepted[False] if e.kind is EpisodeKind.PURE_FAILURE],
    )


DATASET_GOLDEN = {
    "bimanual-handover/expert/actions":
        "caf1a521354efafcb167e6d4e649c8d614275142035cfc48dfd027a10140c9b3",
    "bimanual-handover/expert/hist":
        "909a795764b1476e2a7bc3335108e54f27c53fa451b66e2b846bab89c10bd43b",
    "bimanual-handover/expert/instr":
        "b6629a1849fa92bb14842c08b515c96b800c760b323b7f1ea425bf2e7d005779",
    "bimanual-handover/expert/obs":
        "fad03af8b1dedeaa9f8f7d124bc7f5acf1f3d71c8c0d37c0d16bd5a67a4f7f41",
    "bimanual-handover/expert/sample_pool":
        "4b7908a5803f3c5a804a99ec06c698ae30494a59255f733727074f3ec030a909",
    "bimanual-handover/expert/values":
        "ae1212c301d231a067c61ddf3b83f788a47d364bb96c3d3667a161e0117bad30",
    "bimanual-handover/labeled/actions":
        "cb81d72a03ae7230d32efe9cc12dbcdf6ea6cbaf2f49357c0ccd5027dcfafa26",
    "bimanual-handover/labeled/hist":
        "d9680056c5767af47d3b2ad3a9934641daebfb7fe87afd9075938284b512658d",
    "bimanual-handover/labeled/instr":
        "6701df022ba1cfeae691816a60b13f3387599f9228bdf38ee6778ae6866210fd",
    "bimanual-handover/labeled/obs":
        "0088e7ba8046bbbef4144c5b68ee416c3aba2d19c5367a75f53f9d300a1da430",
    "bimanual-handover/labeled/sample_pool":
        "048bd0b982abf6cdf0b40fd8491efef97b2842a6ec854610cc0b20934a5a4e2b",
    "bimanual-handover/labeled/values":
        "5a2343f4892181d4444c415976bc3758ab3f3bd3acb68f43288e4daa7cd0f4c1",
    "bimanual-handover/raw-recovery/actions":
        "6786c523946dfb9048a552b00ebebeedd0192ff4d09ccdfabb6d3390efefe18b",
    "bimanual-handover/raw-recovery/hist":
        "98bd85cb3827a42750139bd56cdeb4ee48b8813c15ded20848ddca8d2bcc2a41",
    "bimanual-handover/raw-recovery/instr":
        "9271364b73a57afbdb286596e40a31d8a8fc3e68a8787c05c7863f244d217652",
    "bimanual-handover/raw-recovery/obs":
        "2971f257d36fe13787974b9f64024cac4b0204f99c729f4116c1401fd025109e",
    "bimanual-handover/raw-recovery/sample_pool":
        "a68ea72397afc036a14368dc67945fd9cf46cf31890a4ebbe3164fb0a49824f7",
    "bimanual-handover/raw-recovery/values":
        "64045d280db53f0c7f10c68a36173644df10ea78714f398203cca2179d39633b",
    "bimanual-handover/sliced/actions":
        "0670b23855d7a88fb3e5fa29dc917722744fbdf6ecc97c284dfde2551380c185",
    "bimanual-handover/sliced/hist":
        "8ac4e9c797b993681a9f067c671f295f96b088331faaf6ea4f976f780cef79a0",
    "bimanual-handover/sliced/instr":
        "1c7dd7faded2a8784bdd8034bc0f69612efa6ef11062e569773a5bf48e28e7de",
    "bimanual-handover/sliced/obs":
        "339446220a925fec0873dd6c83d519fcab8d2ea2ac8b51be1697f2581ea92389",
    "bimanual-handover/sliced/sample_pool":
        "712a4a50e215210d1df2532fccaef4c8ad4286ea0b252dcf548f0e647c692ce0",
    "bimanual-handover/sliced/values":
        "331841f64f6b6d5a13b1dbde3c1ec5330446c7b7b2e2d6dedd4bd0ec0a6f3f5e",
    "pick-place/expert/actions":
        "2fe239ddcfbd9cdb5f3e9a1f115a0f907061c020ec4138fb40a77d67ffea23dd",
    "pick-place/expert/hist":
        "18990c38896ab639170e9f5b7807910e9fe5ce1a5e1dca0a9eee7be7683d376a",
    "pick-place/expert/instr":
        "6d087908ab49ff7e8097a9740c8dfdb8b9f0a51c4cbd3eac72f735289af2e2c2",
    "pick-place/expert/obs":
        "32b2775c7ada504d881c40dc53b6f9c5aac3172c5fceb6c2390d0d37f1583f5d",
    "pick-place/expert/sample_pool":
        "7eb35a4614f40bf35994009d8c379422f8568c17f8e117c93e4aa735abc4644c",
    "pick-place/expert/values":
        "e0ee8891747ff0aa7cea4fb074a50bf68ffddee26d8e20cd97d268a2174a802e",
    "pick-place/labeled/actions":
        "25539ae6a1ca2e5eed09b96fd23bbc70a43ce8e2f2c77cde3877368bd8dd787d",
    "pick-place/labeled/hist":
        "dfab7f9f7819cf50b0ea14e7d6d1f678d1669fe3cdc31fa52e180e14f28f43cc",
    "pick-place/labeled/instr":
        "43dd3a20080b2a8acc123f4b87981c5f2750ddcdcd22ece0a919583300d14792",
    "pick-place/labeled/obs":
        "90f3fec05e8826781306a3eb3766e0cb672fad0e587ee3da2d84a38dc7a3c10e",
    "pick-place/labeled/sample_pool":
        "dc927369ef3f30c98abd6628f4f919bfb4f231f256ca8af7b1adeb7a561bb477",
    "pick-place/labeled/values":
        "c0c434eff5387859fe172aa3420d65012fde6aad4c9e1eac912a7e89ddbccfb0",
    "pick-place/raw-recovery/actions":
        "9cd528978d2fefec46c142e96ac9d9fb6b658bbd01e2e4c7ca084e357b7691d6",
    "pick-place/raw-recovery/hist":
        "f1f105ab35e692d728ee91457056751782cb7d184430a8b595da3018510e2ee8",
    "pick-place/raw-recovery/instr":
        "b765f74a61b732c1db9927cb2fbce9cece0d7ce13239e8636649f6e5b412bf05",
    "pick-place/raw-recovery/obs":
        "5cd8ea524f773ec3a1c21cb958f51a969ab6545947fc9ab388882f58c8c54cc7",
    "pick-place/raw-recovery/sample_pool":
        "24c2bd3e8ba2322283205ab2523e34dab4ed3e50696c4d6e30baa85cab00aba1",
    "pick-place/raw-recovery/values":
        "eea7a2f4d7a3e425228f246ce86efaabc9487ada3f50e4cd9205cbd3c145e049",
    "pick-place/sliced/actions":
        "d91919aa67750d4677af9a32cd665ebdfefa44f61b7123cf34a3c2d0cbe3a890",
    "pick-place/sliced/hist":
        "3d0fa1d8593a10d3521772d03c791ce7c39d436047c28b5c8f34a9551fbd0960",
    "pick-place/sliced/instr":
        "e195aee6652b150f79029037694a6de363d998ade30da4d17da7e708a4309eec",
    "pick-place/sliced/obs":
        "545fa58a47dccfb4e0f0880deabeaee10e7398cf48f2651c009d75b8b32dd686",
    "pick-place/sliced/sample_pool":
        "5d8a3e565b155462aff114e7511faecf9646664a09bfd095be8e4febe14b4de5",
    "pick-place/sliced/values":
        "b9b30c6009b088c0cde0e75bd762755596a6753b31cf9c8bfa2653e6fec2ae3f",
    "stack-two/expert/actions":
        "baa9d13d1aa0057d5310fabd342036004da5bbd73c66e7385504cf894912c091",
    "stack-two/expert/hist":
        "ce974d540f3d576013b510d097e91c8d99663b1030ae24bdf055b090c61c562f",
    "stack-two/expert/instr":
        "a3f42bb0c36b9bb6c83169b433688147b166b5cf02176bc92e3a287f45d6dddc",
    "stack-two/expert/obs":
        "f17f38cef8499d9cf1dff020086366b7e50850e36ee2bf757482a1f7c7c990e6",
    "stack-two/expert/sample_pool":
        "064721f21973bd7185acabd83b11b99248dcf7b9eb9ecc4a5bb036a657752b44",
    "stack-two/expert/values":
        "7378653debfaa30979da51d216ae3fe84a34923b15d28a07cfd42f8a35f1a709",
    "stack-two/labeled/actions":
        "c60ad81d39fc66ec8e7905a8a3b8e938c92503be77de407a52db0b271460b32b",
    "stack-two/labeled/hist":
        "a540d145f5dfac02c63f35606831719be418eba909573f3583517d60c0a4619d",
    "stack-two/labeled/instr":
        "be4b786186220175b3bd18b891235472dd2d53e72edb1fc78245c48179937622",
    "stack-two/labeled/obs":
        "5e8c6575d4e2d4a22211e7fbb279264be3b6b1954feefe4b39b1879ca22628da",
    "stack-two/labeled/sample_pool":
        "82bc08e4a9e7a62dd340549c070d3302fe716ba69b4a01e34b2ecc2da60b2cc3",
    "stack-two/labeled/values":
        "68c489d72ad448d4e882f15d9d620cdffe27e3c21daf548945c3f9d8657aaed8",
    "stack-two/raw-recovery/actions":
        "52277c192b48c243af1cbcd29ad6b7d1547999411dc241faa3a9eb7be63c5b64",
    "stack-two/raw-recovery/hist":
        "3155802568ad7774abf1b8be0e32a1f2308710b793158f4d59ecd5b21e3e1ea0",
    "stack-two/raw-recovery/instr":
        "b52d16758199ab6caf87b8c5ae8981e486e84f6776afc34008d448ef0ca5b070",
    "stack-two/raw-recovery/obs":
        "797f811035878d5d4338dd74b6703ddc0dfa7986a450f15a4615f8da67c4fc9a",
    "stack-two/raw-recovery/sample_pool":
        "15b6724c7946165a0a6fa9ca0c5399abdadfab77bae2a29fa236f862ebb3616b",
    "stack-two/raw-recovery/values":
        "35b15c8f522b4f01ae2c777a2c054db3abce31aaddc538d550449e0340d032bb",
    "stack-two/sliced/actions":
        "600e6ac95dbd3abafbe221d34bb9d7facf69ce8312de58e445b713cd617e52dd",
    "stack-two/sliced/hist":
        "034c655ce4ed90601a5ec74256efe1951c18e15bc1b0ead6b778e10565ae2b14",
    "stack-two/sliced/instr":
        "59d346ace4c1849610a6251fae480d188685f04ce1c88abaecbd523ce8d5fb32",
    "stack-two/sliced/obs":
        "7617d99664bfd91caa0aeefd7636b65a9d394deb94770f1e64bb6aa9dd98d87c",
    "stack-two/sliced/sample_pool":
        "9796ed7f26b6802c86645a9e20c2a2af1c7da5c6d864eb5d75c0ba6a593665dd",
    "stack-two/sliced/values":
        "6ee1450de38f506dd548293c64b4cabb6f8355887cd91bdf48570aa871b6b687",
}


def test_frame_dataset_golden(cfg):
    # Pure failures get a fixed progress value, so no digest depends on training.
    got = {}
    for task in TASKS:
        expert, recovery, failure = _task_episodes(cfg, task)
        assert expert and recovery and failure, task
        labeled = ([label_success(e) for e in expert] + [label_recovery(e) for e in recovery]
                   + [label_failure(e, 0.6, cfg) for e in failure])
        sets = {
            "expert": build_frame_dataset(cfg, expert),
            "sliced": build_frame_dataset(cfg, [slice_recovery_suffix(e) for e in recovery]),
            "raw-recovery": build_frame_dataset(cfg, recovery),
            "labeled": build_frame_dataset(cfg, labeled, require_labels=True),
        }
        for name, ds in sets.items():
            arrays = {a: ds.history(np.arange(len(ds)))[0] if a == "hist" else getattr(ds, a) for a in DATASET_ARRAYS}
            got.update({f"{task}/{name}/{a}": _array_digest(arrays[a]) for a in DATASET_ARRAYS})
    _assert_golden(got, DATASET_GOLDEN)


# Checkpoint files: untrained models with hand-set normalizer, cluster and
# provenance, so no digest depends on training or matrix products.
CHECKPOINT_GOLDEN = {
    "policy.json":
        "625c451e11f57be8505353474bf551192f799c2e453374b81c4486f43d2c430c",
    "pp_full.json":
        "843f0022e57e46d45077ae6ffa8068247e33e64fae27ac58f4edec5766f45886",
    "value.json":
        "b2dc324539c2759fd4b58233afeedb259b24dbd67e9c4985a9bfafd51f8d7151",
}


def test_checkpoint_golden(cfg, tmp_path):
    noise = float(cfg.expert_action_noise)
    expert = [run_nominal(cfg, "pick-place", EnvMode.RANDOM, s, action_noise=noise) for s in range(3)]
    policy = init_policy(cfg, seed=9)
    fit_normalizer(policy, build_frame_dataset(cfg, expert))
    policy.provenance.update(phase="imitation", training_seeds=[0, 1, 2])
    committed = Path(__file__).parents[1] / "perfbench" / "checkpoint" / "pp_full.json"
    cluster = ReferenceCluster(members={0: np.arange(64.0).reshape(2, 32) / 64.0, 2: np.full((1, 32), 0.125)})
    got = {
        "policy.json": _sha(save_policy(policy, tmp_path / "policy.json")),
        "pp_full.json": _sha(save_policy(load_policy(committed), tmp_path / "pp_full.json")),
        "value.json": _sha(save_progress_model(init_progress_model(cfg, seed=0), tmp_path / "value.json",
                                               cluster=cluster, provenance={"episodes": 2, "seed": 0})),
    }
    _assert_golden(got, CHECKPOINT_GOLDEN)


def _params_digest(params) -> str:
    h = hashlib.sha256()
    for k in sorted(params):
        h.update(k.encode())
        h.update(np.ascontiguousarray(params[k]).tobytes())
    return h.hexdigest()


def training_digests() -> dict[str, str]:
    """Parameter digests after 40 steps of each training loop on the
    conftest-sized pick-place data: imitation with the recovery term at
    lambda = 0.5, refinement of a clone of that policy on labeled data, and
    alignment of the progress model's adapters."""
    from recoverylab.config import load_config
    from recoverylab.policy import train_bc, train_value_conditioned
    from recoverylab.value import train_alignment

    cfg = load_config().with_overrides(bc_steps=40, refine_steps=40, align_steps=40, lambda_recovery=0.5)
    noise = float(cfg.expert_action_noise)
    expert = [e for e in (run_nominal(cfg, "pick-place", EnvMode.RANDOM, s, action_noise=noise) for s in range(24))
              if e.outcome is Outcome.SUCCESS]
    e2 = error_from_config(cfg, ErrorKind.E2_GRASP_SLIP)
    recovery = [e for e in (run_interception(cfg, "pick-place", EnvMode.RANDOM, e2, 1000 + s) for s in range(12))
                if e.kind is EpisodeKind.FAILURE_RECOVERY]
    failure = [e for e in (run_interception(cfg, "pick-place", EnvMode.RANDOM, e2, 2000 + s, recover=False)
                           for s in range(6)) if e.kind is EpisodeKind.PURE_FAILURE]
    phase1 = init_policy(cfg, seed=3)
    train_bc(phase1, build_frame_dataset(cfg, expert),
             build_frame_dataset(cfg, [slice_recovery_suffix(e) for e in recovery]), cfg, seed=4)
    refined = phase1.clone()
    labeled = ([label_success(e) for e in expert] + [label_recovery(e) for e in recovery]
               + [label_failure(e, 0.4, cfg) for e in failure])
    train_value_conditioned(refined, build_frame_dataset(cfg, labeled, require_labels=True), cfg, seed=5)
    model = init_progress_model(cfg, seed=6)
    train_alignment(model, expert, cfg, seed=7)
    return {"bc": _params_digest(phase1.params), "vcr": _params_digest(refined.params),
            "align": _params_digest(model.params)}


# Trained weights, bit for bit.  Several threads may split a BLAS product
# differently, so the runs go in a child process with one BLAS thread.
TRAINING_GOLDEN = {
    "align":
        "53a8fcffd059878732dd34a502a17eded97ca38e681f2b452c80b36cf9744205",
    "bc":
        "5da9e5d9621d1d726022bf2bd3ed7e2942e9ed84966b5bbcecea9c71c76e55ae",
    "vcr":
        "e37deeb8824776aaf82745c47c41b3578941df5ac2ce72f122bd8bf7c5afa6a0",
}


def test_training_golden():
    import recoverylab

    root = Path(__file__).parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(recoverylab.__file__).parents[1]), env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    code = "import json; from tests.test_golden import training_digests; print(json.dumps(training_digests()))"
    out = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    _assert_golden(json.loads(out.stdout), TRAINING_GOLDEN)


def suite_digests(tmp_path, monkeypatch, capsys) -> dict[str, str]:
    """Run ``scaling``, each ``ablate`` and ``train-rai`` through ``cli.main``
    at 20 steps per training stage.  Digests each table and checkpoint,
    train-rai's printed losses, and the weights and ``v_fixed`` of every
    policy the suites hand to ``run_protocol``, in call order."""
    from recoverylab.cli import main

    config = tmp_path / "nano.cfg"
    config.write_text("bc_steps = 20\nrefine_steps = 20\nalign_steps = 20\n")
    evaluated: list[str] = []
    run_protocol = bench.run_protocol

    def spy(cfg, actor_factory, *args, **kwargs):
        actor = actor_factory(0)
        pol = actor.policy
        digest = _params_digest({**pol.params, "obs_mean": pol.obs_mean, "obs_std": pol.obs_std})
        evaluated.append(f"{digest} v={actor.v_fixed!r}")
        return run_protocol(cfg, actor_factory, *args, **kwargs)

    monkeypatch.setattr(bench, "run_protocol", spy)
    common = ["--config", str(config), "--expert-n", "6", "--failures-n", "2", "--trials", "4"]
    suites = {"scaling": ["scaling", *common, "--rec-base", "1"]}
    suites.update({f"ablate-{which}": ["ablate", "--which", which, *common, "--rec-base", "2"]
                   for which in ("history-reset", "value-guidance", "alpha")})
    got = {}
    for name, argv in suites.items():
        evaluated.clear()
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        (table,) = out.glob("*.csv")
        got[f"{name}.csv"] = _sha(table)
        got.update({f"{name}/eval{i}": d for i, d in enumerate(evaluated)})

    expert, recovery = tmp_path / "expert", tmp_path / "recovery"
    assert main(["gen-nominal", "--config", str(config), "--n", "6", "--out", str(expert)]) == 0
    assert main(["gen-recovery", "--config", str(config), "--error", "E2", "--n", "4", "--seed", "1000",
                 "--out", str(recovery)]) == 0
    for name, extra in (("rai", []), ("rai-noreset", ["--no-history-reset"])):
        checkpoint = tmp_path / f"{name}.json"
        capsys.readouterr()
        assert main(["train-rai", "--config", str(config), "--expert", str(expert), "--recovery", str(recovery),
                     "--out", str(checkpoint), *extra]) == 0
        printed = json.loads(capsys.readouterr().out)
        got[f"{name}.json"] = _sha(checkpoint)
        got[f"{name}.losses"] = f"{printed['initial_loss']!r} {printed['final_loss']!r}"
    return got


# Nano-scale suite tables are mostly zeros, so the weights are the real check.
SUITE_GOLDEN = {
    "ablate-alpha.csv":
        "9f19b30c69f249f6671032d443172115b00b84a7bdc3e6154ecf24cc9f3d7108",
    "ablate-alpha/eval0":
        "15ff5a534e3a2ff0f669ccc92ac87148b0c2a5d6220c5ea8521ebcb8a0613045 v=1.0",
    "ablate-alpha/eval1":
        "45d60c705103e2c8588329c0517fa51ffe903cb485989ce7b4ef88dc1d69256d v=1.0",
    "ablate-alpha/eval2":
        "598ad9c9a3e5b9c191f3840bd0378be8ddcbbaa3f526da265f8ef81d78e2ae32 v=1.0",
    "ablate-history-reset.csv":
        "9a13fba3e29593e90e348c441565e2fd13e8b96f2f7a521e9845274534d1a570",
    "ablate-history-reset/eval0":
        "c4d2960a60afd59346603261dc9da8e369a92a7a5b9e26acc62de4f566ff9ce9 v=1.0",
    "ablate-history-reset/eval1":
        "7e37a7cc3943bc392bed4eb8d971b4693f9c2bf7b4cff8d4d995e420a43b783f v=1.0",
    "ablate-value-guidance.csv":
        "e8c70c5a64dab6ac588c60a433eacd1418ee60fe6587fe758947413f006ecbad",
    "ablate-value-guidance/eval0":
        "45d60c705103e2c8588329c0517fa51ffe903cb485989ce7b4ef88dc1d69256d v=1.0",
    "ablate-value-guidance/eval1":
        "45d60c705103e2c8588329c0517fa51ffe903cb485989ce7b4ef88dc1d69256d v=0.0",
    "rai-noreset.json":
        "8a8dabbb178ef3e064d4dbb64a3235cd40f9d2c336aa5f52fb2be1ba4f201aa2",
    "rai-noreset.losses":
        "263.72263909711404 60.67119610313755",
    "rai.json":
        "1d89a665d2fccfb5a8d97474e3dee534b10779d680de6cd19608fdc0a4bea0d1",
    "rai.losses":
        "266.5648946227659 63.51262643395114",
    "scaling.csv":
        "3d2e6dab9bc68c353840b3bb3f84b60d83f010e00d6147df2d05db0b17603ee8",
    "scaling/eval0":
        "e0589526fd2f79a8049d57f0303e3503b7ff24a6016ef8f1b923b65b26772ee2 v=1.0",
    "scaling/eval1":
        "e0589526fd2f79a8049d57f0303e3503b7ff24a6016ef8f1b923b65b26772ee2 v=1.0",
    "scaling/eval2":
        "e1f64852f83e12fd2fcaa54672868690da0e3fabfc07b7ed20339a39a6b1cb38 v=1.0",
    "scaling/eval3":
        "e1f64852f83e12fd2fcaa54672868690da0e3fabfc07b7ed20339a39a6b1cb38 v=1.0",
    "scaling/eval4":
        "42156e52758ff84cc3ac46fd187fe38fcbc5b4324e366a2945e2507cc9fe194c v=1.0",
    "scaling/eval5":
        "42156e52758ff84cc3ac46fd187fe38fcbc5b4324e366a2945e2507cc9fe194c v=1.0",
    "scaling/eval6":
        "cb92196f4678085859c6f689c4c6d00fa0424703c732379e24087bd05537bbc4 v=1.0",
    "scaling/eval7":
        "cb92196f4678085859c6f689c4c6d00fa0424703c732379e24087bd05537bbc4 v=1.0",
    "scaling/eval8":
        "4b51224ae5a35c275e234aa54a3754204331ca75699599f33a23aa75e045dd5f v=1.0",
    "scaling/eval9":
        "4b51224ae5a35c275e234aa54a3754204331ca75699599f33a23aa75e045dd5f v=1.0",
}


def test_suite_golden(tmp_path, monkeypatch, capsys):
    _assert_golden(suite_digests(tmp_path, monkeypatch, capsys), SUITE_GOLDEN)
