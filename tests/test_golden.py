"""Golden determinism net: sha256 of the bytes that ``write_episode`` and
``write_report`` produce for fixed configs and seeds.

The digests pin episode JSON and eval reports across refactors of the episode
loops.  Each case names the finalisation branch its seed was chosen to reach.
Branches that default geometry never reaches in a given loop are forced with
a config override (or, for a failing recovery planner, a patched planner)
and say so.  The learned actor is an untrained ``init_policy(cfg, seed=9)``,
so no digest depends on training or BLAS summation order.
"""

import hashlib

from recoverylab import bench, datagen, faults
from recoverylab.errors import UnrecoverableState
from recoverylab.faults import ErrorKind, error_from_config, run_interception, run_nominal
from recoverylab.policy import init_policy
from recoverylab.store import write_episode
from recoverylab.world import EnvMode

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


def _assert_golden(got: dict, want: dict) -> None:
    wrong = {k: got.get(k) for k in set(got) | set(want) if got.get(k) != want.get(k)}
    assert not wrong, f"digests changed: {sorted(wrong)}"


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
        # Phase stall after the window (a short stall limit).
        "pick-place-E2-rec-s0-stall": ({"phase_stall_limit": 12}, "pick-place",
                                       ErrorKind.E2_GRASP_SLIP, 0, None, True),
        "stack-two-E3-rec-s0-stall": ({"phase_stall_limit": 12}, "stack-two",
                                      ErrorKind.E3_POSITION_OFFSET, 0, None, True),
        # Idle-hold exhaustion: the recovery plan finishes without success.
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
        "37329c8a72e77de9e8a65415183af0652155d50b5fcd5a50fbbf41df5e07bef4",
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
        "9b74f34ed625312eb512e1d73da6dc1ddd92f9144e96799075550893749df1e6",
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
    for name, (overrides, task, kind, seed, t_max, recover) in _interception_cases().items():
        c = cfg.with_overrides(**overrides) if overrides else cfg
        episode = run_interception(c, task, EnvMode.RANDOM, error_from_config(c, kind), seed,
                                   t_max=t_max, recover=recover)
        got[name] = _episode_digest(episode, tmp_path / name)
    _assert_golden(got, INTERCEPTION_GOLDEN)


RECOVERY_FAILED_GOLDEN = {
    "E1":
        "b2ea89b7cba364a8500b928de32bd93992e049bac32f65c1be77fb6e53af1cae",
    "E2":
        "20b904948e2ac90ba7914792ec8b2726053eb0d9905c4aa7d109bc13f3ea7326",
}


def test_interception_recovery_failed_golden(cfg, tmp_path, monkeypatch):
    # Objects only move while carried, so no default adverse state defeats the
    # recovery planner; a refusing planner reaches the recovery_failed branch.
    def refuse(cfg_, task_id, state):
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
        "random": lambda s: bench.RandomActor(s),
        "oracle": lambda s: bench.OracleActor(),
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

