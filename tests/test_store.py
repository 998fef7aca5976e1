import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from recoverylab import store
from recoverylab.cli import main as cli_main
from recoverylab.errors import StorageError, ValidationError
from recoverylab.store import (
    Episode,
    EpisodeKind,
    Frames,
    Outcome,
    PhaseTag,
    dataset_stats,
    episode_to_dict,
    episode_from_dict,
    history_windows,
    read_dataset,
    read_episode,
    slice_recovery_suffix,
    tag_pattern_valid,
    write_episode,
    write_episodes,
)
from recoverylab.value import save_progress_model
from recoverylab.world import EnvMode

N, E, R = PhaseTag.NOMINAL, PhaseTag.ERROR, PhaseTag.RECOVERY


def make_action(t: float) -> tuple[float, ...]:
    arm = (0.1 + 0.001 * t, 0.2, 0.05, min(1.0, 0.01 * t))
    return arm + arm


def episode_fields(tags, kind=EpisodeKind.FAILURE_RECOVERY, t_rec="auto", provenance=None, v=None) -> dict:
    """The ``Episode`` arguments of a small test episode with phase ``tags``."""
    t = np.arange(len(tags), dtype=float)[:, None]
    frames = Frames(
        obs=np.hstack([(t + np.arange(8)) * 0.01, (t - np.arange(14)) * 0.01]),
        actions=[make_action(i) for i in range(len(tags))],
        phase=[tag.value for tag in tags],
        v=np.full(len(tags), np.nan if v is None else v),
    )
    if t_rec == "auto":
        t_rec = next((i for i, tag in enumerate(tags) if tag is R), None)
    return dict(
        episode_id="ep-test-000001",
        task_id="pick-place",
        instruction_id=0,
        env_mode=EnvMode.RANDOM,
        seed=1,
        error_type="E2",
        t_rec=t_rec,
        kind=kind,
        frames=frames,
        provenance=provenance or {},
    )


def make_episode(tags, **kwargs) -> Episode:
    return Episode(**episode_fields(tags, **kwargs))


def unchecked(fields: dict) -> Episode:
    """An ``Episode`` of ``fields`` built without its checks, standing for
    what a tampered file or a writer that skipped them would hold."""
    episode = object.__new__(Episode)
    for name, value in fields.items():
        object.__setattr__(episode, name, value)
    return episode


def recovery_tags(n_nom=4, n_err=3, n_rec=5, n_tail=2):
    return [N] * n_nom + [E] * n_err + [R] * n_rec + [N] * n_tail


# ---------------------------------------------------------------------------
# round trips and validation


def test_write_read_round_trip(cfg, tmp_path, recovery_episodes):
    episode = recovery_episodes[0]
    path = write_episode(episode, tmp_path)
    loaded = read_episode(path)
    assert loaded.episode_id == episode.episode_id
    assert loaded.kind == episode.kind
    assert loaded.t_rec == episode.t_rec
    assert len(loaded.frames) == len(episode.frames)
    assert np.array_equal(loaded.frames.phase, episode.frames.phase)
    assert np.allclose(loaded.frames.obs, episode.frames.obs, atol=1e-7)


def test_reserialization_byte_stable(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    first = path.read_bytes()
    again = write_episode(read_episode(path), tmp_path)
    assert again.read_bytes() == first


def test_frames_are_read_only_copies():
    obs = np.zeros((2, 22))
    frames = Frames(obs=obs, actions=np.zeros((2, 8)), phase=["Nominal", "Nominal"], v=[math.nan, 0.5])
    obs[0, 0] = 1.0
    assert frames.obs[0, 0] == 0.0
    for name in ("obs", "actions", "phase", "v"):
        column = getattr(frames, name)
        with pytest.raises(ValueError):
            column[0] = column[1]


def test_invariant_t_rec_kind_mismatch():
    with pytest.raises(ValidationError):
        make_episode(recovery_tags(), kind=EpisodeKind.PURE_FAILURE)  # t_rec set


def test_invariant_nominal_success_all_nominal():
    with pytest.raises(ValidationError):
        make_episode([N, N, E], kind=EpisodeKind.NOMINAL_SUCCESS, t_rec=None)


def test_invariant_t_rec_points_at_first_recovery():
    with pytest.raises(ValidationError):
        make_episode(recovery_tags(), t_rec=2)


def test_invariant_label_range():
    with pytest.raises(ValidationError):
        make_episode(recovery_tags(), v=1.5)


def test_outcome_follows_kind():
    assert [kind.outcome for kind in EpisodeKind] == [Outcome.SUCCESS, Outcome.SUCCESS, Outcome.FAILURE]
    assert make_episode([N, E], kind=EpisodeKind.PURE_FAILURE).outcome is Outcome.FAILURE


def test_tag_grammar():
    def valid(tags, sliced=False):
        return tag_pattern_valid([tag.value for tag in tags], sliced=sliced)

    assert valid([N, N, N])
    assert valid([N, E, E])
    assert valid([N, E, R, R, N])
    assert valid([E, R])
    assert not valid([N, E, N])        # error must be contiguous to recovery
    assert not valid([R, N])           # recovery needs an error prefix
    assert not valid([N, R])
    assert not valid([N, E, R, E])     # recovery is contiguous
    assert valid([R, R, N], sliced=True)
    assert not valid([N, R], sliced=True)
    # Every tag must be a PhaseTag value, not just share its initial.
    assert not tag_pattern_valid(["Nominal", "Nonsense"])
    assert not tag_pattern_valid(["Ready", "Nominal"], sliced=True)


def test_unknown_phase_tag_is_not_written(tmp_path, expert_episodes, recovery_episodes):
    good, episode = expert_episodes[0], recovery_episodes[0]
    phase = episode.frames.phase.tolist()
    assert phase[2] == "Nominal"
    phase[2] = "Nonsense"
    write_episode(good, tmp_path)
    with pytest.raises(ValidationError, match="grammar"):
        write_episode(replace(episode, frames=replace(episode.frames, phase=phase)), tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"{good.episode_id}.json", store.MANIFEST_NAME])
    assert _manifest_files(tmp_path) == [f"{good.episode_id}.json"]


def test_truncated_file_reports_offset(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    data = path.read_text()
    path.write_text(data[: len(data) // 2])
    with pytest.raises(StorageError, match="offset"):
        read_episode(path)


def test_unknown_schema_version(tmp_path, recovery_episodes):
    path = write_episode(recovery_episodes[0], tmp_path)
    payload = json.loads(path.read_text())
    payload["schema_version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(StorageError, match="schema_version"):
        read_episode(path)


def test_manifest_counts(tmp_path, recovery_episodes, expert_episodes):
    for ep in expert_episodes[:5] + recovery_episodes[:3]:
        write_episode(ep, tmp_path)
    stats = dataset_stats(tmp_path)
    assert stats.total == 8
    assert stats.by_kind["NominalSuccess"] == 5
    assert stats.by_kind["FailureRecovery"] == 3
    assert stats.by_error_type == {"E2": 3}


def test_manifest_file_mismatch(tmp_path, expert_episodes):
    path = write_episode(expert_episodes[0], tmp_path)
    path.unlink()
    with pytest.raises(StorageError, match="mismatch"):
        dataset_stats(tmp_path)


def test_read_dataset_rejects_tampered_episode(tmp_path, expert_episodes):
    # One changed digit keeps the JSON valid and the episode loadable, but
    # the file no longer matches the sha256 its manifest entry recorded.
    write_episode(expert_episodes[0], tmp_path)
    path = write_episode(expert_episodes[1], tmp_path)
    text = path.read_text()
    m = re.search(r'"x": -?0\.\d\d(\d)', text)
    digit = str((int(m.group(1)) + 1) % 10)
    path.write_text(text[: m.start(1)] + digit + text[m.end(1):])
    read_episode(path)  # still a valid episode on its own
    with pytest.raises(StorageError, match="sha256"):
        read_dataset(tmp_path)


# Each edit leaves the JSON valid and the episode's tags, labels and kind intact.
MALFORMED_FRAMES = {
    "nan-observation": lambda f: f["obs"]["object_feats"].__setitem__(2, math.nan),
    "seven-proprio-values": lambda f: f["obs"]["object_feats"].insert(0, f["obs"]["proprio"].pop()),
    "other-instruction": lambda f: f["obs"].update(instruction_id=f["obs"]["instruction_id"] + 1),
    "nan-action": lambda f: f["action"]["left"].update(x=math.nan),
    "grip-above-one": lambda f: f["action"]["right"].update(grip=1.7),
    "grip-below-zero": lambda f: f["action"]["left"].update(grip=-0.2),
    "theta-above-pi": lambda f: f["action"]["left"].update(theta=7.0),
    "theta-at-minus-pi": lambda f: f["action"]["right"].update(theta=-math.pi),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_FRAMES))
def test_read_episode_rejects_malformed_frame(tmp_path, expert_episodes, case):
    path = write_episode(expert_episodes[0], tmp_path)
    payload = json.loads(path.read_text())
    MALFORMED_FRAMES[case](payload["frames"][3])
    path.write_text(json.dumps(payload))
    with pytest.raises(StorageError):
        read_episode(path)


# make_episode arguments, a (column, frame, index, value) cell edit or None,
# and payload entries to overwrite; each breaks one invariant.  An outcome
# that disagrees with the kind exists only on disk, since Episode derives it.
REFUSED = {
    "recovery-with-failure-outcome": (dict(tags=recovery_tags()), None, {"outcome": "Failure"}),
    "failure-with-success-outcome": (dict(tags=[N, E, E], kind=EpisodeKind.PURE_FAILURE), None,
                                     {"outcome": "Success"}),
    "failure-with-recovery-frames": (dict(tags=recovery_tags(), kind=EpisodeKind.PURE_FAILURE, t_rec=None),
                                     None, {}),
    "nominal-with-error-frame": (dict(tags=[N, N, E], kind=EpisodeKind.NOMINAL_SUCCESS), None, {}),
    "t-rec-off-first-recovery": (dict(tags=recovery_tags(), t_rec=2), None, {}),
    "t-rec-without-recovery-frames": (dict(tags=[N, E, E], t_rec=-1), None, {}),
    "label-above-one": (dict(tags=recovery_tags(), v=1.5), None, {}),
    "non-finite-observation": (dict(tags=recovery_tags()), ("obs", 3, 9, math.inf), {}),
    "theta-outside-pi": (dict(tags=recovery_tags()), ("actions", 2, 2, 4.0), {}),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_invalid_episode_is_refused_when_built_and_when_loaded(case):
    kwargs, cell, entries = REFUSED[case]
    fields = episode_fields(**kwargs)
    if cell is not None:
        column, t, index, value = cell
        values = getattr(fields["frames"], column).copy()
        values[t, index] = value
        fields["frames"] = replace(fields["frames"], **{column: values})
    if not entries:
        with pytest.raises(ValidationError):
            Episode(**fields)
    payload = {**episode_to_dict(unchecked(fields)), **entries}
    with pytest.raises(StorageError):
        episode_from_dict(payload)


def test_each_episode_is_checked_once(tmp_path, monkeypatch):
    # Generation builds each written episode once, and the build is its only
    # check; a load checks each episode's action rows once.  The nominal run
    # keeps its failures, so every episode it builds is written.
    calls = {"check_verdict": 0, "_action_error": 0}
    for name in calls:
        def counted(*args, _original=getattr(store, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(store, name, counted)
    for args, out in ((["gen-nominal", "--keep-failures", "--n", "4"], "nominal"),
                      (["gen-recovery", "--error", "E2", "--n", "2"], "rec")):
        calls["check_verdict"] = 0
        assert cli_main(args + ["--out", str(tmp_path / out)]) == 0
        written = len(_manifest_files(tmp_path / out))
        assert calls["check_verdict"] == written == int(args[-1]), out
        calls["_action_error"] = 0
        assert len(read_dataset(tmp_path / out)) == written
        assert calls["_action_error"] == written, out


@pytest.mark.parametrize("slot, value", [
    (0, math.inf), (5, math.nan),       # x, y not finite
    (2, 4.0), (6, -math.pi),            # theta outside (-pi, pi]
    (3, 1.5), (7, -0.1),                # grip outside [0, 1]
])
def test_validate_episode_rejects_invalid_action(slot, value):
    # An episode with such an action row cannot be built.
    episode = make_episode(recovery_tags())
    actions = episode.frames.actions.copy()
    actions[2, slot] = value
    with pytest.raises(ValidationError, match="frame 2 action"):
        replace(episode, frames=replace(episode.frames, actions=actions))


def test_failed_write_keeps_previous_bytes(cfg, tmp_path, expert_episodes, monkeypatch):
    # When the rename fails, the file written before keeps its bytes.
    from recoverylab.policy import init_policy, save_policy
    from recoverylab.value import init_progress_model, save_progress_model

    episode, policy, model = expert_episodes[0], init_policy(cfg), init_progress_model(cfg)

    def write(name, note):
        if name == "episode":
            return write_episode(replace(episode, provenance={"note": note}), tmp_path)
        if name == "policy":
            return save_policy(replace(policy, provenance={"note": note}), tmp_path / "policy.json")
        return save_progress_model(model, tmp_path / "value.json", provenance={"note": note})

    def refuse(src, dst):
        raise OSError("no space left on device")

    for name in ("episode", "policy", "progress-model"):
        path = write(name, 1)
        before = path.read_bytes()
        with monkeypatch.context() as patch:
            patch.setattr(os, "replace", refuse)
            with pytest.raises(StorageError):
                write(name, 2)
        assert path.read_bytes() == before, name
        assert not list(tmp_path.glob("*.tmp")), name


@pytest.mark.parametrize("tamper, match", [
    (lambda m: m.pop("episodes"), "episodes must be a list"),
    (lambda m: m.update(episodes={"file": "a.json"}), "episodes must be a list"),
    (lambda m: m["episodes"].append("a.json"), "entry 1 must be an object"),
    (lambda m: m["episodes"][0].pop("file"), "entry 0 must name a bare file"),
    (lambda m: m["episodes"][0].update(file="../a.json"), "entry 0 must name a bare file"),
    (lambda m: m["episodes"][0].update(sha256=None), "entry 0 must hold a sha256 string"),
], ids=["no-episodes", "episodes-not-a-list", "entry-not-an-object", "entry-without-file", "file-with-a-path",
        "sha256-not-a-string"])
def test_malformed_manifest_raises_storage_error(tmp_path, expert_episodes, tamper, match):
    write_episode(expert_episodes[0], tmp_path)
    path = tmp_path / store.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    tamper(manifest)
    path.write_text(json.dumps(manifest))
    for call in (read_dataset, dataset_stats, lambda d: write_episode(expert_episodes[1], d)):
        with pytest.raises(StorageError, match=match):
            call(tmp_path)


def test_stats_reports_a_malformed_manifest(tmp_path, expert_episodes, capsys):
    write_episode(expert_episodes[0], tmp_path)
    path = tmp_path / store.MANIFEST_NAME
    path.write_text(json.dumps({**json.loads(path.read_text()), "episodes": [{"sha256": ""}]}))
    assert cli_main(["stats", "--data", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "StorageError" and "must name a bare file" in error["message"]


_DELETED = object()


@pytest.mark.parametrize("key, value", [
    ("kind", _DELETED), ("task_id", _DELETED), ("env_mode", _DELETED), ("error_type", _DELETED),
    ("kind", 3), ("task_id", None), ("env_mode", ["RANDOM"]), ("error_type", 2),
], ids=["no-kind", "no-task", "no-env-mode", "no-error-type", "kind-int", "task-null", "env-mode-list",
        "error-type-int"])
def test_stats_reports_a_malformed_entry(tmp_path, expert_episodes, capsys, key, value):
    # dataset_stats counts these fields of every entry: a missing or
    # mistyped one is named, not a KeyError or a count under a bad key.
    write_episodes(expert_episodes[:2], tmp_path)
    path = tmp_path / store.MANIFEST_NAME
    manifest = json.loads(path.read_text())
    if value is _DELETED:
        del manifest["episodes"][1][key]
    else:
        manifest["episodes"][1][key] = value
    path.write_text(json.dumps(manifest))
    with pytest.raises(StorageError, match=f"entry 1 must hold an? {key} string"):
        dataset_stats(tmp_path)
    assert cli_main(["stats", "--data", str(tmp_path)]) == 1
    error = json.loads(capsys.readouterr().err)
    assert error["error"] == "StorageError" and "entry 1 must hold" in error["message"]


def test_empty_dataset_stats(tmp_path):
    stats = dataset_stats(tmp_path)
    assert stats.total == 0
    assert stats.by_kind == {}


def test_read_dataset_rejects_a_missing_directory(tmp_path):
    assert read_dataset(tmp_path) == []  # an existing empty directory reads as empty
    with pytest.raises(StorageError, match="does not exist"):
        read_dataset(tmp_path / "typo")


def test_label_rejects_a_missing_dataset(tmp_path, capsys, progress_model, reference_cluster):
    # A mistyped --data path fails before any labeled dataset is written.
    value = save_progress_model(progress_model, tmp_path / "value.json", cluster=reference_cluster)
    missing, out = tmp_path / "typo", tmp_path / "labeled"
    assert cli_main(["label", "--data", str(missing), "--value", str(value), "--out", str(out)]) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "StorageError" and str(missing) in error["message"]
    assert not out.exists()


def test_manifest_tracks_many_writes(tmp_path, expert_episodes):
    episode = expert_episodes[0]
    for i in range(100):
        write_episode(replace(episode, episode_id=f"copy-{i:03d}", seed=10_000 + i), tmp_path)
    stats = dataset_stats(tmp_path)
    assert stats.total == 100
    assert len(list(tmp_path.glob("copy-*.json"))) == 100


def _copies(episode, n, start=0):
    for i in range(start, start + n):
        yield replace(episode, episode_id=f"copy-{i:03d}", seed=10_000 + i)


def _manifest_files(dataset_dir) -> list[str]:
    return [e["file"] for e in json.loads((dataset_dir / store.MANIFEST_NAME).read_text())["episodes"]]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("batch", [False, True])
def test_non_finite_observation_is_not_written(tmp_path, expert_episodes, value, batch):
    good, episode = expert_episodes[0], expert_episodes[1]
    obs = episode.frames.obs.copy()
    obs[3, 9] = value
    write_episode(good, tmp_path)
    with pytest.raises(ValidationError, match="non-finite"):
        bad = replace(episode, frames=replace(episode.frames, obs=obs))
        if batch:
            write_episodes([bad], tmp_path)
        else:
            write_episode(bad, tmp_path)
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([f"{good.episode_id}.json", store.MANIFEST_NAME])
    assert _manifest_files(tmp_path) == [f"{good.episode_id}.json"]


def test_write_episodes_writes_the_manifest_once(tmp_path, expert_episodes, monkeypatch):
    writes = []
    write_atomic = store.write_atomic

    def counting(path, text):
        writes.append(path.name)
        write_atomic(path, text)

    monkeypatch.setattr(store, "write_atomic", counting)
    paths = write_episodes(_copies(expert_episodes[0], 5), tmp_path)
    assert writes.count(store.MANIFEST_NAME) == 1 and len(writes) == 6
    assert [p.name for p in paths] == _manifest_files(tmp_path)


def test_write_episodes_merges_into_the_manifest_like_single_writes(tmp_path, expert_episodes):
    # Entries of the same file are replaced, the rest kept, all sorted by file.
    single, batch = tmp_path / "single", tmp_path / "batch"
    single.mkdir()
    batch.mkdir()
    for d in (single, batch):
        write_episodes(_copies(expert_episodes[0], 3, start=2), d)
    for episode in _copies(expert_episodes[1], 4):
        write_episode(episode, single)
    write_episodes(_copies(expert_episodes[1], 4), batch)
    assert (single / store.MANIFEST_NAME).read_bytes() == (batch / store.MANIFEST_NAME).read_bytes()
    assert len(_manifest_files(batch)) == 5


def test_held_lock_refuses_a_second_writer(tmp_path, expert_episodes):
    write_episode(expert_episodes[0], tmp_path)
    before = (tmp_path / store.MANIFEST_NAME).read_bytes()
    lock = tmp_path / store.LOCK_NAME
    lock.touch()
    with pytest.raises(StorageError, match=re.escape(str(lock))):
        write_episodes([expert_episodes[1]], tmp_path)
    assert (tmp_path / store.MANIFEST_NAME).read_bytes() == before
    assert not (tmp_path / f"{expert_episodes[1].episode_id}.json").exists()
    assert lock.exists()  # the lock belongs to the other writer


def test_lock_is_removed_after_a_batch_and_after_a_raise(tmp_path, expert_episodes):
    lock = tmp_path / store.LOCK_NAME
    assert not lock.name.endswith(".json")
    write_episodes(_copies(expert_episodes[0], 2), tmp_path)
    assert not lock.exists()
    with pytest.raises(ValidationError):  # raised by the episode built while the lock is held
        write_episodes((make_episode(recovery_tags(), t_rec=2) for _ in range(1)), tmp_path)
    assert not lock.exists()


def test_batch_that_raises_lists_the_files_already_written(tmp_path, expert_episodes):
    def three_then_fail():
        yield from _copies(expert_episodes[0], 3)
        raise RuntimeError("generator failed")

    with pytest.raises(RuntimeError, match="generator failed"):
        write_episodes(three_then_fail(), tmp_path)
    assert _manifest_files(tmp_path) == ["copy-000.json", "copy-001.json", "copy-002.json"]
    assert dataset_stats(tmp_path).total == 3
    assert [e.episode_id for e in read_dataset(tmp_path)] == ["copy-000", "copy-001", "copy-002"]
    assert not (tmp_path / store.LOCK_NAME).exists()


# ---------------------------------------------------------------------------
# slicing


def test_slice_preserves_content():
    tags = recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3)
    episode = make_episode(tags)
    sliced = slice_recovery_suffix(episode)
    start = episode.t_rec
    assert len(sliced.frames) == len(episode.frames) - start
    for name in ("obs", "actions", "v"):
        assert np.array_equal(getattr(sliced.frames, name), getattr(episode.frames, name)[start:], equal_nan=True)
    assert np.array_equal(sliced.frames.phase, episode.frames.phase[start:])
    assert sliced.provenance["history_reset_at"] == 0
    assert sliced.provenance["kind_detail"] == "ResetRecovery"
    assert sliced.t_rec == 0
    # original untouched
    assert len(episode.frames) == len(tags) and episode.t_rec == start


def test_slice_t_rec_zero_boundary():
    episode = make_episode([R, R, N], provenance={"history_reset_at": 0})
    episode = replace(episode, t_rec=0)
    sliced = slice_recovery_suffix(episode)
    assert len(sliced.frames) == len(episode.frames)


def test_slice_rejects_pure_failure():
    episode = make_episode([N, E, E], kind=EpisodeKind.PURE_FAILURE, t_rec=None)
    with pytest.raises(ValidationError):
        slice_recovery_suffix(episode)


# ---------------------------------------------------------------------------
# history windows


def windows(episode, w):
    """(T, w, obs_dim) history windows of every frame."""
    return history_windows(episode.frames.obs, w).reshape(len(episode.frames), w, -1)


def valid_rows(window) -> int:
    return int(np.count_nonzero(np.any(window != 0.0, axis=1)))


def test_history_start_all_padding():
    episode = make_episode(recovery_tags())
    for ep in (episode, slice_recovery_suffix(episode)):
        window = windows(ep, 5)[0]
        assert valid_rows(window) == 0
        assert np.all(window == 0.0)


def test_history_window_arithmetic():
    episode = make_episode(recovery_tags(n_nom=10, n_err=3, n_rec=5, n_tail=2))
    w = 5
    t = w + 5
    flat = history_windows(episode.frames.obs, w)
    assert flat.shape == (len(episode.frames), w * episode.frames.obs.shape[1])
    window = windows(episode, w)[t]
    assert valid_rows(window) == w
    for k in range(w):
        assert np.allclose(window[k], episode.frames.obs[t - 1 - k])


def test_history_reset_marker_pads(cfg):
    episode = make_episode(recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3))
    sliced = slice_recovery_suffix(episode)
    window = windows(sliced, 5)[2]
    assert valid_rows(window) == 2
    # nothing before the slice leaks in
    pre_slice = {tuple(obs) for obs in episode.frames.obs[: episode.t_rec]}
    for k in range(2):
        assert tuple(window[k]) not in pre_slice


def test_history_raw_reaches_into_failure_prefix():
    episode = make_episode(recovery_tags(n_nom=6, n_err=4, n_rec=7, n_tail=3))
    t = episode.t_rec + 2  # within W of the error segment
    window = windows(episode, 5)[t]
    error_obs = {tuple(obs) for obs in episode.frames.obs[episode.frames.phase == E.value]}
    assert any(tuple(row) in error_obs for row in window[: valid_rows(window)])


def test_float_formatting_nine_significant_digits(tmp_path, expert_episodes):
    path = write_episode(expert_episodes[0], tmp_path)
    payload = json.loads(path.read_text())
    x = payload["frames"][3]["obs"]["proprio"][0]
    assert float(f"{x:.9g}") == x
    # round trip through the 9-digit format is the identity on stored values
    assert episode_from_dict(payload).frames.obs[3, 0] == x


def test_episode_to_dict_schema_fields(expert_episodes):
    data = episode_to_dict(expert_episodes[0])
    expected = {
        "schema_version", "episode_id", "task_id", "instruction_id", "env_mode",
        "seed", "error_type", "t_rec", "outcome", "kind", "frames", "provenance",
    }
    assert set(data.keys()) == expected
    assert set(data["frames"][0].keys()) == {"t", "obs", "action", "phase", "v"}
