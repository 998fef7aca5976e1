"""Episode data model, on-disk format, suffix slicing, and history windows.

One JSON file per episode plus a manifest per dataset directory.  Floats are
serialized at 9 significant digits, which round-trips 32-bit precision and
keeps re-serialization byte-stable.  The manifest is updated via atomic
rename so concurrent readers never observe a torn write.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import StorageError, ValidationError
from .world import ArmAction, BimanualAction, EnvMode, Observation, Pose2D

SCHEMA_VERSION = 1
MANIFEST_NAME = "manifest.json"
FLOAT_SIGFIGS = 9


class PhaseTag(Enum):
    NOMINAL = "Nominal"
    ERROR = "Error"
    RECOVERY = "Recovery"


class Outcome(Enum):
    SUCCESS = "Success"
    FAILURE = "Failure"


class EpisodeKind(Enum):
    NOMINAL_SUCCESS = "NominalSuccess"
    FAILURE_RECOVERY = "FailureRecovery"
    PURE_FAILURE = "PureFailure"


@dataclass(frozen=True)
class Frame:
    t: int
    obs: Observation
    action: BimanualAction
    phase: PhaseTag
    v: float | None = None


@dataclass(frozen=True)
class Episode:
    episode_id: str
    task_id: str
    instruction_id: int
    env_mode: EnvMode
    seed: int
    error_type: str | None
    t_rec: int | None
    outcome: Outcome
    kind: EpisodeKind
    frames: tuple[Frame, ...]
    provenance: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.frames)


def tag_pattern_valid(tags: list[PhaseTag], sliced: bool = False) -> bool:
    """Accepts Nominal*, Nominal* Error+, or Nominal* Error+ Recovery+ Nominal*.

    Sliced recovery suffixes (history reset at index 0) are Recovery+ Nominal*.
    """
    text = "".join({PhaseTag.NOMINAL: "N", PhaseTag.ERROR: "E", PhaseTag.RECOVERY: "R"}[t] for t in tags)
    if sliced:
        return re.fullmatch(r"R+N*", text) is not None
    return re.fullmatch(r"N*|N*E+|N*E+R+N*", text) is not None


def validate_episode(episode: Episode) -> None:
    """Raise ValidationError when a structural invariant is broken."""
    if not episode.frames:
        raise ValidationError(f"{episode.episode_id}: episode has no frames")
    for i, frame in enumerate(episode.frames):
        if frame.t != i:
            raise ValidationError(f"{episode.episode_id}: frame {i} carries t={frame.t}")
        if frame.v is not None and not (0.0 <= frame.v <= 1.0):
            raise ValidationError(f"{episode.episode_id}: frame {i} label v={frame.v} outside [0, 1]")
    has_t_rec = episode.t_rec is not None
    if (episode.kind is EpisodeKind.FAILURE_RECOVERY) != has_t_rec:
        raise ValidationError(
            f"{episode.episode_id}: kind={episode.kind.value} inconsistent with t_rec={episode.t_rec}"
        )
    tags = [f.phase for f in episode.frames]
    sliced = episode.provenance.get("history_reset_at") == 0
    if episode.kind is EpisodeKind.NOMINAL_SUCCESS:
        if episode.outcome is not Outcome.SUCCESS or any(t is not PhaseTag.NOMINAL for t in tags):
            raise ValidationError(f"{episode.episode_id}: NominalSuccess must be all-Nominal and successful")
    if not tag_pattern_valid(tags, sliced=sliced):
        raise ValidationError(f"{episode.episode_id}: phase tags violate the episode grammar")
    if has_t_rec:
        first_rec = next((i for i, t in enumerate(tags) if t is PhaseTag.RECOVERY), None)
        if first_rec != episode.t_rec:
            raise ValidationError(
                f"{episode.episode_id}: t_rec={episode.t_rec} but first Recovery frame is {first_rec}"
            )


# ---------------------------------------------------------------------------
# serialization


def _round_float(x: float) -> float:
    if not math.isfinite(x):
        raise ValidationError(f"non-finite value {x!r} in episode payload")
    return float(f"{x:.{FLOAT_SIGFIGS}g}")


def _round_tree(node):
    if isinstance(node, float):
        return _round_float(node)
    if isinstance(node, dict):
        return {k: _round_tree(v) for k, v in node.items()}
    if isinstance(node, (list, tuple)):
        return [_round_tree(v) for v in node]
    return node


def _pose_to_dict(p: Pose2D) -> dict:
    return {"x": p.x, "y": p.y, "theta": p.theta}


def _arm_to_dict(a: ArmAction) -> dict:
    d = _pose_to_dict(a.target)
    d["grip"] = a.grip
    return d


def episode_to_dict(episode: Episode) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "episode_id": episode.episode_id,
        "task_id": episode.task_id,
        "instruction_id": episode.instruction_id,
        "env_mode": episode.env_mode.value,
        "seed": episode.seed,
        "error_type": episode.error_type,
        "t_rec": episode.t_rec,
        "outcome": episode.outcome.value,
        "kind": episode.kind.value,
        "frames": [
            {
                "t": f.t,
                "obs": {
                    "proprio": list(f.obs.proprio),
                    "object_feats": list(f.obs.object_feats),
                    "instruction_id": f.obs.instruction_id,
                },
                "action": {
                    "left": _arm_to_dict(f.action.left),
                    "right": _arm_to_dict(f.action.right),
                },
                "phase": f.phase.value,
                "v": f.v,
            }
            for f in episode.frames
        ],
        "provenance": episode.provenance,
    }


def episode_from_dict(data: dict, source: str = "<memory>") -> Episode:
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise StorageError(f"{source}: unsupported schema_version {version!r}")
        def arm(d):
            return ArmAction(target=Pose2D(d["x"], d["y"], d["theta"]), grip=d["grip"])

        frames = []
        for fd in data["frames"]:
            obs = Observation(
                proprio=tuple(float(x) for x in fd["obs"]["proprio"]),
                object_feats=tuple(float(x) for x in fd["obs"]["object_feats"]),
                instruction_id=int(fd["obs"]["instruction_id"]),
            )
            frames.append(
                Frame(
                    t=int(fd["t"]),
                    obs=obs,
                    action=BimanualAction(left=arm(fd["action"]["left"]), right=arm(fd["action"]["right"])),
                    phase=PhaseTag(fd["phase"]),
                    v=None if fd["v"] is None else float(fd["v"]),
                )
            )
        episode = Episode(
            episode_id=data["episode_id"],
            task_id=data["task_id"],
            instruction_id=int(data["instruction_id"]),
            env_mode=EnvMode(data["env_mode"]),
            seed=int(data["seed"]),
            error_type=data["error_type"],
            t_rec=None if data["t_rec"] is None else int(data["t_rec"]),
            outcome=Outcome(data["outcome"]),
            kind=EpisodeKind(data["kind"]),
            frames=tuple(frames),
            provenance=dict(data.get("provenance", {})),
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise StorageError(f"{source}: malformed episode payload: {exc!r}") from exc
    validate_episode(episode)
    return episode


def _dumps(payload: dict) -> str:
    return json.dumps(_round_tree(payload), indent=1, sort_keys=True) + "\n"


def _load_manifest(dataset_dir: Path) -> dict:
    path = dataset_dir / MANIFEST_NAME
    if not path.exists():
        return {"schema_version": SCHEMA_VERSION, "episodes": []}
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: corrupt manifest at offset {exc.pos}") from exc
    if manifest.get("schema_version") != SCHEMA_VERSION:
        raise StorageError(f"{path}: unsupported manifest schema_version")
    return manifest


def _write_manifest(dataset_dir: Path, manifest: dict) -> None:
    manifest["episodes"].sort(key=lambda e: e["file"])
    tmp = dataset_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(_dumps(manifest))
    os.replace(tmp, dataset_dir / MANIFEST_NAME)


def write_episode(episode: Episode, dataset_dir: str | Path) -> Path:
    """Serialize one episode and record it in the dataset manifest."""
    validate_episode(episode)
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise StorageError(f"dataset directory does not exist: {dataset_dir}")
    text = _dumps(episode_to_dict(episode))
    path = dataset_dir / f"{episode.episode_id}.json"
    try:
        path.write_text(text)
    except OSError as exc:
        raise StorageError(f"failed to write {path}: {exc}") from exc
    manifest = _load_manifest(dataset_dir)
    entry = {
        "file": path.name,
        "episode_id": episode.episode_id,
        "kind": episode.kind.value,
        "task_id": episode.task_id,
        "env_mode": episode.env_mode.value,
        "error_type": episode.error_type,
        "seed": episode.seed,
        "n_frames": len(episode.frames),
        "outcome": episode.outcome.value,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }
    manifest["episodes"] = [e for e in manifest["episodes"] if e["file"] != path.name] + [entry]
    _write_manifest(dataset_dir, manifest)
    return path


def _read_episode(path: Path, sha256: str | None) -> Episode:
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    if sha256 is not None and hashlib.sha256(raw).hexdigest() != sha256:
        raise StorageError(f"{path}: contents do not match the sha256 in the manifest")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: parse error at offset {exc.pos}: {exc.msg}") from exc
    return episode_from_dict(data, source=str(path))


def read_episode(path: str | Path) -> Episode:
    return _read_episode(Path(path), None)


def read_dataset(dataset_dir: str | Path) -> list[Episode]:
    """All episodes listed in the manifest, in manifest order, each checked
    against the sha256 its manifest entry recorded."""
    dataset_dir = Path(dataset_dir)
    manifest = _load_manifest(dataset_dir)
    return [_read_episode(dataset_dir / e["file"], e.get("sha256", "")) for e in manifest["episodes"]]


# ---------------------------------------------------------------------------
# suffix slicing and history windows


def slice_recovery_suffix(episode: Episode) -> Episode:
    """Extract the corrective suffix of a recovery episode.

    Returns a new episode holding exactly frames[t_rec:] re-indexed from 0,
    marked ``history_reset_at: 0``, so history windows pad instead of
    reaching back into the failure.  Frame content (obs, action) is preserved
    verbatim; the original episode is untouched.
    """
    if episode.kind is not EpisodeKind.FAILURE_RECOVERY or episode.t_rec is None:
        raise ValidationError(
            f"{episode.episode_id}: can only slice FailureRecovery episodes with t_rec"
        )
    start = episode.t_rec
    frames = tuple(replace(f, t=i) for i, f in enumerate(episode.frames[start:]))
    provenance = dict(episode.provenance)
    provenance.update(
        {
            "kind_detail": "ResetRecovery",
            "history_reset_at": 0,
            "sliced_from": episode.episode_id,
            "t_rec_original": start,
        }
    )
    sliced = replace(
        episode,
        episode_id=episode.episode_id + "-reset",
        t_rec=0,
        frames=frames,
        provenance=provenance,
    )
    validate_episode(sliced)
    return sliced


def obs_matrix(frames: tuple[Frame, ...] | list[Frame]) -> np.ndarray:
    """(T, obs_dim) matrix of the frames' observation vectors."""
    return np.stack([f.obs.as_vector() for f in frames])


def history_rows(n_frames: int, w: int) -> np.ndarray:
    """(n_frames, w) rows of frame 0..n_frames-1's history windows in a buffer
    of ``w`` zero rows, then frame 0, 1, ...: row k of frame t's window is
    frame t-1-k, and rows before frame 0 read the zero padding."""
    return np.arange(n_frames)[:, None] + np.arange(w - 1, -1, -1)


def history_windows(obs: np.ndarray, w: int) -> np.ndarray:
    """Flattened (T, w * obs_dim) history windows of every frame of an episode.

    Windows never reach before frame 0, so a sliced recovery suffix (which
    starts at frame 0) sees none of the failure that preceded it.
    """
    buffer = np.concatenate([np.zeros((w, obs.shape[1])), obs])
    return buffer.take(history_rows(len(obs), w), axis=0).reshape(len(obs), w * obs.shape[1])


# ---------------------------------------------------------------------------
# dataset statistics


@dataclass(frozen=True)
class StatsReport:
    total: int
    by_kind: dict
    by_task: dict
    by_env_mode: dict
    by_error_type: dict

    def table(self) -> str:
        lines = [
            f"{'Category':28s} {'Count':>7s}",
            f"{'Total episodes':28s} {self.total:>7d}",
        ]
        for label, group in (
            ("kind", self.by_kind),
            ("task", self.by_task),
            ("env_mode", self.by_env_mode),
            ("error", self.by_error_type),
        ):
            for key in sorted(group):
                lines.append(f"{label + ': ' + str(key):28s} {group[key]:>7d}")
        return "\n".join(lines)


def dataset_stats(dataset_dir: str | Path) -> StatsReport:
    """Counts by kind/task/mode/error, cross-checked against the files."""
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise StorageError(f"dataset directory does not exist: {dataset_dir}")
    manifest = _load_manifest(dataset_dir)
    files_on_disk = {p.name for p in dataset_dir.glob("*.json")} - {MANIFEST_NAME}
    files_in_manifest = {e["file"] for e in manifest["episodes"]}
    if files_on_disk != files_in_manifest:
        missing = files_in_manifest - files_on_disk
        extra = files_on_disk - files_in_manifest
        raise StorageError(
            f"{dataset_dir}: manifest/file mismatch (missing={sorted(missing)}, extra={sorted(extra)})"
        )
    by_kind: dict = {}
    by_task: dict = {}
    by_mode: dict = {}
    by_error: dict = {}
    for e in manifest["episodes"]:
        by_kind[e["kind"]] = by_kind.get(e["kind"], 0) + 1
        by_task[e["task_id"]] = by_task.get(e["task_id"], 0) + 1
        by_mode[e["env_mode"]] = by_mode.get(e["env_mode"], 0) + 1
        if e["error_type"] is not None:
            by_error[e["error_type"]] = by_error.get(e["error_type"], 0) + 1
    return StatsReport(
        total=len(manifest["episodes"]),
        by_kind=by_kind,
        by_task=by_task,
        by_env_mode=by_mode,
        by_error_type=by_error,
    )
