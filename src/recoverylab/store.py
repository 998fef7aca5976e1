"""Episode data model, on-disk format, suffix slicing, history windows, and
the one checkpoint envelope both models are saved in.

One JSON file per episode plus a manifest per dataset directory.  Floats are
serialized at 9 significant digits, which round-trips 32-bit precision and
keeps re-serialization byte-stable.  Episode files and the manifest are
written via atomic rename so readers never observe a torn write, and a batch
of episodes updates the manifest once, under a lock file.  In memory an
episode's frames are one table of columns (``Frames``); ``_frame_dict`` and
``episode_from_dict`` know the per-frame JSON layout, and the writer fills a
text template derived from ``_frame_dict``.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
from collections import Counter
from contextlib import suppress
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .config import Config
from .errors import ConfigError, StorageError, ValidationError
from .world import ACTION_DIM, ARM_NAMES, GRIP_DIMS, OBS_DIM, PROPRIO_DIM, THETA_DIMS, EnvMode

SCHEMA_VERSION = 1
CHECKPOINT_SCHEMA = 1
MANIFEST_NAME = "manifest.json"
# Beside the manifest while a writer holds the directory; not a *.json file.
LOCK_NAME = "manifest.lock"
FLOAT_SIGFIGS = 9
# On-disk keys of each arm's half of an action row.
ACTION_KEYS = ("x", "y", "theta", "grip")


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

    @property
    def outcome(self) -> Outcome:
        """Failure for a pure failure, Success for the other kinds."""
        return Outcome.FAILURE if self is EpisodeKind.PURE_FAILURE else Outcome.SUCCESS


@dataclass(frozen=True)
class Frames:
    """An episode's frames as read-only columns: ``obs`` (T, OBS_DIM), ``actions``
    (T, ACTION_DIM) action rows in the layout ``world`` defines (x, y, theta
    and grip of each arm, left arm first), ``phase`` (T,) ``PhaseTag`` values,
    and ``v`` (T,) value labels, NaN where a frame is unlabeled.  Columns given
    as read-only arrays of their dtype are shared, others copied and frozen."""

    obs: np.ndarray
    actions: np.ndarray
    phase: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name, dtype in (("obs", float), ("actions", float), ("phase", str), ("v", float)):
            column = getattr(self, name)
            if not (isinstance(column, np.ndarray) and not column.flags.writeable
                    and np.asarray(column, dtype=dtype) is column):
                column = np.array(column, dtype=dtype)
                column.flags.writeable = False
                object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.obs)


@dataclass(frozen=True)
class Episode:
    """One episode, checked when it is built (``dataclasses.replace`` too):
    columns of one length, finite observations, labels in [0, 1] or NaN, and
    action rows and a verdict that ``check_verdict`` accepts, under the
    sliced grammar when ``history_reset_at`` is 0.  Else ValidationError."""

    episode_id: str
    task_id: str
    instruction_id: int
    env_mode: EnvMode
    seed: int
    error_type: str | None
    t_rec: int | None
    kind: EpisodeKind
    frames: Frames
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        frames, name = self.frames, self.episode_id
        n = len(frames)
        shapes = {"obs": (n, OBS_DIM), "actions": (n, ACTION_DIM), "phase": (n,), "v": (n,)}
        for column, shape in shapes.items():
            if getattr(frames, column).shape != shape:
                raise ValidationError(f"{name}: {column} has shape {getattr(frames, column).shape}, expected {shape}")
        bad = np.flatnonzero(~np.isfinite(frames.obs).all(axis=1))
        if bad.size:
            raise ValidationError(f"{name}: frame {bad[0]} has a non-finite observation")
        bad = np.flatnonzero((frames.v < 0.0) | (frames.v > 1.0))  # NaN, unlabeled, compares False
        if bad.size:
            raise ValidationError(f"{name}: frame {bad[0]} label v={frames.v[bad[0]]} outside [0, 1]")
        check_verdict(name, frames.actions, frames.phase, self.kind, self.t_rec,
                      sliced=self.provenance.get("history_reset_at") == 0)

    @property
    def outcome(self) -> Outcome:
        return self.kind.outcome


# Each PhaseTag value's initial; any other tag reads "?", which no pattern matches.
_TAG_INITIALS = {tag.value: tag.value[0] for tag in PhaseTag}
_GRAMMAR = {False: re.compile(r"N*|N*E+|N*E+R+N*"), True: re.compile(r"R+N*")}


def _tag_text(phase) -> str:
    """The initials of a sequence of ``PhaseTag`` values, in one string."""
    tags = phase.tolist() if isinstance(phase, np.ndarray) else phase
    return "".join(map(_TAG_INITIALS.get, tags, repeat("?")))


def _action_error(actions: np.ndarray) -> str | None:
    """Why (T, ACTION_DIM) action rows are invalid, or None when every value
    is finite, every theta lies in (-pi, pi] and every grip in [0, 1].

    Each column's least and greatest value decide the common all-valid case
    (a NaN anywhere in a column makes both NaN); only when that fails are
    the rows searched for the first bad frame."""
    if len(actions):
        low, high = actions.min(axis=0).tolist(), actions.max(axis=0).tolist()
        if (all(map(math.isfinite, low + high)) and all(-math.pi < low[d] and high[d] <= math.pi for d in THETA_DIMS)
                and all(0.0 <= low[d] and high[d] <= 1.0 for d in GRIP_DIMS)):
            return None
    theta, grip = actions[:, THETA_DIMS], actions[:, GRIP_DIMS]
    in_range = (-math.pi < theta) & (theta <= math.pi) & (0.0 <= grip) & (grip <= 1.0)
    bad = np.flatnonzero(~(in_range.all(axis=1) & np.isfinite(actions).all(axis=1)))
    if bad.size == 0:
        return None
    return (f"frame {bad[0]} action {actions[bad[0]].tolist()} is not finite "
            "or has a theta outside (-pi, pi] or a grip outside [0, 1]")


def check_verdict(name: str, actions: np.ndarray, phase, kind: EpisodeKind, t_rec: int | None,
                  sliced: bool = False) -> None:
    """The checks ``Episode`` makes of its (T, ACTION_DIM) action rows and
    its verdict: T ``PhaseTag`` values ``phase``, the kind and ``t_rec``,
    which only a FailureRecovery episode has and which is its first Recovery
    frame.  ValidationError names the episode ``name``."""
    text = _tag_text(phase)
    if not text:
        raise ValidationError(f"{name}: episode has no frames")
    action_error = _action_error(actions)
    if action_error is not None:
        raise ValidationError(f"{name}: {action_error}")
    if (kind is EpisodeKind.FAILURE_RECOVERY) != (t_rec is not None):
        raise ValidationError(f"{name}: kind={kind.value} inconsistent with t_rec={t_rec}")
    if kind is EpisodeKind.NOMINAL_SUCCESS and text.strip("N"):
        raise ValidationError(f"{name}: NominalSuccess must be all-Nominal")
    if _GRAMMAR[sliced].fullmatch(text) is None:
        raise ValidationError(f"{name}: phase tags violate the episode grammar")
    first = text.index("R") if "R" in text else None
    if first != t_rec:
        raise ValidationError(f"{name}: {kind.value} with t_rec={t_rec} but first Recovery frame is {first}")


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


def _frame_dict(t, obs, action, phase, v, instruction_id) -> dict:
    """One frame in its on-disk layout; ``v`` is None when unlabeled."""
    return {
        "t": t,
        "obs": {"proprio": obs[:PROPRIO_DIM], "object_feats": obs[PROPRIO_DIM:], "instruction_id": instruction_id},
        "action": {"left": dict(zip(ACTION_KEYS, action[:4])), "right": dict(zip(ACTION_KEYS, action[4:]))},
        "phase": phase,
        "v": v,
    }


def _payload(episode: Episode, frames: list) -> dict:
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
        "frames": frames,
        "provenance": episode.provenance,
    }


def episode_to_dict(episode: Episode) -> dict:
    f = episode.frames
    return _payload(episode, [
        _frame_dict(t, obs, action, phase, None if math.isnan(v) else v, episode.instruction_id)
        for t, (obs, action, phase, v) in enumerate(
            zip(f.obs.tolist(), f.actions.tolist(), f.phase.tolist(), f.v.tolist())
        )
    ])


_ARM_ACTIONS = itemgetter(*ARM_NAMES)
_ACTION_VALUES = itemgetter(*ACTION_KEYS)


def _frames_from_dicts(rows: list, instruction_id: int) -> Frames:
    """Columns of the on-disk frames; raises ValueError where a frame's layout
    is amiss.  The ``Episode`` built from them checks their values."""
    for t, fd in enumerate(rows):
        obs = fd["obs"]
        if (fd["t"] != t or obs["instruction_id"] != instruction_id or len(obs["proprio"]) != PROPRIO_DIM
                or len(obs["object_feats"]) != OBS_DIM - PROPRIO_DIM):
            raise ValueError(f"frame {t} has t={fd['t']}, instruction_id={obs['instruction_id']}, "
                             f"{len(obs['proprio'])} proprio and {len(obs['object_feats'])} object values")
        if fd["v"] is not None and math.isnan(fd["v"]):
            raise ValueError(f"frame {t} has a NaN label")
    return Frames(
        obs=[fd["obs"]["proprio"] + fd["obs"]["object_feats"] for fd in rows],
        actions=[[v for arm in _ARM_ACTIONS(fd["action"]) for v in _ACTION_VALUES(arm)] for fd in rows],
        phase=[fd["phase"] for fd in rows],
        v=[math.nan if fd["v"] is None else fd["v"] for fd in rows],
    )


def episode_from_dict(data: dict, source: str = "<memory>") -> Episode:
    """The episode a payload holds; StorageError when it holds no valid one,
    including an ``outcome`` other than its kind's."""
    try:
        version = data["schema_version"]
        if version != SCHEMA_VERSION:
            raise StorageError(f"{source}: unsupported schema_version {version!r}")
        kind = EpisodeKind(data["kind"])
        if Outcome(data["outcome"]) is not kind.outcome:
            raise ValueError(f"outcome {data['outcome']} disagrees with kind {kind.value}")
        return Episode(
            episode_id=data["episode_id"],
            task_id=data["task_id"],
            instruction_id=int(data["instruction_id"]),
            env_mode=EnvMode(data["env_mode"]),
            seed=int(data["seed"]),
            error_type=data["error_type"],
            t_rec=None if data["t_rec"] is None else int(data["t_rec"]),
            kind=kind,
            frames=_frames_from_dicts(data["frames"], int(data["instruction_id"])),
            provenance=dict(data.get("provenance", {})),
        )
    except (KeyError, ValueError, TypeError, ValidationError) as exc:
        raise StorageError(f"{source}: malformed episode payload: {exc!r}") from exc


def _dumps(payload: dict) -> str:
    return json.dumps(_round_tree(payload), indent=1, sort_keys=True) + "\n"


def _frame_template() -> tuple[str, list[int]]:
    """One frame's text as ``_dumps`` indents it inside an episode, with a
    ``%s`` slot per value, and the column of ``_frames_text``'s table that
    fills each slot: the OBS_DIM observation values, the ACTION_DIM action
    values, then v, t, phase and instruction id."""
    n = OBS_DIM + ACTION_DIM
    marks = [f"@{k}" for k in range(n + 4)]
    v, t, phase, instruction_id = marks[n:]
    frame = _frame_dict(t, marks[:OBS_DIM], marks[OBS_DIM:n], phase, v, instruction_id)
    text = json.dumps({"frames": [frame]}, indent=1, sort_keys=True)
    text = text[text.index("[\n") + 2:text.rindex("\n ]")].replace("%", "%%")
    return re.sub(r'"@\d+"', "%s", text), [int(k) for k in re.findall(r'"@(\d+)"', text)]


_FRAME_TEMPLATE, _FRAME_SLOTS = _frame_template()
_FLOAT_FORMAT = f"%.{FLOAT_SIGFIGS}g "


def _float_texts(values: list[float]) -> list[str]:
    """``repr(float(f"{x:.{FLOAT_SIGFIGS}g}"))`` of each finite value, which
    is what ``json`` writes for its FLOAT_SIGFIGS-digit rounding.  The
    ``%g`` text is that ``repr`` already, once an integral one gains ``.0``;
    only text with an exponent goes through ``float``, because ``repr``
    writes 1e9 as 1000000000.0 and a subnormal with fewer digits."""
    texts = (_FLOAT_FORMAT * len(values) % tuple(values)).split()
    return [repr(float(text)) if "e" in text else text if "." in text else text + ".0" for text in texts]


def _frames_text(frames: Frames, instruction_id) -> str:
    """The frames of an episode exactly as ``_dumps`` writes them inside it,
    filled into one template per frame.  Each distinct float is formatted
    once (see ``_float_texts``)."""
    unlabeled = np.isnan(frames.v)
    table = np.column_stack([frames.obs, frames.actions, np.where(unlabeled, 0.0, frames.v)])
    bits, where = np.unique(table.view(np.int64).ravel(), return_inverse=True)
    texts = np.array(_float_texts(bits.view(np.float64).tolist()), dtype=object)[where].reshape(table.shape)
    texts[unlabeled, -1] = "null"
    phases = frames.phase.tolist()
    phase_text = {p: json.dumps(p) for p in set(phases)}
    extra = np.array([list(map(str, range(len(phases)))), [phase_text[p] for p in phases],
                      [json.dumps(_round_tree(instruction_id))] * len(phases)], dtype=object).T
    cells = np.concatenate([texts, extra], axis=1)[:, _FRAME_SLOTS]
    return ",\n".join([_FRAME_TEMPLATE] * len(phases)) % tuple(cells.ravel().tolist())


def _episode_text(episode: Episode) -> str:
    """What ``_dumps(episode_to_dict(episode))`` returns: the header and
    provenance through ``_dumps``, with the frames text spliced in."""
    head = _dumps(_payload(episode, []))
    frames = _frames_text(episode.frames, episode.instruction_id)
    # Only the top-level key sits at indent 1; json escapes newlines in strings.
    return head.replace('\n "frames": [],', '\n "frames": [\n' + frames + '\n ],', 1)


def _load_manifest(dataset_dir: Path) -> dict:
    """The dataset's manifest, an object of this schema version whose
    ``episodes`` is a list of entry objects, each with a bare ``file`` name,
    a ``sha256`` string, an ``EpisodeKind`` value ``kind``, a ``task_id``
    string, an ``EnvMode`` value ``env_mode`` and an ``error_type`` string or
    null, and no two entries name one file; StorageError names the first
    part amiss."""
    path = dataset_dir / MANIFEST_NAME
    if not path.exists():
        return {"schema_version": SCHEMA_VERSION, "episodes": []}
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: corrupt manifest at offset {exc.pos}") from exc
    if not isinstance(manifest, dict) or manifest.get("schema_version") != SCHEMA_VERSION:
        raise StorageError(f"{path}: unsupported manifest schema_version")
    entries = manifest.get("episodes")
    if not isinstance(entries, list):
        raise StorageError(f"{path}: episodes must be a list, got {type(entries).__name__}")
    first_entry: dict[str, int] = {}
    for k, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise StorageError(f"{path}: episode entry {k} must be an object, got {type(entry).__name__}")
        name = entry.get("file")
        if not isinstance(name, str) or name in ("", ".", "..") or os.path.basename(name) != name:
            raise StorageError(f"{path}: episode entry {k} must name a bare file, got {name!r}")
        if name in first_entry:
            raise StorageError(f"{path}: episode entries {first_entry[name]} and {k} both name {name}")
        first_entry[name] = k
        if not isinstance(entry.get("sha256"), str):
            raise StorageError(f"{path}: episode entry {k} must hold a sha256 string")
        for key, values in (("kind", EpisodeKind), ("task_id", None), ("env_mode", EnvMode)):
            value = entry.get(key)
            if not isinstance(value, str):
                raise StorageError(f"{path}: episode entry {k} must hold a {key} string, got {value!r}")
            if values is not None and value not in {v.value for v in values}:
                raise StorageError(f"{path}: episode entry {k} has an unknown {key} {value!r}")
        if not isinstance(entry.get("error_type", 0), (str, type(None))):  # 0: missing
            raise StorageError(f"{path}: episode entry {k} must hold an error_type string or null")
    return manifest


def write_atomic(path: Path, text: str) -> None:
    """Write ``text`` to a temporary file beside ``path`` and rename it over
    ``path``, so a reader sees the old bytes or the new, never a torn file."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError as exc:
        with suppress(OSError):
            tmp.unlink()
        raise StorageError(f"failed to write {path}: {exc}") from exc


def save_checkpoint(path: str | Path, kind: str, params: dict[str, np.ndarray], **fields) -> Path:
    """Write a model checkpoint: schema version, ``kind`` and the parameters
    by sorted name, plus the model's metadata ``fields``, as sorted-key JSON."""
    path = Path(path)
    payload = {"schema_version": CHECKPOINT_SCHEMA, "kind": kind,
               "params": {k: v.tolist() for k, v in sorted(params.items())}, **fields}
    write_atomic(path, json.dumps(payload, sort_keys=True))
    return path


def checkpoint_array(path: Path, name: str, value, shape: tuple[int | None, ...]) -> np.ndarray:
    """``value`` as a float64 array of finite values of ``shape``, where None
    matches any length; raises StorageError otherwise."""
    if value is None:
        raise StorageError(f"{path}: missing key {name!r}")
    try:
        arr = np.asarray(value)
    except ValueError as exc:
        raise StorageError(f"{path}: {name} is not an array: {exc}") from exc
    if arr.dtype.kind not in "iuf":
        raise StorageError(f"{path}: {name} holds {arr.dtype} values, not numbers")
    if not np.isfinite(arr).all():
        raise StorageError(f"{path}: {name} holds a value that is not finite")
    if arr.ndim != len(shape) or any(n is not None and n != m for n, m in zip(shape, arr.shape)):
        raise StorageError(f"{path}: {name} has shape {arr.shape}, expected {shape}")
    return arr.astype(np.float64, copy=False)


def load_checkpoint(path: str | Path, kind: str, cfg: Config, config_keys: dict[str, str],
                    init: Callable[[Config], object], fields: Callable[[object], dict]) -> tuple[object, dict]:
    """Read a ``save_checkpoint`` file of ``kind`` into a model.

    ``init`` builds the model under ``cfg`` overridden by the metadata that
    ``config_keys`` maps to Config keys; the file's parameters must have the
    built ones' names and shapes and are written into them, and every entry of
    ``fields(model)`` must equal the file's.  Returns the model and the parsed
    payload, for the entries only the caller knows.  Raises StorageError for
    any entry that is unreadable, missing, mistyped or the wrong shape.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(f"cannot load {kind} from {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("schema_version") != CHECKPOINT_SCHEMA \
            or payload.get("kind") != kind:
        raise StorageError(f"{path}: not a supported {kind} checkpoint")
    try:
        model_cfg = cfg.with_overrides(**{key: payload[name] for name, key in config_keys.items()})
    except (KeyError, ConfigError) as exc:
        raise StorageError(f"{path}: missing or mistyped metadata: {exc}") from exc
    model = init(model_cfg)
    params = payload.get("params")
    if not isinstance(params, dict) or set(params) != set(model.params):
        raise StorageError(f"{path}: parameters are not the {kind}'s {sorted(model.params)}")
    for k, v in model.params.items():
        v[...] = checkpoint_array(path, k, params[k], v.shape)
    for name, want in fields(model).items():
        got = payload.get(name)
        if type(got) is not type(want) or got != want:
            raise StorageError(f"{path}: {name} is {got!r}, the parameters give {want!r}")
    if not isinstance(payload.get("provenance", {}), dict):
        raise StorageError(f"{path}: provenance is not an object")
    return model, payload


def _manifest_entry(episode: Episode, path: Path, sha256: str) -> dict:
    return {
        "file": path.name,
        "episode_id": episode.episode_id,
        "kind": episode.kind.value,
        "task_id": episode.task_id,
        "env_mode": episode.env_mode.value,
        "error_type": episode.error_type,
        "seed": episode.seed,
        "n_frames": len(episode.frames),
        "outcome": episode.outcome.value,
        "sha256": sha256,
    }


def write_episodes(episodes: Iterable[Episode], dataset_dir: str | Path) -> list[Path]:
    """Serialize each episode to its own file as the iterable yields it, then
    record them all in the dataset manifest with one write.

    An entry replaces any entry of the same file.  The manifest is written in
    a ``finally``, so when the iterable or an episode raises, the files already
    written stay listed.  A lock file beside the manifest, created with
    ``O_EXCL`` and removed at the end, keeps a second writer out of the
    directory: it raises StorageError naming the lock.
    """
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise StorageError(f"dataset directory does not exist: {dataset_dir}")
    lock = dataset_dir / LOCK_NAME
    try:
        os.close(os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except OSError as exc:
        # FileExistsError: another writer holds the directory, or a killed one left the lock.
        raise StorageError(f"cannot lock the dataset with {lock}: {exc}") from exc
    try:
        manifest = _load_manifest(dataset_dir)
        written: dict[str, dict] = {}
        paths: list[Path] = []
        try:
            for episode in episodes:
                text = _episode_text(episode)
                path = dataset_dir / f"{episode.episode_id}.json"
                write_atomic(path, text)
                written[path.name] = _manifest_entry(episode, path, hashlib.sha256(text.encode()).hexdigest())
                paths.append(path)
        finally:
            if written:
                kept = [e for e in manifest["episodes"] if e["file"] not in written]
                manifest["episodes"] = sorted(kept + list(written.values()), key=lambda e: e["file"])
                write_atomic(dataset_dir / MANIFEST_NAME, _dumps(manifest))
    finally:
        lock.unlink(missing_ok=True)
    return paths


def _read_episode(path: Path, entry: dict) -> Episode:
    """The episode in ``path``, checked against its manifest ``entry``: the
    sha256 of the file and every field ``_manifest_entry`` records."""
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise StorageError(f"cannot read {path}: {exc}") from exc
    sha256 = hashlib.sha256(raw).hexdigest()
    if sha256 != entry["sha256"]:
        raise StorageError(f"{path}: contents do not match the sha256 in the manifest")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise StorageError(f"{path}: parse error at offset {exc.pos}: {exc.msg}") from exc
    episode = episode_from_dict(data, source=str(path))
    for key, value in _manifest_entry(episode, path, sha256).items():
        if entry.get(key) != value:
            raise StorageError(f"{path}: the manifest records {key}={entry.get(key)!r}, the file holds {value!r}")
    return episode


def read_dataset(dataset_dir: str | Path) -> list[Episode]:
    """All episodes listed in the manifest, in manifest order, each checked
    against its manifest entry (``_read_episode``); a directory with no
    manifest holds none, and a missing one raises StorageError."""
    dataset_dir = Path(dataset_dir)
    if not dataset_dir.is_dir():
        raise StorageError(f"dataset directory does not exist: {dataset_dir}")
    manifest = _load_manifest(dataset_dir)
    return [_read_episode(dataset_dir / e["file"], e) for e in manifest["episodes"]]


# ---------------------------------------------------------------------------
# suffix slicing


def slice_recovery_suffix(episode: Episode) -> Episode:
    """Extract the corrective suffix of a recovery episode.

    Returns a new episode holding exactly the rows t_rec: of every column,
    re-indexed from 0 and marked ``history_reset_at: 0``, so history windows
    pad instead of reaching back into the failure.  The rows are preserved
    verbatim; the original episode is untouched.
    """
    if episode.kind is not EpisodeKind.FAILURE_RECOVERY:
        raise ValidationError(f"{episode.episode_id}: can only slice FailureRecovery episodes")
    start = episode.t_rec
    f = episode.frames
    frames = Frames(obs=f.obs[start:], actions=f.actions[start:], phase=f.phase[start:], v=f.v[start:])
    provenance = dict(episode.provenance)
    provenance.update(
        {
            "kind_detail": "ResetRecovery",
            "history_reset_at": 0,
            "sliced_from": episode.episode_id,
            "t_rec_original": start,
        }
    )
    return replace(
        episode,
        episode_id=episode.episode_id + "-reset",
        t_rec=0,
        frames=frames,
        provenance=provenance,
    )


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
    episodes = manifest["episodes"]
    return StatsReport(
        total=len(episodes),
        by_kind=dict(Counter(e["kind"] for e in episodes)),
        by_task=dict(Counter(e["task_id"] for e in episodes)),
        by_env_mode=dict(Counter(e["env_mode"] for e in episodes)),
        by_error_type=dict(Counter(e["error_type"] for e in episodes if e["error_type"] is not None)),
    )
