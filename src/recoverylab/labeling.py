"""Progress-aware hindsight labeling.

Assigns the dense per-frame value landscape over a mixed-quality dataset:
successful episodes get v=1 everywhere, recovery episodes get v=0 on their
error segment and v=1 elsewhere, and pure failures decay from an estimated
progress score V down to zero,

    v_t = V * (1 - t/T) ** alpha,

so early useful motion is kept while frames near the irreversible breakdown
are driven to zero.  T is the last frame index, making v_T exactly 0.  The
exponent alpha and the label range [clamp_min, clamp_max] are Config keys.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import numpy as np

from .config import Config
from .errors import ValidationError
from .store import (
    Episode,
    EpisodeKind,
    PhaseTag,
    read_dataset,
    write_episodes,
)
from .value import ProgressModel, ReferenceCluster, estimate_progress


def _with_labels(episode: Episode, labels, provenance: dict | None) -> Episode:
    """``episode`` with the value labels ``labels`` and, if given,
    ``provenance`` in place of its own, built once."""
    return replace(episode, frames=replace(episode.frames, v=labels),
                   provenance=episode.provenance if provenance is None else provenance)


def label_success(episode: Episode, provenance: dict | None = None) -> Episode:
    """Successful trajectories: every frame v = 1.0."""
    if episode.kind is not EpisodeKind.NOMINAL_SUCCESS:
        raise ValidationError(f"{episode.episode_id}: label_success needs a NominalSuccess episode")
    return _with_labels(episode, np.ones(len(episode.frames)), provenance)


def label_recovery(episode: Episode, provenance: dict | None = None) -> Episode:
    """Recovery episodes: error segments v = 0.0, everything else v = 1.0.

    The clean approach before the fault behaves like success data and keeps
    v = 1.0; only the frames that drift into the adverse state are zeroed.
    """
    if episode.kind is not EpisodeKind.FAILURE_RECOVERY:
        raise ValidationError(f"{episode.episode_id}: label_recovery needs a FailureRecovery episode")
    return _with_labels(episode, np.where(episode.frames.phase == PhaseTag.ERROR.value, 0.0, 1.0), provenance)


def label_failure(episode: Episode, progress: float, cfg: Config, provenance: dict | None = None) -> Episode:
    """Pure failures: reliability decay v_t = V * (1 - t/T)^alpha.

    Endpoints are exact: v_0 = V and v_T = 0.
    """
    if episode.kind is not EpisodeKind.PURE_FAILURE:
        raise ValidationError(f"{episode.episode_id}: label_failure needs a PureFailure episode")
    if not (0.0 <= progress <= 1.0):
        raise ValidationError(f"progress estimate {progress} outside [0, 1]; clamp before labeling")
    horizon = len(episode.frames) - 1
    if horizon < 1:
        raise ValidationError(f"{episode.episode_id}: degenerate single-frame failure episode")
    alpha, lo, hi = float(cfg.alpha), float(cfg.clamp_min), float(cfg.clamp_max)
    labels = [min(hi, max(lo, progress * (1.0 - t / horizon) ** alpha)) for t in range(len(episode.frames))]
    return _with_labels(episode, labels, provenance)


def label_episode(episode: Episode, model: ProgressModel, cluster: ReferenceCluster, cfg: Config,
                  provenance: dict | None = None) -> Episode:
    """Dispatch on episode kind; pure failures consult the progress model.
    Each ``label_*`` function builds the labeled episode once, with
    ``provenance`` in place of the episode's if given."""
    if episode.kind is EpisodeKind.NOMINAL_SUCCESS:
        return label_success(episode, provenance)
    if episode.kind is EpisodeKind.FAILURE_RECOVERY:
        return label_recovery(episode, provenance)
    raw = estimate_progress(model, cluster, episode)
    return label_failure(episode, min(float(cfg.clamp_max), max(float(cfg.clamp_min), raw)), cfg, provenance)


def label_dataset(
    dataset_dir: str | Path,
    out_dir: str | Path,
    model: ProgressModel,
    cluster: ReferenceCluster,
    cfg: Config,
) -> dict:
    """Label every episode of a dataset into ``out_dir``; returns a summary.

    Re-running with identical inputs produces identical labeled files.
    """
    episodes = read_dataset(dataset_dir)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    histogram = {"0.0": 0, "(0,1)": 0, "1.0": 0}
    counts: dict[str, int] = {}

    def labeled_episodes():
        for episode in episodes:
            labeler = {"alpha": float(cfg.alpha), "rule": episode.kind.value}
            labeled = label_episode(episode, model, cluster, cfg, {**episode.provenance, "labeler": labeler})
            yield labeled
            counts[labeled.kind.value] = counts.get(labeled.kind.value, 0) + 1
            v = labeled.frames.v
            for key, hits in (("0.0", v == 0.0), ("1.0", v == 1.0), ("(0,1)", (v != 0.0) & (v != 1.0))):
                histogram[key] += int(np.sum(hits))

    write_episodes(labeled_episodes(), out_dir)
    return {"episodes": counts, "label_histogram": histogram, "out_dir": str(out_dir)}
