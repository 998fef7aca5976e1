import pytest

from recoverylab.config import DEFAULTS, load_config
from recoverylab.errors import ConfigError


def test_defaults_present():
    cfg = load_config()
    assert cfg.dt == 0.05
    assert cfg.v_max == 0.5
    assert cfg.omega_max == 2.0
    assert cfg.grasp_radius == 0.03
    assert cfg.goal_radius == 0.05
    assert cfg.e2_window_steps == 30
    assert cfg.alpha == 3.0
    assert cfg.history_window == 5


def test_file_overrides(tmp_path):
    path = tmp_path / "lab.cfg"
    path.write_text("""
# experiment overrides
grasp_radius = 0.04
eval_trials = 12
""")
    cfg = load_config(path)
    assert cfg.grasp_radius == 0.04
    assert cfg.eval_trials == 12
    assert cfg.goal_radius == DEFAULTS["goal_radius"]


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("warp_drive = 9\n")
    with pytest.raises(ConfigError):
        load_config(path)
    with pytest.raises(ConfigError):
        load_config().with_overrides(warp_drive=9)


def test_mistyped_value_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("dt = abc\n")
    with pytest.raises(ConfigError, match="dt"):
        load_config(path)
    cfg = load_config()
    for bad in ({"dt": "0.05"}, {"dt": True}, {"bc_steps": 1.5}, {"bc_steps": "10"}, {"bc_steps": False}):
        with pytest.raises(ConfigError):
            cfg.with_overrides(**bad)
    # Valid values are stored unchanged, so snapshots keep their bytes.
    over = cfg.with_overrides(dt=1, bc_steps=10)
    assert type(over.dt) is int and over.snapshot()["bc_steps"] == 10


@pytest.mark.parametrize("key, value", [
    ("dt", -0.1), ("dt", 0.0),                                   # time step
    ("v_max", 0.0), ("omega_max", -2.0),                         # speed limits
    ("grasp_radius", -1.0), ("goal_radius", 0.0),                # radii
    ("pos_tol", 0.0), ("ang_tol", -0.05),                        # tolerances
    ("sigma", 0.0),                                              # likelihood scale
    ("alpha", 0.0),                                              # decay exponent
    ("policy_lr", 0.0), ("align_lr", -1e-3),                     # learning rates
    ("policy_batch", -1), ("align_batch", 0),                    # batch sizes
    ("episode_max_steps", 0),                                    # episode length bound
    ("eval_trials", 0),                                          # evaluation size
    ("dt", float("nan")),
])
def test_non_positive_scale_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_config().with_overrides(**{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


@pytest.mark.parametrize("key", ["lambda_recovery", "input_noise", "workspace_x_max", "clamp_max"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_rejected(tmp_path, key, value):
    # A NaN weight would compare False against zero and drop its term silently.
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config().with_overrides(**{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=f"{key} must be finite"):
        load_config(path)


@pytest.mark.parametrize("key, value", [
    ("history_window", -2),                                      # window
    ("bc_steps", -1), ("episode_max_steps", -400),               # step counts
    ("policy_hidden", -3), ("feature_dim", -64),                 # dimensions
    ("feature_seed", -7),                                        # seed
    ("eval_trials", -1),                                         # trial count
])
def test_negative_integer_rejected(tmp_path, key, value):
    with pytest.raises(ConfigError, match=key):
        load_config().with_overrides(**{key: value})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match=key):
        load_config(path)


@pytest.mark.parametrize("key", ["lambda_recovery", "input_noise", "expert_action_noise", "e3_offset_max",
                                 "e4_dtheta_max", "e4_lat_max"])
def test_negative_weight_noise_or_draw_bound_rejected(tmp_path, key):
    # Code that reads them drops a weight or noise at or below zero, and a
    # negative E3/E4 bound mirrors its draw range; zero stays valid.
    with pytest.raises(ConfigError, match=f"{key} must not be negative"):
        load_config().with_overrides(**{key: -0.5})
    path = tmp_path / "bad.cfg"
    path.write_text(f"{key} = -0.5\n")
    with pytest.raises(ConfigError, match=f"{key} must not be negative"):
        load_config(path)
    path.write_text(f"{key} = 0.0\n")
    assert getattr(load_config(path), key) == 0.0


def test_every_integer_key_rejects_negative():
    cfg = load_config()
    for key, default in DEFAULTS.items():
        if isinstance(default, int):
            with pytest.raises(ConfigError, match=key):
                cfg.with_overrides(**{key: -1})


def test_zero_step_counts_allowed():
    cfg = load_config().with_overrides(bc_steps=0, refine_steps=0, align_steps=0, e2_window_steps=0)
    assert (cfg.bc_steps, cfg.refine_steps, cfg.align_steps, cfg.e2_window_steps) == (0, 0, 0, 0)


def test_malformed_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("just some words\n")
    with pytest.raises(ConfigError, match="expected"):
        load_config(path)


def test_missing_file():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/path.cfg")


def test_snapshot_is_stable_and_complete():
    snap = load_config().snapshot()
    assert set(snap) == set(DEFAULTS)
    assert list(snap) == sorted(snap)


def test_keys_read_as_plain_attributes():
    cfg = load_config().with_overrides(dt=0.1, e2_window_steps=12)
    for key in DEFAULTS:
        assert getattr(cfg, key) == cfg.values[key]
        assert vars(cfg)[key] == cfg.values[key]  # an instance attribute, no lookup hook
    assert cfg.dt == 0.1 and cfg.e2_window_steps == 12
    with pytest.raises(AttributeError):
        cfg.no_such_key
