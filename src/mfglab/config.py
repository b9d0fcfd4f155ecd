"""Flat `section.key = value` run configuration.

The format is line oriented: one assignment per line, `#` starts a
comment, blank lines are ignored.  Each key names one `RunConfig`
field, and its value is parsed by that field's type; no command writes
a config.  Every run setting has one source: each is a key here except
the admissibility override, which only the `--override-admissibility`
flag of `solve` and `sweep` sets.
"""

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    """Malformed configuration text or inconsistent values."""


@dataclass
class RunConfig:
    grid_d: int = 1
    grid_n: int = 128
    hamiltonian_gamma: float = 1.25
    hamiltonian_a: str = "sin_bump"
    potential_b: str = "cos_bump"
    congestion_alpha: float = 1.0
    newton_tol: float = 1e-10
    continuation_step_min: float = 1e-4
    output_dir: str = "out"


# config key -> (RunConfig field, converter): the key is the field name
# with its first "_" read as ".", the converter its annotated type
_KEYS = {f.name.replace("_", ".", 1): (f.name, f.type)
         for f in fields(RunConfig)}

_FIELD_TO_KEY = {attr: key for key, (attr, _) in _KEYS.items()}


def parse_config_text(text: str) -> RunConfig:
    """Parse configuration text; errors carry the offending line number."""
    cfg = RunConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', "
                              f"got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unrecognized key {key!r}")
        attr, conv = _KEYS[key]
        try:
            setattr(cfg, attr, conv(value))
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from exc
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def validate_config(cfg: RunConfig) -> None:
    """Structural checks independent of admissibility."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{_FIELD_TO_KEY[f.name]} must be finite, "
                              f"got {value}")
    if cfg.grid_d not in (1, 2):
        raise ConfigError(f"grid.d must be 1 or 2, got {cfg.grid_d}")
    if cfg.grid_n < 8:
        raise ConfigError(f"grid.n must be at least 8, got {cfg.grid_n}")
    if not 1.0 < cfg.hamiltonian_gamma < 2.0:
        raise ConfigError(
            f"hamiltonian.gamma must lie in (1,2), got {cfg.hamiltonian_gamma}")
    if cfg.congestion_alpha <= 0.0:
        raise ConfigError(
            f"congestion.alpha must be positive, got {cfg.congestion_alpha}")
    if cfg.newton_tol <= 0.0:
        raise ConfigError("newton.tol must be positive")
    if not 0.0 < cfg.continuation_step_min <= 1.0:
        raise ConfigError("continuation.step_min must lie in (0, 1], got "
                          f"{cfg.continuation_step_min}")
