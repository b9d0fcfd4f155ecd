"""Flat `section.key = value` run configuration.

The format is line oriented: one assignment per line, `#` starts a
comment, blank lines are ignored.  Parsing and serialization round-trip
losslessly on all recognized keys.  `NewtonConfig`, the corrector's
settings, lives here too, so setting up a command imports no solver.
"""

import math
from dataclasses import dataclass, fields


class ConfigError(Exception):
    """Malformed configuration text or inconsistent values."""


def _parse_bool(tok: str) -> bool:
    low = tok.lower()
    if low in ("true", "1", "yes"):
        return True
    if low in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {tok!r}")


@dataclass
class RunConfig:
    grid_d: int = 1
    grid_n: int = 128
    hamiltonian_gamma: float = 1.25
    hamiltonian_a: str = "sin_bump"
    potential_b: str = "cos_bump"
    congestion_alpha: float = 1.0
    newton_tol: float = 1e-10
    newton_max_iters: int = 30
    continuation_step_min: float = 1e-4
    output_dir: str = "out"
    overrides_allow_inadmissible: bool = False


@dataclass(frozen=True)
class NewtonConfig:
    """Newton corrector settings, read from `newton.tol` and
    `newton.max_iters` (`cli.build_setup`)."""

    tol_residual: float = 1e-10
    max_iters: int = 30

    def __post_init__(self) -> None:
        values = (self.tol_residual, self.max_iters)
        if not all(math.isfinite(v) and v > 0 for v in values):
            raise ValueError("Newton configuration values must be positive "
                             f"and finite, got {values}")


# config key -> (RunConfig field, converter): the key is the field name
# with its first "_" read as ".", the converter its annotated type
_KEYS = {f.name.replace("_", ".", 1):
         (f.name, _parse_bool if f.type is bool else f.type)
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


def serialize_config(cfg: RunConfig) -> str:
    """Emit the canonical text form (round-trips through parse)."""
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, bool):
            rendered = "true" if value else "false"
        elif isinstance(value, float):
            rendered = f"{value:.17g}"
        else:
            rendered = str(value)
        lines.append(f"{_FIELD_TO_KEY[f.name]} = {rendered}")
    return "\n".join(lines) + "\n"


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
    if cfg.newton_max_iters < 1:
        raise ConfigError("newton.max_iters must be at least 1, got "
                          f"{cfg.newton_max_iters}")
    if not 0.0 < cfg.continuation_step_min <= 1.0:
        raise ConfigError("continuation.step_min must lie in (0, 1], got "
                          f"{cfg.continuation_step_min}")
