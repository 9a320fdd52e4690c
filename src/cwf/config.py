"""Declarative experiment configs: flat JSON documents, one per run.

A config is a schema: constructing one checks field types, the trial and
seed rules, and that the grids its kind needs are non-empty and finite.
Each sweep checks its grid points' domains where it solves them (`sweeps`).
SNR values live in dB here and in every CSV; the linear power used
internally is p = 10**(dB/10).  A seed is mandatory whenever an experiment
draws random numbers; there is no wall-clock fallback.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .channel import is_int
from .simulate import point_seed  # noqa: F401  (re-exported)

#: fixed seed used by `cwf validate` when none is given
DEFAULT_VALIDATE_SEED = 123456789

#: the experiment kinds and their built-in fields; sweeps default to the
#: analytic-only columns.  The CLI subcommands and sweep runners follow it.
DEFAULTS = {
    "thm1_sweep": dict(snr_db=range(-5, 11), payload_bits=(300.0, 1000.0)),
    "queue_sweep": dict(snr_db=(0.0,), payload_bits=(300.0, 1000.0),
                        t_sub=range(600, 2801, 200)),
    "fading_sweep": dict(snr_db=range(-5, 11), payload_bits=(1000.0,), s_count=2),
    "waterfill_sweep": dict(snr_db=(-3.0, 0.0, 10.0), s_counts=(1, 2, 4)),
    "validate": dict(seed=DEFAULT_VALIDATE_SEED),
}
KINDS = tuple(DEFAULTS)


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration (CLI exit code 2)."""


def db_to_linear(db: float) -> float:
    """Linear power 10**(dB/10); ValueError naming `db` when it overflows a float."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"snr_db {db} overflows a float as a linear power") from None


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a kind, its parameter grid, trial budget and seed."""

    kind: str
    snr_db: tuple[float, ...] = ()
    payload_bits: tuple[float, ...] = ()
    s_count: int = 0
    s_counts: tuple[int, ...] = ()
    t_sub: tuple[float, ...] = ()
    epsilon: float = 1e-3
    trials: int = 0
    seed: int | None = None
    out: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "snr_db", tuple(float(v) for v in self.snr_db))
        object.__setattr__(self, "payload_bits", tuple(float(v) for v in self.payload_bits))
        object.__setattr__(self, "s_counts", tuple(self.s_counts))
        object.__setattr__(self, "t_sub", tuple(float(v) for v in self.t_sub))
        self._check()

    def _check(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown kind {self.kind!r}; expected one of {KINDS}")
        for name in ("trials", "seed", "s_count"):
            value = getattr(self, name)
            if not (is_int(value) or (name == "seed" and value is None)):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if not all(map(is_int, self.s_counts)):
            raise ConfigError(f"s_counts must hold integers, got {list(self.s_counts)}")
        if self.trials < 0 or self.trials == 1:  # a standard error needs two trials
            raise ConfigError(f"trials must be 0 or >= 2, got {self.trials}")
        if self.kind == "validate" and self.trials != 0:  # each check fixes its own budget
            raise ConfigError(f"validate takes no trials, got {self.trials}")
        if not 0.0 <= self.epsilon < 1.0:
            raise ConfigError(f"epsilon must lie in [0, 1), got {self.epsilon}")
        for name in ("snr_db", "payload_bits", "t_sub"):  # json accepts Infinity and NaN
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite, got {list(getattr(self, name))}")
        if not (self.out is None or isinstance(self.out, str)):
            raise ConfigError(f"out must be a path string, got {self.out!r}")
        if self.seed is not None and self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if self.trials > 0 and self.seed is None:
            raise ConfigError("a seed is required for any stochastic experiment")
        if self.kind != "validate" and not self.snr_db:
            raise ConfigError(f"{self.kind} needs a non-empty snr_db grid")
        if self.kind == "queue_sweep" and not self.t_sub:
            raise ConfigError("queue_sweep needs a non-empty t_sub grid")
        if self.kind == "fading_sweep" and len(self.payload_bits) != 1:
            raise ConfigError("fading_sweep takes exactly one common payload")
        if self.kind == "waterfill_sweep" and not self.s_counts:
            raise ConfigError("waterfill_sweep needs a non-empty s_counts grid")

    @property
    def resolved_seed(self) -> int:
        if self.seed is not None:
            return self.seed
        if self.kind == "validate":
            return DEFAULT_VALIDATE_SEED
        raise ConfigError("no seed available")

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        """Hash of the experiment semantics; the output path does not count."""
        d = {k: (list(v) if isinstance(v, tuple) else v) for k, v in self.to_dict().items()}
        d.pop("out", None)
        return hashlib.sha256(json.dumps(d, sort_keys=True).encode()).hexdigest()[:16]

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = set(cls.__dataclass_fields__)
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        if "kind" not in data:
            raise ConfigError("config must declare a kind")
        try:
            return cls(**data)
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            data = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError(f"config {path} must hold a JSON object")
        return cls.from_dict(data)

    def override(self, **kwargs) -> "ExperimentConfig":
        """New config with the given fields replaced (CLI flag overrides)."""
        d = self.to_dict()
        d.update({k: v for k, v in kwargs.items() if v is not None})
        return ExperimentConfig.from_dict(d)


def default_config(kind: str) -> ExperimentConfig:
    """The built-in config of `kind`, from `DEFAULTS`; ConfigError if unknown."""
    return ExperimentConfig(kind=kind, **DEFAULTS.get(kind, {}))
