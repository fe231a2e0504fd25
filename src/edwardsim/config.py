"""Run configuration: INI files with strict key checking.

A config file holds the sections [model], [run], [silt], [holder],
[density], and [mala]. Every key is optional (defaults below), but unknown
sections or keys are rejected by name rather than silently ignored, since a
typo like "pahts = 4096" would otherwise change the run semantics without
a trace.
"""

from __future__ import annotations

import configparser
import hashlib
import io
import warnings
from dataclasses import dataclass, fields

from .params import ModelParams

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "dump_config", "config_hash"]


class ConfigError(Exception):
    """Malformed run configuration (bad key, section, or value)."""


@dataclass
class RunConfig:
    # [model]
    H: float = 0.5
    d: int = 2
    T: float = 1.0
    g: float = 0.1
    N: int = 256
    # [run]
    seed: int = 0
    paths: int = 1024
    threads: int = 1
    outdir: str = "runs"
    # [silt]
    eps0: float = 0.1
    levels: int = 5
    # [holder]
    holder_epsilons: tuple = (0.05, 0.02)
    delta_min: float = 0.05
    delta_max: float = 0.8
    n_deltas: int = 6
    # [density]
    density_eps: float = 0.02
    u_max: float = 1.0
    n_u: int = 21
    shift: str = "linear"
    # [mala]
    mala_eps: float = 0.02
    step: float = 0.4
    burn_in: int = 2000
    iterations: int = 20000
    thin: int = 20

    def model_params(self) -> ModelParams:
        try:
            return ModelParams(H=self.H, d=self.d, T=self.T, g=self.g, N=self.N, seed=self.seed)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self) -> None:
        self.model_params()
        if self.paths < 1:
            raise ConfigError(f"paths must be positive, got {self.paths}")
        if self.threads < 1:
            raise ConfigError(f"threads must be positive, got {self.threads}")
        if self.eps0 <= 0.0:
            raise ConfigError(f"eps0 must be positive, got {self.eps0}")
        if self.levels < 4:
            raise ConfigError(f"levels must be at least 4, got {self.levels}")
        if not all(e > 0.0 for e in self.holder_epsilons):
            raise ConfigError("holder epsilons must be positive")
        if not 0.0 < self.delta_min < self.delta_max:
            raise ConfigError("need 0 < delta_min < delta_max")
        if self.n_deltas < 2:
            raise ConfigError(f"n_deltas must be at least 2, got {self.n_deltas}")
        if self.density_eps <= 0.0 or self.mala_eps <= 0.0:
            raise ConfigError("regularization eps must be positive")
        if self.n_u < 3:
            raise ConfigError(f"n_u must be at least 3, got {self.n_u}")
        if self.step <= 0.0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.iterations < 1 or self.burn_in < 0 or self.thin < 1:
            raise ConfigError("mala iteration counts out of range")


def _float_list(text: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc
    if not vals:
        raise ConfigError("empty float list")
    return vals


# section -> {ini key: (attribute, parser)}
_SCHEMA = {
    "model": {
        "h": ("H", float),
        "d": ("d", int),
        "t": ("T", float),
        "g": ("g", float),
        "n": ("N", int),
    },
    "run": {
        "seed": ("seed", int),
        "paths": ("paths", int),
        "threads": ("threads", int),
        "outdir": ("outdir", str),
    },
    "silt": {
        "eps0": ("eps0", float),
        "levels": ("levels", int),
    },
    "holder": {
        "epsilons": ("holder_epsilons", _float_list),
        "delta_min": ("delta_min", float),
        "delta_max": ("delta_max", float),
        "n_deltas": ("n_deltas", int),
    },
    "density": {
        "eps": ("density_eps", float),
        "u_max": ("u_max", float),
        "n_u": ("n_u", int),
        "shift": ("shift", str),
    },
    "mala": {
        "eps": ("mala_eps", float),
        "step": ("step", float),
        "burn_in": ("burn_in", int),
        "iterations": ("iterations", int),
        "thin": ("thin", int),
    },
}


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a RunConfig, rejecting unknown names."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    cfg = RunConfig()
    for section in cp.sections():
        if section not in _SCHEMA:
            known = ", ".join(sorted(_SCHEMA))
            raise ConfigError(f"unknown section [{section}]; known sections: {known}")
        keys = _SCHEMA[section]
        for key, value in cp.items(section):
            if key not in keys:
                known = ", ".join(sorted(keys))
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; known keys: {known}"
                )
            attr, parse = keys[key]
            try:
                setattr(cfg, attr, parse(value))
            except ConfigError:
                raise
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
    cfg.validate()
    if not cfg.model_params().critical:
        warnings.warn(
            f"H*d = {cfg.H * cfg.d:.6g} is off the critical line H*d = 1; "
            "the reweighting theory here is calibrated at the critical point",
            RuntimeWarning,
            stacklevel=2,
        )
    return cfg


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)


def dump_config(cfg: RunConfig) -> str:
    """Canonical INI text (fixed section and key order; round-trips through
    parse_config)."""
    by_attr = {attr: (sec, key) for sec, keys in _SCHEMA.items() for key, (attr, _) in keys.items()}
    out = io.StringIO()
    for section, keys in _SCHEMA.items():
        out.write(f"[{section}]\n")
        for key, (attr, _) in keys.items():
            val = getattr(cfg, attr)
            if isinstance(val, tuple):
                val = ", ".join(repr(v) for v in val)
            out.write(f"{key} = {val}\n")
        out.write("\n")
    assert set(by_attr) == {f.name for f in fields(cfg)}
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical serialization; keys run manifests."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()
