"""Run configuration: INI files with strict key checking.

RunConfig is the one list of options. Each field sits in one of the
sections [model], [run], [silt], [holder], [density] and [mala] (_SECTIONS).
Its key is the field name in lower case without the section prefix, so
`mala_eps` is `[mala] eps`, and its value parses with the field's type (a
comma- or space-separated float list for a tuple). Every key is optional
(defaults below), but unknown sections or keys are rejected by name rather
than silently ignored, since a typo like "pahts = 4096" would otherwise
change the run semantics without a trace.
"""

import configparser
import hashlib
import io
import math
import warnings
from dataclasses import dataclass, fields

from .params import ModelParams
from .silt import _check_eps

__all__ = ["ConfigError", "RunConfig", "load_config", "parse_config", "dump_config", "config_hash"]


class ConfigError(Exception):
    """Malformed run configuration (bad key, section, or value)."""


@dataclass
class RunConfig:
    H: float = 0.5
    d: int = 2
    T: float = 1.0
    g: float = 0.1
    N: int = 256
    seed: int = 0
    paths: int = 1024
    threads: int = 1
    outdir: str = "runs"
    eps0: float = 0.1
    levels: int = 5
    holder_epsilons: tuple = (0.05, 0.02)
    delta_min: float = 0.05
    delta_max: float = 0.8
    n_deltas: int = 6
    density_eps: float = 0.02
    u_max: float = 1.0
    n_u: int = 21
    shift: str = "linear"
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
        """Reject out-of-range values; warn off the critical line H*d = 1."""
        # NaN passes every `x <= 0` test below and inf runs on to NaN outputs
        for name in _FLOAT_FIELDS:
            value = getattr(self, name)
            if not all(math.isfinite(v) for v in (value if isinstance(value, tuple) else (value,))):
                section, key = _KEYS[name]
                raise ConfigError(f"{name} ([{section}] {key}) must be finite, got {value!r}")
        params = self.model_params()
        if self.paths < 1:
            raise ConfigError(f"paths must be positive, got {self.paths}")
        if self.threads < 1:
            raise ConfigError(f"threads must be positive, got {self.threads}")
        # the library's eps check, as a ConfigError naming the field's key
        epsilons = [(name, getattr(self, name)) for name in ("eps0", "density_eps", "mala_eps")]
        for name, value in epsilons + [("holder_epsilons", e) for e in self.holder_epsilons]:
            try:
                _check_eps(value, name)
            except ValueError as exc:
                section, key = _KEYS[name]
                raise ConfigError(f"{exc} ([{section}] {key})") from exc
        if self.levels < 4:
            raise ConfigError(f"levels must be at least 4, got {self.levels}")
        if not 0.0 < self.delta_min < self.delta_max:
            raise ConfigError("need 0 < delta_min < delta_max")
        if self.n_deltas < 2:
            raise ConfigError(f"n_deltas must be at least 2, got {self.n_deltas}")
        if self.n_u < 3:
            raise ConfigError(f"n_u must be at least 3, got {self.n_u}")
        if self.step <= 0.0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.iterations < 1 or self.burn_in < 0 or self.thin < 1:
            raise ConfigError("mala iteration counts out of range")
        if not params.critical:
            warnings.warn(
                f"H*d = {self.H * self.d:.6g} is off the critical line H*d = 1; "
                "the reweighting theory here is calibrated at the critical point",
                RuntimeWarning,
                stacklevel=2,
            )


def _float_list(text: str) -> tuple:
    try:
        vals = tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as exc:
        raise ConfigError(f"cannot parse float list {text!r}") from exc
    if not vals:
        raise ConfigError("empty float list")
    return vals


# INI section -> its RunConfig fields, in file order
_SECTIONS = {
    "model": ("H", "d", "T", "g", "N"),
    "run": ("seed", "paths", "threads", "outdir"),
    "silt": ("eps0", "levels"),
    "holder": ("holder_epsilons", "delta_min", "delta_max", "n_deltas"),
    "density": ("density_eps", "u_max", "n_u", "shift"),
    "mala": ("mala_eps", "step", "burn_in", "iterations", "thin"),
}
# RunConfig field -> (section, key)
_KEYS = {
    name: (section, name.lower().removeprefix(f"{section}_"))
    for section, names in _SECTIONS.items()
    for name in names
}
# RunConfig field -> parser of its INI value or flag
_PARSERS = {f.name: _float_list if f.type is tuple else f.type for f in fields(RunConfig)}
# RunConfig fields of a float or a float list
_FLOAT_FIELDS = tuple(f.name for f in fields(RunConfig) if f.type in (float, tuple))


def _read_ini(text: str, cfg: RunConfig) -> RunConfig:
    """Set the fields INI text names on cfg, rejecting unknown names; the
    values are not validated."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    for section in cp.sections():
        if section not in _SECTIONS:
            known = ", ".join(sorted(_SECTIONS))
            raise ConfigError(f"unknown section [{section}]; known sections: {known}")
        names = {_KEYS[name][1]: name for name in _SECTIONS[section]}
        for key, value in cp.items(section):
            if key not in names:
                known = ", ".join(sorted(names))
                raise ConfigError(
                    f"unknown key {key!r} in section [{section}]; known keys: {known}"
                )
            try:
                setattr(cfg, names[key], _PARSERS[names[key]](value))
            except ValueError as exc:
                raise ConfigError(f"bad value for {section}.{key}: {value!r}") from exc
    return cfg


def _read_file(path, cfg: RunConfig) -> RunConfig:
    """_read_ini on the text of a file."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return _read_ini(text, cfg)


def parse_config(text: str) -> RunConfig:
    """Parse INI text into a validated RunConfig, rejecting unknown names."""
    cfg = _read_ini(text, RunConfig())
    cfg.validate()
    return cfg


def load_config(path) -> RunConfig:
    cfg = _read_file(path, RunConfig())
    cfg.validate()
    return cfg


def dump_config(cfg: RunConfig) -> str:
    """Canonical INI text (fixed section and key order; round-trips through
    parse_config)."""
    out = io.StringIO()
    for section, names in _SECTIONS.items():
        out.write(f"[{section}]\n")
        for name in names:
            val = getattr(cfg, name)
            if isinstance(val, tuple):
                val = ", ".join(repr(v) for v in val)
            out.write(f"{_KEYS[name][1]} = {val}\n")
        out.write("\n")
    return out.getvalue()


def config_hash(cfg: RunConfig) -> str:
    """sha256 of the canonical serialization; keys run manifests."""
    return hashlib.sha256(dump_config(cfg).encode()).hexdigest()
