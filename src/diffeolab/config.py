"""INI-style experiment configuration.

One file drives one experiment: an ``[experiment]`` section picks the command
and worker count, ``[generators]`` defines the generating set (explicit
family specs or the built-in presets ``pp`` and ``wreath``) and one section
per command carries its parameters.  Generator specs are single lines:

    f = mobius lam=2
    g = spline knots=0:0,0.1:0.651,0.9:0.749,1:1 end_slopes=1,1
    h = blend base=f t=0.01
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field

from .errors import ConfigError
from .generators import GeneratorMap, GeneratorSet, blend, build_pp, mobius, polybump, spline

COMMANDS = ("flatten", "transport", "collision", "wreath", "probe",
            "growth", "certify")


@dataclass
class ExperimentConfig:
    command: str
    threads: int = 1
    time_budget_s: float | None = 120.0
    out_dir: str = "out"
    generators: dict = field(default_factory=dict)   # raw [generators] options
    params: dict = field(default_factory=dict)       # raw command section
    wreath: dict = field(default_factory=dict)       # raw [wreath] section


def _parse_kv(tokens):
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"expected key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        out[k] = v
    return out


def _parse_knots(text):
    knots = []
    for part in text.split(","):
        x, _, y = part.partition(":")
        knots.append((float(x), float(y)))
    return knots


def parse_generator_spec(gid: str, spec: str,
                         built: dict[str, GeneratorMap]) -> GeneratorMap:
    tokens = spec.split()
    if not tokens:
        raise ConfigError(f"empty generator spec for {gid!r}")
    family, kv = tokens[0], _parse_kv(tokens[1:])
    try:
        if family == "mobius":
            return mobius(gid, float(kv["lam"]))
        if family == "polybump":
            return polybump(gid, float(kv["c"]))
        if family == "spline":
            ends = tuple(float(t) for t in kv.get("end_slopes", "1,1").split(","))
            return spline(gid, _parse_knots(kv["knots"]), end_slopes=ends)
        if family == "blend":
            base = built.get(kv["base"])
            if base is None:
                raise ConfigError(f"blend base {kv['base']!r} not defined before {gid!r}")
            return blend(gid, base, float(kv["t"]))
    except KeyError as exc:
        raise ConfigError(f"generator {gid!r} is missing parameter {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"generator {gid!r}: {exc}") from None
    raise ConfigError(f"unknown generator family {family!r}")


def build_generator_set(cfg: ExperimentConfig):
    """Returns (GeneratorSet, wreath_pair_or_None)."""
    from .zassenhaus.wreath import build_wreath_pair

    opts = dict(cfg.generators)
    preset = opts.pop("preset", None)
    if preset == "pp":
        if opts:
            raise ConfigError("preset pp takes no extra generator lines")
        return build_pp(), None
    if preset == "wreath":
        pair = build_wreath_pair(**wreath_args(cfg.wreath))
        return pair.generator_set, pair
    if preset is not None:
        raise ConfigError(f"unknown preset {preset!r}")
    built: dict[str, GeneratorMap] = {}
    for gid, spec in opts.items():
        built[gid] = parse_generator_spec(gid, spec, built)
    if not built:
        raise ConfigError("no generators defined")
    return GeneratorSet(built.values()), None


def load_config(path: str) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path, encoding="utf-8")
        sections = {name: dict(parser[name]) for name in parser.sections()}
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"malformed config file {path!r}: {exc}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path!r}")
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    exp = sections["experiment"]
    command = exp.get("command", "").strip()
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}")
    budget = exp.get("time_budget", "120").strip()
    cfg = ExperimentConfig(
        command=command,
        threads=ival(exp, "threads", 1),
        time_budget_s=(None if budget in ("", "none")
                       else fval(exp, "time_budget", 120.0)),
        out_dir=exp.get("out", "out"),
        generators=sections.get("generators", {}),
        params=sections.get(command, {}),
        wreath=sections.get("wreath", {}),
    )
    if cfg.threads < 1:
        raise ConfigError("threads must be positive")
    if cfg.time_budget_s is not None and not cfg.time_budget_s > 0:
        raise ConfigError("time_budget must be positive, or none")
    return cfg


def fval(params: dict, key: str, default=None) -> float:
    return _number(params, key, default, float, "a number")


def ival(params: dict, key: str, default=None) -> int:
    return _number(params, key, default, int, "an integer")


def _number(params: dict, key: str, default, kind, what: str):
    if key not in params:
        if default is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return default
    try:
        return kind(params[key])
    except ValueError:
        raise ConfigError(f"parameter {key!r} is not {what}") from None


def pair_val(params: dict, key: str, default: str) -> tuple[float, float]:
    raw = params.get(key, default)
    parts = [p for p in raw.replace(",", " ").split() if p]
    try:
        a, b = map(float, parts)
    except ValueError:
        raise ConfigError(f"parameter {key!r} needs two numbers") from None
    return a, b


def wreath_args(w: dict) -> dict:
    """``build_wreath_pair``'s epsilon, core and k from a [wreath] section."""
    return {"epsilon": fval(w, "epsilon", 0.1),
            "core": pair_val(w, "core", "0.40,0.42"),
            "k": ival(w, "k", 3)}
