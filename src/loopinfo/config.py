"""JSON loop descriptions: parsing with field-path diagnostics, and the
inverse serialization so a written config re-parses to an equal model.

Schema:
    plant, controller, feedback_filter:  {"num": [...], "den": [...]}
    channel_noise, output_disturbance:   {"kind": "white"|"colored",
                                          "variance": x,
                                          "shaping": {"num": [...], "den": [...]}}
    options: {"grid_points": n, "log_base": "nats"|"bits",
              "seed": s, "n_samples": n}

plant and controller are required; feedback_filter defaults to identity and
both noises default to white with unit variance. Unknown keys anywhere are
rejected, naming the offending path.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .errors import ConfigError, InvalidInputError
from .lti import TF_ONE, LoopModel, TransferFunction, tf
from .spectral import NoiseSpec

_TOP_KEYS = {
    "plant",
    "controller",
    "feedback_filter",
    "channel_noise",
    "output_disturbance",
    "options",
}
_TF_KEYS = {"num", "den"}
_NOISE_KEYS = {"kind", "variance", "shaping"}
_OPTION_KEYS = {"grid_points", "log_base", "seed", "n_samples"}


@dataclass(frozen=True)
class RunOptions:
    grid_points: int = 4096
    log_base: str = "nats"
    seed: int = 0
    n_samples: int = 2**17


@dataclass(frozen=True)
class LoopConfig:
    model: LoopModel
    options: RunOptions


def _require_mapping(node, path):
    if not isinstance(node, dict):
        raise ConfigError(f"{path}: expected an object, got {type(node).__name__}", field=path)
    return node


def _reject_unknown(node, allowed, path):
    for key in node:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown key", field=f"{path}.{key}")


def _number(x, path, shown=repr) -> float:
    """x as a float: a JSON number (bools are not numbers) that a float can
    hold. A rejected value is named at path, shown by shown; an integer too
    large for a float is not shown, its digits could fill the screen."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise ConfigError(f"{path}: not a number: {shown(x)}", field=path)
    try:
        return float(x)
    except OverflowError:
        raise ConfigError(f"{path}: integer too large for a float", field=path) from None


def _coeffs(node, path):
    if not isinstance(node, list) or not node:
        raise ConfigError(f"{path}: expected a non-empty coefficient array", field=path)
    return [_number(x, f"{path}[{i}]") for i, x in enumerate(node)]


def _transfer(node, path) -> TransferFunction:
    node = _require_mapping(node, path)
    _reject_unknown(node, _TF_KEYS, path)
    if "num" not in node:
        raise ConfigError(f"{path}.num: missing", field=f"{path}.num")
    num = _coeffs(node["num"], f"{path}.num")
    den = _coeffs(node["den"], f"{path}.den") if "den" in node else [1.0]
    try:
        return tf(num, den)
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


def _noise(node, path) -> NoiseSpec:
    node = _require_mapping(node, path)
    _reject_unknown(node, _NOISE_KEYS, path)
    kind = node.get("kind", "white")
    if kind not in ("white", "colored"):
        raise ConfigError(f"{path}.kind: expected white|colored, got {kind!r}",
                          field=f"{path}.kind")
    variance = _number(node.get("variance", 1.0), f"{path}.variance")
    shaping = TF_ONE
    if kind == "colored":
        if "shaping" not in node:
            raise ConfigError(f"{path}.shaping: required for colored noise",
                              field=f"{path}.shaping")
        shaping = _transfer(node["shaping"], f"{path}.shaping")
    elif "shaping" in node:
        raise ConfigError(f"{path}.shaping: not allowed for white noise",
                          field=f"{path}.shaping")
    try:
        return NoiseSpec(variance, shaping)
    except InvalidInputError as exc:
        raise ConfigError(f"{path}: {exc}", field=path) from exc


def _options(node, path) -> RunOptions:
    node = _require_mapping(node, path)
    _reject_unknown(node, _OPTION_KEYS, path)
    out = {}
    for key in ("grid_points", "seed", "n_samples"):
        if key in node:
            val = node[key]
            if isinstance(val, bool) or not isinstance(val, int):
                raise ConfigError(f"{path}.{key}: expected an integer, got {val!r}",
                                  field=f"{path}.{key}")
            out[key] = val
    if "log_base" in node:
        base = node["log_base"]
        if base not in ("nats", "bits"):
            raise ConfigError(f"{path}.log_base: expected nats|bits, got {base!r}",
                              field=f"{path}.log_base")
        out["log_base"] = base
    return RunOptions(**out)


def parse_config(data) -> LoopConfig:
    """Build a LoopConfig from a parsed JSON object or a JSON string."""
    if isinstance(data, (str, bytes)):
        try:
            data = json.loads(data)
        except ValueError as exc:  # a JSONDecodeError, or an integer of over 4300 digits
            raise ConfigError(f"invalid JSON: {exc}") from exc
    data = _require_mapping(data, "config")
    _reject_unknown(data, _TOP_KEYS, "config")
    for key in ("plant", "controller"):
        if key not in data:
            raise ConfigError(f"config.{key}: missing", field=f"config.{key}")

    plant = _transfer(data["plant"], "config.plant")
    controller = _transfer(data["controller"], "config.controller")
    feedback = (
        _transfer(data["feedback_filter"], "config.feedback_filter")
        if "feedback_filter" in data
        else tf([1.0])
    )
    channel = (
        _noise(data["channel_noise"], "config.channel_noise")
        if "channel_noise" in data
        else NoiseSpec(1.0)
    )
    disturbance = (
        _noise(data["output_disturbance"], "config.output_disturbance")
        if "output_disturbance" in data
        else NoiseSpec(1.0)
    )
    options = _options(data.get("options", {}), "config.options")

    try:
        model = LoopModel(
            plant=plant,
            controller=controller,
            feedback_filter=feedback,
            channel_noise=channel,
            output_disturbance=disturbance,
        )
    except InvalidInputError as exc:
        raise ConfigError(f"config: {exc}") from exc
    return LoopConfig(model=model, options=options)


def load_config(path) -> LoopConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config(text)


def _tf_dict(t: TransferFunction) -> dict:
    return {"num": list(t.num.coeffs), "den": list(t.den.coeffs)}


def _noise_dict(spec: NoiseSpec) -> dict:
    if spec.shaping == TF_ONE:
        return {"kind": "white", "variance": spec.variance}
    return {"kind": "colored", "variance": spec.variance, "shaping": _tf_dict(spec.shaping)}


def dump_config(model: LoopModel, options: RunOptions = RunOptions()) -> dict:
    """Serialize a model (plus run options) to the config schema."""
    return {
        "plant": _tf_dict(model.plant),
        "controller": _tf_dict(model.controller),
        "feedback_filter": _tf_dict(model.feedback_filter),
        "channel_noise": _noise_dict(model.channel_noise),
        "output_disturbance": _noise_dict(model.output_disturbance),
        "options": asdict(options),
    }


def write_config(path, model: LoopModel, options: RunOptions = RunOptions()) -> None:
    with open(path, "w") as fh:
        json.dump(dump_config(model, options), fh, indent=2)
        fh.write("\n")
