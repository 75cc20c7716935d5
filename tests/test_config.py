"""Config schema: parsing, validation messages, and round-tripping."""

import json
from dataclasses import replace

import pytest

from loopinfo import ConfigError, colored, parse_config, white
from loopinfo.config import RunOptions, dump_config, load_config, write_config
from loopinfo.lti import TF_ONE


HUGE = int("1" + "0" * 400)


def minimal():
    return {
        "plant": {"num": [0.0, 1.0], "den": [1.0, -2.0]},
        "controller": {"num": [-2.0]},
    }


def test_parse_minimal_defaults():
    cfg = parse_config(minimal())
    m = cfg.model
    assert m.plant.num.coeffs == (0.0, 1.0)
    assert m.controller.den.coeffs == (1.0,)
    assert m.feedback_filter.num.coeffs == (1.0,)
    assert m.channel_noise == white(1.0)
    assert cfg.options == RunOptions()


def test_parse_accepts_json_string():
    cfg = parse_config(json.dumps(minimal()))
    assert cfg.model.plant.den.coeffs == (1.0, -2.0)


def test_parse_full_schema():
    data = minimal()
    data["feedback_filter"] = {"num": [1.0, 0.5], "den": [1.0, -0.3]}
    data["channel_noise"] = {"kind": "white", "variance": 2.0}
    data["output_disturbance"] = {
        "kind": "colored",
        "variance": 0.5,
        "shaping": {"num": [1.0], "den": [1.0, -0.5]},
    }
    data["options"] = {"grid_points": 1024, "log_base": "bits", "seed": 7, "n_samples": 4096}
    cfg = parse_config(data)
    assert cfg.model.output_disturbance.shaping.den.coeffs == (1.0, -0.5)
    assert cfg.options.grid_points == 1024
    assert cfg.options.log_base == "bits"


@pytest.mark.parametrize(
    "mutate, fragment",
    [
        (lambda d: d.pop("plant"), "config.plant"),
        (lambda d: d.pop("controller"), "config.controller"),
        (lambda d: d.update(extra=1), "config.extra"),
        (lambda d: d["plant"].update(num=[0.0, "x"]), "config.plant.num[1]"),
        (lambda d: d["plant"].update(num=[]), "config.plant.num"),
        (lambda d: d["plant"].update(num=[0.0, True]), "config.plant.num[1]"),
        (lambda d: d.update(options={"grid_points": "big"}), "config.options.grid_points"),
        (lambda d: d.update(options={"log_base": "dits"}), "config.options.log_base"),
        (lambda d: d.update(channel_noise={"kind": "pink"}), "config.channel_noise.kind"),
        (lambda d: d.update(channel_noise={"variance": -1.0}), "config.channel_noise"),
        (
            lambda d: d.update(channel_noise={"kind": "colored", "variance": 1.0}),
            "config.channel_noise.shaping",
        ),
        (
            lambda d: d.update(
                channel_noise={"shaping": {"num": [1.0]}}
            ),
            "config.channel_noise.shaping",
        ),
        (lambda d: d["plant"].update(den=[0.0, 1.0]), "config.plant"),
        (lambda d: d.update(plant=[0.0, 1.0]), "config.plant: expected an object, got list"),
        (lambda d: d["plant"].pop("num"), "config.plant.num: missing"),
        # integers that no float can hold, named without their digits
        (lambda d: d["plant"].update(num=[0.0, HUGE]),
         "config.plant.num[1]: integer too large for a float"),
        (lambda d: d.update(output_disturbance={"variance": HUGE}),
         "config.output_disturbance.variance: integer too large for a float"),
    ],
)
def test_parse_errors_name_the_field(mutate, fragment):
    data = minimal()
    mutate(data)
    with pytest.raises(ConfigError) as err:
        parse_config(data)
    assert fragment in str(err.value)


def test_integer_past_the_conversion_limit_is_a_config_error():
    # json.loads refuses integers of over 4300 digits with a bare ValueError
    text = json.dumps(minimal()).replace("-2.0]", "1" + "0" * 5000 + "]", 1)
    with pytest.raises(ConfigError, match="invalid JSON"):
        parse_config(text)


def test_parse_rejects_improper_loop():
    data = {"plant": {"num": [1.0]}, "controller": {"num": [1.0]}}
    with pytest.raises(ConfigError):
        parse_config(data)


def test_parse_rejects_malformed_json():
    with pytest.raises(ConfigError):
        parse_config("{not json")


def test_round_trip_preserves_model(tmp_path):
    data = minimal()
    data["output_disturbance"] = {
        "kind": "colored",
        "variance": 0.5,
        "shaping": {"num": [1.0], "den": [1.0, -0.5]},
    }
    cfg = parse_config(data)
    path = tmp_path / "loop.json"
    write_config(path, cfg.model, cfg.options)
    back = load_config(path)
    assert back.model == cfg.model
    assert back.options == cfg.options


def test_dump_config_matches_schema():
    model = parse_config(minimal()).model
    d = dump_config(model)
    assert set(d) == {
        "plant",
        "controller",
        "feedback_filter",
        "channel_noise",
        "output_disturbance",
        "options",
    }
    # dumped output must itself parse
    assert parse_config(d).model == model


def test_colored_source_with_unit_shaping_round_trips_as_white():
    """kind is worked out from the shaping: a unit-shaped source is written
    as white and parses back to an equal model."""
    base = parse_config(minimal()).model
    model = replace(base, output_disturbance=colored(0.5, TF_ONE))
    d = dump_config(model)
    assert d["output_disturbance"] == {"kind": "white", "variance": 0.5}
    assert parse_config(json.dumps(d)).model == model


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.json")
