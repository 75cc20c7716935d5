"""Command-line front end: analyze, verify, simulate, sweep.

Exit codes are a stable contract: 0 success, 1 parse/usage error, 2 unstable
loop or diverged simulation, 3 tolerance failure. All numeric output uses 12
significant digits; rates are nats/sample unless --bits (or the config's
log_base option) asks for bits.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import asdict, replace

from .config import _number, _transfer, load_config
from .decomposition import (
    RateInputs,
    controller_independence_check,
    decompose,
    export_integrands,
    run_identity_suite,
)
from .errors import ConfigError, DivergenceError, LoopInfoError, UnstableLoopError
from .lti import is_stabilizing
from .montecarlo import SimulationConfig, compare_report
from .spectral import FrequencyGrid

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_UNSTABLE = 2
EXIT_TOLERANCE = 3

RESIDUAL_LIMIT = 1e-8


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _r(x: float) -> float:
    """Round a float to 12 significant digits for stable, readable output."""
    return float(f"{x:.12g}")


def _report_json(fields: dict, factor: float = 1.0) -> dict:
    """A report's fields as JSON values: floats rounded by _r and, except the
    unitless rel_gap, scaled by the unit factor; complex poles as [re, im]
    pairs; ints, bools and None unchanged."""

    def value(key, x):
        if isinstance(x, (list, tuple)):
            return [value(key, item) for item in x]
        if isinstance(x, complex):
            return [_r(x.real), _r(x.imag)]
        if isinstance(x, float):
            return _r(x if key == "rel_gap" else x * factor)
        return x

    return {key: value(key, x) for key, x in fields.items()}


def _json(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def cmd_analyze(args, cfg, factor, units, grid):
    stab = is_stabilizing(cfg.model)
    if not stab.is_stabilizing:
        return _json({"stability": _report_json(asdict(stab))}), EXIT_UNSTABLE

    inputs = RateInputs(cfg.model, grid)
    report = decompose(inputs)

    doc = {
        "stability": _report_json(asdict(stab)),
        "units": units,
        "rate": _report_json(asdict(report), factor),
    }
    if args.integrands:
        export_integrands(inputs, args.integrands)
    return _json(doc), EXIT_OK


def _parse_controller(spec_pair):
    num_text, den_text = spec_pair
    try:
        node = {"num": json.loads(num_text), "den": json.loads(den_text)}
    except ValueError as exc:
        raise ConfigError(f"bad --alt-controller coefficients: {exc}") from exc
    return _transfer(node, "--alt-controller")


def _verify_random(args):
    """verify --random N: the identity suite, which reads no config."""
    given = {"a config path": args.config is not None,
             "--alt-controller": args.alt_controller, "--bits": args.bits}
    unread = [flag for flag, is_given in given.items() if is_given]
    if unread:
        raise ConfigError(f"verify --random does not read {', '.join(unread)}")
    if args.random < 0:
        raise ConfigError(f"--random needs a case count >= 0, got {args.random}")
    grid = FrequencyGrid(args.grid) if args.grid is not None else FrequencyGrid()
    cases = run_identity_suite(args.random, seed=args.seed or 0, grid=grid)
    residuals = [abs(c.report.residual) for c in cases]
    gaps = [c.proof_chain_gap for c in cases]
    ok = sum(1 for r in residuals if r < RESIDUAL_LIMIT)
    doc = {
        "cases": len(cases),
        "identities_pass": ok,
        "max_residual": _r(max(residuals)) if residuals else 0.0,
        "max_proof_chain_gap": _r(max(gaps)) if gaps else 0.0,
        "passed": ok == len(cases),
        "note": f"{ok}/{len(cases)} identities PASS"
        + (" (0 cases: vacuous)" if not cases else ""),
    }
    return _json(doc), EXIT_OK if doc["passed"] else EXIT_TOLERANCE


def cmd_verify(args, cfg, factor, units, grid):
    report = decompose(RateInputs(cfg.model, grid))
    controllers = [cfg.model.controller] + [
        _parse_controller(pair) for pair in (args.alt_controller or [])
    ]
    independence = controller_independence_check(cfg.model, controllers, grid)

    doc = {
        "units": units,
        "residual": _r(report.residual * factor),
        "residual_pass": abs(report.residual) < RESIDUAL_LIMIT,
        "independence": _report_json(asdict(independence), factor),
        "grid_points": grid.n_points,
    }
    passed = doc["residual_pass"] and independence.passed
    return _json(doc), EXIT_OK if passed else EXIT_TOLERANCE


def cmd_simulate(args, cfg, factor, units, grid):
    seed = args.seed if args.seed is not None else cfg.options.seed
    sim = SimulationConfig(cfg.model, n_samples=cfg.options.n_samples, seed=seed)
    record = compare_report(sim, tolerance=args.tolerance, grid=grid)

    doc = {"units": units, **_report_json(asdict(record), factor)}
    return _json(doc), EXIT_OK if record.passed else EXIT_TOLERANCE


def _parse_values(text: str):
    """A JSON number or list of numbers (bools and strings are not numbers),
    else comma-separated tokens parsed as floats; blank text is no values."""
    text = text.strip()
    if not text:
        return []
    try:
        parsed = json.loads(text)
    except ValueError:
        try:
            return [float(tok) for tok in text.split(",") if tok.strip()]
        except ValueError as exc:
            raise ConfigError(f"bad --values list: {exc}") from exc
    items = parsed if isinstance(parsed, list) else [parsed]
    return [_number(x, f"--values[{i}]", json.dumps) for i, x in enumerate(items)]


def cmd_sweep(args, cfg, factor, units, grid):
    values = _parse_values(args.values)
    lines = ["value,total,control,disturbance"]
    for val in values:
        if args.param == "sigma_v2":
            noise = replace(cfg.model.output_disturbance, variance=val)
            model = replace(cfg.model, output_disturbance=noise)
        else:
            noise = replace(cfg.model.channel_noise, variance=val)
            model = replace(cfg.model, channel_noise=noise)
        report = decompose(RateInputs(model, grid))
        lines.append(
            f"{val:.12g},{report.total_rate * factor:.12g},"
            f"{report.control_term * factor:.12g},"
            f"{report.disturbance_term * factor:.12g}"
        )
    return "\n".join(lines) + "\n", EXIT_OK


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--grid", type=int, metavar="N",
                        help="frequency grid size (power of two)")
    common.add_argument("--bits", action="store_true",
                        help="report rates in bits/sample")
    common.add_argument("--output", metavar="PATH",
                        help="write the report here instead of stdout")

    parser = _Parser(prog="loopinfo",
                     description="feedback-channel information rate toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[common],
                       help="decompose the rate of one configured loop")
    p.add_argument("config", help="JSON loop description")
    p.add_argument("--integrands", metavar="PATH",
                   help="also write per-frequency integrands as CSV")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", parents=[common],
                       help="check the decomposition identity and controller independence")
    p.add_argument("config", nargs="?", help="JSON loop description")
    p.add_argument("--random", type=int, metavar="N",
                   help="run the randomized identity suite instead")
    p.add_argument("--seed", type=int, metavar="S",
                   help="seed of the randomized identity suite (default 0; --random only)")
    p.add_argument("--alt-controller", nargs=2, action="append",
                   metavar=("NUM", "DEN"),
                   help="extra stabilizing controller as two JSON coefficient arrays")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("simulate", parents=[common],
                       help="Monte Carlo validation of the analytic rate")
    p.add_argument("config", help="JSON loop description")
    p.add_argument("--tolerance", type=float, default=0.03, metavar="T",
                   help="absolute pass tolerance in nats (default 0.03)")
    p.add_argument("--seed", type=int, metavar="S",
                   help="override the config seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", parents=[common],
                       help="sweep a noise variance and tabulate the terms")
    p.add_argument("config", help="JSON loop description")
    p.add_argument("--param", required=True, choices=("sigma_v2", "sigma_w2"))
    p.add_argument("--values", required=True,
                   help="comma-separated or JSON list of variances")
    p.set_defaults(func=cmd_sweep)

    return parser


def _run(args):
    """The subcommand's report text and exit code. Every mode but verify
    --random reads a config, whose units and grid are worked out here."""
    if args.command == "verify":
        if args.random is not None:
            return _verify_random(args)
        if args.config is None:
            raise ConfigError("verify needs a config path or --random N")
        if args.seed is not None:
            raise ConfigError("verify reads --seed only with --random")
    cfg = load_config(args.config)
    bits = args.bits or cfg.options.log_base == "bits"
    factor, units = (1.0 / math.log(2.0), "bits/sample") if bits else (1.0, "nats/sample")
    grid = FrequencyGrid(args.grid if args.grid is not None else cfg.options.grid_points)
    return args.func(args, cfg, factor, units, grid)


def _run_showing_each_warning_once(args):
    """_run, each distinct warning shown once, after the run: verify's
    decompose and independence check compare against the same exact Jensen
    values and warn alike. The caller's filters still decide what is shown,
    and an "error" filter still raises at the first."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            return _run(args)
    finally:
        shown = set()
        for w in caught:
            key = (w.category, str(w.message))
            if key not in shown:
                shown.add(key)
                warnings.showwarning(w.message, w.category, w.filename, w.lineno)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, code = _run_showing_each_warning_once(args)
        if args.output:
            with open(args.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        return code
    except (UnstableLoopError, DivergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNSTABLE
    except LoopInfoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
