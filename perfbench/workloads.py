"""Seeded inputs, ops and checks of the three benchmark workloads.

Inputs are loop descriptions in loopinfo's JSON config schema, drawn by the
generators below from ``numpy.random.default_rng([seed, workload number])``.
They do not use ``random_stabilized_loop`` or ``run_identity_suite``, so a
change to the library cannot change a workload.  Every op starts from such a
description and ends with its checks; a check that fails makes the op fail.

loopinfo is reached through its module objects (``lti.close_loop``, never a
name imported from it) so that the tracer in spans.py can wrap every call.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from loopinfo import config, decomposition, errors, lti, montecarlo, spectral

# The library's own limits, restated here so that loosening them in the
# library does not loosen the benchmark.
RESIDUAL_LIMIT = 1e-8  # loopinfo.cli.RESIDUAL_LIMIT
CROSS_CHECK_TOL = 1e-10  # loopinfo.decomposition.CROSS_CHECK_TOL
INDEPENDENCE_TOL = 1e-9  # IndependenceReport.tolerance
MC_TOLERANCE = 0.03  # the CLI's simulate default, acceptance criterion 6
# Closed forms are held to the tolerance of acceptance criteria 2 and 3.
CLOSED_FORM_TOL = 1e-6
# A shaping root this close to the unit circle is a "near-circle" input:
# on grids of up to KNOWN_DEFECT_GRID points the fixed-grid quadrature is
# known to miss its closed form (ROADMAP 2c).  On a finer grid a miss is a
# new failure.
NEAR_CIRCLE = 2e-3
KNOWN_DEFECT_GRID = 4096

MC_SAMPLES = 2**17
FINE_GRID = 65536


# ---------------------------------------------------------------------------
# Closed forms, computed from coefficient lists without the library.


def _z_roots(coeffs) -> np.ndarray:
    """z-plane roots of an ascending-in-delay coefficient list."""
    c = np.trim_zeros(np.asarray(coeffs, dtype=float), "b")
    return np.roots(c) if len(c) > 1 else np.zeros(0)


def bode_closed_form(cfg: dict) -> float:
    """Sum of ln|lambda| over the unstable poles of P, K and H."""
    total = 0.0
    for key in ("plant", "controller", "feedback_filter"):
        mags = np.abs(_z_roots(cfg[key]["den"]))
        total += float(np.sum(np.log(np.maximum(1.0, mags))))
    return total


def _first_order_factor(s: float, m: float) -> float:
    """(1/2pi) * integral of ln(s - 2m cos w): ln of the spectral-factor gain c
    with c(1 + b^2) = s, c*b = m, |b| < 1."""
    m = abs(m)
    return math.log(0.5 * (s + math.sqrt((s - 2.0 * m) * (s + 2.0 * m))))


def disturbance_closed_form(cfg: dict) -> float | None:
    """(1/2pi) * integral of (1/2) ln(1 + |H|^2 S_V/S_W) for |H| = 1 (a signed
    pure delay), white channel noise and a white, one-pole or one-zero
    disturbance; None otherwise."""
    h = cfg["feedback_filter"]
    taps = [x for x in h["num"] if x != 0.0]
    if h["den"] != [1.0] or len(taps) != 1 or abs(taps[0]) != 1.0:
        return None
    w, v = cfg["channel_noise"], cfg["output_disturbance"]
    if w["kind"] != "white":
        return None
    q = v["variance"] / w["variance"]
    if v["kind"] == "white":
        return 0.5 * math.log1p(q)
    num, den = v["shaping"]["num"], v["shaping"]["den"]
    if num == [1.0] and len(den) == 2:  # 1/(1 - a d)
        a = -den[1]
        return 0.5 * _first_order_factor(1.0 + a * a + q, a)
    if den == [1.0] and len(num) == 2:  # 1 - c d
        c = -num[1]
        return 0.5 * _first_order_factor(1.0 + q * (1.0 + c * c), q * c)
    return None


def near_circle(cfg: dict) -> bool:
    """True when a noise shaping filter has a root within NEAR_CIRCLE of |z| = 1."""
    for key in ("channel_noise", "output_disturbance"):
        shaping = cfg[key].get("shaping")
        if shaping is None:
            continue
        roots = np.concatenate([_z_roots(shaping["num"]), _z_roots(shaping["den"])])
        if np.any(np.abs(np.abs(roots) - 1.0) < NEAR_CIRCLE):
            return True
    return False


def unstable_controller(cfg: dict) -> bool:
    return bool(np.any(np.abs(_z_roots(cfg["controller"]["den"])) >= 1.0))


# ---------------------------------------------------------------------------
# Generators.


def _tf_dict(num, den=(1.0,)) -> dict:
    return {"num": [float(x) for x in num], "den": [float(x) for x in den]}


def _poly(roots) -> list[float]:
    """Ascending delay coefficients of prod (1 - r d)."""
    c = np.array([1.0 + 0j])
    for r in roots:
        c = np.convolve(c, [1.0, -r])
    return [float(x) for x in c.real]


def _poles(rng, count: int, lo: float, hi: float) -> list[complex]:
    """count conjugate-closed poles with magnitudes in [lo, hi]."""
    out: list[complex] = []
    while len(out) < count:
        r = rng.uniform(lo, hi)
        if count - len(out) >= 2 and rng.random() < 0.4:
            th = rng.uniform(0.15, math.pi - 0.15)
            out += [r * complex(math.cos(th), math.sin(th)),
                    r * complex(math.cos(th), -math.sin(th))]
        else:
            out.append(complex(rng.choice([-1.0, 1.0]) * r))
    return out


def _noise(rng, variance: float, shaped: bool) -> dict:
    if not shaped or variance == 0.0:
        return {"kind": "white", "variance": variance}
    c = float(rng.uniform(-0.6, 0.6))
    shaping = _tf_dict([1.0], [1.0, -c]) if rng.random() < 0.5 else _tf_dict([1.0, -c])
    return {"kind": "colored", "variance": variance, "shaping": shaping}


def _one_pole(variance: float, a: float) -> dict:
    return {"kind": "colored", "variance": variance, "shaping": _tf_dict([1.0], [1.0, -a])}


def _place(rng, path, want_unstable: bool | None, tries: int = 200):
    """Pole-placement controller for path, closed-loop poles drawn inside
    |z| <= 0.5.  want_unstable asks for a controller with (True) or without
    (False) an unstable pole; every controller pole stays 0.05 off the circle."""
    m = path.den.degree
    for _ in range(tries):
        try:
            k = lti.pole_placement_controller(path, _poles(rng, 2 * m - 1, 0.0, 0.5))
        except errors.LoopInfoError:  # e.g. a singular Sylvester system for this draw
            continue
        mags = np.abs(_z_roots(k.den.coeffs))
        if np.any(np.abs(mags - 1.0) < 0.05):
            continue
        if want_unstable is None or bool(np.any(mags > 1.0)) == want_unstable:
            return k
    return None


def _stable_margin(cfg: dict, limit: float) -> bool:
    model = config.parse_config(cfg).model
    rep = lti.is_stabilizing(model)
    return rep.is_stabilizing and max((abs(p) for p in rep.closed_loop_poles), default=0.0) < limit


@dataclass
class Case:
    name: str
    cfg: dict
    bode: float
    disturbance: float | None
    known_bode: bool  # an unstable controller pole: bode_analytic misses it (ROADMAP 2a)
    known_grid: bool  # a near-circle shaping root: a coarse grid misses the closed form (2c)

    def grid_defect_known(self, grid_points: int) -> bool:
        return self.known_grid and grid_points <= KNOWN_DEFECT_GRID


def make_case(name: str, cfg: dict) -> Case:
    return Case(name, cfg, bode_closed_form(cfg), disturbance_closed_form(cfg),
                unstable_controller(cfg), near_circle(cfg))


@dataclass(frozen=True)
class Shape:
    """The structure of one identity-suite loop, fixed by its index so that
    every seed gives the same mix of op costs and of known-defect cases.

    kind is "stable_k" (a stable controller), "unstable_k" (every stabilizing
    controller is unstable: a real unstable zero between the unit circle and
    a real unstable pole breaks parity interlacing) or "hard<a>" (H = 1,
    white channel noise, a disturbance pole at a)."""

    kind: str
    order: int  # plant order
    unstable_plant: bool
    dynamic_h: bool
    colored_w: bool
    colored_v: bool
    silent_v: bool  # zero disturbance variance
    static_k: bool  # a static gain instead of pole placement (stable plants)


HARD_POLES = (0.999, 0.9999, -0.999, -0.9999)
IDENTITY_LOOPS = 200
UNSTABLE_CONTROLLER_LOOPS = 20


def identity_shapes() -> list[Shape]:
    shapes = []
    for i in range(IDENTITY_LOOPS):
        if i < len(HARD_POLES):
            kind = f"hard{HARD_POLES[i]}"
        elif i < len(HARD_POLES) + UNSTABLE_CONTROLLER_LOOPS:
            kind = "unstable_k"
        else:
            kind = "stable_k"
        plain = kind == "stable_k"
        unstable_plant = kind == "unstable_k" or (i // 4) % 2 == 0
        noise_digit = (i // 16) % 5
        shapes.append(Shape(
            kind=kind,
            order=2 + i % 3 if kind == "unstable_k" else 1 + i % 4,
            unstable_plant=unstable_plant,
            dynamic_h=plain and (i // 8) % 2 == 1,
            colored_w=plain and noise_digit < 2,
            colored_v=plain and noise_digit in (1, 2),
            silent_v=plain and i % 10 == 9,
            static_k=plain and not unstable_plant and (i // 8) % 10 < 3,
        ))
    return shapes


def _random_loop(rng, shape: Shape) -> dict | None:
    """Draw the values of one identity-suite loop; None if the draw is rejected."""
    order = shape.order
    if shape.kind == "unstable_k":
        sign = float(rng.choice([-1.0, 1.0]))
        p = sign * rng.uniform(1.6, 2.5)
        poles = [complex(p)] + _poles(rng, order - 1, 0.0, 0.7)
        zero = sign * rng.uniform(1.1, abs(p) - 0.3)
        num = [x * float(rng.uniform(0.5, 2.0)) for x in [0.0] + _poly([zero])]
    else:
        if shape.unstable_plant:
            n_unstable = int(rng.integers(1, order + 1))
            poles = _poles(rng, n_unstable, 1.1, 2.5) + _poles(rng, order - n_unstable, 0.0, 0.7)
        else:
            poles = _poles(rng, order, 0.0, 0.7)
        num = [0.0, float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]))]
        if order >= 2 and rng.random() < 0.5:
            num.append(float(rng.uniform(-0.8, 0.8)))
    plant = _tf_dict(num, _poly(poles))

    if shape.dynamic_h:
        feedback = _tf_dict([1.0, rng.uniform(-0.9, 0.9)], [1.0, rng.uniform(-0.5, 0.5)])
    else:
        feedback = _tf_dict([1.0])

    sigma_w = float(rng.uniform(0.3, 3.0))
    sigma_v = 0.0 if shape.silent_v else float(rng.uniform(0.3, 3.0))
    channel = _noise(rng, sigma_w, shape.colored_w)
    if shape.kind.startswith("hard"):
        disturbance = _one_pole(sigma_v, float(shape.kind[4:]))
    else:
        disturbance = _noise(rng, sigma_v, shape.colored_v)

    if shape.static_k:
        controller = _tf_dict([rng.uniform(-0.3, 0.3)])
    else:
        path = lti.tf(plant["num"], plant["den"]) * lti.tf(feedback["num"], feedback["den"])
        k = _place(rng, path, shape.kind == "unstable_k")
        if k is None:
            return None
        controller = _tf_dict(k.num.coeffs, k.den.coeffs)
    cfg = {"plant": plant, "controller": controller, "feedback_filter": feedback,
           "channel_noise": channel, "output_disturbance": disturbance}
    return cfg if _stable_margin(cfg, 0.9) else None


def identity_cases(seed: int) -> list[Case]:
    """200 loops: 4 near-circle hard cases, 20 loops whose every stabilizing
    controller is unstable, and 176 mixed loops (plant order 1-4, stable and
    unstable plants, dynamic H on half, colored noises on 40% each)."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for i, shape in enumerate(identity_shapes()):
        cfg = None
        while cfg is None:
            cfg = _random_loop(rng, shape)
        cases.append(make_case(f"loop{i:03d}:{shape.kind}-n{shape.order}", cfg))
    return cases


# ---------------------------------------------------------------------------
# Ops.  Each returns the list of failed checks as (check, known) pairs.


@dataclass
class Tally:
    """Counts and worst-case accuracy figures of one pass over the inputs."""

    counts: dict = field(default_factory=dict)
    worst: dict = field(default_factory=dict)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def max(self, name: str, value: float) -> None:
        self.worst[name] = max(self.worst.get(name, 0.0), float(value))


class _Checks:
    def __init__(self):
        self.failed: list[tuple[str, bool]] = []

    def require(self, name: str, ok: bool, known: bool = False) -> None:
        if not ok:
            self.failed.append((name, known))

    def within(self, name: str, gap: float, tol: float, known: bool = False) -> None:
        self.require(name, gap <= tol, known)  # a NaN gap fails


def _refinements(caught) -> int:
    return sum("refining the grid" in str(w.message) for w in caught)


def check_report(case: Case, report, checks: _Checks, tally: Tally | None) -> None:
    """Checks on one DecompositionReport against the case's closed forms."""
    checks.within("residual", abs(report.residual), RESIDUAL_LIMIT)
    bode_gap = abs(report.bode_analytic - case.bode)
    checks.within("bode_analytic", bode_gap, CLOSED_FORM_TOL, known=case.known_bode)
    checks.within("control_closed_form", abs(report.control_term - case.bode), CLOSED_FORM_TOL)
    rate_err = 0.0
    if case.disturbance is not None:
        known = case.grid_defect_known(report.grid_points)
        checks.within("disturbance_closed_form",
                      abs(report.disturbance_term - case.disturbance),
                      CLOSED_FORM_TOL, known=known)
        rate_err = abs(report.total_rate - case.bode - case.disturbance)
        checks.within("rate_closed_form", rate_err, CLOSED_FORM_TOL, known=known)
    if tally is not None:
        tally.count("decomposition.bode_mismatches", int(bode_gap > CLOSED_FORM_TOL))
        tally.max("decomposition.max_residual", abs(report.residual))
        tally.max("decomposition.max_rate_err", rate_err)
        tally.max("decomposition.max_convergence_estimate", report.convergence_estimate)


def verify_loop(case: Case, grid, tracer, tally: Tally | None) -> list:
    """One verified loop: what `loopinfo verify` does for a config, plus the
    entropy route, the direct rate, a return-difference route for the control
    term and the closed forms."""
    checks = _Checks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = config.parse_config(case.cfg).model
        if not lti.is_stabilizing(model).is_stabilizing:
            return [("stabilizing", False)]
        report = decomposition.decompose(decomposition.RateInputs(model, grid))

        cl = lti.close_loop(model)
        sw = spectral.noise_psd(model.channel_noise, grid)
        sv = spectral.noise_psd(model.output_disturbance, grid)
        sy = spectral.output_psd(cl, sw, sv)
        with tracer.span("decomposition.entropy_route"):
            chain = (decomposition.gaussian_entropy_rate(sy)
                     - decomposition.gaussian_entropy_rate(sw))
        direct = spectral.log_integral(spectral.sensitivity_ratio(sy, sw))
        om = grid.omegas
        loop_gain = (lti.freq_response_array(model.plant, om)
                     * lti.freq_response_array(model.controller, om)
                     * lti.freq_response_array(model.feedback_filter, om))
        control_route = -float(np.mean(np.log(np.abs(1.0 - loop_gain))))

    entropy_gap = abs(report.total_rate - chain)
    checks.within("entropy_route", entropy_gap, CROSS_CHECK_TOL)
    checks.within("direct_rate", abs(report.total_rate - direct), CROSS_CHECK_TOL)
    checks.within("control_route", abs(report.control_term - control_route), CROSS_CHECK_TOL)
    check_report(case, report, checks, tally)
    if tally is not None:
        tally.count("decomposition.refinements", _refinements(caught))
        tally.max("decomposition.max_entropy_gap", entropy_gap)
    return checks.failed


def independence(case: Case, controllers: list[dict], grid, tally: Tally | None) -> list:
    """controller_independence_check over several stabilizing controllers,
    with each disturbance term held to the closed form as well."""
    checks = _Checks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        model = config.parse_config(case.cfg).model
        ks = [lti.tf(k["num"], k["den"]) for k in controllers]
        report = decomposition.controller_independence_check(model, ks, grid)
    checks.require("independence", report.passed)
    checks.within("independence_deviation", report.max_deviation, INDEPENDENCE_TOL)
    for term in report.disturbance_terms:
        checks.within("disturbance_closed_form", abs(term - case.disturbance),
                      CLOSED_FORM_TOL, known=case.grid_defect_known(grid.n_points))
    if tally is not None:
        tally.count("decomposition.refinements", _refinements(caught))
    return checks.failed


@dataclass
class McCase:
    case: Case
    update_order: str  # which element breaks the algebraic loop


def compare(mc: McCase, seed: int, grid, tally: Tally | None, records: dict,
            n_samples: int = MC_SAMPLES) -> list:
    """One compare_report (2^17 samples by default), held to 0.03 nats and,
    where the loop has one, to the closed-form rate."""
    checks = _Checks()
    case = mc.case
    with warnings.catch_warnings(record=True):
        warnings.simplefilter("always")
        model = config.parse_config(case.cfg).model
        sim = montecarlo.SimulationConfig(model, n_samples=n_samples, seed=seed)
        rec = montecarlo.compare_report(sim, tolerance=MC_TOLERANCE, grid=grid)
    records.setdefault(case.name, []).append((seed, rec))
    # A single seed may miss; the run-level median rule in run.py decides.
    checks.require("mc_gap", rec.passed, known=True)
    if case.disturbance is not None:
        checks.within("rate_closed_form",
                      abs(rec.analytic_rate - case.bode - case.disturbance),
                      CLOSED_FORM_TOL, known=case.grid_defect_known(grid.n_points))
    if tally is not None:
        tally.count("montecarlo.floored_bins", rec.floored_bins)
        tally.max("montecarlo.max_abs_gap", rec.abs_gap)
    return checks.failed


# ---------------------------------------------------------------------------
# fine-grid and monte-carlo inputs.

FINE_POLES = (0.5, 0.9, 0.99, 0.999, 0.9999)
# Four independence checks of equal cost per pass keep at least eleven of
# them in any run of three or more passes, so the tail percentile always
# falls among them rather than on the boundary with the decompose ops.
INDEPENDENCE_POLES = (0.5, 0.9, 0.99, 0.999)


@dataclass
class FineGrid:
    cases: list[Case]
    independence: list[tuple[Case, list[dict]]]


def fine_grid_inputs(seed: int) -> FineGrid:
    """One unstable second-order plant under H = 1 and four pole-placement
    controllers, the first of them stable.  Six closed-form loops under the
    first controller (white disturbance, then one-pole disturbances at
    FINE_POLES) and four independence checks (disturbance poles at
    INDEPENDENCE_POLES, four controllers each)."""
    rng = np.random.default_rng([seed, 2])
    while True:
        p = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.3, 2.5))
        q = float(rng.uniform(-0.6, 0.6))
        num = [0.0, float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0)),
               float(rng.uniform(-0.4, 0.4))]
        plant = _tf_dict(num, _poly([p, q]))
        path = lti.tf(plant["num"], plant["den"])
        # The closed-form loops use a stable controller on every seed, so
        # the seed does not change how many ops the unstable-controller
        # defect fails; identity-suite counts that defect.
        ks = [_place(rng, path, False)] + [_place(rng, path, None) for _ in range(3)]
        if all(k is not None for k in ks):
            break
    controllers = [_tf_dict(k.num.coeffs, k.den.coeffs) for k in ks]
    sigma_w = float(rng.uniform(0.5, 2.0))
    sigma_v = float(rng.uniform(0.3, 3.0))

    def loop(disturbance, k=0):
        return {"plant": plant, "controller": controllers[k],
                "feedback_filter": _tf_dict([1.0]),
                "channel_noise": {"kind": "white", "variance": sigma_w},
                "output_disturbance": disturbance}

    cases = [make_case("white", loop({"kind": "white", "variance": sigma_v}))]
    cases += [make_case(f"pole{a}", loop(_one_pole(sigma_v, a))) for a in FINE_POLES]
    indep = [(make_case(f"independence-pole{a}", loop(_one_pole(sigma_v, a))), controllers)
             for a in INDEPENDENCE_POLES]
    return FineGrid(cases, indep)


def monte_carlo_inputs() -> list[McCase]:
    """The reference loops: the three of acceptance criterion 6, a colored
    disturbance (the shaping-filter path), loops whose feedthrough forces the
    k_first and h_first update orders, and one loop of order 7 or 8 for each
    update order.

    The three high-order loops cost about the same per op, so they fill the
    top of the latency distribution: in any run of four or more passes at
    least eleven of them lie there, and the tail percentile falls among them.
    """
    one = _tf_dict([1.0])
    w1 = {"kind": "white", "variance": 1.0}
    v_half = {"kind": "white", "variance": 0.5}
    unstable = _tf_dict([0.0, 1.0], [1.0, -2.0])
    feedthrough = _tf_dict([1.0, 0.5], [1.0, -1.5])  # P(0) != 0

    def loop(plant, k, h=one, v=w1):
        return {"plant": plant, "controller": k, "feedback_filter": h,
                "channel_noise": w1, "output_disturbance": v}

    def placed(plant, h, targets, delay=False):
        path = lti.tf(plant["num"], plant["den"]) * lti.tf(h["num"], h["den"])
        if delay:  # K = d * K': the controller is strictly proper
            path = path * lti.tf([0.0, 1.0])
        k = lti.pole_placement_controller(path, targets)
        num = ([0.0] if delay else []) + list(k.num.coeffs)
        return _tf_dict(num, k.den.coeffs)

    den3 = _poly([1.6, 0.5, -0.4])
    p_hi = _tf_dict([0.0, 1.0, 0.3], den3)
    p_hi_ft = _tf_dict([1.0, 0.5, 0.2], den3)  # P(0) != 0
    h_hi = _tf_dict([1.0, 0.5], [1.0, -0.3])
    h_hi_delay = _tf_dict([0.0, 1.0, 0.5], [1.0, -0.3])  # H(0) = 0
    seven = (0.3, -0.3, 0.2, 0.1, -0.1, 0.4j, -0.4j)

    loops = [
        ("open", "p_first", loop(_tf_dict([0.0]), _tf_dict([0.0]))),
        ("stable", "p_first", loop(_tf_dict([0.0, 1.0], [1.0, -0.5]), _tf_dict([-0.3]),
                                   v={"kind": "white", "variance": 0.0})),
        ("unstable", "p_first", loop(unstable, _tf_dict([-2.0]))),
        ("colored", "p_first", loop(unstable, _tf_dict([-2.0]), v=_one_pole(0.5, 0.9))),
        ("k_first", "k_first", loop(feedthrough, _tf_dict([0.0, -1.2]))),
        ("h_first", "h_first", loop(feedthrough, _tf_dict([-1.2]), h=_tf_dict([0.0, 1.0]))),
        ("high_p_first", "p_first", loop(p_hi, placed(p_hi, h_hi, seven), h=h_hi, v=v_half)),
        ("high_k_first", "k_first", loop(p_hi_ft, placed(p_hi_ft, h_hi, seven, delay=True),
                                         h=h_hi, v=v_half)),
        ("high_h_first", "h_first", loop(p_hi_ft, placed(p_hi_ft, h_hi_delay, seven),
                                         h=h_hi_delay, v=v_half)),
    ]
    return [McCase(make_case(name, cfg), order) for name, order, cfg in loops]
