"""loopinfo benchmark: one workload per run, every op checked.

    python3 perfbench/run.py --workload identity-suite --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root.  The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer ones.  The line before it is a JSON detail record: the run
environment, the tail percentile and sample count, every failed check and
the run-level checks.  Times are scaled to reference machine speed by
speed.py; the detail record keeps the unscaled end-to-end times.
perfbench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported; child
# interpreters inherit it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("identity-suite", "fine-grid", "monte-carlo")
# The share of each workload's op time spent in Python-level code rather
# than in numpy, from the traced self times: identity-suite splits between
# per-call lti work and 4096-point arrays, fine-grid is 65536-point arrays,
# monte-carlo is simulate_loop's Python loop.  It sets the reference kernel's mix.
PYTHON_SHARE = {"identity-suite": 0.5, "fine-grid": 0.2, "monte-carlo": 0.8}
SETUP_CHILDREN = 3
COLD_ANALYZE_CHILDREN = 3
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
TAIL_PASSES = 4  # the fewest passes a 25-second run completes on any workload
CHILD_TIMEOUT = 60
WARMUP_ROUND = -1  # the round id of the untimed warm-up op; timed passes count from 0
WARMUP_KERNEL_RUNS = 10
CHILD_KERNEL_RUNS = 20  # reference-kernel runs at the end of each set-up interpreter


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def _children(argv: list[str], runs: int) -> list[tuple[float, str]]:
    """Run a fresh interpreter `runs` times, one at a time; (wall time, stdout)
    of each."""
    out = []
    for _ in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=_child_env(),
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"child {argv} exited {proc.returncode}: {proc.stderr[-2000:]}")
        out.append((wall, proc.stdout))
    return out


def _import_loopinfo():
    """Import loopinfo.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "loopinfo" / "__init__.py").is_file():
        raise SystemExit(f"error: no loopinfo sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import loopinfo.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    import loopinfo

    if Path(loopinfo.__file__).resolve().parent != (SRC / "loopinfo").resolve():
        raise SystemExit(f"error: loopinfo imported from {loopinfo.__file__}")
    return elapsed


def setup_child(workload: str, seed: int) -> None:
    """Body of one set-up measurement: import the CLI, build the inputs.
    Then the reference kernel runs in this interpreter, so the set-up time is
    scaled by the speed of the process that did it; its time is reported so
    that it can be taken off the wall time."""
    import_s = _import_loopinfo()
    import speed
    import workloads as wl

    t0 = time.perf_counter()
    build_inputs(wl, workload, seed)
    t1 = time.perf_counter()
    meter = speed.Speedometer(PYTHON_SHARE[workload])
    meter.sample(CHILD_KERNEL_RUNS)
    print(json.dumps({"import_s": import_s, "build_s": t1 - t0,
                      "kernel_s": time.perf_counter() - t1, "scale": meter.run_scale()}))


def build_inputs(wl, workload: str, seed: int):
    if workload == "identity-suite":
        return wl.identity_cases(seed)
    if workload == "fine-grid":
        return wl.fine_grid_inputs(seed)
    return wl.monte_carlo_inputs()


def _mc_seed(seed: int, rnd: int, j: int) -> int:
    import numpy as np

    # SeedSequence takes non-negative entropy only, and rnd starts at WARMUP_ROUND.
    entropy = [seed, 3, rnd - WARMUP_ROUND, j]
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])


def make_ops(wl, spectral, workload: str, seed: int, inputs, tracer, records: dict):
    """[(op id, fn(round, tally) -> failed checks)] for one pass over the inputs."""
    if workload == "identity-suite":
        grid = spectral.FrequencyGrid(4096)
        return [(c.name, lambda r, t, c=c: wl.verify_loop(c, grid, tracer, t))
                for c in inputs]
    if workload == "fine-grid":
        grid = spectral.FrequencyGrid(wl.FINE_GRID)
        ops = [(c.name, lambda r, t, c=c: wl.verify_loop(c, grid, tracer, t))
               for c in inputs.cases]
        ops += [(c.name, lambda r, t, c=c, ks=ks: wl.independence(c, ks, grid, t))
                for c, ks in inputs.independence]
        return ops
    grid = spectral.FrequencyGrid(4096)
    return [(mc.case.name,
             lambda r, t, j=j, mc=mc: wl.compare(mc, _mc_seed(seed, r, j), grid, t, records))
            for j, mc in enumerate(inputs)]


def run_op(tracer, op_id: str, fn, rnd: int, tally) -> tuple[float, float, list]:
    """(start, seconds, failed checks) of one op."""
    t0 = time.perf_counter()
    with tracer.op(op_id):
        try:
            failed = fn(rnd, tally)
        except Exception as exc:  # an op that raises is a failed op
            failed = [(f"raised {type(exc).__name__}: {exc}", False)]
    return t0, time.perf_counter() - t0, failed


def run_pass(tracer, ops, rnd: int, tally, meter) -> list:
    """One pass over the ops, the reference kernel run between them;
    [(op id, start, seconds, failed checks)]."""
    samples = []
    for op_id, fn in ops:
        start, dt, failed = run_op(tracer, op_id, fn, rnd, tally)
        samples.append((op_id, start, dt, failed))
        meter.after(dt)
    return samples


def run_rounds(tracer, ops, seconds: float, first_round: int, meter):
    """Whole passes over the ops until `seconds` have elapsed; the samples
    and the pass each belongs to."""
    samples, rounds = [], []
    t0 = time.perf_counter()
    rnd = first_round
    while True:
        one_pass = run_pass(tracer, ops, rnd, None, meter)
        samples += one_pass
        rounds += [rnd - first_round] * len(one_pass)
        rnd += 1
        if time.perf_counter() - t0 >= seconds:
            return samples, rounds, time.perf_counter() - t0


def mc_run_checks(wl, spectral, inputs, records: dict, tally) -> list[str]:
    """monte-carlo run-level checks; returns the failures."""
    problems = []
    grid = spectral.FrequencyGrid(4096)
    by_name = {mc.case.name: mc for mc in inputs}
    # Criterion 6 holds the median gap over seeds, not each seed, to 0.03.
    for name, recs in records.items():
        med = statistics.median(rec.abs_gap for _, rec in recs)
        if not med <= wl.MC_TOLERANCE:
            problems.append(f"{name}: median gap {med:.4g} over {len(recs)} seeds")
    for name, mc in by_name.items():
        seed, rec = records[name][0]
        model = wl.config.parse_config(mc.case.cfg).model
        report = wl.decomposition.decompose(wl.decomposition.RateInputs(model, grid))
        checks = wl._Checks()
        wl.check_report(mc.case, report, checks, tally)
        problems += [f"{name}: {c}" for c, known in checks.failed if not known]
        if report.total_rate != rec.analytic_rate:
            problems.append(f"{name}: analytic rate not reproduced")
    # Repeating a seed gives byte-identical trajectories, one loop per update order.
    seen = set()
    for name, mc in by_name.items():
        if mc.update_order in seen:
            continue
        seen.add(mc.update_order)
        seed, rec = records[name][0]
        model = wl.config.parse_config(mc.case.cfg).model
        cfg = wl.montecarlo.SimulationConfig(model, n_samples=wl.MC_SAMPLES, seed=seed)
        a, b = wl.montecarlo.simulate_loop(cfg), wl.montecarlo.simulate_loop(cfg)
        for sig in ("y", "w", "v", "z", "u"):
            if getattr(a, sig).tobytes() != getattr(b, sig).tobytes():
                problems.append(f"{name}: signal {sig} differs between repeats of seed {seed}")
        emp = wl.montecarlo.empirical_directed_info(a, grid=grid)
        if emp != rec.empirical_rate:
            problems.append(f"{name}: empirical rate not reproduced ({emp!r} vs {rec.empirical_rate!r})")
    return problems


def probe(wl, spectral, tracer, tally) -> None:
    """Fixed calls that give every per-layer metric a value on every workload;
    a figure comes from here only when the workload's own ops lack it."""
    g4, g64 = spectral.FrequencyGrid(4096), spectral.FrequencyGrid(wl.FINE_GRID)
    with tracer.op("probe"):
        cases = {mc.case.name: mc for mc in wl.monte_carlo_inputs()}
        unstable = cases["unstable"].case
        wl.verify_loop(unstable, g4, tracer, tally)
        wl.verify_loop(unstable, g64, tracer, tally)
        ks = [{"num": [k], "den": [1.0]} for k in (-2.0, -2.5, -1.5)]
        wl.independence(unstable, ks, g64, tally)
        for name in ("unstable", "high_p_first"):
            wl.compare(cases[name], 0, g4, tally, {}, n_samples=2**15)


# name -> (span name, scale, filter(span, all spans), per-span value); the
# median over spans.
def _per_sample(s):
    return s.seconds / s.meta["n"]


def _grid(n: int):
    return lambda s, spans: s.meta["n"] == n


def _order(low: bool):
    return lambda s, spans: (s.meta["order"] <= 2) == low


def _under(parent: str):
    return lambda s, spans: s.parent >= 0 and spans[s.parent].name == parent


SPAN_METRICS = {
    "lti.tf_us": ("lti.tf", 1e6, None, None),
    "lti.is_stabilizing_us": ("lti.is_stabilizing", 1e6, None, None),
    "lti.close_loop_us": ("lti.close_loop", 1e6, None, None),
    "lti.pole_placement_us": ("lti.pole_placement", 1e6, None, None),
    "lti.freq_response_ms.g4096": ("lti.freq_response", 1e3, _grid(4096), None),
    "lti.freq_response_ms.g65536": ("lti.freq_response", 1e3, _grid(65536), None),
    "spectral.noise_psd_ms": ("spectral.noise_psd", 1e3, None, None),
    "spectral.output_psd_ms": ("spectral.output_psd", 1e3, None, None),
    "spectral.sensitivity_ratio_ms": ("spectral.sensitivity_ratio", 1e3, None, None),
    "spectral.log_integral_ms": ("spectral.log_integral", 1e3, None, None),
    "decomposition.rate_inputs_us": ("decomposition.rate_inputs", 1e6, None, None),
    "decomposition.decompose_ms.g4096": ("decomposition.decompose", 1e3, _grid(4096), None),
    "decomposition.decompose_ms.g65536": ("decomposition.decompose", 1e3, _grid(65536), None),
    "decomposition.entropy_route_ms": ("decomposition.entropy_route", 1e3, None, None),
    "decomposition.independence_ms": ("decomposition.independence", 1e3, None, None),
    "montecarlo.simulate_ns_per_sample.low_order": ("montecarlo.simulate", 1e9,
                                                    _order(True), _per_sample),
    "montecarlo.simulate_ns_per_sample.high_order": ("montecarlo.simulate", 1e9,
                                                     _order(False), _per_sample),
    "montecarlo.welch_ms": ("montecarlo.welch", 1e3, None, None),
    "montecarlo.empirical_ms": ("montecarlo.empirical", 1e3, None, None),
    # The analytic half of compare_report: its decompose call.
    "montecarlo.analytic_ms": ("decomposition.decompose", 1e3,
                               _under("montecarlo.compare_report"), None),
    "config.parse_us": ("config.parse", 1e6, None, None),
}
TALLY_COUNTS = ("decomposition.refinements", "decomposition.bode_mismatches",
                "montecarlo.floored_bins")
TALLY_WORST = ("decomposition.max_residual", "decomposition.max_entropy_gap",
               "decomposition.max_rate_err", "decomposition.max_convergence_estimate",
               "montecarlo.max_abs_gap")
LAYERS = ("lti", "spectral", "decomposition", "montecarlo", "config", "bench")
TIME_UNITS = ("ns", "us", "ms", "s")


def _span_median(spans, group, span_name, scale, where, value):
    """Median over the spans of `group` named span_name that pass `where`;
    a span nested directly in one of the same name is part of that call."""
    vals = [(value(s) if value else s.seconds) * scale for s in group
            if s.name == span_name and (where is None or where(s, spans))
            and (s.parent < 0 or spans[s.parent].name != span_name)]
    return statistics.median(vals) if vals else None


def per_layer_metrics(tracer, window_ops: set, n_ops: int, tally, probe_tally):
    spans = tracer.spans
    own = tracer.self_seconds()
    workload_spans = [s for s in spans if s is not None and s.op not in ("probe", "warm-up")]
    probe_spans = [s for s in spans if s is not None and s.op == "probe"]
    values, probed = {}, []
    for name, spec in SPAN_METRICS.items():
        values[name] = _span_median(spans, workload_spans, *spec)
        if values[name] is None:
            values[name] = _span_median(spans, probe_spans, *spec)
            probed.append(name)
    for name in TALLY_COUNTS + TALLY_WORST:
        store = "counts" if name in TALLY_COUNTS else "worst"
        if name in getattr(tally, store):
            values[name] = getattr(tally, store)[name]
        else:
            values[name] = getattr(probe_tally, store).get(name, 0)
            probed.append(name)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    span_self: dict = {}
    for s, sec in zip(spans, own):
        if s is not None and s.op in window_ops:
            layer = s.name.split(".")[0]
            layer_self[layer if layer in layer_self else "bench"] += sec
            span_self[s.name] = span_self.get(s.name, 0.0) + sec
    for layer, sec in layer_self.items():
        values[f"{layer}.self_ms_per_op"] = sec * 1e3 / n_ops
    window_spans = sum(1 for s in spans if s is not None and s.op in window_ops)
    values["trace.spans_per_op"] = window_spans / n_ops
    # Self time per op of each span name, largest first, for the detail record.
    by_span = {name: sec * 1e3 / n_ops
               for name, sec in sorted(span_self.items(), key=lambda kv: -kv[1])}
    return values, probed, by_span


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    rev = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        rev = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        **versions,
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _tail(op_ids: list, ms: list) -> tuple[float, str, int, float]:
    """(tail latency, basis, values it is taken over, percentile).

    When a pass holds more than TAIL_BEYOND distinct ops, the tail is the
    value with TAIL_BEYOND per-op medians beyond it: the slowest ops' typical
    latency, which one op that another process interrupted does not set.
    Otherwise it is taken over every sample at a fixed percentile, the one
    that leaves TAIL_BEYOND samples beyond it in TAIL_PASSES passes.  A rank
    counted from the top would fall on another op as the pass count changes
    with the machine's speed."""
    by_op: dict = {}
    for op_id, v in zip(op_ids, ms):
        by_op.setdefault(op_id, []).append(v)
    if len(by_op) > TAIL_BEYOND:
        pool, basis = sorted(statistics.median(v) for v in by_op.values()), "per-op median"
        idx = len(pool) - TAIL_BEYOND - 1
    else:
        pool, basis = sorted(ms), "sample"
        share = 1.0 - TAIL_BEYOND / (len(by_op) * TAIL_PASSES)
        idx = math.ceil(share * len(pool)) - 1
    idx = min(max(idx, 0), len(pool) - 1)
    return pool[idx], basis, len(pool), 100.0 * (idx + 1) / len(pool)


def run_workload(args) -> dict:
    import speed

    setup_argv = [str(BENCH_DIR / "run.py"), "--setup-child",
                  "--workload", args.workload, "--seed", str(args.seed)]
    setup_raw, setup_scaled, import_scaled = [], [], []
    for wall, out in _children(setup_argv, SETUP_CHILDREN):
        child = json.loads(out.strip().splitlines()[-1])
        setup_raw.append(wall - child["kernel_s"])
        setup_scaled.append(setup_raw[-1] * child["scale"])
        import_scaled.append(child["import_s"] * child["scale"])

    _import_loopinfo()
    import spans
    import workloads as wl
    from loopinfo import spectral

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    inputs = build_inputs(wl, args.workload, args.seed)
    records: dict = {}
    ops = make_ops(wl, spectral, args.workload, args.seed, inputs, tracer, records)
    tally = wl.Tally()
    detail: dict = {}

    # One untimed op warms up; it is not counted, but a failure outside the
    # known defects still makes the run incorrect.
    _, _, warm_failed = run_op(tracer, "warm-up", ops[0][1], WARMUP_ROUND, None)
    run_checks = [f"warm-up {ops[0][0]}: {c}" for c, known in warm_failed if not known]
    records.clear()
    meter = speed.Speedometer(PYTHON_SHARE[args.workload])
    meter.sample(WARMUP_KERNEL_RUNS)
    if args.trace:
        # One untraced pass gives the counts, the accuracy figures and the
        # baseline of the tracing overhead.
        tracer.uninstall()
        base = run_pass(tracer, ops, 0, tally, meter)
        tracer.install()
        samples, rounds, window = run_rounds(tracer, ops, args.seconds, 1, meter)
    else:
        samples, rounds, window = run_rounds(tracer, ops, args.seconds, 0, meter)

    if args.workload == "monte-carlo":
        with tracer.op("check"):
            run_checks += mc_run_checks(wl, spectral, inputs, records,
                                        tally if args.trace else wl.Tally())

    def scaled(sample):
        _, start, dt, _ = sample
        return dt * meter.scale(start, start + dt)

    attempted = len(samples)
    failed_ops = [s for s in samples if s[3]]
    passed = attempted - len(failed_ops)
    unexpected = sorted({f"{op}: {c}" for op, _, _, fl in samples for c, known in fl if not known})
    by_check: dict = {}
    for *_, fl in samples:
        for c, known in fl:
            key = f"{c} (known defect)" if known else c
            by_check[key] = by_check.get(key, 0) + 1
    correct = not unexpected and not run_checks
    run_scale = meter.run_scale()
    setup_s = statistics.median(setup_scaled)

    op_s = [scaled(s) for s in samples]
    raw_s = [s[2] for s in samples]
    times_ms = sorted(dt * 1e3 for dt in op_s)
    raw_ms = sorted(dt * 1e3 for dt in raw_s)
    op_ids = [s[0] for s in samples]
    tail_ms, tail_basis, tail_values, tail_pct = _tail(op_ids, [dt * 1e3 for dt in op_s])
    raw_tail_ms = _tail(op_ids, [dt * 1e3 for dt in raw_s])[0]
    pass_s: dict = {}
    for rnd, dt in zip(rounds, op_s):
        pass_s[rnd] = pass_s.get(rnd, 0.0) + dt
    by_kind: dict = {}
    for (op_id, *_), dt in zip(samples, op_s):
        by_kind.setdefault(op_id.split(":")[-1], []).append(dt * 1e3)
    detail.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "rounds": len(pass_s), "ops_per_round": len(ops), "window_s": window,
        "pass_s": list(pass_s.values()),
        "samples": attempted,
        "tail_basis": tail_basis, "tail_samples": tail_values, "tail_percentile": tail_pct,
        "failed_fraction": len(failed_ops) / attempted,
        "op_ms_median_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failed_checks": by_check, "unexpected_failures": unexpected[:50],
        "run_checks_failed": run_checks,
        "setup": {"children": len(setup_raw), "median_s": setup_s,
                  "import_s": statistics.median(import_scaled)},
        "speed": {"reference_s": speed.REFERENCE_S, "kernel_runs": len(meter.times),
                  "kernel_median_s": statistics.median(meter.times), "run_scale": run_scale},
        "unscaled": {"setup_s": statistics.median(setup_raw), "ops_per_s": passed / sum(raw_s),
                     "op_ms_p50": statistics.median(raw_ms), "op_ms_tail": raw_tail_ms},
    })

    if not args.trace:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (passed / sum(op_s), "1/s"),
            "op_ms_p50": (statistics.median(times_ms), "ms"),
            "op_ms_tail": (tail_ms, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
            "passed_fraction": (passed / attempted, "fraction"),
        }
    else:
        probe_tally = wl.Tally()
        probe(wl, spectral, tracer, probe_tally)
        tracer.uninstall()
        window_ops = {op_id for op_id, _ in ops}
        values, probed, by_span = per_layer_metrics(tracer, window_ops, attempted,
                                                    tally, probe_tally)
        units = _declared_units("per_layer")
        for name in list(SPAN_METRICS) + [f"{layer}.self_ms_per_op" for layer in LAYERS]:
            if units[name] in TIME_UNITS:
                values[name] *= run_scale
        work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR))
        try:
            cfg_path = work / "loop.json"
            first = inputs[0] if isinstance(inputs, list) else inputs.cases[0]
            cfg_path.write_text(json.dumps(getattr(first, "case", first).cfg))
            cold_s = statistics.median(
                wall for wall, _ in _children(["-m", "loopinfo.cli", "analyze", str(cfg_path)],
                                              COLD_ANALYZE_CHILDREN))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        values["cli.import_s"] = statistics.median(import_scaled)
        # The analyze interpreters run at no particular moment: the run's scale.
        values["cli.cold_analyze_s"] = cold_s * run_scale
        base_s = sum(scaled(s) for s in base)
        values["trace.overhead_pct"] = 100.0 * (statistics.median(pass_s.values()) / base_s - 1.0)
        detail["probed"] = probed
        detail["untraced_pass_s"] = base_s
        detail["self_ms_per_op_by_span"] = {k: v * run_scale for k, v in by_span.items()}
        metrics = {name: (values[name], units[name]) for name in units}

    print(json.dumps(detail))
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def _declared_units(kind: str) -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def self_check() -> int:
    """Run each workload briefly, traced and untraced, and check that every
    declared metric is printed, with its unit, as a finite number."""
    problems = []
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=170)
            tag = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: keys {sorted(result)}")
                continue
            if not result["attempted"] >= 1 or not 0 <= result["failed"] <= result["attempted"]:
                problems.append(f"{tag}: attempted {result['attempted']} failed {result['failed']}")
            want = _declared_units(kind)
            got = result["metrics"]
            if set(got) != set(want):
                problems.append(f"{tag}: metrics differ: {sorted(set(got) ^ set(want))}")
            for name, unit in want.items():
                m = got.get(name, {})
                if m.get("unit") != unit or not math.isfinite(m.get("value", math.nan)):
                    problems.append(f"{tag}: {name} = {m}")
            print(f"{tag}: {len(got)} metrics, correct={result['correct']}, "
                  f"attempted={result['attempted']}, failed={result['failed']}")
    for p in problems:
        print("PROBLEM:", p)
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="run every workload briefly and check the printed metrics")
    parser.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.self_check:
        return self_check()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0
    if not (ROOT / "BENCHMARK.json").is_file():
        raise SystemExit(f"error: no BENCHMARK.json in {ROOT}")
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
