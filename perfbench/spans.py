"""In-memory span recording around loopinfo's public calls.

A traced run wraps the public functions listed in ``TRACED`` in every loaded
``loopinfo`` module, so calls made by the benchmark and calls made inside the
library both leave a span: name, start, end, parent span and op id.  Spans
stay in a list and are summarised when the run ends.  While the tracer is not
installed, ``span`` and ``op`` cost one attribute lookup.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass

_NULL = contextlib.nullcontext()


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _loop_order(cfg) -> int:
    m = cfg.model
    return sum(
        max(len(f.num.coeffs), len(f.den.coeffs)) - 1
        for f in (m.plant, m.feedback_filter, m.controller)
    )


# (module, attribute, span name, meta from the call's arguments).  Dotted
# attributes name a method on a class; the class itself is patched.  Two
# entries may share a span name when one calls the other, as the public
# empirical_directed_info calls _empirical_detail, which compare_report calls
# directly; the per-call metrics in run.py count only the outer span.
TRACED = (
    ("loopinfo.lti", "TransferFunction.__init__", "lti.tf", None),
    ("loopinfo.lti", "is_stabilizing", "lti.is_stabilizing", None),
    ("loopinfo.lti", "close_loop", "lti.close_loop", None),
    ("loopinfo.lti", "pole_placement_controller", "lti.pole_placement", None),
    ("loopinfo.lti", "freq_response_array", "lti.freq_response",
     lambda a, k: {"n": len(_arg(a, k, 1, "omegas"))}),
    ("loopinfo.spectral", "noise_psd", "spectral.noise_psd", None),
    ("loopinfo.spectral", "output_psd", "spectral.output_psd", None),
    ("loopinfo.spectral", "sensitivity_ratio", "spectral.sensitivity_ratio", None),
    ("loopinfo.spectral", "log_integral", "spectral.log_integral", None),
    ("loopinfo.decomposition", "RateInputs.__init__", "decomposition.rate_inputs", None),
    ("loopinfo.decomposition", "decompose", "decomposition.decompose",
     lambda a, k: {"n": _arg(a, k, 0, "inputs").grid.n_points}),
    ("loopinfo.decomposition", "gaussian_entropy_rate",
     "decomposition.gaussian_entropy_rate", None),
    ("loopinfo.decomposition", "controller_independence_check",
     "decomposition.independence", None),
    ("loopinfo.montecarlo", "simulate_loop", "montecarlo.simulate",
     lambda a, k: {"n": _arg(a, k, 0, "cfg").n_samples,
                   "order": _loop_order(_arg(a, k, 0, "cfg"))}),
    ("loopinfo.montecarlo", "welch_psd", "montecarlo.welch", None),
    ("loopinfo.montecarlo", "empirical_directed_info", "montecarlo.empirical", None),
    ("loopinfo.montecarlo", "_empirical_detail", "montecarlo.empirical", None),
    ("loopinfo.montecarlo", "compare_report", "montecarlo.compare_report", None),
    ("loopinfo.config", "parse_config", "config.parse", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root span
    op: str
    meta: dict | None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans while installed; otherwise span() and op() do nothing."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.enabled = False
        self._stack: list[int] = []
        self._op = "setup"
        self._patched: list[tuple[object, str, object]] = []

    def op(self, op_id: str):
        """Root span of one op; spans opened inside it carry op_id."""
        return self._op_span(op_id) if self.enabled else _NULL

    def span(self, name: str, meta: dict | None = None):
        return self._span(name, meta) if self.enabled else _NULL

    @contextlib.contextmanager
    def _op_span(self, op_id: str):
        prev, self._op = self._op, op_id
        try:
            with self._span("bench.op", None):
                yield
        finally:
            self._op = prev

    @contextlib.contextmanager
    def _span(self, name: str, meta: dict | None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, self._op, meta)

    def _wrap(self, fn, name, meta_fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            meta = meta_fn(args, kwargs) if meta_fn else None
            with self._span(name, meta):
                return fn(*args, **kwargs)

        return traced

    def install(self) -> None:
        """Wrap every TRACED function wherever a loopinfo module refers to it."""
        self.enabled = True
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "loopinfo" or n.startswith("loopinfo.")]
        for mod_name, attr, name, meta_fn in TRACED:
            # A name the library no longer has is skipped; its metric then
            # comes from the benchmark's own spans or the probe.
            owner = sys.modules.get(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name, None)
                original = vars(cls).get(meth) if cls is not None else None
                if original is not None:
                    self._patched.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(original, name, meta_fn))
                continue
            original = getattr(owner, attr, None)
            if original is None:
                continue
            wrapped = self._wrap(original, name, meta_fn)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patched.append((mod, key, original))
                        setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        self.enabled = False
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    # -- summaries ---------------------------------------------------------

    def self_seconds(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        spans = self.spans
        own = [s.seconds if s else 0.0 for s in spans]
        for s in spans:
            if s is not None and s.parent >= 0:
                own[s.parent] -= s.seconds
        return own

