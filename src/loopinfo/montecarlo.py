"""Time-domain validation of the analytic rate via loop simulation.

The loop is run as the per-element recursion through the noise-shaping
filters, plant, feedback filter, and controller (direct-form II transposed
states), never through the closed-form maps the analytic path uses (no
close_loop) — agreement between the two routes is then an actual check, not
a tautology. Each sample takes one step, the same for every loop: the
control u is solved from the elements' free responses, which is exact
because the loop gain is strictly proper, and then the plant, feedback
filter and controller advance in that order. The recursion is advanced in
blocks of 64 samples: the block maps are its own responses over 64 steps,
taken by stepping it from unit states and unit innovations (lifting). The
state carried from block to block advances up to 32 blocks per step, through
powers of the 64-sample carry that come from stepping the block recursion
itself, capped at the last finite one; powers of a probed one-sample state
map would lose accuracy on loops with large transient gain. The maps depend
only on the loop recursion, so they are built once per recursion (the five
transfer functions it realizes) and kept, read-only, for the last 16 used;
every run, seed and length then pays only its own draws and products. A
source with unit shaping needs no product: its signal is its innovations.
Spectra of the recorded trajectories are estimated with Welch's method,
whose window is fixed at import, and pushed through the same log-integral
engine as the analytic path, and each comparison checks them against
decompose's total rate for the loop on the same grid.

Each noise source draws its innovations from its own Philox counter
stream, keyed by the seed: w from Philox(seed), v from Philox(seed) jumped
once, a stream that cannot overlap w's (Salmon et al., "Parallel random
numbers: as easy as 1, 2, 3", SC 2011). A source's innovations then depend
only on the seed and the source, and the two draws need no order.

Each run and each estimate splits into halves that share no output, and one
worker thread, a daemon started on first use and kept for the life of the
process, runs one half while the calling thread runs the other (see
_beside): v's draw while the caller draws w, every other block-row product
of the run, and the w half of the Welch pair while the caller forms y's
estimate. The worker may run on every CPU the caller may, less the one
the caller was on when the worker started: left to the kernel, the woken
worker was at times queued on the caller's own CPU on a 2-vCPU VM, and the
two halves took turns on one core (the caller's 2.2 ms draw took 4.2 ms).
With one CPU, off Linux, or where the placement fails, the worker stays
unpinned; the caller's affinity is never changed (see _worker_tasks). Each
half makes the same numpy calls on the same operands as a serial run,
whichever thread runs it, so every bit is the same on either thread. numpy
keeps its error state per thread, so a worker task runs under the state of
the thread that submitted it. A forked child starts its own worker, off the
child's CPU, since the parent's thread does not survive the fork; where no
thread can be started, the caller runs both halves, w's draw before v's.
The worker's draw and Welch half call no public name, so they leave no span
in a tracer that wraps them. decompose stays on the calling thread.
"""

from __future__ import annotations

import math
import os
import threading
import warnings
from dataclasses import dataclass
from functools import lru_cache
from queue import SimpleQueue

import numpy as np

from .errors import DivergenceError, InvalidInputError, _check_int
from .lti import TF_ONE, LoopModel, TransferFunction
from .spectral import (
    FrequencyGrid,
    SpectrumSamples,
    _owned,
    _real_array,
    _write_csv,
    log_integral,
    sensitivity_ratio,
)
from .decomposition import RateInputs, _check_seed, decompose

DIVERGENCE_LIMIT = 1e12

PSD_FLOOR = 1e-12

_BLOCK = 64  # samples advanced per step of the lifted recursion
_SUPER = 32  # blocks the carried state advances per step, at most
_SEGMENT = 1024  # Welch segment length; each segment overlaps the last by half
_WELCH_BLOCK = 2**15  # samples of windowed segments transformed at once
_MAPS_KEPT = 16  # block maps kept, for the last loop recursions used

# periodic Hann, the right variant for overlapped averaging, and its power
_HANN = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(_SEGMENT) / _SEGMENT)
_HANN.flags.writeable = False
_HANN_POWER = np.sum(_HANN**2)

_worker = None  # the task queue of the thread that runs one half of each op
_worker_lock = threading.Lock()


def _serve(tasks: SimpleQueue, cpus: set[int] | None) -> None:
    if cpus:
        try:
            os.sched_setaffinity(0, cpus)  # this thread's alone
        except (AttributeError, OSError):  # no such call, or refused: unpinned
            pass
    while True:
        tasks.get()()


def _cpus_beside() -> set[int] | None:
    """The CPUs the calling thread may run on, less the one it runs on now,
    or None where that leaves none or either cannot be read (one CPU, no
    sched_getaffinity, no /proc/thread-self)."""
    try:
        allowed = os.sched_getaffinity(0)
        with open("/proc/thread-self/stat", "rb") as stat:
            # field 39, the CPU, counted after the command name, field 2,
            # which sits in parentheses and may hold spaces
            here = int(stat.read().rpartition(b")")[2].split()[36])
    except (AttributeError, OSError, ValueError, IndexError):
        return None
    return allowed - {here} or None


def _worker_tasks() -> SimpleQueue | None:
    """The worker's task queue, or None where no thread can be started.

    The worker is one daemon thread, started on first use and kept for the
    life of the process: a thread started per call pays its first matrix
    product and first buffers again, about 0.7 ms a call. As a daemon it
    keeps serving callers that outlive the main thread, and atexit hooks.
    Python 3.12 refuses a new thread once the interpreter is shutting down.

    The worker pins itself to the CPUs the calling thread may use, less the
    one the caller runs on as it starts the worker (_cpus_beside): unpinned,
    it was at times queued on the caller's CPU on a 2-vCPU VM, and each half waited
    on the other's time slices (monte-carlo ops 14 ms against 9 ms pinned).
    Where that leaves no CPU (one CPU allowed) or the placement cannot be
    made (off Linux, /proc unreadable, the call missing or refused), the
    worker stays unpinned. Only the worker's affinity is set, never the
    caller's. A forked child reads its own CPU when it starts its worker.
    """
    global _worker
    with _worker_lock:
        if _worker is None:
            tasks = SimpleQueue()
            thread = threading.Thread(
                target=_serve,
                args=(tasks, _cpus_beside()),
                name="loopinfo-montecarlo",
                daemon=True,
            )
            try:
                thread.start()
            except RuntimeError:
                return None
            _worker = tasks
        return _worker


def _forget_worker() -> None:
    """In a forked child, which has neither the worker thread nor, if another
    thread held it at the fork, a usable lock: the next use starts both."""
    global _worker, _worker_lock
    _worker, _worker_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_worker)


def _beside(task, work):
    """(task(), work()), with task on the worker thread and work on this one.

    task runs under this thread's numpy error state, its modes and its
    callback, which numpy keeps per thread. It must neither submit to the
    worker nor wait on it. Its end is awaited even when work raises, so no
    task outlives the call that owns its operands; work's error then wins
    over the task's. Where no worker can be started, this thread runs work
    and then task.
    """
    state = dict(np.geterr(), call=np.geterrcall())
    outcome = {}
    ended = threading.Lock()
    ended.acquire()

    def run():
        try:
            with np.errstate(**state):
                outcome["value"] = task()
        except BaseException as exc:  # raised again on the calling thread
            outcome["error"] = exc
        finally:
            ended.release()

    tasks = _worker_tasks()
    if tasks is None:
        mine = work()
        return task(), mine
    tasks.put(run)
    try:
        mine = work()
    finally:
        ended.acquire()
    if "error" in outcome:
        raise outcome.pop("error")
    return outcome["value"], mine


@dataclass(frozen=True)
class SimulationConfig:
    model: LoopModel
    n_samples: int = 2**17
    burn_in: int = 4096
    seed: int = 0

    def __post_init__(self):
        _check_int(self.n_samples, "n_samples")
        _check_int(self.burn_in, "burn_in")
        if not (self.n_samples > self.burn_in >= 0):
            raise InvalidInputError(
                f"need n_samples > burn_in >= 0, got {self.n_samples}, {self.burn_in}"
            )
        _check_seed(self.seed)


@dataclass(frozen=True, eq=False)
class TrajectorySet:
    """Post-burn-in signal records: five finite 1-d signals of one length,
    sample_count. y = z + w holds exactly at every sample.

    The signals are read-only. The constructor copies the arrays a caller
    passes and checks them, so changing them later changes nothing here; a
    complex signal raises InvalidInputError, naming it.
    simulate_loop hands over the arrays it has just formed, through _owned,
    which makes them read-only but neither copies nor re-checks them: that
    routine's own construction proves each check (see _adopt).
    """

    y: np.ndarray
    w: np.ndarray
    v: np.ndarray
    z: np.ndarray
    u: np.ndarray
    seed: int

    def __init__(self, y, w, v, z, u, seed):
        y, w, v, z, u = (
            _real_array(s, f"signal {name}") for name, s in zip("ywvzu", (y, w, v, z, u))
        )
        for name, arr in zip("ywvzu", (y, w, v, z, u)):
            if arr.ndim != 1 or len(arr) != len(y):
                raise InvalidInputError(
                    f"signal {name} has shape {arr.shape}; each must be 1-d, as long as y"
                )
            # min and max carry NaN, so finite extremes clear every sample
            if len(arr) and not (-np.inf < arr.min() and arr.max() < np.inf):
                raise InvalidInputError(f"signal {name} contains non-finite samples")
        if not np.array_equal(y, z + w):
            raise InvalidInputError("channel equation y = z + w violated")
        self._adopt(y, w, v, z, u, seed)

    def _adopt(self, y, w, v, z, u, seed) -> None:
        """Take over the signals unchecked and make them read-only.

        For simulate_loop's record each check holds by construction. The
        five are slices of rows of one length at one offset. y is the sum
        z + w itself. The divergence guard has bounded w, v, y and u to
        +-DIVERGENCE_LIMIT, so z = y - w is finite too: a non-finite or
        huge z, or a NaN in w, makes y fail the guard, and a NaN in v comes
        only from a non-finite carried state, which z's and u's rows read
        as well.
        """
        for name, arr in zip("ywvzu", (y, w, v, z, u)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "seed", int(seed))

    @property
    def sample_count(self) -> int:
        return len(self.y)

    def to_csv(self, target) -> None:
        signals = (self.w, self.v, self.z, self.y, self.u)
        rows = (
            [t] + [f"{s[t]:.12g}" for s in signals] for t in range(self.sample_count)
        )
        _write_csv(target, ["t", "w", "v", "z", "y", "u"], rows)


class _Df2t:
    """Direct-form II transposed realization of one transfer function.

    The state is held by the caller, one row per delay and one column per
    trajectory, so a single step advances a whole batch of trajectories.
    """

    __slots__ = ("b", "a")

    def __init__(self, tf_: TransferFunction):
        b = list(tf_.num.coeffs)
        a = list(tf_.den.coeffs)
        a0 = a[0]
        m = max(len(b), len(a)) - 1
        self.b = [x / a0 for x in b] + [0.0] * (m + 1 - len(b))
        self.a = [x / a0 for x in a] + [0.0] * (m + 1 - len(a))

    @property
    def order(self) -> int:
        return len(self.b) - 1

    def pending(self, s: np.ndarray):
        """The part of the next output already fixed by the past (a copy:
        the state row is overwritten later in the same loop step)."""
        return s[0].copy() if self.order else 0.0

    def step(self, s: np.ndarray, x):
        """Output for input x; advances the state rows s in place."""
        b, a = self.b, self.a
        m = len(b) - 1
        y = b[0] * x + (s[0] if m else 0.0)
        for i in range(m - 1):
            s[i] = b[i + 1] * x - a[i + 1] * y + s[i + 1]
        if m:
            s[m - 1] = b[m] * x - a[m] * y
        return y


def _loop_step(elements: tuple[TransferFunction, ...]):
    """The per-sample loop recursion as step(x, e) -> (w, v, z, u).

    elements are the shaping filters of w and of v (1 for a white source),
    then plant, feedback filter and controller; x holds their state rows in
    that order (the initial_state order for the last three), and e holds the
    driven innovations of w and v. Returns step and the five state counts.

    With feedthrough gains gp, gh, gk and free responses p0, h0, k0 (the
    outputs each element would give for a zero input), the loop's algebraic
    constraint u = gk*(gh*(gp*u + p0 + v) + h0 + w) + k0 has the solution
    u = gk*(gh*(p0 + v) + h0 + w) + k0, exact because LoopModel admits only
    loops with gp*gh*gk == 0. P, H and K are then stepped in that order.
    """
    shape_w, shape_v, fp, fh, fk = (_Df2t(f) for f in elements)
    gh, gk = fh.b[0], fk.b[0]
    orders = [f.order for f in (shape_w, shape_v, fp, fh, fk)]
    ends = np.cumsum(orders).tolist()
    rows = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    def step(x, e):
        sw, sv, sp, sh, sk = (x[r] for r in rows)
        wt = shape_w.step(sw, e[0])
        vt = shape_v.step(sv, e[1])
        p0, h0, k0 = fp.pending(sp), fh.pending(sh), fk.pending(sk)
        ut = gk * (gh * (p0 + vt) + h0 + wt) + k0
        zt = fh.step(sh, fp.step(sp, ut) + vt)
        fk.step(sk, zt + wt)
        return wt, vt, zt, ut

    return step, orders


@dataclass(frozen=True, eq=False)
class _BlockMaps:
    """One loop recursion's maps over a block of _BLOCK (64) samples, read-only.

    The operand of every map is [block start | w innovations | v innovations].
    rows holds the responses of w, v, z and u to it, one (64, nx + 128) map
    each, or None for a source with unit shaping, whose signal is its
    innovations. states holds the block's final states for the same operand:
    the carry C in the first nx columns, then the innovation-to-state
    columns. powers holds C^0, ..., C^S and then a zero block, with S <=
    _SUPER cut at the last finite power.
    """

    rows: tuple[np.ndarray | None, ...]
    states: np.ndarray
    powers: np.ndarray
    orders: tuple[int, ...]


def _block_maps_for(model: LoopModel) -> _BlockMaps:
    """The block maps of model's loop recursion, built once per recursion:
    variances, initial state, seed and length play no part. The recursion is
    keyed by the five transfer functions that fix it, the shaping filters (1
    for a white source), P, H and K, and by their coefficients' bytes, which
    tell -0.0 from 0.0, though the transfer functions compare them equal."""
    w, v = model.channel_noise, model.output_disturbance
    elements = (w.shaping, v.shaping, model.plant, model.feedback_filter, model.controller)
    bits = tuple(np.array(p.coeffs).tobytes() for f in elements for p in (f.num, f.den))
    return _block_maps(elements, bits)


@lru_cache(maxsize=_MAPS_KEPT)
def _block_maps(elements: tuple[TransferFunction, ...], bits) -> _BlockMaps:
    """Lift the recursion: step it over one block from each unit state (the
    free responses, whose final states form the carry C) and from a unit
    innovation of w, then of v, at each sample of the block (the Markov
    Toeplitz blocks and the innovation-to-state columns). The powers of C are
    the block recursion stepped from C^j (C^(j+1) = C C^j), never powers of a
    probed one-sample state map, which lose accuracy on loops with large
    transient gain; they stop at the last finite power, so a zero state or
    innovation never meets an infinite power that the block-by-block carry
    would not form."""
    step, orders = _loop_step(elements)
    T, nx = _BLOCK, sum(orders)
    x = np.zeros((nx, nx + 2 * T))
    x[:, :nx] = np.eye(nx)
    resp = np.empty((4, T, nx + 2 * T))
    with np.errstate(all="ignore"):
        for t in range(T):
            e = np.zeros((2, nx + 2 * T))
            e[0, nx + t] = e[1, nx + T + t] = 1.0
            for c, s in enumerate(step(x, e)):
                resp[c, t] = s
        carry = x[:, :nx]
        powers = [np.eye(nx), carry]
        while len(powers) <= _SUPER:
            nxt = carry @ powers[-1]
            if not np.isfinite(nxt).all():
                break
            powers.append(nxt)
    powers = np.array(powers + [np.zeros((nx, nx))])
    rows = tuple(
        None if c < 2 and elements[c] == TF_ONE else resp[c].copy() for c in range(4)
    )
    for a in (x, powers) + rows:
        if a is not None:
            a.flags.writeable = False
    return _BlockMaps(rows, x, powers, tuple(orders))


def _lifted_run(maps: _BlockMaps, x0: np.ndarray, sig: np.ndarray) -> None:
    """Run the recursion _BLOCK (64) samples per step, in place on sig.

    sig has four rows of whole blocks. On entry its first two rows hold the
    innovations of w and of v, zero-padded; on return its rows hold w, v, z
    and u. A source with unit shaping keeps its innovations as its signal;
    every other row is one product of the stacked operand [block start | w
    innovations | v innovations] with its block map (see _BlockMaps).

    The carried state advances up to _SUPER (32) blocks per step. Block j of
    such a superblock starts at C^j times the superblock's start plus the
    earlier blocks' innovations carried through C^(j-1), ..., C^0: one
    product with a block-Toeplitz matrix of those powers, gathered here from
    the cached powers. Zero padding at the end never reaches an earlier
    sample, because the recursion is causal. The rows' products write
    disjoint rows of sig, so every other one runs on the worker thread.
    """
    T = _BLOCK
    nx = len(x0)
    blocks = sig.shape[1] // T
    pw = maps.powers
    S = len(pw) - 2
    # row block i maps [superblock start | state kicks of its S blocks] to
    # the start of its block i; row block S gives the next superblock's start
    i, j = np.ogrid[: S + 1, :S]
    lag = np.where(j < i, i - 1 - j, S + 1)  # the zero block where j >= i
    toeplitz = np.empty(((S + 1) * nx, (S + 1) * nx))
    toeplitz[:, :nx] = pw[: S + 1].reshape((S + 1) * nx, nx)
    toeplitz[:, nx:] = pw[lag].transpose(0, 2, 1, 3).reshape((S + 1) * nx, S * nx)

    stacked = np.empty((blocks, nx + 2 * T))
    stacked[:, nx : nx + T] = sig[0].reshape(blocks, T)
    stacked[:, nx + T :] = sig[1].reshape(blocks, T)
    supers = -(-blocks // S)
    kick = np.zeros((supers * S, nx))
    np.matmul(stacked[:, nx:], maps.states[:, nx:].T, out=kick[:blocks])
    sb = np.empty((supers, (S + 1) * nx))
    sb[:, nx:] = kick.reshape(supers, S * nx)
    ends = sb[:, nx:] @ toeplitz[S * nx :, nx:].T
    step_super = pw[S]
    xk = x0
    for m in range(supers):
        sb[m, :nx] = xk
        xk = step_super.dot(xk) + ends[m]
    starts = sb @ toeplitz[: S * nx].T
    stacked[:, :nx] = starts.reshape(supers * S, nx)[:blocks]

    # each product is one whole matmul: a split by rows would move bits
    jobs = [
        (row, sig[c].reshape(blocks, T)) for c, row in enumerate(maps.rows) if row is not None
    ]
    _beside(lambda: _products(stacked, jobs[::2]), lambda: _products(stacked, jobs[1::2]))


def _products(stacked: np.ndarray, jobs) -> None:
    for row, out in jobs:
        np.matmul(stacked, row.T, out=out)


def _draw(seed: int, stream: int, out: np.ndarray, variance: float) -> None:
    """One source's innovations, written into out: sqrt(variance) times
    standard normals from the source's own counter stream, Philox(seed)
    jumped stream times. A jump moves the counter as if 2^128 draws had been
    taken, so no two streams of a seed overlap, and each thread that draws
    owns its generator. A silent source takes no draw: its innovations, and
    so its signal, are +0.0."""
    if variance > 0.0:
        bits = np.random.Philox(seed)
        rng = np.random.Generator(bits.jumped(stream) if stream else bits)
        rng.standard_normal(out=out)
        out *= math.sqrt(variance)
    else:
        out.fill(0.0)


def simulate_loop(cfg: SimulationConfig) -> TrajectorySet:
    """Run the loop recursion and record post-burn-in trajectories.

    Per sample: u solves the loop's algebraic constraint in closed form,
    because the feedthrough product of P, H and K is zero, and then P, H and
    K are stepped in that order (see _loop_step). Each noise source draws
    its innovations once up front from its own Philox stream keyed by the
    seed: w from Philox(seed), v from Philox(seed).jumped() (see _draw). So
    trajectories are bit-reproducible for a given seed, and a source's
    innovations depend only on the seed and the source: not on the other
    source, the shaping filters, P, H or K. The two draws run side by side,
    v's on the worker thread (see _beside). A silent source takes no draw;
    its innovations are +0.0. The recursion is advanced 64 samples at a time
    (see _lifted_run), through block maps built once per loop recursion and
    kept for the last _MAPS_KEPT (16) recursions used.

    Records from versions before the per-source streams, which drew w and
    then v from one Philox(seed) stream, are reproduced where v is silent;
    w is reproduced in every record. A record with a loud v is another
    realisation: its v, and so its y, z and u, differ.
    """
    model = cfg.model
    n = cfg.n_samples
    maps = _block_maps_for(model)
    shaping, orders = maps.orders[:2], maps.orders[2:]
    total = sum(orders)
    x0 = model.initial_state
    if len(x0) == 0:
        x0 = (0.0,) * total
    if len(x0) != total:
        raise InvalidInputError(
            f"initial_state must hold {total} values "
            f"(plant {orders[0]}, feedback {orders[1]}, controller {orders[2]}), "
            f"got {len(x0)}"
        )
    x0 = np.concatenate([np.zeros(sum(shaping)), x0])

    blocks = -(-n // _BLOCK)
    sig = np.empty((4, blocks * _BLOCK))  # the innovations, then the signals
    sig[:2, n:] = 0.0  # the innovations' padding; the products write z and u in full
    w_var, v_var = model.channel_noise.variance, model.output_disturbance.variance
    # v's innovations on the worker while w's are drawn here (see _draw)
    _beside(
        lambda: _draw(cfg.seed, 1, sig[1, :n], v_var),
        lambda: _draw(cfg.seed, 0, sig[0, :n], w_var),
    )
    limit = DIVERGENCE_LIMIT
    with np.errstate(all="ignore"):
        _lifted_run(maps, x0, sig)
        w_sig, v_sig, z_out, u_out = sig[:, :n]
        y_out = z_out + w_sig
        # min and max carry NaN, so in-range extremes clear every sample
        in_range = all(
            -limit <= s.min() and s.max() <= limit for s in (w_sig, v_sig, y_out, u_out)
        )
        if not in_range:
            # a shaped w or v holds NaN only after a loop state overflowed
            # (0 * inf in the carry); that is the loop's divergence, reported
            # below
            for name, s in (("w", w_sig), ("v", v_sig)):
                if np.any(np.abs(s) > limit):
                    raise DivergenceError(
                        f"noise source {name} exceeded the {limit:g} divergence guard"
                    )
            bad = ~((np.abs(y_out) <= limit) & (np.abs(u_out) <= limit))
            if bad.any():
                t = int(np.argmax(bad))
                yt, ut = y_out[t], u_out[t]
                raise DivergenceError(
                    f"signal magnitude exceeded {limit:g} at sample {t} "
                    "(non-stabilizing configuration or numerical blow-up)",
                    index=t,
                    value=yt if abs(yt) > limit else ut,
                )

    # the record takes over views of sig and y_out, referenced nowhere else;
    # read-only, they let no signal be written through them
    sig.flags.writeable = y_out.flags.writeable = False
    k = cfg.burn_in
    signals = (y_out[k:], w_sig[k:], v_sig[k:], z_out[k:], u_out[k:])
    return _owned(TrajectorySet, *signals, cfg.seed)


def welch_psd(x, grid: FrequencyGrid | None = None) -> SpectrumSamples:
    """Averaged windowed-periodogram PSD estimate mapped onto the grid: the
    periodic Hann window on _SEGMENT (1024) samples, overlapping by half.

    Normalized so the grid mean of the estimate equals the sample variance
    for white input. The bins are mirrored exactly, and on a grid of at most
    _SEGMENT points every sample is a bin, so the estimate is exactly even.
    A finer grid's samples are interpolated between bins, and np.interp's
    periodic reduction shifts each negative omega and bin by 2 pi, with a
    rounding, so there the estimate is even to rounding: about 1e-13
    relative, well inside SpectrumSamples' 1e-9. A complex x raises
    InvalidInputError.
    """
    x = _real_array(x, "sequence x", copy=False)
    if x.ndim != 1 or len(x) < _SEGMENT:
        raise InvalidInputError(
            f"need a 1-d sequence of at least {_SEGMENT} samples, got shape {x.shape}"
        )
    return _on_grid(_welch_half(x), grid or FrequencyGrid())


def _welch_half(x: np.ndarray) -> np.ndarray:
    """welch_psd's normalized bins at omega = 0, ..., pi, for a checked x."""
    nseg = _SEGMENT
    segs = np.lib.stride_tricks.sliding_window_view(x, nseg)[:: nseg // 2]
    # The periodograms are formed a block of segments at a time, in two work
    # buffers, which keeps the temporaries small. Each block's first row
    # takes the running sum, and an axis-0 sum adds the rows one by one, so
    # every periodogram is added in segment order.
    rows = min(_WELCH_BLOCK // nseg, len(segs))
    windowed = np.empty((rows, nseg))
    power = np.empty((rows, nseg // 2 + 1))
    half = np.zeros(nseg // 2 + 1)
    for lo in range(0, len(segs), rows):
        block = segs[lo : lo + rows]
        k = len(block)
        np.multiply(block, _HANN, out=windowed[:k])
        block_power = np.abs(np.fft.rfft(windowed[:k], axis=-1), out=power[:k])
        np.square(block_power, out=block_power)
        block_power[0] += half
        np.sum(block_power, axis=0, out=half)
    half /= len(segs) * _HANN_POWER
    return half


def _on_grid(half: np.ndarray, grid: FrequencyGrid) -> SpectrumSamples:
    # the bins re-centred on [-pi, pi); negative frequencies mirror positive ones
    centered = np.concatenate([half[:0:-1], half[:-1]])
    bin_omegas = FrequencyGrid(_SEGMENT).omegas
    vals = np.interp(grid.omegas, bin_omegas, centered, period=2.0 * np.pi)
    return _owned(SpectrumSamples, grid, vals)


def empirical_directed_info(
    traj: TrajectorySet, grid: FrequencyGrid | None = None
) -> float:
    """Plug-in rate estimate: the analytic integral evaluated on Welch spectra."""
    value, _ = _empirical_detail(traj, grid or FrequencyGrid())
    return value


def _empirical_detail(traj, grid) -> tuple[float, int]:
    # w's bins on the worker, through the private half of welch_psd, while
    # y's estimate is formed here; w is as long as y, so y's check covers it
    w_half, sy = _beside(lambda: _welch_half(traj.w), lambda: welch_psd(traj.y, grid))
    sw = _on_grid(w_half, grid)
    floored = int(np.sum(sy.values < PSD_FLOOR) + np.sum(sw.values < PSD_FLOOR))
    if floored:
        warnings.warn(
            f"floored {floored} near-zero PSD bins at {PSD_FLOOR:g}",
            RuntimeWarning,
            stacklevel=2,
        )
        sy = _owned(SpectrumSamples, sy.grid, np.maximum(sy.values, PSD_FLOOR))
        sw = _owned(SpectrumSamples, sw.grid, np.maximum(sw.values, PSD_FLOOR))
    return log_integral(sensitivity_ratio(sy, sw)), floored


@dataclass(frozen=True)
class ComparisonRecord:
    """Analytic vs simulated rate for one (config, seed)."""

    seed: int
    n_samples: int
    analytic_rate: float
    empirical_rate: float
    abs_gap: float
    rel_gap: float | None
    tolerance: float
    passed: bool
    floored_bins: int = 0


def compare_report(
    cfg: SimulationConfig, tolerance: float = 0.03, grid: FrequencyGrid | None = None
) -> ComparisonRecord:
    """Simulate, estimate the rate, and compare with the analytic value.

    A record too short for one Welch segment after burn-in is refused before
    anything runs. The simulation runs first, so a non-stabilizing
    configuration surfaces as a divergence error before any analytic work.
    The analytic rate is decompose's total rate for the loop on the same
    grid, formed on every call on the calling thread, so its off-exact
    warning and its errors come with every call.
    """
    if not (tolerance >= 0.0):
        raise InvalidInputError(f"tolerance must be >= 0, got {tolerance!r}")
    kept = cfg.n_samples - cfg.burn_in
    if kept < _SEGMENT:
        raise InvalidInputError(
            f"need n_samples - burn_in >= {_SEGMENT}, one Welch segment; got "
            f"n_samples={cfg.n_samples}, burn_in={cfg.burn_in} ({kept} samples)"
        )
    grid = grid or FrequencyGrid()
    traj = simulate_loop(cfg)
    empirical, floored = _empirical_detail(traj, grid)
    analytic = decompose(RateInputs(cfg.model, grid)).total_rate
    gap = abs(analytic - empirical)
    return ComparisonRecord(
        seed=cfg.seed,
        n_samples=cfg.n_samples,
        analytic_rate=analytic,
        empirical_rate=empirical,
        abs_gap=gap,
        rel_gap=(gap / abs(analytic)) if analytic != 0.0 else None,
        tolerance=tolerance,
        passed=gap <= tolerance,
        floored_bins=floored,
    )
