"""The three benchmark workloads.

Each workload builds its inputs from a seed, runs one pass through the
public API of the package (`cs`, the imported `cardstar`) and checks every
operation's output.  A pass returns the latency and verdict of each
operation, and calls `tick(seconds)`, when given, as each operation ends;
`run.py` does the timing around passes.

  paper-check        `cardstar verify` then `cardstar constants`, compared
                     with golden output recorded by `record_golden.py`
  param-sweep        closed-form radii against the bisection oracle over
                     seeded parameters of every one-parameter family
  series-membership  seeded normalized series through the series API plus
                     scalar point queries against the cardioid region
"""

from __future__ import annotations

import cmath
import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

# circle samples of paper-check's CLI calls.  The CLI default is 4096, but a
# pass then takes 7 s on a 2-core host, and the few passes a run holds left
# the ten-run spread of its timings above the bound.  512 keeps every check,
# its verdict and its flags, and the same code paths: a pass takes about
# 1.3 s, so a run times every operation some twenty times.
PAPER_CHECK_SAMPLES = {"full": 512, "tiny": 256}

# oracle agreement gate of the acceptance suite.  param-sweep's oracle samples
# the circle at 1024 points rather than the CLI's 4096: a pass then takes
# about a second, so a run times every operation some thirty times, enough
# for its fastest time to come from a spell when the shared CPU ran at full
# speed.  At 4096 points a dozen passes fit, and the ten-run spread of the
# timings went past the bound.
AGREEMENT_TOL = 2e-3
ORACLE_SAMPLES = 1024

# absolute tolerance for numbers in golden lines that carry no row tolerance
LINE_TOL = 5e-5


@dataclass
class Op:
    name: str
    seconds: float
    ok: bool
    detail: str = ""
    end: float = 0.0                    # perf_counter() when the operation returned


@dataclass
class PassResult:
    ops: list[Op]
    bytes_out: int = 0                  # bytes the CLI wrote to stdout
    notes: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# paper-check
# ---------------------------------------------------------------------------

# verify functions whose calls are the operations of each command: one
# registry-row oracle per `measure_constant` call, one call per claim suite
COMMAND_OPS = {
    "verify": ("measure_constant", "inclusion_suite", "coefficient_suite",
               "partial_sum_suite", "convolution_suite"),
    "constants": ("measure_constant",),
}


class OpTimer:
    """Times each call to the named functions of a module while active."""

    def __init__(self, module, names, tick=None):
        self.module = module
        self.names = names
        self.tick = tick
        self.ops: list[tuple[str, float, int]] = []   # label, seconds, output lines
        self.ends: list[float] = []                   # perf_counter() at each return
        self._saved: list[tuple[str, object]] = []

    def __enter__(self):
        for name in self.names:
            fn = getattr(self.module, name)
            self._saved.append((name, fn))
            setattr(self.module, name, self._timed(name, fn))
        return self

    def __exit__(self, *exc):
        for name, fn in reversed(self._saved):
            setattr(self.module, name, fn)
        self._saved = []

    def _timed(self, name, fn):
        def timed(*args, **kwargs):
            t0 = perf_counter()
            out = fn(*args, **kwargs)
            end = perf_counter()
            seconds = end - t0
            self.ends.append(end)
            if isinstance(out, list):
                self.ops.append((name, seconds, len(out)))
            else:
                self.ops.append((getattr(args[0], "key", name), seconds, 1))
            if self.tick is not None:
                self.tick(seconds)
            return out
        return timed


@dataclass
class CommandRun:
    stdout: str
    exit_code: int | None
    error: str
    ops: list[tuple[str, float, int]]
    ends: list[float]


def cli_argv(command: str, samples: int, seed: int) -> list[str]:
    if command == "verify":
        return ["--samples", str(samples), "--seed", str(seed), "verify"]
    return ["--samples", str(samples), "constants"]


def run_command(cs, command: str, samples: int, seed: int, tick=None) -> CommandRun:
    """Run one CLI command in-process with stdout captured and ops timed."""
    buf = io.StringIO()
    code, error = None, ""
    with OpTimer(cs.verify, COMMAND_OPS[command], tick) as timer, \
            contextlib.redirect_stdout(buf):
        try:
            code = cs.cli.main(cli_argv(command, samples, seed))
        except (Exception, SystemExit) as exc:
            error = f"{type(exc).__name__}: {exc}"
    return CommandRun(buf.getvalue(), code, error, timer.ops, timer.ends)


def _split_number(token: str) -> tuple[str, float | None]:
    prefix, sep, value = token.rpartition("=")
    prefix += sep
    try:
        return prefix, float(value)
    except ValueError:
        return token, None


def line_matches(got: str, want: dict) -> bool:
    """Whitespace tokens equal, numbers within the line's tolerance.

    Numbers of a line marked `varies` (it changes with the seed) are not
    compared, only its text: status, claim, flags and notes.
    """
    got_tokens, want_tokens = got.split(), want["text"].split()
    if len(got_tokens) != len(want_tokens):
        return False
    for g, w in zip(got_tokens, want_tokens):
        if g == w:
            continue
        g_prefix, g_value = _split_number(g)
        w_prefix, w_value = _split_number(w)
        if g_value is None or w_value is None or g_prefix != w_prefix:
            return False
        if not want["varies"] and not abs(g_value - w_value) <= want["tol"]:
            return False
    return True


def check_command(command: str, run: CommandRun, golden: dict) -> list[Op]:
    """One Op per golden operation.  The exit code and the lines outside the
    operations (header, summary, notes) are checked with the last one."""
    want_ops = golden["ops"]
    names = [f"{command}:{w['label']}" for w in want_ops]
    got_shape = [(label, n) for label, _, n in run.ops]
    want_shape = [(w["label"], len(w["lines"])) for w in want_ops]
    if run.error or got_shape != want_shape:
        detail = run.error or f"operations {got_shape[:3]}... differ from the golden run"
        seconds = [s for _, s, _ in run.ops] + [0.0] * len(want_ops)
        ends = run.ends + [perf_counter()] * len(want_ops)
        return [Op(n, seconds[i], False, detail, ends[i]) for i, n in enumerate(names)]

    lines = run.stdout.splitlines()
    head_n, tail_n = len(golden["head"]), len(golden["tail"])
    body = lines[head_n:len(lines) - tail_n] if tail_n else lines[head_n:]
    frame_ok = (len(lines) == head_n + len(body) + tail_n
                and len(body) == sum(n for _, n in want_shape)
                and run.exit_code == golden["exit_code"]
                and all(line_matches(g, w) for g, w in zip(lines[:head_n], golden["head"]))
                and all(line_matches(g, w) for g, w in zip(lines[len(lines) - tail_n:],
                                                            golden["tail"])))
    ops, at = [], 0
    for name, (_, seconds, n), end, want in zip(names, run.ops, run.ends, want_ops):
        got = body[at:at + n]
        at += n
        bad = [w["text"] for g, w in zip(got, want["lines"]) if not line_matches(g, w)]
        if len(got) != n:
            bad.append("missing output lines")
        ops.append(Op(name, seconds, not bad, "; ".join(bad)[:300], end))
    if not frame_ok:
        last = ops[-1]
        ops[-1] = Op(last.name, last.seconds, False,
                     (last.detail + "; " if last.detail else "")
                     + f"exit code {run.exit_code} or header/summary/notes differ", last.end)
    return ops


def golden_path(samples: int) -> Path:
    return GOLDEN_DIR / f"paper_check_{samples}.json"


class PaperCheck:
    """What a reader runs to reproduce the paper."""

    name = "paper-check"

    def __init__(self, cs, seed: int, scale: str, golden: dict | None = None):
        self.cs = cs
        self.seed = seed
        self.samples = PAPER_CHECK_SAMPLES[scale]
        if golden is None:
            with open(golden_path(self.samples), encoding="utf-8") as fh:
                golden = json.load(fh)
        self.golden = golden

    def run_pass(self, tick=None) -> PassResult:
        ops, bytes_out = [], 0
        for command in ("verify", "constants"):
            run = run_command(self.cs, command, self.samples, self.seed, tick)
            bytes_out += len(run.stdout.encode("utf-8"))
            ops += check_command(command, run, self.golden[command])
        return PassResult(ops, bytes_out)


# ---------------------------------------------------------------------------
# param-sweep
# ---------------------------------------------------------------------------

# (tag, generator parameter, lo, hi, whether lo itself is valid).  Ranges are
# the full valid ranges; unbounded ones stop past the last branch change of
# both directions (bounded_re: clamped from 2.5 on; janowski_M: from 1.309).
CLASS_IN_CARDIOID = (
    ("order", "alpha", 0.0, 1.0, True),
    ("ram_singh", "alpha", 0.0, 1.0, True),
    ("padmanabhan", "alpha", 0.0, 1.0, False),
    ("lemniscate", "alpha", 0.0, 1.0, True),
    ("exponential", "alpha", 0.0, 1.0, True),
    ("cassinian", "c", 0.0, 1.0, False),
    ("booth", "alpha", 0.0, 1.0, True),
    ("bounded_re", "beta", 1.0, 4.0, False),
)

# (tag, target region kind and parameters, lo, hi, whether lo itself is valid).
# At one end of each range the radius goes to 0.  The range stops where it
# reaches 2e-4: `subordination_radius` raises for radii below 1e-4, and the
# sampled janowski_M branch of `radius_of_cardioid_in_class` returns 1e-4 for
# any smaller radius.  Both are limits of the package, not of the formulas.
CARDIOID_IN_CLASS = (
    ("order", lambda p: ("min_re", (p,)), 0.0, 0.9998, True),
    ("lemniscate", lambda p: ("lemniscate", (p,)), 0.0, 0.9995, True),
    ("ram_singh", lambda p: ("disk", (1.0, 0.0, 1.0 - p)), 0.0, 0.9998, True),
    ("bounded_re", lambda p: ("bounded_re", (p,)), 1.0002, 3.5, True),
    ("janowski_M", lambda p: ("disk", (p, 0.0, p)), 0.5001, 2.0, True),
)


def _stratified(rng, lo: float, hi: float, lo_valid: bool, k: int) -> list[float]:
    """k values, one uniform draw in each of k equal strata of the range;
    the invalid end of the half-open range is never drawn."""
    xs = [(j + rng.uniform()) / k for j in range(k)]
    if lo_valid:
        return [lo + (hi - lo) * x for x in xs]
    return [hi - (hi - lo) * x for x in xs]


class ParamSweep:
    """Closed-form radii against subordination-radius bisection."""

    name = "param-sweep"

    def __init__(self, cs, seed: int, scale: str):
        self.cs = cs
        per_family = 18 if scale == "full" else 1
        rng = np.random.default_rng(seed)
        self.points = []
        for tag, pname, lo, hi, lo_valid in CLASS_IN_CARDIOID:
            for p in _stratified(rng, lo, hi, lo_valid, per_family):
                self.points.append(("class-in-cardioid", tag, pname, p))
        for tag, region, lo, hi, lo_valid in CARDIOID_IN_CLASS:
            for p in _stratified(rng, lo, hi, lo_valid, per_family):
                self.points.append(("cardioid-in-class", tag, region, p))

    def _radii(self, direction, tag, extra, p):
        cs = self.cs
        if direction == "class-in-cardioid":
            res = cs.radii.radius_of_class_in_cardioid(tag, p)
            spec = cs.functions.extremal(tag, **{extra: p})
            target = cs.domains.make_domain("cardioid")
        else:
            res = cs.radii.radius_of_cardioid_in_class(tag, p)
            spec = cs.functions.extremal("cardioid_extremal")
            kind, params = extra(p)
            target = cs.domains.make_domain(kind, *params)
        return res, cs.verify.subordination_radius(spec, target, n=ORACLE_SAMPLES)

    def run_pass(self, tick=None) -> PassResult:
        ops = []
        clamped = 0
        for direction, tag, extra, p in self.points:
            name = f"{direction}:{tag}@{p:.6g}"
            t0 = perf_counter()
            try:
                res, measured = self._radii(direction, tag, extra, p)
            except Exception as exc:  # an oracle that raises is a failed operation
                end = perf_counter()
                ops.append(Op(name, end - t0, False, f"{type(exc).__name__}: {exc}", end))
                if tick is not None:
                    tick(end - t0)
                continue
            end = perf_counter()
            seconds = end - t0
            clamped += bool(res.clamped)
            problems = []
            if not abs(measured - res.value) < AGREEMENT_TOL:
                problems.append(f"formula {res.value:.9g} vs oracle {measured:.9g}")
            if res.clamped and res.value != 1.0:
                problems.append(f"clamped radius {res.value!r} is not 1")
            ops.append(Op(name, seconds, not problems, "; ".join(problems), end))
            if tick is not None:
                tick(seconds)
        return PassResult(ops, notes={"clamped": clamped, "interior": len(ops) - clamped})


# ---------------------------------------------------------------------------
# series-membership
# ---------------------------------------------------------------------------

MIN_ORDER, MAX_ORDER = 8, 64
ROUND_TRIP_TOL = 1e-12


def _random_member(rng, order: int) -> tuple[tuple[complex, ...], float]:
    """Coefficients a1 = 1, a2..aN scaled so that sum (2n-1)|a_n| = s <= 1."""
    raw = rng.uniform(-1.0, 1.0, order - 1) + 1j * rng.uniform(-1.0, 1.0, order - 1)
    weights = 2.0 * np.arange(2, order + 1) - 1.0
    s = float(rng.uniform(0.1, 1.0))
    raw *= s / float(np.sum(weights * np.abs(raw)))
    return (1.0 + 0j,) + tuple(complex(c) for c in raw), float(np.sum(weights * np.abs(raw)))


def _point_query(rng, near: bool, inside: bool) -> complex:
    """phi(rho e^{it}) with |rho - 1| = eps; the other preimage -2 - z0 is kept
    outside the closed disk, so the point is inside exactly when rho < 1."""
    while True:
        t = rng.uniform(-math.pi, math.pi)
        eps = 10.0 ** (rng.uniform(-7.0, -4.0) if near else rng.uniform(-2.0, math.log10(0.5)))
        z0 = (1.0 - eps if inside else 1.0 + eps) * cmath.exp(1j * t)
        if abs(z0 + 2.0) > 1.01:
            return 1.0 + z0 + 0.5 * z0 * z0


class SeriesMembership:
    """Series round trips and convolution checks, plus scalar point queries."""

    name = "series-membership"

    def __init__(self, cs, seed: int, scale: str):
        self.cs = cs
        n_series, n_points = (40, 60) if scale == "full" else (3, 4)
        rng = np.random.default_rng(seed)
        self.series = []
        span = MAX_ORDER - MIN_ORDER + 1
        for k in range(n_series):
            order = MIN_ORDER + int((k + rng.uniform()) * span / n_series)
            coeffs, total = _random_member(rng, order)
            rho = 1.0 - 0.8 * float(rng.uniform())
            self.series.append((coeffs, total, rho))
        self.points = []
        for k in range(n_points):
            near, inside = k % 2 == 0, (k // 2) % 2 == 0
            self.points.append((_point_query(rng, near, inside), inside, near))

    def _series_op(self, coeffs, total, rho) -> tuple[float, list[str]]:
        s = self.cs.series
        verify = self.cs.verify
        t0 = perf_counter()
        f = s.PowerSeries(coeffs)
        back_text = s.from_text(s.to_text(f))
        condition = s.coefficient_condition_sum(f)
        back_log = f.log_derivative().integrate_to_function()
        with_cardioid = verify.convolution_membership_check(f, s.f_cardioid_series(f.order), rho)
        with_half = verify.convolution_membership_check(f, s.PowerSeries.half_plane(f.order), rho)
        seconds = perf_counter() - t0

        problems = []
        if back_text.coeffs != f.coeffs:
            problems.append("text round trip changed the coefficients")
        if not (abs(condition - total) <= ROUND_TRIP_TOL and condition <= 1.0):
            problems.append(f"coefficient sum {condition!r}, expected {total!r}")
        if back_log.order != f.order or max(
                abs(a - b) for a, b in zip(back_log.coeffs, f.coeffs)) > ROUND_TRIP_TOL:
            problems.append("log-derivative round trip moved a coefficient")
        # coefficients of the cardioid extremal function have modulus <= 1, so
        # both Hadamard products still meet the coefficient condition
        for label, rep in (("cardioid", with_cardioid), ("half-plane", with_half)):
            if not rep.passed:
                problems.append(f"convolution with {label} series failed: {rep.measured_value}")
        return seconds, problems

    def _point_op(self, w, inside) -> tuple[float, list[str]]:
        c = self.cs.cardioid
        t0 = perf_counter()
        verdict = c.contains(w)
        implicit = c.contains_implicit(w)
        seconds = perf_counter() - t0
        problems = []
        if verdict.inside != inside:
            problems.append(f"contains says {verdict.verdict}")
        if implicit != inside:
            problems.append(f"implicit quartic says {'inside' if implicit else 'outside'}")
        if verdict.inside:
            z = verdict.preimage
            if not (abs(z) < 1.0 and abs(1.0 + z + 0.5 * z * z - w) <= ROUND_TRIP_TOL):
                problems.append(f"preimage {z!r} does not map to the point")
        return seconds, problems

    def run_pass(self, tick=None) -> PassResult:
        ops = []
        for coeffs, total, rho in self.series:
            name = f"series:order{len(coeffs)}@rho{rho:.4f}"
            try:
                seconds, problems = self._series_op(coeffs, total, rho)
            except Exception as exc:  # a call that raises is a failed operation
                seconds, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
            ops.append(Op(name, seconds, not problems, "; ".join(problems), perf_counter()))
            if tick is not None:
                tick(seconds)
        for w, inside, near in self.points:
            name = f"point:{'near' if near else 'far'}:{w:.6g}"
            try:
                seconds, problems = self._point_op(w, inside)
            except Exception as exc:  # a call that raises is a failed operation
                seconds, problems = 0.0, [f"{type(exc).__name__}: {exc}"]
            ops.append(Op(name, seconds, not problems, "; ".join(problems), perf_counter()))
            if tick is not None:
                tick(seconds)
        return PassResult(ops)


WORKLOADS = {w.name: w for w in (PaperCheck, ParamSweep, SeriesMembership)}
