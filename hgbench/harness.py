"""Runs a workload, checks every output and turns the run into metrics.

Untraced runs give the end-to-end metrics.  Traced runs wrap the layer
boundaries (see :mod:`tracing`), run the workload's reference units once
without tracing and then again with it, and give the per-layer metrics.
"""

from __future__ import annotations

import math
import resource
import statistics
import time
from array import array
from dataclasses import dataclass, field

import numpy as np

import checks
import speed
import tracing
import workloads

SETUP_REPS = 3
MAX_PROBLEMS = 20  # problems kept for the run record

# sphere-measure pairs with a closed form, and the r:3 Gaussian moments of
# acceptance criterion 03: (weight, derivative order, ||R^k f / N^weight||_2^2)
CALIBRATION_PAIRS = (("r2", "r:2", "euclid"), ("r2", "r:2", "max"), ("r3", "r:3", "euclid"),
                     ("r3", "r:3", "max"), ("heis1", "heis1", "koranyi"),
                     ("heis1", "heis1", "max"), ("aniso12", "aniso:1,2", "max"))
GAUSS_R3 = ((1.0, 0, 2.0 * math.pi**1.5), (0.0, 1, 1.5 * math.pi**1.5),
            (-1.0, 0, 1.5 * math.pi**1.5))
STRUCTURES = ("radial", "product", "generic")


@dataclass
class Record:
    """An op of the reference units, with its result."""

    op: object
    status: str  # "ok", "skipped" or "failed"
    result: object


@dataclass
class Outcome:
    """What a run reports: its problems, op and check counts, and metrics
    as ``name -> (value, unit)``; ``info`` goes into the run metadata."""

    problems: list
    attempted: int
    failed: int
    metrics: dict
    info: dict


@dataclass
class Execution:
    """A run as aggregates: only the reference units' records are kept, and
    each other op adds two numbers, so a run's memory barely depends on how
    many ops it completes."""

    reference: list = field(default_factory=list)  # Records of the reference units
    latency: array = field(default_factory=lambda: array("d"))  # raw s, completed ops
    slices: array = field(default_factory=lambda: array("q"))  # speed-clock slice of each
    scaled: object = None  # ``latency`` at reference machine speed, set at the end
    ops: int = 0
    failed: int = 0
    kind_s: dict = field(default_factory=dict)  # op kind -> raw seconds
    report_s: dict = field(default_factory=dict)  # (group, structure) -> [reports, raw s]
    prefix_wall: float = 0.0  # scaled, as is ``scaled_wall``
    scaled_wall: float = 0.0
    wall: float = 0.0  # raw, without the building of cycles
    build_s: float = 0.0  # raw, spent building cycles
    units: int = 0
    problems: list = field(default_factory=list)


def _fingerprint(result):
    if hasattr(result, "lhs"):
        return (result.lhs, result.rhs, result.margin)
    if hasattr(result, "entries"):
        return tuple(e.get("attained") for e in result.entries)
    return (result.value, result.error)


class RerunCheck:
    """A repeated op must reproduce its first result exactly.  Ops are
    numbered by their place in the cycle; the hashes of their first results
    live in arrays filled before the run starts."""

    def __init__(self, units):
        self.offsets = np.cumsum([0] + [len(u) for u in units]).tolist()
        self.first = np.full(self.offsets[-1], 0, dtype=np.int64)
        self.seen = np.full(self.offsets[-1], False)

    def changed(self, pos, j, result):
        i = self.offsets[pos] + j
        h = hash(_fingerprint(result))
        if not self.seen[i]:
            self.first[i], self.seen[i] = h, True
        return self.first[i] != h


def _judge(hg, op, result, exc):
    """Status and problems of one op's outcome."""
    refused = isinstance(exc, (hg.DegenerateConstantError, hg.InvalidParameterError))
    tag = f"{op.kind} {op.group} {op.label}"
    if op.expect_skip:
        if refused:
            return "skipped", []
        return "failed", [f"{tag}: expected a refusal, got {exc or result!r}"]
    if exc is not None:
        return "failed", [f"{tag}: {type(exc).__name__}: {exc}"]
    problems = op.check(result)
    return ("failed" if problems else "ok"), problems


def _schedule(wl, ex, clock, tracer, reference_only):
    """``(cycle, position, unit)`` in run order, cycle -1 being the
    reference units.  A cycle is built when the run reaches it; that time
    is taken out of the timed wall."""
    for pos, unit in enumerate(wl.reference):
        yield -1, pos, unit
    cycle = 0
    while not reference_only:
        start = time.perf_counter()
        if tracer:
            tracer.phase = "build"
        units = wl.cycle(cycle)
        if tracer:
            tracer.phase = "timed"
        built = time.perf_counter() - start
        ex.build_s += built
        clock.skip(built)
        for pos, unit in enumerate(units):
            yield cycle, pos, unit
        cycle += 1


def execute(hg, wl, seconds, tracer=None, reference_only=False):
    """Run the reference units, then whole units until ``seconds`` have
    passed and at least ``wl.min_ops`` ops are done.  Reports are rendered
    with ``render_json`` after each unit.  Times are scaled to reference
    machine speed (see :mod:`speed`)."""
    ex = Execution()
    rerun = RerunCheck(wl.cycle(0)) if wl.repeats and not reference_only else None
    clock = speed.SpeedClock()
    t0 = time.perf_counter()
    for cycle, pos, unit in _schedule(wl, ex, clock, tracer, reference_only):
        rendered = []
        for j, op in enumerate(unit):
            if tracer:
                tracer.op = ex.ops
            exc = result = None
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as e:  # noqa: BLE001 - every failure is recorded and counted
                exc = e
            latency = time.perf_counter() - start
            if tracer:
                tracer.op = None
            status, problems = _judge(hg, op, result, exc)
            if status == "ok" and rerun and cycle >= 0 and rerun.changed(pos, j, result):
                status, problems = "failed", [f"{op.kind} {op.group} {op.label}: "
                                              "result changed on rerun"]
            ex.ops += 1
            ex.kind_s[op.kind] = ex.kind_s.get(op.kind, 0.0) + latency
            if status == "ok":
                ex.latency.append(latency)
                ex.slices.append(clock.slice)
                if op.kind == "report":
                    rendered.append(result)
                    agg = ex.report_s.setdefault((op.group, op.structure), [0, 0.0])
                    agg[0] += 1
                    agg[1] += latency
            elif status == "failed":
                ex.failed += 1
            ex.problems += problems
            if cycle < 0:
                ex.reference.append(Record(op, status, result))
            clock.tick()
        if rendered:
            hg.io.render_json(rendered)
        ex.units += 1
        if ex.units == len(wl.reference):
            clock.tick(force=True)
            ex.prefix_wall = clock.scaled_wall()
        done = cycle >= 0 and ex.ops >= wl.min_ops
        if done and time.perf_counter() - t0 - ex.build_s >= seconds:
            break
    clock.tick(force=True)
    ex.wall = time.perf_counter() - t0 - ex.build_s
    ex.scaled_wall = clock.scaled_wall()
    ex.scaled = np.asarray(ex.latency) * np.asarray(clock.factors())[np.asarray(ex.slices)]
    return ex


def prefix_document(hg, ex):
    """The ``render_json`` document of every report of the reference units."""
    return hg.io.render_json([r.result for r in ex.reference
                              if r.status == "ok" and r.op.kind == "report"])


def _quality(ex):
    """Accuracy over the reference units, the same inputs in every run."""
    points = skipped = 0
    margins, resid = [], []
    for r in ex.reference:
        points += r.op.points
        if r.status == "skipped":
            skipped += r.op.points
        elif r.status == "ok" and r.op.kind == "scan":
            skipped += sum(1 for e in r.result.entries if e.get("attained") is None)
        elif r.status == "ok" and r.op.kind == "report":
            rep = r.result
            margins.append(rep.margin / abs(rep.rhs))
            if rep.kind == "identity":
                resid.append(checks.identity_residual(rep))
    return {
        "skipped_frac": (skipped / points, "ratio"),
        "margin_rel_p50": (statistics.median(margins), "ratio"),
        "margin_rel_max": (max(margins), "ratio"),
        "identity_resid_rel_max": (max(resid) if resid else 0.0, "ratio"),
    }


def _timing(ex):
    """Over completed ops: a refused point returns at once and is counted
    in ``skipped_frac`` instead."""
    lat_ms = (ex.scaled * 1e3).tolist()
    return {
        "ops_per_s": (len(lat_ms) / ex.scaled_wall, "1/s"),
        "op_ms_p50": (statistics.median(lat_ms), "ms"),
        "op_ms_p90": (statistics.quantiles(lat_ms, n=10)[8], "ms"),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(hg, name, seed, seconds, import_s, tiny=False):
    """End-to-end metrics; set-up runs ``SETUP_REPS`` times, median kept."""
    import_scaled = speed.scale(import_s, speed.probe(), speed.probe())
    setups = []
    for _ in range(SETUP_REPS):
        before = speed.probe()
        t = time.perf_counter()
        wl = workloads.build(hg, name, seed, tiny)
        setups.append(speed.scale(time.perf_counter() - t, before, speed.probe()))
    ex = execute(hg, wl, seconds)
    metrics = _timing(ex)
    metrics["setup_s"] = (import_scaled + statistics.median(setups), "s")
    metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    metrics.update(_quality(ex))
    share = {kind: t / ex.wall for kind, t in ex.kind_s.items()}
    info = {"units": ex.units, "ops": ex.ops, "wall_s": ex.wall, "build_s": ex.build_s,
            "speed_scale": ex.scaled_wall / ex.wall, "wall_share": share,
            "import_s": import_s, "setup_reps_s": setups, "failed_frac": ex.failed / ex.ops}
    failed = ex.failed + len(wl.setup_problems)
    return Outcome(wl.setup_problems + ex.problems, ex.ops + wl.setup_checks, failed,
                   metrics, info)


def calibration(hg):
    """Estimated against actual error where the answer is known in closed
    form, and how close the extremal family gets to the sharp constant."""
    metrics, problems = {}, []
    for key, gid, nname in CALIBRATION_PAIRS:
        group = hg.parse_group(gid)
        norm = hg.make_norm(group, nname)
        sm = hg.calculus.sphere_measure(group, norm)
        exact = checks.closed_form_sigma(group, norm.kind)
        actual = abs(sm.value - exact)
        label = f"calibration.sigma.{key}.{norm.kind}"
        metrics[label + ".rel_err"] = (actual / exact, "ratio")
        metrics[label + ".est_over_actual"] = (sm.error / max(actual, 1e-300), "ratio")
        problems += checks.sigma_problems(f"{gid}/{norm.kind}", sm.value, exact)
    group = hg.parse_group("r:3")
    norm = hg.default_norm(group)
    f = hg.radial_field(hg.gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")
    worst = (-1.0, 0.0)
    for weight, k, exact in GAUSS_R3:
        fk = hg.nth_radial_derivative(group, norm, f, k)
        val, err = hg.calculus.weighted_lp_norm(group, norm, fk, weight, 2.0)
        actual = abs(val**2 - exact) / exact
        worst = max(worst, (actual, 2.0 * err / val))
    metrics["calibration.gauss_r3.rel_err"] = (worst[0], "ratio")
    metrics["calibration.gauss_r3.est_over_actual"] = (worst[1] / max(worst[0], 1e-300), "ratio")
    for key, group, norm in workloads.groups(hg):
        scan = hg.extremizers.sharpness_scan(group, norm, 2.0, 0.0, 1.0)
        metrics[f"extremizers.best_gap.{key}"] = (scan.best_gap, "ratio")
    return metrics, problems


# per-layer stats of the timed phase, as ``<layer>.<stat>``
LAYER_STATS = (
    ("profiles.derivatives", ("calls", "self_s", "points")),
    ("quadrature.integrate_radial", ("calls", "self_s")),
    # total_s includes the integrand's norm, monomial and profile spans
    ("quadrature.integrate_box", ("calls", "self_s", "total_s")),
    ("fields.monomials", ("calls", "self_s", "points")),
    ("norms.eval", ("calls", "self_s", "points")),
    ("calculus.weighted_lp_norm", ("calls", "self_s")),
    ("calculus.weighted_combo_l2", ("calls", "self_s")),
    ("calculus.sphere_measure", ("calls", "self_s")),
    ("extremizers.sharpness_scan", ("calls", "self_s")),
    ("reports", ("self_s",)),
    ("io.render_json", ("self_s",)),
)
STAT_UNITS = {"calls": "count", "points": "count", "self_s": "s", "total_s": "s"}


def _layers(tracer, ex):
    tot = tracer.layer_totals("timed")
    n_ops = ex.ops
    m = {f"{layer}.{stat}": (tot[layer][stat], STAT_UNITS[stat])
         for layer, stats in LAYER_STATS for stat in stats}
    m["profiles.points_per_op"] = (tot["profiles.derivatives"]["points"] / n_ops, "count")
    m["quadrature.radial_nodes"] = (tot["quadrature.radial_log_nodes"]["points"], "count")
    m["quadrature.radial_log_nodes.per_op"] = (
        tot["quadrature.radial_log_nodes"]["calls"] / n_ops, "count")
    m["quadrature.box_nodes"] = (tot["quadrature.integrate_box"]["points"], "count")
    m["calculus.weighted_lp_norm.per_op"] = (
        tot["calculus.weighted_lp_norm"]["calls"] / n_ops, "count")
    calls = tot["calculus.sphere_measure"]["calls"]
    misses = tracer.sigma_misses("timed")
    m["calculus.sphere_measure.misses"] = (misses, "count")
    m["calculus.sphere_measure.setup_misses"] = (tracer.sigma_misses("setup"), "count")
    m["calculus.sphere_measure.hit_ratio"] = ((calls - misses) / calls if calls else 0.0, "ratio")
    m["corpus.make_corpus.self_s"] = (
        tracer.layer_totals("setup")["corpus.make_corpus"]["self_s"], "s")
    m["io.bytes"] = (tot["io.render_json"]["points"], "B")
    for key, _ in workloads.GROUPS:
        for structure in STRUCTURES:
            n, secs = ex.report_s.get((key, structure), (0, 0.0))
            m[f"reports_per_s.{key}.{structure}"] = (n / secs if n else 0.0, "1/s")
    m["trace.wall_s"] = (ex.wall, "s")
    return m


def run_traced(hg, name, seed, seconds, tiny=False, spans_path=None):
    """Per-layer metrics.  The reference units run untraced, then the
    traced run repeats them and goes on for ``seconds``; both must render
    byte-identical documents."""
    tracer = tracing.Tracer()
    tracing.install(tracer, hg)
    try:
        wl = workloads.build(hg, name, seed, tiny)
    finally:
        tracer.restore()
    plain = execute(hg, wl, 0.0, reference_only=True)
    tracing.install(tracer, hg)
    tracer.phase = "timed"
    try:
        ex = execute(hg, wl, seconds, tracer=tracer)
    finally:
        tracer.restore()
    metrics = _layers(tracer, ex)
    metrics["trace.overhead_frac"] = (ex.prefix_wall / plain.prefix_wall - 1.0, "ratio")
    cal, cal_problems = calibration(hg)
    metrics.update(cal)
    if spans_path:
        tracer.write(spans_path)
    # checks outside the ops: set-up sigma, calibration sigma, byte identity
    side = wl.setup_problems + cal_problems
    if prefix_document(hg, plain) != prefix_document(hg, ex):
        side.append("tracing changed the rendered report document")
    attempted = plain.ops + ex.ops + wl.setup_checks + len(CALIBRATION_PAIRS) + 1
    info = {"units": ex.units, "ops": ex.ops, "wall_s": ex.wall,
            "spans": len(tracer.spans)}
    return Outcome(plain.problems + ex.problems + side, attempted,
                   plain.failed + ex.failed + len(side), metrics, info)
