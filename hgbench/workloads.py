"""The benchmark's workloads: inputs made from a seed, and the ops run on them.

An op is one public call the workload issues (a report, a sharpness scan
or a cold sphere measure) together with the check its output must pass.
Ops come in units, the smallest slice of a workload whose mix of ops is
representative; a run executes whole units, so its mix does not depend on
where the clock stops.

A run starts with the workload's reference units, built from the
criterion-04 corpus seed (0) whatever the run's seed, then goes through
cycles of units built from the run's seed.  The accuracy metrics (margins,
identity residuals, skipped points) are taken over the reference units, so
they compare across runs; on product fields they vary by 2x and more from
one corpus seed to the next.  ``radial_corpus`` repeats one cycle; the
other two build each cycle when the run reaches it, and no input recurs in
a ``cold_deep`` run.

Every call goes through an attribute of an hgineq module, so the tracer's
wrappers see it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import checks

REFERENCE_SEED = 0
GROUPS = (("r3", "r:3"), ("heis1", "heis1"), ("aniso12", "aniso:1,2"))

# the criterion-04 check mix
CKN_PAIRS = ((0.0, 1.0), (0.5, 0.5), (-0.5, 1.0), (1.0, 0.25), (0.25, -0.25))
PS = (1.5, 2.0, 3.0)
ALPHAS = tuple(sorted({a for a, _ in CKN_PAIRS}))
CORPUS_IDENTITY_KS = (1, 2)

# cold_deep: sharpness scans over this grid, identities at criterion-05 resolution
SCAN_PS = (1.5, 2.0, 3.0)
SCAN_ALPHAS = (-0.5, 0.0, 0.5, 1.0)
SCAN_BETAS = (-0.5, 0.5, 1.0, 1.5)
IDENTITY_KS = (1, 2, 3)
IDENTITY_ALPHAS = (-1.0, 0.0, 1.0)
# (group, norm) pairs whose sphere measure each cold group pass recomputes:
# the default norms and every catalog pair with a closed form
COLD_SIGMA = {
    "r3": (("r:3", "euclid"), ("r:3", "max"), ("r:2", "euclid"), ("r:2", "max")),
    "heis1": (("heis1", "koranyi"), ("heis1", "max")),
    "aniso12": (("aniso:1,2", "aniso"), ("aniso:1,2", "max")),
}

# fields per group, and the reference units every run starts with; a 30 s
# nonradial_corpus run does about one round, one point of each of its fields
SIZES = {
    "radial_corpus": {"fields": 50, "reference_units": 10},
    "nonradial_corpus": {"fields": 120, "reference_units": 12},
    "cold_deep": {"fields": 15, "reference_units": 1},
}
# a timed cold_deep cycle shifts each scan's (alpha, beta) by
# (d, d (p - 1)), |d| <= SCAN_SHIFT: the profile keeps its branch, the
# extremizer fields are new
SCAN_SHIFT = 0.02
TINY = {"fields": 1, "reference_units": 1}
MIN_OPS = 100  # per run, so that ten latency samples lie beyond p90


@dataclass
class Op:
    kind: str  # "report", "scan" or "sigma"
    group: str
    structure: str  # field structure of a report, "" otherwise
    call: object
    check: object  # result -> list of problems
    label: str  # the op's inputs, for problem messages
    expect_skip: bool = False
    points: int = 1  # grid points the op attempts


@dataclass
class Workload:
    name: str
    reference: list  # units run once, first
    cycle: object  # cycle number -> units; cycles 0, 1, ... follow the reference
    repeats: bool  # whether every cycle is the same units (else each is built anew)
    min_ops: int = MIN_OPS
    setup_problems: list = field(default_factory=list)
    setup_checks: int = 0


def groups(hg):
    out = []
    for key, gid in GROUPS:
        group = hg.parse_group(gid)
        out.append((key, group, hg.default_norm(group)))
    return out


def _corpus(hg, group, norm, count, seed, radial_fraction):
    spec = hg.CorpusSpec(count=count, seed=seed, radial_fraction=radial_fraction)
    return hg.corpus.make_corpus(group, norm, spec)


def corpus_points(q_dim):
    """The criterion-04 grid for one field plus the L^2 identity at
    ``alpha = 0``: ``(check, p or k, alpha, beta, must be refused)``."""
    out = []
    for p in PS:
        out += [("ckn", p, a, b, False) for a, b in CKN_PAIRS]
        out += [("hardy", p, a, None, checks.expect_skip("hardy", q_dim, p, a)) for a in ALPHAS]
        out += [("hpw1", p, a, None, False) for a in ALPHAS]
        out += [(v, p, 0.0, None, checks.expect_skip(v, q_dim, p)) for v in ("up1p", "hpw2")]
    out += [("l2-identity", k, 0.0, None, False) for k in CORPUS_IDENTITY_KS]
    return out


def generic_points(q_dim):
    """ckn and hardy at p = 2, run on the fields wrapped as opaque callables."""
    out = [("ckn", 2.0, a, b, False) for a, b in CKN_PAIRS]
    out += [("hardy", 2.0, a, None, checks.expect_skip("hardy", q_dim, 2.0, a)) for a in ALPHAS]
    return out


def report_op(hg, key, group, norm, f, point, config=None, mode="auto", resid_tol=None):
    check, p, a, b, skip = point
    rp = hg.reports
    if check == "ckn":
        def call():
            return rp.ckn_report(group, norm, f, p, a, b, config=config, mode=mode)
    elif check == "hardy":
        def call():
            return rp.hardy_report(group, norm, f, p, a, config=config, mode=mode)
    elif check == "hpw1":
        def call():
            return rp.uncertainty_report(group, norm, f, p, variant="hpw1", alpha=a,
                                         config=config, mode=mode)
    elif check in ("up1p", "hpw2"):
        def call():
            return rp.uncertainty_report(group, norm, f, p, variant=check, config=config,
                                         mode=mode)
    elif check == "l2-identity":
        def call():
            return rp.l2_identity_report(group, norm, f, alpha=a, k=p, config=config, mode=mode)
    else:
        raise ValueError(f"unknown check {check!r}")
    return Op("report", key, f.structure, call,
              lambda rep: checks.report_problems(rep, resid_tol),
              f"{check} {f.field_id} p|k={p:g} a={a:g} b={b}", expect_skip=skip)


def radial_units(hg, seed, size):
    """Field-major, as the criterion-04 gate runs: each field takes its
    whole grid before the next starts; a unit is one field per group."""
    per_group = []
    for key, group, norm in groups(hg):
        pts = corpus_points(group.homogeneous_dimension)
        per_group.append([[report_op(hg, key, group, norm, f, pt) for pt in pts]
                          for f in _corpus(hg, group, norm, size["fields"], seed, 1.0)])
    return [[op for rows in per_group for op in rows[i]] for i in range(size["fields"])]


def _interleave(items, key):
    """Order ``items`` so that the first ones are one of each class (by
    ``key``) and each class is then spaced evenly.  Within a class the
    points the grid must refuse come first, so even a short run meets them."""
    classes = {}
    for item in items:
        classes.setdefault(key(item), []).append(item)
    ranked = [(j / len(c), i, item) for i, c in enumerate(classes.values())
              for j, item in enumerate(sorted(c, key=lambda it: not it[0][4]))]
    return [item for _, _, item in sorted(ranked, key=lambda t: t[:2])]


def nonradial_rounds(hg, seed, size):
    """Product-field reports cost ~20x quasi-radial ones and their cost
    varies by field, so a run must sample many fields: round ``r`` runs one
    point of every field, field ``i`` at point ``r + i`` of its group's
    grid, as one unit per field index over all groups.  Each grid (the
    corpus grid and the generic-field points) is interleaved by check kind,
    so any stretch of a round meets every kind.  The fields are made here,
    at set-up; the returned function builds a round's ops."""
    per_group = []
    for key, group, norm in groups(hg):
        q_dim = group.homogeneous_dimension
        grid = [(pt, False) for pt in corpus_points(q_dim)]
        grid += [(pt, True) for pt in generic_points(q_dim)]
        grid = _interleave(grid, key=lambda g: (g[1], g[0][0]))
        fields = [(f, hg.generic_field(f.values, f.support, norm=norm,
                                       field_id=f.field_id + "|generic"))
                  for f in _corpus(hg, group, norm, size["fields"], seed, 0.0)]
        per_group.append((key, group, norm, grid, fields))

    def unit(r, i):
        ops = []
        for key, group, norm, grid, fields in per_group:
            pt, generic = grid[(r + i) % len(grid)]
            f, opaque = fields[i]
            ops.append(report_op(hg, key, group, norm, opaque if generic else f, pt))
        return ops

    return lambda r: [unit(r, i) for i in range(size["fields"])]


def _sigma_op(hg, key, gid, nname, clear_first):
    group = hg.parse_group(gid)
    norm = hg.make_norm(group, nname)
    exact = checks.closed_form_sigma(group, norm.kind)
    label = f"{gid}/{norm.kind}"

    def call():
        if clear_first:
            hg.calculus.clear_sphere_measure_cache()
        return hg.calculus.sphere_measure(group, norm)

    return Op("sigma", key, "", call, lambda sm: checks.sigma_problems(label, sm.value, exact),
              label)


def _scan_op(hg, key, group, norm, p, a, b, shift=0.0):
    """A scan at ``(p, a, b)``, or, with ``shift`` d, at
    ``(p, a + d, b + d (p - 1))``.  A degenerate point is refused before
    any extremizer is built, so it is never shifted."""
    degenerate = a + b + 1.0 == group.homogeneous_dimension
    if not degenerate:
        a, b = a + shift, b + shift * (p - 1.0)
    gated = (p, a, b) == (2.0, 0.0, 1.0) and key in ("r3", "heis1")

    def call():
        return hg.extremizers.sharpness_scan(group, norm, p, a, b)

    return Op("scan", key, "", call,
              lambda scan: checks.scan_problems(scan, checks.BEST_GAP_LIMIT if gated else None),
              f"scan p={p:g} a={a!r} b={b!r}", expect_skip=degenerate,
              points=1 if degenerate else len(hg.DEFAULT_SCHEDULE))


def cold_units(hg, seed, size, cycle=None):
    """One unit is a whole cycle of three group passes.  Each pass clears
    the sphere-measure memo, recomputes sigma cold, scans the default
    schedule over a (p, alpha, beta) grid and checks the L^2 identities.

    Without ``cycle`` this is the reference pass: corpus seed ``seed`` and
    the grid as it stands.  Cycle ``c`` of a run draws its corpus seed and
    its scan shifts from ``(seed, c)``, so its fields and extremizers are
    new (the best-gap gate at (2, 0, 1) is then checked by the reference
    pass only)."""
    rng = None if cycle is None else np.random.default_rng((seed, cycle))
    corpus_seed = seed if rng is None else int(rng.integers(2**31))
    cfg = hg.QuadratureConfig(radial_order=64, radial_panels=12)
    tiny = size is TINY
    unit = []
    for key, group, norm in groups(hg):
        pairs = COLD_SIGMA[key][:1] if tiny else COLD_SIGMA[key]
        unit += [_sigma_op(hg, key, gid, nname, j == 0) for j, (gid, nname) in enumerate(pairs)]
        grid = [(2.0, 0.0, 1.0)] if tiny else [
            (p, a, b) for p in SCAN_PS for a in SCAN_ALPHAS for b in SCAN_BETAS]
        shifts = ([0.0] * len(grid) if rng is None
                  else rng.uniform(-SCAN_SHIFT, SCAN_SHIFT, len(grid)).tolist())
        unit += [_scan_op(hg, key, group, norm, *pab, d) for pab, d in zip(grid, shifts)]
        for f in _corpus(hg, group, norm, size["fields"], corpus_seed, 1.0):
            unit += [report_op(hg, key, group, norm, f, ("l2-identity", k, a, None, False),
                               config=cfg, mode="analytic", resid_tol=checks.DEEP_IDENTITY_TOL)
                     for k in IDENTITY_KS for a in IDENTITY_ALPHAS]
    return [unit]


def build(hg, name, seed, tiny=False):
    """Set-up: groups, norms, corpora and, for the corpus workloads, the
    sphere measure of each default norm computed cold (checked against its
    closed form where there is one)."""
    size = TINY if tiny else SIZES[name]
    n_ref = size["reference_units"]
    hg.calculus.clear_sphere_measure_cache()
    # a corpus's first fields do not depend on its size, and field i of a
    # workload's first unit(s) is the corpus's field i
    ref_size = dict(size, fields=n_ref)
    if name == "radial_corpus":
        units = radial_units(hg, seed, size)
        wl = Workload(name, radial_units(hg, REFERENCE_SEED, ref_size), lambda c: units, True)
    elif name == "nonradial_corpus":
        reference = nonradial_rounds(hg, REFERENCE_SEED, ref_size)(0)
        wl = Workload(name, reference, nonradial_rounds(hg, seed, size), False)
    else:
        wl = Workload(name, cold_units(hg, REFERENCE_SEED, size),
                      lambda c: cold_units(hg, seed, size, cycle=c), False)
    if name != "cold_deep":
        for _, group, norm in groups(hg):
            sm = hg.calculus.sphere_measure(group, norm)
            exact = checks.closed_form_sigma(group, norm.kind)
            wl.setup_checks += 1
            wl.setup_problems += checks.sigma_problems(f"{group.name}/{norm.kind}",
                                                       sm.value, exact)
    wl.min_ops = 0 if tiny else MIN_OPS
    return wl
