"""Output checks.  Each returns a list of problems; an empty list means the
output is right.  They read only numbers, never a result's own verdict
flags, so a report that claims ``satisfied`` while its numbers say
otherwise is caught."""

from __future__ import annotations

import math

SIGMA_TOL = 1e-3  # relative, against the closed form
DEEP_IDENTITY_TOL = 1e-6  # relative residual at the cold_deep resolution
BEST_GAP_LIMIT = 0.05  # at (p, alpha, beta) = (2, 0, 1) on r:3 and heis1

_CLOSED_SIGMA = {
    ("r:2", "euclidean"): 2.0 * math.pi,
    ("r:3", "euclidean"): 4.0 * math.pi,
    ("heis1", "koranyi"): 0.5 * math.pi**2,
}


def closed_form_sigma(group, norm_kind):
    """Area of ``{N = 1}`` where it is known in closed form, else ``None``.

    The unit ball of ``max_scaled`` is the cube ``[-1, 1]^n``, of volume
    ``2^n``; the cone measure then gives ``sigma = Q 2^n``.
    """
    if norm_kind == "max_scaled":
        return sum(group.weights) * 2.0**group.dim
    return _CLOSED_SIGMA.get((group.name, norm_kind))


def expect_skip(check, q_dim, p, alpha=0.0):
    """Whether a grid point of the corpus mix is degenerate, so the report
    must be refused: the Hardy step constant has ``Q = p (alpha + 1)`` in
    its denominator, and ``up1p`` needs ``p < Q``."""
    if check == "hardy":
        return q_dim == p * (alpha + 1.0)
    if check == "up1p":
        return p >= q_dim
    return False


def identity_residual(rep):
    scale = max(abs(rep.lhs), abs(rep.rhs))
    return abs(rep.lhs - rep.rhs) / scale if scale > 0 else 0.0


def report_problems(rep, resid_tol=None):
    lhs, rhs, margin = rep.lhs, rep.rhs, rep.margin
    tag = f"{rep.check_id} {rep.group} {rep.field_id} {rep.params}"
    if not all(math.isfinite(v) for v in (lhs, rhs, margin)) or margin < 0:
        return [f"{tag}: bad numbers lhs={lhs} rhs={rhs} margin={margin}"]
    problems = []
    if rep.kind == "identity":
        holds = abs(lhs - rhs) <= margin
        if resid_tol is not None and identity_residual(rep) > resid_tol:
            problems.append(f"{tag}: identity residual {identity_residual(rep):.3g} > {resid_tol}")
    else:
        holds = lhs <= rhs + margin
    if not holds:
        problems.append(f"{tag}: violated, lhs={lhs!r} rhs={rhs!r} margin={margin!r}")
    if rep.satisfied != holds:
        problems.append(f"{tag}: satisfied={rep.satisfied} disagrees with its numbers")
    return problems


def sigma_problems(label, value, exact, tol=SIGMA_TOL):
    if not (math.isfinite(value) and value > 0):
        return [f"sigma {label}: bad value {value}"]
    if exact is not None and abs(value - exact) > tol * exact:
        return [f"sigma {label}: {value!r} is off its closed form {exact!r} by more than {tol}"]
    return []


def scan_problems(scan, gap_limit=None):
    """No entry may undercut the sharp constant beyond its own margin; with
    ``gap_limit`` the best entry must also come that close to it."""
    problems = []
    tag = f"scan {scan.group} (p={scan.p:g}, a={scan.alpha:g}, b={scan.beta:g})"
    for e in scan.entries:
        if e.get("attained") is None:
            if not e.get("skipped"):
                problems.append(f"{tag}: entry {e['eps']:g} has neither value nor skip reason")
        elif not e["attained"] >= scan.target - e["margin"]:
            problems.append(f"{tag}: entry {e['eps']:g} undercuts the sharp constant "
                            f"{scan.target!r}: {e['attained']!r} (margin {e['margin']!r})")
    if gap_limit is not None and not scan.best_gap <= gap_limit:
        problems.append(f"{tag}: best gap {scan.best_gap!r} > {gap_limit}")
    return problems
