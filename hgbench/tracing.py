"""Spans around calls into hgineq's layers, recorded from outside the package.

:class:`Tracer` replaces a function at the place it is looked up (a module
global or a class attribute) by a wrapper that records one span per call:
name, start, end, parent span, op id and phase, plus the span's self time
(its duration minus the time its child spans cover) and an optional work
count ("points").  :meth:`Tracer.restore` puts every original back.  Spans
stay in memory until :meth:`Tracer.write` dumps them at the end of a run.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _rows(x, dim):
    return np.asarray(x).size // dim


SPAN_FIELDS = ("name", "start", "end", "parent", "op", "phase", "self_s", "points")


class Tracer:
    """Records nested spans; single-threaded by construction."""

    def __init__(self):
        self.spans = []  # tuples of SPAN_FIELDS
        self.op = None
        self.phase = "setup"
        self._stack = []  # [span index, time covered by children]
        self._open = defaultdict(int)
        self._patches = []

    def wrap(self, owner, attr, name, points=None, outermost=False):
        """Trace ``owner.attr`` as span ``name``.

        ``points(args, kwargs, result)`` returns the work count of a call.
        With ``outermost`` a call made while a span of the same name is
        open is passed through unrecorded (for recursive stacks).
        """
        orig = vars(owner)[attr]
        tracer = self

        def wrapper(*args, **kwargs):
            if outermost and tracer._open[name]:
                return orig(*args, **kwargs)
            idx = len(tracer.spans)
            tracer.spans.append(None)
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [idx, 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            result = None
            start = time.perf_counter()
            try:
                result = orig(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                tracer._open[name] -= 1
                tracer._stack.pop()
                dur = end - start
                if tracer._stack:
                    tracer._stack[-1][1] += dur
                count = points(args, kwargs, result) if points and result is not None else 0
                tracer.spans[idx] = (name, start, end, parent, tracer.op, tracer.phase,
                                     dur - frame[1], count)

        self._patches.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def layer_totals(self, phase="timed"):
        """Per span name: calls, summed self and total time, and points, for one phase."""
        out = defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "points": 0})
        for name, start, end, _, _, ph, self_s, pts in self.spans:
            if ph == phase:
                agg = out[name]
                agg["calls"] += 1
                agg["self_s"] += self_s
                agg["total_s"] += end - start
                agg["points"] += pts
        return out

    def sigma_misses(self, phase):
        """``sphere_measure`` spans that did quadrature, i.e. missed the memo."""
        parents = {
            parent for name, _, _, parent, _, _, _, _ in self.spans
            if name == "quadrature.integrate_box"
        }
        return sum(
            1 for i, (name, _, _, _, _, ph, _, _) in enumerate(self.spans)
            if name == "calculus.sphere_measure" and ph == phase and i in parents
        )

    def write(self, path):
        """JSON lines: a header naming the fields, then one array per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(SPAN_FIELDS) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer, hg):
    """Wrap the layer boundaries of the hgineq modules in ``hg``.

    Functions are wrapped where their callers look them up, so calls made
    inside the package are seen too (e.g. ``integrate_box`` as called from
    ``hgineq.calculus``).
    """
    cfg_default = hg.quadrature.DEFAULT_CONFIG

    def box_nodes(args, kwargs, _):
        n = len(_arg(args, kwargs, 1, "bounds"))
        pts = _arg(args, kwargs, 2, "config", cfg_default).box_points
        return pts**n + max(2, pts // 2) ** n

    def radial_nodes(args, kwargs, _):
        return _arg(args, kwargs, 2, "order") * _arg(args, kwargs, 3, "panels")

    def profile_points(args, kwargs, _):
        return np.asarray(_arg(args, kwargs, 1, "r")).size

    def monomial_points(args, kwargs, _):
        return _rows(_arg(args, kwargs, 1, "x"), args[0].dim)

    def norm_points(args, kwargs, _):
        return _rows(_arg(args, kwargs, 1, "x"), args[0].group.dim)

    def rendered_bytes(_args, _kwargs, result):
        return len(result.encode())

    tracer.wrap(hg.profiles.RadialProfile, "derivatives", "profiles.derivatives",
                profile_points, outermost=True)
    tracer.wrap(hg.fields.PolyFactor, "monomials", "fields.monomials", monomial_points)
    tracer.wrap(hg.norms.QuasiNormSpec, "__call__", "norms.eval", norm_points)
    tracer.wrap(hg.quadrature, "radial_log_nodes", "quadrature.radial_log_nodes", radial_nodes)
    tracer.wrap(hg.calculus, "integrate_radial", "quadrature.integrate_radial")
    tracer.wrap(hg.calculus, "integrate_box", "quadrature.integrate_box", box_nodes)
    tracer.wrap(hg.calculus, "sphere_measure", "calculus.sphere_measure")
    for mod in (hg.reports, hg.extremizers):
        tracer.wrap(mod, "weighted_lp_norm", "calculus.weighted_lp_norm")
    tracer.wrap(hg.reports, "weighted_combo_l2", "calculus.weighted_combo_l2")
    for fn in ("ckn_report", "hardy_report", "uncertainty_report", "l2_identity_report"):
        tracer.wrap(hg.reports, fn, "reports")
    tracer.wrap(hg.extremizers, "sharpness_scan", "extremizers.sharpness_scan")
    tracer.wrap(hg.corpus, "make_corpus", "corpus.make_corpus")
    tracer.wrap(hg.io, "render_json", "io.render_json", rendered_bytes)
