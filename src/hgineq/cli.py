"""Command-line interface.

Subcommands
-----------
``verify``          run inequality checks over a generated field corpus
``scan-sharpness``  drive the extremal family toward the sharp constant
``sphere-measure``  compute the unit-sphere area of a quasi-norm
``identity-check``  verify the exact L^2 remainder identity
``constants``       print the closed-form constants for given parameters

Options may come from a JSON config file (``--config``); explicit flags
override file values.  Exit status: 0 on success, 1 if any check failed
or a requested sharpness target was missed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import copy
import itertools
import json
import sys

from . import __version__
from .calculus import sphere_measure
from .constants import constant_table
from .corpus import CorpusSpec, make_corpus
from .errors import ConfigError, DegenerateConstantError, HgineqError, InvalidParameterError
from .extremizers import sharpness_scan
from .groups import parse_group
from .io import load_config_file, write_reports
from .norms import default_norm, make_norm
from .quadrature import QuadratureConfig
from .reports import ALIASES, CHECKS, VARIANTS, evaluate

_DEFAULTS = {
    "group": "r:3",
    "norm": None,
    "checks": ["ckn", "hardy"],
    "p": [2.0],
    "alpha": [0.0],
    "beta": [1.0],
    "theta": [1.0],
    "k": [1],
    "m": [0],
    "count": 8,
    "seed": 0,
    "annulus": [0.2, 5.0],
    "radial_fraction": 0.8,
    "mode": "auto",
    "format": "json",
    "out": None,
    "allow_empty": False,
    "timestamp": False,
    "quadrature": {},
    "method": "auto",
    "schedule": None,
    "target_gap": None,
}

_CHECK_NAMES = (*CHECKS, *ALIASES, *VARIANTS)


def _items(value, conv):
    """A flag or file value as a list: comma-separated text, one value, or a
    list of either."""
    out = []
    for v in value if isinstance(value, (list, tuple)) else [value]:
        out += [conv(s) for s in v.split(",") if s.strip()] if isinstance(v, str) else [conv(v)]
    return out


def _schedule(text):
    out = []
    for part in _items(text, str):
        eps, _, r_out = part.strip().partition(":")
        try:
            out.append((float(eps), float(r_out)))
        except ValueError:
            raise ConfigError(f"bad schedule entry {part!r} (want eps:r_out)") from None
    return out


def _flag(value):
    """A JSON boolean, or the text ``true`` / ``false``."""
    if isinstance(value, bool):
        return value
    text = str(value).strip().lower()
    if text not in ("true", "false"):
        raise ValueError(value)
    return text == "true"


def _optional(conv):
    return lambda value: None if value is None else conv(value)


# list-valued keys, each with the conversion of one item
_LISTS = {"p": float, "alpha": float, "beta": float, "theta": float, "k": int, "m": int,
          "annulus": float, "checks": str.strip}
# the other keys, each with its conversion (a file's values come untyped)
_SCALARS = {"group": str, "norm": _optional(str), "mode": str, "format": str,
            "out": _optional(str), "count": int, "seed": int, "radial_fraction": float,
            "allow_empty": _flag, "timestamp": _flag, "method": str,
            "schedule": _optional(_schedule), "target_gap": _optional(float)}


def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--group", help="group id: r:<n>, aniso:<w1,w2,...>, heis1")
    sub.add_argument("--norm", help="quasi-norm: euclid, aniso, max, koranyi")
    sub.add_argument("--out", help="write the report here instead of stdout")
    sub.add_argument("--resolution", type=int,
                     help="shorthand: radial order and box points per axis")
    sub.add_argument("--radial-order", type=int, dest="radial_order")
    sub.add_argument("--radial-panels", type=int, dest="radial_panels")
    sub.add_argument("--box-points", type=int, dest="box_points",
                     help="box points per axis of the sphere measure's rule")
    sub.add_argument("--mc-samples", type=int, dest="mc_samples")
    sub.add_argument("--timestamp", action="store_true", default=None,
                     help="embed a generation timestamp (breaks byte determinism)")
    sub.add_argument("--verbose", action="store_true")


def build_parser():
    parser = argparse.ArgumentParser(prog="hgineq", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"hgineq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser("verify", help="run inequality checks over a corpus")
    _add_common(p_verify)
    p_verify.add_argument("--check", "--checks", dest="checks",
                          help="comma list: " + ",".join(_CHECK_NAMES))
    p_verify.add_argument("--p", help="comma list of integrability exponents")
    p_verify.add_argument("--alpha", help="comma list")
    p_verify.add_argument("--beta", help="comma list")
    p_verify.add_argument("--theta", help="comma list")
    p_verify.add_argument("--k", help="comma list of derivative orders")
    p_verify.add_argument("--m", help="comma list of derivative orders")
    p_verify.add_argument("--count", type=int, help="corpus size")
    p_verify.add_argument("--seed", type=int)
    p_verify.add_argument("--annulus", help="corpus support annulus lo,hi")
    p_verify.add_argument("--radial-fraction", type=float, dest="radial_fraction")
    p_verify.add_argument("--mode", choices=("auto", "analytic", "orbit_fd"))
    p_verify.add_argument("--format", choices=("json", "csv"))
    p_verify.add_argument("--allow-empty", action="store_true", default=None,
                          dest="allow_empty")

    p_scan = subs.add_parser("scan-sharpness", help="approach the sharp constant")
    _add_common(p_scan)
    p_scan.add_argument("--p", help="single exponent", default=None)
    p_scan.add_argument("--alpha", default=None)
    p_scan.add_argument("--beta", default=None)
    p_scan.add_argument("--schedule", help="comma list of eps:r_out pairs")
    p_scan.add_argument("--target-gap", type=float, dest="target_gap",
                        help="exit nonzero unless the best relative gap is below this")

    p_sigma = subs.add_parser("sphere-measure", help="unit-sphere area of a quasi-norm")
    _add_common(p_sigma)
    p_sigma.add_argument("--annulus", help="reference annulus lo,hi (default 1,2)")
    p_sigma.add_argument("--method", choices=("auto", "smooth", "indicator", "mc"))

    p_ident = subs.add_parser("identity-check", help="exact L^2 remainder identity")
    _add_common(p_ident)
    p_ident.add_argument("--alpha", help="comma list")
    p_ident.add_argument("--k", help="comma list of derivative orders")
    p_ident.add_argument("--count", type=int)
    p_ident.add_argument("--seed", type=int)
    p_ident.add_argument("--annulus", help="corpus support annulus lo,hi")
    p_ident.add_argument("--mode", choices=("auto", "analytic", "orbit_fd"))
    p_ident.add_argument("--format", choices=("json", "csv"))

    p_const = subs.add_parser("constants", help="closed-form constants")
    _add_common(p_const)
    p_const.add_argument("--p", default=None)
    p_const.add_argument("--alpha", default=None)
    p_const.add_argument("--beta", default=None)
    p_const.add_argument("--theta", default=None)
    p_const.add_argument("--k", default=None)
    p_const.add_argument("--m", default=None)
    return parser


def _merge(args):
    """The run config: defaults, then the ``--config`` file, then flags.

    Returns the config and the set of keys the user set, by file or flag.
    """
    cfg = copy.deepcopy(_DEFAULTS)
    given = {}
    if getattr(args, "config", None):
        given = load_config_file(args.config)
        unknown = set(given) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in (*_LISTS, *_SCALARS):
        v = getattr(args, key, None)
        if v is not None:
            given[key] = v
    for key, value in given.items():
        if key in _LISTS or key in _SCALARS:
            try:
                value = _items(value, _LISTS[key]) if key in _LISTS else _SCALARS[key](value)
            except (TypeError, ValueError):
                raise ConfigError(f"bad value for {key}: {value!r}") from None
        cfg[key] = value
    quad = dict(cfg["quadrature"] or {})
    res = getattr(args, "resolution", None)
    if res is not None:
        quad["radial_order"] = res
        quad["box_points"] = res
    for key in ("radial_order", "radial_panels", "box_points", "mc_samples"):
        v = getattr(args, key, None)
        if v is not None:
            quad[key] = v
    cfg["quadrature"] = quad
    if not cfg["p"] or not cfg["alpha"] or not cfg["beta"]:
        raise ConfigError("parameter lists must be nonempty")
    bad = set(cfg["checks"]) - set(_CHECK_NAMES)
    if bad:
        raise ConfigError(f"unknown checks: {sorted(bad)}")
    return cfg, set(given)


def _setup(cfg):
    group = parse_group(cfg["group"])
    norm = make_norm(group, cfg["norm"]) if cfg["norm"] else default_norm(group)
    try:
        quad = QuadratureConfig(**cfg["quadrature"]) if cfg["quadrature"] else QuadratureConfig()
    except TypeError as exc:
        raise ConfigError(f"bad quadrature config: {exc}") from None
    return group, norm, quad


def _expand(names):
    """Requested check names with aliases expanded, first occurrence kept."""
    out = []
    for name in names:
        for check in ALIASES.get(name, (name,)):
            if check not in out:
                out.append(check)
    return out


def _points(check, cfg):
    """``(row id, grid point)`` pairs of one check in sweep order.  A
    :data:`VARIANTS` name sweeps its rows innermost, as ``variant``."""
    rows = VARIANTS.get(check, {None: check})
    axes = CHECKS[next(iter(rows.values()))].axes
    for values in itertools.product(*(cfg[axis] for axis in axes)):
        point = dict(zip(axes, values))
        for variant, row_id in rows.items():
            yield row_id, point if variant is None else {**point, "variant": variant}


def _run_grid(group, norm, fields, checks, cfg, quad, verbose):
    reports, skipped = [], []
    for check in checks:
        for row_id, params in _points(check, cfg):
            for f in fields:
                try:
                    reports.append(evaluate(row_id, group, norm, f, params, quad, cfg["mode"]))
                except (DegenerateConstantError, InvalidParameterError) as exc:
                    skipped.append(
                        {"check": check, "field": f.field_id, "params": params,
                         "reason": str(exc)}
                    )
                    if verbose:
                        print(
                            f"warning: skipped {check} {params}: {exc}", file=sys.stderr
                        )
    return reports, skipped


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args):
    cfg, _ = _merge(args)
    group, norm, quad = _setup(cfg)
    corpus_spec = CorpusSpec(
        count=cfg["count"],
        seed=cfg["seed"],
        annulus=tuple(cfg["annulus"]),
        radial_fraction=cfg["radial_fraction"],
    )
    fields = make_corpus(group, norm, corpus_spec)
    checks = _expand(cfg["checks"])
    reports, skipped = _run_grid(group, norm, fields, checks, cfg, quad, args.verbose)
    meta = {
        "command": "verify",
        "group": group.name,
        "norm": norm.kind,
        "checks": checks,
        "corpus": {"count": cfg["count"], "seed": cfg["seed"],
                   "annulus": list(cfg["annulus"]),
                   "radial_fraction": cfg["radial_fraction"]},
        "skipped": skipped,
    }
    text = write_reports(reports, path=None, fmt=cfg["format"], meta=meta,
                         timestamp=bool(cfg["timestamp"]), allow_empty=cfg["allow_empty"])
    _emit(text, cfg["out"])
    bad = [r for r in reports if not r.satisfied]
    print(
        f"verify: {len(reports)} checks, {len(reports) - len(bad)} satisfied, "
        f"{len(bad)} violated, {len(skipped)} skipped",
        file=sys.stderr,
    )
    return 1 if bad else 0


def _cmd_scan(args):
    cfg, _ = _merge(args)
    group, norm, quad = _setup(cfg)
    if len(cfg["p"]) != 1 or len(cfg["alpha"]) != 1 or len(cfg["beta"]) != 1:
        raise ConfigError("scan-sharpness takes single p, alpha, beta values")
    schedule, target_gap = cfg["schedule"] or None, cfg["target_gap"]
    scan = sharpness_scan(
        group, norm, cfg["p"][0], cfg["alpha"][0], cfg["beta"][0],
        schedule=schedule, config=quad,
    )
    doc = scan.to_dict()
    # attained quotients may only approach the sharp constant from above;
    # undercutting it beyond the margin would falsify the inequality itself
    undercut = [
        e for e in scan.entries
        if e.get("attained") is not None
        and scan.target - e["attained"] > e.get("margin", 0.0)
    ]
    doc["undercut"] = [dict(e) for e in undercut]
    if target_gap is not None:
        doc["target_gap"] = target_gap
        doc["target_gap_met"] = bool(
            doc["best_gap"] is not None and doc["best_gap"] <= target_gap
        )
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg["out"])
    gap = doc["best_gap"]
    print(
        f"scan-sharpness: target {scan.target:.6g}, best attained "
        f"{doc['best_attained'] if doc['best_attained'] is not None else 'n/a'} "
        f"(gap {gap if gap is not None else 'n/a'})",
        file=sys.stderr,
    )
    if undercut:
        print(
            f"scan-sharpness: {len(undercut)} entries undercut the sharp "
            "constant beyond margin",
            file=sys.stderr,
        )
        return 1
    if target_gap is not None and not doc["target_gap_met"]:
        return 1
    return 0


def _cmd_sigma(args):
    cfg, given = _merge(args)
    group, norm, quad = _setup(cfg)
    annulus = tuple(cfg["annulus"]) if "annulus" in given else (1.0, 2.0)
    sm = sphere_measure(group, norm, annulus=annulus, config=quad, method=cfg["method"])
    _emit(json.dumps(sm.to_dict(), indent=2, sort_keys=True) + "\n", cfg["out"])
    print(f"sphere-measure: {sm.value:.12g} +/- {sm.error:.3g} ({sm.method})",
          file=sys.stderr)
    return 0


def _cmd_identity(args):
    cfg, _ = _merge(args)
    group, norm, quad = _setup(cfg)
    corpus_spec = CorpusSpec(
        count=cfg["count"], seed=cfg["seed"], annulus=tuple(cfg["annulus"])
    )
    fields = make_corpus(group, norm, corpus_spec)
    reports, skipped = _run_grid(group, norm, fields, ["l2-identity"], cfg, quad,
                                 args.verbose)
    meta = {"command": "identity-check", "group": group.name, "norm": norm.kind,
            "skipped": skipped}
    text = write_reports(reports, path=None, fmt=cfg["format"], meta=meta,
                         timestamp=bool(cfg["timestamp"]), allow_empty=cfg["allow_empty"])
    _emit(text, cfg["out"])
    bad = [r for r in reports if not r.satisfied]
    print(
        f"identity-check: {len(reports)} identities, {len(bad)} out of tolerance",
        file=sys.stderr,
    )
    return 1 if bad else 0


def _cmd_constants(args):
    cfg, given = _merge(args)
    group, _, _ = _setup(cfg)

    def first(key):
        return cfg[key][0] if key in given and cfg[key] else None

    q_dim = group.homogeneous_dimension
    table = constant_table(
        q_dim,
        cfg["p"][0],
        alpha=first("alpha"),
        beta=first("beta"),
        theta=first("theta"),
        k=first("k"),
        m=first("m"),
    )
    doc = {"group": group.name, "Q": q_dim, "p": cfg["p"][0], "constants": table}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", cfg["out"])
    return 0


_COMMANDS = {
    "verify": _cmd_verify,
    "scan-sharpness": _cmd_scan,
    "sphere-measure": _cmd_sigma,
    "identity-check": _cmd_identity,
    "constants": _cmd_constants,
}


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HgineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
