"""Command-line interface.

Subcommands
-----------
``verify``          run inequality checks over a generated field corpus
``scan-sharpness``  drive the extremal family toward the sharp constant
``sphere-measure``  compute the unit-sphere area of a quasi-norm
``identity-check``  verify the exact L^2 remainder identity
``constants``       print the closed-form constants for given parameters

Every key is one row of :data:`KEYS`: its default, its conversion, its
choices, its help and the subcommands that take it.  Each of those keys is
a flag (``radial_order`` is ``--radial-order``) and a key of the JSON
config file (``--config``); explicit flags override file values.  Exit
status: 0 on success, 1 if any check failed or a requested sharpness target
was missed, 2 on configuration errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from typing import Callable

from . import __version__
from .calculus import sphere_measure
from .constants import constant_table
from .corpus import CorpusSpec, make_corpus
from .errors import ConfigError, DegenerateConstantError, HgineqError, InvalidParameterError
from .extremizers import sharpness_scan
from .groups import parse_group
from .io import load_config_file, render_document, write_reports
from .norms import default_norm, make_norm
from .quadrature import QuadratureConfig
from .reports import ALIASES, CHECKS, VARIANTS, evaluate


def _flag(text):
    """``true`` or ``false``."""
    text = text.strip().lower()
    if text not in ("true", "false"):
        raise ValueError(text)
    return text == "true"


def _pair(text):
    """A schedule entry ``eps:r_out``."""
    eps, _, r_out = text.partition(":")
    return float(eps), float(r_out)


@dataclasses.dataclass(frozen=True)
class Key:
    """One row of the key table.

    ``conv`` turns the text of one item into its value; a ``many`` key is a
    comma list of at least one item, each converted and checked against
    ``choices``.  ``commands`` are the subcommands that take the key, and
    ``flags`` are flag names beside ``--<key>``.  A ``_flag`` key is a
    switch.
    """

    default: object
    conv: Callable
    commands: tuple
    help: str
    many: bool = False
    choices: tuple = ()
    flags: tuple = ()


_EVERY = ("verify", "scan-sharpness", "sphere-measure", "identity-check", "constants")
_NUMERIC = ("verify", "scan-sharpness", "sphere-measure", "identity-check")
_CORPUS = ("verify", "identity-check")
_POINT = ("verify", "scan-sharpness", "constants")

#: The run-config keys, in ``--help`` order.
KEYS = {
    "group": Key("r:3", str, _EVERY, "group id: r:<n>, aniso:<w1,w2,...>, heis1"),
    "norm": Key(None, str, _NUMERIC, "quasi-norm: euclid, aniso, max, koranyi"),
    "out": Key(None, str, _EVERY, "write the report here instead of stdout"),
    "resolution": Key(None, int, _NUMERIC, "shorthand: radial order and box points per axis"),
    "radial_order": Key(None, int, _NUMERIC,
                        "Gauss order per radial panel; also sets the sphere rule's order"),
    "radial_panels": Key(None, int, _NUMERIC, "least number of log-spaced radial panels"),
    "box_points": Key(None, int, ("sphere-measure",),
                      "box points per axis of the sphere measure's rule"),
    "timestamp": Key(False, _flag, _CORPUS,
                     "embed a generation timestamp (breaks byte determinism)"),
    "verbose": Key(False, _flag, _CORPUS, "warn about each skipped grid point"),
    "checks": Key(("ckn", "hardy"), str.strip, ("verify",), "comma list", many=True,
                  choices=(*CHECKS, *ALIASES, *VARIANTS), flags=("--check",)),
    "p": Key((2.0,), float, _POINT,
             "comma list of integrability exponents (scan-sharpness, constants: one)",
             many=True),
    "alpha": Key((0.0,), float, (*_POINT, "identity-check"), "comma list", many=True),
    "beta": Key((1.0,), float, _POINT, "comma list", many=True),
    "theta": Key((1.0,), float, ("verify", "constants"), "comma list", many=True),
    "k": Key((1,), int, ("verify", "identity-check", "constants"),
             "comma list of derivative orders", many=True),
    "m": Key((0,), int, ("verify", "constants"), "comma list of derivative orders",
             many=True),
    "count": Key(8, int, _CORPUS, "corpus size"),
    "seed": Key(0, int, _CORPUS, "corpus seed"),
    "annulus": Key((0.2, 5.0), float, _CORPUS, "corpus support annulus lo,hi", many=True),
    "radial_fraction": Key(0.8, float, ("verify",), "share of quasi-radial corpus fields"),
    "mode": Key("auto", str, _CORPUS, "derivative mode",
                choices=("auto", "analytic", "orbit_fd")),
    "format": Key("json", str, _CORPUS, "output format", choices=("json", "csv")),
    "allow_empty": Key(False, _flag, _CORPUS, "emit a document with no reports"),
    "schedule": Key(None, _pair, ("scan-sharpness",), "comma list of eps:r_out pairs",
                    many=True),
    "target_gap": Key(None, float, ("scan-sharpness",),
                      "exit nonzero unless the best relative gap is below this"),
}


def _convert(key, value):
    """The value of ``key`` from a flag's text or a config file's value.

    A file value converts as its JSON text would as a flag (``2`` and
    ``"2"`` alike; ``48.0`` is not an integer); a ``many`` key also takes a
    list of items.  A value that does not convert is a :class:`ConfigError`.
    """
    row = KEYS[key]
    if value is None and row.default is None:
        return None
    items = value if row.many and isinstance(value, list) else [value]
    texts = [v if isinstance(v, str) else json.dumps(v) for v in items]
    if row.many:
        texts = [s for text in texts for s in text.split(",") if s.strip()]
    try:
        out = [row.conv(text) for text in texts]
        if (row.many and not out) or any(row.choices and v not in row.choices for v in out):
            raise ValueError(value)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {value!r}") from None
    return out if row.many else out[0]


def build_parser():
    parser = argparse.ArgumentParser(prog="hgineq", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"hgineq {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="JSON config file with these keys; flags override it")
        for key, row in KEYS.items():
            if command not in row.commands:
                continue
            names = (*row.flags, "--" + key.replace("_", "-"))
            text = f"{row.help}: {','.join(row.choices)}" if row.choices else row.help
            switch = {"action": "store_true"} if row.conv is _flag else {}
            sub.add_argument(*names, dest=key, default=None, help=text, **switch)
    return parser


def _merge(args):
    """The run config: the table's defaults, then the ``--config`` file, then
    flags.  A file may hold only the keys of ``args.command``, and each of
    its values is converted even where a flag replaces it.

    Returns the config and the set of keys the user set, by file or flag.
    """
    keys = [key for key, row in KEYS.items() if args.command in row.commands]
    file = load_config_file(args.config) if args.config else {}
    unknown = set(file) - set(keys)
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    given = {key: _convert(key, value) for key, value in file.items()}
    given.update({key: _convert(key, vars(args)[key]) for key in keys
                  if vars(args)[key] is not None})
    cfg = {key: row.default for key, row in KEYS.items()}
    cfg.update(given)
    return cfg, set(given)


def _setup(cfg):
    group = parse_group(cfg["group"])
    norm = make_norm(group, cfg["norm"]) if cfg["norm"] else default_norm(group)
    res = cfg["resolution"]
    quad = {} if res is None else {"radial_order": res, "box_points": res}
    for field in dataclasses.fields(QuadratureConfig):
        if cfg[field.name] is not None:
            quad[field.name] = cfg[field.name]
    return group, norm, QuadratureConfig(**quad)


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


def _run_grid(group, norm, fields, checks, cfg, quad):
    """Every check at every grid point on every field.  Fields go outermost,
    so each field's derivative stacks stay cached across its checks; reports
    and skipped points come back check-major, fields innermost."""
    points = [(check, *point) for check in checks for point in _points(check, cfg)]
    results = [[] for _ in points]
    for f in fields:
        for (_, row_id, params), out in zip(points, results):
            try:
                out.append(evaluate(row_id, group, norm, f, params, quad, cfg["mode"]))
            except (DegenerateConstantError, InvalidParameterError) as exc:
                out.append(exc)
    reports, skipped = [], []
    for (check, _, params), out in zip(points, results):
        for f, result in zip(fields, out):
            if not isinstance(result, Exception):
                reports.append(result)
                continue
            skipped.append({"check": check, "field": f.field_id, "params": params,
                            "reason": str(result)})
            if cfg["verbose"]:
                print(f"warning: skipped {check} {params}: {result}", file=sys.stderr)
    return reports, skipped


def _single(cfg, command, keys):
    """The one value of each of ``keys``; a list of more is a ConfigError."""
    if any(len(cfg[key]) != 1 for key in keys):
        raise ConfigError(f"{command} takes single {', '.join(keys)} values")
    return [cfg[key][0] for key in keys]


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _run_corpus(cfg, checks, meta):
    """Run ``checks`` over the corpus of ``cfg`` and emit the report document
    with ``meta``; returns the reports and the skipped points."""
    group, norm, quad = _setup(cfg)
    corpus_spec = CorpusSpec(count=cfg["count"], seed=cfg["seed"],
                             annulus=tuple(cfg["annulus"]),
                             radial_fraction=cfg["radial_fraction"])
    fields = make_corpus(group, norm, corpus_spec)
    reports, skipped = _run_grid(group, norm, fields, checks, cfg, quad)
    if not reports and not cfg["allow_empty"]:
        refused = f"{len(skipped)} grid point{'' if len(skipped) == 1 else 's'} refused"
        why = "" if cfg["verbose"] else "; --verbose names each reason"
        raise ConfigError(f"no reports generated: {refused}{why}; pass --allow-empty "
                          "(config key allow_empty) to emit an empty document")
    meta = {**meta, "group": group.name, "norm": norm.kind, "skipped": skipped}
    text = write_reports(reports, path=None, fmt=cfg["format"], meta=meta,
                         timestamp=cfg["timestamp"], allow_empty=cfg["allow_empty"])
    _emit(text, cfg["out"])
    return reports, skipped


def _cmd_verify(cfg, given):
    checks = _expand(cfg["checks"])
    corpus = {"count": cfg["count"], "seed": cfg["seed"], "annulus": list(cfg["annulus"]),
              "radial_fraction": cfg["radial_fraction"]}
    reports, skipped = _run_corpus(cfg, checks, {"command": "verify", "checks": checks,
                                                 "corpus": corpus})
    bad = [r for r in reports if not r.satisfied]
    print(
        f"verify: {len(reports)} checks, {len(reports) - len(bad)} satisfied, "
        f"{len(bad)} violated, {len(skipped)} skipped",
        file=sys.stderr,
    )
    return 1 if bad else 0


def _cmd_scan(cfg, given):
    group, norm, quad = _setup(cfg)
    p, alpha, beta = _single(cfg, "scan-sharpness", ("p", "alpha", "beta"))
    target_gap = cfg["target_gap"]
    scan = sharpness_scan(group, norm, p, alpha, beta, schedule=cfg["schedule"], config=quad)
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
    _emit(render_document(doc), cfg["out"])
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


def _cmd_sigma(cfg, given):
    group, norm, quad = _setup(cfg)
    sm = sphere_measure(group, norm, config=quad)
    _emit(render_document(sm.to_dict()), cfg["out"])
    print(f"sphere-measure: {sm.value:.12g} +/- {sm.error:.3g} ({sm.method})",
          file=sys.stderr)
    return 0


def _cmd_identity(cfg, given):
    reports, _ = _run_corpus(cfg, ["l2-identity"], {"command": "identity-check"})
    bad = [r for r in reports if not r.satisfied]
    print(
        f"identity-check: {len(reports)} identities, {len(bad)} out of tolerance",
        file=sys.stderr,
    )
    return 1 if bad else 0


def _cmd_constants(cfg, given):
    group = parse_group(cfg["group"])
    keys = ("p", "alpha", "beta", "theta", "k", "m")
    p, *values = _single(cfg, "constants", keys)
    point = {key: value if key in given else None for key, value in zip(keys[1:], values)}
    q_dim = group.homogeneous_dimension
    table = constant_table(q_dim, p, **point)
    doc = {"group": group.name, "Q": q_dim, "p": p, "constants": table}
    _emit(render_document(doc), cfg["out"])
    return 0


_COMMANDS = {
    "verify": (_cmd_verify, "run inequality checks over a corpus"),
    "scan-sharpness": (_cmd_scan, "approach the sharp constant"),
    "sphere-measure": (_cmd_sigma, "unit-sphere area of a quasi-norm"),
    "identity-check": (_cmd_identity, "exact L^2 remainder identity"),
    "constants": (_cmd_constants, "closed-form constants"),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command][0](*_merge(args))
    except HgineqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
