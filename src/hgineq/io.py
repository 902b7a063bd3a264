"""Report serialization: versioned JSON documents and flat CSV tables.

Every JSON document, the report documents and the CLI's other documents
alike, is written by :func:`render_document` in one pass.  Its bytes are
those of the standard library's ``json.dumps`` of ``_jsonable(doc)`` with
a two-space indent and sorted keys, plus a final newline.  Documents are
deterministic byte-for-byte unless a timestamp is explicitly requested.

Reading a report document back with ``document_reports(json.loads(text))``
gives reports equal to the originals in every field except ``params`` and
``detail``, which come back equal to their :func:`_jsonable` form: tuples
as lists, numpy scalars as Python scalars and complex numbers as
``{"re", "im"}`` objects.  CSV is a lossy flat view with one row per report.
"""

from __future__ import annotations

import csv
import io as _io
import json
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import ConfigError
from .reports import InequalityReport

SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "id",
    "group",
    "norm",
    "p",
    "alpha",
    "beta",
    "k",
    "m",
    "lhs",
    "rhs",
    "ratio",
    "margin",
    "satisfied",
)


#: The fields of a report's document entry (``ratio`` is a property).
_REPORT_FIELDS = (
    "check_id",
    "group",
    "norm",
    "field_id",
    "kind",
    "params",
    "constant",
    "lhs",
    "rhs",
    "ratio",
    "margin",
    "satisfied",
    "trivial",
    "config_digest",
    "detail",
)

#: A report's document entry in key order: (encoded key + ": ", attribute).
_REPORT_ENTRIES = tuple((_encode_str(k) + ": ", k) for k in sorted(_REPORT_FIELDS))

_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def report_to_dict(report):
    return _jsonable(report)


def report_from_dict(data):
    return InequalityReport(
        check_id=data["check_id"],
        group=data["group"],
        norm=data["norm"],
        field_id=data["field_id"],
        kind=data["kind"],
        params=dict(data["params"]),
        constant=data["constant"],
        lhs=data["lhs"],
        rhs=data["rhs"],
        margin=data["margin"],
        satisfied=data["satisfied"],
        trivial=data.get("trivial", False),
        config_digest=data.get("config_digest", ""),
        detail=data.get("detail", {}),
    )


def _leaf(obj):
    """What ``obj``, neither a dict nor a list nor a tuple, stands for in a
    document: a report its fields, a complex number ``{"re", "im"}``, a
    numpy scalar its Python value, anything else itself."""
    if isinstance(obj, InequalityReport):
        return {k: getattr(obj, k) for k in _REPORT_FIELDS}
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    if hasattr(obj, "item"):  # numpy scalars
        return obj.item()
    return obj


def _jsonable(obj):
    """``obj`` as plain dicts, lists and Python scalars."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    leaf = _leaf(obj)
    return _jsonable(leaf) if isinstance(leaf, dict) else leaf


def _document(reports, meta, timestamp):
    doc = {"schema": SCHEMA_VERSION, "reports": list(reports)}
    if meta:
        doc["meta"] = dict(meta)
    if timestamp:
        doc["generated_at"] = datetime.now(timezone.utc).isoformat()
    return doc


def reports_document(reports, meta=None, timestamp=False):
    """Assemble the versioned JSON document for a list of reports."""
    return _jsonable(_document(reports, meta, timestamp))


def document_reports(doc):
    """Inverse of :func:`reports_document` (ignores meta/timestamp)."""
    if doc.get("schema") != SCHEMA_VERSION:
        raise ConfigError(f"unsupported report schema {doc.get('schema')!r}")
    return [report_from_dict(d) for d in doc["reports"]]


def render_json(reports, meta=None, timestamp=False):
    """The text of :func:`reports_document`, written straight from the reports."""
    return render_document(_document(reports, meta, timestamp))


def render_document(doc):
    """The text of ``doc``: ``json.dumps`` of ``_jsonable(doc)`` with a
    two-space indent and sorted keys, plus a newline, byte for byte.  One
    pass writes it, converting each leaf as it meets it.  A report's
    entries are written in a fixed key order (``_REPORT_ENTRIES``) and
    joined into one string before they join the document's."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(obj, out, nl):
    """Append the text of ``obj`` to ``out``; ``nl`` is a newline followed by
    the indent of the line ``obj`` starts on."""
    if isinstance(obj, float):
        out.append(_float_text(obj))
    elif isinstance(obj, str):
        out.append(_encode_str(obj))
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _encode_str(_key_text(key)) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write(value, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, InequalityReport):
        inner = nl + "  "
        parts = []
        sep = "{" + inner
        for head, attr in _REPORT_ENTRIES:
            parts.append(sep + head)
            _write(getattr(obj, attr), parts, inner)
            sep = "," + inner
        parts.append(nl + "}")
        out.append("".join(parts))
    else:
        leaf = _leaf(obj)
        if leaf is obj:
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
        _write(leaf, out, nl)


def _float_text(x):
    text = float.__repr__(x)
    return _FLOAT_WORDS.get(text, text)


def _key_text(key):
    """A dict key as ``json.dumps`` writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float_text(key)
    if key is True:
        return "true"
    if key is False:
        return "false"
    if key is None:
        return "null"
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def render_csv(reports):
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in reports:
        p = r.params
        writer.writerow(
            [
                r.check_id,
                r.group,
                r.norm,
                _num(p.get("p")),
                _num(p.get("alpha")),
                _num(p.get("beta")),
                _num(p.get("k")),
                _num(p.get("m")),
                repr(r.lhs),
                repr(r.rhs),
                repr(r.ratio),
                repr(r.margin),
                "true" if r.satisfied else "false",
            ]
        )
    return buf.getvalue()


def _num(v):
    if v is None:
        return ""
    return repr(float(v)) if isinstance(v, float) else repr(v)


def write_reports(reports, path=None, fmt="json", meta=None, timestamp=False,
                  allow_empty=False):
    """Serialize reports, optionally writing to ``path``; returns the text.

    Refuses to emit an empty report list unless ``allow_empty`` is set —
    an empty verification run is almost always a configuration mistake.
    """
    if not reports and not allow_empty:
        raise ConfigError("no reports generated (pass allow_empty to permit this)")
    if fmt == "json":
        text = render_json(reports, meta=meta, timestamp=timestamp)
    elif fmt == "csv":
        text = render_csv(reports)
    else:
        raise ConfigError(f"unknown output format {fmt!r}")
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    return text


def load_config_file(path):
    """Read a JSON run-configuration file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("config file must contain a JSON object")
    return data
