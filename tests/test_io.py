import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hgineq import (
    ConfigError,
    CorpusSpec,
    DegenerateConstantError,
    InvalidParameterError,
    QuadratureConfig,
    ckn_report,
    default_norm,
    gaussian_profile,
    generic_field,
    l2_identity_report,
    load_config_file,
    make_corpus,
    parse_group,
    radial_field,
    render_csv,
    render_json,
    reports_document,
    document_reports,
    write_reports,
)
from hgineq import cli
from hgineq.io import (
    CSV_COLUMNS,
    SCHEMA_VERSION,
    _jsonable,
    render_document,
    report_from_dict,
    report_to_dict,
)
from hgineq.reports import CHECKS, evaluate


def oracle(doc):
    """The text every JSON document had before the one-pass writer."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.fixture
def sample_reports(r3, config):
    group, norm = r3
    f = radial_field(gaussian_profile(1.0), norm, support=(1e-6, 30.0), field_id="gauss")
    return [
        ckn_report(group, norm, f, 2.0, 0.0, 1.0, config=config),
        l2_identity_report(group, norm, f, alpha=0.0, k=1, config=config),
    ]


def _complex_identity_report(heis, config):
    from hgineq import annulus_cutoff, log_gaussian_profile

    group, norm = heis
    prof = log_gaussian_profile(1.0 + 0.5j, 0.0, 0.4) * annulus_cutoff(0.3, 0.6, 2.0, 4.0)
    f = radial_field(prof, norm, support=(0.3, 4.0), field_id="cplx")
    return l2_identity_report(group, norm, f, alpha=0.0, k=1, config=config)


def test_json_round_trip(sample_reports, heis, config):
    """Read back from the rendered text, a report equals the original in
    every field; ``detail`` equals its plain form (tuples as lists, numpy
    scalars as Python ones), so the report itself need not."""
    reports = [*sample_reports, _complex_identity_report(heis, config)]
    assert reports_document(reports)["schema"] == 1
    back = document_reports(json.loads(render_json(reports)))
    assert len(back) == len(reports)
    for orig, rec in zip(reports, back):
        for fld in dataclasses.fields(orig):
            if fld.name == "detail":
                assert rec.detail == _jsonable(orig.detail)
            else:
                assert getattr(rec, fld.name) == getattr(orig, fld.name), fld.name
    # the (value, error) pairs come back as lists
    assert back[-1] != reports[-1]
    assert dataclasses.replace(back[-1], detail=reports[-1].detail) == reports[-1]


def test_schema_version_enforced(sample_reports):
    doc = reports_document(sample_reports)
    doc["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ConfigError):
        document_reports(doc)


def test_json_is_plain_and_deterministic(sample_reports):
    a = render_json(sample_reports)
    b = render_json(sample_reports)
    assert a == b
    doc = json.loads(a)
    assert "generated_at" not in doc
    stamped = json.loads(render_json(sample_reports, timestamp=True))
    assert "generated_at" in stamped


def test_csv_header_and_rows(sample_reports):
    text = render_csv(sample_reports)
    lines = text.splitlines()
    assert lines[0] == "id,group,norm,p,alpha,beta,k,m,lhs,rhs,ratio,margin,satisfied"
    assert len(lines) == 1 + len(sample_reports)
    first = lines[1].split(",")
    assert first[0] == "ckn" and first[1] == "r:3" and first[-1] == "true"
    # identity reports have no beta/m: the cells stay empty
    second = lines[2].split(",")
    assert second[0] == "l2-identity" and second[5] == "" and second[7] == ""
    assert ",".join(CSV_COLUMNS) == lines[0]


def test_csv_floats_round_trip(sample_reports):
    lines = render_csv(sample_reports).splitlines()
    lhs_cell = lines[1].split(",")[8]
    assert float(lhs_cell) == sample_reports[0].lhs


def test_complex_detail_serializes(heis, config):
    rep = _complex_identity_report(heis, config)
    text = render_json([rep])
    doc = json.loads(text)  # must not raise: complex -> {re, im}
    assert doc["reports"][0]["kind"] == "identity"
    assert text == oracle(reports_document([rep]))


def test_write_reports_to_file(tmp_path, sample_reports):
    out = tmp_path / "out.json"
    text = write_reports(sample_reports, path=str(out), meta={"note": "x"})
    assert out.read_text() == text
    assert json.loads(text)["meta"] == {"note": "x"}
    csv_out = tmp_path / "out.csv"
    csv_text = write_reports(sample_reports, path=str(csv_out), fmt="csv")
    assert csv_out.read_text() == csv_text


def test_write_reports_refuses_empty():
    with pytest.raises(ConfigError):
        write_reports([])
    assert json.loads(write_reports([], allow_empty=True))["reports"] == []
    with pytest.raises(ConfigError):
        write_reports([], allow_empty=True, fmt="xml")


def test_report_dict_contains_no_numpy(sample_reports):
    def walk(obj):
        if isinstance(obj, dict):
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)
        else:
            assert obj is None or isinstance(obj, (str, int, float, bool))

    for rep in sample_reports:
        walk(report_to_dict(rep))


def test_report_from_dict_defaults():
    data = {
        "check_id": "hardy",
        "group": "r:3",
        "norm": "euclidean",
        "field_id": "f",
        "kind": "inequality",
        "params": {"p": 2.0},
        "constant": 2.0,
        "lhs": 1.0,
        "rhs": 2.0,
        "margin": 0.1,
        "satisfied": True,
    }
    rep = report_from_dict(data)
    assert rep.trivial is False and rep.detail == {} and rep.config_digest == ""


def test_load_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"group": "heis1", "p": [2.0]}')
    assert load_config_file(str(path)) == {"group": "heis1", "p": [2.0]}
    with pytest.raises(ConfigError):
        load_config_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config_file(str(bad))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError):
        load_config_file(str(arr))


# -- the one-pass writer against the old json.dumps text ------------------------

_POINT = {"p": 2.0, "alpha": 0.25, "beta": 0.5, "theta": 0.75, "k": 1, "m": 1}


@pytest.mark.parametrize("name", ["r:3", "heis1", "aniso:1,2"])
def test_render_json_matches_the_oracle_on_every_check(name):
    group = parse_group(name)
    norm = default_norm(group)
    radial = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=1.0))[0]
    product = make_corpus(group, norm, CorpusSpec(count=1, seed=3, radial_fraction=0.0))[0]
    opaque = generic_field(product.values, product.support, norm=norm, field_id="opaque")
    config = QuadratureConfig(radial_order=16)
    reports = []
    for f in (radial, product, opaque):
        for check_id in CHECKS:
            try:
                reports.append(evaluate(check_id, group, norm, f, _POINT, config))
            except (DegenerateConstantError, InvalidParameterError):
                continue
    assert {r.field_id for r in reports} == {radial.field_id, product.field_id, "opaque"}
    assert render_json(reports) == oracle(reports_document(reports))
    for rep in reports:
        assert render_json([rep]) == oracle(reports_document([rep]))


def test_render_json_matches_the_oracle_on_meta(sample_reports):
    meta = {
        "nested": ((1, (2.5, None)), [np.float64(0.1), np.int64(-7), np.bool_(True)]),
        "none": None,
        "z": 1.0 - 2.5j,
        "text": "caf\u00e9 \u2211 \"quoted\"\n\t\x00\x1f \\ \U0001d11e",
        "\u00fcber\x07": {"": [], "e": {}},
    }
    text = render_json(sample_reports, meta=meta)
    assert text == oracle(reports_document(sample_reports, meta=meta))
    back = json.loads(text)["meta"]
    assert back["z"] == {"re": 1.0, "im": -2.5}
    assert back["nested"] == [[1, [2.5, None]], [0.1, -7, True]]
    assert render_json([], meta=meta) == oracle(reports_document([], meta=meta))


def test_render_json_matches_the_oracle_on_no_reports():
    assert render_json([]) == oracle(reports_document([])) == '{\n  "reports": [],\n  "schema": 1\n}\n'


@pytest.mark.parametrize("argv", [
    ["scan-sharpness", "--group", "heis1", "--schedule", "1e-2:1e2,1e-4:1e4"],
    ["sphere-measure", "--group", "aniso:1,2"],
    ["constants", "--group", "r:3", "--p", "2", "--alpha", "0.5", "--k", "2", "--m", "1"],
])
def test_cli_documents_match_the_oracle(argv, tmp_path, monkeypatch, capsys):
    docs = []

    def recording(doc):
        docs.append(doc)
        return render_document(doc)

    monkeypatch.setattr(cli, "render_document", recording)
    out = tmp_path / "doc.json"
    assert cli.main([*argv, "--out", str(out)]) == 0
    capsys.readouterr()
    assert len(docs) == 1
    assert out.read_text() == oracle(docs[0])


_NUMPY_SCALARS = st.one_of(
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.complex_numbers().map(np.complex128),
)
_LEAVES = st.one_of(
    st.text(st.characters(blacklist_categories=())),
    st.floats(allow_subnormal=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, -2.2250738585072e-308]),
    st.integers(-(2**200), 2**200),
    st.booleans(),
    st.none(),
    st.complex_numbers(),
    _NUMPY_SCALARS,
)
_KEYS = st.one_of(st.text(), st.integers(-(2**70), 2**70), st.booleans())
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=5).map(tuple),
        # json sorts the raw keys, then writes them as text: int keys sort
        # numerically, and str keys cannot be mixed with them
        st.dictionaries(st.text(), kids, max_size=5),
        st.dictionaries(_KEYS.filter(lambda k: not isinstance(k, str)), kids, max_size=5),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_writer_equals_the_oracle_on_any_tree(tree):
    assert render_document(tree) == oracle(_jsonable(tree))
