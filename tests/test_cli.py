import collections
import contextlib
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from hgineq import cli
from hgineq.cli import _COMMANDS, KEYS, main
from hgineq.profiles import RadialProfile
from hgineq.quadrature import QuadratureConfig
from hgineq.reports import ALIASES, CHECKS, VARIANTS


def run(tmp_path, *argv):
    out = tmp_path / "out.json"
    code = main(list(argv) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def test_verify_basic_json(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:3", "--check", "ckn", "--count", "4",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["schema"] == 1
    assert doc["meta"]["command"] == "verify"
    assert doc["meta"]["group"] == "r:3"
    assert len(doc["reports"]) == 4
    assert all(r["satisfied"] for r in doc["reports"])
    assert "generated_at" not in doc


def test_verify_is_byte_deterministic(tmp_path):
    args = ("verify", "--group", "heis1", "--check", "ckn,hardy", "--count", "3")
    _, a = run(tmp_path, *args)
    _, b = run(tmp_path, *args)
    assert a == b


def test_verify_csv_output(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:2", "--norm", "euclid", "--check", "hardy",
        "--alpha", "0.5", "--count", "2", "--format", "csv",
    )
    assert code == 0
    lines = text.splitlines()
    assert lines[0] == "id,group,norm,p,alpha,beta,k,m,lhs,rhs,ratio,margin,satisfied"
    assert len(lines) == 3


def test_verify_uncertainty_expands(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:3", "--check", "uncertainty", "--count", "2",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["checks"] == ["up1p", "hpw1", "hpw2"]
    ids = {r["check_id"] for r in doc["reports"]}
    assert ids == {"up1p", "hpw1", "hpw2"}


def test_verify_grid_parameters(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:3", "--check", "ckn", "--count", "2",
        "--p", "1.5,2", "--alpha", "0,0.5", "--beta", "1",
    )
    assert code == 0
    doc = json.loads(text)
    assert len(doc["reports"]) == 2 * 2 * 1 * 2  # p x alpha x beta x fields
    seen = {(r["params"]["p"], r["params"]["alpha"]) for r in doc["reports"]}
    assert seen == {(1.5, 0.0), (1.5, 0.5), (2.0, 0.0), (2.0, 0.5)}


def test_verify_records_skipped_degeneracies(tmp_path):
    # Q=4, p=2, theta=1: the first iterated factor vanishes; every corpus
    # entry is skipped, so the run only succeeds with --allow-empty
    code, text = run(
        tmp_path, "verify", "--group", "heis1", "--check", "higher",
        "--theta", "1", "--k", "1", "--count", "2", "--allow-empty",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["reports"] == []
    assert len(doc["meta"]["skipped"]) == 2
    assert "vanishes" in doc["meta"]["skipped"][0]["reason"]


def test_verify_empty_without_flag_is_config_error(tmp_path):
    code, _ = run(
        tmp_path, "verify", "--group", "heis1", "--check", "higher",
        "--theta", "1", "--k", "1", "--count", "2",
    )
    assert code == 2


def test_verify_computes_each_fields_stack_once_per_node_set_and_order(tmp_path, monkeypatch):
    fields, calls = [], collections.defaultdict(list)
    make, derivatives = cli.make_corpus, RadialProfile.derivatives

    def counting(self, r, order):
        calls[id(self)].append(order)
        return derivatives(self, r, order)

    monkeypatch.setattr(cli, "make_corpus", lambda *args: fields.extend(make(*args)) or fields)
    monkeypatch.setattr(RadialProfile, "derivatives", counting)
    code, _ = run(tmp_path, "verify", "--group", "heis1", "--check", "ckn,hardy",
                  "--p", "1.5,2,3", "--count", "4", "--radial-fraction", "1")
    assert code == 0 and len(fields) == 4
    # the full and the coarse radial node set, each at every order asked for
    for f in fields:
        orders = calls[id(f.profile)]
        assert 0 < len(orders) <= 2 * len(set(orders)), (f.field_id, orders)


def test_verify_unknown_check(tmp_path):
    code, _ = run(tmp_path, "verify", "--check", "sobolev")
    assert code == 2


def test_verify_bad_group(tmp_path):
    code, _ = run(tmp_path, "verify", "--group", "so3")
    assert code == 2


@pytest.mark.parametrize("group", ["aniso:nan,1", "aniso:inf,1"])
def test_non_finite_weights_exit_2(tmp_path, group):
    code, text = run(tmp_path, "constants", "--group", group, "--p", "2", "--alpha", "0",
                     "--beta", "1")
    assert code == 2 and text == ""


def test_koranyi_documents_depend_only_on_the_weights(tmp_path):
    """heis1 and aniso:1,1,2 are one group under two ids."""
    docs = []
    for group in ("heis1", "aniso:1,1,2"):
        code, text = run(tmp_path, "verify", "--group", group, "--norm", "koranyi",
                         "--check", "ckn,hardy,l2-identity,higher", "--k", "1,2",
                         "--theta", "0.5", "--count", "2")
        assert code == 0
        doc = json.loads(text)
        assert doc["meta"].pop("group") == group
        for r in doc["reports"]:
            assert r.pop("group") == group
        docs.append(doc)
    checks = {r["check_id"] for r in docs[0]["reports"]}
    assert checks == {"ckn", "hardy", "l2-identity", "higher"}
    assert docs[0] == docs[1]


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "group": "heis1",
        "checks": ["hardy"],
        "count": 2,
        "p": [2.0],
        "alpha": [0.25],
    }))
    code, text = run(tmp_path, "verify", "--config", str(cfg))
    assert code == 0
    doc = json.loads(text)
    assert doc["meta"]["group"] == "heis1"
    assert doc["reports"][0]["params"]["alpha"] == 0.25
    # explicit flags override the file
    code, text = run(tmp_path, "verify", "--config", str(cfg), "--group", "r:3",
                     "--alpha", "-0.5")
    doc = json.loads(text)
    assert doc["meta"]["group"] == "r:3"
    assert doc["reports"][0]["params"]["alpha"] == -0.5


def test_config_file_unknown_key(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text('{"grup": "r:3"}')
    code, _ = run(tmp_path, "verify", "--config", str(cfg))
    assert code == 2


def test_scan_sharpness_json(tmp_path):
    code, text = run(
        tmp_path, "scan-sharpness", "--group", "r:3", "--p", "2", "--alpha", "0",
        "--beta", "1", "--schedule", "1e-2:1e2,1e-4:1e4",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["target"] == 0.5
    assert len(doc["entries"]) == 2
    assert doc["best_attained"] == min(e["attained"] for e in doc["entries"])
    assert doc["best_gap"] > 0
    assert doc["undercut"] == []


def test_scan_sharpness_target_gap_gate(tmp_path):
    args = (
        "scan-sharpness", "--group", "r:3", "--p", "2", "--alpha", "0",
        "--beta", "1", "--schedule", "1e-2:1e2",
    )
    code, text = run(tmp_path, *args, "--target-gap", "0.8")
    assert code == 0 and json.loads(text)["target_gap_met"] is True
    code, text = run(tmp_path, *args, "--target-gap", "0.01")
    assert code == 1 and json.loads(text)["target_gap_met"] is False


def test_scan_sharpness_degenerate_exits_2(tmp_path):
    code, _ = run(
        tmp_path, "scan-sharpness", "--group", "r:3", "--p", "2", "--alpha", "1",
        "--beta", "1",
    )
    assert code == 2  # gamma == Q: no constant to approach


def test_sphere_measure_squares_with_known_area(tmp_path):
    code, text = run(tmp_path, "sphere-measure", "--group", "r:3")
    assert code == 0
    doc = json.loads(text)
    assert doc["value"] == pytest.approx(4 * 3.141592653589793, rel=1e-3)
    assert doc["method"] == "smooth"
    code, text = run(tmp_path, "sphere-measure", "--group", "r:5")
    doc = json.loads(text)
    assert doc["method"] == "mc"
    assert doc["value"] == pytest.approx(8 * 3.141592653589793**2 / 3, rel=1e-2)


def test_identity_check_runs_clean(tmp_path):
    code, text = run(
        tmp_path, "identity-check", "--group", "heis1", "--count", "3",
        "--alpha", "0,-1", "--k", "1",
    )
    assert code == 0
    doc = json.loads(text)
    assert len(doc["reports"]) == 6
    assert all(r["kind"] == "identity" and r["satisfied"] for r in doc["reports"])


def test_constants_table(tmp_path):
    code, text = run(
        tmp_path, "constants", "--group", "heis1", "--p", "2", "--alpha", "1",
        "--beta", "0.5", "--theta", "1", "--k", "1", "--m", "1",
    )
    assert code == 0
    doc = json.loads(text)
    assert doc["Q"] == 4.0
    assert doc["constants"]["ckn"]["value"] == 0.75  # |4 - 2.5| / 2
    assert doc["constants"]["hardy_step"]["degenerate"] is True
    assert doc["constants"]["hardy_step"]["factor_index"] == 0


@pytest.mark.parametrize("key,value", [("p", "2,3"), ("alpha", "0,1"), ("beta", "1,2"),
                                       ("theta", "0.5,1"), ("k", "1,2"), ("m", "0,1")])
def test_constants_refuses_a_list_it_would_drop(tmp_path, capsys, key, value):
    code, text = run(tmp_path, "constants", "--group", "r:3", f"--{key}", value)
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert "constants takes single p, alpha, beta, theta, k, m values" in err


# heis1 (Q = 4), p = 2, alpha = beta = 1, theta = k = 2, m = 0: three
# constants degenerate, each with its own reason, and the empty ladder
# product is the float 1.0
_GOLDEN_CONSTANTS = """\
{
  "Q": 4.0,
  "constants": {
    "ckn": {
      "value": 0.5
    },
    "combined_first": {
      "value": 0.5
    },
    "combined_high": {
      "value": 0.5
    },
    "hardy_step": {
      "degenerate": true,
      "factor_index": 0,
      "reason": "Q - p(alpha+1) vanishes at alpha=1"
    },
    "iterated_hardy": {
      "degenerate": true,
      "factor_index": 1,
      "reason": "factor j=1 vanishes: Q = p(theta+1-j) at theta=2"
    },
    "l2_iterated": {
      "degenerate": true,
      "factor_index": 0,
      "reason": "factor j=0 vanishes: (Q-2)/2 = alpha + j"
    },
    "ladder_alpha": {
      "value": 1.0
    },
    "ladder_beta": {
      "value": 0.5
    },
    "uncertainty": {
      "value": 1.0
    }
  },
  "group": "heis1",
  "p": 2.0
}
"""


def test_constants_document_at_a_degenerate_point(tmp_path):
    code, text = run(tmp_path, "constants", "--group", "heis1", "--p", "2", "--alpha", "1",
                     "--beta", "1", "--theta", "2", "--k", "2", "--m", "0")
    assert code == 0
    assert text == _GOLDEN_CONSTANTS


def test_constants_at_k_zero_prints_the_table_with_theta(tmp_path):
    """The iterated Hardy constant needs k >= 1, like the L^2 ones, so at
    k = 0 it is left out of the table instead of failing the command."""
    args = ("constants", "--group", "r:3", "--p", "2", "--alpha", "0.5", "--beta", "1",
            "--k", "0", "--m", "0")
    code, text = run(tmp_path, *args, "--theta", "0.5")
    assert code == 0
    table = json.loads(text)["constants"]
    assert "iterated_hardy" not in table
    assert table["ladder_alpha"] == table["ladder_beta"] == {"value": 1.0}
    assert (code, text) == run(tmp_path, *args)


_VERIFY = ("verify", "--group", "r:3", "--check", "ckn", "--count", "1")


@pytest.mark.parametrize("argv", [
    ("constants", "--group", "r:3", "--p", "2", "--alpha", "nan", "--beta", "1"),
    ("constants", "--group", "r:3", "--p", "2", "--theta", "inf", "--k", "1"),
    (*_VERIFY, "--alpha", "nan"),
    (*_VERIFY, "--beta", "inf"),
    ("identity-check", "--count", "1", "--alpha", "nan"),
    ("scan-sharpness", "--group", "r:3", "--p", "2", "--alpha", "0", "--beta", "nan"),
    ("verify", "--group", "r:3", "--check", "ckn", "--count", "2", "--seed", "-1"),
    (*_VERIFY, "--annulus", "1e-300,1e300"),
])
def test_out_of_range_parameters_exit_2(tmp_path, capsys, argv):
    code, text = run(tmp_path, *argv)
    assert (code, text) == (2, "")
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("verbose", [False, True])
def test_an_empty_document_is_refused_with_its_flag_and_the_refused_count(tmp_path, capsys,
                                                                           verbose):
    code, text = run(tmp_path, "verify", "--group", "r:3", "--check", "hardy", "--count", "1",
                     "--alpha", "nan", *(["--verbose"] if verbose else []))
    assert (code, text) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err[-1].startswith("error: no reports generated: 1 grid point refused")
    assert "--allow-empty" in err[-1] and "allow_empty" in err[-1]
    assert ("--verbose" in err[-1]) is not verbose
    assert len(err) == 1 + verbose  # --verbose warns about the point it skipped
    assert run(tmp_path, "verify", "--group", "r:3", "--check", "hardy", "--count", "1",
               "--alpha", "nan", "--allow-empty")[0] == 0


def test_a_non_finite_grid_point_is_skipped(tmp_path):
    code, text = run(tmp_path, *_VERIFY, "--alpha", "0,nan")
    assert code == 0
    doc = json.loads(text)
    assert len(doc["reports"]) == 1
    [skip] = doc["meta"]["skipped"]
    assert skip["reason"] == "alpha must be a finite number"


def test_resolution_flag_reaches_quadrature(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:3", "--check", "ckn", "--count", "2",
        "--resolution", "48",
    )
    assert code == 0
    doc = json.loads(text)
    digest = doc["reports"][0]["config_digest"]
    assert digest == QuadratureConfig(radial_order=48, box_points=48).digest()


# r:3's sigma takes at least 192 box points per axis, so box_points counts
# only above that
_DIGEST_BASE = {"radial_order": 32, "radial_panels": 8, "box_points": 192}


@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(QuadratureConfig)])
def test_doubling_one_quadrature_field_changes_a_number(tmp_path, field):
    """No quadrature field a subcommand takes changes the config digest
    without changing a number of a document that records the digest.
    Reports take sigma at the default configuration, so only
    sphere-measure takes box_points."""
    def numbers(**changed):
        texts = []
        for command in (("verify", "--check", "ckn", "--count", "4"), ("sphere-measure",)):
            flags = [f"--{key.replace('_', '-')}={value}"
                     for key, value in {**_DIGEST_BASE, **changed}.items()
                     if command[0] in KEYS[key].commands]
            code, text = run(tmp_path, *command, "--group", "r:3", *flags)
            assert code == 0
            texts.append(re.sub(r'"config_digest": "\w+"', "", text))
        return texts

    assert sorted(_DIGEST_BASE) == sorted(f.name for f in dataclasses.fields(QuadratureConfig))
    assert numbers(**{field: 2 * _DIGEST_BASE[field]}) != numbers()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hgineq" in capsys.readouterr().out


# each case: subcommand, fixed flags, config key, flag, value (None for a switch)
_CONFIG_CASES = [
    ("constants", ("--group", "heis1"), "p", "--p", "3"),
    ("constants", ("--group", "heis1"), "alpha", "--alpha", "1"),
    ("constants", ("--group", "heis1", "--alpha", "1"), "beta", "--beta", "0.5"),
    ("constants", ("--group", "heis1", "--k", "2"), "theta", "--theta", "0.5"),
    ("constants", ("--group", "heis1", "--theta", "0.5"), "k", "--k", "2"),
    ("constants", ("--group", "heis1", "--alpha", "0.5"), "m", "--m", "2"),
    ("sphere-measure", ("--resolution", "16"), "group", "--group", "heis1"),
    ("identity-check", ("--count", "2"), "alpha", "--alpha", "-1,1"),
    ("identity-check", ("--count", "2"), "k", "--k", "2"),
    ("scan-sharpness", ("--schedule", "1e-2:1e2"), "beta", "--beta", "0.5"),
    ("scan-sharpness", (), "schedule", "--schedule", "1e-2:1e2,1e-4:1e4"),
    ("scan-sharpness", ("--schedule", "1e-2:1e2"), "target_gap", "--target-gap", "0.75"),
    ("verify", ("--count", "2"), "checks", "--check", "hardy,up1p"),
    ("verify", ("--count", "2", "--check", "higher"), "theta", "--theta", "0.25"),
    ("verify", ("--count", "2", "--check", "pair"), "m", "--m", "1"),
    ("verify", ("--count", "2", "--check", "higher"), "k", "--k", "2"),
    ("verify", ("--check", "ckn"), "seed", "--seed", "5"),
    # scalars arrive from the file as text and take the flag's conversion
    ("verify", ("--check", "ckn"), "count", "--count", "2"),
    ("verify", ("--count", "4", "--check", "ckn"), "radial_fraction", "--radial-fraction",
     "0.5"),
    # the quadrature keys are flat
    ("verify", ("--check", "ckn", "--count", "2"), "radial_order", "--radial-order", "48"),
    ("sphere-measure", ("--group", "r:2"), "resolution", "--resolution", "24"),
    ("constants", ("--p", "3"), "group", "--group", "heis1"),
    ("identity-check", (), "count", "--count", "2"),
    # a field is skipped at k = 0, so these switches change the exit code or stderr
    ("verify", ("--check", "higher", "--k", "0", "--count", "2"), "allow_empty",
     "--allow-empty", None),
    ("identity-check", ("--k", "0", "--count", "2"), "allow_empty", "--allow-empty", None),
    ("verify", ("--check", "higher", "--k", "0,1", "--count", "2"), "verbose", "--verbose",
     None),
    ("identity-check", ("--k", "0,1", "--count", "2"), "verbose", "--verbose", None),
]

# every other (subcommand, key) pair takes these fixed flags and values
_FIXED = {
    "verify": ("--check", "ckn", "--count", "2"),
    "scan-sharpness": ("--schedule", "1e-2:1e2"),
    "sphere-measure": ("--group", "r:2", "--resolution", "16"),
    "identity-check": ("--count", "2"),
    "constants": ("--group", "heis1", "--alpha", "1"),
}
_SAMPLES = {
    "group": "aniso:1,2", "norm": "max", "out": "{tmp}/doc.json", "resolution": "24",
    "radial_order": "48", "radial_panels": "4", "box_points": "24", "mc_samples": "1000",
    "timestamp": None, "verbose": None, "checks": "hardy", "p": "3", "alpha": "0.5",
    "beta": "0.5", "theta": "0.5", "k": "2", "m": "1", "count": "3", "seed": "5",
    "annulus": "0.5,4", "radial_fraction": "0.5", "mode": "orbit_fd", "format": "csv",
    "allow_empty": None, "method": "indicator", "schedule": "1e-2:1e2,1e-4:1e4",
    "target_gap": "0.75",
}


# keys no subcommand takes any more
_RETIRED = ("mc_samples", "method")


def _config_cases():
    """Every key, and every retired key, on every subcommand."""
    explicit = {(case[0], case[2]): case for case in _CONFIG_CASES}
    for key in (*KEYS, *_RETIRED):
        for command in _COMMANDS:
            yield explicit.get((command, key)) or (
                command, _FIXED[command], key, "--" + key.replace("_", "-"), _SAMPLES[key])


def _outcome(tmp_path, capsys, argv):
    """Exit code, stdout, the ``{tmp}/doc.json`` file and stderr of one run."""
    doc = tmp_path / "doc.json"
    doc.unlink(missing_ok=True)
    code = main(argv)
    out, err = capsys.readouterr()
    text = doc.read_text() if doc.exists() else None
    stamp = re.compile(r'"generated_at": "[^"]*"')
    return code, stamp.sub("", out), text and stamp.sub("", text), err


@pytest.mark.parametrize("command,fixed,key,flag,value", list(_config_cases()),
                         ids=[f"{c[0]}-{c[2]}" for c in _config_cases()])
def test_config_file_and_flag_give_the_same_document(tmp_path, capsys, command, fixed, key,
                                                     flag, value):
    """A key the subcommand takes changes its outcome alike as a flag and in
    a config file; any other key is refused both ways."""
    if value is None:
        by_flag, file_values = [flag], [True, "true"]
    else:
        value = value.replace("{tmp}", str(tmp_path))
        by_flag, file_values = [f"{flag}={value}"], [value]
        with contextlib.suppress(ValueError):
            file_values.append(json.loads(value))  # a number also as a JSON number
    cfg = tmp_path / "run.json"
    if key not in KEYS or command not in KEYS[key].commands:
        with pytest.raises(SystemExit) as exc:
            main([command, *fixed, *by_flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        cfg.write_text(json.dumps({key: file_values[0]}))
        code, _, _, err = _outcome(tmp_path, capsys, [command, *fixed, "--config", str(cfg)])
        assert code == 2
        assert f"unknown config keys for {command}: {[key]}" in err
        return
    got = _outcome(tmp_path, capsys, [command, *fixed, *by_flag])
    assert got[0] == 0
    for file_value in file_values:
        cfg.write_text(json.dumps({key: file_value}))
        assert _outcome(tmp_path, capsys, [command, *fixed, "--config", str(cfg)]) == got
    assert _outcome(tmp_path, capsys, [command, *fixed]) != got


def test_config_cases_cover_the_table():
    pairs = {(command, key) for key, row in KEYS.items() for command in row.commands}
    assert {(case[0], case[2]) for case in _CONFIG_CASES} <= pairs


@pytest.mark.parametrize("command", list(_COMMANDS))
def test_help_lists_exactly_the_flags_of_the_table(monkeypatch, capsys, command):
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        main([command, "--help"])
    listed = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", capsys.readouterr().out))
    expected = {"--help", "--config"}
    for key, row in KEYS.items():
        if command in row.commands:
            expected |= {*row.flags, "--" + key.replace("_", "-")}
    assert listed == expected


def test_readme_lists_the_keys_of_each_subcommand():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    common = re.search(r"Every subcommand takes the keys(.*?)\. Each", readme, re.S).group(1)
    for command in _COMMANDS:
        line = re.search(rf"^- `{command}`: (.*)$", readme, re.M).group(1)
        keys = [key for key, row in KEYS.items() if command in row.commands]
        assert sorted(re.findall(r"`([^`]+)`", common + line)) == sorted(keys), command


@pytest.mark.parametrize("given", [
    {"count": "two"}, {"radial_fraction": [0.5]}, {"allow_empty": "maybe"}, {"timestamp": 1},
    {"radial_order": 48.0},
    # file values are checked against the choices
    {"mode": "orbit-fd", "allow_empty": True}, {"format": "xml"},
    # a bad file value is reported even where a flag replaces it
    {"checks": ["sobolev"]},
])
def test_config_file_scalar_that_does_not_convert_exits_2(tmp_path, capsys, given):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(given))
    code, _ = run(tmp_path, "verify", "--check", "ckn", "--config", str(cfg))
    assert code == 2
    assert f"bad value for {next(iter(given))}" in capsys.readouterr().err


@pytest.mark.parametrize("command,given", [
    # the quadrature keys are flat
    ("verify", {"quadrature": {"radial_order": 48.0}}),
    ("verify", {"quadrature": [1]}),
    # keys of another subcommand
    ("identity-check", {"radial_fraction": 0.0}),
    ("constants", {"count": 2}),
])
def test_config_file_key_the_subcommand_does_not_take_exits_2(tmp_path, capsys, command,
                                                              given):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(given))
    code, _ = run(tmp_path, command, "--config", str(cfg))
    assert code == 2
    assert f"unknown config keys for {command}: {sorted(given)}" in capsys.readouterr().err


@pytest.mark.parametrize("text,code", [("false", 2), ("true", 0)])
def test_config_file_allow_empty_parses_true_and_false(tmp_path, text, code):
    # heis1 at theta = 1, k = 1 skips every field, so the run is empty
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"allow_empty": text}))
    got, _ = run(tmp_path, "verify", "--group", "heis1", "--check", "higher", "--theta", "1",
                 "--k", "1", "--count", "2", "--config", str(cfg))
    assert got == code


def _check_names():
    return (*CHECKS, *ALIASES, *VARIANTS)


def _expected_ids(name):
    if name in ALIASES:
        return set(ALIASES[name])
    if name in VARIANTS:
        return set(VARIANTS[name].values())
    return {name}


@pytest.mark.parametrize("name", _check_names())
def test_verify_runs_every_check_id(tmp_path, monkeypatch, capsys, name):
    code, text = run(tmp_path, "verify", "--check", name, "--count", "1")
    assert code == 0
    reports = json.loads(text)["reports"]
    assert reports and all(r["satisfied"] for r in reports)
    assert {r["check_id"] for r in reports} == _expected_ids(name)
    # the help text and the README list exactly the table's ids
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    listed = re.search(r"comma list: (\S+)", capsys.readouterr().out).group(1)
    assert listed.split(",") == list(_check_names())
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    paragraph = re.search(r"Check ids for `verify --check`:(.*?)\n\n", readme, re.S).group(1)
    assert set(re.findall(r"`([^`]+)`", paragraph)) == set(_check_names())


_DEMOS = sorted((Path(__file__).parents[1] / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", _DEMOS, ids=[demo.name for demo in _DEMOS])
def test_shell_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
