import json
import re
from pathlib import Path

import pytest

from hgineq.cli import main
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


def test_verify_unknown_check(tmp_path):
    code, _ = run(tmp_path, "verify", "--check", "sobolev")
    assert code == 2


def test_verify_bad_group(tmp_path):
    code, _ = run(tmp_path, "verify", "--group", "so3")
    assert code == 2


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
    code, text = run(tmp_path, "sphere-measure", "--group", "r:2", "--method", "mc",
                     "--mc-samples", "200000")
    doc = json.loads(text)
    assert doc["method"] == "mc"
    assert doc["value"] == pytest.approx(2 * 3.141592653589793, rel=5e-2)


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


def test_resolution_flag_reaches_quadrature(tmp_path):
    code, text = run(
        tmp_path, "verify", "--group", "r:3", "--check", "ckn", "--count", "2",
        "--resolution", "48",
    )
    assert code == 0
    doc = json.loads(text)
    digest = doc["reports"][0]["config_digest"]
    from hgineq import QuadratureConfig

    assert digest == QuadratureConfig(radial_order=48, box_points=48).digest()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "hgineq" in capsys.readouterr().out


# each case: subcommand, fixed flags, config key, flag, value
_CONFIG_CASES = [
    ("constants", ("--group", "heis1"), "p", "--p", "3"),
    ("constants", ("--group", "heis1"), "alpha", "--alpha", "1"),
    ("constants", ("--group", "heis1", "--alpha", "1"), "beta", "--beta", "0.5"),
    ("constants", ("--group", "heis1", "--k", "2"), "theta", "--theta", "0.5"),
    ("constants", ("--group", "heis1", "--theta", "0.5"), "k", "--k", "2"),
    ("constants", ("--group", "heis1", "--alpha", "0.5"), "m", "--m", "2"),
    ("sphere-measure", ("--group", "r:2", "--resolution", "16"), "annulus", "--annulus", "1,3"),
    ("sphere-measure", ("--resolution", "16"), "group", "--group", "heis1"),
    ("identity-check", ("--count", "2"), "alpha", "--alpha", "-1,1"),
    ("identity-check", ("--count", "2"), "k", "--k", "2"),
    ("scan-sharpness", ("--schedule", "1e-2:1e2"), "beta", "--beta", "0.5"),
    ("scan-sharpness", (), "schedule", "--schedule", "1e-2:1e2,1e-4:1e4"),
    ("scan-sharpness", ("--schedule", "1e-2:1e2"), "target_gap", "--target-gap", "0.75"),
    ("sphere-measure", ("--group", "r:2", "--resolution", "16"), "method", "--method",
     "indicator"),
    ("verify", ("--count", "2"), "checks", "--check", "hardy,up1p"),
    ("verify", ("--count", "2", "--check", "higher"), "theta", "--theta", "0.25"),
    ("verify", ("--count", "2", "--check", "pair"), "m", "--m", "1"),
    ("verify", ("--check", "ckn"), "seed", "--seed", "5"),
    # scalars arrive from the file as text and take the flag's conversion
    ("verify", ("--check", "ckn"), "count", "--count", "2"),
    ("verify", ("--count", "4", "--check", "ckn"), "radial_fraction", "--radial-fraction",
     "0.5"),
]


@pytest.mark.parametrize("command,fixed,key,flag,value", _CONFIG_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in _CONFIG_CASES])
def test_config_file_and_flag_give_the_same_document(tmp_path, command, fixed, key, flag,
                                                     value):
    cfg = tmp_path / "run.json"
    file_value = int(value) if key == "seed" else value
    cfg.write_text(json.dumps({key: file_value}))
    code_flag, by_flag = run(tmp_path, command, *fixed, f"{flag}={value}")
    code_file, by_file = run(tmp_path, command, *fixed, "--config", str(cfg))
    assert code_flag == code_file == 0
    assert by_file == by_flag
    _, by_default = run(tmp_path, command, *fixed)
    assert by_default != by_flag  # the key changes the document


@pytest.mark.parametrize("given", [
    {"count": "two"}, {"radial_fraction": [0.5]}, {"allow_empty": "maybe"}, {"timestamp": 1},
])
def test_config_file_scalar_that_does_not_convert_exits_2(tmp_path, capsys, given):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(given))
    code, _ = run(tmp_path, "verify", "--check", "ckn", "--config", str(cfg))
    assert code == 2
    assert f"bad value for {next(iter(given))}" in capsys.readouterr().err


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
