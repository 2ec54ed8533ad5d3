"""End-to-end command-line behavior: schemas, formats, exit codes."""

import json
import math
import os
import subprocess
import sys

import pytest

from gpcuntz import cli

CYCLE_E1 = '{"kind":"cycle","N":2,"factors":[[[1,0],[0,0]]]}'
CYCLE_E1E1 = '{"kind":"cycle","N":2,"factors":[[[1,0],[0,0]],[[1,0],[0,0]]]}'
CHAIN_E2 = '{"kind":"chain","period":[[[0,0],[1,0]]]}'
ROTATION_THIRD = '{"kind":"chain","rotation":{"num":1,"den":3}}'


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# parameter schema

def test_schema_roundtrip_cycle():
    param = cli.param_from_json(json.loads(CYCLE_E1))
    again = cli.param_from_json(cli.param_to_json(param))
    assert again.k == 1 and again.n == 2


def test_schema_rejects_bad_input():
    with pytest.raises(ValueError):
        cli.param_from_json({"kind": "cycle"})
    with pytest.raises(ValueError):
        cli.param_from_json({"kind": "chain"})
    with pytest.raises(ValueError):
        cli.param_from_json(json.loads('{"kind":"cycle","N":3,"factors":[[[1,0],[0,0]]]}'))


def test_schema_chain_kinds():
    rot = cli.param_from_json(json.loads(ROTATION_THIRD))
    assert rot.kind == "rotation"
    gray = cli.param_from_json({"kind": "chain", "gray_zone": True})
    assert gray.kind == "gray_zone"
    theta = cli.param_from_json({"kind": "chain", "theta": 0.25})
    assert theta.kind == "rotation" and isinstance(theta.theta, float)


# ----------------------------------------------------------------------
# subcommands

def test_normalize(capsys):
    code, out, _ = run_cli(capsys, "normalize", "-N", "2", "s1* s1")
    assert code == 0
    assert out.strip() == "I"


def test_normalize_json(capsys):
    code, out, _ = run_cli(capsys, "normalize", "-N", "2", "--format", "json", "s1 s1* + s2 s2*")
    assert code == 0
    assert json.loads(out) == {"normal_form": "s1 s1* + s2 s2*"}


def test_normalize_parse_error_exit_code(capsys):
    code, _, err = run_cli(capsys, "normalize", "-N", "2", "s9")
    assert code == 1
    assert "offset" in err


def test_state_eval(capsys):
    code, out, _ = run_cli(capsys, "state-eval", "--inline", CYCLE_E1, "s1")
    assert code == 0
    re_part, im_part = out.split()
    assert float(re_part) == 1.0
    assert float(im_part) == 0.0


def test_classify_json(capsys):
    code, out, _ = run_cli(capsys, "classify", "--inline", CYCLE_E1E1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["irreducible"] is False
    assert payload["p"] == 2


def test_classify_from_file(tmp_path, capsys):
    path = tmp_path / "param.json"
    path.write_text(CYCLE_E1)
    code, out, _ = run_cli(capsys, "classify", "--param", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out)["irreducible"] is True


def test_equivalent(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    a.write_text(CYCLE_E1)
    b.write_text(CHAIN_E2)
    code, out, _ = run_cli(capsys, "equivalent", "--param", str(a), "--other", str(b),
                           "--format", "json")
    assert code == 0
    assert json.loads(out) == {"equivalent": False}


def test_decompose_cycle_components(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--inline", CYCLE_E1E1, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["components"]) == 2


def test_decompose_rotation_chain(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--inline", ROTATION_THIRD, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["direct_integral"]["base_factors"]) == 3


def test_rep_build_matrix_coo(capsys):
    code, out, _ = run_cli(capsys, "rep-build", "--inline", CYCLE_E1, "--depth", "2",
                           "--format", "matrix-coo")
    assert code == 0
    assert out.startswith("# S1\n")
    assert "# labels" in out


def test_rep_build_json_with_fiber(capsys):
    code, out, _ = run_cli(capsys, "rep-build", "--inline", CYCLE_E1, "--depth", "2",
                           "--fiber", "exp(i pi 1/2)", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "fiber"


def test_verify(capsys):
    code, out, _ = run_cli(capsys, "verify", "--inline", CHAIN_E2, "--depth", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["isometry_residual"] < 1e-12


@pytest.mark.parametrize("command", ["rep-build", "verify"])
@pytest.mark.parametrize(
    "param, flag, message",
    [
        (CHAIN_E2, ["--fiber", "-1"], "--fiber applies to cycle parameters only"),
        (CYCLE_E1, ["--window", "2", "3"], "--window applies to chain parameters only"),
    ],
    ids=["fiber-on-chain", "window-on-cycle"],
)
def test_rep_flags_rejected_on_the_other_kind(capsys, command, param, flag, message):
    code, out, err = run_cli(capsys, command, "--inline", param, "--depth", "3", *flag)
    assert code == 1
    assert out == ""
    assert message in err


def test_rotation_missing_key_is_named(capsys):
    code, _, err = run_cli(capsys, "classify", "--inline", '{"kind":"chain","rotation":{"num":1}}')
    assert code == 1
    assert "missing key 'den'" in err


def test_empty_cycle_needs_a_factor(capsys):
    code, _, err = run_cli(capsys, "classify", "--inline", '{"kind":"cycle","factors":[]}')
    assert code == 1
    assert "a cycle needs at least one factor" in err


def test_diagnostics_closed_form(capsys):
    code, out, _ = run_cli(capsys, "diagnostics", "--rotation", "1/3", "--p", "1",
                           "--M", "100", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    expected = 2 * 100 * math.sin(math.pi / 3) ** 2
    assert abs(payload["sums"]["1"]["plain"] - expected) < 1e-9


def test_diagnostics_gray_zone_with_target(capsys):
    target = json.dumps([[1 / math.sqrt(2), 0], [1 / math.sqrt(2), 0]])
    code, out, _ = run_cli(capsys, "diagnostics", "--gray-zone", "--p", "1", "--M", "500",
                           "--target", target, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["target_sum"] < math.pi ** 2 / 3


def test_diagnostics_requires_one_source(capsys):
    code, _, err = run_cli(capsys, "diagnostics", "--rotation", "1/3", "--gray-zone")
    assert code == 1
    assert "exactly one" in err


def test_car_check(capsys):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_residual"] < 1e-9


def test_deterministic_output(capsys):
    args = ("diagnostics", "--rotation", "2/5", "--p", "3", "--M", "250", "--format", "json")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_tolerance_env_override(monkeypatch):
    monkeypatch.setenv("GPCUNTZ_TOL", "1e-6")
    assert cli._tolerance() == 1e-6
    monkeypatch.delenv("GPCUNTZ_TOL")
    assert cli._tolerance() == 1e-9


def run_module(*argv):
    # the child process imports gpcuntz from the same tree as this test run,
    # installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "gpcuntz.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )


def test_usage_error_exit_code():
    proc = run_module("no-such-command")
    assert proc.returncode == 2


def test_missing_file_exit_code():
    proc = run_module("classify", "--param", "/nonexistent.json")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
