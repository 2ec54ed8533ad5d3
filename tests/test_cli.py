"""End-to-end command-line behavior: schemas, formats, exit codes."""

import gc
import json
import math
import os
import pathlib
import resource
import subprocess
import sys

import pytest

from gpcuntz import DirectIntegralDescriptor, cli

CYCLE_E1 = '{"kind":"cycle","N":2,"factors":[[[1,0],[0,0]]]}'
CYCLE_E1E1 = '{"kind":"cycle","N":2,"factors":[[[1,0],[0,0]],[[1,0],[0,0]]]}'
CHAIN_E2 = '{"kind":"chain","period":[[[0,0],[1,0]]]}'
ROTATION_THIRD = '{"kind":"chain","rotation":{"num":1,"den":3}}'
DATA = pathlib.Path(__file__).parent / "data"


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


# 27 x 27 = 729 terms; units, i, exponent literals and all four scalar forms
NORMALIZE_PRODUCT = ("(s1 - s2 + i s3)(s1 + (2-3i) s2 - 1e-5 s3)(s1 + 2i s2 - 1.25 s3)"
                     "((s1 + i s2 - s3)(s1 - 0.75i s2 + 3e20 s3)(s1 + s2 - i s3))*")


def test_normalize_output_is_stable(capsys):
    code, out, _ = run_cli(capsys, "normalize", "-N", "3", "-f", "json", NORMALIZE_PRODUCT)
    assert code == 0
    assert out == (DATA / "normalize_product_n3.json").read_text()


@pytest.mark.parametrize("argv", [
    ("normalize", "-N", "2"),
    ("state-eval", "--inline", CYCLE_E1),
])
@pytest.mark.parametrize("expression", ["1e308 s1 + 1e308 s1", "(1e308 1e308 - 1e308 1e308) s1 + s2"])
def test_non_finite_coefficients_are_refused(argv, expression):
    proc = run_module(*argv, expression)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")


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


@pytest.mark.parametrize(
    "param, message",
    [
        ('{"kind":"chain","rotation":5}', "chain 'rotation' must be an object"),
        ('{"kind":"cycle","factors":5}', "cycle 'factors' must be a list of vectors"),
        ('{"kind":"cycle","factors":[[1,0],5]}', "cycle 'factors'[1] must be a list of entries"),
        ('{"kind":"chain","rotation":{"num":1,"den":0}}', "chain 'rotation' den must be nonzero"),
    ],
    ids=["rotation-not-object", "factors-not-list", "factor-not-list", "rotation-zero-den"],
)
def test_malformed_schema_names_the_field(capsys, param, message):
    code, out, err = run_cli(capsys, "classify", "--inline", param)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {message}")


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


def test_car_check_reaches_n_max_8(capsys):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", "8", "-f", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["pairs"]) == 64
    assert payload["max_residual"] == 0.0


def test_car_check_builds_each_adjoint_once(capsys, monkeypatch):
    calls = []
    adjoint = cli.algebra.AlgebraElement.adjoint

    def counted(self):
        calls.append(len(self.terms))
        return adjoint(self)

    monkeypatch.setattr(cli.algebra.AlgebraElement, "adjoint", counted)
    code, _, _ = run_cli(capsys, "car-check", "--n-max", "4")
    assert code == 0
    # once per generator for the pairs, and once in each Fock residual
    assert calls == [1, 2, 4, 8] * 2


@pytest.mark.parametrize("fmt, golden", [("text", "car_check_n4.txt"), ("json", "car_check_n4.json")])
def test_car_check_output_is_stable(capsys, fmt, golden):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", "4", "-f", fmt)
    assert code == 0
    assert out == (DATA / golden).read_text()


@pytest.mark.parametrize("n_max", ["23", "40", str(10**9)])
def test_car_check_over_budget_is_refused_before_generating(capsys, monkeypatch, n_max):
    def no_generators(_):
        raise AssertionError("a CAR generator was built for a refused request")

    monkeypatch.setattr(cli.algebra, "car_generator", no_generators)
    code, out, err = run_cli(capsys, "car-check", "--n-max", n_max)
    assert code == 1
    assert out == ""
    # generators 1..22 hold 2^22 - 1 terms, the last count within the budget
    assert err == (f"error: car-check would hold 2^{n_max} - 1 generator terms, "
                   "over the budget of 4194304\n")


def test_car_check_budget_charges_every_generator(capsys, monkeypatch):
    monkeypatch.setattr(cli.algebra, "EXPAND_BUDGET", 14)
    code, _, _ = run_cli(capsys, "car-check", "--n-max", "3")
    assert code == 0
    code, _, err = run_cli(capsys, "car-check", "--n-max", "4")
    assert code == 1
    assert err == "error: car-check would hold 2^4 - 1 generator terms, over the budget of 14\n"


def test_memory_error_prints_one_error_line(capsys, monkeypatch):
    def exhausted(_args):
        raise MemoryError

    monkeypatch.setattr(cli, "_cmd_normalize", exhausted)
    code, out, err = run_cli(capsys, "normalize", "-N", "2", "s1")
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: the request does not fit in the memory available\n"


@pytest.mark.parametrize("enabled", [True, False])
def test_rep_build_out_of_memory_in_a_json_list_prints_one_error_line(
        capsys, monkeypatch, enabled):
    class Exhausted:
        def tolist(self):
            raise MemoryError

    nested_list = cli.params._nested_list
    # the real helper, with a tolist that runs out of memory
    monkeypatch.setattr(cli.params, "_nested_list", lambda _array: nested_list(Exhausted()))
    monkeypatch.setattr(cli.reps, "_nested_list", cli.params._nested_list)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        code, out, err = run_cli(capsys, "rep-build", "--inline", CYCLE_E1, "--depth", "3",
                                 "-f", "json")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert code == 1
    assert out == ""
    assert err == "error: out of memory: the request does not fit in the memory available\n"


GRAY_TARGET = "[[0.7071067811865476,0],[0.7071067811865476,0]]"


@pytest.mark.parametrize("argv, golden", [
    (("--rotation", "3/7", "--p", "3", "--M", "10000"), "diagnostics_rot37.txt"),
    (("--rotation", "3/7", "--p", "3", "--M", "10000", "-f", "json"), "diagnostics_rot37.json"),
    (("--theta", "0.3819660112501051", "--p", "2", "--M", "5000", "-f", "json"),
     "diagnostics_theta.json"),
    (("--gray-zone", "--p", "2", "--M", "2000", "--target", GRAY_TARGET),
     "diagnostics_gray_target.txt"),
])
def test_diagnostics_output_is_stable(capsys, argv, golden):
    code, out, _ = run_cli(capsys, "diagnostics", *argv)
    assert code == 0
    assert out == (DATA / golden).read_text()


def test_diagnostics_over_budget_is_refused(capsys):
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "1/3", "--M", "1000000000000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: diagnostics would generate 1000000000001 factors, over the budget")


def test_diagnostics_with_target_over_budget_is_refused(capsys, monkeypatch):
    def no_factors(*_):
        raise AssertionError("factors were generated for a refused request")

    monkeypatch.setattr(cli.params, "chain_factors", no_factors)
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "1/3", "--M", "1000000000000",
                             "--target", GRAY_TARGET)
    assert code == 1
    assert out == ""
    assert err.startswith("error: diagnostics would generate 1000000000001 factors, over the budget")


def test_diagnostics_target_shares_one_factor_pass(capsys, monkeypatch):
    calls = []
    generate = cli.params.chain_factors

    def counted(chain, start, count):
        calls.append((start, count))
        return generate(chain, start, count)

    monkeypatch.setattr(cli.params, "chain_factors", counted)
    code, out, _ = run_cli(capsys, "diagnostics", "--gray-zone", "--p", "2", "--M", "2000",
                           "--target", GRAY_TARGET)
    assert code == 0
    assert out == (DATA / "diagnostics_gray_target.txt").read_text()
    assert calls == [(1, 2002)]


GOLDEN_CYCLE = '{"kind":"cycle","N":2,"factors":[[[0.6,0],[0,0.8]],[[0,0],[1,0]]]}'
GOLDEN_FIBER = '{"kind":"cycle","N":3,"factors":[[[0.6,0],[0,0.8],[0,0]],[[0,0],[0,0],[1,0]]]}'

VERIFY_FIBER = ('{"kind":"cycle","N":2,"factors":[[[0.6,0],[0,0.8]],[[0,0.28],[0.96,0]],'
                '[[0.8,0],[0.36,0.48]]]}')
VERIFY_N3 = ('{"kind":"cycle","N":3,"factors":[[[0.6,0],[0,0.48],[0.64,0]],'
             '[[0.48,0],[0.36,0.48],[0,0.64]]]}')
VERIFY_GOLDENS = [
    (("--inline", VERIFY_FIBER, "--depth", "6", "--fiber", "exp(i pi 2/3)"),
     "verify_cycle_fiber"),
    (("--inline", VERIFY_N3, "--depth", "4"), "verify_cycle_n3"),
    (("--inline", '{"kind":"chain","rotation":{"num":2,"den":7}}', "--depth", "4",
      "--window", "3", "5"), "verify_rotation_2_7"),
    (("--inline", '{"kind":"chain","gray_zone":true}', "--depth", "4", "--window", "3", "5"),
     "verify_gray_zone"),
    # the edges of the step range: every step above Omega, or one below it
    (("--inline", '{"kind":"chain","rotation":{"num":2,"den":7}}', "--depth", "4",
      "--window", "1", "2"), "verify_rotation_2_7_window_1_2"),
    (("--inline", '{"kind":"chain","rotation":{"num":2,"den":7}}', "--depth", "4",
      "--window", "2", "1"), "verify_rotation_2_7_window_2_1"),
]


@pytest.mark.parametrize("fmt, ext", [("matrix-coo", "txt"), ("json", "json")])
@pytest.mark.parametrize("argv, stem", [
    (("--inline", GOLDEN_CYCLE, "--depth", "3"), "rep_build_cycle"),
    (("--inline", GOLDEN_FIBER, "--depth", "2", "--fiber", "exp(i pi 2/3)"), "rep_build_fiber"),
    (("--inline", '{"kind":"chain","gray_zone":true}', "--depth", "3", "--window", "2", "3"),
     "rep_build_chain"),
])
def test_rep_build_output_is_stable(capsys, argv, stem, fmt, ext):
    code, out, _ = run_cli(capsys, "rep-build", *argv, "-f", fmt)
    assert code == 0
    assert out == (DATA / f"{stem}.{ext}").read_text()


@pytest.mark.parametrize("fmt, ext", [("matrix-coo", "txt"), ("json", "json")])
@pytest.mark.parametrize("argv, stem", [
    (("--inline", GOLDEN_CYCLE, "--depth", "3"), "rep_build_cycle"),
    (("--inline", GOLDEN_FIBER, "--depth", "2", "--fiber", "exp(i pi 2/3)"), "rep_build_fiber"),
    (("--inline", '{"kind":"chain","gray_zone":true}', "--depth", "3", "--window", "2", "3"),
     "rep_build_chain"),
])
def test_rep_build_needs_no_scipy_sparse(capsys, monkeypatch, argv, stem, fmt, ext):
    # from here on, importing scipy.sparse raises ImportError
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    code, out, err = run_cli(capsys, "rep-build", *argv, "-f", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{stem}.{ext}").read_text()


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("argv, stem", VERIFY_GOLDENS)
def test_verify_output_is_stable(capsys, argv, stem, fmt, ext):
    # the residuals sit in the last bits, so any change to how the
    # isometries, anchors or basis vectors are formed shows here
    code, out, _ = run_cli(capsys, "verify", *argv, "-f", fmt)
    assert code == 0
    assert out == (DATA / f"{stem}.{ext}").read_text()


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("argv, stem", VERIFY_GOLDENS)
def test_verify_needs_no_scipy_sparse(capsys, monkeypatch, argv, stem, fmt, ext):
    # from here on, importing scipy.sparse raises ImportError
    monkeypatch.setitem(sys.modules, "scipy.sparse", None)
    code, out, err = run_cli(capsys, "verify", *argv, "-f", fmt)
    assert (code, err) == (0, "")
    assert out == (DATA / f"{stem}.{ext}").read_text()


def test_rep_build_over_budget_is_refused(capsys):
    cycle = '{"kind":"cycle","factors":[[[1,0],[0,0]]]}'
    code, out, err = run_cli(capsys, "rep-build", "--inline", cycle, "--depth", "40")
    assert code == 1
    assert out == ""
    assert err == ("error: truncation would have dimension at least 2^40, "
                   "over the budget of 1048576 for rank 2\n")


def test_verify_refuses_an_oversized_basis_check_before_enumerating(capsys, monkeypatch):
    def no_family(*_):
        raise AssertionError("the basis family was enumerated for a refused check")

    monkeypatch.setattr(cli.reps, "_branch_words", no_family)
    # every entry 1/4: the anchors fill their first 16 and 256 entries, and
    # the depth-2 family would fill the blocks of 65,536 and 4,096 rows
    quarters = [[[0.25, 0]] * 16] * 2
    cycle = json.dumps({"kind": "cycle", "factors": quarters})
    code, out, err = run_cli(capsys, "verify", "--inline", cycle, "--depth", "4")
    assert code == 1
    assert out == ""
    assert err == ("error: the basis check would stack 512 vectors on 69632 rows, "
                   "35651584 entries, over the budget of 8388608\n")


def test_verify_checks_a_one_hot_family_of_dimension_131072(capsys):
    # 512 basis vectors of one nonzero entry each: their stack has 512 rows
    e = [[[1, 0] if j == i else [0, 0] for j in range(16)] for i in range(2)]
    cycle = json.dumps({"kind": "cycle", "factors": e})
    code, out, err = run_cli(capsys, "verify", "--inline", cycle, "--depth", "4", "-f", "json")
    assert code == 0
    assert err == ""
    report = json.loads(out)
    assert report["passed"] is True
    assert report["basis_count"] == report["basis_count_expected"] == 512
    assert report["basis_gram_residual"] == report["family_residual"] == 0.0


@pytest.mark.parametrize("param, field", [
    ('{"factors":[[[1,0],[0,0]]]}', "'kind'"),
    ('{"kind":"cycle","N":2}', "'factors'"),
    ('{"kind":"chain"}', "'rotation'"),
    ('{"kind":"chain","rotation":{"num":1}}', "'den'"),
])
def test_missing_schema_field_is_named(capsys, param, field):
    code, out, err = run_cli(capsys, "classify", "--inline", param)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert len(err.splitlines()) == 1


def test_diagnostics_target_of_wrong_rank_is_named(capsys):
    code, out, err = run_cli(capsys, "diagnostics", "--gray-zone", "--p", "1", "--M", "10",
                             "--target", "[[1,0],[0,0],[0,0]]")
    assert code == 1
    assert out == ""
    assert err == "error: --target has 3 entries but the chain has rank 2\n"


STATE_EVAL_FACTOR = "(0.6 s1 + (0.3 + 0.4 i) s2 s1 - 0.5 i s2 s2)"
STATE_EVAL_OTHER = "(exp(i 0.3) s1 + 0.25 s2 s1 + (0.1 - 0.7 i) s2 s2)"
# 81 x 81 = 6561 terms with words of 4 to 8 letters on each side
STATE_EVAL_ELEMENT = " ".join([STATE_EVAL_FACTOR] * 4 + ["(" + " ".join([STATE_EVAL_OTHER] * 4) + ")*"])


@pytest.mark.parametrize("param, stem", [
    ('{"kind":"cycle","N":2,"factors":[[[0.6,0],[0,0.8]],[[0,0.28],[0.96,0]],[[0.8,0],[0.36,0.48]]]}',
     "state_eval_cycle"),
    ('{"kind":"chain","rotation":{"num":2,"den":7}}', "state_eval_rotation"),
    ('{"kind":"chain","preperiod":[[[0,0.6],[0.8,0]]],"period":[[[0.6,0],[0,0.8]],[[0,0],[1,0]]]}',
     "state_eval_explicit"),
])
def test_state_eval_output_is_stable(capsys, param, stem):
    assert len(cli.expressions.parse(STATE_EVAL_ELEMENT, 2).terms) == 6561
    code, out, _ = run_cli(capsys, "state-eval", "--inline", param, STATE_EVAL_ELEMENT)
    assert code == 0
    assert out == (DATA / f"{stem}.txt").read_text()


V2, W2 = "[[0.6,0],[0,0.8]]", "[[0,0.28],[0.96,0]]"
IV2, MIW2 = "[[0,0.6],[-0.8,0]]", "[[0.28,0],[0,-0.96]]"
U3, MU3 = "[[0.48,0],[0,0.6],[0.64,0]]", "[[-0.48,0],[0,-0.6],[-0.64,0]]"
X3 = "[[0,0],[0.8,0],[0,-0.6]]"
# e^{-i} (iv), e^{i} v and e^{-i} w
PHASED_IV2 = "[[0.5048825908847379,0.3241813835208838],[-0.4322418446945118,0.6731767878463173]]"
PHASED_V2 = "[[0.3241813835208838,0.5048825908847379],[-0.6731767878463173,0.4322418446945118]]"
PHASED_W2 = "[[0.23561187574621104,0.15128464564307914],[0.5186902136334142,-0.8078121454155807]]"


def _cycle(*factors, n=2):
    return f'{{"kind":"cycle","N":{n},"factors":[{",".join(factors)}]}}'


def _rotation(num, den):
    return f'{{"kind":"chain","rotation":{{"num":{num},"den":{den}}}}}'


DECISION_PARAMS = {
    # v w (iv) (-iw) = (v w)^2: per-factor phases with unit product
    "cycle_p2_n2": _cycle(V2, W2, IV2, MIW2),
    # v w (iv) w = i (v w)^2: the root carries a square root of i
    "cycle_p2_n2_phase": _cycle(V2, W2, IV2, W2),
    "cycle_p3_n2": _cycle(W2, W2, MIW2),
    "cycle_p2_n3": _cycle(U3, X3, MU3, X3, n=3),
    "cycle_p3_n3": _cycle(U3, MU3, U3, n=3),
    "chain_explicit": '{"kind":"chain","preperiod":[[[0,0.6],[0.8,0]]],'
                      f'"period":[{V2},{W2},{IV2},{MIW2}]}}',
    "rotation_1_2": _rotation(1, 2),
    "rotation_3_8": _rotation(3, 8),
}
EQUIVALENT_PAIRS = {
    # (v, w, iv) against (e^{-i} iv, e^{i} v, w): a cyclic rotation
    "cycle_rotated": (_cycle(V2, W2, IV2), _cycle(PHASED_IV2, PHASED_V2, W2)),
    # (v, w) against (v, e^{-i} w): equal only up to a global phase, so inequivalent
    "cycle_rescaled": (_cycle(V2, W2), _cycle(V2, PHASED_W2)),
    "rotation_mixed": (_rotation(1, 4), '{"kind":"chain","period":[[[1,0],[0,0]],[[0,0],[1,0]]]}'),
    "rotation_pair": (_rotation(1, 8), _rotation(5, 8)),
}


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("command", ["classify", "decompose"])
@pytest.mark.parametrize("stem", sorted(DECISION_PARAMS))
def test_decision_output_is_stable(capsys, command, stem, fmt, ext):
    code, out, _ = run_cli(capsys, command, "--inline", DECISION_PARAMS[stem], "-f", fmt)
    assert code == 0
    assert out == (DATA / f"{command}_{stem}.{ext}").read_text()


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("stem", sorted(EQUIVALENT_PAIRS))
def test_equivalent_output_is_stable(capsys, stem, fmt, ext):
    a, b = EQUIVALENT_PAIRS[stem]
    code, out, _ = run_cli(capsys, "equivalent", "--param", a, "--other", b, "-f", fmt)
    assert code == 0
    assert out == (DATA / f"equivalent_{stem}.{ext}").read_text()


BIG_ROTATION = '{"kind":"chain","rotation":{"num":1,"den":100000007}}'
BIG_ROTATION_ERROR = ("error: the period block of rotation 1/100000007 would generate "
                      "100000007 factors, over the budget of 8388608\n")


def _no_factors(*_):
    raise AssertionError("chain factors were generated")


def test_large_rotation_is_classified_in_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(cli.params, "chain_factors", _no_factors)
    code, out, err = run_cli(capsys, "classify", "--inline", BIG_ROTATION)
    assert code == 0
    assert out.splitlines()[-1] == "period: 100000007"
    assert err == ""


BUDGET_ROTATION = '{"kind":"chain","rotation":{"num":1,"den":8388593}}'
FLOAT_ROTATION = '{"kind":"chain","theta":0.1}'
NO_EXACT_TAIL_ERROR = ("error: chain kind 'rotation' has no exact periodic tail; "
                       "use asymptotic diagnostics instead\n")
THREE_PERIODIC = '{"kind":"chain","period":[[[1,0],[0,0]],[[0,0],[1,0]],[[0.6,0],[0.8,0]]]}'
LCM_ERROR = ("error: the tail blocks tiled to the lcm of their lengths would generate "
             "25165779 factors, over the budget of 8388608\n")


@pytest.mark.parametrize("argv, error", [
    (("decompose", "--inline", BIG_ROTATION), BIG_ROTATION_ERROR),
    (("equivalent", "--param", BIG_ROTATION, "--other", CHAIN_E2), BIG_ROTATION_ERROR),
    # a rational block within the budget is not built when the other side
    # has no exact tail, in either order
    (("equivalent", "--param", BUDGET_ROTATION, "--other", FLOAT_ROTATION), NO_EXACT_TAIL_ERROR),
    (("equivalent", "--param", FLOAT_ROTATION, "--other", BUDGET_ROTATION), NO_EXACT_TAIL_ERROR),
    # each block is within the budget, but not both tiled to lcm(8388593, 3)
    (("equivalent", "--param", BUDGET_ROTATION, "--other", THREE_PERIODIC), LCM_ERROR),
], ids=["decompose", "equivalent", "equivalent-undecidable-other", "equivalent-undecidable-first",
        "equivalent-lcm"])
def test_large_rotation_block_is_refused_before_allocating(capsys, monkeypatch, argv, error):
    monkeypatch.setattr(cli.params, "chain_factors", _no_factors)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == error


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("stem", ["rotation_3_8", "cycle_p2_n2"])
def test_decompose_serializes_each_dict_once(capsys, monkeypatch, stem, fmt, ext):
    calls = {"to_dict": 0, "param_to_json": 0, "dumps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DirectIntegralDescriptor, "to_dict",
                        counted("to_dict", DirectIntegralDescriptor.to_dict))
    monkeypatch.setattr(cli, "param_to_json", counted("param_to_json", cli.param_to_json))
    monkeypatch.setattr(cli.json, "dumps", counted("dumps", cli.json.dumps))
    code, out, _ = run_cli(capsys, "decompose", "--inline", DECISION_PARAMS[stem], "-f", fmt)
    assert code == 0
    assert out == (DATA / f"decompose_{stem}.{ext}").read_text()
    dicts = calls["to_dict"] + calls["param_to_json"]
    # one dict per component (two for the cycle) or one for the direct integral
    assert dicts == (1 if "rotation" in stem else 2)
    # one dumps of the payload, or one per printed dict
    assert calls["dumps"] == (1 if fmt == "json" else dicts)


def test_diagnostics_budget_counts_entries(capsys):
    period = [[[1, 0]] + [[0, 0]] * 15]
    chain = json.dumps({"kind": "chain", "period": period})
    code, out, err = run_cli(capsys, "diagnostics", "--inline", chain, "--p", "1", "--M", "8000000")
    assert code == 1
    assert out == ""
    assert err == "error: diagnostics would generate 8000001 factors, over the budget of 1048576\n"


def test_normalize_expand_over_budget_is_refused(capsys):
    code, out, err = run_cli(capsys, "normalize", "-N", "4", "--expand", "14", "s1")
    assert code == 1
    assert out == ""
    assert err == "error: expand_identity would generate 268435456 terms, over the budget of 4194304\n"


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


@pytest.mark.parametrize("raw", ["nan", "0", "-1", "inf", "-inf", "1e-9x"])
def test_tolerance_env_must_be_finite_and_positive(capsys, monkeypatch, raw):
    monkeypatch.setenv("GPCUNTZ_TOL", raw)
    code, out, err = run_cli(capsys, "classify", "--inline", CYCLE_E1E1)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: GPCUNTZ_TOL must be a ")


def test_verify_checks_the_tolerance_before_building(capsys, monkeypatch):
    monkeypatch.setenv("GPCUNTZ_TOL", "0")

    def no_build(*_):
        raise AssertionError("the rep was built")

    monkeypatch.setattr(cli.reps, "build_cycle_rep", no_build)
    code, _, err = run_cli(capsys, "verify", "--inline", CYCLE_E1, "--depth", "3")
    assert code == 1
    assert err == "error: GPCUNTZ_TOL must be a finite positive number, got '0'\n"


def test_nan_parameter_is_refused():
    proc = run_module("classify", "--inline", '{"kind":"cycle","factors":[[NaN,0]]}')
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == "error: vector must have unit norm within 1e-10\n"


def test_diagnostics_rotation_is_decoded_by_the_schema(capsys):
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "1/0")
    assert code == 1
    assert out == ""
    assert err == "error: chain 'rotation' den must be nonzero\n"
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "one/3")
    assert code == 1
    assert err == "error: chain 'rotation' num must be an integer, got 'one'\n"


@pytest.mark.parametrize("param, message", [
    ('{"kind":"chain","rotation":{"num":1.5,"den":3}}',
     "chain 'rotation' num must be an integer, got 1.5"),
    ('{"kind":"chain","rotation":{"num":1,"den":1e400}}',
     "chain 'rotation' den must be an integer, got inf"),
    ('{"kind":"chain","rotation":{"num":NaN,"den":3}}',
     "chain 'rotation' num must be an integer, got nan"),
    ('{"kind":"cycle","N":2.5,"factors":[[1,0]]}', "cycle 'N' must be an integer, got 2.5"),
    ('{"kind":"cycle","N":-1e400,"factors":[[1,0]]}', "cycle 'N' must be an integer, got -inf"),
], ids=["fraction", "overflow", "nan", "cycle-N-fraction", "cycle-N-overflow"])
def test_integer_fields_refuse_non_integral_numbers(capsys, param, message):
    code, out, err = run_cli(capsys, "classify", "--inline", param)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_integer_fields_accept_integral_floats(capsys):
    _, third, _ = run_cli(capsys, "classify", "--inline", ROTATION_THIRD)
    code, out, _ = run_cli(capsys, "classify", "--inline",
                           '{"kind":"chain","rotation":{"num":1.0,"den":3e0}}')
    assert code == 0 and out == third
    code, out, _ = run_cli(capsys, "classify", "--inline",
                           '{"kind":"cycle","N":2.0,"factors":[[[1,0],[0,0]]]}')
    assert code == 0 and out.startswith("verdict: yes")


def run_python(*args, preexec_fn=None):
    # the child process imports gpcuntz from the same tree as this test run,
    # installed or not
    package_root = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=preexec_fn,
    )


def run_module(*argv):
    return run_python("-m", "gpcuntz.cli", *argv)


# runs one query in a fresh interpreter, then reports on stderr whether
# any scipy module was loaded by the time it finished
SCIPY_PROBE = """
import sys
from gpcuntz import cli
code = cli.main(sys.argv[1:])
loaded = any(name == "scipy" or name.startswith("scipy.") for name in sys.modules)
print("scipy loaded:", loaded, file=sys.stderr)
sys.exit(code)
"""


# no subcommand loads scipy; the second column, False in every case, keeps
# the case ids as they were named when rep-build and verify still loaded it
@pytest.mark.parametrize("argv, loads_scipy", [
    (("normalize", "-N", "2", "s1* s1"), False),
    (("state-eval", "--inline", CYCLE_E1, "s1"), False),
    (("classify", "--inline", CYCLE_E1E1), False),
    (("equivalent", "--param", CYCLE_E1, "--other", CHAIN_E2), False),
    (("decompose", "--inline", ROTATION_THIRD), False),
    (("diagnostics", "--rotation", "1/3", "--M", "10", "--target", GRAY_TARGET), False),
    (("car-check", "--n-max", "2"), False),
    (("rep-build", "--inline", CYCLE_E1, "--depth", "2", "-f", "json"), False),
    (("rep-build", "--inline", CYCLE_E1, "--depth", "2", "-f", "matrix-coo"), False),
    (("verify", "--inline", CYCLE_E1, "--depth", "2"), False),
], ids=lambda value: (value[0] + ("-" + value[-1] if value[-2] == "-f" else "")
                      if isinstance(value, tuple) else None))
def test_scipy_sparse_is_loaded_only_to_check_a_rep(argv, loads_scipy):
    proc = run_python("-c", SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == f"scipy loaded: {loads_scipy}"


def _cap_address_space():
    # the child's own limit, as `ulimit -v 2097152` sets it
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


def test_large_rotation_under_a_memory_cap():
    proc = run_python("-m", "gpcuntz.cli", "classify", "--inline", BIG_ROTATION,
                      preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "period: 100000007"
    proc = run_python("-m", "gpcuntz.cli", "decompose", "--inline", BIG_ROTATION,
                      preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stderr == BIG_ROTATION_ERROR


def test_car_check_over_budget_under_a_memory_cap():
    proc = run_python("-m", "gpcuntz.cli", "car-check", "--n-max", "40",
                      preexec_fn=_cap_address_space)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == ("error: car-check would hold 2^40 - 1 generator terms, "
                           "over the budget of 4194304\n")


def test_usage_error_exit_code():
    proc = run_module("no-such-command")
    assert proc.returncode == 2


def test_missing_file_exit_code():
    proc = run_module("classify", "--param", "/nonexistent.json")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
