"""End-to-end command-line behavior: schemas, formats, exit codes."""

import gc
import itertools
import json
import math
import pathlib
import resource
import sys

import pytest

from gpcuntz import DirectIntegralDescriptor, algebra, cli, expressions, params, reps
from helpers import exhaust_omega_lists, reference_car_residuals, run_python

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
    again = cli.param_from_json(cli._cycle_json(param))
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
    adjoint = algebra.AlgebraElement.adjoint

    def counted(self):
        calls.append(len(self.terms))
        return adjoint(self)

    monkeypatch.setattr(algebra.AlgebraElement, "adjoint", counted)
    code, _, _ = run_cli(capsys, "car-check", "--n-max", "4")
    assert code == 0
    # once per generator: the Fock residuals reuse the pair loop's a_n* a_n
    assert calls == [1, 2, 4, 8]


@pytest.mark.parametrize("fmt, golden", [("text", "car_check_n4.txt"), ("json", "car_check_n4.json")])
def test_car_check_output_is_stable(capsys, fmt, golden):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", "4", "-f", fmt)
    assert code == 0
    assert out == (DATA / golden).read_text()


# written when each Fock residual formed its own a_n* a_n and vacuum state,
# and `multiply` indexed its right factor on every call
@pytest.mark.parametrize("fmt, golden", [("text", "car_check_n6.txt"), ("json", "car_check_n6.json")])
def test_car_check_n6_output_is_byte_identical(capsys, fmt, golden):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", "6", "-f", fmt)
    assert code == 0
    assert out == (DATA / golden).read_text()


def _car_check_json(capsys, n_max):
    code, out, _ = run_cli(capsys, "car-check", "--n-max", str(n_max), "-f", "json")
    assert code == 0
    return json.loads(out)


def _bits(rows) -> str:
    # repr keeps a float's every bit, and its sign of zero
    return json.dumps(rows, sort_keys=True)


@pytest.mark.parametrize("n_max", range(1, 9))
def test_car_check_matches_the_loop_over_ordered_pairs(capsys, n_max):
    out = _car_check_json(capsys, n_max)
    ref = reference_car_residuals([algebra.car_generator(n) for n in range(1, n_max + 1)])
    assert _bits(out["pairs"]) == _bits(ref["pairs"])
    assert _bits(out["fock"]) == _bits(ref["fock"])


def test_car_check_reports_a_broken_generator_in_both_orders(capsys, monkeypatch):
    # a dyadic term keeps every coefficient exact; the residuals of a pair and
    # of its transpose, formed once, must still match the loop that forms each
    car = algebra.car_generator
    broken = car(3) + algebra.word_element(2, (1,), (1,), 0.5)

    def perturbed(n):
        return broken if n == 3 else car(n)

    monkeypatch.setattr(algebra, "car_generator", perturbed)
    out = _car_check_json(capsys, 5)
    ref = reference_car_residuals([perturbed(n) for n in range(1, 6)])
    assert _bits(out["pairs"]) == _bits(ref["pairs"])
    assert _bits(out["fock"]) == _bits(ref["fock"])
    for row in out["pairs"]:
        touched = 3 in (row["n"], row["m"])
        assert (max(row["mixed"], row["anti"]) > 0) == touched, row
    assert out["max_residual"] > 0


@pytest.mark.parametrize("n_max, products, forms", [(1, 3, 2), (2, 10, 6), (6, 78, 42)])
def test_car_check_forms_each_unordered_pair_once(capsys, monkeypatch, n_max, products, forms):
    counts = {"multiply": 0, "leavitt_form": 0}
    for name in counts:
        def counted(*args, _name=name, _call=getattr(algebra, name)):
            counts[_name] += 1
            return _call(*args)

        monkeypatch.setattr(algebra, name, counted)
    _car_check_json(capsys, n_max)
    # 2 n^2 + n products and n^2 + n Leavitt forms
    assert counts == {"multiply": products, "leavitt_form": forms}


@pytest.mark.parametrize("n_max", ["23", "40", str(10**9)])
def test_car_check_over_budget_is_refused_before_generating(capsys, monkeypatch, n_max):
    def no_generators(_):
        raise AssertionError("a CAR generator was built for a refused request")

    monkeypatch.setattr(algebra, "car_generator", no_generators)
    code, out, err = run_cli(capsys, "car-check", "--n-max", n_max)
    assert code == 1
    assert out == ""
    # generators 1..22 hold 2^22 - 1 terms, the last count within the budget
    assert err == (f"error: car-check would hold 2^{n_max} - 1 generator terms, "
                   "over the budget of 4194304\n")


def test_car_check_budget_charges_every_generator(capsys, monkeypatch):
    monkeypatch.setattr(algebra, "EXPAND_BUDGET", 14)
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
    # the real list build of omega's held entries, with a tolist that runs
    # out of memory
    exhaust_omega_lists(monkeypatch)
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


@pytest.mark.parametrize("enabled", [True, False])
def test_rep_build_out_of_memory_in_the_json_build_prints_one_error_line(
        capsys, monkeypatch, enabled):
    def exhausted(_rep):
        raise MemoryError

    # raised with the generators' lists built under the export's one pause
    monkeypatch.setattr(reps, "_omega", exhausted)
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

    monkeypatch.setattr(params, "chain_factors", no_factors)
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "1/3", "--M", "1000000000000",
                             "--target", GRAY_TARGET)
    assert code == 1
    assert out == ""
    assert err.startswith("error: diagnostics would generate 1000000000001 factors, over the budget")


def test_diagnostics_target_shares_one_factor_pass(capsys, monkeypatch):
    calls = []
    generate = params.chain_factors

    def counted(chain, start, count):
        calls.append((start, count))
        return generate(chain, start, count)

    monkeypatch.setattr(params, "chain_factors", counted)
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

    monkeypatch.setattr(reps, "_branch_words", no_family)
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


@pytest.mark.parametrize("target", ["[[1,0],[1,0]]", "[[0.5,0],[0,0]]", "[[NaN,0],[0,0]]"])
def test_diagnostics_target_off_the_unit_sphere_is_named(capsys, target):
    code, out, err = run_cli(capsys, "diagnostics", "--gray-zone", "--p", "1", "--M", "10",
                             "--target", target)
    assert code == 1
    assert out == ""
    assert err == "error: --target must have unit norm within 1e-10\n"


@pytest.mark.parametrize("value", ["0", "-2"])
@pytest.mark.parametrize("flag", ["--p", "--M"])
def test_diagnostics_count_below_one_is_named(capsys, flag, value):
    code, out, err = run_cli(capsys, "diagnostics", "--rotation", "1/3", flag, value)
    assert code == 1
    assert out == ""
    assert err == f"error: {flag} must be >= 1\n"


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
    assert len(expressions.parse(STATE_EVAL_ELEMENT, 2).terms) == 6561
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


@pytest.mark.parametrize("param", [
    *(DECISION_PARAMS[stem] for stem in sorted(DECISION_PARAMS) if stem.startswith("cycle")),
    # e_1^(x4), and (e_1, i e_2)^(x4): permutative roots of p = 4
    _cycle(*["[[1,0],[0,0]]"] * 4),
    _cycle(*["[[1,0],[0,0]]", "[[0,0],[0,1]]"] * 4),
], ids=[*(stem for stem in sorted(DECISION_PARAMS) if stem.startswith("cycle")),
        "e1_p4", "permutative_p4"])
def test_decomposed_components_classify_irreducible_and_pairwise_inequivalent(capsys, param):
    code, out, _ = run_cli(capsys, "decompose", "--inline", param, "-f", "json")
    assert code == 0
    components = [json.dumps(c) for c in json.loads(out)["components"]]
    assert len(components) >= 2
    for component in components:
        code, out, _ = run_cli(capsys, "classify", "--inline", component)
        assert (code, out.splitlines()[0]) == (0, "verdict: yes")
    for a, b in itertools.combinations(components, 2):
        code, out, _ = run_cli(capsys, "equivalent", "--param", a, "--other", b)
        assert (code, out) == (0, "inequivalent\n")


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("stem", sorted(EQUIVALENT_PAIRS))
def test_equivalent_output_is_stable(capsys, stem, fmt, ext):
    a, b = EQUIVALENT_PAIRS[stem]
    code, out, _ = run_cli(capsys, "equivalent", "--param", a, "--other", b, "-f", fmt)
    assert code == 0
    assert out == (DATA / f"equivalent_{stem}.{ext}").read_text()


def test_classify_states_the_analytic_assumption(capsys):
    # an irrational rotation is decided under the analytic assumption
    code, out, _ = run_cli(capsys, "classify", "--inline", '{"kind":"chain","theta":0.1}')
    assert code == 0
    assert out == (DATA / "classify_chain_theta.txt").read_text()


BIG_ROTATION = '{"kind":"chain","rotation":{"num":1,"den":100000007}}'
BIG_ROTATION_ERROR = ("error: the period block of rotation 1/100000007 would generate "
                      "100000007 factors, over the budget of 8388608\n")


def _no_factors(*_):
    raise AssertionError("chain factors were generated")


def test_large_rotation_is_classified_in_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(params, "chain_factors", _no_factors)
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
    monkeypatch.setattr(params, "chain_factors", _no_factors)
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == error


@pytest.mark.parametrize("fmt, ext", [("text", "txt"), ("json", "json")])
@pytest.mark.parametrize("stem", ["rotation_3_8", "cycle_p2_n2"])
def test_decompose_serializes_each_dict_once(capsys, monkeypatch, stem, fmt, ext):
    calls = {"to_dict": 0, "_cycle_json": 0, "dumps": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(DirectIntegralDescriptor, "to_dict",
                        counted("to_dict", DirectIntegralDescriptor.to_dict))
    monkeypatch.setattr(cli, "_cycle_json", counted("_cycle_json", cli._cycle_json))
    monkeypatch.setattr(cli.json, "dumps", counted("dumps", cli.json.dumps))
    code, out, _ = run_cli(capsys, "decompose", "--inline", DECISION_PARAMS[stem], "-f", fmt)
    assert code == 0
    assert out == (DATA / f"decompose_{stem}.{ext}").read_text()
    dicts = calls["to_dict"] + calls["_cycle_json"]
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

    monkeypatch.setattr(reps, "build_cycle_rep", no_build)
    code, _, err = run_cli(capsys, "verify", "--inline", CYCLE_E1, "--depth", "3")
    assert code == 1
    assert err == "error: GPCUNTZ_TOL must be a finite positive number, got '0'\n"


def test_truncation_overflow_prints_one_error_line(capsys, monkeypatch):
    # a ValueError that is also a RuntimeError
    def overflow(_rep):
        raise reps.TruncationOverflowError("support escaped the exact interior; enlarge the depth")

    monkeypatch.setattr(reps, "verify_gp", overflow)
    code, out, err = run_cli(capsys, "verify", "--inline", CYCLE_E1, "--depth", "2")
    assert code == 1
    assert out == ""
    assert err == "error: support escaped the exact interior; enlarge the depth\n"


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


# one small query per subcommand, with the package modules it runs: each
# query must load these and no other module of the package
ONE_QUERY_EACH = [
    (("normalize", "-N", "2", "s1* s1"), {"_policy", "algebra", "expressions"}),
    (("state-eval", "--inline", CYCLE_E1, "s1"),
     {"_policy", "algebra", "expressions", "params", "states"}),
    (("classify", "--inline", CYCLE_E1E1), {"_policy", "params", "decisions"}),
    (("equivalent", "--param", CYCLE_E1, "--other", CHAIN_E2), {"_policy", "params", "decisions"}),
    (("decompose", "--inline", ROTATION_THIRD), {"_policy", "params", "decisions"}),
    (("diagnostics", "--rotation", "1/3", "--M", "10", "--target", GRAY_TARGET),
     {"_policy", "params"}),
    (("car-check", "--n-max", "2"), {"_policy", "algebra"}),
    (("rep-build", "--inline", CYCLE_E1, "--depth", "2", "-f", "json"),
     {"_policy", "params", "reps"}),
    (("rep-build", "--inline", CYCLE_E1, "--depth", "2", "-f", "matrix-coo"),
     {"_policy", "params", "reps"}),
    (("verify", "--inline", CYCLE_E1, "--depth", "2"), {"_policy", "params", "reps"}),
]


def _query_id(argv):
    return argv[0] + ("-" + argv[-1] if argv[-2] == "-f" else "")


# no subcommand loads scipy; the second column, False in every case, keeps
# the case ids as they were named when rep-build and verify still loaded it
@pytest.mark.parametrize("argv, loads_scipy", [(argv, False) for argv, _ in ONE_QUERY_EACH],
                         ids=lambda value: _query_id(value) if isinstance(value, tuple) else None)
def test_scipy_sparse_is_loaded_only_to_check_a_rep(argv, loads_scipy):
    proc = run_python("-c", SCIPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    assert proc.stderr.splitlines()[-1] == f"scipy loaded: {loads_scipy}"


# runs the CLI module as `python -m gpcuntz.cli` does, then writes on stderr
# the modules loaded by the time it exits; -X importtime would not do, as it
# leaves out submodules loaded by `from . import name`
MODULES_PROBE = """
import runpy, sys
try:
    runpy.run_module("gpcuntz.cli", run_name="__main__", alter_sys=True)
finally:
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules", ONE_QUERY_EACH,
                         ids=[_query_id(argv) for argv, _ in ONE_QUERY_EACH])
def test_each_subcommand_loads_only_the_modules_it_runs(argv, modules):
    proc = run_python("-c", MODULES_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
    loaded = proc.stderr.splitlines()[-1].split()
    assert {name for name in loaded if name.startswith("gpcuntz.")} == {
        f"gpcuntz.{module}" for module in modules}
    assert not [name for name in loaded if name == "scipy" or name.startswith("scipy.")]
    # the records are plain classes
    assert "dataclasses" not in loaded
    if argv[0] in ("normalize", "car-check"):
        # the word layer and the parser import nothing outside the standard
        # library, and of it neither `inspect` (numpy loads it) nor `fractions`
        assert not [name for name in loaded if name == "numpy" or name.startswith("numpy.")]
        assert not {"inspect", "fractions"} & set(loaded)


# runs the CLI module as `python -m gpcuntz.cli` does, with every import of
# numpy raising ImportError
NUMPY_BLOCKED = """
import runpy, sys
sys.modules["numpy"] = None
runpy.run_module("gpcuntz.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("argv", [
    ("normalize", "-N", "2", "--expand", "2", "s1 s1* + s2 s2* - 2 s1* s2 + 0.5 i s2 s1*"),
    ("car-check", "--n-max", "5"),
], ids=lambda argv: argv[0])
def test_word_subcommands_answer_without_numpy(argv, fmt):
    blocked = run_python("-c", NUMPY_BLOCKED, *argv, "-f", fmt)
    plain = run_module(*argv, "-f", fmt)
    assert blocked.returncode == plain.returncode == 0, blocked.stderr
    assert blocked.stderr == plain.stderr == ""
    assert blocked.stdout and blocked.stdout == plain.stdout


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


def _exit_and_output(capsys, argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_main_builds_its_parser_once_and_answers_as_a_fresh_parser(capsys, monkeypatch):
    queries = [
        ["normalize", "-N", "2", "s1* s1"],
        ["verify", "--inline", ROTATION_THIRD, "--depth", "2", "--window", "1", "2"],
        ["normalize", "-N", "two", "s1"],
        ["verify", "--inline", ROTATION_THIRD, "--depth", "2", "-f", "json"],
        ["car-check", "--n-max", "2", "-f", "json"],
        ["rep-build", "--inline", CYCLE_E1, "--depth", "2", "--fiber", "-1"],
        ["diagnostics", "--rotation", "1/3", "--M", "10"],
        ["car-check", "--n-max", "-f"],
        ["normalize", "-N", "2", "s1* s1"],
    ]
    # each query's answer when main builds a fresh parser for it
    expected = []
    for argv in queries:
        cli._parser.cache_clear()
        expected.append(_exit_and_output(capsys, argv))
    assert [code for code, _out, _err in expected] == [0, 0, 2, 0, 0, 0, 0, 2, 0]
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    cli._parser.cache_clear()
    assert [_exit_and_output(capsys, argv) for argv in queries] == expected
    assert len(built) == 1
    assert cli.build_parser() is not cli.build_parser()


def test_missing_file_exit_code():
    proc = run_module("classify", "--param", "/nonexistent.json")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
