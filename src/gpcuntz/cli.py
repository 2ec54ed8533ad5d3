"""Command-line front end.

Subcommands: normalize, state-eval, classify, equivalent, decompose,
rep-build, verify, diagnostics, car-check.  Parameters come from a JSON
file (--param) or an inline JSON string (--inline); expressions use the
grammar of `gpcuntz.expressions`.  The environment variable GPCUNTZ_TOL, a
finite positive number, overrides the default tolerance 1e-9.  Exit codes:
0 success, 1 domain error, 2 usage error.  Floats print with shortest
round-trip literals (up to 17 significant digits).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import algebra, expressions, params, reps, states
from .classify import classify, decompose_chain, decompose_cycle, equivalent


def _tolerance() -> float:
    raw = os.environ.get("GPCUNTZ_TOL")
    tol = _number_in(raw, "GPCUNTZ_TOL") if raw else algebra.DEFAULT_TOL
    if not 0.0 < tol < np.inf:
        raise ValueError(f"GPCUNTZ_TOL must be a finite positive number, got {raw!r}")
    return tol


# ----------------------------------------------------------------------
# parameter (de)serialization

def _number_in(entry, field: str, kind=float):
    try:
        value = kind(entry)
    except (TypeError, ValueError, OverflowError):
        value = None
    # int() truncates 1.5 and overflows on inf: an integer field takes a float
    # only when int() keeps it exactly
    if value is None or kind is int and isinstance(entry, float) and value != entry:
        what = "an integer" if kind is int else "a number"
        raise ValueError(f"{field} must be {what}, got {entry!r}")
    return value


def _complex_in(entry, field: str) -> complex:
    if isinstance(entry, (int, float)):
        return complex(entry)
    if isinstance(entry, (list, tuple)) and len(entry) == 2:
        return complex(_number_in(entry[0], field), _number_in(entry[1], field))
    raise ValueError(f"{field}: expected a number or an [re, im] pair, got {entry!r}")


def _vector_in(entry, field: str) -> np.ndarray:
    if not isinstance(entry, (list, tuple)):
        raise ValueError(f"{field} must be a list of entries, got {entry!r}")
    return np.asarray([_complex_in(x, field) for x in entry], dtype=complex)


def _vectors_in(entry, field: str) -> list:
    if not isinstance(entry, (list, tuple)):
        raise ValueError(f"{field} must be a list of vectors, got {entry!r}")
    return [_vector_in(f, f"{field}[{i}]") for i, f in enumerate(entry)]


def param_from_json(obj):
    """Decode the parameter schema into a cycle or chain parameter.

    Malformed input raises ValueError naming the offending field.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError("parameter JSON must be an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "cycle":
        if "factors" not in obj:
            raise ValueError("cycle parameter needs 'factors'")
        z = params.cycle(_vectors_in(obj["factors"], "cycle 'factors'"))
        if "N" in obj and _number_in(obj["N"], "cycle 'N'", int) != z.n:
            raise ValueError(f"declared N={obj['N']} but factors live in C^{z.n}")
        return z
    if kind != "chain":
        raise ValueError(f"unknown parameter kind {kind!r}")
    if "rotation" in obj:
        rot = obj["rotation"]
        if not isinstance(rot, dict):
            raise ValueError(
                f"chain 'rotation' must be an object with keys 'num' and 'den', got {rot!r}"
            )
        for key in ("num", "den"):
            if key not in rot:
                raise ValueError(f"chain 'rotation' is missing key {key!r}")
        num = _number_in(rot["num"], "chain 'rotation' num", int)
        den = _number_in(rot["den"], "chain 'rotation' den", int)
        if den == 0:
            raise ValueError("chain 'rotation' den must be nonzero")
        return params.rotation_chain(Fraction(num, den))
    if "theta" in obj:
        return params.rotation_chain(_number_in(obj["theta"], "chain 'theta'"))
    if obj.get("gray_zone"):
        return params.gray_zone_chain()
    if "prefix" in obj:
        return params.prefix_chain(_vectors_in(obj["prefix"], "chain 'prefix'"))
    if "period" in obj:
        return params.explicit_chain(
            _vectors_in(obj["period"], "chain 'period'"),
            _vectors_in(obj.get("preperiod", []), "chain 'preperiod'"),
        )
    raise ValueError(
        "chain parameter needs one of 'period', 'rotation', 'theta', "
        "'gray_zone' or 'prefix'"
    )


def param_to_json(p) -> dict:
    vec = params.complex_pairs
    if isinstance(p, params.CycleParam):
        return {"kind": "cycle", "N": p.n, "factors": vec(p.rows)}
    if p.kind == "explicit":
        return {"kind": "chain", "N": p.n, "preperiod": vec(p.preperiod), "period": vec(p.period)}
    if p.kind == "rotation":
        if isinstance(p.theta, Fraction):
            return {
                "kind": "chain",
                "rotation": {"num": p.theta.numerator, "den": p.theta.denominator},
            }
        return {"kind": "chain", "theta": p.theta}
    if p.kind == "gray_zone":
        return {"kind": "chain", "gray_zone": True}
    return {"kind": "chain", "prefix": vec(p.prefix)}


def _load_param(source: str):
    text = source.strip()
    if not text.startswith("{"):
        with open(text, "r", encoding="utf-8") as fh:
            text = fh.read()
    return param_from_json(json.loads(text))


def _param_from_args(args):
    if getattr(args, "inline", None):
        return param_from_json(json.loads(args.inline))
    if getattr(args, "param", None):
        return _load_param(args.param)
    raise ValueError("a parameter is required (--param FILE or --inline JSON)")


def _emit(args, payload: dict, text_lines):
    """Print the payload as JSON or the text lines; `text_lines` may be lazy,
    and is not consumed in JSON mode."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


# ----------------------------------------------------------------------
# subcommands

def _cmd_normalize(args) -> int:
    elem = expressions.parse(args.expression, args.rank)
    if args.expand is not None:
        elem = algebra.expand_identity(elem, args.expand)
    text = expressions.format_element(elem)
    _emit(args, {"normal_form": text}, [text])
    return 0


def _cmd_state_eval(args) -> int:
    param = _param_from_args(args)
    elem = expressions.parse(args.expression, param.n)
    value = states.state_eval(param, elem)
    _emit(
        args,
        {"value": [value.real, value.imag]},
        [f"{value.real!r} {value.imag!r}"],
    )
    return 0


def _cmd_classify(args) -> int:
    param = _param_from_args(args)
    report = classify(param, _tolerance())
    payload = report.to_dict()
    lines = [f"verdict: {report.verdict}", f"reason: {report.reason}"]
    if report.power is not None:
        lines.append(f"p: {report.power}")
    if report.period is not None:
        lines.append(f"period: {report.period}")
    if report.analytic_assumption:
        lines.append("analytic assumption: yes")
    _emit(args, payload, lines)
    return 0


def _cmd_equivalent(args) -> int:
    a = _load_param(args.param)
    b = _load_param(args.other)
    result = equivalent(a, b, _tolerance())
    _emit(args, {"equivalent": result}, ["equivalent" if result else "inequivalent"])
    return 0


def _cmd_decompose(args) -> int:
    param = _param_from_args(args)
    # each dict is built once and serves the payload and the text lines
    if isinstance(param, params.CycleParam):
        dicts = [param_to_json(c) for c in decompose_cycle(param, _tolerance())]
        payload = {"components": dicts}
        head = [f"components: {len(dicts)}"]
    else:
        descriptor = decompose_chain(param, _tolerance())
        payload = {"direct_integral": descriptor.to_dict()}
        dicts = [payload["direct_integral"]]
        head = [f"measure: {descriptor.measure}", f"base length: {descriptor.base.k}"]
    lines = itertools.chain(head, (json.dumps(d, sort_keys=True) for d in dicts))
    _emit(args, payload, lines)
    return 0


def _build_rep(args, param):
    if isinstance(param, params.CycleParam):
        if args.window:
            raise ValueError("--window applies to chain parameters only")
        if args.fiber:
            phase_elem = expressions.parse(args.fiber, 2)
            phase = phase_elem.terms.get(((), ()), 0.0)
            if set(phase_elem.terms) - {((), ())}:
                raise ValueError("--fiber must be a scalar expression")
            return reps.build_fiber_rep(param, phase, args.depth)
        return reps.build_cycle_rep(param, args.depth)
    if args.fiber:
        raise ValueError("--fiber applies to cycle parameters only")
    d_minus = args.window[0] if args.window else None
    d_plus = args.window[1] if args.window else None
    return reps.build_chain_rep(param, args.depth, d_minus, d_plus)


def _cmd_rep_build(args) -> int:
    param = _param_from_args(args)
    rep = _build_rep(args, param)
    if args.format == "matrix-coo":
        sys.stdout.write(reps.export_coo(rep))
    else:
        print(json.dumps(reps.export_json(rep), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    tol = _tolerance()
    rep = _build_rep(args, _param_from_args(args))
    report = reps.verify_gp(rep)
    payload = report.to_dict()
    payload["passed"] = report.passed(tol)
    lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
    _emit(args, payload, lines)
    return 0


def _diag_chain(args):
    picked = [
        bool(args.rotation),
        args.theta is not None,
        bool(args.gray_zone),
        bool(args.param or args.inline),
    ]
    if sum(picked) != 1:
        raise ValueError(
            "choose exactly one of --rotation, --theta, --gray-zone, --param/--inline"
        )
    if args.rotation:
        num, _, den = args.rotation.partition("/")
        return param_from_json({"kind": "chain", "rotation": {"num": num, "den": den or "1"}})
    if args.theta is not None:
        return param_from_json({"kind": "chain", "theta": args.theta})
    if args.gray_zone:
        return param_from_json({"kind": "chain", "gray_zone": True})
    chain = _param_from_args(args)
    if not isinstance(chain, params.ChainParam):
        raise ValueError("diagnostics needs a chain parameter")
    return chain


def _cmd_diagnostics(args) -> int:
    chain = _diag_chain(args)
    target = None
    if args.target:
        target = _vector_in(json.loads(args.target), "--target")
    # one pass over the chain factors serves the table and the target sums
    table, target_sums = params._diagnostics(chain, args.p, args.M, target, "--target")
    payload = {"M": args.M, "sums": {}}
    lines = []
    for p in range(1, args.p + 1):
        plain, absolute = table.final(p)
        payload["sums"][str(p)] = {"plain": plain, "abs": absolute}
        lines.append(f"p={p} S={plain!r} S_abs={absolute!r}")
    if target is not None:
        payload["target_sum"] = float(target_sums[-1])
        lines.append(f"target S={float(target_sums[-1])!r}")
    _emit(args, payload, lines)
    return 0


def _cmd_car_check(args) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    # generators 1..n_max hold 2^n_max - 1 terms; past the budget's bit length
    # the power is named, not built
    budget = algebra.EXPAND_BUDGET
    if args.n_max >= budget.bit_length() or 2**args.n_max - 1 > budget:
        raise ValueError(
            f"car-check would hold 2^{args.n_max} - 1 generator terms, "
            f"over the budget of {budget}"
        )
    gens = {n: algebra.car_generator(n) for n in range(1, args.n_max + 1)}
    adjoints = {n: gen.adjoint() for n, gen in gens.items()}
    worst = 0.0
    lines = []
    payload = {"pairs": [], "fock": []}
    for n in range(1, args.n_max + 1):
        for m in range(1, args.n_max + 1):
            a, b, b_star = gens[n], gens[m], adjoints[m]
            mixed = algebra.multiply(a, b_star) + algebra.multiply(b_star, a)
            if n == m:
                mixed = mixed - algebra.identity(2)
            r1 = algebra.leavitt_form(mixed).sup_norm()
            anti = algebra.multiply(a, b) + algebra.multiply(b, a)
            r2 = algebra.leavitt_form(anti).sup_norm()
            worst = max(worst, r1, r2)
            payload["pairs"].append({"n": n, "m": m, "mixed": r1, "anti": r2})
            lines.append(f"n={n} m={m} mixed={r1!r} anti={r2!r}")
    for n in range(1, args.n_max + 1):
        r = states.fock_annihilation_residual(n)
        worst = max(worst, abs(r))
        payload["fock"].append({"n": n, "residual": r})
        lines.append(f"fock n={n} residual={r!r}")
    payload["max_residual"] = worst
    lines.append(f"max residual {worst!r}")
    _emit(args, payload, lines)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpcuntz",
        description="Generalized permutative representation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, choices=("text", "json")):
        p.add_argument("--format", "-f", choices=choices, default="text")

    def add_param(p):
        p.add_argument("--param", help="parameter JSON file (or inline if it starts with '{')")
        p.add_argument("--inline", help="inline parameter JSON")

    def add_truncation(p):
        p.add_argument("--depth", "-D", type=int, default=4)
        p.add_argument("--window", type=int, nargs=2, metavar=("DMINUS", "DPLUS"))
        p.add_argument("--fiber", help="unimodular scalar expression for a fiber twist")

    p = sub.add_parser("normalize", help="parse an expression and print its normal form")
    p.add_argument("-N", "--rank", type=int, required=True)
    p.add_argument("expression")
    p.add_argument("--expand", type=int, default=None,
                   help="also expand to a common sandwich depth")
    add_format(p)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("state-eval", help="evaluate the parameter state on an expression")
    add_param(p)
    p.add_argument("expression")
    add_format(p)
    p.set_defaults(func=_cmd_state_eval)

    p = sub.add_parser("classify", help="irreducibility classification of a parameter")
    add_param(p)
    add_format(p)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("equivalent", help="decide parameter equivalence")
    p.add_argument("--param", required=True)
    p.add_argument("--other", required=True)
    add_format(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("decompose", help="irreducible or direct-integral decomposition")
    add_param(p)
    add_format(p)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("rep-build", help="build and export a truncated representation")
    add_param(p)
    add_truncation(p)
    add_format(p, choices=("json", "matrix-coo"))
    p.set_defaults(func=_cmd_rep_build)

    p = sub.add_parser("verify", help="check the defining relations on a truncation")
    add_param(p)
    add_truncation(p)
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("diagnostics", help="asymptotic periodicity partial sums")
    add_param(p)
    p.add_argument("--rotation", help="rational rotation angle a/b")
    p.add_argument("--theta", type=float, help="float rotation angle in [0,1)")
    p.add_argument("--gray-zone", action="store_true")
    p.add_argument("--p", type=int, default=1, help="largest shift to tabulate")
    p.add_argument("--M", "-M", type=int, default=1000, help="number of summands")
    p.add_argument("--target", help="unit vector JSON for target-overlap sums")
    add_format(p)
    p.set_defaults(func=_cmd_diagnostics)

    p = sub.add_parser("car-check", help="anticommutation and vacuum residuals")
    p.add_argument("--n-max", type=int, default=4)
    add_format(p)
    p.set_defaults(func=_cmd_car_check)

    return parser


_DOMAIN_ERRORS = (
    ValueError,
    algebra.RankMismatchError,
    params.UndecidableError,
    reps.TruncationOverflowError,
    expressions.ExprSyntaxError,
    OSError,
    json.JSONDecodeError,
)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # str(MemoryError()) is empty, so the line is fixed
        print("error: out of memory: the request does not fit in the memory available",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
