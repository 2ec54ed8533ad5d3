"""Command-line front end.

Subcommands: normalize, state-eval, classify, equivalent, decompose,
rep-build, verify, diagnostics, car-check.  Parameters come from a JSON
file (--param) or an inline JSON string (--inline); expressions use the
grammar of `gpcuntz.expressions`.  The environment variable GPCUNTZ_TOL, a
finite positive number, overrides the default tolerance 1e-9.  Exit codes:
0 success, 1 domain error, 2 usage error; every domain error is a
ValueError or an OSError, reps.TruncationOverflowError included.  Floats
print with shortest round-trip literals (up to 17 significant digits).

Each handler imports the modules it runs when it is called, so a process
compiles and imports only what its subcommand needs: `normalize` loads
`expressions` and the word layer `algebra`, `car-check` only `algebra`, and
neither imports numpy; the numeric subcommands load the tolerance policy
`_policy` but not `algebra`, which only `state-eval` of them runs;
`classify`, `equivalent` and `decompose` load `params` and `decisions` but
not `reps`; only `rep-build` and `verify` load `reps`.  `cli` itself
imports no numpy, and no subcommand loads scipy.  The package's records
are plain classes, so no subcommand loads `dataclasses` (nor `copy`), and
`fractions` is imported where a rotation is read: `normalize` and
`car-check` load neither `inspect` (with `ast`, `dis` and `tokenize`),
`fractions` nor `decimal`.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys


def _tolerance() -> float:
    from ._policy import DEFAULT_TOL

    raw = os.environ.get("GPCUNTZ_TOL")
    tol = _number_in(raw, "GPCUNTZ_TOL") if raw else DEFAULT_TOL
    if not 0.0 < tol < math.inf:
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


def _vector_in(entry, field: str) -> list:
    if not isinstance(entry, (list, tuple)):
        raise ValueError(f"{field} must be a list of entries, got {entry!r}")
    return [_complex_in(x, field) for x in entry]


def _vectors_in(entry, field: str) -> list:
    if not isinstance(entry, (list, tuple)):
        raise ValueError(f"{field} must be a list of vectors, got {entry!r}")
    return [_vector_in(f, f"{field}[{i}]") for i, f in enumerate(entry)]


def param_from_json(obj):
    """Decode the parameter schema into a cycle or chain parameter.

    Malformed input raises ValueError naming the offending field.
    """
    from . import params

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
        from fractions import Fraction

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


def _cycle_json(z) -> dict:
    from . import params

    return {"kind": "cycle", "N": z.n, "factors": params.complex_pairs(z.rows)}


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
    from . import algebra, expressions

    elem = expressions.parse(args.expression, args.rank)
    if args.expand is not None:
        elem = algebra.expand_identity(elem, args.expand)
    text = expressions.format_element(elem)
    _emit(args, {"normal_form": text}, [text])
    return 0


def _cmd_state_eval(args) -> int:
    from . import expressions, states

    param = _param_from_args(args)
    elem = expressions.parse(args.expression, param.n)
    value = states.state_eval(param, elem)
    # + 0.0 prints every zero part as 0.0
    re, im = value.real + 0.0, value.imag + 0.0
    _emit(args, {"value": [re, im]}, [f"{re!r} {im!r}"])
    return 0


def _cmd_classify(args) -> int:
    from .decisions import classify

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
    from .decisions import equivalent

    a = _load_param(args.param)
    b = _load_param(args.other)
    result = equivalent(a, b, _tolerance())
    _emit(args, {"equivalent": result}, ["equivalent" if result else "inequivalent"])
    return 0


def _cmd_decompose(args) -> int:
    from . import params
    from .decisions import decompose_chain, decompose_cycle

    param = _param_from_args(args)
    # each dict is built once and serves the payload and the text lines
    if isinstance(param, params.CycleParam):
        dicts = [_cycle_json(c) for c in decompose_cycle(param, _tolerance())]
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
    from . import params, reps

    if isinstance(param, params.CycleParam):
        if args.window:
            raise ValueError("--window applies to chain parameters only")
        if args.fiber:
            from . import expressions

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
    from . import reps

    param = _param_from_args(args)
    rep = _build_rep(args, param)
    if args.format == "matrix-coo":
        sys.stdout.write(reps.export_coo(rep))
    else:
        print(json.dumps(reps.export_json(rep), sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    from . import reps

    tol = _tolerance()
    rep = _build_rep(args, _param_from_args(args))
    report = reps.verify_gp(rep)
    payload = report.to_dict()
    payload["passed"] = report.passed(tol)
    lines = [f"{key}: {value}" for key, value in sorted(payload.items())]
    _emit(args, payload, lines)
    return 0


def _diag_chain(args):
    from . import params

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
    from . import params

    for flag, value in (("--p", args.p), ("--M", args.M)):
        if value < 1:
            raise ValueError(f"{flag} must be >= 1")
    chain = _diag_chain(args)
    target = None
    if args.target:
        target = _vector_in(json.loads(args.target), "--target")
    # one pass over the chain factors serves every column; of each chunk
    # only the totals at its end are kept
    for _, sums in params._diagnostic_chunks(chain, args.p, args.M, target, "--target"):
        totals = [float(s[-1]) for s in sums]
    payload = {"M": args.M, "sums": {}}
    lines = []
    for p, plain, absolute in zip(range(1, args.p + 1), totals, totals[args.p:]):
        payload["sums"][str(p)] = {"plain": plain, "abs": absolute}
        lines.append(f"p={p} S={plain!r} S_abs={absolute!r}")
    if target is not None:
        payload["target_sum"] = totals[-1]
        lines.append(f"target S={totals[-1]!r}")
    _emit(args, payload, lines)
    return 0


def _cmd_car_check(args) -> int:
    from . import algebra

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

    def residual(x):
        return algebra.leavitt_form(x).sup_norm()

    def vacuum(x):
        value = algebra._fock_vacuum(x)
        if not abs(value.imag) <= algebra.PRUNE_TOL:
            raise AssertionError("residual unexpectedly non-real")
        return float(value.real)

    # (mixed, anti) residuals of each pair (n, m), formed once for n <= m and
    # stored under (m, n) too: {a_m, a_n} is {a_n, a_m}, and {a_m, a_n*} is the
    # adjoint of {a_n, a_m*}; leavitt_form commutes with the adjoint, which
    # keeps every coefficient's modulus.  Every generator coefficient is +-1,
    # so every product and sum is a small integer, computed exactly in any
    # order, and the output is byte-identical to a loop over ordered pairs
    residuals = {}
    # a_n* a_n in the Fock vacuum, which every a_n annihilates, for n = 1, 2, ...
    fock = []
    for n in range(1, args.n_max + 1):
        a, a_star = gens[n], adjoints[n]
        square = algebra.multiply(a_star, a)
        fock.append(vacuum(square))
        mixed = algebra.multiply(a, a_star) + square - algebra.identity(2)
        p = algebra.multiply(a, a)
        residuals[n, n] = (residual(mixed), residual(p + p))
        for m in range(n + 1, args.n_max + 1):
            b, b_star = gens[m], adjoints[m]
            mixed = algebra.multiply(a, b_star) + algebra.multiply(b_star, a)
            anti = algebra.multiply(a, b) + algebra.multiply(b, a)
            residuals[n, m] = residuals[m, n] = (residual(mixed), residual(anti))
    worst = 0.0
    lines = []
    payload = {"pairs": [], "fock": []}
    for (n, m), (r1, r2) in sorted(residuals.items()):
        worst = max(worst, r1, r2)
        payload["pairs"].append({"n": n, "m": m, "mixed": r1, "anti": r2})
        lines.append(f"n={n} m={m} mixed={r1!r} anti={r2!r}")
    for n, r in enumerate(fock, start=1):
        worst = max(worst, abs(r))
        payload["fock"].append({"n": n, "residual": r})
        lines.append(f"fock n={n} residual={r!r}")
    payload["max_residual"] = worst
    lines.append(f"max residual {worst!r}")
    _emit(args, payload, lines)
    return 0


# ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the command line.  `main` runs subcommand `name`
    by the handler `_cmd_<name>`, its dashes written as underscores."""
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

    p = sub.add_parser("state-eval", help="evaluate the parameter state on an expression")
    add_param(p)
    p.add_argument("expression")
    add_format(p)

    p = sub.add_parser("classify", help="irreducibility classification of a parameter")
    add_param(p)
    add_format(p)

    p = sub.add_parser("equivalent", help="decide parameter equivalence")
    p.add_argument("--param", required=True)
    p.add_argument("--other", required=True)
    add_format(p)

    p = sub.add_parser("decompose", help="irreducible or direct-integral decomposition")
    add_param(p)
    add_format(p)

    p = sub.add_parser("rep-build", help="build and export a truncated representation")
    add_param(p)
    add_truncation(p)
    add_format(p, choices=("json", "matrix-coo"))

    p = sub.add_parser("verify", help="check the defining relations on a truncation")
    add_param(p)
    add_truncation(p)
    add_format(p)

    p = sub.add_parser("diagnostics", help="asymptotic periodicity partial sums")
    add_param(p)
    p.add_argument("--rotation", help="rational rotation angle a/b")
    p.add_argument("--theta", type=float, help="float rotation angle in [0,1)")
    p.add_argument("--gray-zone", action="store_true")
    p.add_argument("--p", type=int, default=1, help="largest shift to tabulate")
    p.add_argument("--M", "-M", type=int, default=1000, help="number of summands")
    p.add_argument("--target", help="unit vector JSON for target-overlap sums")
    add_format(p)

    p = sub.add_parser("car-check", help="anticommutation and vacuum residuals")
    p.add_argument("--n-max", type=int, default=4)
    add_format(p)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` reads, built once per process: parse_args keeps no
    state between calls, and building the tree takes about a millisecond."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the handler is looked up when called, so one replaced at run time runs
    handler = globals()["_cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # str(MemoryError()) is empty, so the line is fixed
        print("error: out of memory: the request does not fit in the memory available",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
