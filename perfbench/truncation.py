"""truncation: the numeric layers (reps, params, classify), no algebra.

Each job builds an N=2 k=3 cycle rep at depth 13, an N=3 k=2 rep at depth
7 and a chain rep (rotation, gray-zone or explicit, in turn) at depth 9,
verifies and exports all three, runs asymptotic diagnostics with M in
[5e4, 1e5] on a rotation or gray-zone chain, decides periodicity and a
cyclic equivalence, and classifies, decomposes and eigenchecks a p-fold
tensor power.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

import calls
import gpcuntz as g
from inputs import coprime_rotation, rng_for, spread, unit_vectors
from oracle import cycle_nnz_bounds, expect

CYCLE_REPS = ((2, 3, 13), (3, 2, 7))   # (N, k, depth)
CHAIN_DEPTH = 9
CHAIN_KINDS = ("rotation", "gray_zone", "explicit")
DIAG_KINDS = ("rotation", "gray_zone")
DIAG_P = 2
TOL = 1e-9


def _chain(kind, rng):
    if kind == "rotation":
        a, b = coprime_rotation(rng)
        return g.rotation_chain(Fraction(a, b))
    if kind == "gray_zone":
        return g.gray_zone_chain()
    return g.explicit_chain(unit_vectors(rng, int(rng.integers(2, 4)), 2), unit_vectors(rng, 1, 2))


def make(seed, index):
    rng = rng_for(seed, index)
    cycles = [(g.cycle(unit_vectors(rng, k, n)), depth) for n, k, depth in CYCLE_REPS]
    base = g.cycle(unit_vectors(rng, int(rng.integers(1, 3)), 2))
    power = int(rng.integers(2, 4))
    shift = int(rng.integers(1, 3))
    z = cycles[0][0]
    return {
        "cycles": cycles,
        "rotated": g.cycle(z.factors[shift:] + z.factors[:shift]),
        "chain": _chain(CHAIN_KINDS[index % 3], rng),
        "diag_chain": _chain(DIAG_KINDS[index % 2], rng),
        "M": 50_000 + int(50_000 * spread(index)),
        "base": base,
        "p": power,
        "power": g.CycleParam(base.factors * power),
    }


def job(rec, inp):
    reps = [calls.build(rec, g.build_fiber_rep, z, 1, depth) for z, depth in inp["cycles"]]
    reps.append(calls.build(rec, g.build_chain_rep, inp["chain"], CHAIN_DEPTH))
    out = {"reps": reps, "reports": [], "coo": [], "json": []}
    for rep in reps:
        out["reports"].append(calls.verify(rec, rep))
        out["coo"].append(calls.export(rec, g.export_coo, rep))
        out["json"].append(calls.export(rec, g.export_json, rep))
    out["table"] = calls.diagnostics(rec, inp["diag_chain"], DIAG_P, inp["M"])
    out["periodic"] = calls.decide(rec, g.is_eventually_periodic, inp["chain"])
    out["equivalent"] = calls.decide(rec, g.cycles_equivalent, inp["cycles"][0][0], inp["rotated"])
    out["verdict"] = calls.decision(rec, g.classify, inp["power"])
    out["components"] = calls.decision(rec, g.decompose_cycle, inp["power"])
    out["eigenvalues"] = calls.decision(rec, g.numeric_cycle_eigencheck, inp["base"], inp["p"])
    return out


def _is_e1(f):
    return f[0] == 1.0 and f[1] == 0.0


def nnz_bounds(inp):
    """(low, high) nonzeros per generator of each rep, from N, k and the depth.

    Rotation factors at angle 0 are exactly e_1 and complete to the
    identity; layers -D+1..0 of a chain step with the identity too.
    """
    out = [cycle_nnz_bounds(z.n, z.k, depth) for z, depth in inp["cycles"]]
    chain, inner = inp["chain"], 2 ** (CHAIN_DEPTH - 1)
    rows = sum(1 if _is_e1(g.chain_factor(chain, t)) else 2 for t in range(1, CHAIN_DEPTH + 1))
    out.append([((CHAIN_DEPTH + rows) * inner,) * 2] * 2)
    return out


def _check_reps(rec, inp, out):
    dims = [z.k * z.n ** depth for z, depth in inp["cycles"]]
    dims.append((2 * CHAIN_DEPTH + 1) * 2 ** CHAIN_DEPTH)
    for rep, report, dim, bounds, exported, coo in zip(
        out["reps"], out["reports"], dims, nnz_bounds(inp), out["json"], out["coo"]
    ):
        expect(report.passed(TOL), "reps", f"verify_gp failed: {report.max_residual()!r}")
        expect(rep.dim == dim, "reps", f"dim {rep.dim} != {dim}")
        expect(all(lo <= m.nnz <= hi for m, (lo, hi) in zip(rep.gens, bounds)),
               "reps", f"nnz {[m.nnz for m in rep.gens]} outside {bounds}")
        expect(exported["dim"] == dim and len(exported["labels"]) == dim, "reps", "export dim")
        for mat, gen in zip(rep.gens, exported["generators"]):
            values = np.array(gen["values"], dtype=float).reshape(-1, 2) @ [1, 1j]
            rebuilt = sp.csc_array((values, (gen["rows"], gen["cols"])), shape=(dim, dim))
            expect(abs(rebuilt - mat).max() == 0, "reps", "export_json does not rebuild S_i")
        if rec.enabled:
            rec.add("reps.export.bytes", len(coo) + len(json.dumps(exported, sort_keys=True)))


def _check_diagnostics(inp, table):
    chain, m = inp["diag_chain"], inp["M"]
    if chain.kind == "rotation":
        for p in range(1, DIAG_P + 1):
            closed = 2 * m * math.sin(math.pi * p * float(chain.theta)) ** 2
            expect(abs(table.final(p)[0] - closed) < 1e-12 * m,
                   "params", f"S({p}) != 2M sin^2(pi p theta)")
    else:
        odd = np.diff(table.plain[1], prepend=0.0)[0::2]
        expect(np.max(np.abs(odd - 1.0 / np.arange(1, odd.size + 1) ** 2)) < 1e-12,
               "params", "gray-zone odd summands != 1/n^2")


def check(rec, inp, out):
    _check_reps(rec, inp, out)
    _check_diagnostics(inp, out["table"])

    chain, periodic = inp["chain"], out["periodic"]
    if chain.kind == "gray_zone":
        expect(periodic.eventually_periodic is False, "params", "gray zone judged periodic")
    else:
        period = (chain.theta.denominator // math.gcd(chain.theta.denominator, 2)
                  if chain.kind == "rotation" else len(chain.period))
        expect(periodic.eventually_periodic and periodic.period == period,
               "params", f"period {periodic.period} != {period}")
    expect(out["equivalent"], "params", "cycle not equivalent to its rotation")

    p = inp["p"]
    verdict = out["verdict"]
    expect(verdict.verdict == "no" and verdict.power == p, "classify", "power not detected")
    expect(len(out["components"]) == p, "classify", "wrong component count")
    roots = np.exp(2j * np.pi * np.arange(p) / p)
    expect(np.max(np.abs(out["eigenvalues"] - roots)) < TOL, "classify",
           "eigenvalues are not the p-th roots of unity")
