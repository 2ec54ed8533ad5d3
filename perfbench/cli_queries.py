"""cli-queries: one `python -m gpcuntz.cli ... -f json` query per job.

Queries go round-robin over the nine subcommands on small inputs: N=2/3
cycles of at most 4 factors, rotations a/b with b in 3..8, depth <= 6,
M <= 1e3 and car-check --n-max <= 3.  This module uses only the standard
library, so the client process stays small.
"""

from __future__ import annotations

import json
import math
import random

from oracle import cycle_nnz_bounds, expect

SUBCOMMANDS = (
    "normalize", "state-eval", "classify", "equivalent", "decompose",
    "rep-build", "verify", "diagnostics", "car-check",
)
TOL = 1e-9


def _unit(rng, n):
    v = [complex(rng.gauss(0, 1), rng.gauss(0, 1)) for _ in range(n)]
    norm = math.sqrt(sum(abs(c) ** 2 for c in v))
    return [c / norm for c in v]


def _cycle_json(factors):
    return json.dumps({
        "kind": "cycle",
        "N": len(factors[0]),
        "factors": [[[c.real, c.imag] for c in f] for f in factors],
    })


def _rotation(rng):
    b = rng.randint(3, 8)
    return rng.choice([a for a in range(1, b) if math.gcd(a, b) == 1]), b


def _letters(rng, n, lo, hi):
    return [rng.randint(1, n) for _ in range(rng.randint(lo, hi))]


def _text(c):
    sign = "-" if c.imag < 0 else "+"
    return f"({c.real!r} {sign} {abs(c.imag)!r} i)"


def make(seed, index):
    """Query `index` of a run: its argv (after `-m gpcuntz.cli`) and what it must return."""
    rng = random.Random(f"{seed}:{index}")
    sub = SUBCOMMANDS[index % len(SUBCOMMANDS)]
    n = rng.choice((2, 3))
    if sub == "normalize":
        j, k, l = _letters(rng, n, 1, 2), _letters(rng, n, 0, 2), _letters(rng, n, 0, 2)
        words = ([f"s{x}*" for x in reversed(j)] + [f"s{x}" for x in j]
                 + [f"s{x}" for x in k] + [f"s{x}*" for x in reversed(l)])
        expected = " ".join([f"s{x}" for x in k] + [f"s{x}*" for x in reversed(l)]) or "I"
        return {"sub": sub, "argv": [sub, "-N", str(n), " ".join(words)], "normal_form": expected}
    if sub == "state-eval":
        z = [_unit(rng, n) for _ in range(rng.randint(1, 4))]
        text = "".join(
            "(" + " + ".join(f"{_text(c)} s{i}" for i, c in enumerate(f, start=1)) + ")" for f in z
        )
        return {"sub": sub, "argv": [sub, "--inline", _cycle_json(z), text]}
    if sub in ("classify", "decompose"):
        base = [_unit(rng, n) for _ in range(rng.randint(1, 2))]
        p = rng.randint(2, 4) if len(base) == 1 else 2
        return {"sub": sub, "argv": [sub, "--inline", _cycle_json(base * p)], "p": p}
    if sub == "equivalent":
        z = [_unit(rng, n) for _ in range(rng.randint(2, 4))]
        if rng.random() < 0.5:
            shift = rng.randint(1, len(z) - 1)
            other, same = z[shift:] + z[:shift], True
        else:
            bumped = [z[0][0] + 1e-3] + z[0][1:]
            norm = math.sqrt(sum(abs(c) ** 2 for c in bumped))
            other, same = [[c / norm for c in bumped]] + z[1:], False
        return {"sub": sub, "argv": [sub, "--param", _cycle_json(z), "--other", _cycle_json(other)],
                "equivalent": same}
    if sub in ("rep-build", "verify"):
        k = rng.randint(1, 3)
        depth = rng.randint(k + 1, 6 if n == 2 else 4)
        z = [_unit(rng, n) for _ in range(k)]
        return {"sub": sub, "argv": [sub, "--inline", _cycle_json(z), "--depth", str(depth)],
                "dim": k * n ** depth, "nnz": cycle_nnz_bounds(n, k, depth)}
    if sub == "diagnostics":
        a, b = _rotation(rng)
        p, m = rng.randint(1, 3), rng.randint(100, 1000)
        return {"sub": sub, "argv": [sub, "--rotation", f"{a}/{b}", "--p", str(p), "--M", str(m)],
                "sums": {str(q): 2 * m * math.sin(math.pi * q * a / b) ** 2 for q in range(1, p + 1)},
                "M": m}
    return {"sub": sub, "argv": [sub, "--n-max", str(rng.randint(1, 3))]}


def argv(query):
    return [*query["argv"], "-f", "json"]


def check(query, code, stdout):
    sub = query["sub"]
    expect(code == 0, "cli", f"{sub} exited {code}")
    out = json.loads(stdout)
    if sub == "normalize":
        expect(out["normal_form"] == query["normal_form"], "cli", "normal form")
    elif sub == "state-eval":
        expect(abs(complex(*out["value"]) - 1) < TOL, "cli", "omega_z(s(z)) != 1")
    elif sub == "classify":
        expect(out["verdict"] == "no" and out["p"] == query["p"], "cli", "power not detected")
    elif sub == "decompose":
        expect(len(out["components"]) == query["p"], "cli", "wrong component count")
    elif sub == "equivalent":
        expect(out["equivalent"] is query["equivalent"], "cli", "equivalence verdict")
    elif sub == "rep-build":
        dim = query["dim"]
        expect(out["dim"] == dim, "cli", f"dim {out['dim']} != {dim}")
        expect(all(lo <= len(gen["rows"]) <= hi for gen, (lo, hi) in zip(out["generators"], query["nnz"])),
               "cli", "nnz outside the bounds set by k, N and D")
    elif sub == "verify":
        expect(out["passed"] is True, "cli", "verify did not pass")
    elif sub == "diagnostics":
        for p, closed in query["sums"].items():
            expect(abs(out["sums"][p]["plain"] - closed) < 1e-12 * query["M"] + 1e-12,
                   "cli", f"S({p}) != 2M sin^2(pi p theta)")
    else:
        expect(out["max_residual"] <= TOL, "cli", f"CAR residual {out['max_residual']!r}")
