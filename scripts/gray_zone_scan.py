#!/usr/bin/env python3
"""Diagnostics for the built-in gray-zone chain.

The sequence wobbles around the diagonal direction with half-angle
arcsin(1/(sqrt(2) n)); its consecutive overlap defects are exactly 1/n^2
on the odd/even pairs, so the shift-1 defect series converges (the chain
is asymptotically periodic) although no eventual period exists.  The
script prints the term identity error, the growth of the partial sums
against the pi^2/3 bound, and the overlap sums against the diagonal
target vector.

Usage: python3 scripts/gray_zone_scan.py [M]
"""

import math
import sys

import numpy as np

import gpcuntz as g


def main(argv):
    m_max = int(argv[1]) if len(argv) > 1 else 2000
    chain = g.gray_zone_chain()

    pairs = m_max // 2
    rows = g.chain_factors(chain, 1, 2 * pairs)
    overlaps = np.abs(np.sum(np.conj(rows[0::2]) * rows[1::2], axis=1))
    n = np.arange(1, pairs + 1)
    worst = float(np.max(np.abs((1.0 - overlaps) - 1.0 / n**2), initial=0.0))
    print(f"# pair-defect identity: max |(1-|<z_odd|z_even>|) - 1/n^2| = {worst:.3e}")

    table = g.asymptotic_diagnostics(chain, 1, m_max)
    sums = table.absolute[1]
    bound = math.pi**2 / 3
    print(f"# shift-1 partial sums vs bound {bound:.6f}")
    for m in sorted({m for m in (10, 100, 1000, m_max) if m <= m_max}):
        print(f"S(1,{m}) = {float(sums[m - 1]):.6f}")

    target = np.array([1.0, 1.0]) / math.sqrt(2.0)
    tsums = g.target_overlap_sums(chain, target, m_max)
    print(f"# diagonal-target sums: final {float(tsums[-1]):.6f} (bound {bound:.6f})")

    verdict = g.is_eventually_periodic(chain)
    print(f"# eventually periodic: {verdict.eventually_periodic} ({verdict.note})")
    print(f"# classification: {g.classify(chain).verdict}")


if __name__ == "__main__":
    main(sys.argv)
