"""Micro-benchmark of the exact kernels of `linkwitt.rational`.

    python3 tools/kernel_bench.py --seconds 2 --seed 1

Times, against the `src/` of this checkout, five kernels on fixed seeded
inputs: `QMatrix.__mul__`, `QMatrix.rref`, `minimal_polynomial`,
`factor_rational_poly` and `spin`.  The inputs come from the modules of
`bench/gen.py`'s `random_form` (skew forms, mu = 2), each summed with a
scramble of itself, as in the `metabolic_pairs` workload:
- `mul`: the products of every pair of generators of each module;
- `minimal_polynomial`: sampled algebra elements, combinations of products
  of the generators;
- `factor_rational_poly`: the minimal polynomials of those elements;
- `rref`: p(a) for each element a and each irreducible factor p;
- `spin`: each basis vector spun under the generators of its module.

Like the program, every call reuses the operand objects it is given, so a
matrix whose integer form was computed by an earlier call keeps it; one
untimed pass through each kernel's cases computes them first.  Each kernel
then makes timed passes until `--seconds` of call time have passed (at
least one pass), each pass through its case list repeated until the pass
takes at least 50 ms.  One JSON line goes to stdout: for each kernel the
number of calls, `median_us`, the median over the passes of the mean time
of one call in a pass, and `p90_us`, the 90th percentile time of one call,
in microseconds at reference speed.  A pass's mean weighs every case the
same in every run; the median of single calls does not, because the call
times of one kernel fall in clusters (p(a) of different sizes) and that
median can sit in a gap between two of them.  Reference speed is
`bench/run.py`'s: its `reference()` loop runs before the first pass and
after each one, and each call time of a pass is scaled by
`at_reference_speed` of the loops around it (a single call is too short to
carry a loop of its own), so that runs on a host that changes speed
compare.  Uses only the standard library.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "bench"))

import gen                      # noqa: E402
from run import at_reference_speed, reference   # noqa: E402
from linkwitt.rational import (QMatrix, factor_rational_poly,  # noqa: E402
                               lincomb, minimal_polynomial, spin)

MODULES = 6
ELEMENTS_PER_MODULE = 3
# the least wall time of one timed pass through a kernel's cases
PASS_S = 0.05


def modules(seed: int) -> list:
    """Generator lists of seeded modules of dimension 4 to 8."""
    rng = random.Random(seed)
    out = []
    for _ in range(MODULES):
        form = gen.random_form(rng, 2, rng.randint(2, 4), -1)
        mu, s, projs = gen.module_sum(form[:3],
                                      gen.base_change(rng, form=form)[0][:3])
        out.append([QMatrix(len(m), len(m), m) for m in [s] + projs])
    return out


def elements(rng: random.Random, gens: list) -> list:
    """Algebra elements: integer combinations of products of one to three
    generators."""
    out = []
    for _ in range(ELEMENTS_PER_MODULE):
        terms = []
        for _ in range(3):
            w = rng.choice(gens)
            for _ in range(rng.randrange(3)):
                w = w * rng.choice(gens)
            terms.append(w)
        out.append(lincomb([rng.randint(-3, 3) or 1 for _ in terms], terms))
    return out


def cases(seed: int) -> dict:
    """Kernel name -> list of zero-argument calls."""
    rng = random.Random(seed + 1)
    mods = modules(seed)
    mul, minpoly, factor, rref, spins = [], [], [], [], []
    for gens in mods:
        n = gens[0].rows
        mul += [lambda a=a, b=b: a * b for a in gens for b in gens]
        spins += [lambda gens=gens, n=n, i=i:
                  spin(gens, [[int(j == i) for j in range(n)]], n)
                  for i in range(n)]
        for a in elements(rng, gens):
            p = minimal_polynomial(a)
            minpoly.append(lambda a=a: minimal_polynomial(a))
            factor.append(lambda p=p: factor_rational_poly(p))
            for q, _mult in factor_rational_poly(p)[1]:
                m = q.eval_matrix(a)
                rref.append(lambda m=m: m.rref())
    return {"mul": mul, "rref": rref, "minimal_polynomial": minpoly,
            "factor_rational_poly": factor, "spin": spins}


def time_kernel(calls: list, seconds: float) -> dict:
    # an untimed pass fills the operands' integer forms and sizes a pass:
    # the case list is repeated until one pass takes PASS_S or more, so the
    # reference loops around a pass are short against it
    t0 = time.perf_counter()
    for call in calls:
        call()
    calls = calls * max(1, math.ceil(PASS_S / (time.perf_counter() - t0)))
    times, means = [], []
    busy = 0.0
    ref = reference()
    while busy < seconds or not times:
        elapsed = []
        for call in calls:
            t0 = time.perf_counter()
            call()
            elapsed.append(time.perf_counter() - t0)
        ref_after = reference()
        scale = at_reference_speed(1.0, ref, ref_after)
        times += [t * scale for t in elapsed]
        means.append(sum(elapsed) * scale / len(elapsed))
        busy += sum(elapsed)
        ref = ref_after
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return {"calls": len(times),
            "median_us": round(statistics.median(means) * 1e6, 2),
            "p90_us": round(cuts[-1] * 1e6, 2)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=2.0,
                        help="timed seconds per kernel (default 2)")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    kernels = {name: time_kernel(calls, args.seconds)
               for name, calls in cases(args.seed).items()}
    print(json.dumps({"seed": args.seed, "seconds": args.seconds,
                      "python": platform.python_version(),
                      "kernels": kernels}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
