"""Write the coefficient table of binquant's normal-CDF kernel, ``src/binquant/_ndtr_table.py``.

Usage, from the repository root (about half a second)::

    python tools/ndtr_table.py

The kernel (``binquant.density._ndtr``) evaluates the normal CDF as

    Phi(z) = exp(-z^2 / 2) * P(t),   P = erfcx(|z| / sqrt(2)) / 2,   t = SCALE / (SCALE + |z|),

reflected as 1 - Phi(-z) for z > 0, where erfcx(x) = exp(x^2) erfc(x) is
the scaled complementary error function.  With SCALE = 4 sqrt(2) this is
t = 4 / (4 + x), the variable of Steven G. Johnson's Faddeeva package
erfcx; the piecewise-polynomial route to erfc goes back to Cody (Math.
Comp. 23, 1969).  t maps [0, inf] onto [1, 0], so ``INTERVALS`` equal
intervals of t cover every z.  On interval i, t = (i + s) / INTERVALS
with s in [0, 1), and P is a polynomial of degree ``DEGREE`` in s: its
interpolant at the Chebyshev extreme points of [0, 1], s = 0 and s = 1
among them, solved for in 40-digit ``mpmath`` arithmetic and rounded to
doubles.  So neighbouring polynomials meet at their common end up to
rounding, and interval 0 takes P(0) = 0, the limit at |z| = inf, as its
constant term.  Row ``INTERVALS`` continues the last polynomial past
t = 1; the kernel reads it at s = 0 alone, for z = 0, so its index needs
no clip.

The written module holds ``SCALE``, ``INTERVALS`` and ``COEFFICIENTS``, one
string with a line per interval and its coefficients in ``repr`` form,
lowest power first, which the kernel parses once at import.  A string is
one constant: a module of 1,542 float literals took 7 ms and 2 MiB to
compile, which a process that writes no bytecode cache pays at every
start.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath

INTERVALS = 256
DEGREE = 5
SCALE = 4.0 * math.sqrt(2.0)

OUT = Path(__file__).resolve().parent.parent / "src" / "binquant" / "_ndtr_table.py"


def interval_coefficients(i: int) -> list[float]:
    """The rounded coefficients of interval ``i``'s polynomial in s, lowest power first."""
    with mpmath.workdps(40):
        nodes = [(1 - mpmath.cos(mpmath.pi * j / DEGREE)) / 2 for j in range(DEGREE + 1)]
        values = []
        for s in nodes:
            t = (i + s) / INTERVALS
            if not t:  # |z| = inf, where P tends to 0
                values.append(mpmath.mpf(0))
                continue
            x = mpmath.mpf(SCALE) * (1 - t) / (t * mpmath.sqrt(2))
            values.append(mpmath.erfc(x) * mpmath.exp(x * x) / 2)
        vandermonde = mpmath.matrix([[s**p for p in range(DEGREE + 1)] for s in nodes])
        coefficients = mpmath.lu_solve(vandermonde, mpmath.matrix(values))
        return [float(c) for c in coefficients]


def module_text() -> str:
    rows = "\n".join(" ".join(map(repr, interval_coefficients(i))) for i in range(INTERVALS + 1))
    return (
        '"""Coefficients of the normal-CDF kernel in :mod:`binquant.density`; generated, do not edit.\n\n'
        "Written by ``tools/ndtr_table.py``, which describes the table.\n"
        '"""\n\n'
        f"SCALE = {SCALE!r}\n"
        f"INTERVALS = {INTERVALS}\n"
        f'COEFFICIENTS = """\n{rows}\n"""\n'
    )


def main() -> None:
    OUT.write_text(module_text())
    print(f"wrote {OUT}: {INTERVALS + 1} rows of {DEGREE + 1} coefficients")


if __name__ == "__main__":
    main()
