"""Independent constant-coefficient product oracle.

Direct exponential-series evaluation for a constant antisymmetric matrix,
written without reference to the slice machinery so the two
implementations can be compared term by term.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence, Union

from .exact_algebra import GaussianRational, ThetaPoly

Entry = Union[int, Fraction, GaussianRational]


def moyal_product(f: ThetaPoly, g: ThetaPoly,
                  matrix: Sequence[Sequence[Entry]], order: int = 3) -> ThetaPoly:
    """Sum over n of (1/n!) (i th / 2)^n  w^{i1 j1} ... w^{in jn}
    d_{i1..in} f  d_{j1..jn} g, evaluated exactly."""
    n_dim = f.n
    if len(matrix) != n_dim:
        raise ValueError("matrix dimension mismatch")
    out = ThetaPoly.zero(n_dim, f.trunc)
    half_i = GaussianRational(0, Fraction(1, 2))
    for n in range(order + 1):
        scale = (half_i ** n) * Fraction(1, math.factorial(n))
        for left in itertools.product(range(n_dim), repeat=n):
            df = f
            for i in left:
                df = df.diff_x(i)
            if df.is_zero:
                continue
            for right in itertools.product(range(n_dim), repeat=n):
                w_prod = GaussianRational(1)
                for i, j in zip(left, right):
                    w_prod = w_prod * GaussianRational.of(matrix[i][j])
                    if w_prod.is_zero:
                        break
                if w_prod.is_zero:
                    continue
                dg = g
                for j in right:
                    dg = dg.diff_x(j)
                if dg.is_zero:
                    continue
                out = out + (df * dg).scale(scale * w_prod).theta_shift(n)
    return out
