"""Independent numpy oracle for the benchmark's stencils.

Written apart from the program: it imports nothing from ``repro`` and
evaluates each stencil straight from the coefficient table with
``np.roll``.  The program's outputs are compared against it within
:data:`TOLERANCE`; the bitwise properties (backend agreement,
decomposition invariance, recovery) are checked separately against the
program's own reference paths.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

#: max |program - oracle| allowed.  Every value stays in [0, 1) (the
#: weights are positive and sum to 1), so this is also a relative bound;
#: the program and the oracle sum the same terms in different orders,
#: which costs a few ulps per step (about 1e-15 after 20 steps).
TOLERANCE = 1e-12

#: ``B[t] << 0.6*S[t-1] + 0.4*S[t-2]``: (time lag, weight) pairs — the
#: two time dependencies of the paper's Listing 1
TIME_WEIGHTS: Tuple[Tuple[int, float], ...] = ((1, 0.6), (2, 0.4))


@dataclass(frozen=True)
class StarStencil:
    """A star stencil given by its coefficient table."""

    #: kernel name in the MSC source
    kernel: str
    #: loop variables, slowest first (one per dimension)
    dims: Tuple[str, ...]
    #: coefficient per neighbour distance: ``coeffs[0]`` for the centre,
    #: ``coeffs[r]`` for each of the ``2*ndim`` points at distance ``r``
    coeffs: Tuple[float, ...]

    @property
    def ndim(self) -> int:
        return len(self.dims)

    @property
    def radius(self) -> int:
        return len(self.coeffs) - 1

    @property
    def points(self) -> int:
        return 1 + 2 * self.ndim * self.radius

    def table(self) -> List[Tuple[Tuple[int, ...], float]]:
        """``(offset, coefficient)`` for every point, centre first."""
        rows = [((0,) * self.ndim, self.coeffs[0])]
        for r in range(1, self.radius + 1):
            for d in range(self.ndim):
                for sign in (-1, 1):
                    off = [0] * self.ndim
                    off[d] = sign * r
                    rows.append((tuple(off), self.coeffs[r]))
        return rows


#: the paper's Listing-1 3-D 7-point star (Table 4 ``3d7pt_star``)
STAR_3D7 = StarStencil("S_3d7pt_star", ("k", "j", "i"), (0.4, 0.1))
#: 2-D 9-point radius-2 star (Table 4 ``2d9pt_star``)
STAR_2D9 = StarStencil("S_2d9pt_star", ("j", "i"), (0.36, 0.1, 0.06))


def apply_star(stencil: StarStencil, field: np.ndarray,
               boundary: str) -> np.ndarray:
    """One kernel application: ``sum(c * field[p + offset])``.

    ``zero`` reads zeros outside the domain (pad, roll, crop);
    ``periodic`` wraps around, which is exactly what ``np.roll`` does.
    """
    r = stencil.radius
    if boundary == "zero":
        x = np.pad(field, r)
    elif boundary == "periodic":
        x = field
    else:
        raise ValueError(f"oracle has no {boundary!r} boundary")
    acc = np.zeros_like(x)
    axes = tuple(range(stencil.ndim))
    for offset, coef in stencil.table():
        acc += coef * np.roll(x, tuple(-o for o in offset), axis=axes)
    if boundary == "zero":
        acc = acc[(slice(r, -r),) * stencil.ndim]
    return acc


def oracle_run(stencil: StarStencil, init: Sequence[np.ndarray],
               steps: int, boundary: str) -> np.ndarray:
    """``steps`` time steps from the two history planes ``init``."""
    lags = max(lag for lag, _ in TIME_WEIGHTS)
    if len(init) != lags:
        raise ValueError(f"need {lags} history planes, got {len(init)}")
    history = [np.array(p, dtype=np.float64) for p in init]
    for _ in range(steps):
        new = np.zeros_like(history[-1])
        for lag, weight in TIME_WEIGHTS:
            new += weight * apply_star(stencil, history[-lag], boundary)
        history = history[1:] + [new]
    return history[-1]


def max_error(out: np.ndarray, expected: np.ndarray) -> float:
    """Largest absolute difference (inf on a shape mismatch)."""
    if out.shape != expected.shape:
        return float("inf")
    return float(np.max(np.abs(out - expected)))


def check_output(out: np.ndarray, oracle: np.ndarray,
                 bitwise: Dict[str, np.ndarray]) -> List[str]:
    """Names of the checks ``out`` fails.

    ``oracle`` is compared within :data:`TOLERANCE`; every array in
    ``bitwise`` (property name -> array) must equal ``out`` exactly.
    """
    failed = []
    if not max_error(out, oracle) <= TOLERANCE:
        failed.append("oracle")
    for name, want in bitwise.items():
        if not np.array_equal(out, want):
            failed.append(name)
    return failed
