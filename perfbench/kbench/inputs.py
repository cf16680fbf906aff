"""Every input a workload uses, derived from the workload seed.

Each purpose draws from its own stream, ``default_rng([seed, stream])``, so
adding draws for one purpose never shifts another's values.  The program
under test receives only these generated arrays and schedules.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

#: Large library shapes: name -> (rows, factor size p, factor count n).
LARGE_SHAPES: Dict[str, Tuple[int, int, int]] = {
    "m1024_8p5": (1024, 8, 5),
    "m4096_2p12": (4096, 2, 12),
    "m256_32p3": (256, 32, 3),
}

#: The small request shape: one row against three 8x8 factors.
SMALL_SHAPE: Tuple[int, int, int] = (1, 8, 3)
SMALL_NAME = "m1_8p3"

#: The CG problem: three SPD 8x8 fp64 factors, 8 right-hand sides.
CG_P, CG_N, CG_RHS = 8, 3, 8
CG_NOISE = 0.5
CG_TOL = 1e-6
CG_MAX_ITERATIONS = 200
#: Eigenvalues of every SPD factor.
CG_SPECTRUM = np.geomspace(1.0, 30.0, CG_P)

#: Distinct request rows kept per run (results are checked against each).
ROW_POOL = 64

_STREAMS = {
    "small": 1, "rows": 2, "large": 3, "spd": 4, "rhs": 5, "cold": 6,
    "latency": 7, "bulk": 8,
}


def rng_for(seed: int, purpose: str) -> np.random.Generator:
    """The generator of one purpose's stream."""
    return np.random.default_rng([int(seed), _STREAMS[purpose]])


def dense_factors(
    rng: np.random.Generator, p: int, n: int, dtype=np.float32
) -> List[np.ndarray]:
    """``n`` random ``p x p`` factors of ``dtype``."""
    return [rng.standard_normal((p, p)).astype(dtype) for _ in range(n)]


def small_factors(seed: int) -> List[np.ndarray]:
    _, p, n = SMALL_SHAPE
    return dense_factors(rng_for(seed, "small"), p, n)


def row_pool(seed: int, count: int = ROW_POOL) -> np.ndarray:
    """``count`` distinct 1 x 8^3 fp32 rows."""
    _, p, n = SMALL_SHAPE
    return rng_for(seed, "rows").standard_normal((count, p ** n), dtype=np.float32)


def large_operands(seed: int, name: str) -> Tuple[np.ndarray, List[np.ndarray]]:
    """``(x, factors)`` of one large shape, fp32."""
    m, p, n = LARGE_SHAPES[name]
    rng = np.random.default_rng([int(seed), _STREAMS["large"], list(LARGE_SHAPES).index(name)])
    factors = dense_factors(rng, p, n)
    x = rng.standard_normal((m, p ** n), dtype=np.float32)
    return x, factors


def spd_factors(seed: int) -> List[np.ndarray]:
    """Three symmetric positive-definite 8x8 fp64 factors with a fixed spectrum.

    Each is ``Q diag(λ) Qᵀ`` with a seeded random orthogonal ``Q`` and the
    same eigenvalues :data:`CG_SPECTRUM`.  The operator's spectrum, and with
    it the CG iteration count, then does not depend on the seed (43 on
    every seed tried), so solve times across seeds time the same work.
    """
    rng = rng_for(seed, "spd")
    out = []
    for _ in range(CG_N):
        q, _ = np.linalg.qr(rng.standard_normal((CG_P, CG_P)))
        a = (q * CG_SPECTRUM) @ q.T
        out.append((a + a.T) / 2)
    return out


def cg_rhs(seed: int) -> np.ndarray:
    """The ``(order, rhs)`` right-hand sides of the CG problem."""
    return rng_for(seed, "rhs").standard_normal((CG_P ** CG_N, CG_RHS))


class ColdOp(NamedTuple):
    """One cold registration: fresh factors and the row to multiply."""

    factors: List[np.ndarray]
    row: np.ndarray


def cold_ops(seed: int, count: int) -> List[ColdOp]:
    """``count`` fresh 8^3 fp32 factor sets, each with one row."""
    rng = rng_for(seed, "cold")
    _, p, n = SMALL_SHAPE
    return [
        ColdOp(dense_factors(rng, p, n), rng.standard_normal((1, p ** n), dtype=np.float32))
        for _ in range(count)
    ]


def poisson_offsets(
    rng: np.random.Generator, rate: float, span: float
) -> List[float]:
    """Arrival offsets of a Poisson process of ``rate``/s over ``[0, span)``."""
    offsets: List[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < span:
        offsets.append(t)
        t += float(rng.exponential(1.0 / rate))
    return offsets
