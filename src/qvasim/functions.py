"""Benchmark test functions with ground-truth minima and default domains.

Every function accepts ``x`` as an array of shape (D,) for a single point or
(D, M) for M points at once, and every operation acts elementwise. A point
evaluated as a (D, 1) column gets the value it gets inside any (D, M)
block. Evaluated as a (D,) vector it may differ in the last bit: numpy's
scalar ``**`` calls libm ``pow``, while its array ``x**2`` is ``square``
and its array ``x**4`` a SIMD power (``np.cos`` agrees either way), so
``evaluate_test_function`` evaluates its point as a column. The catalogue
is addressed by snake_case name, e.g. ``"styblinski_tang"``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np


def sphere(x):
    x = np.asarray(x)
    total = 0.0
    for xi in x:
        total = total + xi**2
    return total


def rosenbrock(x):
    x = np.asarray(x)
    total = 0.0
    for d in range(len(x) - 1):
        total = total + 100.0 * (x[d + 1] - x[d] ** 2) ** 2 + (1.0 - x[d]) ** 2
    return total


def styblinski_tang(x):
    x = np.asarray(x)
    total = 0.0
    for xi in x:
        total = total + (xi**4 - 16.0 * xi**2 + 5.0 * xi) / 2.0
    return total


def rastrigin(x):
    x = np.asarray(x)
    total = 10.0 * len(x)
    for xi in x:
        total = total + (xi**2 - 10.0 * np.cos(2.0 * np.pi * xi))
    return total


def ackley(x):
    # mean-form generalisation; identical to the two-variable closed form at D=2
    x = np.asarray(x)
    d = len(x)
    sq = 0.0
    cs = 0.0
    for xi in x:
        sq = sq + xi**2
        cs = cs + np.cos(2.0 * np.pi * xi)
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(sq / d))
        - np.exp(cs / d)
        + np.e
        + 20.0
    )


def beale(x):
    x1, x2 = np.asarray(x)
    return (
        (1.5 - x1 + x1 * x2) ** 2
        + (2.25 - x1 + x1 * x2**2) ** 2
        + (2.625 - x1 + x1 * x2**3) ** 2
    )


def goldstein_price(x):
    x1, x2 = np.asarray(x)
    a = 1.0 + (x1 + x2 + 1.0) ** 2 * (
        19.0 - 14.0 * x1 + 3.0 * x1**2 - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * x2**2
    )
    b = 30.0 + (2.0 * x1 - 3.0 * x2) ** 2 * (
        18.0 - 32.0 * x1 + 12.0 * x1**2 + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * x2**2
    )
    return a * b


def booth(x):
    x1, x2 = np.asarray(x)
    return (x1 + 2.0 * x2 - 7.0) ** 2 + (2.0 * x1 + x2 - 5.0) ** 2


def bukin_n6(x):
    x1, x2 = np.asarray(x)
    return 100.0 * np.sqrt(np.abs(x2 - 0.01 * x1**2)) + 0.01 * np.abs(x1 + 10.0)


def matyas(x):
    x1, x2 = np.asarray(x)
    return 0.26 * (x1**2 + x2**2) - 0.48 * x1 * x2


def levi_n13(x):
    x1, x2 = np.asarray(x)
    return (
        np.sin(3.0 * np.pi * x1) ** 2
        + (x1 - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x2) ** 2)
        + (x2 - 1.0) ** 2 * (1.0 + np.sin(2.0 * np.pi * x2) ** 2)
    )


def himmelblau(x):
    x1, x2 = np.asarray(x)
    return (x1**2 + x2 - 11.0) ** 2 + (x1 + x2**2 - 7.0) ** 2


def three_hump_camel(x):
    x1, x2 = np.asarray(x)
    return 2.0 * x1**2 - 1.05 * x1**4 + x1**6 / 6.0 + x1 * x2 + x2**2


def easom(x):
    x1, x2 = np.asarray(x)
    return -np.cos(x1) * np.cos(x2) * np.exp(-((x1 - np.pi) ** 2 + (x2 - np.pi) ** 2))


def cross_in_tray(x):
    x1, x2 = np.asarray(x)
    inner = np.abs(
        np.sin(x1) * np.sin(x2) * np.exp(np.abs(100.0 - np.sqrt(x1**2 + x2**2) / np.pi))
    )
    return -0.0001 * (inner + 1.0) ** 0.1


def eggholder(x):
    x1, x2 = np.asarray(x)
    return -(x2 + 47.0) * np.sin(np.sqrt(np.abs(x1 / 2.0 + (x2 + 47.0)))) - x1 * np.sin(
        np.sqrt(np.abs(x1 - (x2 + 47.0)))
    )


def holder_table(x):
    x1, x2 = np.asarray(x)
    return -np.abs(
        np.sin(x1) * np.cos(x2) * np.exp(np.abs(1.0 - np.sqrt(x1**2 + x2**2) / np.pi))
    )


def mccormick(x):
    x1, x2 = np.asarray(x)
    return np.sin(x1 + x2) + (x1 - x2) ** 2 - 1.5 * x1 + 2.5 * x2 + 1.0


def schaffer_n2(x):
    x1, x2 = np.asarray(x)
    return 0.5 + (np.sin(x1**2 - x2**2) ** 2 - 0.5) / (
        1.0 + 0.001 * (x1**2 + x2**2)
    ) ** 2


def schaffer_n4(x):
    x1, x2 = np.asarray(x)
    return 0.5 + (np.cos(np.sin(np.abs(x1**2 - x2**2))) ** 2 - 0.5) / (
        1.0 + 0.001 * (x1**2 + x2**2)
    ) ** 2


@dataclass(frozen=True)
class TestFunction:
    """Catalogue entry: callable plus domain and ground-truth minimum.

    ``dims`` is None for functions defined in any dimension, otherwise the
    fixed dimensionality. ``bounds`` holds one (lower, upper) pair per
    dimension for fixed-D functions, or a single pair reused in every
    dimension. ``minimum_per_dim`` marks minima of the form ``c * D``.
    """

    name: str
    fn: Callable
    dims: int | None
    bounds: tuple[tuple[float, float], ...]
    minimum: float
    minimisers: tuple[tuple[float, ...], ...]
    minimum_per_dim: bool = False
    min_dims: int = 1

    def supports(self, dims: int) -> bool:
        if self.dims is not None:
            return dims == self.dims
        return dims >= self.min_dims

    def domain(self, dims: int) -> tuple[np.ndarray, np.ndarray]:
        """Per-dimension lower and upper bound vectors for a D-dim instance."""
        if not self.supports(dims):
            raise ValueError(f"{self.name} is not defined for D={dims}")
        if len(self.bounds) == dims:
            pairs = self.bounds
        else:
            pairs = self.bounds * dims
        lower = np.array([p[0] for p in pairs[:dims]])
        upper = np.array([p[1] for p in pairs[:dims]])
        return lower, upper

    def known_minimum(self, dims: int) -> float:
        return self.minimum * dims if self.minimum_per_dim else self.minimum

    def known_minimisers(self, dims: int) -> list[np.ndarray]:
        if self.dims is None:
            return [np.full(dims, m[0]) for m in self.minimisers]
        return [np.asarray(m) for m in self.minimisers]


def _sym(lo: float, hi: float) -> tuple[tuple[float, float], ...]:
    return ((lo, hi),)


FUNCTIONS: dict[str, TestFunction] = {
    f.name: f
    for f in [
        TestFunction("sphere", sphere, None, _sym(-2, 2), 0.0, ((0.0,),)),
        TestFunction(
            "rosenbrock", rosenbrock, None, _sym(-3, 3), 0.0, ((1.0,),), min_dims=2
        ),
        TestFunction(
            "styblinski_tang",
            styblinski_tang,
            None,
            _sym(-5, 5),
            -39.16617,
            ((-2.903534,),),
            minimum_per_dim=True,
        ),
        TestFunction("rastrigin", rastrigin, None, _sym(-5.12, 5.12), 0.0, ((0.0,),)),
        TestFunction("ackley", ackley, None, _sym(-5, 5), 0.0, ((0.0,),)),
        TestFunction("beale", beale, 2, _sym(-4.5, 4.5), 0.0, ((3.0, 0.5),)),
        TestFunction(
            "goldstein_price", goldstein_price, 2, _sym(-2, 2), 3.0, ((0.0, -1.0),)
        ),
        TestFunction("booth", booth, 2, _sym(-10, 10), 0.0, ((1.0, 3.0),)),
        TestFunction(
            "bukin_n6", bukin_n6, 2, ((-15.0, -5.0), (-3.0, 3.0)), 0.0, ((-10.0, 1.0),)
        ),
        TestFunction("matyas", matyas, 2, _sym(-10, 10), 0.0, ((0.0, 0.0),)),
        TestFunction("levi_n13", levi_n13, 2, _sym(-10, 10), 0.0, ((1.0, 1.0),)),
        TestFunction(
            "himmelblau",
            himmelblau,
            2,
            _sym(-5, 5),
            0.0,
            (
                (3.0, 2.0),
                (-2.805118, 3.131312),
                (-3.779310, -3.283186),
                (3.584428, -1.848126),
            ),
        ),
        TestFunction(
            "three_hump_camel", three_hump_camel, 2, _sym(-5, 5), 0.0, ((0.0, 0.0),)
        ),
        TestFunction("easom", easom, 2, _sym(-100, 100), -1.0, ((np.pi, np.pi),)),
        TestFunction(
            "cross_in_tray",
            cross_in_tray,
            2,
            _sym(-10, 10),
            -2.06261,
            (
                (1.34941, 1.34941),
                (1.34941, -1.34941),
                (-1.34941, 1.34941),
                (-1.34941, -1.34941),
            ),
        ),
        TestFunction(
            "eggholder", eggholder, 2, _sym(-512, 512), -959.6407, ((512.0, 404.2319),)
        ),
        TestFunction(
            "holder_table",
            holder_table,
            2,
            _sym(-10, 10),
            -19.2085,
            (
                (8.05502, 9.66459),
                (8.05502, -9.66459),
                (-8.05502, 9.66459),
                (-8.05502, -9.66459),
            ),
        ),
        TestFunction(
            "mccormick",
            mccormick,
            2,
            ((-1.5, 4.0), (-3.0, 4.0)),
            -1.9133,
            ((-0.54719, -1.54719),),
        ),
        TestFunction("schaffer_n2", schaffer_n2, 2, _sym(-100, 100), 0.0, ((0.0, 0.0),)),
        TestFunction(
            "schaffer_n4",
            schaffer_n4,
            2,
            _sym(-100, 100),
            0.292579,
            ((0.0, 1.25313), (0.0, -1.25313), (1.25313, 0.0), (-1.25313, 0.0)),
        ),
    ]
}

# Listed minima and minimisers of these functions are rounded more coarsely
# than the 1e-4 validation tolerance used for the exact-form entries.
ROUNDED_MINIMUM = {"eggholder", "cross_in_tray", "holder_table"}


def get_function(name: str) -> TestFunction:
    try:
        return FUNCTIONS[name]
    except KeyError:
        known = ", ".join(sorted(FUNCTIONS))
        raise KeyError(f"unknown test function {name!r}; catalogue: {known}") from None


def evaluate_test_function(name: str, x: Sequence[float]) -> float:
    """Evaluate a catalogue function at a point, checking dimensionality.

    The point is evaluated as a (D, 1) column, so its value equals the one
    ``build_objective`` stores for it in a grid's table.
    """
    f = get_function(name)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a single point, got shape {x.shape}")
    if not f.supports(len(x)):
        raise ValueError(f"{name} is not defined for D={len(x)}")
    return float(f.fn(x[:, None])[0])
