"""Separable 2-D densities: the products p_x(x) p_y(y) of two 1-D densities.

On the tensor grid of two 1-D grids the trapezoid rule of a product is the
product of the two 1-D rules, so every quantity of a separable density that
factors follows from 1-D ones, with no closed form and for any shape of the
factors. ``bumps`` draws the factors, ``product`` builds the 2-D density and
``axes`` draws the two 1-D grids.
"""
from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from pdffusion.grid import from_samples, normalize

# equal node counts on unequal spacings: axes swapped anywhere fail by value, not by shape
EQUAL_COUNTS = ((64, -4.0, 4.0), (64, -1.0, 11.0))


@st.composite
def axes(draw):
    """Two 1-D grids ``(n, lower, upper)`` with unequal node counts, so swapped axes fail by shape."""
    nx = draw(st.integers(16, 160))
    ny = draw(st.integers(16, 160).filter(lambda n: n != nx))
    grids = []
    for n in (nx, ny):
        lower = draw(st.floats(-6.0, 0.0))
        grids.append((n, lower, lower + draw(st.floats(4.0, 12.0))))
    return tuple(grids)


def bumps(rng, lower, upper, n, zeros=0):
    """A random positive three-bump density normalized on its own 1-D grid; ``zeros`` leading nodes set to 0."""
    x = np.linspace(lower, upper, n)
    width = upper - lower
    vals = np.zeros(n)
    for _ in range(3):
        mu = rng.uniform(lower + 0.2 * width, upper - 0.2 * width)
        sd = rng.uniform(0.08, 0.3) * width
        vals += rng.uniform(0.2, 1.0) * np.exp(-0.5 * ((x - mu) / sd) ** 2)
    vals[:zeros] = 0.0
    return normalize(from_samples([lower], [upper], (n,), vals))


def product(dx, dy):
    """The separable 2-D density dx(x) dy(y) on the tensor grid of their two 1-D grids."""
    lower, upper = dx.grid.lower + dy.grid.lower, dx.grid.upper + dy.grid.upper
    return from_samples(lower, upper, (dx.grid.shape[0], dy.grid.shape[0]), np.multiply.outer(dx.values, dy.values))


def assert_relative(value, exact, tol=1e-12):
    assert abs(value - exact) <= tol * abs(exact), (value, exact)
