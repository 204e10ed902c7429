"""Independent reference implementations used as test oracles.

These deliberately avoid the package's own evaluation paths: plain
Python/NumPy arithmetic, classical fixed-step Runge-Kutta, SciPy's
adaptive quadrature, per-window LAPACK least squares, exact rational
arithmetic and plain Python loops.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from growthcast import CollapseError


def rk4_log_integrate(
    rate: Callable[[float], float], t0: float, s0: float, grid: Sequence[float], h: float
) -> np.ndarray:
    """Integrate d(ln S)/dt = rate(t) from (t0, s0) with classical RK4.

    Returns S at each grid point; each inter-point interval is subdivided
    into steps of at most h.
    """
    out = np.empty(len(grid))
    ln_s = math.log(s0)
    t = t0
    for j, target in enumerate(grid):
        span = target - t
        if span > 0:
            n = max(1, math.ceil(span / h))
            dt = span / n
            for _ in range(n):
                k1 = rate(t)
                k2 = rate(t + dt / 2)
                k3 = k2  # no state dependence: k3 equals k2
                k4 = rate(t + dt)
                ln_s += dt * (k1 + 2 * k2 + 2 * k3 + k4) / 6.0
                t += dt
        out[j] = math.exp(ln_s)
    return out


def centered_log_derivative(
    value: Callable[[float], float], t: float, h: float = 1e-4
) -> float:
    """d(ln f)/dt by a centered difference on ln f."""
    return (math.log(value(t + h)) - math.log(value(t - h))) / (2 * h)


def poly_derivative_over_value(coeffs: Sequence[float], t: np.ndarray) -> np.ndarray:
    """p'(t) / p(t) for a power-basis polynomial, via symbolic differentiation."""
    c = np.asarray(coeffs, dtype=float)
    dc = c[1:] * np.arange(1, c.size)
    num = np.polynomial.polynomial.polyval(t, dc)
    den = np.polynomial.polynomial.polyval(t, c)
    return num / den


def local_poly_gradients(times: np.ndarray, values: np.ndarray, cfg) -> np.ndarray:
    """Windowed least-squares polynomial derivative, one SVD solve per point.

    The per-point ``lstsq`` loop that ``rates._local_poly_gradients``
    replaced, kept as its reference: same window placement, shift and
    scaling, a LAPACK SVD solve per window.
    """
    n = times.size
    w = cfg.window
    half = w // 2
    grads = np.empty(n)
    for i in range(n):
        lo = min(max(i - half, 0), n - w)
        idx = slice(lo, lo + w)
        x = times[idx] - times[i]
        scale = np.max(np.abs(x))
        xs = x / scale
        # Vandermonde least squares in the scaled variable
        V = np.vander(xs, cfg.degree + 1, increasing=True)
        coef, *_ = np.linalg.lstsq(V, values[idx], rcond=None)
        grads[i] = coef[1] / scale
    return grads


def exact_local_poly_gradients(times: np.ndarray, values: np.ndarray, cfg) -> np.ndarray:
    """The same windowed derivative solved exactly, rounded once at the end.

    Each window's shifted and scaled abscissae and its values are exact
    binary fractions; scaled by powers of two they become integers, and
    the integer normal equations are solved by fraction-free (Bareiss)
    elimination and Cramer's rule for the degree-1 coefficient. Slow;
    meant for a handful of windows.
    """
    n = times.size
    w = cfg.window
    p = cfg.degree + 1
    grads = np.empty(n)
    for i in range(n):
        lo = min(max(i - w // 2, 0), n - w)
        x = times[lo : lo + w] - times[i]
        scale = np.max(np.abs(x))
        xs = [Fraction(float(a)) for a in x / scale]
        ys = [Fraction(float(b)) for b in values[lo : lo + w]]
        ex = math.lcm(*(a.denominator for a in xs))  # xs = X / ex
        ey = math.lcm(*(b.denominator for b in ys))  # ys = Y / ey
        X = [int(a * ex) for a in xs]
        Y = [int(b * ey) for b in ys]
        moments = [sum(a**k for a in X) for k in range(2 * p - 1)]
        gram = [moments[j : j + p] for j in range(p)]
        rhs = [sum(a**j * b for a, b in zip(X, Y)) for j in range(p)]
        with_rhs = [row[:1] + [r] + row[2:] for row, r in zip(gram, rhs)]
        # in the integer basis X^k the degree-1 coefficient is ex * c[1] * ey
        c1 = Fraction(_bareiss_det(with_rhs), _bareiss_det(gram)) * ex / ey
        grads[i] = float(c1 / Fraction(float(scale)))
    return grads


def _bareiss_det(matrix: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in matrix]
    m = len(a)
    sign, prev = 1, 1
    for k in range(m - 1):
        if a[k][k] == 0:
            swap = next((r for r in range(k + 1, m) if a[r][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for r in range(k + 1, m):
            for c in range(k + 1, m):
                a[r][c] = (a[r][c] * a[k][k] - a[r][k] * a[k][c]) // prev
        prev = a[k][k]
    return sign * a[m - 1][m - 1]


def integrate_discrete_loop(
    grid: np.ndarray, rate_for_step: np.ndarray, anchor_idx: int, s0: float
) -> np.ndarray:
    """Discrete step integration, one step per loop iteration.

    The loop that ``forecast.integrate_discrete`` replaced, kept as its
    reference. ``rate_for_step[i]`` bridges (grid[i - 1], grid[i]); the
    size at ``grid[anchor_idx]`` is s0, later sizes multiply by 1 + R dt
    and earlier ones divide by it. Raises CollapseError, with the
    library's message, at the first factor <= 0 in each direction.
    """
    values = np.empty_like(grid)
    values[anchor_idx] = s0
    for i in range(anchor_idx + 1, grid.size):
        dt = grid[i] - grid[i - 1]
        factor = 1.0 + rate_for_step[i] * dt
        if factor <= 0:
            raise CollapseError(
                f"step into t = {grid[i]} would drive the size non-positive "
                f"(1 + R*dt = {factor})"
            )
        values[i] = values[i - 1] * factor
    for i in range(anchor_idx - 1, -1, -1):
        dt = grid[i + 1] - grid[i]
        factor = 1.0 + rate_for_step[i + 1] * dt
        if factor <= 0:
            raise CollapseError(
                f"backward step into t = {grid[i]} would drive the size non-positive "
                f"(1 + R*dt = {factor})"
            )
        values[i] = values[i + 1] / factor
    return values
