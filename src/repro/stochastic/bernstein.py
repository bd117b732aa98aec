"""Bernstein polynomial machinery (paper Eq. 1).

The ReSC unit evaluates functions written in the Bernstein form

``B(x) = sum_i b_i * B_{i,n}(x)``,  ``B_{i,n}(x) = C(n,i) x^i (1-x)^(n-i)``

because the architecture realizes exactly this expression: the adder's
ones-count ``k`` follows a binomial distribution ``Binomial(n, x)`` whose
probability mass at ``k`` *is* ``B_{k,n}(x)``, and the multiplexer picks
coefficient stream ``z_k`` with that probability.  SC-implementability
requires every ``b_i`` to lie in ``[0, 1]``; degree elevation can repair
out-of-range coefficients without changing the function.
"""

from __future__ import annotations

from math import comb
from typing import Callable, Sequence, Union

import numpy as np

from ..errors import ConfigurationError, DesignInfeasibleError
from ..units import ArrayLike
from .polynomial import PowerPolynomial

__all__ = [
    "bernstein_basis",
    "BernsteinPolynomial",
    "power_to_bernstein",
    "bernstein_to_power",
    "degree_elevation",
]


def bernstein_basis(i: int, n: int, x: ArrayLike) -> ArrayLike:
    """Bernstein basis polynomial ``B_{i,n}(x) = C(n,i) x^i (1-x)^(n-i)``."""
    if not 0 <= i <= n:
        raise ConfigurationError(f"need 0 <= i <= n, got i={i}, n={n}")
    x = np.asarray(x, dtype=float)
    value = comb(n, i) * x**i * (1.0 - x) ** (n - i)
    if value.ndim == 0:
        return float(value)
    return value


class BernsteinPolynomial:
    """A polynomial in Bernstein form: the ReSC/optical-circuit program.

    Parameters
    ----------
    coefficients:
        Bernstein coefficients ``(b_0, ..., b_n)``.

    Notes
    -----
    The coefficients directly program the hardware: coefficient ``b_i``
    becomes the probability of coefficient stream ``z_i`` (electronic
    ReSC) or the duty cycle of MRR modulator ``i`` (optical circuit).
    """

    def __init__(self, coefficients: Sequence[float]):
        coeffs = np.asarray(list(coefficients), dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ConfigurationError("need a non-empty 1-D coefficient list")
        self._coefficients = coeffs
        self._coefficients.setflags(write=False)

    @property
    def coefficients(self) -> np.ndarray:
        """Bernstein coefficients (read-only)."""
        return self._coefficients

    @property
    def degree(self) -> int:
        """Bernstein degree ``n``."""
        return self._coefficients.size - 1

    def __call__(self, x: ArrayLike) -> ArrayLike:
        """Evaluate Eq. 1 at *x* (de Casteljau for numerical stability)."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        # de Casteljau: repeated convex combination of the coefficients.
        beta = np.broadcast_to(
            self._coefficients[:, None], (self._coefficients.size, x.size)
        ).copy()
        for r in range(self.degree):
            beta = beta[:-1] * (1.0 - x) + beta[1:] * x
        result = beta[0]
        if scalar:
            return float(result[0])
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, BernsteinPolynomial):
            return NotImplemented
        return self._coefficients.shape == other._coefficients.shape and bool(
            np.allclose(self._coefficients, other._coefficients)
        )

    def __repr__(self) -> str:
        terms = ", ".join(f"{c:g}" for c in self._coefficients)
        return f"BernsteinPolynomial([{terms}])"

    # -- SC implementability ---------------------------------------------------

    def is_sc_implementable(self, tolerance: float = 1e-12) -> bool:
        """True when every coefficient is a probability (in ``[0, 1]``)."""
        return bool(
            np.all(self._coefficients >= -tolerance)
            and np.all(self._coefficients <= 1.0 + tolerance)
        )

    def elevated(self, times: int = 1) -> "BernsteinPolynomial":
        """Degree-elevated copy (same function, degree ``n + times``)."""
        if times < 0:
            raise ConfigurationError(f"times must be >= 0, got {times!r}")
        coeffs = self._coefficients
        for _ in range(times):
            coeffs = degree_elevation(coeffs)
        return BernsteinPolynomial(coeffs)

    def elevated_until_implementable(
        self, max_degree: int = 64
    ) -> "BernsteinPolynomial":
        """Elevate until all coefficients land in ``[0, 1]``.

        Degree elevation contracts the coefficients toward the function's
        range; if the function maps ``[0,1]`` into ``[0,1]`` strictly, a
        finite elevation always succeeds.  Raises
        :class:`DesignInfeasibleError` when *max_degree* is reached first.
        """
        current = self
        while not current.is_sc_implementable():
            if current.degree >= max_degree:
                raise DesignInfeasibleError(
                    "coefficients still outside [0, 1] at degree "
                    f"{current.degree}; the function likely leaves [0, 1]"
                )
            current = current.elevated()
        return current

    # -- conversions -------------------------------------------------------------

    def to_power(self) -> PowerPolynomial:
        """Convert to the power basis."""
        return PowerPolynomial(bernstein_to_power(self._coefficients))

    @classmethod
    def from_power(
        cls, polynomial: Union[PowerPolynomial, Sequence[float]]
    ) -> "BernsteinPolynomial":
        """Exact basis conversion from power form (same degree)."""
        if isinstance(polynomial, PowerPolynomial):
            coefficients = polynomial.coefficients
        else:
            coefficients = np.asarray(list(polynomial), dtype=float)
        return cls(power_to_bernstein(coefficients))

    @classmethod
    def from_function(
        cls,
        function: Callable[[np.ndarray], np.ndarray],
        degree: int,
        method: str = "least_squares",
        samples: int = 513,
    ) -> "BernsteinPolynomial":
        """Approximate an arbitrary continuous function on ``[0, 1]``.

        ``method="operator"`` uses the Bernstein operator
        (``b_i = f(i/n)``): uniformly convergent and automatically
        SC-implementable for ``f([0,1]) ⊆ [0,1]``, but only first-order
        accurate.  ``method="least_squares"`` solves the *bounded*
        least-squares problem with ``0 <= b_i <= 1`` (the approach of
        Qian et al. [9]), so the result is SC-implementable by
        construction while being markedly more accurate than the
        operator.
        """
        if degree < 0:
            raise ConfigurationError(f"degree must be >= 0, got {degree!r}")
        if method == "operator":
            nodes = np.arange(degree + 1) / max(degree, 1)
            values = np.asarray(function(nodes), dtype=float)
            return cls(values)
        if method == "least_squares":
            if samples < degree + 1:
                raise ConfigurationError(
                    f"a degree-{degree} fit needs at least {degree + 1} "
                    f"samples, got {samples!r}"
                )
            grid = np.linspace(0.0, 1.0, samples)
            basis = np.stack(
                [bernstein_basis(i, degree, grid) for i in range(degree + 1)],
                axis=1,
            )
            target = np.asarray(function(grid), dtype=float)
            return cls(_unit_box_lstsq(basis, target))
        raise ConfigurationError(f"unknown method {method!r}")


def _unit_box_lstsq(matrix: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Minimize ``||matrix @ b - target||`` subject to ``0 <= b <= 1``.

    Primal active-set method for the bounded least-squares problem: fix
    the variables in the working set at their bounds, solve the rest
    unconstrained, and either step toward that solution until a free
    variable hits a bound (which joins the working set) or, when the
    solution is feasible, release the bound variable whose Lagrange
    multiplier has the wrong sign.  No step raises the objective, so the
    loop ends at the KKT point; the iteration cap only guards against
    cycling on degenerate ties.  Variables at a bound are exactly 0 or 1.
    """
    x = np.clip(np.linalg.lstsq(matrix, target, rcond=None)[0], 0.0, 1.0)
    bound = (x == 0.0) | (x == 1.0)
    scale = np.abs(matrix).sum() * (np.abs(target).max(initial=0.0) + 1.0)
    tolerance = 1e-13 * scale
    for _ in range(10 * (x.size + 1) ** 2):
        free = ~bound
        residual = target - matrix[:, bound] @ x[bound]
        step = np.linalg.lstsq(matrix[:, free], residual, rcond=None)[0]
        outside = (step < 0.0) | (step > 1.0)
        if outside.any():
            # Walk from x toward the free solution until the first bound.
            current = x[free]
            limit = np.where(step < 0.0, 0.0, 1.0)
            toward = step - current
            ratios = np.full(current.shape, np.inf)
            ratios[outside] = (limit - current)[outside] / toward[outside]
            alpha = ratios.min()
            blocking = outside & (ratios <= alpha)
            moved = current + alpha * toward
            moved[blocking] = limit[blocking]
            x[free] = np.clip(moved, 0.0, 1.0)
            bound[np.flatnonzero(free)[blocking]] = True
            continue
        x[free] = step
        # Multipliers of the active bounds: a lower bound is right while
        # the gradient there is >= 0, an upper bound while it is <= 0.
        gradient = matrix.T @ (matrix @ x - target)
        wrong = np.where(x == 0.0, -gradient, gradient)
        wrong[~bound] = 0.0
        worst = int(np.argmax(wrong))
        if wrong[worst] <= tolerance:
            return x
        bound[worst] = False
    raise DesignInfeasibleError(  # pragma: no cover - degenerate cycling
        "bounded least-squares fit did not converge"
    )


def power_to_bernstein(power_coefficients: Sequence[float]) -> np.ndarray:
    """Exact power-to-Bernstein conversion (same degree).

    ``b_i = sum_{k=0}^{i} [C(i,k) / C(n,k)] a_k``

    Reproduces the paper's Fig. 1(b) example: ``f1`` with power
    coefficients (1/4, 9/8, -15/8, 5/4) maps to (2/8, 5/8, 3/8, 6/8).
    """
    a = np.asarray(list(power_coefficients), dtype=float)
    if a.ndim != 1 or a.size == 0:
        raise ConfigurationError("need a non-empty 1-D coefficient list")
    n = a.size - 1
    b = np.zeros(n + 1)
    for i in range(n + 1):
        for k in range(i + 1):
            b[i] += comb(i, k) / comb(n, k) * a[k]
    return b


def bernstein_to_power(bernstein_coefficients: Sequence[float]) -> np.ndarray:
    """Exact Bernstein-to-power conversion (inverse of
    :func:`power_to_bernstein`).

    ``a_k = C(n,k) * sum_{i=0}^{k} (-1)^(k-i) C(k,i) b_i``
    """
    b = np.asarray(list(bernstein_coefficients), dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ConfigurationError("need a non-empty 1-D coefficient list")
    n = b.size - 1
    a = np.zeros(n + 1)
    for k in range(n + 1):
        total = 0.0
        for i in range(k + 1):
            total += (-1) ** (k - i) * comb(k, i) * b[i]
        a[k] = comb(n, k) * total
    return a


def degree_elevation(bernstein_coefficients: Sequence[float]) -> np.ndarray:
    """One step of Bernstein degree elevation (``n -> n + 1``).

    ``b'_i = (i / (n+1)) b_{i-1} + (1 - i/(n+1)) b_i`` with the
    conventions ``b_{-1} = b_{n+1} = 0``.  The represented function is
    unchanged; the coefficients move toward the function's value range.
    """
    b = np.asarray(list(bernstein_coefficients), dtype=float)
    if b.ndim != 1 or b.size == 0:
        raise ConfigurationError("need a non-empty 1-D coefficient list")
    n = b.size - 1
    elevated = np.zeros(n + 2)
    for i in range(n + 2):
        left = b[i - 1] if 1 <= i <= n + 1 else 0.0
        right = b[i] if i <= n else 0.0
        weight = i / (n + 1)
        elevated[i] = weight * left + (1.0 - weight) * right
    return elevated
