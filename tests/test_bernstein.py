"""Tests for Bernstein polynomial machinery (paper Eq. 1)."""

from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import lsq_linear
from scipy.special import comb as scipy_comb

from repro.errors import ConfigurationError, DesignInfeasibleError
from repro.stochastic import (
    BernsteinPolynomial,
    PowerPolynomial,
    bernstein_basis,
    degree_elevation,
    power_to_bernstein,
)
from repro.stochastic.bernstein import _unit_box_lstsq, bernstein_to_power
from repro.stochastic.polynomial import PAPER_EXAMPLE_F1

unit_floats = st.floats(min_value=0.0, max_value=1.0)
coefficient_lists = st.lists(
    st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=8
)


class TestBasis:
    @given(x=unit_floats)
    def test_partition_of_unity(self, x):
        n = 5
        total = sum(bernstein_basis(i, n, x) for i in range(n + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    @given(x=unit_floats)
    def test_non_negative_on_unit_interval(self, x):
        for i in range(4):
            assert bernstein_basis(i, 3, x) >= -1e-15

    def test_binomial_pmf_identity(self):
        # B_{k,n}(x) is the Binomial(n, x) pmf at k - the fact that makes
        # the ReSC adder+mux compute Eq. 1.
        from scipy.stats import binom

        x, n = 0.3, 6
        for k in range(n + 1):
            assert bernstein_basis(k, n, x) == pytest.approx(
                binom.pmf(k, n, x)
            )

    def test_math_comb_matches_scipy(self):
        for n in range(40):
            for k in range(n + 1):
                assert comb(n, k) == scipy_comb(n, k, exact=True)

    def test_index_validation(self):
        with pytest.raises(ConfigurationError):
            bernstein_basis(4, 3, 0.5)
        with pytest.raises(ConfigurationError):
            bernstein_basis(-1, 3, 0.5)


class TestPaperExample:
    """The Fig. 1(b) golden example ties the whole pipeline together."""

    def test_power_to_bernstein_gives_paper_coefficients(self):
        b = power_to_bernstein(PAPER_EXAMPLE_F1.coefficients)
        np.testing.assert_allclose(b, [2 / 8, 5 / 8, 3 / 8, 6 / 8])

    def test_value_at_half(self):
        # f1(0.5) = 1/4 + 9/16 - 15/32 + 5/32 = 0.5
        poly = BernsteinPolynomial.from_power(PAPER_EXAMPLE_F1)
        assert poly(0.5) == pytest.approx(0.5)

    def test_agrees_with_power_form_everywhere(self):
        poly = BernsteinPolynomial.from_power(PAPER_EXAMPLE_F1)
        xs = np.linspace(0, 1, 101)
        np.testing.assert_allclose(poly(xs), PAPER_EXAMPLE_F1(xs), atol=1e-12)

    def test_is_sc_implementable(self):
        poly = BernsteinPolynomial.from_power(PAPER_EXAMPLE_F1)
        assert poly.is_sc_implementable()


class TestConversions:
    @given(coeffs=coefficient_lists)
    def test_roundtrip_power_bernstein_power(self, coeffs):
        back = bernstein_to_power(power_to_bernstein(coeffs))
        np.testing.assert_allclose(back, coeffs, atol=1e-8)

    @given(coeffs=coefficient_lists, x=unit_floats)
    def test_conversion_preserves_values(self, coeffs, x):
        power = PowerPolynomial(coeffs)
        bern = BernsteinPolynomial.from_power(power)
        assert bern(x) == pytest.approx(power(x), abs=1e-8)

    def test_to_power_inverse(self):
        bern = BernsteinPolynomial([0.25, 0.625, 0.375, 0.75])
        power = bern.to_power()
        np.testing.assert_allclose(
            power.coefficients, PAPER_EXAMPLE_F1.coefficients, atol=1e-12
        )


class TestDegreeElevation:
    @given(coeffs=coefficient_lists, x=unit_floats)
    def test_elevation_preserves_function(self, coeffs, x):
        poly = BernsteinPolynomial(coeffs)
        elevated = poly.elevated(times=2)
        assert elevated.degree == poly.degree + 2
        assert elevated(x) == pytest.approx(poly(x), abs=1e-9)

    def test_endpoint_interpolation_preserved(self):
        poly = BernsteinPolynomial([0.1, 0.9, 0.2])
        elevated = poly.elevated()
        assert elevated.coefficients[0] == pytest.approx(0.1)
        assert elevated.coefficients[-1] == pytest.approx(0.2)

    def test_elevation_repairs_out_of_range_coefficients(self):
        # x*(1-x)*4*0.9 has Bernstein coefficients above 1 at low degree
        # but is bounded by 0.9 on [0, 1].
        power = PowerPolynomial([0.0, 3.6, -3.6])
        bern = BernsteinPolynomial.from_power(power)
        assert not bern.is_sc_implementable()
        repaired = bern.elevated_until_implementable(max_degree=64)
        assert repaired.is_sc_implementable()
        xs = np.linspace(0, 1, 33)
        np.testing.assert_allclose(repaired(xs), power(xs), atol=1e-9)

    def test_elevation_gives_up_for_unbounded_functions(self):
        bern = BernsteinPolynomial.from_power(PowerPolynomial([0.0, 2.0]))
        with pytest.raises(DesignInfeasibleError):
            bern.elevated_until_implementable(max_degree=16)

    def test_degree_elevation_validates(self):
        with pytest.raises(ConfigurationError):
            degree_elevation([])


class TestFromFunction:
    def test_operator_is_implementable_for_unit_functions(self):
        poly = BernsteinPolynomial.from_function(
            lambda x: np.asarray(x) ** 0.45, 6, method="operator"
        )
        assert poly.is_sc_implementable()
        assert poly.degree == 6

    def test_operator_endpoint_interpolation(self):
        poly = BernsteinPolynomial.from_function(
            lambda x: np.asarray(x) ** 2, 4, method="operator"
        )
        assert poly(0.0) == pytest.approx(0.0)
        assert poly(1.0) == pytest.approx(1.0)

    def test_least_squares_more_accurate_than_operator(self):
        def target(x):
            return np.asarray(x) ** 0.45
        xs = np.linspace(0, 1, 201)
        op = BernsteinPolynomial.from_function(target, 6, method="operator")
        ls = BernsteinPolynomial.from_function(target, 6, method="least_squares")
        op_err = np.mean((op(xs) - target(xs)) ** 2)
        ls_err = np.mean((ls(xs) - target(xs)) ** 2)
        assert ls_err < op_err

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            BernsteinPolynomial.from_function(lambda x: x, 3, method="magic")

    def test_least_squares_needs_degree_plus_one_samples(self):
        for samples in (0, 1, 3):
            with pytest.raises(ConfigurationError):
                BernsteinPolynomial.from_function(
                    lambda x: x, 3, method="least_squares", samples=samples
                )
        fit = BernsteinPolynomial.from_function(
            lambda x: x, 3, method="least_squares", samples=4
        )
        assert np.allclose(fit.coefficients, [0.0, 1 / 3, 2 / 3, 1.0])

    def test_evaluation_shapes(self):
        poly = BernsteinPolynomial([0.2, 0.8])
        assert isinstance(poly(0.5), float)
        assert poly(np.array([0.0, 1.0])).shape == (2,)


@st.composite
def bounded_fit_problems(draw):
    degree = draw(st.integers(min_value=0, max_value=8))
    samples = draw(st.integers(min_value=degree + 1, max_value=48))
    target = draw(
        st.lists(
            st.floats(min_value=-0.5, max_value=1.5),
            min_size=samples,
            max_size=samples,
        )
    )
    grid = np.linspace(0.0, 1.0, samples)
    basis = np.stack(
        [bernstein_basis(i, degree, grid) for i in range(degree + 1)], axis=1
    )
    return basis, np.asarray(target)


class TestUnitBoxLeastSquares:
    """The bounded fit behind ``method="least_squares"``, with scipy's
    ``lsq_linear`` as a test-only oracle."""

    @given(problem=bounded_fit_problems())
    def test_feasible_kkt_and_no_worse_than_lsq_linear(self, problem):
        basis, target = problem
        b = _unit_box_lstsq(basis, target)
        assert np.all((b >= 0.0) & (b <= 1.0))

        # KKT: zero gradient on free coefficients, and the gradient
        # pushes each bound coefficient outward.
        gradient = basis.T @ (basis @ b - target)
        tolerance = 1e-9 * np.abs(basis).sum() * (np.abs(target).max() + 1.0)
        free = (b > 0.0) & (b < 1.0)
        assert np.all(np.abs(gradient[free]) <= tolerance)
        assert np.all(gradient[b == 0.0] >= -tolerance)
        assert np.all(gradient[b == 1.0] <= tolerance)

        def objective(x):
            return float(np.sum((basis @ x - target) ** 2))

        reference = np.clip(lsq_linear(basis, target, bounds=(0.0, 1.0)).x, 0, 1)
        # The absolute slack only matters when both fits are exact.
        assert objective(b) <= objective(reference) * (1 + 1e-9) + 1e-15

    def test_gamma_fit_matches_lsq_linear(self):
        grid = np.linspace(0.0, 1.0, 513)
        basis = np.stack([bernstein_basis(i, 6, grid) for i in range(7)], axis=1)
        target = grid**0.45
        reference = lsq_linear(basis, target, bounds=(0.0, 1.0)).x
        assert np.allclose(_unit_box_lstsq(basis, target), reference, atol=1e-8)
