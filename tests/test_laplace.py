"""Saddle-expansion tests.

The cubic one-vertex correction value was computed with the brute-force
Wick enumeration that saddle_expand itself performs at j <= 2, checked
here against an independent hand count of the contractions:
phase -t^2/2 + t^3/3, amplitude 1:
  j=2 vertices (1/2!)(1/3)^2 <t^6> = (1/2)(1/9)(15) hbar = 5/6 hbar.
"""

from fractions import Fraction as F

import pytest

from trq.algebra import HSeries
from trq.algebra import poly2 as P2
from trq.laplace import (
    SaddleError,
    SaddleProblem,
    check_extlaplace_airy,
    check_transform_inverse_airy,
    double_factorial_odd,
    saddle_expand,
)
from trq.recursion import OmegaStore, run_tr
from tests.test_wave import airy_curve


def gaussian_moments(a, k: int) -> HSeries:
    """Normalized even moment <t^{2k}> = (hbar/a)^k (2k-1)!! of the weight
    exp(-a t^2 / (2 hbar)); odd moments vanish.  The closed-form oracle of
    saddle_expand."""
    if not a:
        raise SaddleError("degenerate quadratic form")
    return HSeries.make({k: F(double_factorial_odd(k)) / a**k}, k)


class TestMoments:
    def test_zeroth(self):
        assert gaussian_moments(F(1), 0).coeffs == {0: F(1)}

    def test_first(self):
        assert gaussian_moments(F(1), 1).coeffs == {1: F(1)}

    def test_second_scaled(self):
        assert gaussian_moments(F(2), 2).coeffs == {2: F(3, 4)}

    def test_degenerate(self):
        with pytest.raises(SaddleError):
            gaussian_moments(F(0), 1)


class TestSaddleExpand:
    def test_pure_gaussian(self):
        prob = SaddleProblem([F(1)], {}, {(0,): F(1)})
        s = saddle_expand(prob, 3)
        assert s.coeffs == {0: F(1)}

    def test_quadratic_amplitude(self):
        prob = SaddleProblem([F(1)], {}, {(2,): F(1)})
        s = saddle_expand(prob, 2)
        assert s.coeffs == {1: F(1)}

    def test_cubic_vertex_oracle(self):
        prob = SaddleProblem([F(1)], {(3,): F(1, 3)}, {(0,): F(1)})
        s = saddle_expand(prob, 1)
        assert s.coeff(1) == F(5, 6)

    def test_odd_amplitude_vanishes(self):
        prob = SaddleProblem([F(1)], {}, {(1,): F(1), (3,): F(-2)})
        s = saddle_expand(prob, 3)
        assert s.is_zero()

    def test_moment_consistency(self):
        for k in range(5):
            prob = SaddleProblem([F(3)], {}, {(2 * k,): F(1)})
            assert saddle_expand(prob, k) == gaussian_moments(F(3), k)


class TestAiryExtLaplace:
    @pytest.fixture(scope="class")
    def store(self):
        return run_tr(airy_curve(), 2)

    def test_order_one(self, store):
        rep = check_extlaplace_airy(store, 1)
        assert rep.exponent_match
        assert rep.prefactor_constant == F(-1)
        assert rep.matches[1], "first correction mismatch"
        assert rep.passed

    def test_order_two_stretch(self, store):
        rep = check_extlaplace_airy(store, 2)
        assert rep.matches[2], "second correction mismatch"
        assert rep.passed

    def test_transform_inverse_identity(self):
        assert check_transform_inverse_airy()

    def test_takes_no_polynomial_gcd(self, store, monkeypatch):
        monkeypatch.setattr(P2, "p2_gcd", lambda a, b: pytest.fail("p2_gcd called"))
        assert check_extlaplace_airy(store, 2).passed
        assert check_transform_inverse_airy()

    def test_refuses_a_store_below_the_order(self, store):
        with pytest.raises(SaddleError, match="store covers chi <= 2, order 3 needs chi <= 3"):
            check_extlaplace_airy(store, 3)


class TestAiryExtLaplaceHigherOrders:
    @pytest.fixture(scope="class")
    def store(self):
        return run_tr(airy_curve(), 4)

    @pytest.mark.parametrize("order", [3, 4])
    def test_order(self, store, order):
        rep = check_extlaplace_airy(store, order)
        assert sorted(rep.matches) == list(range(1, order + 1))
        assert rep.passed, rep.matches

    def test_a_doubled_omega_fails_at_its_order(self, store):
        # omega_{2,1} enters log psi at hbar^3
        omegas = dict(store.omegas)
        omegas[(2, 1)] = omegas[(2, 1)].scale(2)
        rep = check_extlaplace_airy(OmegaStore(store.curve, omegas, store.chi_max), 3)
        assert rep.matches[1] and rep.matches[2]
        assert rep.matches[3] is False
        assert not rep.passed
