"""Polynomial arithmetic and interpolation against direct-evaluation oracles."""

import pytest

from trustmesh.groups import Scalar
from trustmesh.polynomials import (
    Polynomial,
    interpolate_at,
    interpolate_polynomial,
    lagrange_coefficient,
    random_polynomial,
)
from trustmesh.rng import SeededRng


def poly(backend, coeffs):
    return Polynomial(tuple(backend.scalar(c) for c in coeffs))


def eval_oracle(coeffs, x, q):
    """Plain-int evaluation, independent of the Polynomial code path."""
    return sum(c * pow(x, i, q) for i, c in enumerate(coeffs)) % q


class TestPolynomial:
    def test_constant_term_pin(self, backend, rng):
        p = random_polynomial(backend.scalar(5), 2, rng)
        assert p.evaluate(0) == backend.scalar(5)
        assert p.degree == 2

    def test_degree_zero_rejected(self, backend, rng):
        with pytest.raises(ValueError):
            random_polynomial(backend.scalar(5), 0, rng)

    def test_same_seed_same_coefficients(self, backend):
        p1 = random_polynomial(backend.scalar(9), 3, SeededRng(5))
        p2 = random_polynomial(backend.scalar(9), 3, SeededRng(5))
        assert p1.coefficients == p2.coefficients

    def test_worked_example_values(self, ed25519):
        # f(x) = 5 + 2x + 4x^2
        p = poly(ed25519, [5, 2, 4])
        assert p.evaluate(1).value == 11
        assert p.evaluate(2).value == 25
        assert p.evaluate(3).value == 47
        assert p.evaluate(4).value == 77

    def test_trailing_zeros_do_not_change_evaluation(self, backend):
        p1 = poly(backend, [3, 4])
        p2 = poly(backend, [3, 4, 0, 0])
        for x in range(6):
            assert p1.evaluate(x) == p2.evaluate(x)
        assert p2.degree == 3

    def test_evaluation_matches_oracle_randomized(self, backend):
        rng = SeededRng(f"poly-oracle-{backend.name}")
        q = backend.order
        for _ in range(50):
            coeffs = [rng.randbelow(q) for _ in range(1 + rng.randbelow(5))]
            p = poly(backend, coeffs)
            x = rng.randbelow(min(q, 1000))
            assert p.evaluate(x).value == eval_oracle(coeffs, x, q)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Polynomial(())


class TestLagrange:
    def test_single_point_weight_is_one(self, backend):
        lam = lagrange_coefficient(1, {1}, backend.scalar(0))
        assert lam == backend.scalar(1)

    def test_pair_weight_toy(self, toy):
        # (0 - 2) / (1 - 2) = 2 mod 11
        assert lagrange_coefficient(1, {1, 2}, toy.scalar(0)).value == 2

    def test_weighted_sum_recovers_secret_toy(self, toy):
        p = poly(toy, [5, 2, 4])
        total = 0
        for i in (1, 2, 3):
            lam = lagrange_coefficient(i, (1, 2, 3), toy.scalar(0))
            total = (total + lam.value * eval_oracle([5, 2, 4], i, 11)) % 11
        assert total == 5

    def test_interpolation_identity_randomized(self, backend):
        rng = SeededRng(f"lagrange-{backend.name}")
        q = backend.order
        for _ in range(25):
            size = 2 + rng.randbelow(4)
            coalition = sorted(rng.sample(range(1, 10), size))
            coeffs = [rng.randbelow(q) for _ in range(size)]  # degree < |coalition|
            x = rng.randbelow(50)
            expected = eval_oracle(coeffs, x, q)
            total = 0
            for i in coalition:
                lam = lagrange_coefficient(i, coalition, backend.scalar(x))
                total = (total + lam.value * eval_oracle(coeffs, i, q)) % q
            assert total == expected

    def test_power_sum_identity(self, backend):
        # interpolating f(x) = x^k through the coalition must return x^k
        q = backend.order
        coalition = (1, 2, 3, 4)
        for k in range(len(coalition)):
            for x in (0, 5, 7):
                total = 0
                for i in coalition:
                    lam = lagrange_coefficient(i, coalition, backend.scalar(x))
                    total = (total + lam.value * pow(i, k, q)) % q
                assert total == pow(x, k, q)

    def test_invalid_inputs(self, backend):
        zero = backend.scalar(0)
        with pytest.raises(ValueError):
            lagrange_coefficient(3, {1, 2}, zero)
        with pytest.raises(ValueError):
            lagrange_coefficient(1, [1, 1, 2], zero)
        with pytest.raises(ValueError):
            lagrange_coefficient(1, [0, 1], zero)


class TestInterpolateAt:
    def test_quadratic_example(self, ed25519):
        pts = [(1, ed25519.scalar(11)), (2, ed25519.scalar(25)), (3, ed25519.scalar(47))]
        assert interpolate_at(pts, ed25519.scalar(0)).value == 5

    def test_other_quadratic_example(self, ed25519):
        # f(x) = 20x^2 - 2x + 10: f(1)=28, f(2)=86, f(3)=184
        pts = [(1, ed25519.scalar(28)), (2, ed25519.scalar(86)), (3, ed25519.scalar(184))]
        assert interpolate_at(pts, ed25519.scalar(0)).value == 10

    def test_single_constant_point(self, backend):
        c = backend.scalar(7)
        for x in (0, 3, 9):
            assert interpolate_at([(1, c)], backend.scalar(x)) == c

    def test_duplicate_ids_rejected(self, backend):
        pts = [(1, backend.scalar(1)), (1, backend.scalar(2))]
        with pytest.raises(ValueError):
            interpolate_at(pts, backend.scalar(0))

    def test_ids_equal_mod_q_rejected(self, toy):
        # 12 = 1 mod 11: the two points share an x-coordinate, so no
        # polynomial passes through both (the Fermat inverse of 0 returned 0)
        pts = [(1, toy.scalar(3)), (12, toy.scalar(5))]
        with pytest.raises(ValueError, match="duplicate participant ids"):
            interpolate_at(pts, toy.scalar(0))
        with pytest.raises(ValueError, match="duplicate participant ids"):
            interpolate_polynomial(pts)
        with pytest.raises(ValueError, match="duplicate participant ids"):
            lagrange_coefficient(1, [1, 12], toy.scalar(0))
        with pytest.raises(ValueError, match="reserved"):
            lagrange_coefficient(1, [1, 11], toy.scalar(0))

    def test_point_at_id_zero_rejected(self, backend):
        # id 0 (or any id equal to it mod q) is where the secret lives
        for zero in (0, backend.order):
            pts = [(zero, backend.scalar(5)), (1, backend.scalar(7))]
            with pytest.raises(ValueError, match="reserved"):
                interpolate_at(pts, backend.scalar(3))
            with pytest.raises(ValueError, match="reserved"):
                interpolate_polynomial(pts)

    def test_recovers_constant_from_any_subset(self, backend):
        rng = SeededRng(f"interp-{backend.name}")
        q = backend.order
        for _ in range(20):
            degree = 1 + rng.randbelow(5)
            coeffs = [rng.randbelow(q) for _ in range(degree + 1)]
            ids = sorted(rng.sample(range(1, 10), degree + 1))
            pts = [(i, backend.scalar(eval_oracle(coeffs, i, q))) for i in ids]
            assert interpolate_at(pts, backend.scalar(0)).value == coeffs[0]


class TestInterpolatePolynomial:
    def test_round_trip(self, backend):
        rng = SeededRng(f"interp-poly-{backend.name}")
        q = backend.order
        for _ in range(10):
            degree = 1 + rng.randbelow(4)
            coeffs = [rng.randbelow(q) for _ in range(degree + 1)]
            pts = [(i, backend.scalar(eval_oracle(coeffs, i, q))) for i in range(1, degree + 2)]
            recovered = interpolate_polynomial(pts)
            assert [c.value for c in recovered.coefficients] == coeffs
