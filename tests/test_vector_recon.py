import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    REFERENCE_B_GAUSS,
    REFERENCE_CONE_ANGLES_DEG,
    REFERENCE_FIELD_DIRECTION_DEG,
    REFERENCE_ORIENTATIONS_DEG,
    axis_from_degrees,
)
from nvvortex.errors import DegenerateAxes, NoSolution
from nvvortex.pattern import NVOrientation
from nvvortex.vector_recon import (
    ConeConstraint,
    _unit_sphere_lstsq,
    aggregate_magnitude,
    solve_direction,
    triangle_diagnostic,
)

TETRAHEDRAL_AXES = [
    np.array([0.0, 0.0, 1.0]),
    np.array([math.sin(math.acos(-1 / 3)), 0.0, -1 / 3]),
    np.array(
        [
            math.sin(math.acos(-1 / 3)) * math.cos(2 * math.pi / 3),
            math.sin(math.acos(-1 / 3)) * math.sin(2 * math.pi / 3),
            -1 / 3,
        ]
    ),
    np.array(
        [
            math.sin(math.acos(-1 / 3)) * math.cos(4 * math.pi / 3),
            math.sin(math.acos(-1 / 3)) * math.sin(4 * math.pi / 3),
            -1 / 3,
        ]
    ),
]


def cones_for_field(b_hat, axes, b_mag=50.0):
    return [
        ConeConstraint(
            axis=NVOrientation.from_vector(a),
            alpha=math.acos(float(np.clip(a @ b_hat, -1.0, 1.0))),
            b=b_mag,
        )
        for a in axes
    ]


def reference_constraints(with_sigmas=False):
    out = []
    for (t, p), alpha, b in zip(
        REFERENCE_ORIENTATIONS_DEG[1:], REFERENCE_CONE_ANGLES_DEG, REFERENCE_B_GAUSS
    ):
        out.append(
            ConeConstraint(
                axis=NVOrientation.from_degrees(t, p),
                alpha=math.radians(alpha),
                b=b,
                alpha_sigma=math.radians(0.02) if with_sigmas else 0.0,
            )
        )
    return out


def random_unit_axes(rng, n):
    while True:
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        if np.linalg.cond(axes) < 1e3:
            return axes


@pytest.fixture(scope="module")
def sphere_sample():
    """200,000 near-uniform unit vectors (Fibonacci lattice)."""
    k = np.arange(200_000) + 0.5
    z = 1.0 - 2.0 * k / k.size
    azimuth = math.pi * (1.0 + math.sqrt(5.0)) * k
    rho = np.sqrt(1.0 - z * z)
    return np.stack([rho * np.cos(azimuth), rho * np.sin(azimuth), z], axis=1)


def direction_error_deg(result, b_hat):
    primary = abs(math.degrees(math.acos(np.clip(result.direction @ b_hat, -1, 1))))
    mirror = 180.0 - primary
    return min(primary, mirror)


class TestConstraintType:
    def test_validation(self):
        with pytest.raises(ValueError):
            ConeConstraint(axis=NVOrientation(0.1, 0.1), alpha=-0.1, b=10.0)
        with pytest.raises(ValueError):
            ConeConstraint(axis=NVOrientation(0.1, 0.1), alpha=1.0, b=-5.0)


class TestSolveDirection:
    def test_orthogonal_axes_trivial_solution(self):
        cons = [
            ConeConstraint(axis=NVOrientation.from_vector(v), alpha=a, b=10.0)
            for v, a in [
                ([1, 0, 0], math.pi / 2),
                ([0, 1, 0], math.pi / 2),
                ([0, 0, 1], 0.0),
            ]
        ]
        result = solve_direction(cons)
        assert np.allclose(result.direction, [0, 0, 1], atol=1e-12)
        assert result.residual < 1e-14

    def test_needs_three_constraints(self):
        with pytest.raises(ValueError):
            solve_direction(reference_constraints()[:2])

    def test_reference_reconstruction(self):
        result = solve_direction(reference_constraints())
        target = axis_from_degrees(*REFERENCE_FIELD_DIRECTION_DEG)
        assert direction_error_deg(result, target) < 1.0
        assert result.branch_flipped == (False, False, False)
        assert result.residual <= 1e-3
        assert math.degrees(result.triangle_spread) < 1.3
        assert result.b_mean == pytest.approx(59.52, abs=0.01)

    def test_mirror_is_antipode(self):
        result = solve_direction(reference_constraints())
        assert result.mirror[0] == pytest.approx(math.pi - result.theta_b, abs=1e-12)
        assert result.mirror[1] == pytest.approx(
            (result.phi_b + math.pi) % (2 * math.pi), abs=1e-12
        )

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25)
    def test_exact_recovery_from_tetrahedral_axes(self, seed):
        rng = np.random.default_rng(seed)
        b_hat = rng.normal(size=3)
        b_hat /= np.linalg.norm(b_hat)
        result = solve_direction(cones_for_field(b_hat, TETRAHEDRAL_AXES))
        assert result.residual < 1e-14
        # chord distance ~ angle for small separations; acos saturates
        # at its ~1.5e-8 precision floor and cannot resolve this
        err = min(
            np.linalg.norm(result.direction - b_hat),
            np.linalg.norm(result.direction + b_hat),
        )
        assert err < 1e-8

    def test_exact_three_cone_triangle_collapses(self):
        b_hat = np.array([0.2, -0.5, 0.84])
        b_hat /= np.linalg.norm(b_hat)
        result = solve_direction(cones_for_field(b_hat, TETRAHEDRAL_AXES[:3]))
        assert result.triangle_spread < 1e-8
        assert len(result.triangle_vertices) == 3

    def test_antipodal_pairing(self):
        cons = reference_constraints()
        flipped = [
            ConeConstraint(axis=c.axis, alpha=math.pi - c.alpha, b=c.b) for c in cons
        ]
        a = solve_direction(cons)
        b = solve_direction(flipped)
        # flipping every cone returns the mirror solution; the flipped
        # inputs are themselves consistent, so no branch flips are needed
        # (azimuth tolerance is wider: d(phi) ~ d(direction) / sin(theta))
        assert np.allclose(b.direction, -a.direction, atol=1e-9)
        assert b.branch_flipped == (False, False, False)
        assert b.theta_b == pytest.approx(a.mirror[0], abs=1e-9)
        assert b.phi_b == pytest.approx(a.mirror[1], abs=1e-7)

    def test_returned_residual_is_branch_minimum(self):
        # flip one input cone: the solver must find the flip and land on
        # the same field direction with the same residual
        cons = reference_constraints()
        altered = [
            ConeConstraint(
                axis=c.axis,
                alpha=(math.pi - c.alpha) if i == 1 else c.alpha,
                b=c.b,
            )
            for i, c in enumerate(cons)
        ]
        base = solve_direction(cons)
        moved = solve_direction(altered)
        assert moved.branch_flipped == (False, True, False)
        assert np.allclose(moved.direction, base.direction, atol=1e-9)
        assert moved.residual == pytest.approx(base.residual, rel=1e-9)

    def test_rotation_equivariance(self):
        rng = np.random.default_rng(77)
        b_hat = rng.normal(size=3)
        b_hat /= np.linalg.norm(b_hat)
        # random rotation via QR with positive determinant
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        axes = TETRAHEDRAL_AXES[:3]
        base = solve_direction(cones_for_field(b_hat, axes))
        rotated = solve_direction(cones_for_field(q @ b_hat, [q @ a for a in axes]))
        err = math.acos(
            np.clip(abs(rotated.direction @ (q @ base.direction)), -1, 1)
        )
        assert err < 1e-7

    def test_four_axes_least_squares_path(self):
        b_hat = np.array([0.3, 0.1, 0.95])
        b_hat /= np.linalg.norm(b_hat)
        result = solve_direction(cones_for_field(b_hat, TETRAHEDRAL_AXES))
        assert len(result.branch_flipped) == 4
        assert result.triangle_vertices is None

    def test_degenerate_axes_rejected(self):
        near = [
            [0.0, 0.0, 1.0],
            [1e-9, 0.0, 1.0],
            [0.0, 1e-9, 1.0],
        ]
        cons = [
            ConeConstraint(axis=NVOrientation.from_vector(v), alpha=0.5, b=10.0)
            for v in near
        ]
        with pytest.raises(DegenerateAxes):
            solve_direction(cons)

    def test_inconsistent_cones_hit_residual_gate(self):
        cons = [
            ConeConstraint(
                axis=NVOrientation.from_vector(v), alpha=math.radians(5.0), b=10.0
            )
            for v in ([1, 0, 0], [0, 1, 0], [0, 0, 1])
        ]
        with pytest.raises(NoSolution):
            solve_direction(cons)

    def test_monotone_noise_response(self):
        rng = np.random.default_rng(123)
        b_hat = np.array([0.25, -0.4, 0.88])
        b_hat /= np.linalg.norm(b_hat)
        axes = TETRAHEDRAL_AXES[:3]
        mean_errors = []
        for scale in (0.002, 0.01, 0.05):
            errs = []
            for _ in range(60):
                cons = [
                    ConeConstraint(
                        axis=NVOrientation.from_vector(a),
                        alpha=float(
                            np.clip(
                                math.acos(np.clip(a @ b_hat, -1, 1))
                                + rng.normal(0.0, scale),
                                0.0,
                                math.pi,
                            )
                        ),
                        b=50.0,
                    )
                    for a in axes
                ]
                errs.append(direction_error_deg(solve_direction(cons), b_hat))
            mean_errors.append(np.mean(errs))
        assert mean_errors[0] <= mean_errors[1] <= mean_errors[2]

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("kind", ["consistent", "noisy", "inconsistent"])
    def test_branch_optimum_is_exact(self, n, kind, sphere_sample):
        # KKT certificate of the constrained least-squares optimum, and a
        # dense sphere sample over every branch assignment as an oracle
        rng = np.random.default_rng([n, len(kind)])
        for _ in range(4):
            axes = random_unit_axes(rng, n)
            b_hat = rng.normal(size=3)
            b_hat /= np.linalg.norm(b_hat)
            alphas = np.arccos(np.clip(axes @ b_hat, -1.0, 1.0))
            if kind == "noisy":
                alphas = np.clip(alphas + rng.normal(0.0, 0.05, n), 0.0, math.pi)
            elif kind == "inconsistent":
                alphas = rng.uniform(0.0, math.pi, n)
            cons = [
                ConeConstraint(axis=NVOrientation.from_vector(a), alpha=al, b=1.0)
                for a, al in zip(axes, alphas)
            ]
            result = solve_direction(
                cons, residual_gate=math.inf, bootstrap_samples=0
            )
            used = np.stack([c.axis.unit_axis for c in cons])
            base_cos = np.cos(alphas)
            cosines = np.where(result.branch_flipped, -base_cos, base_cos)
            gram, rhs, b = used.T @ used, used.T @ cosines, result.direction
            lam = b @ gram @ b - b @ rhs
            assert np.linalg.norm(gram @ b - lam * b - rhs) <= 1e-11
            assert lam <= np.linalg.eigvalsh(gram)[0] + 1e-9
            oracle = np.square(
                np.abs(sphere_sample @ used.T) - np.abs(base_cos)
            ).sum(axis=1)
            assert result.residual <= oracle.min()

    @pytest.mark.parametrize("seed", [None, 1, 2, 3, 4, 5, 6])
    def test_hard_case(self, seed):
        # cosines whose normal-equation right side has no component along
        # the smallest eigenvector v0 put the multiplier at e0 itself:
        # the minimiser is w + t v0 with |w| < 1 fixed by the other
        # components and t filling the unit norm
        if seed is None:  # exact zeros: the bisection collapses onto e0
            axes = np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, 0],
                             [0, 0, 1], [0, 0, 1], [0, 0, 1]])
            w = np.array([0.0, 0.5, 0.5])
        else:
            rng = np.random.default_rng(seed)
            axes = random_unit_axes(rng, 3 + seed % 3)
            w = rng.normal(size=3)
            w *= rng.uniform(0.05, 0.95) / np.linalg.norm(w)
        gram = axes.T @ axes
        e, vecs = np.linalg.eigh(gram)
        v0 = vecs[:, 0]
        w -= (w @ v0) * v0
        # normal equations gram b = (gram - e0) w, whose right side is
        # orthogonal to v0
        h_inv_w = np.linalg.solve(gram, w)
        b, residual = _unit_sphere_lstsq(axes, axes @ (w - e[0] * h_inv_w))
        assert residual == pytest.approx(
            (1.0 - w @ w) * e[0] + e[0] ** 2 * (w @ h_inv_w), abs=1e-12
        )
        assert abs(np.linalg.norm(b) - 1.0) < 1e-15
        assert np.allclose(b - (b @ v0) * v0, w, atol=1e-9)

    def test_bootstrap_sigma_deterministic(self):
        a = solve_direction(reference_constraints(with_sigmas=True), seed=5)
        b = solve_direction(reference_constraints(with_sigmas=True), seed=5)
        assert a.direction_sigma == b.direction_sigma
        assert a.direction_sigma > 0.0


class TestAggregateMagnitude:
    def test_arithmetic_mean_of_reference_values(self):
        cons = reference_constraints()
        mean, std = aggregate_magnitude(cons)
        # (59.53 + 59.48 + 59.56) / 3, computed independently
        assert mean == pytest.approx(59.523333333333333, abs=1e-12)
        assert std == pytest.approx(0.04041451884327381, abs=1e-12)

    def test_single_value(self):
        mean, std = aggregate_magnitude(reference_constraints()[:1])
        assert mean == 59.53
        assert std == 0.0

    def test_identical_values_zero_std(self):
        cons = [
            ConeConstraint(axis=NVOrientation(0.5, i), alpha=1.0, b=42.0)
            for i in range(3)
        ]
        assert aggregate_magnitude(cons) == (42.0, 0.0)

    def test_inverse_variance_weighting(self):
        cons = [
            ConeConstraint(axis=NVOrientation(0.5, 0.0), alpha=1.0, b=10.0,
                           b_sigma=1.0),
            ConeConstraint(axis=NVOrientation(0.5, 1.0), alpha=1.0, b=20.0,
                           b_sigma=2.0),
        ]
        mean, _ = aggregate_magnitude(cons)
        assert mean == pytest.approx((10.0 / 1.0 + 20.0 / 4.0) / (1.0 + 0.25))


class TestTriangleDiagnostic:
    def test_exact_constraints_collapse_to_point(self):
        b_hat = np.array([0.1, 0.2, 0.97])
        b_hat /= np.linalg.norm(b_hat)
        diag = triangle_diagnostic(cones_for_field(b_hat, TETRAHEDRAL_AXES[:3]))
        assert diag.spread < 1e-8
        assert not diag.errors

    def test_reference_spread_within_bound(self):
        diag = triangle_diagnostic(reference_constraints())
        assert math.degrees(diag.spread) < 1.3
        assert math.degrees(diag.spread) > 0.5  # real data: a genuine triangle

    def test_requires_exactly_three(self):
        with pytest.raises(ValueError):
            triangle_diagnostic(cones_for_field(np.array([0, 0, 1.0]),
                                                TETRAHEDRAL_AXES))
