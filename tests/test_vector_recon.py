import dataclasses
import itertools
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
    bootstrap_direction_sigma,
)
from nvvortex.cli import bundled_fixture_path
from nvvortex.errors import DegenerateAxes, NoSolution
from nvvortex.fileio import load_constraints_json
from nvvortex.pattern import NVOrientation
from nvvortex.vector_recon import (
    MAX_CONSTRAINTS,
    ConeConstraint,
    _unit_sphere_lstsq,
    aggregate_magnitude,
    solve_direction,
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


def reference_constraints():
    out = []
    for (t, p), alpha, b in zip(
        REFERENCE_ORIENTATIONS_DEG[1:], REFERENCE_CONE_ANGLES_DEG, REFERENCE_B_GAUSS
    ):
        out.append(
            ConeConstraint(
                axis=NVOrientation.from_degrees(t, p),
                alpha=math.radians(alpha),
                b=b,
            )
        )
    return out


def random_unit_axes(rng, n, max_cond=1e3):
    while True:
        axes = rng.normal(size=(n, 3))
        axes /= np.linalg.norm(axes, axis=1, keepdims=True)
        if np.linalg.cond(axes) < max_cond:
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

    @pytest.mark.parametrize("name", ["alpha_sigma", "b_sigma"])
    def test_sigma_needs_a_finite_positive_inverse_variance(self, name):
        cone = dict(axis=NVOrientation(0.1, 0.1), alpha=1.0, b=10.0)
        # 1/sigma^2 is 1e308 at 1e-154 (sigma^2 is subnormal) and
        # 1e-308 at 1e154
        for sigma in (0.0, 1e-154, 1e154):
            ConeConstraint(**cone, **{name: sigma})
        # sigma^2 rounds to 0, 1/sigma^2 overflows, sigma^2 overflows
        for sigma in (1e-200, 1e-155, 1e155, 1e200):
            with pytest.raises(ValueError, match=f"^{name} must have"):
                ConeConstraint(**cone, **{name: sigma})


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
    def test_branch_optimum_is_exact(self, n, kind, sphere_sample, monkeypatch):
        monkeypatch.setattr("nvvortex.vector_recon.DEFAULT_RESIDUAL_GATE", math.inf)
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
            result = solve_direction(cons)
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
    def test_hard_case(self, seed, monkeypatch):
        monkeypatch.setattr("nvvortex.vector_recon.DEFAULT_RESIDUAL_GATE", math.inf)
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
        b, residual = _unit_sphere_lstsq(axes, (axes @ (w - e[0] * h_inv_w))[None])
        b, residual = b[0], residual[0]
        assert residual == pytest.approx(
            (1.0 - w @ w) * e[0] + e[0] ** 2 * (w @ h_inv_w), abs=1e-12
        )
        assert abs(np.linalg.norm(b) - 1.0) < 1e-15
        assert np.allclose(b - (b @ v0) * v0, w, atol=1e-9)
        # the same cones with sigmas: where the hard-case branch wins
        # (seeds None and 3), A^T A - lam I is singular
        cosines = axes @ (w - e[0] * h_inv_w)
        cons = [
            ConeConstraint(axis=NVOrientation.from_vector(a), b=1.0,
                           alpha=math.acos(np.clip(c, -1.0, 1.0)), alpha_sigma=0.01)
            for a, c in zip(axes, cosines)
        ]
        sigma = solve_direction(cons).direction_sigma
        assert sigma is None or math.isfinite(sigma)

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_batched_rows_match_one_row_solves(self, n):
        # one batch mixing consistent, noisy, inconsistent and hard-case
        # rows, so every row-wise branch of the solver runs beside others
        rng = np.random.default_rng(n)
        axes = random_unit_axes(rng, n)
        b_hat = rng.normal(size=3)
        b_hat /= np.linalg.norm(b_hat)
        exact = axes @ b_hat
        e, vecs = np.linalg.eigh(axes.T @ axes)
        w = 0.5 * vecs[:, 1]  # normal-equation right side orthogonal to v0
        hard = axes @ (w - e[0] * np.linalg.solve(axes.T @ axes, w))
        rows = np.vstack([
            exact,
            -exact,
            exact + rng.normal(0.0, 0.05, (12, n)),
            rng.uniform(-1.0, 1.0, (12, n)),
            hard,
            np.zeros(n),
        ])
        directions, residuals = _unit_sphere_lstsq(axes, rows)
        assert directions.shape == (len(rows), 3) and residuals.shape == (len(rows),)
        # each row makes the same floating-point operations as alone, so
        # the batch reproduces one-row solves to the bit
        for row, direction, residual in zip(rows, directions, residuals):
            one_b, one_r = _unit_sphere_lstsq(axes, row[None])
            assert np.array_equal(direction, one_b[0])
            assert residual == one_r[0]

    def test_hard_case_rows_beside_rows_still_bisecting(self):
        # exact hard-case rows (g_0 = 0) whose brackets collapse onto
        # u = 0 at different steps: a collapsed row is never evaluated
        # again, so no 0/0 arises while the others go on
        axes = np.array([[1.0, 0, 0], [0, 1, 0], [0, 1, 0],
                         [0, 0, 1], [0, 0, 1], [0, 0, 1]])
        gram = axes.T @ axes
        rows = np.array(
            [axes @ (w - np.linalg.solve(gram, w)) for w in
             (np.array([0.0, 0.1, 0.1]), np.array([0.0, 0.5, 0.5]))]
            + [np.zeros(6)]
        )
        directions, residuals = _unit_sphere_lstsq(axes, rows)
        for row, direction, residual in zip(rows, directions, residuals):
            one_b, one_r = _unit_sphere_lstsq(axes, row[None])
            assert np.array_equal(direction, one_b[0])
            assert residual == one_r[0]
        np.testing.assert_allclose(directions[0], [math.sqrt(0.98), 0.1, 0.1])

    @pytest.mark.parametrize("kind", ["fig2", "tie"])
    def test_eight_cones_match_brute_force_search(self, kind):
        # the winner is the least residual over every assignment of the
        # last seven cones, ties going to the lexicographically first
        # flip tuple
        if kind == "fig2":  # the fig-2 axes twice, noisy cone angles
            rng = np.random.default_rng(8)
            b_hat = axis_from_degrees(*REFERENCE_FIELD_DIRECTION_DEG)
            axes = [axis_from_degrees(*o) for o in REFERENCE_ORIENTATIONS_DEG] * 2
            alphas = [math.acos(a @ b_hat) + rng.normal(0.0, 0.01) for a in axes]
        else:  # the field is normal to cone 1's axis: its flip ties exactly
            b_hat = np.array([0.0, 0.6, 0.8])
            axes = [
                np.array(v, dtype=float) / np.linalg.norm(v)
                for v in ([0, 0, 1], [1, 0, 0], [0, 1, 1], [0, 1, -1],
                          [0, -1, 1], [0, 0, 1], [0, 2, 1], [0, 1, 3])
            ]
            alphas = [math.acos(a @ b_hat) for a in axes]
        cons = [
            ConeConstraint(axis=NVOrientation.from_vector(a), alpha=al, b=59.5)
            for a, al in zip(axes, alphas)
        ]
        used = np.stack([c.axis.unit_axis for c in cons])
        base_cos = np.cos([c.alpha for c in cons])
        candidates = []
        for tail in itertools.product((False, True), repeat=len(cons) - 1):
            flips = (False,) + tail
            b, r = _unit_sphere_lstsq(used, np.where(flips, -base_cos, base_cos)[None])
            candidates.append((float(r[0]), flips, b[0]))
        candidates.sort(key=lambda c: (c[0], c[1]))
        residual, flips, direction = candidates[0]
        if kind == "tie":
            assert candidates[1][0] == residual
            assert flips[1] is False and candidates[1][1][1] is True
        result = solve_direction(cons)
        assert result.branch_flipped == flips
        assert result.residual == residual
        assert np.array_equal(result.direction, direction)

    def test_random_eight_cone_sets_recover_the_field(self):
        # cone angles as measure_nv gives them, all at most 90 degrees,
        # so the later cones need their own flips as much as the first
        rng = np.random.default_rng(88)
        for _ in range(20):
            b_hat = rng.normal(size=3)
            b_hat /= np.linalg.norm(b_hat)
            axes = random_unit_axes(rng, 8)
            cons = [
                ConeConstraint(axis=NVOrientation.from_vector(a), b=50.0,
                               alpha=math.acos(min(1.0, abs(float(a @ b_hat)))))
                for a in axes
            ]
            result = solve_direction(cons)
            assert result.residual < 1e-14
            assert direction_error_deg(result, b_hat) < 1e-6

    def test_cone_count_limit(self):
        b_hat = np.array([0.3, 0.1, 0.95])
        b_hat /= np.linalg.norm(b_hat)
        axes = random_unit_axes(np.random.default_rng(12), MAX_CONSTRAINTS + 1)
        cons = cones_for_field(b_hat, axes)
        result = solve_direction(cons[:MAX_CONSTRAINTS])
        assert direction_error_deg(result, b_hat) < 1e-6
        with pytest.raises(ValueError, match=f"3 to {MAX_CONSTRAINTS} cone"):
            solve_direction(cons)

    def test_direction_sigma_matches_bootstrap_on_paper_fig4(self):
        cons = load_constraints_json(bundled_fixture_path("paper_fig4"))
        one_exact = [*cons[:1], dataclasses.replace(cons[1], alpha_sigma=0.0), *cons[2:]]
        for case in (cons, one_exact):
            result = solve_direction(case)
            reference = bootstrap_direction_sigma(case, result, 20_000, seed=0)
            assert result.direction_sigma == pytest.approx(reference, rel=0.02)
            assert solve_direction(case).direction_sigma == result.direction_sigma
        exact = [dataclasses.replace(c, alpha_sigma=0.0) for c in cons]
        assert solve_direction(exact).direction_sigma == 0.0

    def test_direction_sigma_matches_bootstrap_on_random_sets(self, monkeypatch):
        monkeypatch.setattr("nvvortex.vector_recon.DEFAULT_RESIDUAL_GATE", math.inf)
        # axes conditioned within 10 (three NV classes of the crystal give
        # 2): on worse-conditioned axes the solve responds nonlinearly to
        # cone-angle noise of this size, and a first-order figure is only
        # the small-sigma limit
        rng = np.random.default_rng(40)
        for _ in range(40):
            n = int(rng.integers(3, 9))
            b_hat = rng.normal(size=3)
            b_hat /= np.linalg.norm(b_hat)
            while True:
                axes = random_unit_axes(rng, n, max_cond=10.0)
                alphas = np.arccos(np.clip(axes @ b_hat, -1.0, 1.0))
                if np.all(np.abs(alphas - math.pi / 2) < math.radians(80.0)):
                    break
            sigmas = 10.0 ** rng.uniform(-4.0, -2.0, n)
            alphas += sigmas * rng.standard_normal(n)
            cons = [
                ConeConstraint(axis=NVOrientation.from_vector(a), alpha=al, b=1.0,
                               alpha_sigma=s)
                for a, al, s in zip(axes, alphas, sigmas)
            ]
            result = solve_direction(cons)
            reference = bootstrap_direction_sigma(cons, result, 20_000, seed=n)
            assert result.direction_sigma == pytest.approx(reference, rel=0.02)


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
        result = solve_direction(cones_for_field(b_hat, TETRAHEDRAL_AXES[:3]))
        assert result.triangle_spread < 1e-8
        assert len(result.triangle_vertices) == 3

    def test_reference_spread_within_bound(self):
        spread = solve_direction(reference_constraints()).triangle_spread
        assert math.degrees(spread) < 1.3
        assert math.degrees(spread) > 0.5  # real data: a genuine triangle

    def test_requires_exactly_three(self):
        result = solve_direction(cones_for_field(np.array([0, 0, 1.0]),
                                                 TETRAHEDRAL_AXES))
        assert result.triangle_spread is None
        assert result.triangle_vertices is None
