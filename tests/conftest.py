import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nvvortex.errors import FitFailed
from nvvortex.focal_field import OpticalConfig, azimuthal_field
from nvvortex.pattern import ScanGrid
from nvvortex.spin import SpinParams, _lorentz

settings.register_profile(
    "suite",
    deadline=None,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def optics():
    return OpticalConfig()


@pytest.fixture(scope="session")
def spin_params():
    return SpinParams()


@pytest.fixture(scope="session")
def grid31():
    """Shared scan raster; session scope keeps the radial profile cache warm."""
    return ScanGrid(width_px=31, height_px=31, pitch_nm=50.0)


#: fitted orientations of the four NV patterns used throughout
REFERENCE_ORIENTATIONS_DEG = [
    (0.37, 153.68),
    (109.84, 20.60),
    (109.25, 260.51),
    (109.31, 140.74),
]

#: per-NV cone angles (deg) and magnitudes (G) used for reconstruction
REFERENCE_CONE_ANGLES_DEG = [117.62, 106.96, 102.55]
REFERENCE_B_GAUSS = [59.53, 59.48, 59.56]
REFERENCE_FIELD_DIRECTION_DEG = (8.59, 182.56)


def axis_from_degrees(theta_deg: float, phi_deg: float) -> np.ndarray:
    t, p = np.radians(theta_deg), np.radians(phi_deg)
    return np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])


def axis_angle_deg(t1, p1, t2, p2) -> float:
    """Smallest angle between the orientation classes (radians in,
    degrees out): insensitive to axis sign and to the 180-degree
    azimuth ambiguity a scan pattern cannot resolve."""
    b = axis_from_degrees(np.degrees(t2), np.degrees(p2))
    best = 0.0
    for p1_rep in (p1, p1 + np.pi):
        a = axis_from_degrees(np.degrees(t1), np.degrees(p1_rep))
        best = max(best, abs(float(a @ b)))
    return float(np.degrees(np.arccos(min(1.0, best))))


def field_vector_at(point, beam_center, z: float, config: OpticalConfig) -> np.ndarray:
    """Complex 3-vector E at a 3D ``point`` for a beam focused at
    (beam_center_x, beam_center_y, z).

    The field is purely azimuthal about the beam axis:
    E = E_phi(rho, point_z - z) * phi_hat with rho the transverse
    distance from the axis. On the axis (rho = 0) the zero vector is
    returned; phi_hat is undefined there but the amplitude vanishes.
    """
    p = np.asarray(point, dtype=float)
    c = np.asarray(beam_center, dtype=float)
    dx = p[0] - c[0]
    dy = p[1] - c[1]
    rho = math.hypot(dx, dy)
    if rho == 0.0:
        return np.zeros(3, dtype=complex)
    amp = azimuthal_field(rho, p[2] - z, config)
    phi_hat = np.array([-dy / rho, dx / rho, 0.0])
    return amp * phi_hat


def triplet_model_reference(
    f: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Two-triplet model and (n, 11) Jacobian in the sample-major (n, 6)
    layout, one column per center: the reference for the sweep-major
    ``spin._triplet_model``."""
    c1, c2, s1, s2, w = p[:5]
    depths = p[5:]
    centers = np.array([c1 - s1, c1, c1 + s1, c2 - s2, c2, c2 + s2])
    h = 0.5 * w
    u = f[:, None] - centers
    lor = _lorentz(f[:, None], centers, w)
    d_center = -depths * (2.0 * u * lor * lor / (h * h))
    jac = np.empty((f.size, 11))
    jac[:, 0] = d_center[:, :3].sum(axis=1)
    jac[:, 1] = d_center[:, 3:].sum(axis=1)
    jac[:, 2] = d_center[:, 2] - d_center[:, 0]
    jac[:, 3] = d_center[:, 5] - d_center[:, 3]
    jac[:, 4] = -(lor * (1.0 - lor) / h) @ depths
    jac[:, 5:] = -lor
    return 1.0 - lor @ depths, jac


def dip_candidates_reference(f: np.ndarray, y: np.ndarray) -> list[float]:
    """``spin._dip_candidates`` with the local minima found by a loop
    over every sweep point: the reference for its single mask."""
    baseline = float(np.median(y))
    depth = baseline - float(y.min())
    noise = 1.4826 * float(np.median(np.abs(y - baseline)))
    if depth <= max(1e-12, 5.0 * noise):
        raise FitFailed("no significant dips found in the spectrum")
    cut = baseline - 0.4 * depth
    idx = [
        i
        for i in range(1, y.size - 1)
        if y[i] < cut and y[i] <= y[i - 1] and y[i] <= y[i + 1]
    ]
    if not idx:
        raise FitFailed("no local minima below the detection threshold")
    radius = max(4.0 * float(f[1] - f[0]), 1.0)
    merged: list[int] = []
    for i in idx:
        if merged and f[i] - f[merged[-1]] < radius:
            if y[i] < y[merged[-1]]:
                merged[-1] = i
            continue
        merged.append(i)
    return [float(f[i]) for i in merged]
