"""Flat ΛCDM cosmology: the distances behind the k-correction table.

The MaxBCG Kcorr table maps each redshift to (a) the apparent i-band
magnitude of a canonical BCG, which needs the luminosity distance, and
(b) the angular radius subtended by 1 Mpc, which needs the angular
diameter distance.  The paper took these from the SDSS pipeline; we
compute them from a standard flat ΛCDM model (H0 = 70, Ωm = 0.3 — the
concordance values of the SDSS era) so the synthetic catalog and the
algorithm share one internally consistent geometry.

Distances are evaluated on a dense redshift grid once per
:class:`Cosmology` instance and interpolated afterwards, so building a
1000-row Kcorr table is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigError

#: Speed of light in km/s.
C_KM_S = 299792.458

#: Degrees per radian.
_RAD2DEG = 180.0 / np.pi


@dataclass
class Cosmology:
    """Flat ΛCDM cosmology (Ωm + ΩΛ = 1, no radiation, no curvature).

    Parameters
    ----------
    h0:
        Hubble constant in km/s/Mpc.
    omega_m:
        Matter density parameter; dark energy is ``1 - omega_m``.
    z_max:
        Upper edge of the internal interpolation grid.  Queries beyond
        ``z_max`` raise :class:`~repro.errors.ConfigError`.
    grid_points:
        Resolution of the internal grid.
    """

    h0: float = 70.0
    omega_m: float = 0.3
    z_max: float = 2.0
    grid_points: int = 4096
    _z_grid: np.ndarray = field(init=False, repr=False)
    _dc_grid: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.h0 <= 0:
            raise ConfigError(f"h0 must be positive, got {self.h0}")
        if not (0.0 < self.omega_m <= 1.0):
            raise ConfigError(f"omega_m must be in (0, 1], got {self.omega_m}")
        if self.z_max <= 0:
            raise ConfigError(f"z_max must be positive, got {self.z_max}")
        if self.grid_points < 16:
            raise ConfigError("grid_points must be at least 16")
        z = np.linspace(0.0, self.z_max, self.grid_points)
        e_z = np.sqrt(self.omega_m * (1.0 + z) ** 3 + (1.0 - self.omega_m))
        hubble_distance = C_KM_S / self.h0  # Mpc
        integrand = 1.0 / e_z
        # cumulative trapezoid rule, starting from D_C(0) = 0
        dc = np.concatenate((
            [0.0],
            np.cumsum(np.diff(z) * (integrand[1:] + integrand[:-1]) / 2.0),
        )) * hubble_distance
        self._z_grid = z
        self._dc_grid = dc

    # ------------------------------------------------------------------
    def _check_z(self, z: np.ndarray) -> None:
        if z.size and (np.min(z) < 0.0 or np.max(z) > self.z_max):
            raise ConfigError(
                f"redshift out of range [0, {self.z_max}] for this cosmology"
            )

    def comoving_distance(self, z):
        """Line-of-sight comoving distance in Mpc (vectorized)."""
        z = np.asarray(z, dtype=np.float64)
        self._check_z(z)
        return np.interp(z, self._z_grid, self._dc_grid)

    def angular_diameter_distance(self, z):
        """Angular diameter distance in Mpc: D_A = D_C / (1 + z) (flat)."""
        z = np.asarray(z, dtype=np.float64)
        return self.comoving_distance(z) / (1.0 + z)

    def luminosity_distance(self, z):
        """Luminosity distance in Mpc: D_L = D_C * (1 + z) (flat)."""
        z = np.asarray(z, dtype=np.float64)
        return self.comoving_distance(z) * (1.0 + z)

    def distance_modulus(self, z):
        """``m - M = 5 log10(D_L / 10 pc)``; undefined at z = 0."""
        dl = self.luminosity_distance(z)
        dl = np.maximum(dl, 1e-12)
        return 5.0 * np.log10(dl * 1.0e5)  # 1 Mpc = 10^5 * 10 pc

    def arcdeg_per_mpc(self, z):
        """Angular size, in degrees, of a transverse ruler of 1 Mpc at z.

        This is the Kcorr ``radius`` column: the on-sky search radius that
        corresponds to a fixed 1 Mpc physical aperture around a BCG.
        Diverges as z -> 0; callers should not query below z ~ 0.01.
        """
        da = self.angular_diameter_distance(z)
        da = np.maximum(da, 1e-12)
        return (1.0 / da) * _RAD2DEG


#: Default cosmology used throughout the reproduction.
DEFAULT_COSMOLOGY = Cosmology()
