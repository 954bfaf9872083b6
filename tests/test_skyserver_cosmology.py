"""Flat ΛCDM distances."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.skyserver.cosmology import C_KM_S, Cosmology, DEFAULT_COSMOLOGY

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestDistances:
    def test_zero_redshift(self):
        assert float(DEFAULT_COSMOLOGY.comoving_distance(0.0)) == 0.0

    def test_low_z_hubble_law(self):
        # D_C -> (c/H0) z as z -> 0
        z = 0.01
        expected = (C_KM_S / 70.0) * z
        got = float(DEFAULT_COSMOLOGY.comoving_distance(z))
        assert got == pytest.approx(expected, rel=1e-2)

    def test_monotone_increasing(self):
        z = np.linspace(0.0, 1.5, 100)
        d = DEFAULT_COSMOLOGY.comoving_distance(z)
        assert np.all(np.diff(d) > 0)

    def test_known_concordance_value(self):
        # D_C(z=0.5) ~ 1888 Mpc for H0=70, Om=0.3 (standard references)
        got = float(DEFAULT_COSMOLOGY.comoving_distance(0.5))
        assert got == pytest.approx(1888.0, rel=0.01)

    def test_luminosity_vs_angular_diameter(self):
        # D_L = D_A (1+z)^2 in any FRW cosmology
        z = np.array([0.1, 0.3, 0.8])
        dl = DEFAULT_COSMOLOGY.luminosity_distance(z)
        da = DEFAULT_COSMOLOGY.angular_diameter_distance(z)
        assert np.allclose(dl, da * (1 + z) ** 2)

    def test_distance_modulus_increases(self):
        z = np.array([0.05, 0.1, 0.2])
        dm = DEFAULT_COSMOLOGY.distance_modulus(z)
        assert np.all(np.diff(dm) > 0)
        assert 36.0 < dm[0] < 37.5  # ~36.7 at z=0.05

    def test_arcdeg_per_mpc_decreases(self):
        z = np.array([0.05, 0.1, 0.2, 0.3])
        scale = DEFAULT_COSMOLOGY.arcdeg_per_mpc(z)
        assert np.all(np.diff(scale) < 0)
        assert 0.2 < scale[0] < 0.4  # ~0.28 deg per Mpc at z=0.05


class TestValidation:
    def test_out_of_range_redshift(self):
        with pytest.raises(ConfigError):
            DEFAULT_COSMOLOGY.comoving_distance(5.0)
        with pytest.raises(ConfigError):
            DEFAULT_COSMOLOGY.comoving_distance(-0.1)

    def test_bad_parameters(self):
        with pytest.raises(ConfigError):
            Cosmology(h0=0.0)
        with pytest.raises(ConfigError):
            Cosmology(omega_m=0.0)
        with pytest.raises(ConfigError):
            Cosmology(omega_m=1.5)
        with pytest.raises(ConfigError):
            Cosmology(z_max=-1.0)
        with pytest.raises(ConfigError):
            Cosmology(grid_points=4)

    def test_matter_dominated_is_smaller(self):
        # more matter -> more deceleration -> smaller distances
        open_like = Cosmology(omega_m=0.3)
        einstein_de_sitter = Cosmology(omega_m=1.0)
        assert float(einstein_de_sitter.comoving_distance(0.5)) < float(
            open_like.comoving_distance(0.5)
        )


class TestFootprint:
    def test_importing_repro_loads_no_scipy(self):
        """numpy is the only numeric dependency: the cosmology grid's
        trapezoid integral is plain numpy."""
        code = (
            "import sys, repro, repro.skyserver.cosmology\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            check=True, env={**os.environ, "PYTHONPATH": SRC},
        ).stdout
        assert out.strip() == "[]"
