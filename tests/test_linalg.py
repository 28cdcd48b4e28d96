import numpy as np
import pytest

from remest import spectral_radius_sq

A = [[1.8, 0.2], [0.2, 0.8]]


class TestSpectralRadiusSq:
    def test_identity(self):
        assert spectral_radius_sq(np.eye(2)) == pytest.approx(1.0)

    def test_benchmark_matrix(self):
        assert spectral_radius_sq(A) == pytest.approx(3.380, abs=1e-3)

    def test_diagonal(self):
        assert spectral_radius_sq([[2.0, 0.0], [0.0, 0.5]]) == pytest.approx(4.0)

    def test_complex_pair_2x2(self):
        # rotation scaled by 2: eigenvalues +-2i
        assert spectral_radius_sq([[0.0, -2.0], [2.0, 0.0]]) == pytest.approx(4.0)

    def test_diagonal_3x3(self):
        assert spectral_radius_sq(np.diag([3.0, 1.0, 0.5])) == pytest.approx(9.0, rel=1e-9)

    def test_complex_dominant_3x3(self):
        # dominant pair +-2i: |lambda|^2 = 4
        a = [[0.0, -2.0, 0.0], [2.0, 0.0, 0.0], [0.0, 0.0, 0.1]]
        assert spectral_radius_sq(a) == pytest.approx(4.0, rel=1e-12)

    def test_non_square(self):
        with pytest.raises(ValueError):
            spectral_radius_sq([[1.0, 2.0]])

    def test_scaling_property(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a = rng.standard_normal((2, 2))
            c = float(rng.uniform(0.1, 10.0))
            base = spectral_radius_sq(a)
            scaled = spectral_radius_sq(c * a)
            assert scaled == pytest.approx(c * c * base, rel=1e-6)
