import numpy as np
import pytest

from remest.linalg import Mat, mat_mul, spd_inverse, spectral_radius_sq, trace

P_BAR0 = [[2.357886, -1.541884], [-1.541884, 1.598699]]
A = [[1.8, 0.2], [0.2, 0.8]]


class TestMat:
    def test_shape_and_entries(self):
        m = Mat([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert (m.rows, m.cols) == (3, 2)
        assert m.entries == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError):
            Mat([[1.0, float("nan")]])
        with pytest.raises(ValueError):
            Mat([[float("inf")]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            Mat([[1.0, 2.0], [3.0]])

    def test_immutable(self):
        m = Mat([[1.0]])
        with pytest.raises(ValueError):
            m.array[0, 0] = 2.0


class TestMatMul:
    def test_identity(self):
        eye = Mat.identity(2)
        assert mat_mul(eye, eye) == eye
        a = Mat(A)
        assert mat_mul(a, eye) == a

    def test_benchmark_product(self):
        # direct arithmetic on the benchmark matrices
        got = mat_mul(A, P_BAR0).array
        expected = [[3.9358, -2.4557], [-0.7619, 0.9706]]
        np.testing.assert_allclose(got, expected, atol=1e-3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(Mat([[1.0, 2.0]]), Mat([[1.0, 2.0]]))

    def test_associativity_random(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            a, b, c = (rng.standard_normal((3, 3)) for _ in range(3))
            left = mat_mul(mat_mul(a, b), c).array
            right = mat_mul(a, mat_mul(b, c)).array
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)


class TestTrace:
    def test_identity(self):
        assert trace(Mat.identity(2)) == 2.0

    def test_benchmark_values(self):
        assert trace(P_BAR0) == pytest.approx(3.9566, abs=1e-3)
        f_pbar0 = [[7.593342, -1.177358], [-1.177358, 1.62408]]
        assert trace(f_pbar0) == pytest.approx(9.2, abs=0.02)

    def test_non_square(self):
        with pytest.raises(ValueError):
            trace(Mat([[1.0, 2.0]]))

    def test_cyclic_property(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a = rng.standard_normal((4, 3))
            b = rng.standard_normal((3, 4))
            t1 = trace(mat_mul(a, b))
            t2 = trace(mat_mul(b, a))
            assert t1 == pytest.approx(t2, rel=1e-9, abs=1e-9)


class TestSpectralRadiusSq:
    def test_identity(self):
        assert spectral_radius_sq(Mat.identity(2)) == pytest.approx(1.0)

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


class TestSpdInverse:
    def test_identity(self):
        assert spd_inverse(Mat.identity(2)) == Mat.identity(2)

    def test_diagonal(self):
        got = spd_inverse([[2.0, 0.0], [0.0, 4.0]]).array
        np.testing.assert_allclose(got, [[0.5, 0.0], [0.0, 0.25]])

    def test_closed_form_2x2(self):
        got = spd_inverse([[2.0, 1.0], [1.0, 2.0]]).array
        expected = [[2 / 3, -1 / 3], [-1 / 3, 2 / 3]]
        np.testing.assert_allclose(got, expected, rtol=1e-12)

    def test_non_spd_rejected(self):
        with pytest.raises(ValueError):
            spd_inverse([[1.0, 2.0], [0.5, 1.0]])  # not symmetric
        with pytest.raises(ValueError):
            spd_inverse([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError):
            spd_inverse([[1.0, 1.0], [1.0, 1.0]])  # singular

    def test_round_trip_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5):
            for _ in range(20):
                m = rng.standard_normal((n, n))
                spd = m @ m.T + n * np.eye(n)
                inv = spd_inverse(spd).array
                np.testing.assert_allclose(spd @ inv, np.eye(n), atol=1e-8)
