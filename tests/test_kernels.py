import numpy as np
import pytest

import remest
from remest import _kernels
from remest.simulate import _ChainTables


class TestBackendSelection:
    def test_python_always_available(self):
        assert "python" in _kernels.available_backends()

    def test_default_backend_valid(self):
        assert _kernels.default_backend() in _kernels.BACKENDS

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REMEST_BACKEND", "python")
        assert _kernels.default_backend() == "python"
        monkeypatch.setenv("REMEST_BACKEND", "nonsense")
        with pytest.raises(ValueError):
            _kernels.default_backend()

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            _kernels.rvi_kernel("fortran")

    def test_kernels_resolve(self):
        assert callable(_kernels.rvi_kernel("python"))
        if remest.has_compiled():
            assert callable(_kernels.rvi_kernel("compiled"))


def _chain_inputs(seed=0, runs=9, horizon=64, q_max=6):
    rng = np.random.default_rng(seed)
    actions = (rng.random((q_max + 1, q_max + 1)) < 0.5).astype(np.int8)
    g = np.linspace(0.4, 0.05, q_max + 1)
    cost = np.cumsum(rng.random(q_max + 5)) + 1.0
    uniforms = rng.random((runs, horizon))
    return actions, g, cost, uniforms


class TestChainKernelContract:
    def test_edge_probabilities(self):
        actions, g, cost, uniforms = _chain_inputs()
        runs, horizon = uniforms.shape
        step_mse = np.zeros(horizon)
        step_aoi = np.zeros(horizon)
        run_mse = np.zeros(runs)
        run_aoi = np.zeros(runs)
        # g = 0 everywhere: every transmission lands, q tracks r
        walk = _ChainTables.build(np.zeros_like(actions), np.zeros_like(g), cost).walk
        sat = walk(uniforms, 0, step_mse, step_aoi, run_mse, run_aoi)
        assert sat == 0
        np.testing.assert_allclose(run_mse, cost[0], rtol=1e-12)
        # g = 1 everywhere: every transmission fails, q climbs and saturates
        walk = _ChainTables.build(np.zeros_like(actions), np.ones_like(g), cost).walk
        sat = walk(uniforms, 0, step_mse, step_aoi, run_mse, run_aoi)
        assert sat == runs * (horizon - len(cost) + 1)
        expected_first = [cost[min(k, len(cost) - 1)] for k in range(horizon)]
        np.testing.assert_allclose(step_mse / runs, expected_first)


class TestRviKernelContract:
    def _toy_problem(self):
        # two states, action 0 stays, action 1 hops; costs favor state 0
        cost = np.array([1.0, 3.0])
        succ0 = np.array([0, 0], dtype=np.int32)
        fail0 = np.array([1, 1], dtype=np.int32)
        pf0 = np.array([0.2, 0.2])
        succ1 = np.array([1, 1], dtype=np.int32)
        fail1 = np.array([0, 0], dtype=np.int32)
        pf1 = np.array([0.5, 0.5])
        return cost, succ0, fail0, pf0, succ1, fail1, pf1

    @pytest.mark.parametrize("backend", ["python", "compiled"])
    def test_toy_gain(self, backend):
        if backend == "compiled" and not remest.has_compiled():
            pytest.skip("compiled kernels not built")
        args = self._toy_problem()
        h = np.zeros(2)
        gain, iters, span, converged = _kernels.rvi_kernel(backend)(*args, 0, 1e-12, 10000, 0.0, h)
        assert converged
        # optimal: always action 0; stationary dist of [[.8,.2],[.8,.2]] is (0.8, 0.2)
        assert gain == pytest.approx(0.8 * 1.0 + 0.2 * 3.0, abs=1e-10)

    def test_damping_equivalent_fixed_point(self):
        args = self._toy_problem()
        h_plain = np.zeros(2)
        g_plain, *_ = _kernels.rvi_kernel("python")(*args, 0, 1e-12, 10000, 0.0, h_plain)
        h_damped = np.zeros(2)
        g_damped, *_ = _kernels.rvi_kernel("python")(*args, 0, 1e-12, 10000, 0.01, h_damped)
        assert g_damped == pytest.approx(g_plain, abs=1e-9)
        np.testing.assert_allclose(h_damped, h_plain, atol=1e-9)

    def test_max_iter_reported_as_not_converged(self):
        args = self._toy_problem()
        h = np.zeros(2)
        gain, iters, span, converged = _kernels.rvi_kernel("python")(*args, 0, 1e-12, 1, 0.0, h)
        assert not converged
        assert iters == 1
        assert span > 1e-12
