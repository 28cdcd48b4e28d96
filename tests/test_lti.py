import math
import time
import warnings

import numpy as np
import pytest

from remest import LtiSystem, RiccatiError, f_apply, riccati_steady_state

A = [[1.8, 0.2], [0.2, 0.8]]
ROTATING = [[0.0, -1.2, 0.0], [1.2, 0.0, 0.0], [0.0, 0.0, 0.5]]


def scalar_riccati_brute_force(a, c, q, r, iters=10000):
    """1-D oracle: iterate the five filter equations with plain floats."""
    p = q
    for _ in range(iters):
        p_pred = a * p * a + q
        gain = p_pred * c / (c * p_pred * c + r)
        p = (1.0 - gain * c) * p_pred
    return p


def filter_step(system, P):
    """One prediction and Joseph-form update of the posterior P."""
    prior = system.A @ P @ system.A.T + system.Q
    gain = prior @ system.C.T @ np.linalg.inv(system.C @ prior @ system.C.T + system.R)
    ikc = np.eye(system.n) - gain @ system.C
    return ikc @ prior @ ikc.T + gain @ system.R @ gain.T


def scalar_posterior(a, q):
    """Closed-form steady posterior of x' = a x + w, y = x + v with Var v = 1."""
    # the prior M solves M^2 + b M - q = 0 with b = 1 - a^2 - q
    b = 1.0 - a * a - q
    prior = (-b + math.sqrt(b * b + 4.0 * q)) / 2
    return prior / (prior + 1.0)


def quiet_system(*matrices):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # a = 1 is not expansive
        return LtiSystem(*matrices)


RESIDUAL_SYSTEMS = {
    "default": (A, [[1.0, 1.0]], np.eye(2), [[1.0]]),
    "stiff-scalar": ([[1e4]], [[1.0]], [[1.0]], [[1.0]]),
    "perfect-measurement": (A, np.eye(2), np.eye(2), 1e-12 * np.eye(2)),
    "slow": ([[1.0]], [[1.0]], [[1e-8]], [[1.0]]),
    "rotating": (ROTATING, [[1.0, 1.0, 1.0]], np.eye(3), [[1.0]]),
}


class TestLtiSystem:
    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            LtiSystem([[1.0, 0.0]], [[1.0, 1.0]], np.eye(2), [[1.0]])
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2) * 2, [[1.0]], np.eye(2), [[1.0]])
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2) * 2, [[1.0, 1.0]], np.eye(3), [[1.0]])
        with pytest.raises(ValueError, match="R must be square"):
            LtiSystem(np.eye(2) * 2, [[1.0, 1.0]], np.eye(2), np.eye(2))

    def test_noise_validation(self):
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2) * 2, [[1.0, 1.0]], [[1.0, 2.0], [2.0, 1.0]], [[1.0]])
        with pytest.raises(ValueError):
            LtiSystem(np.eye(2) * 2, [[1.0, 1.0]], np.eye(2), [[0.0]])
        with pytest.raises(ValueError, match="Q must be symmetric"):
            LtiSystem(np.eye(2) * 2, [[1.0, 1.0]], [[1.0, 0.5], [0.0, 1.0]], [[1.0]])

    def test_warns_when_not_expansive(self):
        with pytest.warns(RuntimeWarning, match="not expansive"):
            LtiSystem([[0.5]], [[1.0]], [[1.0]], [[1.0]])

    def test_rho_sq(self, system):
        assert system.rho_sq == pytest.approx(1.8385**2, abs=1e-3)

    def test_rejects_nan_inf(self):
        with pytest.raises(ValueError, match="finite"):
            LtiSystem([[1.0, float("nan")], [0.0, 1.0]], [[1.0, 1.0]], np.eye(2), [[1.0]])
        with pytest.raises(ValueError, match="finite"):
            LtiSystem([[2.0]], [[1.0]], [[1.0]], [[float("inf")]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            LtiSystem([[1.0, 2.0], [3.0]], [[1.0, 1.0]], np.eye(2), [[1.0]])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="non-empty"):
            LtiSystem([[]], [[1.0]], [[1.0]], [[1.0]])
        with pytest.raises(ValueError, match="2-D"):
            LtiSystem([2.0], [[1.0]], [[1.0]], [[1.0]])

    def test_stored_arrays_are_read_only_copies(self):
        a = np.array(A)
        system = LtiSystem(a, [[1.0, 1.0]], np.eye(2), [[1.0]])
        a[0, 0] = 5.0
        assert system.A[0, 0] == 1.8
        for m in (system.A, system.C, system.Q, system.R):
            assert m.dtype == float
            with pytest.raises(ValueError):
                m[0, 0] = 2.0

    def test_rotating_process_rho_sq(self):
        # the dominant eigenvalues are the complex pair +-1.2i
        system = LtiSystem(ROTATING, [[1.0, 1.0, 1.0]], np.eye(3), [[1.0]])
        assert system.rho_sq == pytest.approx(1.44, rel=1e-12)

    @pytest.mark.parametrize("a, c, unseen", [
        (np.diag([3.0, 0.5]), [[0.0, 1.0]], (3.0,)),
        (np.diag([1.5, 1.5]), [[1.0, 0.0]], (1.5, 1.5)),  # repeated eigenvalue
        ([[1.5, 1.0], [0.0, 1.5]], [[0.0, 1.0]], (1.5, 1.5)),  # Jordan block, tail seen only
        (np.diag([2.0, 1.0]), [[1.0, 0.0]], (1.0,)),  # |mu| = 1 counts as unstable
        ([[1.5, 1.0], [0.0, 1.5]], [[1.0, 0.0]], ()),
        (np.diag([2.0, 0.5]), [[1.0, 0.0]], ()),  # a hidden stable mode is harmless
        (A, [[1.0, 1.0]], ()),
        (ROTATING, [[1.0, 1.0, 1.0]], ()),  # complex dominant pair +-1.2i
        (ROTATING, [[0.0, 0.0, 1.0]], (1.2j, -1.2j)),
    ], ids=["diag3", "repeated", "jordan-hidden", "marginal", "jordan-seen", "stable-hidden",
            "default", "rotating", "rotating-hidden"])
    def test_unseen_modes_pbh(self, a, c, unseen):
        system = LtiSystem(a, c, np.eye(len(a)), [[1.0]])
        assert system.unseen_modes() == pytest.approx(unseen, rel=1e-12)


class TestRiccati:
    def test_benchmark_steady_state(self, sk):
        expected = [[2.3579, -1.5419], [-1.5419, 1.5987]]
        np.testing.assert_allclose(sk.p_bar0, expected, atol=1e-3)

    def test_scalar_against_brute_force(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            sys1 = LtiSystem([[0.0]], [[1.0]], [[1.0]], [[1.0]])
            out = riccati_steady_state(sys1, q_max=4)
        oracle = scalar_riccati_brute_force(0.0, 1.0, 1.0, 1.0)
        assert oracle == pytest.approx(0.5, abs=1e-12)
        assert out.p_bar0[0, 0] == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("tol", [math.inf, math.nan])
    def test_non_finite_tol_rejected(self, system, tol):
        # inf stopped after the first step; nan ran all max_iter iterations
        with pytest.raises(ValueError, match="finite"):
            riccati_steady_state(system, tol=tol)

    def test_stiff_scalar_against_closed_form(self):
        # P_pred ~ 1e8 >> R: (I - KC) P_pred cancels to ~1e-8 of noise, above tol
        out = riccati_steady_state(LtiSystem([[1e4]], [[1.0]], [[1.0]], [[1.0]]), q_max=3)
        # the prior M solves M^2 + b M - q r = 0 with b = r - a^2 r - q
        b = 1.0 - 1e8 - 1.0
        prior = (-b + math.sqrt(b * b + 4.0)) / 2
        assert out.p_bar0[0, 0] == pytest.approx(prior / (prior + 1.0), rel=1e-15)
        assert out.gain[0, 0] == pytest.approx(prior / (prior + 1.0), rel=1e-15)

    def test_perfect_measurements(self):
        sys2 = LtiSystem([[1.8, 0.2], [0.2, 0.8]], np.eye(2), np.eye(2), 1e-12 * np.eye(2))
        out = riccati_steady_state(sys2, q_max=2)
        assert np.abs(out.p_bar0).max() < 1e-9

    def test_fixed_point(self, system, sk):
        p_pred = system.A @ sk.p_bar0 @ system.A.T + system.Q
        innov = system.C @ p_pred @ system.C.T + system.R
        gain = p_pred @ system.C.T @ np.linalg.inv(innov)
        p_next = (np.eye(2) - gain @ system.C) @ p_pred
        assert np.abs(p_next - sk.p_bar0).max() < 1e-9

    @pytest.mark.parametrize("a", [3.0, 5.0, 7.0, 20.0])
    def test_diverging_undetectable_mode_errors(self, a):
        # the unstable mode a is invisible through C, so the covariance
        # overflows; the iterate turns non-finite rather than converging
        sys4 = LtiSystem(np.diag([a, 0.5]), [[0.0, 1.0]], np.eye(2), [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is reported once, as the error
            with pytest.raises(RiccatiError, match="non-finite"):
                riccati_steady_state(sys4, q_max=2)

    def test_undetectable_system_errors(self):
        # the second, unstable mode is invisible through C
        sys3 = LtiSystem(np.diag([1.5, 1.5]), [[1.0, 0.0]], np.eye(2), [[1.0]])
        with pytest.raises(RiccatiError) as err:
            riccati_steady_state(sys3, max_iter=200, q_max=2)
        assert err.value.last_covariance.shape == (2, 2)

    @pytest.mark.parametrize("a, q", [(1.8, 1e-10), (1.5, 1e-12), (1.8, 1.0)])
    def test_scalar_closed_form_at_any_noise_scale(self, a, q):
        # an absolute stop at 1e-9 returned 4.24e-10 and 3.25e-12 for the small-q cases
        out = riccati_steady_state(LtiSystem([[a]], [[1.0]], [[q]], [[1.0]]), q_max=2)
        # with c = r = 1 the prior M solves M^2 + b M - q = 0 with b = 1 - a^2 - q
        b = 1.0 - a * a - q
        prior = (-b + math.sqrt(b * b + 4.0 * q)) / 2
        assert out.p_bar0[0, 0] == pytest.approx(prior / (prior + 1.0), rel=1e-9)

    def test_unconverged_error_says_how_far_it_got(self, system):
        # the default system's doubling settles at step 6
        with pytest.raises(RiccatiError) as err4:
            riccati_steady_state(system, max_iter=4)
        with pytest.raises(RiccatiError, match="within 5 doubling steps") as err5:
            riccati_steady_state(system, max_iter=5)
        riccati_steady_state(system, max_iter=6)
        last, previous = err5.value.last_covariance, err4.value.last_covariance
        size = np.abs(last).max()
        assert str(err5.value).endswith(
            f"changed the prior M by {np.abs(last - previous).max() / size:.3g} of max |M| = {size:.3g}")

    def test_diverging_error_names_the_iteration(self):
        # doubling step k covers 2^k filter steps, over which the hidden mode's variance grows
        # like a^(2^(k+1)): it passes float64's 1.8e308 after 118 filter steps for a = 20 and
        # after 323 for a = 3
        for a, step in ((20.0, 7), (3.0, 9)):
            sys4 = LtiSystem(np.diag([a, 0.5]), [[0.0, 1.0]], np.eye(2), [[1.0]])
            with pytest.raises(RiccatiError, match=f"non-finite values at doubling step {step}$") as err:
                riccati_steady_state(sys4, q_max=2)
            assert np.all(np.isfinite(err.value.last_covariance))

    def test_max_iter_below_one_rejected(self, system):
        with pytest.raises(ValueError, match="max_iter"):
            riccati_steady_state(system, max_iter=0)

    def test_slow_contraction_meets_the_closed_form(self):
        # the filter's error contracts by about 1 - 2e-4 a step: a step-by-step iteration ran
        # 64496 steps (seconds) and stopped 5.0e-6 below the closed form
        system = quiet_system([[1.0]], [[1.0]], [[1e-8]], [[1.0]])
        riccati_steady_state(system, q_max=2)
        t0 = time.perf_counter()
        out = riccati_steady_state(system, q_max=2)
        assert time.perf_counter() - t0 < 0.05
        assert out.p_bar0[0, 0] == pytest.approx(scalar_posterior(1.0, 1e-8), rel=1e-9)

    @pytest.mark.parametrize("name", list(RESIDUAL_SYSTEMS))
    def test_dare_residual(self, name):
        system = quiet_system(*RESIDUAL_SYSTEMS[name])
        P = riccati_steady_state(system, q_max=2).p_bar0
        assert np.abs(filter_step(system, P) - P).max() <= 1e-13 * np.abs(P).max()

    @pytest.mark.parametrize("r", [1e-12, 1e-16])
    def test_high_signal_to_noise_is_refined(self, r):
        # at r = 1e-12 the doubling's rounding leaves P off its fixed point, and at r = 1e-16
        # I + G H is singular to working precision; filter steps finish both
        system = LtiSystem(A, [[1.0, 1.0]], np.eye(2), [[r]])
        out = riccati_steady_state(system, q_max=2)
        oracle = np.eye(2)
        for _ in range(200):
            oracle = filter_step(system, oracle)
        np.testing.assert_allclose(out.p_bar0, oracle, rtol=1e-9, atol=0)

    def test_unexcited_unstable_mode(self):
        # no noise reaches the 1e10 mode, so its error stays 0 while A_k passes float64 at
        # doubling step 5; the other mode is the scalar a = 2, q = r = 1. At q_max 30, A^31
        # passes float64 too, yet the cost table, which only that mode's zeros meet, stays finite
        system = LtiSystem(np.diag([1e10, 2.0]), [[1.0, 1.0]], np.diag([0.0, 1.0]), [[1.0]])
        for q_max in (20, 30):
            out = riccati_steady_state(system, q_max=q_max)
            assert out.p_bar0[0, 0] == out.p_bar0[0, 1] == 0.0
            assert out.p_bar0[1, 1] == pytest.approx(scalar_posterior(2.0, 1.0), rel=1e-9)
            assert np.isfinite(out.cost_table).all()

    def test_residual_error_says_how_far_it_got(self):
        # the doubling settles within 6 steps but leaves P off its fixed point, so the filter
        # steps that refine it run out
        system = LtiSystem(A, [[1.0, 1.0]], np.eye(2), [[1e-12]])
        with pytest.raises(RiccatiError) as err7:
            riccati_steady_state(system, max_iter=7, q_max=2)
        with pytest.raises(RiccatiError, match="residual check after 8 filter steps") as err8:
            riccati_steady_state(system, max_iter=8, q_max=2)
        last, previous = err8.value.last_covariance, err7.value.last_covariance
        size = np.abs(last).max()
        assert str(err8.value).endswith(
            f"changed P by {np.abs(last - previous).max() / size:.3g} of max |P| = {size:.3g}")

class TestFApply:
    def test_benchmark_one_step(self, system, sk):
        got = f_apply(system, sk.p_bar0)
        expected = [[7.5934, -1.1774], [-1.1774, 1.6241]]
        np.testing.assert_allclose(got, expected, atol=1e-3)
        assert np.trace(got) == pytest.approx(9.2, abs=0.02)

    def test_zero_covariance(self, system):
        np.testing.assert_allclose(f_apply(system, np.zeros((2, 2))), np.eye(2))

    def test_benchmark_two_steps(self, system, sk):
        got = f_apply(system, f_apply(system, sk.p_bar0))
        expected = [[24.820, 1.251], [1.251, 1.966]]
        np.testing.assert_allclose(got, expected, atol=2e-3)
        assert np.trace(got) == pytest.approx(26.79, abs=0.05)

    def test_dimension_mismatch(self, system):
        with pytest.raises(ValueError):
            f_apply(system, np.eye(3))

    def test_preserves_symmetry_and_psd(self, system):
        rng = np.random.default_rng(5)
        for _ in range(30):
            m = rng.standard_normal((2, 2))
            x = m @ m.T
            out = f_apply(system, x)
            assert np.abs(out - out.T).max() == 0.0
            assert np.linalg.eigvalsh(out).min() >= -1e-9


class TestCostTable:
    def test_benchmark_values(self, sk):
        assert sk.cost_table[0] == pytest.approx(9.2, abs=0.02)
        assert sk.cost_table[1] == pytest.approx(26.79, abs=0.05)
        assert sk.cost_table[2] == pytest.approx(86.05, abs=0.2)

    def test_table_length_covers_lookahead(self, sk):
        # one-step-lookahead policies index q_max + 1
        assert sk.n_max >= 20 + 2

    def test_strictly_increasing(self, sk):
        diffs = np.diff(sk.cost_table)
        assert (diffs > 0).all()

    def test_asymptotic_growth_matches_rho_sq(self, system, sk):
        ct = sk.cost_table
        ratio = ct[-1] / ct[-2]
        assert ratio == pytest.approx(system.rho_sq, rel=0.05)

    def test_builds_without_warnings(self, system):
        # the deepest entries pass 1e12 and are kept exact
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = riccati_steady_state(system, q_max=20)
        assert out.cost_table[-1] > 1e12
        X = out.p_bar0
        for value in out.cost_table:
            X = system.A @ X @ system.A.T + system.Q
            assert value == pytest.approx(np.trace(X), rel=1e-12)

    @pytest.mark.parametrize("matrices, q_max", [
        ((A, [[1.0, 1.0]], np.eye(2), [[1.0]]), 20),
        ((ROTATING, [[1.0, 1.0, 1.0]], np.eye(3), [[1.0]]), 20),
        (([[1000.0]], [[1.0]], [[1.0]], [[1.0]]), 46),  # the last q_max before q = 51 overflows
    ], ids=["default", "rotating", "near-overflow"])
    def test_matches_an_f_apply_loop(self, matrices, q_max):
        system = LtiSystem(*matrices)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = riccati_steady_state(system, q_max=q_max)
            X, loop = out.p_bar0, []
            for _ in range(q_max + 5):
                X = f_apply(system, X)
                loop.append(np.trace(X))
        np.testing.assert_allclose(out.cost_table, loop, rtol=1e-13, atol=0)

    def test_overflow_names_the_first_q(self):
        # Tr f^(q+1)(p_bar0) ~ 1e6^(q+1) first passes float64's range at q = 51
        sys1 = LtiSystem([[1000.0]], [[1.0]], [[1.0]], [[1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow is reported once, as the error
            with pytest.raises(ValueError, match=r"q = 51 overflows.*mdp\.q_max \(now 60\) to 46 or less"):
                riccati_steady_state(sys1, q_max=60)
        assert np.isfinite(riccati_steady_state(sys1, q_max=46).cost_table).all()
