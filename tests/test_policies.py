import re
import tracemalloc

import numpy as np
import pytest

from remest import (
    HarqModel,
    PolicyGrid,
    arq_baseline_policy,
    build_mdp,
    load_policy_csv,
    myopic_policy,
    psi_policy,
    save_policy_csv,
    solve,
    verify_switching,
)
from remest.policies import enumerate_states, state_index

Q_MAX = 20


def myopic_oracle(sk, m, q_max):
    """Independent comparator: expected next-step cost of each action."""
    ct = sk.cost_table
    grid = {}
    for q in range(q_max + 1):
        for r in range(q + 1):
            g0 = m.failure_prob(0)
            g1 = m.failure_prob_clamped(r + 1)
            fresh = g0 * ct[q + 1] + (1 - g0) * ct[0]
            retransmit = g1 * ct[q + 1] + (1 - g1) * ct[r + 1]
            grid[(r, q)] = 1 if retransmit < fresh else 0
    return grid


class TestPolicyGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PolicyGrid(2, np.zeros((2, 2), dtype=np.int8))
        with pytest.raises(ValueError, match="non-negative"):
            PolicyGrid(-1, np.zeros((0, 0), dtype=np.int8))
        bad = np.zeros((3, 3), dtype=np.int8)
        bad[0, 1] = 7
        with pytest.raises(ValueError):
            PolicyGrid(2, bad)
        # an int8 cast would turn these into [[0, 1], [0, 1]]
        for actions in ([[256, 1], [0, 257]], [[0.7, 1.2], [0, 1]]):
            with pytest.raises(ValueError):
                PolicyGrid(1, np.array(actions))

    @pytest.mark.parametrize("actions, accepted", [
        (np.array([["0", "1"], ["0", "1"]]), False),
        (np.array([[0, 1], [0, 1]], dtype=object), True),
        (np.array([[0, "1"], [0, 1]], dtype=object), False),
        (np.array([[0, 0.7], [0, 1]]), False),
        (np.array([[0, 256], [0, 1]]), False),
        (np.array([[0, np.nan], [0, 1]]), False),
        (np.array([[False, True], [True, True]]), True),
        (np.array([[0.0, 1.0], [0.0, 1.0]]), True),
    ], ids=["str", "object", "object-str", "0.7", "256", "nan", "bool", "float"])
    def test_accepts_exactly_0_and_1(self, actions, accepted):
        if accepted:
            np.testing.assert_array_equal(PolicyGrid(1, actions).actions, [[0, 1], [0, 1]])
        else:
            with pytest.raises(ValueError, match="must be 0 or 1"):
                PolicyGrid(1, actions)

    def test_action_accessor(self):
        grid = psi_policy(4)
        assert grid.action(2, 2) == 0
        assert grid.action(1, 4) == 1
        with pytest.raises(ValueError):
            grid.action(3, 2)

    def test_equality_ignores_label(self):
        a = arq_baseline_policy(4)
        b = a.relabeled("other")
        assert a == b
        assert a != psi_policy(4)
        assert (a == 5) is False  # a non-grid compares by identity

    def test_invalid_region_normalized(self):
        actions = np.ones((3, 3), dtype=np.int8)  # junk below the diagonal too
        grid = PolicyGrid(2, actions)
        assert grid.actions[2, 0] == 0  # r > q forced to zero


class TestMyopic:
    def test_matches_expected_cost_oracle(self, sk, channel):
        # on the table, g(0) == g(r + 1) holds at r = 0 only: both sides of the no-gain mask
        for m in (channel, HarqModel.from_table([0.2, 0.2, 0.1, 0.05])):
            grid = myopic_policy(sk, m, Q_MAX)
            oracle = myopic_oracle(sk, m, Q_MAX)
            for (r, q), want in oracle.items():
                assert grid.action(r, q) == want, (m.h, r, q)

    def test_diagonal_always_fresh(self, sk, channel):
        grid = myopic_policy(sk, channel, Q_MAX)
        for q in range(Q_MAX + 1):
            assert grid.action(q, q) == 0

    def test_low_r_high_q_retransmits(self, sk, channel):
        grid = myopic_policy(sk, channel, Q_MAX)
        assert grid.action(0, 10) == 1

    def test_near_diagonal_fresh(self, sk, channel):
        # one step of staleness is not worth a retransmission here
        assert myopic_policy(sk, channel, Q_MAX).action(0, 1) == 0

    def test_arq_degeneration_all_fresh(self, sk):
        grid = myopic_policy(sk, HarqModel(0.8, 1.0, r_cap=Q_MAX), Q_MAX)
        assert grid == arq_baseline_policy(Q_MAX)

    def test_is_switching(self, sk, channel):
        assert verify_switching(myopic_policy(sk, channel, Q_MAX)).ok

    def test_table_coverage_required(self, sk, channel):
        with pytest.raises(ValueError):
            myopic_policy(sk, channel, sk.n_max)


def fresh_states(grid):
    return {s for s in zip(*enumerate_states(grid.q_max)) if grid.action(*s) == 0}


def delay_optimal(channel):
    return solve(build_mdp(None, channel, Q_MAX, "delay")).policy


class TestDelayOptimal:
    def test_perfect_channel(self, sk):
        grid = delay_optimal(HarqModel(1.0, 0.5, r_cap=Q_MAX))
        assert grid == arq_baseline_policy(Q_MAX)

    def test_arq_degeneration(self):
        grid = delay_optimal(HarqModel(0.8, 1.0, r_cap=Q_MAX))
        assert grid == arq_baseline_policy(Q_MAX)

    def test_more_fresh_states_than_mse_optimal(self, sk, channel):
        mse_grid = solve(build_mdp(sk, channel, Q_MAX, "mse")).policy
        delay_grid = delay_optimal(channel)
        assert len(fresh_states(delay_grid)) > len(fresh_states(mse_grid))


class TestFixedPolicies:
    def test_arq_baseline(self):
        grid = arq_baseline_policy(Q_MAX)
        assert grid.action(0, 0) == 0
        assert grid.action(3, 7) == 0
        assert all(grid.action(r, q) == 0 for (r, q) in zip(*enumerate_states(Q_MAX)))

    def test_psi(self):
        grid = psi_policy(Q_MAX)
        assert grid.action(2, 2) == 0
        assert grid.action(1, 4) == 1
        assert grid.action(0, 0) == 0
        for (r, q) in zip(*enumerate_states(Q_MAX)):
            assert grid.action(r, q) == (0 if r == q else 1)

    def test_repr_counts_retransmit_states(self):
        # more than 127 states: an int8 sum would wrap around
        assert "retransmit_states=210" in repr(psi_policy(Q_MAX))


def switching_oracle(p):
    """The violations of verify_switching, pair by pair, in its order."""
    violations = []
    a = p.actions
    for q in range(p.q_max + 1):
        for r in range(q + 1):
            if a[r, q] == 0:
                for z in range(1, q - r + 1):
                    if a[r + z, q] != 0:
                        violations.append(((r, q), (r + z, q), "monotone-in-r"))
            else:
                for z in range(1, p.q_max - q + 1):
                    if a[r, q + z] != 1:
                        violations.append(((r, q), (r, q + z), "monotone-in-q"))
    return violations


class TestVerifySwitching:
    @pytest.mark.parametrize("q_max", [1, 5, 20])
    def test_matches_pairwise_oracle(self, q_max):
        rng = np.random.default_rng(q_max)
        grids = [psi_policy(q_max), arq_baseline_policy(q_max)] + [
            PolicyGrid(q_max, rng.random((q_max + 1, q_max + 1)) < share)
            for share in (0.05, 0.5, 0.95) for _ in range(10)]
        for grid in grids:
            want = switching_oracle(grid)
            report = verify_switching(grid)
            assert report.violations == want
            assert report.ok == (not want)
            assert all(type(i) is int for first, second, _ in report.violations
                       for i in first + second)

    def test_constant_policy(self):
        assert verify_switching(arq_baseline_policy(Q_MAX)).ok

    def test_psi_is_switching(self):
        # fresh exactly on the diagonal satisfies both monotonicity conditions
        report = verify_switching(psi_policy(Q_MAX))
        assert report.ok
        assert report.violations == []

    def test_constructed_violation(self):
        actions = np.zeros((6, 6), dtype=np.int8)
        actions[0, 4] = 1  # but (0, 5) stays 0
        report = verify_switching(PolicyGrid(5, actions))
        assert not report.ok
        assert ((0, 4), (0, 5), "monotone-in-q") in report.violations

    def test_violation_in_r(self):
        actions = np.zeros((6, 6), dtype=np.int8)
        actions[1, 5] = 1
        actions[0, 5] = 0  # fresh below a retransmitting r: fine
        actions[2, 4] = 1
        actions[1, 4] = 0  # fresh at r=1 forces fresh at r=2: violated
        report = verify_switching(PolicyGrid(5, actions))
        assert ((1, 4), (2, 4), "monotone-in-r") in report.violations

    def test_optimal_policies_switching_and_zero_set_monotone_in_h(self, sk, channel):
        mse_model = build_mdp(sk, channel, Q_MAX, "mse")
        grid_h05 = solve(mse_model).policy
        channel_h09 = HarqModel(0.8, 0.9, r_cap=Q_MAX)
        grid_h09 = solve(build_mdp(sk, channel_h09, Q_MAX, "mse")).policy
        assert verify_switching(grid_h05).ok
        assert verify_switching(grid_h09).ok
        # worse combining: the fresh region can only grow
        assert fresh_states(grid_h05) <= fresh_states(grid_h09)

    def test_table_channel_counterexample(self):
        # the switching structure is proven for the geometric channel; on this g_table
        # channel the delay-optimal policy breaks (i) at q = 7 and q = 8
        model = build_mdp(None, HarqModel.from_table([0.33, 0.28, 0.06]), 8, "delay")
        solution = solve(model)
        assert verify_switching(solution.policy).violations == [
            ((0, 7), (1, 7), "monotone-in-r"), ((0, 8), (1, 8), "monotone-in-r")]
        # not ties: Q(retransmit) - Q(fresh) is well away from 0 on both sides of the pair
        pf, h = model.fail_prob, solution.bias
        q_values = model.cost + (1.0 - pf) * h[model.succ_idx] + pf * h[model.fail_idx]
        gap = q_values[1] - q_values[0]
        assert gap[state_index(0, 7)] == pytest.approx(0.4525, abs=1e-4)
        assert gap[state_index(1, 7)] == pytest.approx(-0.2202, abs=1e-4)
        # the optimal chain never visits (1, 7)
        assert solution.pi[state_index(1, 7)] == 0.0


class TestCsvRoundTrip:
    def test_round_trip(self, tmp_path, sk, channel):
        grid = myopic_policy(sk, channel, Q_MAX)
        path = tmp_path / "policy.csv"
        save_policy_csv(grid, path)
        loaded = load_policy_csv(path, label="reloaded")
        assert loaded == grid
        assert loaded.label == "reloaded"

    def test_rejects_partial_grid(self, tmp_path):
        path = tmp_path / "partial.csv"
        path.write_text("r,q,action\n0,0,0\n0,1,1\n")  # (1,1) missing
        with pytest.raises(ValueError, match=re.escape("missing states [(1, 1)]")):
            load_policy_csv(path)
        # one row naming q = 2000 (2003001 states): the check must not build every state
        path.write_text("r,q,action\n1,2000,0\n")
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape("[(0, 0), (0, 1), (0, 2), (0, 3), (0, 4)]")):
                load_policy_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_rejects_bad_rows(self, tmp_path):
        path = tmp_path / "bad.csv"
        for text, message in [
            ("r,q,action\n2,1,0\n", "invalid state (2, 1)"),
            ("r,q,action\n0,0,5\n", "invalid action 5"),
            ("x,y,z\n0,0,0\n", "unexpected policy CSV header"),
            ("r,q,action\n0,0\n", "malformed policy CSV row: ['0', '0']"),
            ("r,q,action\n0,0,0\n0,0,1\n", "duplicate state (0, 0)"),
            ("r,q,action\n", "contains no states"),
        ]:
            path.write_text(text)
            with pytest.raises(ValueError, match=re.escape(message)):
                load_policy_csv(path)

    def test_skips_blank_rows(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("r,q,action\n\n0,0,0\n0,1,1\n\n1,1,0\n\n")
        assert np.array_equal(load_policy_csv(path).actions, psi_policy(1).actions)

    def test_serialization_order(self, tmp_path):
        path = tmp_path / "psi.csv"
        save_policy_csv(psi_policy(2), path)
        rows = path.read_text().strip().splitlines()
        assert rows == ["r,q,action", "0,0,0", "0,1,1", "1,1,0", "0,2,1", "1,2,1", "2,2,0"]
