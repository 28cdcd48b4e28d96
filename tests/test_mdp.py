import dataclasses
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from remest import (
    HarqModel,
    LtiSystem,
    PolicyGrid,
    SimConfig,
    SolverError,
    SteadyKalman,
    arq_baseline_policy,
    build_mdp,
    evaluate_policy,
    myopic_policy,
    psi_policy,
    riccati_steady_state,
    simulate_chain,
    solve,
    stationary_distribution,
    verify_switching,
)
from remest.mdp import _chain, _evaluate
from remest.policies import enumerate_states, state_index

Q_MAX = 20


@pytest.fixture(scope="module")
def mse_mdp(sk, channel):
    return build_mdp(sk, channel, Q_MAX, "mse")


@pytest.fixture(scope="module")
def mse_solution(mse_mdp):
    return solve(mse_mdp)


def arq_stationary_oracle(lam, cost_table, q_max):
    """Closed-form average cost of the always-fresh policy on the truncated
    grid: staleness is geometric with the tail mass parked at q_max."""
    total = sum(lam * (1 - lam) ** n * cost_table[n] for n in range(q_max))
    return total + (1 - lam) ** q_max * cost_table[q_max]


def gth_gain(model, policy):
    """Average cost from the stationary distribution of gth_stationary."""
    return float(gth_stationary(model, policy) @ model.cost)


def gth_stationary(model, policy):
    """Stationary distribution by Grassmann-Taksar-Heyman elimination of
    the whole chain, which never subtracts and so keeps every entry,
    however small, to full relative accuracy."""
    n = model.n_states
    p = np.zeros((n, n))
    for i, (r, q) in enumerate(zip(*enumerate_states(model.q_max))):
        action = policy.actions[r, q]
        pf = model.fail_prob[action, i]
        p[i, model.succ_idx[action, i]] += 1.0 - pf
        p[i, model.fail_idx[action, i]] += pf
    for k in range(n - 1, 0, -1):
        p[:k, k] /= p[k, :k].sum()
        p[:k, :k] += np.outer(p[:k, k], p[k, :k])
    pi = np.zeros(n)
    pi[0] = 1.0
    for k in range(1, n):
        pi[k] = pi[:k] @ p[:k, k]
    return pi / pi.sum()


def dense_poisson(model, actions):
    """Gain and bias by one dense LU solve of the Poisson equation
    (I - P) h + g 1 = c with h(ref) = 0: the column of I - P that h(ref)
    would multiply is replaced by the ones that multiply g."""
    probs, targets, ref = _chain(model, actions)
    n = model.n_states
    lhs = np.eye(n)
    np.add.at(lhs, (np.arange(n), targets), -probs)
    lhs[:, ref] = 1.0
    h = np.linalg.solve(lhs, model.cost)
    gain = float(h[ref])
    h[ref] = 0.0
    return gain, h


def fraction_poisson(model, actions):
    """Gain and bias by exact Gaussian elimination over fractions, pinned as
    dense_poisson. A state fails with the model's float64 probability pf
    and succeeds with exactly 1 - pf, so each row sums to 1 exactly: with
    1 - pf rounded, a row would leak up to 1e-16 per step, which outweighs
    a chance of 1e-14 to reach ref."""
    probs, targets, ref = _chain(model, actions)
    n = model.n_states
    a = [[Fraction(int(i == j)) for j in range(n)] + [Fraction(model.cost[i])] for i in range(n)]
    for i in range(n):
        pf = Fraction(probs[1, i])
        a[i][targets[0, i]] -= 1 - pf
        a[i][targets[1, i]] -= pf
        a[i][ref] = Fraction(1)
    for col in range(n):
        pivot = next(row for row in range(col, n) if a[row][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        for row in range(n):
            if row != col and a[row][col] != 0:
                ratio = a[row][col] / a[col][col]
                a[row] = [x - ratio * y for x, y in zip(a[row], a[col])]
    h = [a[i][n] / a[i][i] for i in range(n)]
    gain = h[ref]
    h[ref] = Fraction(0)
    return gain, h


def outcomes(model, state, action):
    """{next_state: probability} for one (state, action), read off the
    model's succ_idx, fail_idx and fail_prob arrays."""
    i = state_index(*state)
    pf = float(model.fail_prob[action, i])
    out = {}
    for idx, prob in ((model.succ_idx[action, i], 1.0 - pf), (model.fail_idx[action, i], pf)):
        key = list(zip(*enumerate_states(model.q_max)))[idx]
        out[key] = out.get(key, 0.0) + prob
    return out


def build_oracle(sk, m, q_max, cost_kind):
    """succ_idx, fail_idx, fail_prob and cost by build_mdp's docstring rules, state by state."""
    index = {s: i for i, s in enumerate(zip(*enumerate_states(q_max)))}
    n = len(index)
    succ, fail = np.zeros((2, n), dtype=np.int32), np.zeros((2, n), dtype=np.int32)
    pfail, cost = np.zeros((2, n)), np.zeros(n)
    for (r, q), i in index.items():
        r_next, q_next = min(r + 1, q_max), min(q + 1, q_max)
        succ[:, i] = index[(0, 0)], index[(r_next, r_next)]
        fail[:, i] = index[(0, q_next)], index[(r_next, q_next)]
        pfail[:, i] = m.failure_prob(0), m.failure_prob(min(r + 1, m.r_cap))
        cost[i] = sk.cost_table[q] if cost_kind == "mse" else q + 1
    return succ, fail, pfail, cost


class TestBuild:
    def test_state_enumeration(self):
        states = tuple(zip(*enumerate_states(3)))
        assert states == ((0, 0), (0, 1), (1, 1), (0, 2), (1, 2), (2, 2),
                          (0, 3), (1, 3), (2, 3), (3, 3))
        for q_max in (1, 2, 3, 20):
            oracle = [(r, q) for q in range(q_max + 1) for r in range(q + 1)]  # the order, as loops
            r, q = enumerate_states(q_max)
            assert list(zip(r.tolist(), q.tolist())) == oracle
            assert r.dtype.kind == q.dtype.kind == "i"
            assert not r.flags.writeable and not q.flags.writeable
            model = build_mdp(None, HarqModel(0.8, 0.5), q_max, "delay")
            assert np.array_equal(model.r, r) and np.array_equal(model.q, q)

    def test_fresh_transition_from_origin(self, mse_mdp):
        assert outcomes(mse_mdp, (0, 0), 0) == {(0, 0): pytest.approx(0.8), (0, 1): pytest.approx(0.2)}

    def test_retransmit_transition(self, mse_mdp):
        # g(2) = 0.2 * 0.25 = 0.05
        out = outcomes(mse_mdp, (1, 3), 1)
        assert out == {(2, 2): pytest.approx(0.95), (2, 4): pytest.approx(0.05)}

    def test_r_passes_the_channel_r_cap(self, sk):
        # r counts on to q_max as in the simulators; only g saturates at r_cap = 3
        model = build_mdp(sk, HarqModel.from_table([0.2, 0.1, 0.05, 0.025]), Q_MAX, "mse")
        assert outcomes(model, (5, 7), 1) == {(6, 6): pytest.approx(0.975),
                                              (6, 8): pytest.approx(0.025)}
        assert outcomes(model, (Q_MAX, Q_MAX), 1) == {(Q_MAX, Q_MAX): pytest.approx(1.0)}

    def test_boundary_saturation(self, mse_mdp):
        out = outcomes(mse_mdp, (0, Q_MAX), 0)
        assert set(out) == {(0, 0), (0, Q_MAX)}
        out = outcomes(mse_mdp, (Q_MAX, Q_MAX), 1)
        assert all(r <= q <= Q_MAX for (r, q) in out)

    def test_merged_outcomes_still_sum_to_one(self, mse_mdp):
        # both branches of retransmitting at (0, 0) land on (1, 1)
        assert outcomes(mse_mdp, (0, 0), 1) == {(1, 1): pytest.approx(1.0)}

    def test_all_probabilities_sum_to_one(self, mse_mdp):
        for state in zip(*enumerate_states(mse_mdp.q_max)):
            for action in (0, 1):
                total = sum(outcomes(mse_mdp, state, action).values())
                assert abs(total - 1.0) < 1e-12

    def test_costs(self, sk, channel, mse_mdp):
        for i, (r, q) in enumerate(zip(*enumerate_states(mse_mdp.q_max))):
            assert mse_mdp.cost[i] == sk.cost_table[q]
        delay = build_mdp(None, channel, 5, "delay")
        for i, (r, q) in enumerate(zip(*enumerate_states(delay.q_max))):
            assert delay.cost[i] == q + 1

    def test_delay_model_does_not_read_sk(self, sk, channel):
        with_sk, without = build_mdp(sk, channel, Q_MAX, "delay"), build_mdp(None, channel, Q_MAX, "delay")
        for field in dataclasses.fields(with_sk):
            a, b = getattr(with_sk, field.name), getattr(without, field.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and np.array_equal(a, b), field.name
            else:
                assert a == b, field.name

    @pytest.mark.parametrize("cost_kind", ["mse", "delay"])
    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [1, 2, 20, 40])
    def test_arrays_match_per_state_oracle(self, system, q_max, table, cost_kind):
        # the table channel's r_cap of 3 lies below q_max from q_max = 20 on
        m = HarqModel.from_table([0.2, 0.1, 0.05, 0.025]) if table else HarqModel(0.8, 0.5, r_cap=q_max)
        sk = riccati_steady_state(system, q_max=q_max)
        model = build_mdp(sk if cost_kind == "mse" else None, m, q_max, cost_kind)
        succ, fail, pfail, cost = build_oracle(sk, m, q_max, cost_kind)
        assert np.array_equal(model.succ_idx, succ)
        assert np.array_equal(model.fail_idx, fail)
        assert np.array_equal(model.fail_prob, pfail)
        assert np.array_equal(model.cost, cost)
        # the age q + 1 under either cost, which the delay model takes as its cost
        assert model.age.dtype == np.float64 and np.array_equal(model.age, model.q + 1.0)
        assert cost_kind == "mse" or np.array_equal(model.cost, model.age)
        states = list(zip(*enumerate_states(q_max)))
        assert [state_index(r, q) for r, q in states] == list(range(len(states)))
        assert np.array_equal(state_index(model.r, model.q), np.arange(len(states)))
        assert list(zip(model.r.tolist(), model.q.tolist())) == list(states)
        for arr in (model.r, model.q, model.age):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_validation(self, sk, channel):
        with pytest.raises(ValueError):
            build_mdp(sk, channel, 0, "mse")
        with pytest.raises(ValueError):
            build_mdp(None, channel, 5, "mse")
        with pytest.raises(ValueError):
            build_mdp(sk, channel, 5, "energy")
        with pytest.raises(ValueError):
            build_mdp(sk, channel, sk.n_max + 1, "mse")


class TestRvi:
    """solve(); the class name predates policy iteration and keeps the test ids stable."""

    def test_perfect_channel_never_retransmits(self, sk):
        channel = HarqModel(1.0, 0.5, r_cap=Q_MAX)
        model = build_mdp(sk, channel, Q_MAX, "mse")
        solution = solve(model)
        assert solution.policy == arq_baseline_policy(Q_MAX)
        # hand evaluation: the chain sits at (0, 0) paying the base staleness cost
        assert solution.gain == pytest.approx(sk.cost_table[0], abs=1e-6)

    def test_benchmark_policy_is_switching(self, mse_solution):
        report = verify_switching(mse_solution.policy)
        assert report.ok

    def test_delay_arq_degeneration_prefers_fresh(self, channel):
        arq_channel = HarqModel(0.8, 1.0, r_cap=Q_MAX)
        model = build_mdp(None, arq_channel, Q_MAX, "delay")
        solution = solve(model)
        assert solution.policy == arq_baseline_policy(Q_MAX)
        # retransmitting policies can only be worse on the same chain
        assert evaluate_policy(model, psi_policy(Q_MAX)) >= solution.gain - 1e-9

    def test_gain_matches_policy_evaluation(self, mse_mdp, mse_solution):
        gain_eval = evaluate_policy(mse_mdp, mse_solution.policy)
        tol_eff = max(1e-9, mse_solution.span_residual)
        assert abs(mse_solution.gain - gain_eval) <= 10 * tol_eff

    def test_delay_gain_matches_policy_evaluation_tightly(self, channel):
        model = build_mdp(None, channel, Q_MAX, "delay")
        solution = solve(model, tol=1e-9)
        assert solution.span_residual < 1e-9
        gain_eval = evaluate_policy(model, solution.policy)
        assert abs(solution.gain - gain_eval) <= 10 * 1e-9

    def test_bias_nondecreasing_in_q(self, mse_solution):
        bias = {s: b for s, b in zip(zip(*enumerate_states(Q_MAX)), mse_solution.bias)}
        for (r, q), value in bias.items():
            if (r, q + 1) in bias:
                assert bias[(r, q + 1)] >= value - 1e-6

    def test_truncation_insensitivity(self, system, channel, sk):
        sol20 = solve(build_mdp(sk, channel, 20, "mse"))
        sk30 = riccati_steady_state(system, q_max=30)
        channel30 = HarqModel(0.8, 0.5, r_cap=30)
        sol30 = solve(build_mdp(sk30, channel30, 30, "mse"))
        assert abs(sol30.gain - sol20.gain) / sol20.gain < 0.005

    def test_invalid_params(self, mse_mdp):
        with pytest.raises(ValueError):
            solve(mse_mdp, tol=0.0)
        with pytest.raises(ValueError):
            solve(mse_mdp, max_iter=0)

    @pytest.mark.parametrize("tol", [np.inf, np.nan])
    def test_non_finite_tol_rejected(self, mse_mdp, tol):
        # inf let the first round stop switching; nan never settled
        with pytest.raises(ValueError, match="finite"):
            solve(mse_mdp, tol=tol)

    def test_unsettled_policy_iteration_is_a_solver_error(self, mse_mdp):
        # all-fresh is not optimal here, so one round cannot settle
        with pytest.raises(SolverError):
            solve(mse_mdp, max_iter=1)

    @pytest.mark.parametrize("channel_id, q_max", [
        ("g0.2+0.1x20", 20),
        ("l0.8-h0.3", 20),
        ("l0.8-h0.3", 40),
    ])
    @pytest.mark.parametrize("kind", ["mse", "delay"])
    def test_models_value_iteration_could_not_solve(self, system, channel_id, q_max, kind):
        if channel_id == "g0.2+0.1x20":
            channel = HarqModel.from_table([0.2] + [0.1] * 20)
        else:
            channel = HarqModel(0.8, 0.3, r_cap=q_max)
        sk_q = None
        if kind == "mse":
            sk_q = riccati_steady_state(system, q_max=q_max)
        model = build_mdp(sk_q, channel, q_max, kind)
        solution = solve(model)
        assert solution.gain == evaluate_policy(model, solution.policy)
        assert verify_switching(solution.policy).ok
        assert solution.policy != arq_baseline_policy(q_max)  # the policy switches


SCALES = [1e-12, 1e-9, 1e-6, 1e3, 1e10]


class TestUnits:
    """Scaling Q and R by s scales the filter and every cost by s: gain / s and the policy stay."""

    @pytest.mark.parametrize("s", SCALES)
    def test_scaled_filter_keeps_policy_and_gain(self, sk, channel, mse_solution, s):
        # an absolute switching floor of tol picked a policy 7.8% worse at s = 1e-12
        scaled = SteadyKalman(p_bar0=sk.p_bar0 * s, gain=sk.gain, cost_table=sk.cost_table * s)
        solution = solve(build_mdp(scaled, channel, Q_MAX, "mse"))
        assert solution.policy == mse_solution.policy
        assert solution.gain / s == pytest.approx(mse_solution.gain, rel=1e-12)

    @pytest.mark.parametrize("s", SCALES)
    def test_scaled_noise_keeps_policy_and_gain(self, system, channel, mse_solution, s):
        # an absolute Riccati stop gave gain / s 30% low at s = 1e-9 and never stopped at 1e10
        scaled = LtiSystem(system.A, system.C, system.Q * s, system.R * s)
        solution = solve(build_mdp(riccati_steady_state(scaled, q_max=Q_MAX), channel, Q_MAX, "mse"))
        assert solution.policy == mse_solution.policy
        assert solution.gain / s == pytest.approx(mse_solution.gain, rel=1e-8)


class TestEvaluatePolicy:
    def test_perfect_channel_fresh_policy(self, sk):
        channel = HarqModel(1.0, 0.5, r_cap=Q_MAX)
        model = build_mdp(sk, channel, Q_MAX, "mse")
        gain = evaluate_policy(model, arq_baseline_policy(Q_MAX))
        assert gain == pytest.approx(sk.cost_table[0], abs=1e-9)

    def test_fresh_policy_matches_geometric_oracle(self, sk, channel, mse_mdp):
        oracle = arq_stationary_oracle(0.8, sk.cost_table, Q_MAX)
        gain = evaluate_policy(mse_mdp, arq_baseline_policy(Q_MAX))
        assert gain == pytest.approx(oracle, rel=1e-9)

    def test_geometric_oracle_with_uncapped_costs(self, system):
        # stationary weights reach 0.2^30 against costs of 7e15; a stationary
        # LU solve was 1.5e-3 off here
        sk30 = riccati_steady_state(system, q_max=30)
        model = build_mdp(sk30, HarqModel(0.8, 0.5, r_cap=30), 30, "mse")
        gain = evaluate_policy(model, arq_baseline_policy(30))
        assert gain == pytest.approx(arq_stationary_oracle(0.8, sk30.cost_table, 30), rel=1e-9)

    def test_arq_gain_approaches_the_untruncated_limit(self, system):
        # the untruncated always-fresh cost is sum_n lam (1-lam)^n c_n; past
        # n = 150 the terms shrink like (0.2 rho^2)^n ~ 0.68^n below 1e-25
        sk150 = riccati_steady_state(system, q_max=150)
        limit = sum(0.8 * 0.2**n * sk150.cost_table[n] for n in range(150))
        assert limit == pytest.approx(20.0459246302, rel=1e-10)
        sk40 = riccati_steady_state(system, q_max=40)
        model = build_mdp(sk40, HarqModel(0.8, 0.5, r_cap=40), 40, "mse")
        assert evaluate_policy(model, arq_baseline_policy(40)) == pytest.approx(limit, rel=1e-6)
        # the solved optimum sits on shallow states, so deep costs leave it unmoved
        assert solve(model).gain == pytest.approx(17.3087546064, rel=1e-9)

    @pytest.mark.parametrize("kind", ["mse", "delay"])
    def test_matches_gth_on_the_zoo(self, sk, channel, mse_solution, kind):
        model = build_mdp(sk if kind == "mse" else None, channel, Q_MAX, kind)
        zoo = [mse_solution.policy, myopic_policy(sk, channel, Q_MAX),
               solve(build_mdp(None, channel, Q_MAX, "delay")).policy,
               arq_baseline_policy(Q_MAX), psi_policy(Q_MAX)]
        for grid in zoo:
            assert evaluate_policy(model, grid) == pytest.approx(gth_gain(model, grid), rel=1e-12)

    def test_table_channel_past_r_cap_matches_simulation(self, sk):
        # the model once froze r at the table's r_cap = 3 while the
        # simulators count it on, and gave psi an exact MSE of 1025.5
        table = HarqModel.from_table([0.2, 0.1, 0.05, 0.025])
        grid = psi_policy(Q_MAX)
        mse = evaluate_policy(build_mdp(sk, table, Q_MAX, "mse"), grid)
        aoi = evaluate_policy(build_mdp(None, table, Q_MAX, "delay"), grid)
        assert mse == pytest.approx(21.436, abs=5e-4)
        assert aoi == pytest.approx(1.4201, abs=5e-5)
        report = simulate_chain(grid, table, sk, SimConfig(horizon=2000, runs=256, seed=5))
        assert report.final_avg_mse == pytest.approx(mse, rel=0.02)
        assert report.final_avg_aoi == pytest.approx(aoi, rel=0.01)

    def test_optimal_dominates_the_zoo(self, sk, channel, mse_mdp, mse_solution):
        competitors = [
            myopic_policy(sk, channel, Q_MAX),
            solve(build_mdp(None, channel, Q_MAX, "delay")).policy,
            arq_baseline_policy(Q_MAX),
            psi_policy(Q_MAX),
        ]
        optimal_gain = evaluate_policy(mse_mdp, mse_solution.policy)
        for grid in competitors:
            assert optimal_gain <= evaluate_policy(mse_mdp, grid) + 1e-6

    def test_reducible_chain_detected(self, sk):
        channel = HarqModel(1.0, 0.5, r_cap=Q_MAX)
        model = build_mdp(sk, channel, Q_MAX, "mse")
        # two absorbing states: (0,0) under fresh, (q_max,q_max) under retransmit
        actions = np.ones((Q_MAX + 1, Q_MAX + 1), dtype=np.int8)
        actions[0, 0] = 0
        broken = PolicyGrid(Q_MAX, actions)
        with pytest.raises(RuntimeError):
            evaluate_policy(model, broken)

    def test_two_recurrent_classes_detected(self, mse_mdp):
        # always-fresh never reaches the corner, where retransmitting stays put
        actions = np.zeros((Q_MAX + 1, Q_MAX + 1), dtype=np.int8)
        actions[Q_MAX, Q_MAX] = 1
        with pytest.raises(SolverError):
            evaluate_policy(mse_mdp, PolicyGrid(Q_MAX, actions))

    def test_absorbing_corner_gain_is_its_cost(self, sk, mse_mdp):
        # fresh on (0, q < q_max), retransmit elsewhere: a run leaves the
        # states around (0, 0) only after q_max failures in a row (0.2^20),
        # then retransmits at the corner forever, so (0, 0) is transient
        actions = np.ones((Q_MAX + 1, Q_MAX + 1), dtype=np.int8)
        actions[0, :Q_MAX] = 0
        gain = evaluate_policy(mse_mdp, PolicyGrid(Q_MAX, actions))
        assert gain == pytest.approx(sk.cost_table[Q_MAX], rel=1e-12)

    def test_grid_mismatch(self, mse_mdp):
        with pytest.raises(ValueError):
            evaluate_policy(mse_mdp, arq_baseline_policy(5))


def level_channel(q_max, table):
    """The geometric channel at q_max, or the table channel, whose r_cap of 3
    lies below q_max from q_max = 20 on."""
    return HarqModel.from_table([0.2, 0.1, 0.05, 0.025]) if table else HarqModel(0.8, 0.5, r_cap=q_max)


def level_model(system, q_max, table):
    """The MSE model at q_max on level_channel(q_max, table)."""
    return build_mdp(riccati_steady_state(system, q_max=q_max), level_channel(q_max, table), q_max, "mse")


def zoo_of(model, name):
    if name == "optimal":
        return solve(model).policy
    return {"arq": arq_baseline_policy, "psi": psi_policy}[name](model.q_max)


def longest_paths_policy(q_max):
    """Fresh at r = 0 below level q_max - 1 and at the corner, retransmit elsewhere: the
    failure path from (0, 0) climbs to (0, q_max - 1) and walks level q_max to the corner,
    2 q_max - 1 states, the longest any policy makes."""
    actions = np.ones((q_max + 1, q_max + 1), dtype=np.int8)
    actions[0, :q_max - 1] = 0
    actions[q_max, q_max] = 0
    return PolicyGrid(q_max, actions)


def corner_policies(q_max):
    """Policies under which the corner (q_max, q_max) retransmits, so it absorbs."""
    around_origin = np.ones((q_max + 1, q_max + 1), dtype=np.int8)
    around_origin[0, :q_max] = 0  # test_absorbing_corner_gain_is_its_cost's policy
    psi_but_corner = psi_policy(q_max).actions.copy()
    psi_but_corner[q_max, q_max] = 1
    return [PolicyGrid(q_max, around_origin), PolicyGrid(q_max, psi_but_corner)]


class TestStationary:
    """stationary_distribution: level elimination against whole-chain GTH and the Poisson solve."""

    @pytest.mark.parametrize("q_max, table, name", [
        (q_max, table, name) for q_max in (1, 2, 20) for table in (False, True)
        for name in ("optimal", "arq", "psi")
    ] + [(40, False, "optimal"), (40, True, "psi")])
    def test_gain_matches_gth(self, system, q_max, table, name):
        # whole-chain GTH takes ~1 s per policy at q_max 40, so two policies run there
        model = level_model(system, q_max, table)
        grid = zoo_of(model, name)
        assert evaluate_policy(model, grid) == pytest.approx(gth_gain(model, grid), rel=1e-12)

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [1, 2, 20])
    def test_every_entry_matches_gth(self, system, q_max, table):
        # psi reaches entries of 5e-72 at q_max 20; each keeps full relative accuracy
        model = level_model(system, q_max, table)
        for grid in [zoo_of(model, name) for name in ("optimal", "arq", "psi")] + [
                myopic_policy(riccati_steady_state(system, q_max=q_max + 1),
                              HarqModel(0.8, 0.5, r_cap=q_max), q_max)]:
            pi, want = stationary_distribution(model, grid), gth_stationary(model, grid)
            assert np.array_equal(pi > 0, want > 0)
            np.testing.assert_allclose(pi[want > 0], want[want > 0], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("g_table", [None, (0.2, 0.1, 0.05, 0.025), (0.2, 0.1, 0.0)],
                             ids=["geometric", "table", "table-with-0"])
    @pytest.mark.parametrize("q_max", [1, 2, 20])
    def test_every_state_matches_the_dense_oracles(self, system, q_max, g_table):
        # the elimination keeps only the states a success enters, with (0, 0), (0, q_max) and
        # the corner: 3 under arq, 4 when only r = 0 retransmits, every diagonal state under
        # psi; pi, the gain and the bias must still match whole-chain GTH and the dense Poisson
        # solve at every state, those no success enters and those the chain never reaches too
        channel = HarqModel.from_table(g_table) if g_table else HarqModel(0.8, 0.5, r_cap=q_max)
        model = build_mdp(riccati_steady_state(system, q_max=q_max), channel, q_max, "mse")
        at_r0 = np.zeros((q_max + 1, q_max + 1), dtype=np.int8)
        at_r0[0] = 1
        for grid in (arq_baseline_policy(q_max), PolicyGrid(q_max, at_r0), psi_policy(q_max)):
            actions = grid.actions[model.r, model.q]
            pi, gain, h = _evaluate(model, actions, bias=True)
            np.testing.assert_allclose(pi, gth_stationary(model, grid), rtol=1e-12, atol=0.0)
            want_gain, want_h = dense_poisson(model, actions)
            assert gain == pytest.approx(want_gain, rel=1e-13)
            assert np.all(np.abs(h - want_h) <= 1e-13 * np.maximum(1.0, np.abs(want_h)))

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [1, 2, 20, 40])
    def test_poisson_gain_matches_pi_cost(self, system, q_max, table):
        model = level_model(system, q_max, table)
        for grid in [zoo_of(model, name) for name in ("optimal", "arq", "psi")]:
            gain = float(stationary_distribution(model, grid) @ model.cost)
            assert _evaluate(model, grid.actions[model.r, model.q], bias=True)[1] == gain

    def test_solved_gain_is_pi_cost(self, mse_mdp, mse_solution):
        pi = stationary_distribution(mse_mdp, mse_solution.policy)
        assert mse_solution.gain == float(pi @ mse_mdp.cost)

    def test_solved_pi_is_the_final_round(self, mse_mdp, mse_solution):
        pi = stationary_distribution(mse_mdp, mse_solution.policy)
        assert mse_solution.pi.tobytes() == pi.tobytes()
        assert not mse_solution.pi.flags.writeable

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [8, 20])
    def test_pi_does_not_depend_on_cost_or_bias(self, system, q_max, table):
        # compare takes a solved policy's pi from its own model, MSE or delay, and solve asks
        # for the bias: every one of these evaluations must give the same pi, bit for bit
        channel = level_channel(q_max, table)
        mse = level_model(system, q_max, table)
        delay = build_mdp(None, channel, q_max, "delay")
        zoo = [solve(mse).policy, solve(delay).policy, arq_baseline_policy(q_max), psi_policy(q_max),
               myopic_policy(riccati_steady_state(system, q_max=q_max + 1), channel, q_max)]
        for grid in zoo:
            actions = grid.actions[mse.r, mse.q]
            pi = _evaluate(mse, actions)[0]
            for model in (mse, delay):
                plain, with_bias = _evaluate(model, actions), _evaluate(model, actions, bias=True)
                assert plain[0].tobytes() == with_bias[0].tobytes() == pi.tobytes()
                assert plain[1] == with_bias[1] == float(pi @ model.cost)
                assert plain[2] is None and with_bias[2].shape == pi.shape

    def test_nan_gain_raises(self, mse_mdp, mse_solution):
        model = dataclasses.replace(mse_mdp, cost=np.full(mse_mdp.n_states, np.nan))
        for call in (evaluate_policy, stationary_distribution):
            with pytest.raises(SolverError, match="outside the range"):
                call(model, mse_solution.policy)

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [1, 2, 20, 40])
    def test_pi_is_stationary(self, system, q_max, table):
        model = level_model(system, q_max, table)
        rows = np.arange(model.n_states)
        for grid in [zoo_of(model, name) for name in ("optimal", "arq", "psi")]:
            pi = stationary_distribution(model, grid)
            assert pi.min() >= 0.0
            assert abs(pi.sum() - 1.0) <= 1e-15
            actions = grid.actions[model.r, model.q]
            pf = model.fail_prob[actions, rows]
            step = (np.bincount(model.succ_idx[actions, rows], pi * (1.0 - pf), model.n_states)
                    + np.bincount(model.fail_idx[actions, rows], pi * pf, model.n_states))
            assert np.abs(step - pi).sum() <= 1e-15

    @pytest.mark.parametrize("q_max", [1, 2, 20])
    def test_retransmitting_corner_is_a_point_mass(self, system, q_max):
        model = level_model(system, q_max, False)
        corner = np.zeros(model.n_states)
        corner[-1] = 1.0
        for grid in corner_policies(q_max):
            assert np.array_equal(stationary_distribution(model, grid), corner)

    def test_evaluates_and_solves_at_q_max_200(self):
        # no array grows like S^2: q_max 200 has S = 20301 states
        model = build_mdp(None, HarqModel(0.8, 0.5, r_cap=200), 200, "delay")
        near = build_mdp(None, HarqModel(0.8, 0.5, r_cap=40), 40, "delay")
        # psi's age leaves q = 40 with probability far below float64 resolution
        assert evaluate_policy(model, psi_policy(200)) == pytest.approx(
            evaluate_policy(near, psi_policy(40)), rel=1e-12)
        solution = solve(model)
        assert solution.gain == evaluate_policy(model, solution.policy)
        assert solution.gain == pytest.approx(solve(near).gain, rel=1e-12)
        assert verify_switching(solution.policy).ok
        assert solution.span_residual <= 16 * np.finfo(float).eps * np.abs(solution.bias).max()

    def test_solve_at_q_max_300_holds_under_32_mib(self):
        # the elimination holds O(S + q_max^2) floats; the S x (q_max + 2) arrays of the
        # per-level elimination peaked near 297 MB at this q_max
        model = build_mdp(None, HarqModel(0.8, 0.5, r_cap=300), 300, "delay")
        tracemalloc.start()
        try:
            solve(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


def random_unichain_grids(model, count, seed):
    """count random grids whose chains have one recurrent class."""
    rng = np.random.default_rng(seed)
    grids = []
    while len(grids) < count:
        grid = PolicyGrid(model.q_max, np.triu(rng.integers(0, 2, (model.q_max + 1,) * 2)))
        try:
            _chain(model, grid.actions[model.r, model.q])
        except SolverError:
            continue
        grids.append(grid)
    return grids


def dense_policy_iteration(model, tol):
    """solve's policy iteration, driven by dense_poisson: final actions, rounds, gain."""
    rows = np.arange(model.n_states)
    actions = np.zeros(model.n_states, dtype=np.intp)
    for iterations in range(1, 100):
        gain, h = dense_poisson(model, actions)
        pf = model.fail_prob
        q = model.cost + (1.0 - pf) * h[model.succ_idx] + pf * h[model.fail_idx]
        current = q[actions, rows]
        switch = q[1 - actions, rows] < current - tol * np.maximum(1.0, np.abs(current))
        if not switch.any():
            return actions, iterations, gain
        actions = np.where(switch, 1 - actions, actions)
    raise AssertionError("dense policy iteration did not settle")


# (id, lambda, h or None, g_table or None, q_max): the solve-sweep benchmark's required models
SWEEP_MODELS = (
    ("l0.8-h0.9-q20", 0.8, 0.9, None, 20),
    ("l0.8-h0.3-q20", 0.8, 0.3, None, 20),
    ("l0.8-h0.3-q40", 0.8, 0.3, None, 40),
    ("g0.2+0.1x20-q20", 0.8, None, (0.2,) + (0.1,) * 20, 20),
    ("g0.2-0.1-0.05-0.025-q20", 0.8, None, (0.2, 0.1, 0.05, 0.025), 20),
    ("l0.8-h0.5-q40", 0.8, 0.5, None, 40),
    ("l0.85-h0.6-q40", 0.85, 0.6, None, 40),
) + tuple((f"l0.85-h{h}-q{q_max}", 0.85, h, None, q_max)
          for h in (0.35, 0.6, 0.9) for q_max in (10, 20))


class TestPoisson:
    """_evaluate's bias, from the level elimination, against dense and exact solves."""

    @staticmethod
    def assert_matches(model, grid, want_gain, want_h):
        _, gain, h = _evaluate(model, grid.actions[model.r, model.q], bias=True)
        assert gain == pytest.approx(want_gain, rel=1e-13)
        want_h = np.asarray(want_h, dtype=float)
        assert np.all(np.abs(h - want_h) <= 1e-13 * np.maximum(1.0, np.abs(want_h)))

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [1, 2, 20, 40])
    def test_bias_matches_dense_solve(self, system, q_max, table):
        # arq is the always-fresh grid; under always-retransmit the corner absorbs and is ref
        model = level_model(system, q_max, table)
        retransmit = PolicyGrid(q_max, np.ones((q_max + 1, q_max + 1), dtype=np.int8))
        for grid in [zoo_of(model, name) for name in ("optimal", "arq", "psi")] + [retransmit]:
            self.assert_matches(model, grid, *dense_poisson(model, grid.actions[model.r, model.q]))

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    @pytest.mark.parametrize("q_max", [33, 64])
    def test_longest_failure_paths(self, system, q_max, table):
        # the path from (0, 0) has 65 states at q_max 33 and 127 at 64: a partial and a full
        # last doubling round of the path table, and at 64 the bias's recurrence needs every
        # round of pointers; on the table channel pi at the path's end is 1.9e-73 and 8.7e-145,
        # and every entry of pi P above the underflow, a sum of positive terms, must match pi
        # to full relative accuracy
        model = level_model(system, q_max, table)
        grid = longest_paths_policy(q_max)
        actions, rows = grid.actions[model.r, model.q], np.arange(model.n_states)
        self.assert_matches(model, grid, *dense_poisson(model, actions))
        pi = stationary_distribution(model, grid)
        pf = model.fail_prob[actions, rows]
        step = (np.bincount(model.succ_idx[actions, rows], pi * (1.0 - pf), model.n_states)
                + np.bincount(model.fail_idx[actions, rows], pi * pf, model.n_states))
        normal = step > np.finfo(float).tiny
        np.testing.assert_allclose(pi[normal], step[normal], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    def test_bias_matches_exact_elimination(self, system, table):
        model = level_model(system, 3, table)
        for grid in random_unichain_grids(model, 5, seed=18) + corner_policies(3):
            gain, h = fraction_poisson(model, grid.actions[model.r, model.q])
            self.assert_matches(model, grid, float(gain), [float(x) for x in h])

    @pytest.mark.parametrize("table", [False, True], ids=["geometric", "table"])
    def test_corner_grids_match_exact_elimination(self, system, table):
        # from (0, 0) the chain takes 5e5 to 1e14 steps on average to reach the absorbing
        # corner here, so the bias reaches -1.6e19; a dense LU solve is off by up to 1e-3
        # relative on these grids, and the level elimination by under 1e-15
        model = level_model(system, 8, table)
        for grid in corner_policies(8):
            gain, h = fraction_poisson(model, grid.actions[model.r, model.q])
            self.assert_matches(model, grid, float(gain), [float(x) for x in h])

    @pytest.mark.parametrize("kind", ["mse", "delay"])
    @pytest.mark.parametrize("model_id, lam, h, g_table, q_max", SWEEP_MODELS,
                             ids=[m[0] for m in SWEEP_MODELS])
    def test_solve_matches_dense_policy_iteration(self, system, model_id, lam, h, g_table,
                                                  q_max, kind):
        channel = HarqModel.from_table(g_table) if g_table else HarqModel(lam, h, r_cap=q_max)
        sk_q = riccati_steady_state(system, q_max=q_max) if kind == "mse" else None
        model = build_mdp(sk_q, channel, q_max, kind)
        solution = solve(model)
        actions, iterations, gain = dense_policy_iteration(model, tol=1e-9)
        assert np.array_equal(solution.policy.actions[model.r, model.q], actions)
        assert solution.iterations == iterations
        assert solution.gain == pytest.approx(gain, rel=1e-13)
