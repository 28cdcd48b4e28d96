import re

import numpy as np
import pytest

from remest import HarqModel


class TestFailureProb:
    def test_fresh_transmission(self):
        m = HarqModel(0.8, 0.5)
        assert m.failure_prob(0) == 1.0 - 0.8  # exact float identity
        assert m.failure_prob(0) == pytest.approx(0.2)

    def test_first_retransmission(self):
        m = HarqModel(0.8, 0.5)
        assert m.failure_prob(1) == pytest.approx(0.1)

    def test_arq_degeneration(self):
        m = HarqModel(0.8, 1.0, r_cap=10)
        for r in range(11):
            assert m.failure_prob(r) == pytest.approx(0.2)

    def test_out_of_range(self):
        m = HarqModel(0.8, 0.5, r_cap=5)
        with pytest.raises(ValueError):
            m.failure_prob(6)
        assert m.failure_prob_clamped(6) == m.failure_prob(5)

    def test_clamped_is_elementwise(self):
        for m in (HarqModel(0.8, 0.5, r_cap=5), HarqModel.from_table([0.2, 0.1, 0.05, 0.025])):
            counts = np.arange(12)  # past both r_caps
            got = m.failure_prob_clamped(counts)
            assert got.tolist() == [m.failure_prob_clamped(int(c)) for c in counts]
            assert got.tolist() == [m.failure_prob(min(int(c), m.r_cap)) for c in counts]

    def test_non_increasing_and_exact_at_zero(self):
        for lam in (0.05, 0.3, 0.8, 1.0):
            for h in (0.1, 0.5, 1.0):
                m = HarqModel(lam, h)
                g = [m.failure_prob(r) for r in range(m.r_cap + 1)]
                assert g[0] == 1.0 - lam
                assert all(a >= b for a, b in zip(g, g[1:]))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            HarqModel(0.0, 0.5)
        with pytest.raises(ValueError):
            HarqModel(1.1, 0.5)
        with pytest.raises(ValueError):
            HarqModel(0.8, 0.0)
        with pytest.raises(ValueError):
            HarqModel(0.8, 1.5)
        with pytest.raises(ValueError, match="r_cap"):
            HarqModel(0.8, 0.5, r_cap=0)


class TestTableOverride:
    def test_table_model(self):
        m = HarqModel.from_table([0.2, 0.05, 0.01])
        assert m.lam == pytest.approx(0.8)
        assert m.r_cap == 2
        assert m.failure_prob(2) == 0.01
        assert m.lambda_prime() == pytest.approx(0.95)

    @pytest.mark.parametrize("table", [[0.2], [[0.2, 0.1], [0.1, 0.05]]], ids=["one-entry", "2-D"])
    def test_table_shape_rejected(self, table):
        with pytest.raises(ValueError, match="1-D sequence with at least two entries"):
            HarqModel.from_table(table)

    def test_increasing_table_rejected(self):
        with pytest.raises(ValueError):
            HarqModel.from_table([0.2, 0.3])

    def test_certain_failure_rejected(self):
        with pytest.raises(ValueError):
            HarqModel.from_table([1.0, 0.5])

    def test_nan_entry_rejected(self):
        # NaN compares false both ways, so it must fail the range check, not pass it
        for table in ([0.2, 0.1, np.nan, 0.05], [np.nan, 0.1]):
            with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
                HarqModel.from_table(table)

    def test_first_retransmission_as_reliable_as_new_accepted(self):
        m = HarqModel.from_table([0.99, 0.99, 0.5])
        assert m.lambda_prime() == pytest.approx(0.01)
        assert m.failure_prob(2) == 0.5

    def test_constant_table_is_arq(self):
        m = HarqModel.from_table([0.2, 0.2, 0.2])
        assert m.lambda_prime() == pytest.approx(0.8)


class TestAttributes:
    """Both constructors set the same attributes, to these values bit for bit."""

    @pytest.mark.parametrize("lam, h, r_cap", [(0.8, 0.5, 20), (1, 1, 1), (np.float64(0.3), 0.9, np.int64(7))])
    def test_geometric(self, lam, h, r_cap):
        m = HarqModel(lam, h, r_cap=r_cap)
        assert type(m.lam) is float and m.lam == float(lam)  # the given lambda, not 1 - g(0)
        assert type(m.h) is float and m.h == float(h)
        assert type(m.r_cap) is int and m.r_cap == int(r_cap)
        expected = (1.0 - lam) * float(h) ** np.arange(int(r_cap) + 1, dtype=float)
        assert m._g.dtype == np.float64 and np.array_equal(m._g, expected)
        assert not m._g.flags.writeable

    @pytest.mark.parametrize("table", [[0.2, 0.1, 0.05, 0.025], [0.7, 0.7], [0.0, 0.0, 0.0]])
    def test_table(self, table):
        given = np.array(table)
        m = HarqModel.from_table(given)
        assert type(m.lam) is float and m.lam == 1.0 - table[0]
        assert m.h is None
        assert type(m.r_cap) is int and m.r_cap == len(table) - 1
        assert m._g.dtype == np.float64 and m._g.tolist() == table
        assert not m._g.flags.writeable
        # a copy: the caller's array stays writeable, and writing to it leaves the model alone
        assert given.flags.writeable and not np.shares_memory(m._g, given)
        given[:] = 0.5
        assert m._g.tolist() == table


class TestLambdaPrime:
    def test_geometric(self):
        assert HarqModel(0.8, 0.5).lambda_prime() == pytest.approx(0.9)

    def test_arq(self):
        assert HarqModel(0.8, 1.0).lambda_prime() == pytest.approx(0.8)

    def test_perfect_channel(self):
        assert HarqModel(1.0, 0.5).lambda_prime() == pytest.approx(1.0)


class TestStabilityCheck:
    def test_benchmark_setting(self):
        report = HarqModel(0.8, 0.5).stability_check(3.3801)
        assert report.stable and report
        assert report.margin == pytest.approx(0.338, abs=1e-3)

    def test_exact_boundary_fails(self):
        # lambda' = 0.5 exactly, rho^2 = 2: product is exactly 1, strict < required
        report = HarqModel(0.5, 1.0).stability_check(2.0)
        assert report.margin == 1.0
        assert not report.stable

    def test_bad_channel_fails(self):
        report = HarqModel(0.01, 0.99).stability_check(3.3801)
        assert not report.stable and not report

    def test_monotonicity(self):
        rho = 3.3801
        lams = np.linspace(0.05, 1.0, 12)
        hs = np.linspace(0.1, 1.0, 8)
        for h in hs:
            stable_flags = [HarqModel(lam, h).stability_check(rho).stable for lam in lams]
            # once stable while increasing lambda, never flips back
            assert stable_flags == sorted(stable_flags)
        for lam in lams:
            flags = [HarqModel(lam, h).stability_check(rho).stable for h in hs]
            # decreasing h (reversed scan) never flips stable -> unstable
            assert flags[::-1] == sorted(flags[::-1])

    def test_unseen_mode_fails(self):
        report = HarqModel(0.8, 0.5).stability_check(9.0, (3.0,))
        assert report.margin == pytest.approx(0.9)
        assert report.unseen_modes == (3.0,)
        assert not report.stable

    def test_rho_validation(self):
        # rho(A) = 0, a zero or nilpotent A, is bounded with margin 0
        report = HarqModel(0.8, 0.5).stability_check(0.0)
        assert report.stable and report.margin == 0.0
        for bad in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=re.escape(f"got {bad!r}")):
                HarqModel(0.8, 0.5).stability_check(bad)

