"""Tests for shared-link bandwidth allocation (max-min, fair-share)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import PlatformError
from repro.platform import LinkContention, fair_share_rates, max_min_rates

F = Fraction


class TestMaxMinFixtures:
    """Hand-computed progressive-filling fixtures."""

    def test_single_bottleneck(self):
        # Three flows through one cap-1 link: equal thirds.
        rates = max_min_rates({"a": (0,), "b": (0,), "c": (0,)}, {0: F(1)})
        assert rates == {"a": F(1, 3), "b": F(1, 3), "c": F(1, 3)}

    def test_nested_bottlenecks(self):
        # link0 cap 1 carries a,b; link1 cap 1/2 carries b,c.
        # Round 1: levels are 1/2 (link0) and 1/4 (link1) → link1 freezes
        # b=c=1/4.  Round 2: link0 has 3/4 left for a alone → a=3/4.
        rates = max_min_rates(
            {"a": (0,), "b": (0, 1), "c": (1,)},
            {0: F(1), 1: F(1, 2)})
        assert rates == {"a": F(3, 4), "b": F(1, 4), "c": F(1, 4)}

    def test_equal_share_tie_broken_by_link_id(self):
        # Two disjoint links at the same fair-share level: both freeze at
        # the same rate regardless of which is picked first, but the
        # deterministic order must not crash or depend on dict order.
        rates = max_min_rates(
            {"a": (1,), "b": (0,)}, {0: F(2), 1: F(2)})
        assert rates == {"a": F(2), "b": F(2)}

    def test_work_conservation_beats_naive_order(self):
        # Regression for the dict-order bug: link1 cap 4 carries both
        # flows, link0 cap 1 carries only b.  Naively freezing the
        # *first-inserted* flow at link1's level gives a=2, b=2 — but b is
        # limited to 1 by link0, so max-min must give b=1 and let a take
        # the remaining 3.
        rates = max_min_rates(
            {"a": (1,), "b": (1, 0)}, {0: F(1), 1: F(4)})
        assert rates == {"a": F(3), "b": F(1)}

    def test_insertion_order_invariance(self):
        caps = {0: F(1), 1: F(1, 2), 2: F(3)}
        flows = {"a": (0,), "b": (0, 1), "c": (1, 2), "d": (2,)}
        import itertools
        expected = max_min_rates(flows, caps)
        for perm in itertools.permutations(flows):
            shuffled = {fid: flows[fid] for fid in perm}
            assert max_min_rates(shuffled, caps) == expected

    def test_duplicate_links_in_route_count_once(self):
        rates = max_min_rates({"a": (0, 0, 0)}, {0: F(2)})
        assert rates == {"a": F(2)}

    def test_empty_flows(self):
        assert max_min_rates({}, {0: F(1)}) == {}

    def test_empty_route_rejected(self):
        with pytest.raises(PlatformError, match="empty route"):
            max_min_rates({"a": ()}, {0: F(1)})

    def test_unknown_link_rejected(self):
        with pytest.raises(PlatformError, match="unknown link"):
            max_min_rates({"a": (9,)}, {0: F(1)})


class TestFairShare:
    def test_min_over_route(self):
        # b crosses both links; its share is min(1/2, 1/4) = 1/4, and a
        # keeps only its own link0 share (no work conservation).
        rates = fair_share_rates(
            {"a": (0,), "b": (0, 1), "c": (1,)},
            {0: F(1), 1: F(1, 2)})
        assert rates == {"a": F(1, 2), "b": F(1, 4), "c": F(1, 4)}

    def test_never_exceeds_maxmin(self):
        caps = {0: F(1), 1: F(1, 2), 2: F(3)}
        flows = {"a": (0,), "b": (0, 1), "c": (1, 2), "d": (2,)}
        mm = max_min_rates(flows, caps)
        fs = fair_share_rates(flows, caps)
        for fid in flows:
            assert fs[fid] <= mm[fid]

    def test_empty_route_rejected(self):
        with pytest.raises(PlatformError, match="empty route"):
            fair_share_rates({"a": ()}, {0: F(1)})

    def test_unknown_link_rejected(self):
        with pytest.raises(PlatformError, match="unknown link"):
            fair_share_rates({"a": (5,)}, {0: F(1)})


class TestLinkContention:
    def test_unknown_mode_rejected(self):
        with pytest.raises(PlatformError, match="contention mode"):
            LinkContention({0: F(1)}, mode="tcp")

    def test_exclusive_flow_stays_integer(self):
        # Capacity 1/c with a single flow: rate is 1/c, volume 1, and
        # _exact keeps everything int-typed where integral.
        mgr = LinkContention({0: F(1, 4)})
        updates = mgr.start("t", (0,), 1, 0)
        assert updates == [("t", F(1, 4), 1)]
        assert mgr.remaining_volume("t", 2) == F(1, 2)
        assert isinstance(mgr.remaining_volume("t", 4), int)
        assert mgr.finish("t", 4) == []
        assert len(mgr) == 0

    def test_new_flow_always_reported(self):
        # A zero-capacity corner can allocate the new flow rate 0 == its
        # initial rate; start() must still report it once.
        mgr = LinkContention({0: F(1)})
        updates = mgr.start("a", (0,), 1, 0)
        assert [u[0] for u in updates] == ["a"]

    def test_only_changed_flows_reported(self):
        mgr = LinkContention({0: F(1), 1: F(1)})
        mgr.start("a", (0,), 1, 0)
        # b on a disjoint link: a's rate is untouched, so only b reports.
        updates = mgr.start("b", (1,), 1, 0)
        assert [u[0] for u in updates] == ["b"]
        assert mgr.rate_changes == 0

    def test_settlement_on_rate_change(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        # At t=1/2, a has moved 1/2; b joining halves both rates.
        updates = dict((fid, (rate, vol))
                       for fid, rate, vol in mgr.start("b", (0,), 1, F(1, 2)))
        assert updates["a"] == (F(1, 2), F(1, 2))
        assert updates["b"] == (F(1, 2), 1)
        assert mgr.rate_changes == 1
        # b finishing restores a to full rate with its settled volume.
        updates = mgr.finish("b", F(3, 2))
        assert updates == [("a", 1, 0)]

    def test_pause_returns_remaining_and_updates(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        mgr.start("b", (0,), 1, 0)
        remaining, updates = mgr.pause("a", F(1))
        assert remaining == F(1, 2)     # ran at rate 1/2 for 1 step
        assert updates == [("b", 1, F(1, 2))]
        assert "a" not in mgr
        assert "b" in mgr

    def test_duplicate_start_and_missing_finish_rejected(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        with pytest.raises(PlatformError, match="already active"):
            mgr.start("a", (0,), 1, 0)
        with pytest.raises(PlatformError, match="no active flow"):
            mgr.finish("ghost", 0)

    def test_reallocation_counter(self):
        mgr = LinkContention({0: F(1)})
        mgr.start("a", (0,), 1, 0)
        mgr.start("b", (0,), 1, 0)
        mgr.finish("a", 1)
        assert mgr.reallocations == 3

    def test_fairshare_mode(self):
        mgr = LinkContention({0: F(1), 1: F(1, 4)}, mode="fairshare")
        mgr.start("a", (0,), 1, 0)
        updates = dict((fid, rate)
                       for fid, rate, _ in mgr.start("b", (0, 1), 1, 0))
        assert updates["a"] == F(1, 2)
        assert updates["b"] == F(1, 4)


class TestIntegerRatioHelpers:
    """The settlement and leg-duration helpers equal the Fraction
    reference in value *and* type: an int exactly when integral."""

    @staticmethod
    def _normalized(value: Fraction):
        return value.numerator if value.denominator == 1 else value

    @staticmethod
    def _number(data, label):
        """An int, a Fraction, or an integral Fraction (mixed inputs)."""
        kind = data.draw(st.sampled_from(["int", "fraction", "integral"]),
                         label=f"{label} kind")
        num = data.draw(st.integers(-10**6, 10**6), label=f"{label} num")
        if kind == "int":
            return num
        if kind == "integral":
            return F(num)  # unnormalized: a Fraction with denominator 1
        return F(num, data.draw(st.integers(1, 10**4), label=f"{label} den"))

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_drain_matches_fraction_reference(self, data):
        from repro.platform.contention import _drain

        volume, rate, now, since = (self._number(data, label) for label in
                                    ("volume", "rate", "now", "since"))
        expected = self._normalized(
            F(volume) - F(rate) * (F(now) - F(since)))
        got = _drain(volume, rate, now, since)
        assert got == expected
        assert type(got) is type(expected)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_leg_duration_matches_fraction_reference(self, data):
        from repro.platform.contention import _leg_duration

        volume = self._number(data, "volume")
        rate = self._number(data, "rate")
        if rate == 0:
            with pytest.raises(ZeroDivisionError):
                _leg_duration(volume, rate)
            return
        expected = self._normalized(F(volume) / F(rate))
        got = _leg_duration(volume, rate)
        assert got == expected
        assert type(got) is type(expected)

    @given(st.floats(1e-6, 1e6), st.integers(1, 10**4), st.integers(1, 10**4))
    @settings(max_examples=100, deadline=None)
    def test_float_volume_converts_exactly(self, volume, num, den):
        from repro.platform.contention import _leg_duration

        expected = self._normalized(F(volume) / F(num, den))
        got = _leg_duration(volume, F(num, den))
        assert got == expected
        assert type(got) is type(expected)

    @given(st.floats(0, 1e6), st.integers(1, 10**4), st.floats(0, 1e6),
           st.floats(0, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_float_time_keeps_operator_semantics(self, volume, rate_den,
                                                 now, since):
        from repro.platform.contention import _drain, _leg_duration

        rate = F(1, rate_den)
        got = _drain(volume, rate, now, since)
        want = volume - rate * (now - since)
        assert type(got) is float and got == want
        assert _leg_duration(F(3, 7), 0.5) == F(3, 7) / 0.5
