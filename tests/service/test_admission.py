"""Admission-policy semantics and the spec/state split."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.service import (AlwaysAdmit, QueueDepthBound, TokenBucket,
                           parse_admission)


class TestAlwaysAdmit:
    def test_admits_everything(self):
        state = AlwaysAdmit().state()
        assert state.admit(0, 5, 0) == 5
        assert state.admit(100, 3, 10**9) == 3
        assert state.fingerprint_state(100) == ()


class TestQueueDepthBound:
    def test_bounds_in_system(self):
        state = QueueDepthBound(limit=10).state()
        assert state.admit(0, 4, 0) == 4
        assert state.admit(1, 4, 8) == 2      # room-capped
        assert state.admit(2, 4, 10) == 0     # full
        assert state.admit(3, 4, 12) == 0     # over-full stays closed

    def test_states_are_independent(self):
        policy = QueueDepthBound(limit=1)
        assert policy.state().admit(0, 1, 0) == 1
        assert policy.state().admit(0, 1, 0) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            QueueDepthBound(limit=0)


class TestTokenBucket:
    def test_starts_full_and_refills_exactly(self):
        state = TokenBucket(rate="1/7", burst=3).state()
        assert state.admit(0, 5, 0) == 3       # full bucket drained
        assert state.admit(6, 5, 0) == 0       # 6/7 tokens: not yet one
        assert state.admit(7, 5, 0) == 1       # exactly one banked
        assert state.tokens == 0

    def test_burst_caps_banked_tokens(self):
        state = TokenBucket(rate=1, burst=4).state()
        state.admit(0, 4, 0)
        assert state.admit(100, 10, 0) == 4    # 100 steps bank only burst

    def test_fractional_tokens_are_exact(self):
        assert TokenBucket(rate="1/7", burst=1).rate == Fraction(1, 7)
        state = TokenBucket(rate="1/3", burst=2).state()
        state.admit(0, 2, 0)
        granted = sum(state.admit(t, 1, 0) for t in range(1, 31))
        assert granted == 10                   # 30 steps at 1/3: exactly 10

    def test_fingerprint_is_time_relative(self):
        state = TokenBucket(rate="1/7", burst=3).state()
        state.admit(0, 5, 0)
        before = state.fingerprint_state(3)
        state.shift(1000)
        assert state.fingerprint_state(1003) == before

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(rate=1, burst=0)


class _RationalBucket:
    """Reference token bucket: the token count as a plain ``Fraction``
    (a float once a float interval mixes in), refilled by rate × elapsed."""

    def __init__(self, rate, burst):
        self.rate = rate
        self.burst = burst
        self.tokens = Fraction(burst)
        self.last = 0

    def admit(self, now, count, in_system):
        if now != self.last:
            tokens = self.tokens + self.rate * (now - self.last)
            self.tokens = Fraction(self.burst) if tokens > self.burst \
                else tokens
            self.last = now
        grant = min(int(self.tokens), count)
        self.tokens -= grant
        return grant

    def fingerprint_state(self, now):
        tokens = self.tokens
        return (tokens.numerator, tokens.denominator, now - self.last)

    def shift(self, dt):
        self.last += dt


def _fingerprint(state, now):
    """``fingerprint_state(now)``, or the error it raises (a float token
    count has no numerator, in either bucket)."""
    try:
        return state.fingerprint_state(now)
    except AttributeError as error:
        return type(error)


def _interval(kind, value):
    if kind == "int":
        return value % 40
    if kind == "same":
        return 0
    if kind == "fraction":
        return Fraction(value % 97, 1 + value % 11)
    return (value % 1000) / 37.0  # float


STEPS = st.lists(
    st.tuples(st.sampled_from(["admit", "admit", "admit", "shift"]),
              st.sampled_from(["int", "int", "same", "fraction", "float"]),
              st.integers(0, 10**6), st.integers(1, 80)),
    max_size=80)


class TestIntegerBucketMatchesRational:
    """The integer-unit bucket grants, reads and fingerprints exactly as
    a ``Fraction`` bucket, for int, ``Fraction`` and float times."""

    @settings(max_examples=200, deadline=None)
    @given(rate=st.floats(0.001, 40.0).map(
               lambda r: Fraction(r).limit_denominator(1000)),
           burst=st.integers(1, 64), steps=STEPS)
    @example(rate=Fraction(1, 7), burst=3,
             steps=[("admit", "same", 0, 5), ("admit", "float", 100, 1),
                    ("admit", "int", 7, 2), ("shift", "fraction", 13, 1),
                    ("admit", "fraction", 30, 80), ("admit", "same", 0, 1)])
    def test_matches_rational_reference(self, rate, burst, steps):
        state = TokenBucket(rate=rate, burst=burst).state()
        reference = _RationalBucket(rate, burst)
        now = 0
        for action, kind, value, count in steps:
            dt = _interval(kind, value)
            now = now + dt
            if action == "shift":
                # A warp jump moves the calendar and the bucket together.
                state.shift(dt)
                reference.shift(dt)
            else:
                assert (state.admit(now, count, 0)
                        == reference.admit(now, count, 0))
            assert state.tokens == reference.tokens
            assert type(state.tokens) is type(reference.tokens)
            assert _fingerprint(state, now) == _fingerprint(reference, now)


class TestParse:
    def test_round_trips(self):
        assert parse_admission("always") == AlwaysAdmit()
        assert parse_admission("queue:limit=64") == QueueDepthBound(limit=64)
        assert parse_admission("token:rate=1/20,burst=16") == \
            TokenBucket(rate=Fraction(1, 20), burst=16)

    @pytest.mark.parametrize("spec", [
        "queue",                       # missing limit
        "token:rate=0.1",              # missing burst
        "token:rate=0.1,burst=2,x=1",  # unknown key
        "lottery:odds=1",              # unknown kind
    ])
    def test_bad_strings_rejected(self, spec):
        with pytest.raises(ValueError):
            parse_admission(spec)
