"""Tests for the certifier's strike spaces and placement semantics."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.certify import (PIPELINE_PLACEMENTS, PLACEMENTS, Certifier,
                           Strike, apply_strike, arithmetic_strikes,
                           burst_strikes, certification_registry,
                           correlated_lane_batch,
                           exhaustive_pipeline_strikes,
                           exhaustive_storage_strikes, random_strikes,
                           tampered_secded_dp)
from repro.certify.strikes import apply_strikes, shrink_strike
from repro.ecc import (DetectOnlySwap, NaiveSecDedSwap, ParityCode,
                       ResidueCode, SecDedDpSwap)
from repro.errors import CertificationError


SCHEME = SecDedDpSwap()


class TestEnumerators:
    def test_pipeline_strikes_cover_every_placement(self):
        strikes = list(exhaustive_pipeline_strikes(SCHEME))
        placements = {strike.placement for strike in strikes}
        assert placements == set(PIPELINE_PLACEMENTS)

    def test_pipeline_strikes_ascend_in_weight(self):
        weights = [s.weight for s in exhaustive_pipeline_strikes(SCHEME)]
        assert weights == sorted(weights)
        assert set(weights) == {1, 2}

    def test_storage_strikes_span_data_check_and_dp(self):
        singles = [s for s in exhaustive_storage_strikes(SCHEME)
                   if s.weight == 1]
        # one strike per stored bit: 32 data + 7 check + 1 dp
        assert len(singles) == SCHEME.data_bits + SCHEME.code.check_bits + 1
        assert any(s.dp_error for s in singles)

    def test_detect_only_scheme_has_no_dp_strikes(self):
        scheme = DetectOnlySwap(ParityCode())
        strikes = list(exhaustive_pipeline_strikes(scheme)) \
            + list(exhaustive_storage_strikes(scheme))
        assert all(strike.dp_error == 0 for strike in strikes)
        assert all(strike.placement != "pipeline-dp" for strike in strikes)

    def test_burst_strikes_are_contiguous(self):
        for strike in burst_strikes(SCHEME, widths=(3,)):
            combined = strike.data_error | strike.check_error
            assert combined
            while combined % 2 == 0:
                combined >>= 1
            # a width-3 burst collapses to 0b111 once right-aligned
            assert combined == 0b111
            assert strike.tier == "burst"

    def test_random_strikes_stratify_by_weight_and_family(self):
        rng = random.Random(7)
        strikes = list(random_strikes(SCHEME, rng, 20, weights=(3, 4)))
        assert all(strike.weight in (3, 4) for strike in strikes)
        assert all(strike.tier == "random" for strike in strikes)
        # 20 samples per (weight, placement-family) stratum
        for weight in (3, 4):
            for placement in ("pipeline-original", "pipeline-shadow-bus",
                              "storage"):
                stratum = [s for s in strikes if s.weight == weight
                           and s.placement == placement]
                assert len(stratum) == 20, (weight, placement)

    def test_random_strikes_are_seed_deterministic(self):
        first = list(random_strikes(SCHEME, random.Random(3), 10))
        second = list(random_strikes(SCHEME, random.Random(3), 10))
        assert first == second

    def test_arithmetic_strikes_include_powers_of_two(self):
        strikes = list(arithmetic_strikes(SCHEME, random.Random(0)))
        deltas = {strike.delta for strike in strikes}
        assert (1 << 7) in deltas and -(1 << 7) in deltas
        assert all(strike.placement == "arithmetic" for strike in strikes)


class TestApplyStrike:
    def test_pipeline_original_corrupts_data_keeps_clean_check(self):
        strike = Strike("pipeline-original", data_error=0b101)
        word = apply_strike(SCHEME, 0x1234, strike)
        assert word.data == 0x1234 ^ 0b101
        assert word.check == SCHEME.code.encode(0x1234)

    def test_pipeline_shadow_value_keeps_data_corrupts_check(self):
        strike = Strike("pipeline-shadow-value", data_error=0b1)
        word = apply_strike(SCHEME, 0x1234, strike)
        assert word.data == 0x1234
        assert word.check == SCHEME.code.encode(0x1234 ^ 0b1)

    def test_storage_strike_flips_stored_bits_of_true_codeword(self):
        strike = Strike("storage", data_error=0b10, check_error=0b1,
                        dp_error=1)
        clean = SCHEME.write_pair(0x42)
        word = apply_strike(SCHEME, 0x42, strike)
        assert word.data == clean.data ^ 0b10
        assert word.check == clean.check ^ 0b1
        assert word.dp == clean.dp ^ 1

    def test_arithmetic_strike_wraps_modulo_word_width(self):
        strike = Strike("arithmetic", delta=1)
        word = apply_strike(SCHEME, 0xFFFF_FFFF, strike)
        assert word.data == 0
        assert word.check == SCHEME.code.encode(0xFFFF_FFFF)

    def test_unknown_placement_rejected(self):
        from repro.errors import CertificationError
        with pytest.raises(CertificationError):
            apply_strike(SCHEME, 0, Strike("warp-drive", data_error=1))

    def test_describe_is_json_friendly(self):
        strike = Strike("storage", data_error=0x3, tier="burst")
        description = strike.describe()
        assert description["placement"] == "storage"
        assert description["data_error"] == "0x3"
        assert description["tier"] == "burst"


class TestShrinkAndLanes:
    def test_shrink_yields_strictly_lighter_strikes(self):
        strike = Strike("storage", data_error=0b1011, check_error=0b1)
        candidates = list(shrink_strike(strike))
        assert candidates
        assert all(c.weight == strike.weight - 1 for c in candidates)

    def test_weight_one_strike_has_no_shrinks(self):
        assert list(shrink_strike(Strike("storage", data_error=0b1))) == []

    def test_correlated_lane_batch_applies_same_strike_per_lane(self):
        strike = Strike("pipeline-original", data_error=0b100)
        bases = [0x0, 0x1, 0xFFFF_FFFF]
        words, goldens = correlated_lane_batch(SCHEME, bases, strike)
        assert len(words) == len(bases)
        assert goldens == bases
        for base, word in zip(bases, words):
            assert word.data == base ^ 0b100


def _builder_schemes() -> dict:
    """Every scheme the array builder must reproduce, by label."""
    schemes = {name: factory()
               for name, factory in certification_registry().items()}
    for kind in ("zero-column", "duplicate-column"):
        schemes[f"tampered-{kind}"] = tampered_secded_dp(kind)
    schemes["naive-secded"] = NaiveSecDedSwap()
    schemes["parity-2"] = DetectOnlySwap(ParityCode(data_bits=2))
    schemes["mod15-8"] = DetectOnlySwap(ResidueCode(15, data_bits=8))
    return schemes


BUILDER_SCHEMES = _builder_schemes()


def _assert_builder_matches(scheme, strikes, bases):
    """apply_strikes equals the scalar apply_strike, element for element."""
    data, check, dp = apply_strikes(scheme, strikes, bases)
    words = [apply_strike(scheme, base, strike)
             for strike in strikes for base in bases]
    assert data.dtype == np.uint64 and check.dtype == np.uint64
    assert data.tolist() == [word.data for word in words]
    assert check.tolist() == [word.check for word in words]
    if scheme.uses_data_parity:
        assert dp.dtype == np.uint64
        assert dp.tolist() == [word.dp for word in words]
    else:
        assert dp is None
        assert all(word.dp is None for word in words)


class TestApplyStrikes:
    """The sweep's array builder against the scalar reference."""

    @pytest.mark.parametrize("label", sorted(BUILDER_SCHEMES))
    def test_matches_apply_strike_over_the_swept_space(self, label):
        scheme = BUILDER_SCHEMES[label]
        full = list(Certifier(mode="full").strikes(scheme))
        fast = list(Certifier(mode="fast").strikes(scheme))
        # the full space extends the fast one, so checking it checks both
        assert full[:len(fast)] == fast and len(full) > len(fast)
        _assert_builder_matches(scheme, full,
                                Certifier().base_words(scheme))

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_arbitrary_masks_and_deltas(self, data):
        label = data.draw(st.sampled_from(sorted(BUILDER_SCHEMES)))
        scheme = BUILDER_SCHEMES[label]
        width = scheme.data_bits
        modulus = getattr(scheme.code, "modulus", 3)
        word_mask = st.integers(0, 2 ** 64 - 1)
        delta = st.one_of(
            st.sampled_from([2 ** width - 1, -(2 ** width - 1)]),
            st.integers(-4, 4).map(lambda k: k * modulus),
            st.integers(-(2 ** 70), 2 ** 70))
        placements = [placement for placement in PLACEMENTS
                      if scheme.uses_data_parity
                      or placement != "pipeline-dp"]
        strike = st.builds(
            Strike, st.sampled_from(placements), data_error=word_mask,
            check_error=word_mask,
            dp_error=st.integers(0, 1) if scheme.uses_data_parity
            else st.just(0),
            delta=delta)
        strikes = data.draw(st.lists(strike, min_size=1, max_size=6))
        bases = data.draw(st.lists(word_mask, min_size=1, max_size=4))
        _assert_builder_matches(scheme, strikes, bases)

    def test_empty_strike_list_builds_no_words(self):
        data, check, dp = apply_strikes(SCHEME, [], [0, 1])
        assert len(data) == len(check) == len(dp) == 0
        assert data.dtype == check.dtype == dp.dtype == np.uint64

    def test_overridden_write_api_fails_loudly(self):
        class ShadowOverride(SecDedDpSwap):
            def write_shadow(self, word, value):
                return super().write_shadow(word, value)

        scheme = ShadowOverride()
        with pytest.raises(CertificationError, match="write_shadow"):
            apply_strikes(scheme, [Strike("storage", data_error=1)], [0])
        with pytest.raises(CertificationError, match="write_shadow"):
            Certifier().certify(scheme)
        # the scalar reference still builds its words
        assert apply_strike(scheme, 0, Strike("storage", data_error=1)) \
            == SCHEME.write_pair(0).with_data_error(1)

    def test_unrepresentable_storage_mask_fails_loudly(self):
        with pytest.raises(CertificationError, match="64-bit"):
            apply_strikes(SCHEME, [Strike("storage", data_error=1 << 64)],
                          [0])


def test_every_placement_constant_is_enumerable():
    assert set(PIPELINE_PLACEMENTS) < set(PLACEMENTS)
    assert "storage" in PLACEMENTS and "arithmetic" in PLACEMENTS
