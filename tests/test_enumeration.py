import concurrent.futures
import functools

import pytest

from noflip import enumeration
from noflip import (
    ForceGoal,
    OutcomeKind,
    Player,
    TossString,
    finite_toss_bound,
    play,
)
from noflip.engine import _NO_WIN, _tables_for
from noflip.enumeration import (
    DEFAULT_SWEEP_CAP,
    OutcomeCensus,
    VERIFY_SUITES,
    _exists_forcer,
    _playout_code,
    _sweep,
    census,
    longest_finite,
    no_loss_strings,
    sweep_cap_from_env,
    verify_suite,
)


def ts(text):
    return TossString.from_text(text)


def census_by_replay(n):
    """Slow census straight off the engine's repeated-state classifier."""
    alice = bob = infinite = 0
    for a_code in range(1 << n):
        for b_code in range(1 << n):
            if a_code == b_code:
                continue
            outcome, _ = play(TossString(n, a_code), TossString(n, b_code))
            if outcome.kind is OutcomeKind.ALICE_WINS:
                alice += 1
            elif outcome.kind is OutcomeKind.BOB_WINS:
                bob += 1
            else:
                infinite += 1
    total = (1 << n) * ((1 << n) - 1)
    return OutcomeCensus(n, total, alice, bob, infinite)


# (total, alice wins, bob wins, infinite) per length
CENSUS_TABLE = {
    1: (2, 2, 0, 0),
    2: (12, 4, 6, 2),
    3: (56, 26, 16, 14),
    4: (240, 64, 84, 92),
    5: (992, 290, 238, 464),
}

LONGEST_TABLE = {1: 1, 2: 3, 3: 4, 4: 8, 5: 9}


class TestCensus:
    @pytest.mark.parametrize("n", sorted(CENSUS_TABLE))
    def test_known_counts(self, n):
        total, alice, bob, infinite = CENSUS_TABLE[n]
        assert census(n) == OutcomeCensus(n, total, alice, bob, infinite)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_replay_oracle(self, n):
        assert census(n) == census_by_replay(n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_counts_are_even(self, n):
        c = census(n)
        assert c.alice_wins % 2 == 0
        assert c.bob_wins % 2 == 0
        assert c.infinite % 2 == 0

    @pytest.mark.parametrize("n", range(2, 7))
    def test_lower_bounds(self, n):
        c = census(n)
        assert c.infinite >= 1 << (2 * n - 3)
        assert c.alice_wins + c.bob_wins >= 1 << n

    def test_proportions_sum_to_one(self):
        c = census(4)
        total = c.alice_proportion + c.bob_proportion + c.infinite_proportion
        assert total == pytest.approx(1.0)

    def test_parallel_matches_sequential(self):
        assert census(6, workers=2) == census(6)

    def test_rejects_lengths_beyond_cap(self):
        with pytest.raises(ValueError, match="sweep cap"):
            census(DEFAULT_SWEEP_CAP + 1)
        with pytest.raises(ValueError, match="sweep cap"):
            census(3, cap=2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            census(0)
        with pytest.raises(ValueError):
            census(3, workers=0)

    def test_rejects_lengths_past_the_word_size_before_sweeping(self, monkeypatch):
        def no_sweep(*args):
            raise AssertionError("the sweep started")

        monkeypatch.setattr(enumeration, "_run_chunks", no_sweep)
        with pytest.raises(ValueError, match="1..63"):
            census(64, cap=100)

    def test_pool_is_capped_at_the_cpu_count(self, monkeypatch):
        opened = []

        class InlinePool:
            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        assert census(4, workers=50) == census(4)
        assert opened == [2]


@functools.lru_cache(maxsize=None)
def sweep_by_pairs(n):
    """The sweep as a plain loop over every ordered pair, each classified
    by the toss-cutoff oracle: counts, longest finite game, witnesses."""
    bound = finite_toss_bound(n)
    counts = [0, 0, 0]
    best, witnesses = 0, []
    for ai in range(1 << n):
        for bi in range(1 << n):
            if ai == bi:
                continue
            tables = _tables_for(n, ai) + _tables_for(n, bi)
            result, tosses = _playout_code(*tables, n, bound)
            counts[result] += 1
            if result == _NO_WIN or tosses < best:
                continue
            if tosses > best:
                best, witnesses = tosses, []
            witnesses.append((ai, bi))
    return counts, best, witnesses


# (alice wins, bob wins, infinite), longest finite game, its witness pairs
LONGER_ROWS = {
    9: ((27410, 25804, 208418), 25, [("HHHTHHTTT", "THHTHHHHT"), ("TTTHTTHHH", "HTTHTTTTH")]),
    10: (
        (72636, 81294, 893622),
        28,
        [
            ("HHTHTTHTTT", "THTHHTHTTT"),
            ("HHTTHTHTTT", "THTHTHHTTT"),
            ("HTHTHHTTTT", "THHTTHTHTT"),
            ("THTHTTHHHH", "HTTHHTHTHH"),
            ("TTHHTHTHHH", "HTHTHTTHHH"),
            ("TTHTHHTHHH", "HTHTTHTHHH"),
        ],
    ),
    11: (
        (242258, 233462, 3716536),
        32,
        [("HHTTHHTHTTH", "THTHHTTHHHH"), ("TTHHTTHTHHT", "HTHTTHHTTTT")],
    ),
}


class TestSweepKernel:
    """The prefix-walk sweep against a per-pair loop over the cutoff oracle."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_the_per_pair_oracle(self, n, workers):
        counts, best, witnesses = _sweep(n, DEFAULT_SWEEP_CAP, workers)
        assert (counts, best, witnesses) == sweep_by_pairs(n)

    @pytest.mark.parametrize("n", sorted(LONGER_ROWS))
    def test_longer_rows(self, n):
        counts, best, witnesses = _sweep(n, DEFAULT_SWEEP_CAP, 1)
        pairs = [(TossString(n, a).text, TossString(n, b).text) for a, b in witnesses]
        assert (tuple(counts), best, pairs) == LONGER_ROWS[n]


class TestLongestFinite:
    @pytest.mark.parametrize("n", sorted(LONGEST_TABLE))
    def test_known_maxima(self, n):
        assert longest_finite(n).max_finite_tosses == LONGEST_TABLE[n]

    def test_witnesses_for_length_two(self):
        stats = longest_finite(2)
        assert stats.argmax_pairs == (
            (ts("HH"), ts("TH")),
            (ts("TT"), ts("HT")),
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_witnesses_replay_to_the_maximum(self, n):
        stats = longest_finite(n)
        assert stats.argmax_pairs
        for alice, bob in stats.argmax_pairs:
            outcome, _ = play(alice, bob)
            assert not outcome.is_infinite
            assert outcome.tosses == stats.max_finite_tosses

    @pytest.mark.parametrize("n", range(2, 6))
    def test_respects_counting_bound(self, n):
        assert longest_finite(n).max_finite_tosses <= finite_toss_bound(n)

    def test_parallel_matches_sequential(self):
        assert longest_finite(5, workers=2) == longest_finite(5)


class TestNoLossStrings:
    def test_length_four(self):
        assert no_loss_strings(4) == [ts("HHTT")]

    def test_length_six(self):
        assert no_loss_strings(6) == [ts("HHHHTT"), ts("HHTHTT"), ts("HHTTTT")]

    @pytest.mark.parametrize("n", [3, 5])
    def test_odd_lengths_have_none(self, n):
        assert no_loss_strings(n) == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_matches_replay_oracle(self, n):
        expected = []
        for code in range(1, 1 << (n - 1)):  # H-first, non-constant
            alice = TossString(n, code)
            if not any(
                play(alice, TossString(n, b))[0].kind is OutcomeKind.ALICE_WINS
                for b in range(1 << n)
                if b != code
            ):
                expected.append(alice)
        assert no_loss_strings(n) == expected

    def test_parallel_matches_sequential(self):
        assert no_loss_strings(6, workers=3) == no_loss_strings(6)

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_the_forcing_search(self, n):
        # A no-loss string is one against which Bob cannot force a loss:
        # the prefix search must agree with the cutoff oracle, which plays
        # every candidate Bob string to the toss bound.
        expected = [
            alice
            for alice in (TossString(n, code) for code in range(1, 1 << (n - 1)))
            if not _exists_forcer(Player.BOB, ForceGoal.LOSS, alice)
        ]
        assert no_loss_strings(n) == expected


class TestVerifySuites:
    @pytest.mark.parametrize("suite", VERIFY_SUITES)
    @pytest.mark.parametrize("n", range(1, 5))
    def test_clean_at_small_lengths(self, suite, n):
        report = verify_suite(n, suite)
        assert report.ok
        assert report.violations == ()
        assert report.suite == suite and report.n == n

    def test_check_counts(self):
        pairs = 56  # 8 * 7 ordered pairs at length three
        assert verify_suite(3, "bound").checks == pairs
        assert verify_suite(3, "predicates").checks == pairs
        assert verify_suite(3, "symmetry").checks == pairs
        assert verify_suite(3, "forcing").checks == 8 * 6

    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match="unknown suite"):
            verify_suite(3, "everything")


class TestSweepCapEnv:
    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("NOFLIP_SWEEP_CAP", raising=False)
        assert sweep_cap_from_env() == DEFAULT_SWEEP_CAP

    def test_reads_override(self, monkeypatch):
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "6")
        assert sweep_cap_from_env() == 6

    @pytest.mark.parametrize("raw", ["six", "", "0", "-3"])
    def test_rejects_bad_values(self, raw, monkeypatch):
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", raw)
        with pytest.raises(ValueError):
            sweep_cap_from_env()
