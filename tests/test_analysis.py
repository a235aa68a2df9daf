"""Prediction-rule tests: profile construction against a brute oracle,
frozen examples for each rule, exhaustive soundness sweeps that compare
every fired prediction with the real playout, and the bit-level overlap
and special-string rules against letter-by-letter references."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from noflip.analysis import (
    Prediction,
    all_predictions,
    predict_by_runs,
    predict_large_overlap,
    predict_special_strings,
    run_profile,
)
from noflip.engine import _KINDS, OutcomeKind, TossString, _seat, play

SWAP = str.maketrans("HT", "TH")

ALICE_WINS = OutcomeKind.ALICE_WINS
BOB_WINS = OutcomeKind.BOB_WINS
INFINITE = OutcomeKind.INFINITE


def ts(text: str) -> TossString:
    return TossString.from_text(text)


def all_pairs(n: int):
    for a_code in range(1 << n):
        for b_code in range(1 << n):
            if a_code != b_code:
                yield TossString(n, a_code), TossString(n, b_code)


# ---------------------------------------------------------------------------
# letter-by-letter references for the overlap and special-string rules,
# as first written on the strings' text


def ref_large_overlap(a: str, b: str) -> Prediction | None:
    n = len(a)
    if a[: n - 1] == b[: n - 1]:
        return Prediction("equal-but-last", _KINDS[_seat(n)], tosses=n)
    if a[0] == "T":
        a, b = a.translate(SWAP), b.translate(SWAP)
    if a.startswith("HT") and b.startswith("HH") and b[1:] == a[: n - 1]:
        return Prediction("one-step-shadow", BOB_WINS)
    if a[:2] == "HH" and b[:4] == "HTHH" and b[4:] == a[2 : n - 2]:
        return Prediction("two-step-shadow", BOB_WINS)
    return None


def ref_positions_all(text: str, letter: str, seat: int) -> bool:
    """True when `letter` is at every 1-based position the seat names."""
    return all(ch == letter for i, ch in enumerate(text, start=1) if _seat(i) == seat)


def ref_constant_opponent(x: str, other: str, n: int, seat: int) -> Prediction:
    rule = "constant-bob" if seat else "constant-alice"
    if other == x * (n - 1) + x.translate(SWAP) and _seat(n) == seat:
        return Prediction(rule, _KINDS[seat], tosses=n)
    if ref_positions_all(other, x, seat):
        return Prediction(rule, _KINDS[1 - seat], tosses=n)
    if ref_positions_all(other, x, 1 - seat):
        return Prediction(rule, _KINDS[1 - seat], tosses=n + 1)
    return Prediction(rule, INFINITE)


def ref_special_strings(a: str, b: str) -> Prediction | None:
    n = len(a)
    seats = ((a, b, 0), (b, a, 1))
    for own, other, seat in seats:
        if len(set(own)) == 1:
            return ref_constant_opponent(own[0], other, n, seat)
    for own, other, seat in seats:
        alternating = all(own[i] != own[i + 1] for i in range(n - 1))
        if alternating and other[:2] == own[0].translate(SWAP) * 2:
            return Prediction("alternating-vs-doubled", _KINDS[seat], tosses=n + seat)
    return None


def brute_longest_run(text: str, letter: str) -> int:
    best = run = 0
    for ch in text:
        run = run + 1 if ch == letter else 0
        best = max(best, run)
    return best


class TestRunProfile:
    def test_frozen_example(self):
        profile = run_profile(ts("HHTH"))
        assert profile.heads == (1, 2, 2, 2)
        assert profile.tails == (0, 0, 1, 1)

    def test_constant_string(self):
        profile = run_profile(ts("TTTT"))
        assert profile.heads == (0, 0, 0, 0)
        assert profile.tails == (1, 2, 3, 4)

    def test_matches_brute_force_on_every_prefix(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 14)
            s = TossString(n, rng.randrange(1 << n))
            profile = run_profile(s)
            for p in range(1, n + 1):
                assert profile.h(p) == brute_longest_run(s.text[:p], "H")
                assert profile.t(p) == brute_longest_run(s.text[:p], "T")

    @pytest.mark.parametrize("text", ["H", "HHTH", "TTHTHHHT"])
    def test_prefix_length_out_of_range(self, text):
        profile = run_profile(ts(text))
        n = len(text)
        for p in (0, n + 1, -1, -n):
            with pytest.raises(ValueError):
                profile.h(p)
            with pytest.raises(ValueError):
                profile.t(p)
        assert profile.h(n) == brute_longest_run(text, "H")
        assert profile.t(n) == brute_longest_run(text, "T")

    def test_profiles_never_decrease(self):
        for n in range(1, 7):
            for code in range(1 << n):
                profile = run_profile(TossString(n, code))
                assert list(profile.heads) == sorted(profile.heads)
                assert list(profile.tails) == sorted(profile.tails)


class TestPredictByRuns:
    def test_doubled_openings_are_infinite(self):
        assert predict_by_runs(ts("HH"), ts("TT")) == Prediction(
            "run-length-gap", INFINITE
        )
        assert predict_by_runs(ts("HHTH"), ts("TTHT")) is not None
        assert predict_by_runs(ts("TTHH"), ts("HHTT")) is not None

    def test_gap_visible_only_in_a_longer_prefix(self):
        # Gaps open at p = 5: HTHHH vs THTTT.
        assert predict_by_runs(ts("HTHHH"), ts("THTTT")) is not None

    def test_silent_on_close_strings(self):
        assert predict_by_runs(ts("HTHT"), ts("HTHH")) is None
        assert predict_by_runs(ts("HHTT"), ts("THHH")) is None

    def test_matches_a_per_prefix_brute_force(self):
        pairs = [pair for n in range(1, 9) for pair in all_pairs(n)]
        rng = random.Random(8)
        for n in range(9, 64):
            for _ in range(20):
                alice = TossString(n, rng.randrange(1 << n))
                bob = TossString(n, rng.randrange(1 << n))
                if alice != bob:
                    pairs.append((alice, bob))
        runs: dict[TossString, list[tuple[int, int]]] = {}
        for s in {s for pair in pairs for s in pair}:
            runs[s] = [
                (brute_longest_run(s.text[:p], "H"), brute_longest_run(s.text[:p], "T"))
                for p in range(1, s.length + 1)
            ]
        for alice, bob in pairs:
            ra, rb = runs[alice], runs[bob]
            want = any(
                (ha + 1 < hb and tb + 1 < ta) or (hb + 1 < ha and ta + 1 < tb)
                for (ha, ta), (hb, tb) in zip(ra, rb)
            )
            got = predict_by_runs(alice, bob)
            assert got == (Prediction("run-length-gap", INFINITE) if want else None)

    def test_fired_predictions_are_sound(self):
        for n in range(2, 7):
            for alice, bob in all_pairs(n):
                fired = predict_by_runs(alice, bob)
                if fired is not None:
                    assert play(alice, bob)[0].is_infinite, (alice, bob)


class TestPredictLargeOverlap:
    def test_equal_but_last_even_length(self):
        fired = predict_large_overlap(ts("HHTH"), ts("HHTT"))
        assert fired == Prediction("equal-but-last", BOB_WINS, tosses=4)

    def test_equal_but_last_odd_length(self):
        fired = predict_large_overlap(ts("HTT"), ts("HTH"))
        assert fired == Prediction("equal-but-last", ALICE_WINS, tosses=3)

    def test_one_step_shadow(self):
        fired = predict_large_overlap(ts("HTTH"), ts("HHTT"))
        assert fired == Prediction("one-step-shadow", BOB_WINS)
        outcome, trace = play(ts("HTTH"), ts("HHTT"))
        assert outcome.kind is BOB_WINS
        assert trace.text == "HHTT"

    def test_one_step_shadow_under_complement(self):
        fired = predict_large_overlap(ts("THHT"), ts("TTHH"))
        assert fired == Prediction("one-step-shadow", BOB_WINS)

    def test_two_step_shadow(self):
        fired = predict_large_overlap(ts("HHTT"), ts("HTHH"))
        assert fired == Prediction("two-step-shadow", BOB_WINS)

    def test_two_step_shadow_needs_length_four(self):
        assert predict_large_overlap(ts("HHT"), ts("HTH")) is None

    def test_silent_without_overlap(self):
        assert predict_large_overlap(ts("HHTT"), ts("THHH")) is None

    def test_fired_predictions_are_sound(self):
        for n in range(1, 7):
            for alice, bob in all_pairs(n):
                fired = predict_large_overlap(alice, bob)
                if fired is None:
                    continue
                outcome, _ = play(alice, bob)
                assert outcome.kind is fired.kind, (alice, bob, fired)
                if fired.tosses is not None:
                    assert outcome.tosses == fired.tosses, (alice, bob, fired)


class TestPredictSpecialStrings:
    def test_constant_alice_near_match_exception(self):
        fired = predict_special_strings(ts("HHH"), ts("HHT"))
        assert fired == Prediction("constant-alice", ALICE_WINS, tosses=3)

    def test_constant_alice_odd_positions(self):
        fired = predict_special_strings(ts("HHHH"), ts("HTHT"))
        assert fired == Prediction("constant-alice", BOB_WINS, tosses=4)

    def test_constant_alice_even_positions(self):
        fired = predict_special_strings(ts("HHHH"), ts("THTH"))
        assert fired == Prediction("constant-alice", BOB_WINS, tosses=5)
        outcome, _ = play(ts("HHHH"), ts("THTH"))
        assert outcome.kind is BOB_WINS and outcome.tosses == 5

    def test_constant_alice_otherwise_infinite(self):
        fired = predict_special_strings(ts("HHHH"), ts("TTHH"))
        assert fired == Prediction("constant-alice", INFINITE)

    def test_constant_bob_near_match_exception(self):
        fired = predict_special_strings(ts("HHHT"), ts("HHHH"))
        assert fired == Prediction("constant-bob", BOB_WINS, tosses=4)

    def test_constant_bob_even_positions(self):
        fired = predict_special_strings(ts("THTH"), ts("HHHH"))
        assert fired == Prediction("constant-bob", ALICE_WINS, tosses=4)

    def test_constant_bob_odd_positions(self):
        fired = predict_special_strings(ts("HTHT"), ts("HHHH"))
        assert fired == Prediction("constant-bob", ALICE_WINS, tosses=5)

    def test_constant_complement_closure(self):
        fired = predict_special_strings(ts("TTTT"), ts("HTHT"))
        assert fired == Prediction("constant-alice", BOB_WINS, tosses=5)

    @pytest.mark.parametrize("tail", ["HH", "HT", "TH", "TT"])
    def test_alternating_beats_doubled_openings(self, tail):
        fired = predict_special_strings(ts("HTHT"), ts("TT" + tail))
        if tail == "TT":
            # The doubled opponent is constant, so the constant rule speaks.
            assert fired == Prediction("constant-bob", ALICE_WINS, tosses=4)
        else:
            assert fired == Prediction("alternating-vs-doubled", ALICE_WINS, tosses=4)

    def test_alternating_bob_wins_one_later(self):
        fired = predict_special_strings(ts("TTHH"), ts("HTHT"))
        assert fired == Prediction("alternating-vs-doubled", BOB_WINS, tosses=5)

    def test_silent_on_generic_pairs(self):
        assert predict_special_strings(ts("HHTT"), ts("THHH")) is None
        assert predict_special_strings(ts("HTHH"), ts("THTT")) is None

    def test_fired_predictions_are_sound(self):
        for n in range(1, 7):
            for alice, bob in all_pairs(n):
                fired = predict_special_strings(alice, bob)
                if fired is None:
                    continue
                outcome, _ = play(alice, bob)
                assert outcome.kind is fired.kind, (alice, bob, fired)
                if fired.tosses is not None:
                    assert outcome.tosses == fired.tosses, (alice, bob, fired)


def built_pairs(rng: random.Random, n: int):
    """Pairs of length n >= 4 built to fire the overlap and special-string
    rules, each shadow with a near miss, as (alice, bob, rule, frame).

    rule is the rule the pair is built for (None for a near miss).  Frame
    0 pairs are built with H where the rules' statements have it; frame 1
    pairs are built the same way and then complemented."""

    def rand(k: int) -> str:
        return "".join(rng.choice("HT") for _ in range(k))

    def near(text: str) -> str:
        i = rng.randrange(n)
        return text[:i] + text[i].translate(SWAP) + text[i + 1 :]

    def seat_pattern(x: str, seat: int) -> str:
        # x at every toss the seat names, random letters elsewhere.
        return "".join(
            x if _seat(i) == seat else rng.choice("HT") for i in range(1, n + 1)
        )

    def h_frame():
        a = "H" + rand(n - 1)
        yield a, a[:-1] + a[-1].translate(SWAP), "equal-but-last"
        a = "HT" + rand(n - 2)
        yield a, "H" + a[:-1], "one-step-shadow"
        yield a, near("H" + a[:-1]), None
        a = "HH" + rand(n - 2)
        yield a, "HTHH" + a[2 : n - 2], "two-step-shadow"
        yield a, near("HTHH" + a[2 : n - 2]), None
        own = "H" * n
        for seat, rule in enumerate(("constant-alice", "constant-bob")):
            near_match = "H" * (n - 1) + "T"
            others = (seat_pattern("H", 0), seat_pattern("H", 1), near_match, rand(n))
            for other in others:
                yield (own, other, rule) if seat == 0 else (other, own, rule)
        own = ("HT" * n)[:n]
        yield own, "TT" + rand(n - 2), "alternating-vs-doubled"
        yield "TT" + rand(n - 2), own, "alternating-vs-doubled"
        yield own, "HH" + rand(n - 2), None

    for frame in (0, 1):
        for a, b, rule in h_frame():
            if frame:
                a, b = a.translate(SWAP), b.translate(SWAP)
            if a != b:
                yield a, b, rule, frame


class TestBitRulesMatchTextReferences:
    """The overlap and special-string rules read the strings' packed bits;
    here they are held equal to the rules as first written on text."""

    @staticmethod
    def assert_matches(alice: TossString, bob: TossString, a: str, b: str):
        assert predict_large_overlap(alice, bob) == ref_large_overlap(a, b), (a, b)
        assert predict_special_strings(alice, bob) == ref_special_strings(a, b), (a, b)

    def test_every_pair_up_to_nine(self):
        for n in range(1, 10):
            strings = [TossString(n, code) for code in range(1 << n)]
            texts = [s.text for s in strings]
            for i, alice in enumerate(strings):
                for j, bob in enumerate(strings):
                    if i != j:
                        self.assert_matches(alice, bob, texts[i], texts[j])

    def test_seeded_pairs_built_to_fire_each_rule(self):
        rng = random.Random(20)
        fired = set()
        for n in list(range(10, 64)) * 4:
            for a, b, rule, frame in built_pairs(rng, n):
                alice, bob = ts(a), ts(b)
                self.assert_matches(alice, bob, a, b)
                for p in all_predictions(alice, bob):
                    if p.rule == rule:
                        late = None if p.tosses is None else p.tosses - n
                        fired.add((rule, p.kind, late, frame, n == 63))
        # Every rule fired in both frames, also at the longest length.
        rules = {r for r, _, _, _, _ in fired}
        assert len(rules) == 6
        assert {(r, f, last) for r, _, _, f, last in fired} == {
            (r, f, last) for r in rules for f in (0, 1) for last in (False, True)
        }
        # The constant rules took every branch.
        assert {(r, k, late) for r, k, late, _, _ in fired if "constant" in r} == {
            ("constant-alice", ALICE_WINS, 0),
            ("constant-alice", BOB_WINS, 0),
            ("constant-alice", BOB_WINS, 1),
            ("constant-alice", INFINITE, None),
            ("constant-bob", BOB_WINS, 0),
            ("constant-bob", ALICE_WINS, 0),
            ("constant-bob", ALICE_WINS, 1),
            ("constant-bob", INFINITE, None),
        }


class TestMutualConsistency:
    def test_all_fired_predictions_agree_with_each_other(self):
        for n in range(1, 7):
            for alice, bob in all_pairs(n):
                kinds = {p.kind for p in all_predictions(alice, bob)}
                assert len(kinds) <= 1, (alice, bob, kinds)

    def test_validation_matches_engine(self):
        with pytest.raises(ValueError):
            predict_by_runs(ts("HT"), ts("HT"))
        with pytest.raises(ValueError):
            predict_large_overlap(ts("HT"), ts("HTT"))

    @pytest.mark.parametrize(
        "predict",
        [
            predict_by_runs,
            predict_large_overlap,
            predict_special_strings,
            all_predictions,
        ],
    )
    @pytest.mark.parametrize(
        "alice,bob,message",
        [
            ("HT", "HTT", "must have equal length"),
            ("HTT", "HT", "must have equal length"),
            ("HT", "HT", "must be distinct"),
            ("T" * 63, "T" * 63, "must be distinct"),
        ],
    )
    def test_every_entry_point_rejects_a_bad_pair(self, predict, alice, bob, message):
        with pytest.raises(ValueError, match=message):
            predict(ts(alice), ts(bob))

    def test_all_predictions_is_the_three_predictors_in_order(self):
        # all_predictions must fire exactly what the three predictors fire.
        for n in range(1, 9):
            for alice, bob in all_pairs(n):
                fired = [
                    predict_by_runs(alice, bob),
                    predict_large_overlap(alice, bob),
                    predict_special_strings(alice, bob),
                ]
                want = [p for p in fired if p is not None]
                assert all_predictions(alice, bob) == want, (alice, bob)


class TestWhereRulesFire:
    def test_rule_and_kind_counts_over_every_pair_up_to_seven(self):
        # The soundness sweeps still pass when a rule stops firing; these
        # counts pin where each rule fires.
        counts = Counter(
            (p.rule, p.kind)
            for n in range(1, 8)
            for alice, bob in all_pairs(n)
            for p in all_predictions(alice, bob)
        )
        assert counts == {
            ("alternating-vs-doubled", ALICE_WINS): 114,
            ("alternating-vs-doubled", BOB_WINS): 114,
            ("constant-alice", ALICE_WINS): 8,
            ("constant-alice", BOB_WINS): 110,
            ("constant-alice", INFINITE): 376,
            ("constant-bob", ALICE_WINS): 110,
            ("constant-bob", BOB_WINS): 6,
            ("constant-bob", INFINITE): 364,
            ("equal-but-last", ALICE_WINS): 170,
            ("equal-but-last", BOB_WINS): 84,
            ("one-step-shadow", BOB_WINS): 124,
            ("two-step-shadow", BOB_WINS): 120,
            ("run-length-gap", INFINITE): 6502,
        }
