"""Forcing-construction tests: frozen examples for each rule, toss-count
bounds, complement covariance, and exhaustive cross-checks of the
Impossible answers against brute-force candidate scans."""

from __future__ import annotations

import random

import pytest

from noflip import forcing
from noflip.engine import Outcome, OutcomeKind, Player, TossString, play
from noflip.forcing import (
    _GOAL_KINDS,
    DEFAULT_SEARCH_CAP,
    ForceGoal,
    ForceResult,
    ForceStatus,
    alice_force_infinite,
    alice_force_loss,
    alice_force_win,
    bob_force_infinite,
    bob_force_loss,
    bob_force_win,
    force,
)

FOUND = ForceStatus.FOUND
IMPOSSIBLE = ForceStatus.IMPOSSIBLE
UNKNOWN = ForceStatus.UNKNOWN


def ts(text: str) -> TossString:
    return TossString.from_text(text)


def all_strings(n: int):
    return (TossString(n, code) for code in range(1 << n))


def exists_forcer(role: Player, goal: ForceGoal, opponent: TossString) -> bool:
    """Brute force: does any candidate string achieve the goal?"""
    wanted = _GOAL_KINDS[role, goal]
    for candidate in all_strings(opponent.length):
        if candidate == opponent:
            continue
        if role is Player.ALICE:
            outcome = play(candidate, opponent)[0]
        else:
            outcome = play(opponent, candidate)[0]
        if outcome.kind is wanted:
            return True
    return False


SWAP = str.maketrans("HT", "TH")


def ref_rule(role: Player, goal: ForceGoal, a: str) -> tuple[str | None, str | None]:
    """Letter-by-letter reference for the shape rules against an opponent
    text ``a`` that starts with H: (constructed text, method) for a rule,
    (None, method) for a shape exception, (None, None) where a loss goes
    to the search."""
    n = len(a)
    k = next((i for i in range(1, n) if a[i - 1] == a[i]), None)  # first double
    run = len(a) - len(a.lstrip("H"))
    if goal is ForceGoal.WIN and role is Player.BOB:
        if n == 1:
            return None, "single-letter-alice-always-wins"
        if k is None:
            return "HH" + a[1 : n - 1], "double-first-letter"
        return a[k - 1].translate(SWAP) + a[: n - 1], "flip-before-first-double"
    if goal is ForceGoal.WIN:
        return "T" + a[: n - 1], "flip-first-letter"
    if goal is ForceGoal.INFINITE_GAME:
        longest, block = (4, "HHTTT") if role is Player.BOB else (5, "THHTTT")
        if k is None and n <= longest:
            return None, "short-alternating-exception"
        if k is None:
            return block + "T" * (n - len(block)), "alternating-block-cycle"
        return a[k - 1].translate(SWAP) * n, "all-opposite-letter"
    copy_flip = a[: n - 1] + a[n - 1].translate(SWAP)
    if role is Player.BOB:
        if n % 2 == 0 and run == n:
            return None, "even-length-constant-opponent"
        if n % 2 == 1:
            return copy_flip, "copy-flip-last"
        if run % 2 == 1:
            return a[1:] + "T", "shift-after-odd-run"
        return None, None
    if n % 2 == 1 and run == n:
        return None, "odd-length-constant-opponent"
    if n % 2 == 0:
        return copy_flip, "copy-flip-last"
    if k is None:
        return "T" * n, "all-opposite-letter"
    if a.startswith("HT") and a[k - 1] == "H":
        return a[2:] + "TT", "drop-two-append-two"
    if a.startswith("HT"):
        return a[1:] + "T", "drop-one-append-one"
    if run % 2 == 0:
        return a[1:] + "T", "shift-after-even-run"
    if a[run : run + 2] == "TT":
        return a[1:] + "T", "shift-after-odd-run"
    return None, None


def ref_force_at_cap_zero(role: Player, goal: ForceGoal, opponent: str):
    """(status, method, constructed text) of ``force`` at cap 0, by the
    reference rules in the frame where the opponent starts with H, mapped
    back to the opponent's own frame."""
    flipped = opponent.startswith("T")
    text, method = ref_rule(role, goal, opponent.translate(SWAP) if flipped else opponent)
    if method is None:
        return UNKNOWN, "exhaustive-search", None
    if text is None:
        return IMPOSSIBLE, method, None
    return FOUND, method, text.translate(SWAP) if flipped else text


class TestRulesMatchTheLetterReference:
    def test_every_operation_matches_the_reference_in_both_frames(self):
        for n in range(1, 13):
            for opponent in all_strings(n):  # H-first and T-first alike
                text = opponent.text
                for role, goal in forcing._FORCERS:
                    result = force(role, goal, opponent, cap=0)
                    constructed = result.constructed and result.constructed.text
                    assert (result.status, result.method, constructed) == (
                        ref_force_at_cap_zero(role, goal, text)
                    ), (role, goal, text)


def test_a_force_call_renders_and_parses_no_text(monkeypatch):
    def no_text(*args):
        raise AssertionError("a force call used toss text")

    monkeypatch.setattr(TossString, "text", property(no_text))
    monkeypatch.setattr(TossString, "from_text", classmethod(no_text))
    for n in range(1, 9):
        for opponent in all_strings(n):
            for role, goal in forcing._FORCERS:
                assert force(role, goal, opponent).status in (FOUND, IMPOSSIBLE)


class TestBobForceWin:
    def test_alternating_opponent(self):
        result = bob_force_win(ts("HTHT"))
        assert result.status is FOUND
        assert result.constructed == ts("HHTH")
        assert result.method == "double-first-letter"
        assert result.verified_outcome.kind is OutcomeKind.BOB_WINS
        assert result.verified_outcome.tosses == 4

    def test_doubled_letter_opponent_odd_break(self):
        result = bob_force_win(ts("HTHHT"))
        assert result.constructed == ts("THTHH")
        assert result.method == "flip-before-first-double"
        assert result.verified_outcome.tosses == 6
        assert play(ts("HTHHT"), ts("THTHH"))[1].text == "HTHTHH"

    def test_doubled_letter_opponent_even_break(self):
        result = bob_force_win(ts("HTTH"))
        assert result.constructed == ts("HHTT")
        assert result.verified_outcome.tosses == 4

    def test_single_toss_impossible(self):
        result = bob_force_win(ts("H"))
        assert result.status is IMPOSSIBLE
        assert result.method == "single-letter-alice-always-wins"
        assert result.constructed is None and result.verified_outcome is None

    def test_win_lands_by_toss_n_plus_one_exhaustively(self):
        for n in range(2, 7):
            for alice in all_strings(n):
                result = bob_force_win(alice)
                assert result.status is FOUND
                assert result.verified_outcome.tosses < n + 2
                if alice.is_alternating():
                    assert result.verified_outcome.tosses == n
                else:
                    k = alice.first_double()
                    expected = n + 1 if k % 2 == 1 else n
                    assert result.verified_outcome.tosses == expected, alice


class TestAliceForceWin:
    def test_frozen_example(self):
        result = alice_force_win(ts("THHH"))
        assert result.constructed == ts("HTHH")
        assert result.method == "flip-first-letter"
        assert result.verified_outcome.kind is OutcomeKind.ALICE_WINS
        assert result.verified_outcome.tosses == 4

    def test_single_toss(self):
        result = alice_force_win(ts("T"))
        assert result.constructed == ts("H")
        assert result.verified_outcome.tosses == 1

    def test_shortest_doubled_opponent(self):
        result = alice_force_win(ts("HH"))
        assert result.constructed == ts("TH")
        assert result.verified_outcome.tosses == 2
        assert play(ts("TH"), ts("HH"))[1].text == "TH"

    def test_always_wins_on_toss_n_exhaustively(self):
        for n in range(1, 7):
            for bob in all_strings(n):
                result = alice_force_win(bob)
                assert result.status is FOUND
                assert result.verified_outcome.tosses == n, bob


class TestForcedWinTiming:
    """Seeded opponents past the exhaustive lengths."""

    def test_found_wins_land_in_time_past_length_eight(self):
        # Alice's forced win lands by toss n, Bob's by toss n + 1.
        rng = random.Random(940)
        for n in range(9, 41):
            for _ in range(6):
                opponent = TossString(n, rng.randrange(1 << n))
                for op, limit in ((alice_force_win, n), (bob_force_win, n + 1)):
                    result = op(opponent)
                    assert result.status is FOUND
                    assert result.verified_outcome.tosses <= limit, (op, opponent)


class TestForceInfinite:
    def test_bob_against_doubled_letter(self):
        result = bob_force_infinite(ts("HHTT"))
        assert result.constructed == ts("TTTT")
        assert result.method == "all-opposite-letter"
        assert result.verified_outcome.is_infinite

    def test_bob_against_long_alternation(self):
        result = bob_force_infinite(ts("HTHTH"))
        assert result.constructed == ts("HHTTT")
        assert result.method == "alternating-block-cycle"
        outcome, trace = play(ts("HTHTH"), ts("HHTTT"))
        assert outcome.is_infinite and outcome.period == 4
        assert trace.text.startswith("HHTT")

    @pytest.mark.parametrize("text", ["H", "HT", "HTH", "HTHT", "T", "TH", "THT", "THTH"])
    def test_bob_exception_list(self, text):
        assert bob_force_infinite(ts(text)).status is IMPOSSIBLE

    def test_bob_succeeds_everywhere_else(self):
        for n in range(1, 7):
            for alice in all_strings(n):
                result = bob_force_infinite(alice)
                if alice.is_alternating() and n <= 4:
                    assert result.status is IMPOSSIBLE
                else:
                    assert result.status is FOUND
                    assert result.verified_outcome.is_infinite

    def test_alice_against_doubled_letter(self):
        result = alice_force_infinite(ts("HHHH"))
        assert result.constructed == ts("TTTT")
        assert result.verified_outcome.is_infinite

    def test_alice_against_long_alternation(self):
        result = alice_force_infinite(ts("HTHTHT"))
        assert result.constructed == ts("THHTTT")
        assert result.method == "alternating-block-cycle"

    @pytest.mark.parametrize(
        "text", ["H", "HT", "HTH", "HTHT", "HTHTH", "T", "TH", "THT", "THTH", "THTHT"]
    )
    def test_alice_exception_list(self, text):
        assert alice_force_infinite(ts(text)).status is IMPOSSIBLE

    def test_alice_succeeds_everywhere_else(self):
        for n in range(1, 7):
            for bob in all_strings(n):
                result = alice_force_infinite(bob)
                if bob.is_alternating() and n <= 5:
                    assert result.status is IMPOSSIBLE
                else:
                    assert result.status is FOUND
                    assert result.verified_outcome.is_infinite


class TestAliceForceLoss:
    def test_even_length_copies_and_flips(self):
        result = alice_force_loss(ts("HTTH"))
        assert result.constructed == ts("HTTT")
        assert result.method == "copy-flip-last"
        assert result.verified_outcome.kind is OutcomeKind.BOB_WINS
        assert result.verified_outcome.tosses == 4

    def test_odd_constant_impossible(self):
        result = alice_force_loss(ts("TTT"))
        assert result.status is IMPOSSIBLE
        assert result.method == "odd-length-constant-opponent"

    def test_odd_run_then_double_tail(self):
        result = alice_force_loss(ts("HHHTT"))
        assert result.method == "shift-after-odd-run"
        assert result.constructed == ts("HHTTT")
        assert result.verified_outcome.tosses == 3 + 5

    def test_alternating_opponent_odd_length(self):
        result = alice_force_loss(ts("HTHTH"))
        assert result.method == "all-opposite-letter"
        assert result.constructed == ts("TTTTT")
        assert result.verified_outcome.kind is OutcomeKind.BOB_WINS

    def test_drop_one_shift(self):
        result = alice_force_loss(ts("HTT"))
        assert result.method == "drop-one-append-one"
        assert result.verified_outcome.tosses == 4

    def test_drop_two_on_even_break_feeds_search_free_tosses(self):
        # Odd length, opponent opening HT with the alternation broken by
        # a doubled H: the construction drops the first two tosses.
        result = alice_force_loss(ts("HTHHT"))
        assert result.status is FOUND
        assert result.verified_outcome.kind is OutcomeKind.BOB_WINS

    def test_always_possible_except_odd_constants(self):
        for n in range(1, 7):
            for bob in all_strings(n):
                result = alice_force_loss(bob)
                if n % 2 == 1 and bob.is_constant():
                    assert result.status is IMPOSSIBLE
                    assert not exists_forcer(Player.ALICE, ForceGoal.LOSS, bob)
                else:
                    assert result.status is FOUND, bob
                    assert result.verified_outcome.kind is OutcomeKind.BOB_WINS

    def test_toss_counts_per_construction_method(self):
        for n in range(2, 8):
            for bob in all_strings(n):
                result = alice_force_loss(bob)
                if result.status is not FOUND:
                    continue
                tosses = result.verified_outcome.tosses
                if result.method == "copy-flip-last":
                    assert tosses == n
                elif result.method == "drop-two-append-two":
                    assert tosses == n
                elif result.method == "drop-one-append-one":
                    assert tosses == n + 1
                elif result.method == "shift-after-even-run":
                    assert tosses == n
                elif result.method == "shift-after-odd-run":
                    assert tosses == bob.leading_run() + n


class TestBobForceLoss:
    def test_odd_length_copies_and_flips(self):
        result = bob_force_loss(ts("HTH"))
        assert result.constructed == ts("HTT")
        assert result.method == "copy-flip-last"
        assert result.verified_outcome.kind is OutcomeKind.ALICE_WINS
        assert result.verified_outcome.tosses == 3

    def test_even_constant_impossible(self):
        result = bob_force_loss(ts("HHHH"))
        assert result.status is IMPOSSIBLE
        assert result.method == "even-length-constant-opponent"

    def test_odd_leading_run_shift(self):
        result = bob_force_loss(ts("HTHT"))
        assert result.method == "shift-after-odd-run"
        assert result.verified_outcome.tosses == 4

    def test_no_loss_string_proved_by_search(self):
        result = bob_force_loss(ts("HHTT"))
        assert result.status is IMPOSSIBLE
        assert result.method == "exhaustive-search"
        assert not exists_forcer(Player.BOB, ForceGoal.LOSS, ts("HHTT"))

    def test_search_finds_forcers_for_even_runs(self):
        result = bob_force_loss(ts("HHTH"))
        assert result.status is FOUND
        assert result.method == "exhaustive-search"
        assert result.verified_outcome.kind is OutcomeKind.ALICE_WINS

    def test_impossible_exactly_where_brute_force_says_so(self):
        for n in range(1, 7):
            for alice in all_strings(n):
                result = bob_force_loss(alice)
                possible = exists_forcer(Player.BOB, ForceGoal.LOSS, alice)
                assert (result.status is FOUND) == possible, alice
                if result.status is FOUND:
                    assert result.verified_outcome.kind is OutcomeKind.ALICE_WINS

    def test_beyond_cap_is_unknown(self):
        # Even length, even leading run, not constant: no closed form,
        # and the opponent is longer than the search cap.
        opponent = ts("HH" + "TH" * 12 + "TT")
        assert opponent.length == 28 > DEFAULT_SEARCH_CAP
        result = bob_force_loss(opponent)
        assert result.status is UNKNOWN
        assert result.constructed is None

    def test_cap_is_configurable(self):
        opponent = ts("HHTHTHTTTT")
        assert bob_force_loss(opponent, cap=9).status is UNKNOWN
        assert bob_force_loss(opponent, cap=10).status in (FOUND, IMPOSSIBLE)


class TestComplementCovariance:
    OPS = [
        bob_force_win,
        alice_force_win,
        bob_force_infinite,
        alice_force_infinite,
        alice_force_loss,
        bob_force_loss,
    ]

    def test_flipping_the_opponent_flips_the_answer(self):
        for n in range(1, 6):
            for opponent in all_strings(n):
                for op in self.OPS:
                    direct = op(opponent)
                    mirrored = op(opponent.complement())
                    assert mirrored.status is direct.status, (op, opponent)
                    assert mirrored.method == direct.method
                    if direct.status is FOUND:
                        assert mirrored.constructed == direct.constructed.complement()


class TestSearchOrder:
    """The exhaustive search answers with the first candidate, scanned in
    H < T order in the frame where the opponent starts with H, that
    reaches the goal."""

    def first_by_scan(self, role: Player, opponent: TossString):
        wanted = _GOAL_KINDS[role, ForceGoal.LOSS]
        flipped = opponent.text.startswith("T")
        for candidate in all_strings(opponent.length):
            if flipped:
                candidate = ts(candidate.text.translate(SWAP))
            if candidate == opponent:
                continue
            if role is Player.ALICE:
                outcome = play(candidate, opponent)[0]
            else:
                outcome = play(opponent, candidate)[0]
            if outcome.kind is wanted:
                return candidate
        return None

    def test_search_answers_with_the_first_candidate_in_scan_order(self):
        ops = ((alice_force_loss, Player.ALICE), (bob_force_loss, Player.BOB))
        searched = found = 0
        for n in range(1, 11):
            for opponent in all_strings(n):
                for op, role in ops:
                    result = op(opponent)
                    if result.method != "exhaustive-search":
                        continue
                    searched += 1
                    found += result.status is FOUND
                    expected = self.first_by_scan(role, opponent)
                    assert result.constructed == expected, (op.__name__, opponent)
        assert found and searched > found

    # Against HHTH no loss rule applies and the search finds HHHH.  A wrong
    # answer (the opponent's own string, or TTTT, which plays forever) must
    # raise, not fall through to IMPOSSIBLE.
    @pytest.mark.parametrize("wrong", ["HHTH", "TTTT"])
    def test_an_answer_that_fails_its_playout_raises(self, monkeypatch, wrong):
        monkeypatch.setattr(forcing, "_first_loss", lambda role, n, opp: ts(wrong).bits)
        with pytest.raises(RuntimeError, match="fails its playout"):
            bob_force_loss(ts("HHTH"))

    # A win or infinite-game rule has no search behind it: when its
    # candidate fails the playout the operation raises, with or without -O.
    @pytest.mark.parametrize(
        "op,outcome",
        [
            (bob_force_win, Outcome.infinite(1, 2)),
            (alice_force_win, Outcome.bob_wins(4)),
            (bob_force_infinite, Outcome.alice_wins(4)),
            (alice_force_infinite, Outcome.bob_wins(5)),
        ],
    )
    def test_a_rule_that_fails_its_playout_raises(self, monkeypatch, op, outcome):
        monkeypatch.setattr(forcing, "play", lambda alice, bob: (outcome, None))
        with pytest.raises(RuntimeError, match="HHTT fails its playout; this is a bug"):
            op(ts("HHTT"))


class TestRulesAnswerAlone:
    """The first rule whose hypothesis holds proposes one string, and that
    string is the answer: the search behind the loss rules never stands in
    for a construction that misses."""

    def test_every_rule_passed_to_finish_is_the_answer(self, monkeypatch):
        passed = []
        finish = forcing._finish

        def spy(role, goal, opponent, rule, cap=DEFAULT_SEARCH_CAP):
            passed.append(rule)
            return finish(role, goal, opponent, rule, cap)

        monkeypatch.setattr(forcing, "_finish", spy)
        for n in range(1, 13):
            for opponent in all_strings(n):
                for role, goal in forcing._FORCERS:
                    passed.clear()
                    # Cap 0: a loss rule that missed would come back UNKNOWN.
                    result = force(role, goal, opponent, cap=0)
                    if not passed:  # a shape exception, proved without a string
                        assert result.status is IMPOSSIBLE
                    elif passed[0] is not None:
                        method = passed[0][1]
                        assert (result.status, result.method) == (FOUND, method), (
                            role, goal, opponent.text,
                        )

    # Each rule's string is HTT; the search would answer HHH and HTH.
    @pytest.mark.parametrize(
        "op,opponent,method",
        [
            (bob_force_loss, "HTH", "copy-flip-last"),
            (alice_force_loss, "HHT", "shift-after-even-run"),
        ],
    )
    def test_a_loss_rule_that_misses_raises(self, monkeypatch, op, opponent, method):
        real_play = forcing.play

        def lying_play(alice, bob):
            if ts("HTT") in (alice, bob):
                return Outcome.infinite(0, 2), None
            return real_play(alice, bob)

        assert op(ts(opponent)).method == method
        monkeypatch.setattr(forcing, "play", lying_play)
        with pytest.raises(RuntimeError, match="fails its playout; this is a bug"):
            op(ts(opponent))

    def test_only_a_loss_reaches_finish_without_a_rule(self, monkeypatch):
        goals = set()
        finish = forcing._finish

        def spy(role, goal, opponent, rule, cap=DEFAULT_SEARCH_CAP):
            if rule is None:
                goals.add(goal)
            return finish(role, goal, opponent, rule, cap)

        monkeypatch.setattr(forcing, "_finish", spy)
        for n in range(1, 11):
            for opponent in all_strings(n):
                for role, goal in forcing._FORCERS:
                    force(role, goal, opponent, cap=0)
        assert goals == {ForceGoal.LOSS}


class TestForceDispatch:
    def test_routes_by_role_and_goal(self):
        assert force(Player.BOB, ForceGoal.WIN, ts("HTHT")) == bob_force_win(ts("HTHT"))
        assert force(Player.ALICE, ForceGoal.WIN, ts("THHH")) == alice_force_win(
            ts("THHH")
        )
        assert force(Player.BOB, ForceGoal.INFINITE_GAME, ts("HHTT")) == (
            bob_force_infinite(ts("HHTT"))
        )
        assert force(Player.ALICE, ForceGoal.LOSS, ts("HTTH")) == alice_force_loss(
            ts("HTTH")
        )

    def test_results_are_plain_data(self):
        result = force(Player.BOB, ForceGoal.LOSS, ts("HTH"))
        assert isinstance(result, ForceResult)
        assert result == bob_force_loss(ts("HTH"))
