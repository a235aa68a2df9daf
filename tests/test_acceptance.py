"""End-to-end acceptance checks for the whole package.

Each test covers one headline guarantee and prints a single PASS/FAIL
verdict line; run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go by.
"""

import random
import time
from contextlib import contextmanager

from noflip import (
    ForceStatus,
    Outcome,
    OutcomeKind,
    Player,
    ProgressAutomaton,
    TossString,
    alice_force_infinite,
    alice_force_loss,
    alice_force_win,
    bob_force_infinite,
    bob_force_loss,
    bob_force_win,
    census,
    finite_toss_bound,
    longest_finite,
    no_loss_strings,
    play,
    scan_progress,
    verify_suite,
)


@contextmanager
def verdict(line):
    try:
        yield
    except BaseException:
        print(f"FAIL — {line}")
        raise
    print(f"PASS — {line}")


def ts(text):
    return TossString.from_text(text)


def all_strings(n):
    return [TossString(n, code) for code in range(1 << n)]


# --- 1 ----------------------------------------------------------------------

WORKED_STATE_WALK = [
    (0, 0, "A", 0),
    (1, 0, "B", 1),
    (0, 1, "A", 2),
    (1, 2, "B", 3),
    (2, 3, "A", 4),
    (3, 1, "B", 5),
    (1, 2, "A", 6),
    (2, 3, "B", 7),
    (2, 4, "A", 8),
]


def test_01_worked_example():
    with verdict("HHTT vs THHH: Bob wins at toss 8, trace HTHHTHHH, 9-state walk"):
        outcome, trace = play(ts("HHTT"), ts("THHH"))
        assert outcome == Outcome.bob_wins(8)
        assert outcome.describe() == "BobWins at toss 8"
        assert trace.text == "HTHHTHHH"
        walk = [(s.a, s.b, s.turn.value, s.k) for s in trace.states]
        assert walk == WORKED_STATE_WALK


# --- 2 ----------------------------------------------------------------------

LENGTH_TWO_ROWS = [
    ("HH", "HT", OutcomeKind.BOB_WINS, "HT"),
    ("HH", "TH", OutcomeKind.BOB_WINS, "HTH"),
    ("HH", "TT", OutcomeKind.INFINITE, "HTH"),
    ("HT", "HH", OutcomeKind.BOB_WINS, "HH"),
    ("HT", "TH", OutcomeKind.ALICE_WINS, "HT"),
    ("HT", "TT", OutcomeKind.ALICE_WINS, "HT"),
]


def test_02_length_two_reference_games():
    with verdict("all six H-first length-2 games, including the repeating one"):
        for a, b, kind, text in LENGTH_TWO_ROWS:
            outcome, trace = play(ts(a), ts(b))
            assert outcome.kind is kind
            assert trace.text == text
            if kind is OutcomeKind.INFINITE:
                assert (outcome.entry, outcome.period) == (1, 2)
                extended = trace.text
                while len(extended) < 8:
                    j = outcome.entry + (len(extended) - outcome.entry) % outcome.period
                    extended += trace.text[j]
                assert extended == "HTHTHTHT"
            else:
                winner = a if kind is OutcomeKind.ALICE_WINS else b
                assert outcome.tosses == len(trace.text)
                assert trace.text.endswith(winner)


# --- 3 ----------------------------------------------------------------------

# per length: total games, Bob wins, Alice wins, infinite
CENSUS_ROWS = {
    1: (2, 0, 2, 0),
    2: (12, 6, 4, 2),
    3: (56, 16, 26, 14),
    4: (240, 84, 64, 92),
    5: (992, 238, 290, 464),
    6: (4032, 916, 756, 2360),
    7: (16256, 2636, 2932, 10688),
    8: (65280, 8942, 7774, 48564),
}


def test_03_census_lengths_one_to_eight():
    with verdict("census 1..8 matches every column, single-threaded in < 10 s"):
        start = time.perf_counter()
        for n, (total, bob, alice, infinite) in sorted(CENSUS_ROWS.items()):
            c = census(n)
            assert (c.total, c.bob_wins, c.alice_wins, c.infinite) == (
                total,
                bob,
                alice,
                infinite,
            )
        assert time.perf_counter() - start < 10.0


# --- 4 ----------------------------------------------------------------------

# Rounded reference proportions, kept as printed: comparison tolerance is
# half a unit in the last printed decimal place.
REFERENCE_PROPORTIONS = {
    "bob": ("0", "0.5", "0.29", "0.35", "0.24", "0.23", "0.16", "0.14"),
    "alice": ("1", "0.3", "0.46", "0.27", "0.29", "0.19", "0.18", "0.12"),
    "infinite": ("0", "0.17", "0.25", "0.38", "0.47", "0.59", "0.66", "0.74"),
}


def matches_printed(value, printed):
    if "." not in printed:
        return value == float(printed)
    decimals = len(printed.partition(".")[2])
    return abs(value - float(printed)) <= 0.5 * 10.0 ** -decimals + 1e-12


def test_04_outcome_proportions():
    with verdict("proportions 1..8 match the reference table; repeat share never drops"):
        repeat_share = {}
        for i, n in enumerate(range(1, 9)):
            c = census(n)
            assert matches_printed(c.bob_proportion, REFERENCE_PROPORTIONS["bob"][i])
            assert matches_printed(c.alice_proportion, REFERENCE_PROPORTIONS["alice"][i])
            assert matches_printed(c.infinite_proportion, REFERENCE_PROPORTIONS["infinite"][i])
            repeat_share[n] = c.infinite_proportion
        for n in range(2, 8):
            assert repeat_share[n] <= repeat_share[n + 1]


# --- 5 ----------------------------------------------------------------------


def test_05_longest_finite_games():
    with verdict("longest finite games are 1,3,4,8,9,13,18,22, within the toss bound"):
        expected = (1, 3, 4, 8, 9, 13, 18, 22)
        for n, want in zip(range(1, 9), expected):
            stats = longest_finite(n)
            assert stats.max_finite_tosses == want
            assert want <= finite_toss_bound(n)
        assert longest_finite(2).argmax_pairs == (
            (ts("HH"), ts("TH")),
            (ts("TT"), ts("HT")),
        )


# --- 6 ----------------------------------------------------------------------

NO_LOSS_EIGHT = {
    "HHHHHHTT",
    "HHHHTHTT",
    "HHHHTTTT",
    "HHTHHTTT",
    "HHTHTHTT",
    "HHTHTTTT",
    "HHTTHTTT",
    "HHTTTHTT",
    "HHTTTTTT",
}


def test_06_strings_the_opponent_cannot_lose_to():
    with verdict(
        "no-loss string sets at lengths 4, 6, 8 are exact, with 29 at 10 "
        "and 105 at 12, in < 60 s"
    ):
        start = time.perf_counter()
        assert {s.text for s in no_loss_strings(4)} == {"HHTT"}
        assert {s.text for s in no_loss_strings(6)} == {"HHTTTT", "HHTHTT", "HHHHTT"}
        assert {s.text for s in no_loss_strings(8)} == NO_LOSS_EIGHT
        assert len(no_loss_strings(10)) == 29
        assert len(no_loss_strings(12)) == 105
        assert time.perf_counter() - start < 60.0


# --- 7 ----------------------------------------------------------------------

SWAP = str.maketrans("HT", "TH")


def some_bob_hands_alice_the_win(alice):
    n = alice.length
    return any(
        play(alice, TossString(n, code))[0].kind is OutcomeKind.ALICE_WINS
        for code in range(1 << n)
        if code != alice.bits
    )


def test_07_forcing_constructions():
    with verdict("forcing ops verified exhaustively (1..8) and randomized (9..12)"):
        for n in range(1, 9):
            report = verify_suite(n, "forcing")
            assert report.ok, report.violations[:3]

        for n in range(1, 9):
            everything = all_strings(n)
            alternating = {s.text for s in everything if s.is_alternating()}
            constants = {"H" * n, "T" * n}

            impossible = {
                s.text
                for s in everything
                if bob_force_win(s).status is ForceStatus.IMPOSSIBLE
            }
            assert impossible == (constants if n == 1 else set())

            impossible = {
                s.text
                for s in everything
                if bob_force_infinite(s).status is ForceStatus.IMPOSSIBLE
            }
            assert impossible == (alternating if n <= 4 else set())

            impossible = {
                s.text
                for s in everything
                if alice_force_infinite(s).status is ForceStatus.IMPOSSIBLE
            }
            assert impossible == (alternating if n <= 5 else set())

            impossible = {
                s.text
                for s in everything
                if alice_force_loss(s).status is ForceStatus.IMPOSSIBLE
            }
            assert impossible == (constants if n % 2 == 1 else set())

            unbeatable = {s.text for s in no_loss_strings(n)}
            expected = unbeatable | {t.translate(SWAP) for t in unbeatable}
            if n % 2 == 0:
                expected |= constants
            impossible = {
                s.text
                for s in everything
                if bob_force_loss(s).status is ForceStatus.IMPOSSIBLE
            }
            assert impossible == expected

        rng = random.Random(2026)
        for n in range(9, 13):
            for _ in range(20):
                opponent = TossString(n, rng.randrange(1 << n))
                found = bob_force_win(opponent)
                assert found.status is ForceStatus.FOUND
                assert found.verified_outcome.kind is OutcomeKind.BOB_WINS
                assert found.verified_outcome.tosses < n + 2
                found = alice_force_win(opponent)
                assert found.status is ForceStatus.FOUND
                assert found.verified_outcome.kind is OutcomeKind.ALICE_WINS
                assert found.verified_outcome.tosses == n
                for op in (bob_force_infinite, alice_force_infinite):
                    found = op(opponent)
                    assert found.status is ForceStatus.FOUND
                    assert found.verified_outcome.is_infinite
            for _ in range(6):
                opponent = TossString(n, rng.randrange(1 << n))
                result = alice_force_loss(opponent)
                if opponent.is_constant() and n % 2 == 1:
                    assert result.status is ForceStatus.IMPOSSIBLE
                else:
                    assert result.status is ForceStatus.FOUND
                    assert result.verified_outcome.kind is OutcomeKind.BOB_WINS
                result = bob_force_loss(opponent)
                if result.status is ForceStatus.FOUND:
                    assert result.verified_outcome.kind is OutcomeKind.ALICE_WINS
                else:
                    assert result.status is ForceStatus.IMPOSSIBLE
                    assert not some_bob_hands_alice_the_win(opponent)


# --- 8 ----------------------------------------------------------------------

FORBIDDEN_STATES = {
    (0, 0, Player.BOB),
    (0, 1, Player.BOB),
    (1, 0, Player.ALICE),
}


def classify_by_cutoff(alice, bob):
    """Independent replay: no win by the toss bound means a repeat."""
    auto_a = ProgressAutomaton.build(alice)
    auto_b = ProgressAutomaton.build(bob)
    n = alice.length
    a = b = 0
    for k in range(finite_toss_bound(n)):
        toss = alice.at(a + 1) if k % 2 == 0 else bob.at(b + 1)
        a = auto_a.step(a, toss)
        b = auto_b.step(b, toss)
        if a == n:
            return OutcomeKind.ALICE_WINS, k + 1
        if b == n:
            return OutcomeKind.BOB_WINS, k + 1
    return None, None


def test_08_automaton_against_direct_scanning():
    with verdict("automaton ≡ direct scan: exhaustive to 6, plus 10,000 random pairs"):
        for n in range(1, 7):
            report = verify_suite(n, "bound")
            assert report.ok, report.violations[:3]

        rng = random.Random(80817)
        for _ in range(10_000):
            n = rng.randint(7, 16)
            a_code = rng.randrange(1 << n)
            b_code = rng.randrange(1 << n)
            if b_code == a_code:
                b_code ^= 1
            alice, bob = TossString(n, a_code), TossString(n, b_code)
            outcome, trace = play(alice, bob)
            for s in trace.states:
                prefix = trace.text[: s.k]
                assert s.a == scan_progress(alice.text, prefix)
                assert s.b == scan_progress(bob.text, prefix)
                assert (s.a, s.b, s.turn) not in FORBIDDEN_STATES
            kind, tosses = classify_by_cutoff(alice, bob)
            bound = finite_toss_bound(n)
            if outcome.is_infinite:
                assert kind is None
                assert outcome.entry + outcome.period <= bound
            else:
                assert kind is outcome.kind and tosses == outcome.tosses
                assert outcome.tosses <= bound


# --- 9 ----------------------------------------------------------------------


def test_09_prediction_soundness():
    with verdict("every fired shape prediction matches actual play for 1..8"):
        for n in range(1, 9):
            report = verify_suite(n, "predicates")
            assert report.ok, report.violations[:3]


# --- 10 ---------------------------------------------------------------------


def test_10_complement_symmetry():
    with verdict("complementing both strings mirrors every game for 1..6"):
        for n in range(1, 7):
            report = verify_suite(n, "symmetry")
            assert report.ok, report.violations[:3]
