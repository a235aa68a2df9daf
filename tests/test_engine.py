"""Engine tests: parsing, the progress automaton against its scan
oracle, single-step operations, and full playouts with frozen expected
values."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

import noflip
from noflip.engine import (
    MAX_LENGTH,
    GameState,
    GameTrace,
    Outcome,
    OutcomeKind,
    Player,
    ProgressAutomaton,
    START_STATE,
    Toss,
    TossString,
    _ROWS,
    _TURNS,
    _kmp_tables,
    _seat,
    _tables_for,
    advance,
    finite_toss_bound,
    next_choice,
    play,
    scan_progress,
)

H, T = Toss.H, Toss.T
A, B = Player.ALICE, Player.BOB


def ts(text: str) -> TossString:
    return TossString.from_text(text)


def all_strings(n: int) -> list[TossString]:
    return [TossString(n, code) for code in range(1 << n)]


def state(a: int, b: int, turn: Player, k: int) -> GameState:
    """The state after k tosses, checked to be ``turn``'s move."""
    s = GameState(a, b, k)
    assert s.turn is turn
    return s


def oracle_first_double(text: str) -> int | None:
    """The first doubled letter's 1-based position, compared pair by pair."""
    for k in range(len(text) - 1):
        if text[k] == text[k + 1]:
            return k + 1
    return None


def oracle_leading_run(text: str) -> int:
    """The opening run's length, counted letter by letter."""
    run = 1
    while run < len(text) and text[run] == text[0]:
        run += 1
    return run


# ---------------------------------------------------------------------------
# parsing and the packed representation


class TestTossString:
    @pytest.mark.parametrize("text", ["H", "T", "HHTT", "THHH", "HT" * 31 + "H"])
    def test_round_trip(self, text):
        assert TossString.from_text(text).text == text

    def test_round_trip_exhaustive_small(self):
        for n in range(1, 7):
            for s in all_strings(n):
                assert TossString.from_text(s.text) == s

    @pytest.mark.parametrize(
        "bad,message",
        [
            pytest.param(bad, message, id=bad if len(bad) <= 8 else "64-letters")
            for bad, message in [
                ("", "toss string must not be empty"),
                ("HXT", "invalid toss 'X' (only 'H' and 'T' allowed)"),
                ("HTx", "invalid toss 'x' (only 'H' and 'T' allowed)"),
                ("ht", "invalid toss 'h' (only 'H' and 'T' allowed)"),
                ("H T", "invalid toss ' ' (only 'H' and 'T' allowed)"),
                ("htH", "invalid toss 'h' (only 'H' and 'T' allowed)"),
                ("0101", "invalid toss '0' (only 'H' and 'T' allowed)"),
                ("H" * 64, "toss string longer than 63 tosses: 64"),
            ]
        ],
    )
    def test_rejects_bad_text(self, bad, message):
        # The first offending letter is named, even when a later one is bad too.
        with pytest.raises(ValueError) as excinfo:
            TossString.from_text(bad)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "length,bits,message",
        [
            (0, 0, "length must be 1..63"),
            (64, 0, "length must be 1..63"),
            (3, 8, "out of range for length 3"),
            (3, -1, "out of range for length 3"),
        ],
    )
    def test_constructor_rejects_bad_length_or_bits(self, length, bits, message):
        with pytest.raises(ValueError, match=message):
            TossString(length, bits)

    @pytest.mark.parametrize("field", ["length", "bits"])
    @pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_constructor_rejects_fields_that_are_not_ints(self, field, bad):
        fields = {"length": 3, "bits": 1, field: bad}
        with pytest.raises(TypeError, match=f"{field} must be an int"):
            TossString(**fields)

    def test_rejects_overlong(self):
        TossString.from_text("H" * 63)  # the boundary itself is fine
        with pytest.raises(ValueError):
            TossString.from_text("H" * 64)

    def test_lexicographic_order_matches_bits(self):
        texts = sorted(s.text for s in all_strings(4))
        by_bits = [s.text for s in all_strings(4)]
        assert texts == by_bits

    def test_one_based_positions(self):
        s = ts("HTHH")
        assert s.at(1) is H
        assert s.at(2) is T
        assert s.at(4) is H
        with pytest.raises(ValueError):
            s.at(0)
        with pytest.raises(ValueError):
            s.at(5)

    def test_text_matches_the_letters_one_by_one(self):
        rng = random.Random(11)
        strings = [s for n in range(1, 11) for s in all_strings(n)]
        strings += [TossString(n, rng.randrange(1 << n)) for n in range(11, 64) for _ in range(8)]
        for s in strings:
            assert s.text == "".join(t.value for t in s)

    def test_complement_is_involution(self):
        for s in all_strings(5):
            assert s.complement().complement() == s
            assert s.complement().text == s.text.translate(str.maketrans("HT", "TH"))

    @pytest.mark.parametrize(
        "text,alternating,constant,run,double",
        [
            ("H", True, True, 1, None),
            ("HT", True, False, 1, None),
            ("HHTT", False, False, 2, 1),
            ("HTHH", False, False, 1, 3),
            ("TTTT", False, True, 4, 1),
            ("THTH", True, False, 1, None),
        ],
    )
    def test_shape_helpers(self, text, alternating, constant, run, double):
        s = ts(text)
        assert s.is_alternating() == alternating
        assert s.is_constant() == constant
        assert s.leading_run() == run
        assert s.first_double() == double

    def test_shape_helpers_match_letter_by_letter_oracles(self):
        rng = random.Random(12)
        strings = [s for n in range(1, 13) for s in all_strings(n)]
        strings += [
            TossString(n, rng.randrange(1 << n)) for n in range(13, 64) for _ in range(200)
        ]
        # Shapes random long strings almost never take: alternating,
        # constant, doubled only at the last pair, a leading run of n - 1.
        for n in range(13, 64):
            alternating = ("HT" * n)[:n]
            for text in (
                alternating,
                "H" * n,
                alternating[:-1] + alternating[-2],
                "H" * (n - 1) + "T",
            ):
                strings += [ts(text), ts(text).complement()]
        for s in strings:
            double = oracle_first_double(s.text)
            assert s.first_double() == double
            assert s.is_alternating() == (double is None)
            assert s.leading_run() == oracle_leading_run(s.text)
            assert TossString.from_text(s.text) == s


# ---------------------------------------------------------------------------
# the progress automaton against the direct-scan oracle


def brute_progress(pattern: str, output: str) -> int:
    best = 0
    for i in range(min(len(pattern), len(output)) + 1):
        if i == 0 or output[-i:] == pattern[:i]:
            best = max(best, i)
    return best


class TestProgressAutomaton:
    def test_scan_progress_matches_brute_force(self):
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 8)
            pattern = "".join(rng.choice("HT") for _ in range(n))
            output = "".join(rng.choice("HT") for _ in range(rng.randint(0, 20)))
            assert scan_progress(pattern, output) == brute_progress(pattern, output)

    def test_step_advances_on_own_next_character(self):
        for n in range(1, 7):
            for s in all_strings(n):
                auto = ProgressAutomaton.build(s)
                for p in range(n):
                    assert auto.step(p, s.at(p + 1)) == p + 1

    def test_step_matches_scan_oracle_exhaustively(self):
        # Every reachable (prefix-of-output, toss) pair for small patterns:
        # feed all outputs of length <= 8 through the automaton and
        # compare against the direct scan after every toss.
        for n in range(1, 5):
            for s in all_strings(n):
                auto = ProgressAutomaton.build(s)
                for out_code in range(1 << 8):
                    state_ = 0
                    output = ""
                    for j in range(8):
                        toss = T if (out_code >> j) & 1 else H
                        output += toss.value
                        state_ = auto.step(state_, toss)
                        expected = scan_progress(s.text, output)
                        assert state_ == expected
                        if state_ == n:
                            break

    def test_step_matches_scan_oracle_random_long(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(2, 16)
            s = TossString(n, rng.randrange(1 << n))
            auto = ProgressAutomaton.build(s)
            state_ = 0
            output = ""
            for _ in range(60):
                toss = rng.choice((H, T))
                output += toss.value
                state_ = auto.step(state_, toss)
                assert state_ == scan_progress(s.text, output)
                if state_ == n:
                    break

    def test_step_rejects_out_of_range_state(self):
        auto = ProgressAutomaton.build(ts("HHTT"))
        with pytest.raises(ValueError):
            auto.step(4, H)
        with pytest.raises(ValueError):
            auto.step(-1, H)

    def test_step_rejects_a_toss_that_is_not_a_toss(self):
        # Only a Toss steps: a letter or None is an error, never a toss code.
        auto = ProgressAutomaton.build(ts("HT"))
        with pytest.raises(ValueError, match="'T'"):
            auto.step(0, "T")
        with pytest.raises(ValueError, match="None"):
            auto.step(0, None)

    def test_rows_written_out_by_hand(self):
        # State 2 (HH) stays at HH on H; every other mismatch falls to 0.
        auto = ProgressAutomaton.build(ts("HHTHH"))
        assert auto.table == ((1, 0), (2, 0), (2, 3), (4, 0), (5, 0))

    def test_every_row_matches_the_scan_oracle(self):
        rng = random.Random(1977)
        strings = [s for n in range(1, 11) for s in all_strings(n)]
        strings += [
            TossString(n, rng.getrandbits(n)) for n in range(11, 64) for _ in range(8)
        ]
        for s in strings:
            text, table = s.text, ProgressAutomaton.build(s).table
            assert len(table) == s.length
            for state_, row in enumerate(table):
                for x, target in zip("HT", row):
                    assert target == scan_progress(text, text[:state_] + x), (
                        text, state_, x,
                    )


def run_fresh(script: str) -> None:
    """Run ``script`` in a fresh interpreter that imports this noflip."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(noflip.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr


class TestSharedRows:
    @staticmethod
    def strings():
        """Every string with n <= 10, then seeded strings for n = 11..63."""
        rng = random.Random(4096)
        yield from (s for n in range(1, 11) for s in all_strings(n))
        for n in range(11, MAX_LENGTH + 1):
            for _ in range(8):
                yield TossString(n, rng.getrandbits(n))

    def test_the_walk_seeds_the_cached_rows(self):
        # The prefix walk seeds its rows, and the row its next state copies,
        # from the one builder, which interns every row and whose cached
        # tables are the same.  The copied row is the row of the state the
        # rows reach on the string without its first letter, its longest
        # proper border, and with the letter the walk reads pointed at the
        # next state it is the extended string's next row.
        for s in self.strings():
            n, bits = s.length, s.bits
            chars, rows, copied = _kmp_tables(n, bits)
            assert (chars, rows, copied) == _tables_for(n, bits), s.text
            assert chars == tuple(bits >> (n - 1 - j) & 1 for j in range(n))
            for row in rows:
                assert row is _ROWS[row]
            state = 0
            for j in range(n - 2, -1, -1):
                state = rows[state][bits >> j & 1]
            assert copied == rows[state], s.text
            if n < MAX_LENGTH:
                for c in (0, 1):
                    pushed = (copied[0], n + 1) if c else (n + 1, copied[1])
                    assert pushed == _tables_for(n + 1, bits << 1 | c)[1][n], s.text

    def test_the_empty_prefix_has_no_rows(self):
        # format(0, "00b") is "0", which must not read as a letter H.
        assert _kmp_tables(0, 0) == ((), (), (0, 0))
        assert _kmp_tables(1, 0) == ((0,), ((1, 0),), (1, 0))
        assert _kmp_tables(1, 1) == ((1,), ((0, 1),), (0, 1))

    def test_every_length_keeps_the_interned_rows_bounded(self):
        for n in range(1, MAX_LENGTH + 1):
            for bits in (0, (1 << n) - 1, 0x5555555555555555 & ((1 << n) - 1)):
                _kmp_tables(n, bits)
        assert len(_ROWS) <= 64 * 64
        assert all(0 <= x <= MAX_LENGTH and 0 <= y <= MAX_LENGTH for x, y in _ROWS)

    def test_no_row_is_interned_at_import(self):
        script = (
            "import noflip, noflip.cli, noflip.engine as e\n"
            "assert not e._ROWS, len(e._ROWS)\n"
        )
        run_fresh(script)

    def test_cache_churn_does_not_climb_memory(self):
        # About 6,600 strings against the 4096-entry cache, as the games
        # benchmark meets them, evict and rebuild tables on every pass.  A
        # table tuple grown in steps and shrunk at the end left the process
        # 3.2-3.6 MB larger over the last 30 passes; one built at its size,
        # about 0.2 MB.  A process started by exec keeps the peak RSS of the
        # one it was forked from, here pytest, so the passes run in a forked
        # child, whose peak starts at its own size.  ru_maxrss is KB on
        # Linux and bytes on macOS.
        script = (
            "import os, random, resource, sys\n"
            "from noflip.engine import _tables_for\n"
            "pid = os.fork()\n"
            "if pid:\n"
            "    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))\n"
            "def rss():\n"
            "    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "    return kb / 1024 if sys.platform == 'darwin' else kb\n"
            "rng = random.Random(6600)\n"
            "lengths = [rng.randint(4, 63) for _ in range(6600)]\n"
            "strings = [(n, rng.getrandbits(n)) for n in lengths]\n"
            "for done in range(1, 37):\n"
            "    rng.shuffle(strings)\n"
            "    for n, bits in strings:\n"
            "        _tables_for(n, bits)\n"
            "    if done == 6:\n"
            "        base = rss()\n"
            "grown = (rss() - base) / 1024\n"
            "if grown >= 1.5:\n"
            "    sys.exit(f'ru_maxrss grew {grown:.2f} MB over 30 passes')\n"
        )
        run_fresh(script)


# ---------------------------------------------------------------------------
# single-step operations


class TestNextChoice:
    def test_from_the_start_alice_names_her_first_toss(self):
        assert next_choice(START_STATE, ts("HHTT")) is H
        assert next_choice(START_STATE, ts("THHH")) is T

    def test_bob_resumes_past_his_progress(self):
        assert next_choice(state(1, 2, B, 3), ts("THHH")) is H

    def test_alice_with_zero_progress_restarts(self):
        assert next_choice(state(0, 1, A, 2), ts("HHTT")) is H

    def test_finished_mover_is_an_error(self):
        with pytest.raises(ValueError):
            next_choice(state(4, 3, A, 8), ts("HHTT"))


class TestAdvance:
    def setup_method(self):
        self.auto_a = ProgressAutomaton.build(ts("HHTT"))
        self.auto_b = ProgressAutomaton.build(ts("THHH"))

    def test_restart_transition(self):
        after = advance(state(1, 0, B, 1), T, self.auto_a, self.auto_b)
        assert after == state(0, 1, A, 2)

    def test_mid_game_transition(self):
        after = advance(state(2, 3, A, 4), T, self.auto_a, self.auto_b)
        assert after == state(3, 1, B, 5)

    def test_finished_game_is_an_error(self):
        with pytest.raises(ValueError):
            advance(state(4, 3, A, 8), H, self.auto_a, self.auto_b)

    def test_after_bobs_string_appeared_is_an_error(self):
        with pytest.raises(ValueError, match="bob's string already appeared"):
            advance(state(2, 4, A, 8), H, self.auto_a, self.auto_b)

    def test_a_letter_is_not_a_toss(self):
        with pytest.raises(ValueError, match="'H'"):
            advance(START_STATE, "H", self.auto_a, self.auto_b)

    def test_turn_and_count_always_move_together(self):
        assert [GameState(0, 0, k).turn for k in range(4)] == [A, B, A, B]
        with pytest.raises(TypeError):
            GameState(1, 0, A, 1)


# ---------------------------------------------------------------------------
# full playouts


WORKED_EXAMPLE_STATES = [
    (0, 0, A, 0),
    (1, 0, B, 1),
    (0, 1, A, 2),
    (1, 2, B, 3),
    (2, 3, A, 4),
    (3, 1, B, 5),
    (1, 2, A, 6),
    (2, 3, B, 7),
    (2, 4, A, 8),
]


class TestPlay:
    def test_worked_example_outcome_and_trace(self):
        outcome, trace = play(ts("HHTT"), ts("THHH"))
        assert outcome == Outcome.bob_wins(8)
        assert trace.text == "HTHHTHHH"

    def test_worked_example_state_sequence(self):
        states = play(ts("HHTT"), ts("THHH"))[1].states
        assert [(s.a, s.b, s.turn, s.k) for s in states] == WORKED_EXAMPLE_STATES

    def test_trace_is_packed_as_toss_codes_and_progress_bytes(self):
        # HH/TH: Alice names H, Bob T, Alice H, and Bob's TH appears.
        _, trace = play(ts("HH"), ts("TH"))
        assert trace.codes == b"\x00\x01\x00"
        assert trace.progress == bytes([0, 0, 1, 0, 0, 1, 1, 2])
        assert trace.tosses == (H, T, H)
        assert trace.states == (
            state(0, 0, A, 0), state(1, 0, B, 1), state(0, 1, A, 2), state(1, 2, B, 3)
        )
        assert trace == GameTrace(trace.codes, trace.progress)

    def test_traces_of_one_pair_are_equal_and_hash_alike(self):
        pairs = [("HHTT", "THHH"), ("HH", "TT"), ("H", "T"), ("HT" * 31 + "H", "T" * 63)]
        for alice, bob in pairs:
            first = play(ts(alice), ts(bob))[1]
            second = play(ts(alice), ts(bob))[1]
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert {first: alice}[second] == alice
        assert play(ts("HH"), ts("TT"))[1] != play(ts("TT"), ts("HH"))[1]

    def test_results_match_publicly_constructed_ones(self):
        # play builds its GameTrace without the checks of its __init__; it
        # and the Outcome must still compare, hash and print like the ones
        # the public constructors give for the stepwise playout.
        for n in range(1, 6):
            autos = {s: ProgressAutomaton.build(s) for s in all_strings(n)}
            for alice in all_strings(n):
                for bob in all_strings(n):
                    if alice == bob:
                        continue
                    public, tosses, states = stepwise_playout(
                        alice, bob, autos[alice], autos[bob]
                    )
                    rebuilt = GameTrace(
                        bytes([t is T for t in tosses]),
                        bytes([p for s in states for p in (s.a, s.b)]),
                    )
                    for built, made in zip(play(alice, bob), (public, rebuilt)):
                        assert built == made and made == built
                        assert hash(built) == hash(made)
                        assert repr(built) == repr(made)

    @pytest.mark.parametrize(
        "codes, progress, error, message",
        [
            (b"\x02", b"\0" * 4, ValueError, "toss codes must be 0"),
            (b"\0", b"\0", ValueError, "1 tosses need 4 progress bytes, got 1"),
            (b"", b"\0" * 4, ValueError, "0 tosses need 2 progress bytes, got 4"),
            ([0], b"\0" * 4, TypeError, "game trace codes must be bytes, got list"),
            (b"\0", bytearray(4), TypeError, "game trace progress must be bytes"),
        ],
        ids=["code", "short", "long", "codes-list", "progress-bytearray"],
    )
    def test_trace_constructor_rejects_bad_fields(self, codes, progress, error, message):
        with pytest.raises(error, match=message):
            GameTrace(codes, progress)

    def test_trace_constructor_accepts_a_valid_trace(self):
        trace = GameTrace(b"\x00\x01\x00", bytes([0, 0, 1, 0, 0, 1, 1, 2]))
        assert trace == play(ts("HH"), ts("TH"))[1]
        assert GameTrace(b"", b"\0\0").states == (START_STATE,)

    def test_shared_first_character_moves_both(self):
        states = play(ts("HHTT"), ts("HTHH"))[1].states
        assert states[1] == state(1, 1, B, 1)

    def test_single_letter_game(self):
        outcome, trace = play(ts("H"), ts("T"))
        assert outcome == Outcome.alice_wins(1)
        assert trace.text == "H"
        assert [(s.a, s.b) for s in trace.states] == [(0, 0), (1, 0)]

    def test_simplest_infinite_game(self):
        outcome, trace = play(ts("HH"), ts("TT"))
        assert outcome == Outcome.infinite(1, 2)
        assert trace.text == "HTH"
        continuation = list(trace.tosses)
        while len(continuation) < 8:
            continuation.append(
                continuation[outcome.entry + (len(continuation) - outcome.entry) % outcome.period]
            )
        assert "".join(t.value for t in continuation) == "HTHTHTHT"

    @pytest.mark.parametrize(
        "alice,bob,expected_text,kind,tosses",
        [
            ("HH", "HT", "HT", OutcomeKind.BOB_WINS, 2),
            ("HH", "TH", "HTH", OutcomeKind.BOB_WINS, 3),
            ("HT", "HH", "HH", OutcomeKind.BOB_WINS, 2),
            ("HT", "TH", "HT", OutcomeKind.ALICE_WINS, 2),
            ("HT", "TT", "HT", OutcomeKind.ALICE_WINS, 2),
        ],
    )
    def test_all_finite_length_two_games(self, alice, bob, expected_text, kind, tosses):
        outcome, trace = play(ts(alice), ts(bob))
        assert outcome.kind is kind
        assert outcome.tosses == tosses
        assert trace.text == expected_text

    def test_forcing_construction_playouts(self):
        # Constructed-opponent games with known outputs.
        outcome, trace = play(ts("HTHT"), ts("HHTH"))
        assert outcome == Outcome.bob_wins(4)
        assert trace.text == "HHTH"

        outcome, trace = play(ts("HTHHT"), ts("THTHH"))
        assert outcome == Outcome.bob_wins(6)
        assert trace.text == "HTHTHH"

        outcome, trace = play(ts("HTTH"), ts("HHTT"))
        assert outcome == Outcome.bob_wins(4)
        assert trace.text == "HHTT"

    def test_trace_text_joins_the_toss_values(self):
        for n in range(1, 5):
            for alice in all_strings(n):
                for bob in all_strings(n):
                    if alice != bob:
                        _, trace = play(alice, bob)
                        assert trace.text == "".join(t.value for t in trace.tosses)

    def test_rejects_equal_strings(self):
        with pytest.raises(ValueError):
            play(ts("HT"), ts("HT"))

    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError):
            play(ts("HT"), ts("HTT"))

    def test_playouts_are_deterministic(self):
        first = play(ts("HTHHT"), ts("HHTTT"))
        for _ in range(3):
            assert play(ts("HTHHT"), ts("HHTTT")) == first


class TestPlayoutInvariants:
    FORBIDDEN = {(0, 0, B), (0, 1, B), (1, 0, A)}

    def outcomes_small(self):
        for n in range(1, 6):
            for alice in all_strings(n):
                for bob in all_strings(n):
                    if alice != bob:
                        yield alice, bob, play(alice, bob)

    def test_each_toss_is_named_by_its_seat(self):
        # _seat is the engine's statement of who names toss k: toss k is that
        # player's next letter, and each state's turn is the seat of the toss
        # after it.  The winning toss may be the loser's (HH/TH ends on HTH),
        # so a winner is checked by its full progress at the end instead.
        for n in range(1, 7):
            for alice in all_strings(n):
                for bob in all_strings(n):
                    if alice == bob:
                        continue
                    outcome, trace = play(alice, bob)
                    strings = (alice, bob)
                    for k, before in enumerate(trace.states[:-1], start=1):
                        seat = _seat(k)
                        progress = (before.a, before.b)[seat]
                        assert trace.tosses[k - 1] is strings[seat].at(progress + 1)
                    for s in trace.states[1:]:
                        assert _TURNS[_seat(s.k + 1)] is s.turn, (alice, bob, s)
                    if not outcome.is_infinite:
                        last = trace.states[-1]
                        assert (last.a, last.b)[_TURNS.index(outcome.winner)] == n

    def test_every_game_respects_the_counting_bound(self):
        for alice, bob, (outcome, trace) in self.outcomes_small():
            bound = finite_toss_bound(alice.length)
            if outcome.is_infinite:
                assert outcome.entry + outcome.period <= bound
            else:
                assert outcome.tosses <= bound

    def test_bound_check_survives_optimized_mode(self):
        # python -O strips assert statements, so the cross-check against the
        # counting bound must raise on its own.  A bound of 0 fails every game.
        script = (
            "import noflip.engine as e\n"
            "e.finite_toss_bound = lambda n: 0\n"
            "e.play(e.TossString.from_text('HT'), e.TossString.from_text('TH'))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(noflip.__file__)))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 1
        assert "RuntimeError" in proc.stderr
        assert "toss bound 0" in proc.stderr

    def test_forbidden_triplets_never_occur(self):
        for _, _, (outcome_, trace) in self.outcomes_small():
            for s in trace.states:
                assert (s.a, s.b, s.turn) not in self.FORBIDDEN

    def test_mover_progress_always_increments(self):
        for _, _, (outcome_, trace) in self.outcomes_small():
            for before, after in zip(trace.states, trace.states[1:]):
                if before.turn is A:
                    assert after.a == before.a + 1
                else:
                    assert after.b == before.b + 1

    def test_trace_has_one_state_per_toss_plus_terminal(self):
        for _, _, (outcome_, trace) in self.outcomes_small():
            assert len(trace.states) == len(trace.tosses) + 1

    def test_infinite_traces_are_eventually_periodic(self):
        for alice, bob, (outcome, trace) in self.outcomes_small():
            if not outcome.is_infinite:
                continue
            m = len(trace.tosses)
            assert m == outcome.entry + outcome.period
            assert trace.states[m].triplet == trace.states[outcome.entry].triplet

    def test_complementing_both_strings_mirrors_the_game(self):
        rng = random.Random(23)
        for _ in range(200):
            n = rng.randint(2, 12)
            alice = TossString(n, rng.randrange(1 << n))
            bob = TossString(n, rng.randrange(1 << n))
            if alice == bob:
                continue
            outcome, trace = play(alice, bob)
            mirrored, mirrored_trace = play(alice.complement(), bob.complement())
            assert mirrored == outcome
            assert mirrored_trace.text == trace.text.translate(str.maketrans("HT", "TH"))

    def test_complement_symmetry_past_length_eight(self):
        rng = random.Random(2409)
        for n in range(9, 25):
            for _ in range(12):
                alice = TossString(n, rng.randrange(1 << n))
                bob = TossString(n, rng.randrange(1 << n))
                if alice == bob:
                    continue
                outcome, trace = play(alice, bob)
                mirrored, mirrored_trace = play(alice.complement(), bob.complement())
                assert mirrored == outcome
                assert mirrored_trace.text == trace.text.translate(
                    str.maketrans("HT", "TH")
                )

    def test_progress_matches_scan_oracle_past_length_eight(self):
        rng = random.Random(920)
        for n in range(9, 21):
            for _ in range(12):
                alice = TossString(n, rng.randrange(1 << n))
                bob = TossString(n, rng.randrange(1 << n))
                if alice == bob:
                    continue
                _, trace = play(alice, bob)
                for s in trace.states:
                    output = trace.text[: s.k]
                    assert s.a == scan_progress(alice.text, output)
                    assert s.b == scan_progress(bob.text, output)

    def test_progress_matches_scan_oracle_along_random_games(self):
        rng = random.Random(31)
        for _ in range(150):
            n = rng.randint(2, 10)
            alice = TossString(n, rng.randrange(1 << n))
            bob = TossString(n, rng.randrange(1 << n))
            if alice == bob:
                continue
            _, trace = play(alice, bob)
            for s in trace.states:
                output = trace.text[: s.k]
                assert s.a == scan_progress(alice.text, output)
                assert s.b == scan_progress(bob.text, output)

    def test_play_agrees_with_stepwise_next_choice_and_advance(self):
        for alice, bob in stepwise_pairs():
            auto_a = ProgressAutomaton.build(alice)
            auto_b = ProgressAutomaton.build(bob)
            outcome, tosses, states = stepwise_playout(alice, bob, auto_a, auto_b)
            got, trace = play(alice, bob)
            assert got == outcome, (alice, bob)
            assert trace.tosses == tosses, (alice, bob)
            assert trace.states == states, (alice, bob)
            assert trace.text == "".join(t.value for t in tosses), (alice, bob)
            for fast, checked in zip(trace.states, states):
                assert fast == checked and hash(fast) == hash(checked)
                assert type(fast) is GameState

    def test_stepwise_pairs_reach_long_traces(self):
        longest = max(
            len(play(alice, bob)[1].tosses)
            for alice, bob in stepwise_pairs()
            if alice.length > 7
        )
        assert 60 <= longest <= finite_toss_bound(MAX_LENGTH)

    @pytest.mark.parametrize("field", ["a", "b", "k"])
    @pytest.mark.parametrize("bad", [1.0, True, "1"], ids=["float", "bool", "str"])
    def test_state_constructor_rejects_fields_that_are_not_ints(self, field, bad):
        fields = {"a": 0, "b": 0, "k": 0, field: bad}
        with pytest.raises(TypeError, match=f"game state {field} must be an int"):
            GameState(**fields)

    def test_public_state_constructor_still_checks_the_turn(self):
        _, trace = play(ts("HHTT"), ts("THHH"))
        for s in trace.states:
            assert s == GameState(s.a, s.b, s.k)
            assert s.turn is (A, B)[s.k % 2]
        with pytest.raises(ValueError):
            GameState(-1, 0, 0)


def stepwise_playout(alice, bob, auto_a, auto_b):
    """Reference playout through the public step API: ``next_choice``,
    ``advance`` and the checked ``GameState`` constructor, stopping at a
    win or at the first repeated (a, b, turn) triplet.  Returns the
    outcome, the tosses and the states as tuples of objects."""
    n = alice.length
    current = START_STATE
    tosses, states = [], [current]
    seen: dict[tuple, int] = {}
    while current.triplet not in seen:
        seen[current.triplet] = current.k
        toss = next_choice(current, alice if current.turn is A else bob)
        current = advance(current, toss, auto_a, auto_b)
        tosses.append(toss)
        states.append(current)
        if current.a == n:
            outcome = Outcome.alice_wins(current.k)
            break
        if current.b == n:
            outcome = Outcome.bob_wins(current.k)
            break
    else:
        entry = seen[current.triplet]
        outcome = Outcome.infinite(entry, current.k - entry)
    return outcome, tuple(tosses), tuple(states)


def stepwise_pairs():
    """Every pair with n <= 7, then seeded random pairs for n = 8..63:
    uniform ones, and forced wins where Alice flips Bob's first letter and
    copies his prefix behind it.  Alice wins those on toss n, so they walk
    the longest traces of the set, up to 63 tosses."""
    for n in range(1, 8):
        for alice in all_strings(n):
            for bob in all_strings(n):
                if alice != bob:
                    yield alice, bob
    rng = random.Random(63)
    for n in range(8, MAX_LENGTH + 1):
        for _ in range(6):
            bob = TossString(n, rng.randrange(1 << n))
            flipped = bob.complement().bits >> (n - 1) << (n - 1)
            yield TossString(n, flipped | bob.bits >> 1), bob
            alice = TossString(n, rng.randrange(1 << n))
            if alice != bob:
                yield alice, bob


class TestOutcome:
    def test_describe(self):
        assert Outcome.alice_wins(4).describe() == "AliceWins at toss 4"
        assert Outcome.bob_wins(8).describe() == "BobWins at toss 8"
        assert Outcome.infinite(1, 2).describe() == "Infinite (entry 1, period 2)"

    def test_winner(self):
        assert Outcome.alice_wins(1).winner is A
        assert Outcome.bob_wins(2).winner is B
        assert Outcome.infinite(0, 4).winner is None

    def test_finite_toss_bound(self):
        assert finite_toss_bound(1) == 1
        assert [finite_toss_bound(n) for n in range(2, 9)] == [4, 8, 12, 16, 20, 24, 28]
        with pytest.raises(ValueError):
            finite_toss_bound(0)
