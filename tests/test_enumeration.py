import concurrent.futures
import functools
import random
from itertools import permutations
from pathlib import Path

import pytest

from noflip import enumeration, forcing
from noflip import (
    ForceGoal,
    ForceResult,
    ForceStatus,
    GameTrace,
    Outcome,
    OutcomeKind,
    Player,
    TossString,
    finite_toss_bound,
    play,
)
from noflip.analysis import Prediction
from noflip.engine import (
    MAX_LENGTH,
    _ALICE_WIN,
    _KINDS,
    _NO_WIN,
    _playout_code,
    _tables_for,
    _trie_walk,
    scan_progress,
)
from noflip.enumeration import (
    DEFAULT_SWEEP_CAP,
    OutcomeCensus,
    VERIFY_SUITES,
    _reached,
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
    6: (4032, 756, 916, 2360),
    7: (16256, 2932, 2636, 10688),
    8: (65280, 7774, 8942, 48564),
}

LONGEST_TABLE = {1: 1, 2: 3, 3: 4, 4: 8, 5: 9, 6: 13, 7: 18, 8: 22}


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

    def test_cap_message_names_the_remedy_of_each_audience(self, monkeypatch):
        # The library takes its cap as an argument and never reads the
        # variable, which only the noflip command honours.
        n = DEFAULT_SWEEP_CAP + 1
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", str(n))
        with pytest.raises(ValueError, match="sweep cap") as excinfo:
            census(n)
        assert f"cap={n}" in str(excinfo.value)
        assert f"NOFLIP_SWEEP_CAP={n}" in str(excinfo.value)

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
            def __init__(self, max_workers, **options):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, item):
                future = concurrent.futures.Future()
                future.set_result(fn(item))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 2)
        assert census(4, workers=50) == census(4)
        assert opened == [2]
        # With one CPU every sweep runs inline, however many workers it asks for.
        monkeypatch.setattr(enumeration.os, "cpu_count", lambda: 1)
        assert census(4, workers=50) == census(4)
        assert no_loss_strings(4, workers=50) == [ts("HHTT")]
        assert opened == [2]


@functools.lru_cache(maxsize=None)
def sweep_by_pairs(n):
    """The sweep as a plain loop over every ordered pair, each classified
    by the toss-cutoff oracle: counts, longest finite game, witnesses."""
    counts = [0, 0, 0]
    best, witnesses = 0, []
    for ai in range(1 << n):
        for bi in range(1 << n):
            if ai == bi:
                continue
            result, tosses = _playout_code(n, ai, bi)
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
    12: (
        (639646, 704842, 15428632),
        34,
        [
            ("HHHHTTHHHTTT", "THHHTHHHHTTT"),
            ("HHHTHHHHTTTT", "THHHHTTHHHTT"),
            ("HHTHTTHTHTTT", "THTHTHHTHTTT"),
            ("HHTTHHTTHTTT", "THTHHTTHHTTT"),
            ("HHTTHTHTHTTT", "THTHTHTHHTTT"),
            ("HTHHHTHHHHHT", "THHHHTHHHTTT"),
            ("HTHTHHTHTTTT", "THHTHTTHTHTT"),
            ("HTHTHTHHTTTT", "THHTTHTHTHTT"),
            ("HTTTTHTTTHHT", "THTTTHTTTTTT"),
            ("THHHHTHHHTTH", "HTHHHTHHHHHH"),
            ("THTHTHTTHHHH", "HTTHHTHTHTHH"),
            ("THTHTTHTHHHH", "HTTHTHHTHTHH"),
            ("THTTTHTTTTTH", "HTTTTHTTTHHH"),
            ("TTHHTHTHTHHH", "HTHTHTHTTHHH"),
            ("TTHHTTHHTHHH", "HTHTTHHTTHHH"),
            ("TTHTHHTHTHHH", "HTHTHTTHTHHH"),
            ("TTTHTTTTHHHH", "HTTTTHHTTTHH"),
            ("TTTTHHTTTHHH", "HTTTHTTTTHHH"),
        ],
    ),
}


class TestSweepKernel:
    """The two-sided walk against a per-pair loop over the cutoff oracle."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_the_per_pair_oracle(self, n, workers):
        counts, best, witnesses = _sweep(n, DEFAULT_SWEEP_CAP, workers)
        assert (counts, best, witnesses) == sweep_by_pairs(n)

    @pytest.mark.parametrize("n", sorted(LONGER_ROWS))
    def test_longer_rows(self, n):
        # The n = 12 row also runs the process pool with seconds per worker.
        counts, best, witnesses = _sweep(n, DEFAULT_SWEEP_CAP, 2 if n == 12 else 1)
        pairs = [(TossString(n, a).text, TossString(n, b).text) for a, b in witnesses]
        assert (tuple(counts), best, pairs) == LONGER_ROWS[n]

    def test_sweeps_leave_the_table_cache_alone(self):
        # The walk seeds and pushes both players' rows uncached, so a sweep
        # neither grows the cache nor pushes out the tables play reads.
        _tables_for.cache_clear()
        census(6, workers=1)
        longest_finite(6, workers=1)
        no_loss_strings(6, workers=1)
        assert _tables_for.cache_info().currsize == 0

    @pytest.mark.parametrize("n", range(1, 8))
    def test_alice_searching_matches_the_per_pair_oracle(self, n):
        # The forcing search walks with the opponent's whole string pushed;
        # hold Alice's side of that walk to the cutoff oracle.
        for bob in range(1 << n):
            settled = walk_against(n, bob, Player.ALICE)
            for a, (result, tosses) in settled.items():
                assert_settled_like_the_oracle(n, a, bob, result, tosses)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_bob_searching_matches_the_per_pair_oracle(self, n):
        for alice in range(1 << n):
            settled = walk_against(n, alice, Player.BOB)
            for b, (result, tosses) in settled.items():
                assert_settled_like_the_oracle(n, alice, b, result, tosses)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_the_split_depth_does_not_show_in_the_output(self, n):
        # These lengths are at most the letters each chunk fixes in advance.
        want = _sweep(n, DEFAULT_SWEEP_CAP, 1)
        for workers in (2, 3):
            assert _sweep(n, DEFAULT_SWEEP_CAP, workers) == want


def walk_against(n, opponent, searcher):
    """{code: (result, tosses)} over every string of the searcher but the
    opponent's own, each settled by exactly one branch end of the walk
    against the opponent's whole string; no branch end holds a string
    against itself."""
    settled = {}
    fixed = (opponent, n)

    def leaf(a_code, a_len, b_code, b_len, result, tosses):
        assert not (a_len == b_len == n and a_code == b_code)
        if searcher is Player.ALICE:
            assert (b_code, b_len) == fixed
            code, shift = a_code, n - a_len
        else:
            assert (a_code, a_len) == fixed
            code, shift = b_code, n - b_len
        for own in range(code << shift, (code + 1) << shift):
            assert own not in settled
            settled[own] = result, tosses

    # A leaf that returns nothing settles nothing: the mask is empty.
    if searcher is Player.ALICE:
        assert _trie_walk(n, (0, 0), fixed, leaf) == 0
    else:
        assert _trie_walk(n, fixed, (0, 0), leaf) == 0
    assert sorted(settled) == [code for code in range(1 << n) if code != opponent]
    return settled


def assert_settled_like_the_oracle(n, a, b, result, tosses):
    want, played = _playout_code(n, a, b)
    assert result == want, (n, a, b)
    if result != _NO_WIN:
        assert tosses == played, (n, a, b)


@functools.lru_cache(maxsize=None)
def reached_by_pairs(n, owner, result):
    """Mask over the strings of seat ``owner`` (0 Alice, 1 Bob): bit s is
    set when some other string, in the other seat, reaches ``result``
    against s by the toss-cutoff oracle."""
    mask = 0
    for a in range(1 << n):
        for b in range(1 << n):
            if a != b and _playout_code(n, a, b)[0] == result:
                mask |= 1 << (b if owner else a)
    return mask


def settles_on(result):
    """A walk leaf that settles exactly the branch ends ending in ``result``."""
    return lambda a_code, a_len, b_code, b_len, got, tosses: got == result


class TestWalkMask:
    """``_trie_walk`` returns the set of the owner seat's strings that some
    branch end settled, as a mask in H < T order."""

    @pytest.mark.parametrize("result", range(3))
    @pytest.mark.parametrize("owner", (0, 1))
    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_the_per_pair_oracle(self, n, owner, result):
        want = reached_by_pairs(n, owner, result)
        assert _trie_walk(n, (0, 0), (0, 0), settles_on(result), owner) == want
        # The chunked mask: Alice-owned chunk masks land on their prefix's
        # block, Bob-owned ones overlap, and the complement fold adds the
        # T-first Alice strings.
        for workers in (1, 2) if n <= 5 else (1,):
            assert _reached(n, owner, result, workers) == want, workers

    @pytest.mark.parametrize("result", range(3))
    @pytest.mark.parametrize("owner", (0, 1))
    def test_an_owner_prefix_gets_its_slice(self, owner, result):
        # Starting from a known owner prefix gives that prefix's block of
        # the whole mask, the other seat's strings all still in play.
        n = 6
        whole = reached_by_pairs(n, owner, result)
        for length in range(1, 4):
            width = 1 << (n - length)
            for code in range(1 << length):
                seats = [(code, length), (0, 0)]
                if owner:
                    seats.reverse()
                got = _trie_walk(n, *seats, settles_on(result), owner)
                assert got == whole >> (code * width) & ((1 << width) - 1)

    @pytest.mark.parametrize("owner", (0, 1))
    def test_one_owner_string_stops_at_the_first_settling_end(self, owner):
        # The forcing search's shape: the owner's whole string is known, so
        # the first truthy leaf fills the one-bit mask and ends the walk.
        n = 8
        calls = []

        def leaf(*end):
            calls.append(end)
            return True

        seats = [(0b11010010, n), (0, 0)]
        if owner:
            seats.reverse()
        assert _trie_walk(n, *seats, leaf, owner) == 1
        assert len(calls) == 1


def branch_ends(n, alice, bob):
    """How many branch ends the walk makes over the pairs extending the
    prefixes ``alice`` and ``bob``."""
    ends = []
    _trie_walk(n, alice, bob, lambda *end: ends.append(end))
    return len(ends)


def oracle_blocks(n, free, seed=0, tries=4):
    """Seeded blocks of pairs of length n, each an (alice, bob) pair of
    prefixes, picked for their branch ends: of ``tries`` candidates of a
    kind, the one whose walk makes the most.  Up to n = 12 Bob's string is
    free and so are Alice's last ``free`` letters.  Past it both players
    leave ``free`` letters, after one shared prefix or with Bob's prefix
    Alice's moved on by one letter.  Those keep both players' progress
    climbing, so the walk reads the free letters; random prefixes this
    long mostly end in a repeat before it."""
    rng = random.Random(n << 16 | free << 8 | seed)
    fixed = n - free
    codes = [rng.getrandbits(fixed) for _ in range(2 * tries)]

    def best(candidates):
        return max(candidates, key=lambda seats: branch_ends(n, *seats))

    if n <= 12:
        return [best([((a, fixed), (0, 0)) for a in codes[:tries]])]
    shared = [((a, fixed), (a, fixed)) for a in codes[:tries]]
    mask = (1 << fixed) - 1
    moved = [
        ((a, fixed), ((a << 1 | rng.getrandbits(1)) & mask, fixed))
        for a in codes[tries:]
    ]
    return [best(shared), best(moved)]


def assert_block_like_the_oracle(n, alice, bob):
    """Expand every branch end of the walk over the pairs extending the
    prefixes ``alice`` and ``bob`` into its pairs: each pair off the
    diagonal is settled exactly once, no branch end holds a string
    against itself, and each pair's result, and a win's toss count, is the
    cutoff oracle's.  Then hold the owner masks, for both seats and all
    three results, to the same pairs.  Return the branch ends."""
    (pa, la), (pb, lb) = alice, bob
    results = {}
    ends = 0

    def leaf(a_code, a_len, b_code, b_len, result, tosses):
        nonlocal ends
        ends += 1
        assert a_code >> (a_len - la) == pa and b_code >> (b_len - lb) == pb
        m = min(a_len, b_len)
        assert a_code >> (a_len - m) != b_code >> (b_len - m), "a string against itself"
        sa, sb = n - a_len, n - b_len
        for a in range(a_code << sa, (a_code + 1) << sa):
            for b in range(b_code << sb, (b_code + 1) << sb):
                assert (a, b) not in results, (n, a, b)
                want, played = _playout_code(n, a, b)
                assert result == want, (n, a, b)
                assert result == _NO_WIN or tosses == played, (n, a, b)
                results[a, b] = result

    assert _trie_walk(n, alice, bob, leaf) == 0
    m = min(la, lb)
    diagonal = 1 << (n - max(la, lb)) if pa >> (la - m) == pb >> (lb - m) else 0
    assert len(results) == (1 << (2 * n - la - lb)) - diagonal
    for owner, (prefix, length) in enumerate((alice, bob)):
        base = prefix << (n - length)
        want = [0, 0, 0]
        for pair, result in results.items():
            want[result] |= 1 << (pair[owner] - base)
        for result, mask in enumerate(want):
            assert _trie_walk(n, alice, bob, settles_on(result), owner) == mask
    return ends


class TestWalkPastTheExhaustiveLengths:
    """Past n = 9 only the walk counts every pair.  Hold it to the per-pair
    cutoff oracle on seeded blocks that branch, at every length to 63."""

    @pytest.mark.parametrize("n", range(10, MAX_LENGTH + 1))
    def test_blocks_match_the_per_pair_oracle(self, n):
        for alice, bob in oracle_blocks(n, 4):
            assert assert_block_like_the_oracle(n, alice, bob) > 1


# (role, goal) -> how many opponents the forcing operations call IMPOSSIBLE.
IMPOSSIBLE_COUNTS = {
    5: {(Player.ALICE, ForceGoal.LOSS): 2, (Player.ALICE, ForceGoal.INFINITE_GAME): 2},
    8: {(Player.BOB, ForceGoal.LOSS): 20},
}


@pytest.mark.parametrize("n", range(1, 9))
def test_impossible_answers_meet_the_per_pair_oracle(n):
    # The forcing suite checks IMPOSSIBLE answers against the walk's
    # existence masks; here each one meets the per-pair replay instead.
    impossible = {}
    for code in range(1 << n):
        for key, op in forcing._FORCERS.items():
            if op(TossString(n, code)).status is ForceStatus.IMPOSSIBLE:
                impossible.setdefault(key, []).append(code)
    for (role, goal), codes in impossible.items():
        owner = int(role is Player.ALICE)  # the opponent's seat
        result = _KINDS.index(forcing._GOAL_KINDS[role, goal])
        reached = reached_by_pairs(n, owner, result)
        assert [c for c in codes if reached >> c & 1] == [], (role, goal)
    if n in IMPOSSIBLE_COUNTS:
        counts = {key: len(codes) for key, codes in impossible.items()}
        assert counts == IMPOSSIBLE_COUNTS[n]


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_length_table():
    """{n: ((alice, bob, infinite), longest, witness count, bound)} read
    from the table in README's "Outcomes by length" section."""
    section = README.read_text().split("## Outcomes by length", 1)[1]
    rows = {}
    for line in section.split("\n\n| n ", 1)[1].splitlines()[2:]:
        if not line.startswith("|"):
            break
        n, alice, bob, infinite, longest, witnesses, bound = (
            int(cell) for cell in line.strip("|").split("|")
        )
        rows[n] = ((alice, bob, infinite), longest, witnesses, bound)
    return rows


def test_readme_length_table_matches_the_sweeps():
    rows = readme_length_table()
    assert sorted(rows) == list(range(1, 17))
    for n, (counts, longest, witnesses, bound) in rows.items():
        assert bound == finite_toss_bound(n)
        if n >= 12:
            assert longest == 4 * n - 14  # README's named observation
        if n > 12:
            continue  # CI's console-script step sweeps these rows
        if n <= 8:
            c, stats = census(n), longest_finite(n)
            assert counts == (c.alice_wins, c.bob_wins, c.infinite)
            assert (longest, witnesses) == (
                stats.max_finite_tosses,
                len(stats.argmax_pairs),
            )
        else:
            want_counts, want_longest, want_pairs = LONGER_ROWS[n]
            assert (counts, longest, witnesses) == (
                want_counts,
                want_longest,
                len(want_pairs),
            )


def readme_no_loss_counts():
    """{n: count} read from the no-loss table in README: its header row of
    lengths sits two lines above the row of counts."""
    lines = README.read_text().splitlines()
    i = next(
        i for i, line in enumerate(lines) if line.startswith("| no-loss strings |")
    )
    lengths, counts = (
        [int(cell) for cell in lines[j].strip("|").split("|")[1:]] for j in (i - 2, i)
    )
    return dict(zip(lengths, counts))


def test_readme_no_loss_table_matches_the_sweep():
    counts = readme_no_loss_counts()
    assert sorted(counts) == list(range(2, 17, 2))
    # n = 16 is past the default sweep cap; CI's console-script step
    # checks its row and n = 14's again, on two workers.
    for n in range(2, 15, 2):
        assert len(no_loss_strings(n)) == counts[n], n


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

    @pytest.mark.parametrize("n", range(1, 14, 2))
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

    # Below n = 4 there are fewer split letters, so fewer chunks than workers.
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_parallel_matches_sequential(self, n, workers):
        expected = [
            TossString(n, code)
            for code in range(1, 1 << (n - 1))
            if forcing._first_loss(Player.BOB, n, code) is None
        ]
        assert no_loss_strings(n, workers=workers) == expected

    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_the_forcing_search(self, n):
        # A no-loss string is one against which Bob cannot force a loss:
        # the prefix search must agree with the cutoff oracle, which plays
        # every pair to the toss bound.
        reached = reached_by_pairs(n, 0, _ALICE_WIN)
        expected = [
            TossString(n, code)
            for code in range(1, 1 << (n - 1))
            if not reached >> code & 1
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


class TestVerifyViolations:
    """Each suite reports an injected fault with its exact text and label.

    The faults go in at length two, whose playouts are: HH/TH BobWins at
    toss 3 with states (0,0,A,0) (1,0,B,1) (0,1,A,2) (1,2,B,3); HH/TT
    Infinite (entry 1, period 2); HT/TH AliceWins at toss 2, where no
    prediction fires.  The counting bound is 4.
    """

    @staticmethod
    def patch_play(monkeypatch, target, fake):
        """Route the playout of the pair ``target`` through ``fake``."""
        real = enumeration.play

        def play_with_fault(alice, bob):
            outcome, trace = real(alice, bob)
            if (alice.text, bob.text) == target:
                return fake(outcome, trace)
            return outcome, trace

        monkeypatch.setattr(enumeration, "play", play_with_fault)

    @staticmethod
    def with_progress(trace, k, a, b):
        """The trace with the progress pair after toss k set to (a, b)."""
        progress = bytearray(trace.progress)
        progress[2 * k : 2 * k + 2] = a, b
        return GameTrace(trace.codes, bytes(progress))

    def test_swapped_winner(self, monkeypatch):
        self.patch_play(
            monkeypatch, ("HH", "TH"), lambda o, t: (Outcome.alice_wins(o.tosses), t)
        )
        assert verify_suite(2, "bound").violations == (
            "HH/TH: classifiers disagree (repeat vs cutoff)",
        )

    def test_repeat_past_the_bound(self, monkeypatch):
        self.patch_play(monkeypatch, ("HH", "TT"), lambda o, t: (Outcome.infinite(3, 2), t))
        assert verify_suite(2, "bound").violations == (
            "HH/TT: repeat found after the counting bound",
        )

    def test_win_past_the_bound(self, monkeypatch):
        self.patch_play(monkeypatch, ("HH", "TH"), lambda o, t: (Outcome.bob_wins(5), t))
        assert verify_suite(2, "bound").violations == (
            "HH/TH: classifiers disagree (repeat vs cutoff)",
            "HH/TH: finite game beyond the counting bound",
        )

    def test_forbidden_state(self, monkeypatch):
        # Alice's first toss always matches her own first letter.
        self.patch_play(
            monkeypatch, ("HH", "TH"), lambda o, t: (o, self.with_progress(t, 1, 0, 0))
        )
        assert verify_suite(2, "bound").violations == (
            "HH/TH: mover progress changed by 0",
            "HH/TH: forbidden state (0, 0, 'B')",
            "HH/TH: automaton disagrees with scan oracle",
        )

    def test_wrong_progress_value(self, monkeypatch):
        # Alice's progress after toss 3 is really 1.
        self.patch_play(
            monkeypatch, ("HH", "TH"), lambda o, t: (o, self.with_progress(t, 3, 2, 2))
        )
        assert verify_suite(2, "bound").violations == (
            "HH/TH: mover progress changed by 2",
            "HH/TH: automaton disagrees with scan oracle",
        )

    def test_outcome_breaks_complement_symmetry(self, monkeypatch):
        self.patch_play(monkeypatch, ("TT", "HT"), lambda o, t: (Outcome.bob_wins(2), t))
        # TT/HT is the complement of HH/TH, so both pairs see the fault.
        assert verify_suite(2, "symmetry").violations == (
            "HH/TH: outcome changes under complementation",
            "TT/HT: outcome changes under complementation",
        )

    def test_trace_breaks_complement_symmetry(self, monkeypatch):
        codes = b"\x01\x01\x01"  # T, T, T
        self.patch_play(
            monkeypatch, ("TT", "HT"), lambda o, t: (o, GameTrace(codes, t.progress))
        )
        assert verify_suite(2, "symmetry").violations == (
            "HH/TH: trace does not mirror under complementation",
            "TT/HT: trace does not mirror under complementation",
        )

    @pytest.mark.parametrize(
        "fired,violations",
        [
            (
                [Prediction("fake-rule", OutcomeKind.BOB_WINS, 2)],
                ("HT/TH: fake-rule predicted bob_wins",),
            ),
            (
                [Prediction("fake-rule", OutcomeKind.ALICE_WINS, 3)],
                ("HT/TH: fake-rule predicted toss 3, got 2",),
            ),
            (
                [
                    Prediction("rule-a", OutcomeKind.ALICE_WINS, 2),
                    Prediction("rule-b", OutcomeKind.INFINITE),
                ],
                (
                    "HT/TH: predictions disagree with each other",
                    "HT/TH: rule-b predicted infinite",
                ),
            ),
        ],
        ids=["wrong-kind", "wrong-toss", "disagreeing-kinds"],
    )
    def test_wrong_predictions(self, monkeypatch, fired, violations):
        real = enumeration.all_predictions

        def predictions(alice, bob):
            return fired if (alice.text, bob.text) == ("HT", "TH") else real(alice, bob)

        monkeypatch.setattr(enumeration, "all_predictions", predictions)
        assert verify_suite(2, "predicates").violations == violations

    OPPONENTS = ("HH", "HT", "TH", "TT")

    def test_operation_that_raises(self, monkeypatch):
        def exploding(opponent):
            raise ValueError("boom")

        monkeypatch.setitem(forcing._FORCERS, (Player.BOB, ForceGoal.WIN), exploding)
        assert verify_suite(2, "forcing").violations == tuple(
            f"exploding({o}): raised ValueError('boom')" for o in self.OPPONENTS
        )

    def test_unknown_answer(self, monkeypatch):
        def gives_up(opponent):
            return ForceResult(ForceStatus.UNKNOWN, "exhaustive-search")

        monkeypatch.setitem(forcing._FORCERS, (Player.ALICE, ForceGoal.LOSS), gives_up)
        assert verify_suite(2, "forcing").violations == tuple(
            f"gives_up({o}): unknown below the search cap" for o in self.OPPONENTS
        )

    def test_found_answer_with_the_wrong_outcome(self, monkeypatch):
        def wrong(opponent):
            return ForceResult(ForceStatus.FOUND, "x", opponent, Outcome.bob_wins(2))

        key = (Player.ALICE, ForceGoal.INFINITE_GAME)
        monkeypatch.setitem(forcing._FORCERS, key, wrong)
        assert verify_suite(2, "forcing").violations == tuple(
            f"wrong({o}): outcome bob_wins" for o in self.OPPONENTS
        )

    # Alice's forced win must land by toss n, Bob's by toss n + 1.
    @pytest.mark.parametrize(
        "role,outcome,late",
        [
            (Player.ALICE, Outcome.alice_wins(3), True),
            (Player.BOB, Outcome.bob_wins(3), False),
            (Player.BOB, Outcome.bob_wins(4), True),
        ],
        ids=["alice-at-n+1", "bob-at-n+1", "bob-at-n+2"],
    )
    def test_found_win_that_lands_too_late(self, monkeypatch, role, outcome, late):
        def slow(opponent):
            return ForceResult(ForceStatus.FOUND, "x", opponent, outcome)

        monkeypatch.setitem(forcing._FORCERS, (role, ForceGoal.WIN), slow)
        expected = [f"slow({o}): win too late ({outcome.tosses})" for o in self.OPPONENTS]
        assert verify_suite(2, "forcing").violations == (tuple(expected) if late else ())

    def test_impossible_answer_where_a_forcer_exists(self, monkeypatch):
        def refuses(opponent):
            return ForceResult(ForceStatus.IMPOSSIBLE, "x")

        monkeypatch.setitem(forcing._FORCERS, (Player.BOB, ForceGoal.WIN), refuses)
        assert verify_suite(2, "forcing").violations == tuple(
            f"refuses({o}): impossible but a forcer exists" for o in self.OPPONENTS
        )
        # A single-letter Alice always wins, so there it is the right answer.
        assert verify_suite(1, "forcing").violations == ()


# The bound and symmetry checks pair by pair, sharing no work: every pair
# played on its own, its mirror built by complement(), every scan asked
# afresh, the mover read from GameState.turn.  The suites share work
# across pairs and must still report exactly what these report.

_PER_PAIR_FORBIDDEN = {
    (0, 0, Player.BOB),
    (0, 1, Player.BOB),
    (1, 0, Player.ALICE),
}


def bound_per_pair(alice, bob):
    n = alice.length
    bound = finite_toss_bound(n)
    outcome, trace = enumeration.play(alice, bob)
    result, tosses = _playout_code(n, alice.bits, bob.bits)
    if _KINDS[result] is not outcome.kind or (
        not outcome.is_infinite and tosses != outcome.tosses
    ):
        yield "classifiers disagree (repeat vs cutoff)"
    if outcome.is_infinite:
        if outcome.entry + outcome.period > bound:
            yield "repeat found after the counting bound"
    elif outcome.tosses > bound:
        yield "finite game beyond the counting bound"
    for before, after in zip(trace.states, trace.states[1:]):
        moved = after.a - before.a if before.turn is Player.ALICE else after.b - before.b
        if moved != 1:
            yield f"mover progress changed by {moved}"
    for s in trace.states:
        if (s.a, s.b, s.turn) in _PER_PAIR_FORBIDDEN:
            yield f"forbidden state {(s.a, s.b, s.turn.value)}"
    if n <= 6:
        text, a_text, b_text = trace.text, alice.text, bob.text
        for s in trace.states:
            output = text[: s.k]
            if s.a != scan_progress(a_text, output) or s.b != scan_progress(
                b_text, output
            ):
                yield "automaton disagrees with scan oracle"


def symmetry_per_pair(alice, bob):
    outcome, trace = enumeration.play(alice, bob)
    mirrored, mirrored_trace = enumeration.play(alice.complement(), bob.complement())
    if mirrored != outcome:
        yield "outcome changes under complementation"
    if mirrored_trace.text != trace.text.translate(str.maketrans("HT", "TH")):
        yield "trace does not mirror under complementation"


PER_PAIR = {"bound": bound_per_pair, "symmetry": symmetry_per_pair}


def per_pair_report(n, suite):
    strings = [TossString(n, code) for code in range(1 << n)]
    violations = tuple(
        f"{alice.text}/{bob.text}: {reason}"
        for alice, bob in permutations(strings, 2)
        for reason in PER_PAIR[suite](alice, bob)
    )
    return len(strings) * (len(strings) - 1), violations


def wrong_outcome(outcome, trace):
    return Outcome.infinite(9, 2), trace  # past the bound of 8 at length three


def wrong_trace(outcome, trace):
    # Every toss a T and every progress value 0.
    codes = b"\x01" * len(trace.codes)
    return outcome, GameTrace(codes, bytes(len(trace.progress)))


def wrong_both(outcome, trace):
    return wrong_trace(*wrong_outcome(outcome, trace))


class TestVerifyAgainstPerPairChecks:
    @pytest.mark.parametrize("suite", PER_PAIR)
    @pytest.mark.parametrize("n", range(1, 6))
    def test_clean_lengths(self, suite, n):
        report = verify_suite(n, suite)
        assert (report.checks, report.violations) == per_pair_report(n, suite)

    @pytest.mark.parametrize("suite", PER_PAIR)
    @pytest.mark.parametrize(
        "faults",
        [
            {("HTH", "THH"): wrong_outcome},
            {("TTH", "HHT"): wrong_trace},
            # Played from the H-first side, these two pairs' violations come
            # out of the class loop as HHT/HTT, TTH/THH, HTH/HHT, THT/TTH.
            {("HHT", "HTT"): wrong_both, ("THT", "TTH"): wrong_trace},
        ],
        ids=["h-first", "t-first", "two-pairs"],
    )
    def test_injected_faults(self, monkeypatch, suite, faults):
        real = enumeration.play

        def play_with_faults(alice, bob):
            outcome, trace = real(alice, bob)
            fault = faults.get((alice.text, bob.text))
            return fault(outcome, trace) if fault else (outcome, trace)

        monkeypatch.setattr(enumeration, "play", play_with_faults)
        report = verify_suite(3, suite)
        assert report.violations
        assert (report.checks, report.violations) == per_pair_report(3, suite)


class TestVerifyWorkCounts:
    """The shared work is counted, so that losing it fails a test."""

    def test_symmetry_plays_each_ordered_pair_once(self, monkeypatch):
        played = []
        real = enumeration.play

        def counted(alice, bob):
            played.append((alice.bits, bob.bits))
            return real(alice, bob)

        monkeypatch.setattr(enumeration, "play", counted)
        assert verify_suite(4, "symmetry").ok
        assert len(played) == 240  # half of two plays per ordered pair
        assert sorted(played) == [(a, b) for a, b in permutations(range(16), 2)]

    def test_bound_scans_each_prefix_once_per_call(self, monkeypatch):
        scanned = []

        def counted(pattern, output):
            scanned.append((pattern, output))
            return scan_progress(pattern, output)

        monkeypatch.setattr(enumeration, "scan_progress", counted)
        strings = [TossString(4, code) for code in range(16)]
        distinct = set()
        for alice, bob in permutations(strings, 2):
            trace = play(alice, bob)[1]
            for s in trace.states:
                output = trace.text[: s.k]
                distinct |= {(alice.text, output), (bob.text, output)}
        assert verify_suite(4, "bound").ok
        assert sorted(scanned) == sorted(distinct)
        # Nothing outlives the call: a second run scans everything again.
        assert verify_suite(4, "bound").ok
        assert len(scanned) == 2 * len(distinct)
