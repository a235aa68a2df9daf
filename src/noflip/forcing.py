"""Constructions that force a chosen result against a known opponent.

Each operation receives the opponent's committed string and builds the
caller's own string so that the deterministic playout ends the way the
caller wants: a win, a loss, or an infinite game.  The first shape rule
whose hypothesis holds proposes one string; a loss that fits no rule goes
to a prefix search (:func:`_first_loss`) on the engine's prefix walk
(:func:`~noflip.engine._trie_walk`), which the sweeps share, with the
opponent's whole string known.  The walk reads the caller's string one
letter at a time, H before T, only when the game needs it, so one branch
settles every string that shares its prefix.  The opponent's seat owns
the walk's settled set, a single string, so the walk stops at the first
branch end the caller loses, and the search returns the string a scan of
all candidates in H < T order finds first.

That one string, rule or search answer, is a code in the frame where
the opponent starts with H (:func:`_frame`).  :func:`_finish` maps it
back and plays it against the real opponent, so a construction bug is a
hard failure rather than a wrong answer, and forcing against the
complemented opponent returns the complemented string with the same
method label.  A rule shifts the opponent's code (first toss in the
highest bit, T = 1) to copy its letters later or drop its first ones,
and reads shapes from the opponent as given, since complementing a
string does not change them; no text is rendered or parsed.

Impossible answers are exact.  Shape rules prove the small exception
lists (short alternating opponents for infinite games, constant
opponents of the wrong parity for forced losses); the search proves
impossibility by settling every branch without a loss.  Opponents
longer than the search cap that fall off every shape rule come back as
``UNKNOWN`` rather than a guess.
"""

from __future__ import annotations

from enum import Enum

from .engine import (
    Outcome,
    OutcomeKind,
    Player,
    TossString,
    _Record,
    _set,
    _trie_walk,
    play,
)

DEFAULT_SEARCH_CAP = 24


class ForceGoal(Enum):
    WIN = "win"
    LOSS = "loss"
    INFINITE_GAME = "infinite"


class ForceStatus(Enum):
    FOUND = "found"
    IMPOSSIBLE = "impossible"
    UNKNOWN = "unknown"


class ForceResult(_Record):
    """Outcome of a forcing construction.

    ``constructed`` and ``verified_outcome`` are populated only for
    FOUND results; the outcome is the playout of the returned string
    against the given opponent.  ``method`` names the construction
    rule that produced the answer (or ``exhaustive-search``).
    """

    __slots__ = ("status", "method", "constructed", "verified_outcome")
    status: ForceStatus
    method: str
    constructed: TossString | None
    verified_outcome: Outcome | None

    def __init__(
        self,
        status: ForceStatus,
        method: str,
        constructed: TossString | None = None,
        verified_outcome: Outcome | None = None,
    ) -> None:
        _set(self, "status", status)
        _set(self, "method", method)
        _set(self, "constructed", constructed)
        _set(self, "verified_outcome", verified_outcome)


_GOAL_KINDS = {
    (Player.ALICE, ForceGoal.WIN): OutcomeKind.ALICE_WINS,
    (Player.ALICE, ForceGoal.LOSS): OutcomeKind.BOB_WINS,
    (Player.ALICE, ForceGoal.INFINITE_GAME): OutcomeKind.INFINITE,
    (Player.BOB, ForceGoal.WIN): OutcomeKind.BOB_WINS,
    (Player.BOB, ForceGoal.LOSS): OutcomeKind.ALICE_WINS,
    (Player.BOB, ForceGoal.INFINITE_GAME): OutcomeKind.INFINITE,
}


def _frame(opponent: TossString) -> int:
    """The mask whose XOR maps codes of the opponent's length between the
    opponent's frame and the one where it starts with H: all ones when it
    starts with T, else 0."""
    n = opponent.length
    return (1 << n) - 1 if opponent.bits >> (n - 1) else 0


def _finish(
    role: Player,
    goal: ForceGoal,
    opponent: TossString,
    rule: tuple[int, str] | None,
    cap: int = DEFAULT_SEARCH_CAP,
) -> ForceResult:
    """Play one string against the opponent: the applying rule's, a (code,
    method) pair in the H-first frame, which is final, or, where a loss
    operation passes ``rule=None``, the prefix search's code within the
    cap.  A string whose playout misses the goal is a bug and raises."""
    n = opponent.length
    flip = _frame(opponent)
    if rule is not None:
        code, method = rule
    elif n > cap:
        return ForceResult(ForceStatus.UNKNOWN, "exhaustive-search")
    else:
        code, method = _first_loss(role, n, opponent.bits ^ flip), "exhaustive-search"
        if code is None:
            return ForceResult(ForceStatus.IMPOSSIBLE, method)
    code ^= flip  # in the opponent's frame
    if code != opponent.bits:
        own = TossString(n, code)
        alice, bob = (own, opponent) if role is Player.ALICE else (opponent, own)
        outcome = play(alice, bob)[0]
        if outcome.kind is _GOAL_KINDS[role, goal]:
            return ForceResult(ForceStatus.FOUND, method, own, outcome)
    raise RuntimeError(
        f"verified construction for {role.value}/{goal.value} against "
        f"{opponent.text} fails its playout; this is a bug"
    )


def _first_loss(role: Player, n: int, opponent_code: int) -> int | None:
    """The first code, in H < T order, of a string of length n with which
    ``role`` loses to the opponent string ``opponent_code``; None if no
    string does.  :func:`~noflip.engine._trie_walk` runs with the
    opponent's seat as the owner and its whole string as the owner's
    prefix, so the one owner string is settled, and the walk stops, at the
    first branch end the opponent wins, which holds the answer as its
    prefix padded with H.  The walk never reaches the opponent's own
    string, so one leaf serves both seats."""
    opponent = int(role is Player.ALICE)  # a win's result is the winner's seat
    found = []

    def loses(a_code, a_len, b_code, b_len, result, tosses):
        if result != opponent:
            return False
        code, length = (a_code, a_len) if role is Player.ALICE else (b_code, b_len)
        found.append(code << (n - length))  # the all-H code 0 is falsy
        return True

    _trie_walk(n, (opponent_code, n), (0, 0), loses, owner=opponent)
    return found[0] if found else None


# ---------------------------------------------------------------------------
# forcing a win


def bob_force_win(alice: TossString) -> ForceResult:
    """Bob picks a string that beats the given Alice string.

    Impossible only for single-toss games (Alice always wins those).
    Alternating opponents fall to doubling their first letter and then
    copying; any other opponent is beaten by flipping the letter whose
    doubling breaks their alternation and copying their prefix behind
    it.  Bob's win lands on toss n or n+1.
    """
    n = alice.length
    if n == 1:
        return ForceResult(ForceStatus.IMPOSSIBLE, "single-letter-alice-always-wins")
    a = alice.bits ^ _frame(alice)
    k = alice.first_double()
    if k is None:  # H, then Alice's first n-1 letters, which open with H
        rule = (a >> 1, "double-first-letter")
    else:
        flipped = (~a >> (n - k) & 1) << (n - 1)  # the opposite of letter k
        rule = (flipped | a >> 1, "flip-before-first-double")
    return _finish(Player.BOB, ForceGoal.WIN, alice, rule)


def alice_force_win(bob: TossString) -> ForceResult:
    """Alice picks a string that beats the given Bob string: flip his
    first letter and copy his prefix behind it.  She wins on toss n."""
    n = bob.length
    rule = (1 << (n - 1) | (bob.bits ^ _frame(bob)) >> 1, "flip-first-letter")
    return _finish(Player.ALICE, ForceGoal.WIN, bob, rule)


# ---------------------------------------------------------------------------
# forcing an infinite game


def bob_force_infinite(alice: TossString) -> ForceResult:
    """Bob picks a string that makes the game run forever.

    Impossible exactly for alternating opponents of length at most 4.
    An opponent with a doubled letter is stalled by the constant string
    of the opposite letter; a long alternating opponent is stalled by
    opening with the doubled letter and a block of three opposites,
    padded with T, which is never read: the game cycles in the block.
    """
    return _force_infinite(Player.BOB, alice, longest_exception=4, lead=0)


def alice_force_infinite(bob: TossString) -> ForceResult:
    """Alice picks a string that makes the game run forever.

    Impossible exactly for alternating opponents of length at most 5;
    otherwise mirrors the same constant / block-opening constructions
    (her block answers the opponent's alternation one step offset).
    """
    return _force_infinite(Player.ALICE, bob, longest_exception=5, lead=1)


def _force_infinite(
    role: Player, opponent: TossString, longest_exception: int, lead: int
) -> ForceResult:
    n = opponent.length
    everything = (1 << n) - 1  # the all-T code
    if opponent.is_alternating():
        if n <= longest_exception:
            return ForceResult(ForceStatus.IMPOSSIBLE, "short-alternating-exception")
        # ``lead`` Ts, HH, then Ts: the block of three Ts and its padding.
        rule = (everything ^ 0b11 << (n - 2 - lead), "alternating-block-cycle")
    else:
        o = opponent.bits ^ _frame(opponent)
        doubled = o >> (n - opponent.first_double()) & 1
        rule = (0 if doubled else everything, "all-opposite-letter")
    return _finish(role, ForceGoal.INFINITE_GAME, opponent, rule)


# ---------------------------------------------------------------------------
# forcing a loss


def alice_force_loss(bob: TossString, cap: int = DEFAULT_SEARCH_CAP) -> ForceResult:
    """Alice picks a string that hands Bob the win.

    Impossible exactly when the opponent is constant with odd length.
    Even lengths copy the opponent and flip the final toss.  Odd lengths
    take the first rule that fits the opponent's opening (normalized:
    alternating, an HT start, an even run of Hs, or an odd run of Hs
    then TT).  Alternation is met by all Ts; the rest drop the opponent's
    first letter (two after an HT start whose first double is HH) and pad
    with T, falling into lockstep one (two) behind it, so the padding is
    never read.  Opponents that fit no rule go to the prefix search.
    """
    n = bob.length
    if n % 2 == 1 and bob.is_constant():
        return ForceResult(ForceStatus.IMPOSSIBLE, "odd-length-constant-opponent")
    everything = (1 << n) - 1
    b = bob.bits ^ _frame(bob)
    run = bob.leading_run()
    rule: tuple[int, str] | None = None
    if n % 2 == 0:
        rule = (b ^ 1, "copy-flip-last")
    elif bob.is_alternating():
        rule = (everything, "all-opposite-letter")
    elif run == 1 and b >> (n - bob.first_double()) & 1 == 0:  # HT..., HH first
        rule = ((b << 2 | 0b11) & everything, "drop-two-append-two")
    elif run == 1:
        rule = ((b << 1 | 1) & everything, "drop-one-append-one")
    elif run % 2 == 0:
        rule = ((b << 1 | 1) & everything, "shift-after-even-run")
    elif run < n - 1 and b >> (n - 2 - run) & 1:  # TT after the run
        rule = ((b << 1 | 1) & everything, "shift-after-odd-run")
    return _finish(Player.ALICE, ForceGoal.LOSS, bob, rule, cap)


def bob_force_loss(alice: TossString, cap: int = DEFAULT_SEARCH_CAP) -> ForceResult:
    """Bob picks a string that hands Alice the win.

    Impossible for constant opponents of even length, and for the
    handful of no-loss strings that the prefix search uncovers.  Odd
    lengths copy the opponent and flip the final toss; an opponent
    opening with an odd run of its first letter is answered by the
    one-step shift padded with T, which never reads its padding: it falls
    into lockstep one letter behind.  The rest go to the prefix search.
    """
    n = alice.length
    if n % 2 == 0 and alice.is_constant():
        return ForceResult(ForceStatus.IMPOSSIBLE, "even-length-constant-opponent")
    a = alice.bits ^ _frame(alice)
    rule: tuple[int, str] | None = None
    if n % 2 == 1:
        rule = (a ^ 1, "copy-flip-last")
    elif alice.leading_run() % 2 == 1:
        rule = ((a << 1 | 1) & ((1 << n) - 1), "shift-after-odd-run")
    return _finish(Player.BOB, ForceGoal.LOSS, alice, rule, cap)


#: The operation behind each (role, goal), in the order the ``forcing``
#: verify suite runs them.
_FORCERS = {
    (Player.BOB, ForceGoal.WIN): bob_force_win,
    (Player.ALICE, ForceGoal.WIN): alice_force_win,
    (Player.BOB, ForceGoal.INFINITE_GAME): bob_force_infinite,
    (Player.ALICE, ForceGoal.INFINITE_GAME): alice_force_infinite,
    (Player.ALICE, ForceGoal.LOSS): alice_force_loss,
    (Player.BOB, ForceGoal.LOSS): bob_force_loss,
}


def force(
    role: Player,
    goal: ForceGoal,
    opponent: TossString,
    cap: int = DEFAULT_SEARCH_CAP,
) -> ForceResult:
    """Dispatch to the role/goal-specific operation."""
    operation = _FORCERS[role, goal]
    if goal is ForceGoal.LOSS:
        return operation(opponent, cap)
    return operation(opponent)
