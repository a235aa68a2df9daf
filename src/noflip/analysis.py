"""Winner prediction from string shape, without playing the game.

Each predictor inspects the two committed strings and, when its
hypothesis applies, announces the result of the playout; outside its
hypothesis it returns ``None`` and says nothing.  Three families are
covered:

* ``predict_by_runs`` — if, within some prefix length, one player's
  longest H-run and the other's longest T-run are each ahead by two or
  more (in opposite directions), neither string can ever complete and
  the game is infinite.
* ``predict_large_overlap`` — heavily overlapping strings: equal
  except for the last toss (won by whoever names toss n), or one
  string trailing the other by one or two positions.
* ``predict_special_strings`` — one string constant, or one string
  alternating against an opponent that opens with the doubled
  opposite letter.

Every rule reads the strings' packed ``bits`` (first toss in the
highest bit, T = 1), never their text, in a few integer operations per
run length: runs come from repeated ``z &= z >> 1``, overlaps from
shifts compared after an XOR into the frame where Alice opens with H,
and seat patterns from one alternating 64-bit mask.  The tests hold the
overlap and special-string rules equal to letter-by-letter references.

Every fired prediction is checked against the real playout by the
enumeration module's ``predicates`` verification suite.  A player's
seat is their place in the engine's turn order (Alice 0, Bob 1), and a
seat's win is the outcome kind in the same place.
"""

from __future__ import annotations

from bisect import bisect_right

from .engine import (
    OutcomeKind,
    TossString,
    _KINDS,
    _Record,
    _seat,
    _set,
    _validate_pair,
)


class RunProfile(_Record):
    """Longest H-run and T-run within every prefix of a string.

    ``h(p)`` / ``t(p)`` give the longest run of H / T inside the first
    p tosses, for 1-based p up to the string length.
    """

    __slots__ = ("heads", "tails")
    heads: tuple[int, ...]
    tails: tuple[int, ...]

    def h(self, p: int) -> int:
        return self.heads[self._index(p)]

    def t(self, p: int) -> int:
        return self.tails[self._index(p)]

    def _index(self, p: int) -> int:
        if not 1 <= p <= len(self.heads):
            raise ValueError(f"prefix length {p} out of range 1..{len(self.heads)}")
        return p - 1


def _run_records(z: int, n: int) -> list[int]:
    """Entry k-1 is the shortest prefix of the n tosses in z (first toss
    highest) holding k consecutive 1 bits, so the longest such run in the
    first p tosses is ``bisect_right(records, p)``.  After k-1 rounds of
    ``z &= z >> 1``, bit i is set where a run of k ends on bit i."""
    records: list[int] = []
    while z:
        records.append(n + 1 - z.bit_length())
        z &= z >> 1
    return records


def run_profile(s: TossString) -> RunProfile:
    n = s.length
    heads = _run_records(s.bits ^ ((1 << n) - 1), n)
    tails = _run_records(s.bits, n)
    return RunProfile(
        tuple(bisect_right(heads, p) for p in range(1, n + 1)),
        tuple(bisect_right(tails, p) for p in range(1, n + 1)),
    )


class Prediction(_Record):
    """A predicted result: which rule fired, the outcome class, and the
    winning toss count when the underlying statement supplies one."""

    __slots__ = ("rule", "kind", "tosses")
    rule: str
    kind: OutcomeKind
    tosses: int | None

    def __init__(self, rule: str, kind: OutcomeKind, tosses: int | None = None) -> None:
        _set(self, "rule", rule)
        _set(self, "kind", kind)
        _set(self, "tosses", tosses)


def _gap_opens(
    lead_h: list[int], lead_t: list[int], lag_h: list[int], lag_t: list[int]
) -> bool:
    """True when some prefix has the lead_h player two or more ahead of
    the lag_h player on H-runs while lead_t is two or more ahead of lag_t
    on T-runs (all four given as run records).

    A gap that holds at some prefix also holds at the last record of a
    leading value at or before it, since from there on the leading values
    stand still and the lagging ones only grow; so only the leading
    records are tested.
    """
    for p in lead_h + lead_t:
        if (
            bisect_right(lead_h, p) > bisect_right(lag_h, p) + 1
            and bisect_right(lead_t, p) > bisect_right(lag_t, p) + 1
        ):
            return True
    return False


def predict_by_runs(alice: TossString, bob: TossString) -> Prediction | None:
    """Infinite-game test from run-length gaps.

    Fires when some prefix length p has one player more than one ahead
    on H-runs while the other is more than one ahead on T-runs: then
    neither player can ever assemble the other's longer run, and the
    playout cycles.  Covers the doubled-opening corollary (one string
    starting HH, the other TT) at p = 2.
    """
    n = _validate_pair(alice, bob)
    mask = (1 << n) - 1
    ha, ta = _run_records(alice.bits ^ mask, n), _run_records(alice.bits, n)
    hb, tb = _run_records(bob.bits ^ mask, n), _run_records(bob.bits, n)
    if _gap_opens(hb, ta, ha, tb) or _gap_opens(ha, tb, hb, ta):
        return Prediction("run-length-gap", OutcomeKind.INFINITE)
    return None


def predict_large_overlap(alice: TossString, bob: TossString) -> Prediction | None:
    """Predictions for strings that overlap on almost every position.

    Applies, in order: equal except for the final toss (whoever names
    toss n wins on it); Bob shadowing Alice one position behind; Bob
    shadowing two positions behind.  The shadow rules are stated for an
    Alice string that opens with H and apply to the other half by
    complementing both strings.
    """
    n = _validate_pair(alice, bob)
    a, b = alice.bits, bob.bits
    if a >> 1 == b >> 1:
        # Distinct strings sharing the first n-1 tosses differ at the last:
        # play stays synchronized and toss n goes to the mover of that turn.
        return Prediction("equal-but-last", _KINDS[_seat(n)], tosses=n)
    # From here n >= 2: every pair of one-toss strings is equal but last.
    if a >> (n - 1):
        mask = (1 << n) - 1
        a, b = a ^ mask, b ^ mask
    # One string one step behind the other: Bob spends one toss, then
    # rides Alice's own prefix home.  Alice opens HT, Bob is H + her
    # first n-1 tosses, so he opens HH.
    if a >> (n - 2) == 0b01 and b == a >> 1:
        return Prediction("one-step-shadow", OutcomeKind.BOB_WINS)
    # Two steps behind, with the doubled opening absorbed up front: Alice
    # opens HH, Bob is HTHH + her tosses 3..n-2.
    if n >= 4 and a >> (n - 2) == 0 and b == (0b0100 << (n - 4) | a >> 2):
        return Prediction("two-step-shadow", OutcomeKind.BOB_WINS)
    return None


# Bit 63 and every second bit below it.  Shifted right by 64 - n + seat,
# its top bit lands on toss 1 + seat of an n-toss string, and it marks
# every toss that seat names.
_SEAT_BITS = 0xAAAA_AAAA_AAAA_AAAA


def _constant_opponent(x: int, other: int, n: int, seat: int) -> Prediction:
    """The result against the player in the given seat with the constant
    string of bits x (0 or all ones): the opponent wins when their string
    rides that stream from either alignment, but for one near-match
    string."""
    rule = "constant-bob" if seat else "constant-alice"
    if other == x ^ 1 and _seat(n) == seat:
        return Prediction(rule, _KINDS[seat], tosses=n)
    if (other ^ x) & (_SEAT_BITS >> (64 - n + seat)) == 0:
        return Prediction(rule, _KINDS[1 - seat], tosses=n)
    if (other ^ x) & (_SEAT_BITS >> (65 - n - seat)) == 0:
        return Prediction(rule, _KINDS[1 - seat], tosses=n + 1)
    return Prediction(rule, OutcomeKind.INFINITE)


def predict_special_strings(alice: TossString, bob: TossString) -> Prediction | None:
    """Predictions for constant and alternating strings.

    A constant string settles every game: the opponent wins if their
    string holds the constant letter at every toss one seat names (but
    for one near-match, which the constant player beats when naming toss
    n), and otherwise the game is infinite.  An alternating string beats
    any opponent that opens with the doubled opposite letter.
    """
    n = _validate_pair(alice, bob)
    seats = ((alice, bob, 0), (bob, alice, 1))  # (player, opponent, seat)
    for own, other, seat in seats:
        if own.is_constant():
            return _constant_opponent(own.bits, other.bits, n, seat)
    # Past here n >= 2: both one-toss strings are constant.
    for own, other, seat in seats:
        # An alternating Alice wins on toss n, an alternating Bob one later.
        doubled = 0b00 if own.bits >> (n - 1) else 0b11
        if other.bits >> (n - 2) == doubled and own.is_alternating():
            return Prediction(
                "alternating-vs-doubled", _KINDS[seat], tosses=n + seat
            )
    return None


def all_predictions(alice: TossString, bob: TossString) -> list[Prediction]:
    """Every prediction that fires on the pair, in family order."""
    fired = [
        predict_by_runs(alice, bob),
        predict_large_overlap(alice, bob),
        predict_special_strings(alice, bob),
    ]
    return [p for p in fired if p is not None]
