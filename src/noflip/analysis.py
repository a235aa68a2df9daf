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

Every fired prediction is checked against the real playout by the
enumeration module's ``predicates`` verification suite.  A player's
seat is their place in the engine's turn order (Alice 0, Bob 1), and a
seat's win is the outcome kind in the same place.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import OutcomeKind, TossString, _KINDS, _SWAP, _seat, _validate_pair


@dataclass(frozen=True)
class RunProfile:
    """Longest H-run and T-run within every prefix of a string.

    ``h(p)`` / ``t(p)`` give the longest run of H / T inside the first
    p tosses, for 1-based p up to the string length.
    """

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


def run_profile(s: TossString) -> RunProfile:
    heads: list[int] = []
    tails: list[int] = []
    best_h = best_t = run = 0
    prev = ""
    for ch in s.text:
        run = run + 1 if ch == prev else 1
        prev = ch
        if ch == "H":
            if run > best_h:
                best_h = run
        elif run > best_t:
            best_t = run
        heads.append(best_h)
        tails.append(best_t)
    return RunProfile(tuple(heads), tuple(tails))


@dataclass(frozen=True)
class Prediction:
    """A predicted result: which rule fired, the outcome class, and the
    winning toss count when the underlying statement supplies one."""

    rule: str
    kind: OutcomeKind
    tosses: int | None = None


def predict_by_runs(alice: TossString, bob: TossString) -> Prediction | None:
    """Infinite-game test from run-length gaps.

    Fires when some prefix length p has one player more than one ahead
    on H-runs while the other is more than one ahead on T-runs: then
    neither player can ever assemble the other's longer run, and the
    playout cycles.  Covers the doubled-opening corollary (one string
    starting HH, the other TT) at p = 2.
    """
    _validate_pair(alice, bob)
    pa, pb = run_profile(alice), run_profile(bob)
    for ha, ta, hb, tb in zip(pa.heads, pa.tails, pb.heads, pb.tails):
        ahead_b = ha + 1 < hb and tb + 1 < ta
        ahead_a = hb + 1 < ha and ta + 1 < tb
        if ahead_a or ahead_b:
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
    a, b = alice.text, bob.text
    if a[: n - 1] == b[: n - 1]:
        # Distinct strings sharing the first n-1 tosses differ at the last:
        # play stays synchronized and toss n goes to the mover of that turn.
        return Prediction("equal-but-last", _KINDS[_seat(n)], tosses=n)
    if a[0] == "T":
        a, b = a.translate(_SWAP), b.translate(_SWAP)
    # One string one step behind the other: Bob spends one toss, then
    # rides Alice's own prefix home.
    if a.startswith("HT") and b.startswith("HH") and b[1:] == a[: n - 1]:
        return Prediction("one-step-shadow", OutcomeKind.BOB_WINS)
    # Two steps behind, with the doubled opening absorbed up front.
    if a[:2] == "HH" and b[:4] == "HTHH" and b[4:] == a[2 : n - 2]:
        return Prediction("two-step-shadow", OutcomeKind.BOB_WINS)
    return None


def _positions_all(text: str, letter: str, seat: int) -> bool:
    """True when `letter` is at every 1-based position the seat names."""
    return all(ch == letter for i, ch in enumerate(text, start=1) if _seat(i) == seat)


def _constant_opponent(x: str, other: str, n: int, seat: int) -> Prediction:
    """The result against the player in the given seat with the string
    all `x`: the opponent wins when their string rides that stream from
    either alignment, but for one near-match string."""
    rule = "constant-bob" if seat else "constant-alice"
    if other == x * (n - 1) + x.translate(_SWAP) and _seat(n) == seat:
        return Prediction(rule, _KINDS[seat], tosses=n)
    if _positions_all(other, x, seat):
        return Prediction(rule, _KINDS[1 - seat], tosses=n)
    if _positions_all(other, x, 1 - seat):
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
            return _constant_opponent(own.text[0], other.text, n, seat)
    for own, other, seat in seats:
        # An alternating Alice wins on toss n, an alternating Bob one later.
        doubled = own.text[0].translate(_SWAP) * 2
        if own.is_alternating() and other.text[:2] == doubled:
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
