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
  except for the last toss (winner decided by the parity of the
  length), or one string trailing the other by one or two positions.
* ``predict_special_strings`` — one string constant, or one string
  alternating against an opponent that opens with the doubled
  opposite letter.

Every fired prediction is checked against the real playout by the
enumeration module's ``predicates`` verification suite.
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import OutcomeKind, TossString, _SWAP, _validate_pair


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


#: The win of the player moving on even tosses (Bob) and on odd ones (Alice).
_MOVER_WINS = (OutcomeKind.BOB_WINS, OutcomeKind.ALICE_WINS)


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

    Applies, in order: equal except for the final toss (the parity of n
    hands the winning toss to one player); Bob shadowing Alice one
    position behind; Bob shadowing two positions behind.  The shadow
    rules are stated for an Alice string that opens with H and apply to
    the other half by complementing both strings.
    """
    n = _validate_pair(alice, bob)
    a, b = alice.text, bob.text
    if a[: n - 1] == b[: n - 1]:
        # Distinct strings sharing the first n-1 tosses differ at the last:
        # play stays synchronized and toss n goes to the mover of that turn.
        return Prediction("equal-but-last", _MOVER_WINS[n % 2], tosses=n)
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


def _positions_all(text: str, letter: str, parity: int) -> bool:
    """True when every 1-based position of the given parity holds `letter`."""
    return all(
        ch == letter for i, ch in enumerate(text, start=1) if i % 2 == parity
    )


def _constant_opponent(x: str, other: str, n: int, parity: int) -> Prediction:
    """The result against a player moving on tosses of the given parity
    with the string all `x`: the opponent wins when their string rides
    that stream from either alignment, but for one near-match string."""
    rule = "constant-alice" if parity else "constant-bob"
    if other == x * (n - 1) + x.translate(_SWAP) and n % 2 == parity:
        return Prediction(rule, _MOVER_WINS[parity], tosses=n)
    if _positions_all(other, x, parity):
        return Prediction(rule, _MOVER_WINS[1 - parity], tosses=n)
    if _positions_all(other, x, 1 - parity):
        return Prediction(rule, _MOVER_WINS[1 - parity], tosses=n + 1)
    return Prediction(rule, OutcomeKind.INFINITE)


def predict_special_strings(alice: TossString, bob: TossString) -> Prediction | None:
    """Predictions for constant and alternating strings.

    A constant string settles every game: the opponent wins if their
    string matches the constant letter on all odd or all even
    positions (with one near-match exception decided by parity), and
    otherwise the game is infinite.  An alternating string beats any
    opponent that opens with the doubled opposite letter.
    """
    n = _validate_pair(alice, bob)
    seats = ((alice, bob, 1), (bob, alice, 0))  # (player, opponent, parity)
    for own, other, parity in seats:
        if own.is_constant():
            return _constant_opponent(own.text[0], other.text, n, parity)
    for own, other, parity in seats:
        # An alternating Alice wins on toss n, an alternating Bob one later.
        doubled = own.text[0].translate(_SWAP) * 2
        if own.is_alternating() and other.text[:2] == doubled:
            return Prediction(
                "alternating-vs-doubled", _MOVER_WINS[parity], tosses=n + 1 - parity
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
