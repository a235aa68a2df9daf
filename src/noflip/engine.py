"""Deterministic playout engine for the No-Flippancy coin game.

Alice and Bob each commit to a distinct H/T string of the same length n
and then take turns naming coin tosses, Alice first.  A player's
*progress* is the length of the longest suffix of the toss sequence so
far that is a prefix of their own string, and the mover always names
the character of their string sitting just past their current progress.
The first string to appear as a block of consecutive tosses wins.

Every move is forced, so a pair of strings determines the whole game.
The pair (alice progress, bob progress, whose turn) determines the
future of the game as well; if that triplet ever repeats, the game
cycles forever and is classified Infinite.  Finite games of length-n
strings end within ``finite_toss_bound(n)`` tosses, which the engine
checks on every playout.

Progress updates are answered by a precomputed pattern-matching
automaton per string: its Knuth-Morris-Pratt transition rows, where each
new state copies the row of its fallback state, so each toss costs O(1).
:func:`_kmp_tables`, the one builder, makes a table in one pass,
interning each row in ``_ROWS`` as it goes, so tables share one tuple
per distinct (H, T) row, and allocates the rows' tuple at its size,
which keeps memory flat as the cache evicts and rebuilds tables; it also
returns the row a next state would copy.  The direct suffix-comparison
formula is kept as :func:`scan_progress` and serves as an independent
oracle for the automaton in the test suite.

Every game loop lives here, and no other module reads the automaton
tables: the sweeps and the forcing search pass :func:`_trie_walk` the
owner seat's prefix, then the other's.  It walks both at once, seeding
each player's rows, and the row its next state copies, from the builder,
pushing and popping further rows neither cached nor interned and reading
letters from the packed prefixes; it reports branch ends Alice's prefix
first and returns the owner's strings it settled, pruning a subtree once
all are.  :func:`_playout_code` is the per-pair toss-cutoff oracle.

:func:`play` is the one playout that keeps a trace.  It records the
trace packed, as toss codes and progress bytes in a :class:`GameTrace`,
whose ``tosses``, ``states`` and ``text`` are built only when read.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from operator import attrgetter

MAX_LENGTH = 63  # a packed toss string must fit in one machine word

_LETTERS = str.maketrans("01", "HT")  # binary digits of packed bits to toss text
_DIGITS = str.maketrans("HT", "01")  # toss text to the binary digits of its bits
_CODE_LETTERS = bytes.maketrans(b"\0\1", b"HT")  # toss codes to toss text
_BINARY_CODES = bytes.maketrans(b"01", b"\0\1")  # binary digits to toss codes


class Toss(Enum):
    """One coin outcome."""

    H = "H"
    T = "T"


class Player(Enum):
    ALICE = "A"
    BOB = "B"


_TOSSES = (Toss.H, Toss.T)  # a toss by its code, H=0 and T=1
_TURNS = (Player.ALICE, Player.BOB)  # a player by seat, Alice 0 and Bob 1


def _seat(k: int) -> int:
    """The seat of whoever names toss k: Alice names the odd tosses."""
    return (k - 1) & 1


_new = object.__new__
_set = object.__setattr__


class _Record:
    """Base of the package's immutable values, whose fields are their
    ``__slots__``, a tuple of two or more names (an ``attrgetter`` of one
    name gives no tuple).  The base's ``__init__`` binds the fields by
    position or keyword.  A subclass that checks its fields, or that the
    package builds once per automaton, game, prediction or force call,
    writes its own ``__init__`` and stores each field with ``_set``,
    skipping the base's per-field loop.

    Equality (with records of the same class only), hashing, ``repr``,
    pickling, copying and ``match`` all read the field tuple, as those of
    a frozen dataclass do, and assigning or deleting an attribute raises
    ``AttributeError``.  Not using ``dataclasses`` keeps it, and the
    ``inspect`` and ``ast`` it imports, out of every command's start-up.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._values = attrgetter(*cls.__slots__)
        cls.__match_args__ = cls.__slots__

    def __init__(self, *values, **named) -> None:
        fields, name = self.__slots__, type(self).__qualname__
        if len(values) > len(fields):
            raise TypeError(f"{name} takes {len(fields)} fields, got {len(values)}")
        for field, value in zip(fields, values):
            _set(self, field, value)
        for field in fields[len(values) :]:
            if field not in named:
                raise TypeError(f"{name} missing field {field!r}")
            _set(self, field, named.pop(field))
        if named:  # a keyword that names no field, or one given by position
            raise TypeError(f"{name} got unknown or repeated fields {tuple(named)}")

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        pairs = zip(self.__match_args__, self._values(self))
        fields = ", ".join(f"{name}={value!r}" for name, value in pairs)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


class TossString(_Record):
    """An immutable H/T string of length 1..63.

    The string is bit-packed with the first toss in the highest bit,
    H=0 and T=1, so that integer order on ``bits`` coincides with
    lexicographic order on the text with H < T.  Public accessors use
    1-based positions.
    """

    __slots__ = ("length", "bits")
    length: int
    bits: int

    def __init__(self, length: int, bits: int) -> None:
        for name, value in ("length", length), ("bits", bits):
            if type(value) is not int:  # bool included
                raise TypeError(
                    f"toss string {name} must be an int, got {type(value).__name__}"
                )
        if not 1 <= length <= MAX_LENGTH:
            raise ValueError(
                f"toss string length must be 1..{MAX_LENGTH}, got {length}"
            )
        if not 0 <= bits < (1 << length):
            raise ValueError(f"bits 0x{bits:x} out of range for length {length}")
        _set(self, "length", length)
        _set(self, "bits", bits)

    @classmethod
    def from_text(cls, text: str) -> TossString:
        if not text:
            raise ValueError("toss string must not be empty")
        if len(text) > MAX_LENGTH:
            raise ValueError(
                f"toss string longer than {MAX_LENGTH} tosses: {len(text)}"
            )
        for ch in text:
            if ch not in "HT":
                raise ValueError(f"invalid toss {ch!r} (only 'H' and 'T' allowed)")
        return cls(len(text), int(text.translate(_DIGITS), 2))

    @property
    def text(self) -> str:
        # Zero padding to the full length keeps the leading H's.
        return format(self.bits, f"0{self.length}b").translate(_LETTERS)

    def at(self, i: int) -> Toss:
        """Toss at 1-based position ``i``."""
        if not 1 <= i <= self.length:
            raise ValueError(f"position {i} out of range 1..{self.length}")
        return _TOSSES[(self.bits >> (self.length - i)) & 1]

    def complement(self) -> TossString:
        mask = (1 << self.length) - 1
        return TossString(self.length, self.bits ^ mask)

    def is_constant(self) -> bool:
        return self.bits in (0, (1 << self.length) - 1)

    def is_alternating(self) -> bool:
        """True when no two adjacent tosses are equal."""
        return self.first_double() is None

    def first_double(self) -> int | None:
        """Smallest 1-based k with position k equal to position k+1."""
        n, b = self.length, self.bits
        # Bit i of `same` is set when the tosses on bits i and i+1 agree;
        # the highest such bit is the earliest pair.
        same = ~(b ^ b >> 1) & ((1 << (n - 1)) - 1)
        return n - same.bit_length() if same else None

    def leading_run(self) -> int:
        """Length of the initial run of the first toss."""
        n, b = self.length, self.bits
        # In the frame where the first toss is H, the highest set bit is
        # the first toss that breaks the run.
        rest = b ^ ((1 << n) - 1) if b >> (n - 1) else b
        return n - rest.bit_length()

    def __len__(self) -> int:
        return self.length

    def __iter__(self):
        return (self.at(i) for i in range(1, self.length + 1))

    def __str__(self) -> str:
        return self.text

    def __repr__(self) -> str:
        return f"TossString({self.text!r})"


# Every row a built table holds, mapped to its one shared tuple.  Both
# entries of a row lie in 0..MAX_LENGTH, so it never exceeds 64 * 64 rows.
_ROWS: dict[tuple[int, int], tuple[int, int]] = {}


def _kmp_tables(
    length: int, bits: int
) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], tuple[int, int]]:
    """The string as 0 (H) / 1 (T) characters, first toss first, its
    Knuth-Morris-Pratt transition rows, where rows[s][c] is the progress
    after reading toss c in progress state s, and the row that a next
    state, one past the string, would copy.  One pass builds them.  Each
    new state copies the row of its fallback state, the longest proper
    border of the characters before it, which is shorter and so already
    built, and points its character at the next state; where the copied
    row sends that character is the next state's fallback.  Every row is
    interned in ``_ROWS``, so tables share equal rows.  Length 0 gives no
    characters, no rows and the row (0, 0), which sends both tosses to 0.
    The rows go into a list so that the tuple returned is allocated at its
    size, which keeps memory flat as the cache evicts and rebuilds tables."""
    # format pads bits 0 to one digit, "0", which length 0 must not read.
    digits = format(bits, f"0{length}b")[:length]
    chars = tuple(digits.encode().translate(_BINARY_CODES))
    rows: list[tuple[int, int]] = []
    fallback_row = (0, 0)  # state 0 copies a row that sends both tosses to 0
    for after, c in enumerate(chars, 1):  # the new row sends c to state `after`
        row = (fallback_row[0], after) if c else (after, fallback_row[1])
        rows.append(_ROWS.setdefault(row, row))
        fallback_row = rows[fallback_row[c]]
    return chars, tuple(rows), fallback_row


# Cached for play and _playout_code, the loops that meet the same strings again.
_tables_for = lru_cache(maxsize=4096)(_kmp_tables)


class ProgressAutomaton(_Record):
    """Progress tracker for one pattern string.

    ``step(state, toss)`` maps a progress value in 0..n-1 and a toss to
    the new progress in 0..n: the length of the longest suffix of the
    extended output that is a prefix of the pattern.  Reaching n means
    the pattern just appeared.
    """

    __slots__ = ("pattern", "table")
    pattern: TossString
    table: tuple[tuple[int, int], ...]

    def __init__(self, pattern: TossString, table: tuple[tuple[int, int], ...]) -> None:
        _set(self, "pattern", pattern)
        _set(self, "table", table)

    @classmethod
    def build(cls, pattern: TossString) -> ProgressAutomaton:
        return cls(pattern, _kmp_tables(pattern.length, pattern.bits)[1])

    def step(self, state: int, toss: Toss) -> int:
        if not 0 <= state < self.pattern.length:
            raise ValueError(
                f"progress {state} out of range 0..{self.pattern.length - 1}"
            )
        if toss not in _TOSSES:
            raise ValueError(f"toss {toss!r} is not a Toss")
        return self.table[state][toss is Toss.T]


def scan_progress(pattern: str, output: str) -> int:
    """Progress by direct comparison: the longest suffix of ``output``
    that is a prefix of ``pattern``.  Reference oracle for the
    automaton; quadratic and only used in verification paths."""
    limit = min(len(pattern), len(output))
    for i in range(limit, 0, -1):
        if output[len(output) - i :] == pattern[:i]:
            return i
    return 0


class GameState(_Record):
    """Snapshot after toss k: both progress values and the toss count.

    Whose turn is next is not a stored field: it is :func:`_seat` of the
    next toss, k + 1, so it is Alice's turn exactly when k is even.
    """

    __slots__ = ("a", "b", "k")
    a: int
    b: int
    k: int

    def __init__(self, a: int, b: int, k: int) -> None:
        for name, value in ("a", a), ("b", b), ("k", k):
            if type(value) is not int:  # bool included
                raise TypeError(
                    f"game state {name} must be an int, got {type(value).__name__}"
                )
        if a < 0 or b < 0 or k < 0:
            raise ValueError("progress values and toss count must be non-negative")
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "k", k)

    @property
    def turn(self) -> Player:
        return _TURNS[_seat(self.k + 1)]

    @property
    def triplet(self) -> tuple[int, int, Player]:
        return (self.a, self.b, self.turn)


START_STATE = GameState(0, 0, 0)


def _state(a: int, b: int, k: int) -> GameState:
    """A :class:`GameState` without the checks of its ``__init__``, for
    states that :func:`play` makes consistent by construction."""
    s = _new(GameState)
    _set(s, "a", a)
    _set(s, "b", b)
    _set(s, "k", k)
    return s


class OutcomeKind(Enum):
    ALICE_WINS = "alice_wins"
    BOB_WINS = "bob_wins"
    INFINITE = "infinite"


_KINDS = tuple(OutcomeKind)  # by result code; a win's code is the winner's seat
_ALICE_WIN, _BOB_WIN, _NO_WIN = range(3)


class Outcome(_Record):
    """Result of a playout.

    Wins carry the 1-based toss count of the winning toss.  Infinite
    outcomes carry ``entry``, the state index at which the repeated
    triplet first occurred, and ``period``, the cycle length in tosses.
    """

    __slots__ = ("kind", "tosses", "entry", "period")
    kind: OutcomeKind
    tosses: int | None
    entry: int | None
    period: int | None

    def __init__(
        self,
        kind: OutcomeKind,
        tosses: int | None = None,
        entry: int | None = None,
        period: int | None = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "tosses", tosses)
        _set(self, "entry", entry)
        _set(self, "period", period)

    @staticmethod
    def alice_wins(tosses: int) -> Outcome:
        return Outcome(OutcomeKind.ALICE_WINS, tosses=tosses)

    @staticmethod
    def bob_wins(tosses: int) -> Outcome:
        return Outcome(OutcomeKind.BOB_WINS, tosses=tosses)

    @staticmethod
    def infinite(entry: int, period: int) -> Outcome:
        return Outcome(OutcomeKind.INFINITE, entry=entry, period=period)

    @property
    def is_infinite(self) -> bool:
        return self.kind is OutcomeKind.INFINITE

    @property
    def winner(self) -> Player | None:
        return None if self.is_infinite else _TURNS[_KINDS.index(self.kind)]

    def describe(self) -> str:
        if self.is_infinite:
            return f"Infinite (entry {self.entry}, period {self.period})"
        return f"{self.winner.name.title()}Wins at toss {self.tosses}"


class GameTrace(_Record):
    """A playout, packed: ``codes`` holds one byte per toss, 0 for H and
    1 for T; ``progress`` holds the (alice, bob) progress pair before the
    first toss and after every toss, flattened, so the pair after toss k
    sits at bytes 2k and 2k + 1.

    ``tosses``, ``states`` (the state before each toss and one terminal
    state) and ``text`` are built from these bytes each time they are
    read; callers that only need the outcome never build them.
    """

    __slots__ = ("codes", "progress")
    codes: bytes
    progress: bytes

    def __init__(self, codes: bytes, progress: bytes) -> None:
        for name, value in ("codes", codes), ("progress", progress):
            if type(value) is not bytes:
                raise TypeError(
                    f"game trace {name} must be bytes, got {type(value).__name__}"
                )
        if codes.translate(None, b"\0\1"):
            raise ValueError("toss codes must be 0 (H) or 1 (T)")
        if len(progress) != 2 * len(codes) + 2:
            raise ValueError(
                f"{len(codes)} tosses need {2 * len(codes) + 2} "
                f"progress bytes, got {len(progress)}"
            )
        _set(self, "codes", codes)
        _set(self, "progress", progress)

    @property
    def tosses(self) -> tuple[Toss, ...]:
        return tuple([_TOSSES[c] for c in self.codes])

    @property
    def states(self) -> tuple[GameState, ...]:
        p = self.progress
        return tuple([_state(p[i], p[i + 1], i >> 1) for i in range(0, len(p), 2)])

    @property
    def text(self) -> str:
        return self.codes.translate(_CODE_LETTERS).decode()


def _trace(codes: bytes, progress: bytes) -> GameTrace:
    """A :class:`GameTrace` without the checks of its ``__init__``, for the
    traces that :func:`play` makes consistent by construction."""
    t = _new(GameTrace)
    _set(t, "codes", codes)
    _set(t, "progress", progress)
    return t


def finite_toss_bound(n: int) -> int:
    """Latest toss at which a game of length-n strings can still end.

    Counting the reachable progress/turn triplets gives 4n - 4 for
    n >= 2; a single-letter game always ends on toss 1.
    """
    if n < 1:
        raise ValueError(f"string length must be positive, got {n}")
    return 1 if n == 1 else 4 * n - 4


def next_choice(state: GameState, mover: TossString) -> Toss:
    """The toss the player to move names: the character of their own
    string just past their current progress (1-based position p+1)."""
    p = state.a if state.turn is Player.ALICE else state.b
    if p >= mover.length:
        raise ValueError("mover's string already appeared; the game is over")
    return mover.at(p + 1)


def advance(
    state: GameState,
    toss: Toss,
    alice_automaton: ProgressAutomaton,
    bob_automaton: ProgressAutomaton,
) -> GameState:
    """Apply one toss to both progress trackers and count it."""
    if state.a >= alice_automaton.pattern.length:
        raise ValueError("alice's string already appeared; cannot advance")
    if state.b >= bob_automaton.pattern.length:
        raise ValueError("bob's string already appeared; cannot advance")
    return GameState(
        alice_automaton.step(state.a, toss),
        bob_automaton.step(state.b, toss),
        state.k + 1,
    )


def _validate_pair(alice: TossString, bob: TossString) -> int:
    if alice.length != bob.length:
        raise ValueError(
            f"strings must have equal length, got {alice.length} and {bob.length}"
        )
    if alice.bits == bob.bits:  # lengths agree: alice == bob, minus the record __eq__
        raise ValueError("the two strings must be distinct")
    return alice.length


def play(alice: TossString, bob: TossString) -> tuple[Outcome, GameTrace]:
    """Run the forced playout to a win or a repeated state.

    Returns the outcome and the full trace.  State repetition is the
    primary Infinite classifier; the counting bound from
    :func:`finite_toss_bound` is checked afterwards as a cross-check,
    raising ``RuntimeError`` if it fails.
    """
    n = _validate_pair(alice, bob)
    ca, ra, _ = _tables_for(alice.length, alice.bits)
    cb, rb, _ = _tables_for(bob.length, bob.bits)

    # A repeat key packs (a, b, turn) into one int: a, b < n <= 63 while it runs.
    a = b = k = 0
    seen: dict[int, int] = {}
    codes: list[int] = []
    progress = [0, 0]
    outcome: Outcome

    while True:
        key = a << 7 | b << 1 | k & 1
        if key in seen:
            entry = seen[key]
            outcome = Outcome(_KINDS[_NO_WIN], None, entry, k - entry)
            break
        seen[key] = k
        c = cb[b] if k & 1 else ca[a]
        a = ra[a][c]
        b = rb[b][c]
        k += 1
        codes.append(c)
        progress.append(a)
        progress.append(b)
        if a == n or b == n:
            outcome = Outcome(_KINDS[a != n], k)
            break

    # A win lands on toss k and a repeat is found at toss entry + period == k.
    bound = finite_toss_bound(n)
    if k > bound:
        raise RuntimeError(
            f"{alice.text}/{bob.text}: {outcome.describe()} is past the toss "
            f"bound {bound}"
        )
    return outcome, _trace(bytes(codes), bytes(progress))


def _playout_code(n: int, alice_code: int, bob_code: int) -> tuple[int, int]:
    """One pair's (result, tosses played) by the toss cutoff alone, with
    no repeat check: the oracle of :func:`play` and :func:`_trie_walk`."""
    ca, ra, _ = _tables_for(n, alice_code)
    cb, rb, _ = _tables_for(n, bob_code)
    a = b = 0
    bound = finite_toss_bound(n)
    for k in range(bound):
        c = cb[b] if k & 1 else ca[a]
        a = ra[a][c]
        b = rb[b][c]
        if a == n or b == n:
            return int(a != n), k + 1
    return _NO_WIN, bound


def _trie_walk(
    n: int, own: tuple[int, int], other: tuple[int, int], leaf, owner: int = 0
) -> int:
    """Play every pair of distinct strings of length n that extend the known
    prefixes ``own``, of the ``owner`` seat (0 Alice, 1 Bob), and ``other``,
    each a (code, length) pair, at once.  At each branch end call
    ``leaf(a_code, a_len, b_code, b_len, result, tosses)``, Alice's prefix
    first whatever the owner; a truthy return settles every completion of
    the owner's prefix there.  Return the settled set as a mask over the
    completions of ``own``: bit i is its i-th completion in H < T order.

    The walk keeps a stack of Knuth-Morris-Pratt rows per player, seeded
    with a prefix's rows from :func:`_kmp_tables`, uncached, and plays
    while both progress values lie inside the known prefixes, reading each
    letter from the packed prefix codes.  When one reaches the end of its
    prefix, Alice's checked first, it reads that player's next letter, H
    before T, pushing its row, neither cached nor interned, and popping it
    on the way back; each call carries the prefix lengths and the row each
    player's next state copies, which the builder returns for the seed.  A
    branch ends at a win (``result`` is the winner's seat) or when a
    (progress, progress, turn) triplet repeats on the path (``_NO_WIN``):
    every completion of the two prefixes then plays the same infinite
    game.  So a branch end settles ``1 << (2 * n - a_len - b_len)`` pairs,
    each prefix in H < T order; ``tosses`` counts the path's triplets, one
    per toss played, and its parity says whose turn it is.  The path is an
    insertion-ordered dict, and each call pops the triplets it added.
    Both strings complete on the same toss only when they are identical,
    and that branch calls no leaf.  A prefix given in full is never
    branched on, so a search against a fixed opponent passes the
    opponent's whole string as ``own``.

    The mask prunes: a letter of the owner's splits the settled mask in
    halves, H's low, and skips a child whose half is full; a letter of the
    other seat's passes the mask through both children and stops once it
    is full.  So a leaf that never settles prunes nothing, and a walk with
    one owner string stops at its first settling branch end.
    """
    alice, bob = (other, own) if owner else (own, other)
    path: dict[tuple[int, int, int], None] = {}
    # full[r]: every completion of an owner prefix r letters short of n.
    full = [(1 << (1 << r)) - 1 for r in range(n - own[1] + 1)]

    def walk(p, q, a_code, la, b_code, lb, fa, fb, done: int) -> int:
        # fa and fb are the rows that each player's next state copies.
        k = top = len(path)
        while p < la and q < lb:
            key = (p, q, k & 1)
            if key in path:
                if leaf(a_code, la, b_code, lb, _NO_WIN, k):
                    done = full[n - (lb if owner else la)]
                break
            path[key] = None
            if k & 1:
                c = b_code >> (lb - 1 - q) & 1
            else:
                c = a_code >> (la - 1 - p) & 1
            p = ra[p][c]
            q = rb[q][c]
            k += 1
            if p == n or q == n:
                # p == q only for a string against itself: not a game.
                if p != q and leaf(a_code, la, b_code, lb, int(p != n), k):
                    done = full[n - (lb if owner else la)]
                break
        else:
            seat = p != la  # whose letter is read: Alice's when both are due
            for c in (0, 1):
                # With nothing settled there is no mask to split or pass on.
                sub = done
                if sub:
                    r = n - (lb if owner else la)  # the owner's letters left
                    if seat == owner:  # the H child holds the low half, T the high
                        r -= 1
                        sub = sub >> (c << r) & full[r]
                    if sub == full[r]:
                        continue
                if seat:
                    rb.append((fb[0], lb + 1) if c else (lb + 1, fb[1]))
                    sub = walk(
                        p, q, a_code, la, b_code << 1 | c, lb + 1, fa, rb[fb[c]], sub
                    )
                    rb.pop()
                else:
                    ra.append((fa[0], la + 1) if c else (la + 1, fa[1]))
                    sub = walk(
                        p, q, a_code << 1 | c, la + 1, b_code, lb, ra[fa[c]], fb, sub
                    )
                    ra.pop()
                if sub:  # a child's mask holds the one it was given
                    if seat == owner:
                        sub <<= c << n - (lb if owner else la) - 1
                    done |= sub
        while k > top:  # pop the triplets this call added
            path.popitem()
            k -= 1
        return done

    _, ra, fa = _kmp_tables(alice[1], alice[0])
    _, rb, fb = _kmp_tables(bob[1], bob[0])
    ra, rb = list(ra), list(rb)  # the stacks the walk pushes onto and pops
    return walk(0, 0, alice[0], alice[1], bob[0], bob[1], fa, fb, 0)
