"""Exhaustive sweeps over every ordered pair of strings of one length.

The sweep space for length n is all 2^n * (2^n - 1) ordered pairs of
distinct strings.  A census classifies every pair; other sweeps find
the longest finite games, the strings whose owner can never be handed
a loss, and run verification suites that replay the invariants of the
other modules against brute force.

Census and longest games come from one walk of the engine over both
players' prefixes at once, seeding each player's rows from the engine's
one automaton builder and pushing and popping them as the game reads
letters from the packed prefixes; it calls a game infinite when a (progress,
progress, turn) triplet repeats, and it never plays a string against
itself.  The walk fixes the first string's first letter to H, and
complements cover the rest.  The no-loss sweep and the ``forcing`` suite
read one existence mask: the same walk per chunk, one seat the owner,
marks the owner's strings that some other string meets with a result,
pruning a subtree once all of them are marked.  This module passes string
prefixes and holds no game loop.  The engine's per-pair toss-cutoff
replay (no win within ``finite_toss_bound(n)`` tosses) is the oracle of
the ``bound`` suite only.  Sweeps are embarrassingly parallel, and every
sweep splits the same way: one chunk per H-first prefix of
``_SPLIT_LETTERS`` letters of the first string, whatever the worker
count.  Results merge in prefix order, so parallel and sequential runs
produce identical output.  Pair iteration is in lexicographic order with
H < T.

The verify suites share work across pairs: ``symmetry`` plays each
complement class once, from its H-first pair, and reports a fault on both
pairs; ``bound`` asks the scan oracle once per (string, toss prefix) per run.
"""

from __future__ import annotations

import os
from functools import lru_cache, partial
from itertools import permutations

from .engine import (
    MAX_LENGTH,
    Player,
    TossString,
    _ALICE_WIN,
    _KINDS,
    _NO_WIN,
    _TURNS,
    _Record,
    _playout_code,
    _trie_walk,
    finite_toss_bound,
    play,
    scan_progress,
)
from . import forcing
from .analysis import all_predictions

DEFAULT_SWEEP_CAP = 14
SWEEP_CAP_ENV = "NOFLIP_SWEEP_CAP"


def _check_sweep_args(n: int, cap: int, workers: int) -> None:
    if not 1 <= n <= MAX_LENGTH:
        raise ValueError(f"string length must be 1..{MAX_LENGTH}, got {n}")
    if n > cap:
        raise ValueError(
            f"length {n} exceeds the sweep cap {cap}; pass cap={n} to the library "
            f"call, or set {SWEEP_CAP_ENV}={n} for the noflip command, if you "
            f"really want 4^{n} games"
        )
    if workers < 1:
        raise ValueError(f"worker count must be positive, got {workers}")


#: Letters of Alice's string, H first, that each sweep chunk fixes in advance:
#: a fixed split, so the chunks and their merge do not depend on the workers.
_SPLIT_LETTERS = 4


def _run_chunks(worker, n: int, workers: int) -> list:
    """Run ``worker`` on each task ``(n, prefix, length)``, one per H-first
    prefix of Alice's string of ``length = min(n, _SPLIT_LETTERS)``
    letters, and return the results in prefix order."""
    length = min(n, _SPLIT_LETTERS)
    tasks = [(n, prefix, length) for prefix in range(1 << (length - 1))]
    size = min(workers, len(tasks), os.cpu_count() or 1)
    if size == 1:
        return [worker(task) for task in tasks]
    # Imported here: multiprocessing would slow every command's start-up.
    import signal
    from concurrent.futures import ProcessPoolExecutor

    # Ctrl-C ends every worker quietly, even an idle one, which would print
    # a traceback.  The pool then marks the pending futures broken, which on
    # Python 3.11 raises for a cancelled one, so none is cancelled, as an
    # interrupted ``map`` would.  Results come back in task order.
    with ProcessPoolExecutor(
        size, initializer=signal.signal, initargs=(signal.SIGINT, signal.SIG_DFL)
    ) as pool:
        futures = [pool.submit(worker, task) for task in tasks]
        return [future.result() for future in futures]


def _sweep_chunk(args: tuple[int, int, int]) -> tuple[list[int], int, list]:
    """Outcome counts, the longest finite game and the branch ends that
    reach it, over the pairs whose first string extends one prefix, by one
    walk over both players' prefixes."""
    n, prefix, length = args
    counts = [0, 0, 0]  # indexed by _ALICE_WIN, _BOB_WIN, _NO_WIN
    best = 0
    at_best: list[tuple[int, int, int, int]] = []  # (a_code, a_len, b_code, b_len)

    def leaf(a_code, a_len, b_code, b_len, result: int, tosses: int) -> None:
        nonlocal best
        counts[result] += 1 << (2 * n - a_len - b_len)
        if result == _NO_WIN or tosses < best:
            return
        if tosses > best:
            best = tosses
            at_best.clear()
        at_best.append((a_code, a_len, b_code, b_len))

    _trie_walk(n, (prefix, length), (0, 0), leaf)
    return counts, best, at_best


def _sweep(n: int, cap: int, workers: int) -> tuple[list[int], int, list]:
    """One pass over every ordered pair of distinct strings of length n:
    outcome counts, the longest finite game and its witness code pairs.

    The walk fixes Alice's first letter to H; complementing both strings
    mirrors a game, so every count doubles."""
    _check_sweep_args(n, cap, workers)
    chunks = _run_chunks(_sweep_chunk, n, workers)
    counts = [2 * sum(c[0][result] for c in chunks) for result in range(3)]
    best = max(c[1] for c in chunks)
    # Witnesses: every completion of each longest-game branch end, and its complement.
    mask = (1 << n) - 1
    witnesses = []
    ends = [end for c in chunks if c[1] == best for end in c[2]]
    for a_code, a_len, b_code, b_len in ends:
        sa, sb = n - a_len, n - b_len
        for a in range(a_code << sa, (a_code + 1) << sa):
            for b in range(b_code << sb, (b_code + 1) << sb):
                witnesses += (a, b), (a ^ mask, b ^ mask)
    witnesses.sort()
    return counts, best, witnesses


# ---------------------------------------------------------------------------
# census


class OutcomeCensus(_Record):
    """Exact outcome counts over all ordered pairs of one length."""

    __slots__ = ("n", "total", "alice_wins", "bob_wins", "infinite")
    n: int
    total: int
    alice_wins: int
    bob_wins: int
    infinite: int

    @property
    def alice_proportion(self) -> float:
        return self.alice_wins / self.total

    @property
    def bob_proportion(self) -> float:
        return self.bob_wins / self.total

    @property
    def infinite_proportion(self) -> float:
        return self.infinite / self.total


def census(
    n: int, *, cap: int = DEFAULT_SWEEP_CAP, workers: int = 1
) -> OutcomeCensus:
    """Count the outcome of every ordered pair of distinct strings."""
    alice, bob, infinite = _sweep(n, cap, workers)[0]
    size = 1 << n
    return OutcomeCensus(n, size * (size - 1), alice, bob, infinite)


# ---------------------------------------------------------------------------
# longest finite games


class LengthStats(_Record):
    """The longest finite games of one length and the pairs achieving it."""

    __slots__ = ("n", "max_finite_tosses", "argmax_pairs")
    n: int
    max_finite_tosses: int
    argmax_pairs: tuple[tuple[TossString, TossString], ...]


def longest_finite(
    n: int, *, cap: int = DEFAULT_SWEEP_CAP, workers: int = 1
) -> LengthStats:
    """Longest finite playout over all pairs, with every witness pair."""
    _, best, witnesses = _sweep(n, cap, workers)
    pairs = tuple((TossString(n, ai), TossString(n, bi)) for ai, bi in witnesses)
    return LengthStats(n, best, pairs)


# ---------------------------------------------------------------------------
# existence masks and no-loss strings


def _reach_chunk(owner: int, result: int, task: tuple[int, int, int]) -> int:
    """The ``owner`` seat's strings that some string in the other seat
    meets with ``result``, over the pairs whose Alice string extends one
    prefix: a mask over all 2^n owner strings, from one walk."""
    n, prefix, length = task

    def meets(a_code, a_len, b_code, b_len, got: int, tosses: int) -> bool:
        return got == result

    mask = _trie_walk(n, (prefix, length), (0, 0), meets, owner)
    # An Alice-owned walk masks only the completions of its prefix.
    return mask if owner else mask << (prefix << (n - length))


def _reached(n: int, owner: int, result: int, workers: int) -> int:
    """Mask over all 2^n strings of the ``owner`` seat (0 Alice, 1 Bob):
    bit s is set when some string in the other seat meets s with
    ``result``.  The walk fixes Alice's first letter to H; complementing
    both strings mirrors a game, so the mask's bits reversed cover the rest."""
    mask = 0
    for chunk in _run_chunks(partial(_reach_chunk, owner, result), n, workers):
        mask |= chunk
    return mask | int(f"{mask:0{1 << n}b}"[::-1], 2)


def no_loss_strings(
    n: int, *, cap: int = DEFAULT_SWEEP_CAP, workers: int = 1
) -> list[TossString]:
    """Alice strings (starting with H, non-constant) that no opponent
    string can ever make win: against them, the second player cannot
    throw the game."""
    _check_sweep_args(n, cap, workers)
    reached = _reached(n, 0, _ALICE_WIN, workers)
    codes = range(1, 1 << (n - 1))  # H-first, non-constant
    return [TossString(n, code) for code in codes if not reached >> code & 1]


# ---------------------------------------------------------------------------
# verification suites


class VerifyReport(_Record):
    """Result of one verification sweep."""

    __slots__ = ("suite", "n", "checks", "violations")
    suite: str
    n: int
    checks: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


_FORBIDDEN = {(0, 0, 1), (0, 1, 1), (1, 0, 0)}  # (a, b, seat to move)
_FLIP = bytes.maketrans(b"\0\1", b"\1\0")  # complement of packed toss codes


def _pair_suite(check, n: int) -> tuple[int, list[str]]:
    """Run a per-pair check on every ordered pair, each pair one check;
    every reason the check yields is a violation labelled with the pair."""
    strings = [TossString(n, code) for code in range(1 << n)]
    violations = [
        f"{alice.text}/{bob.text}: {reason}"
        for alice, bob in permutations(strings, 2)
        for reason in check(alice, bob)
    ]
    size = 1 << n
    return size * (size - 1), violations


def _bound_suite(n: int) -> tuple[int, list[str]]:
    """The bound check on every pair, asking the scan oracle once per
    (string, toss prefix) however many games reach it."""
    scan = lru_cache(maxsize=None)(scan_progress)
    return _pair_suite(partial(_bound_check, scan=scan), n)


def _bound_check(alice: TossString, bob: TossString, scan):
    """The counting bound, agreement of the repeated-state and toss-cutoff
    classifiers, forbidden states, mover increments, and (for n <= 6) the
    direct-scan progress oracle ``scan``."""
    n = alice.length
    bound = finite_toss_bound(n)
    outcome, trace = play(alice, bob)
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
    # One pass over the packed (a, b) pairs, the pair after toss k at
    # 2k; each check's reasons are yielded in turn.
    moves: list[str] = []
    forbidden: list[str] = []
    scans: list[str] = []
    oracle = n <= 6
    if oracle:
        text, a_text, b_text = trace.text, alice.text, bob.text
    pairs = iter(trace.progress)
    last_a = last_b = 0
    for k, (a, b) in enumerate(zip(pairs, pairs)):
        seat = k & 1  # to move next; the mover of toss k sat in the other seat
        if k:
            moved = a - last_a if seat else b - last_b
            if moved != 1:
                moves.append(f"mover progress changed by {moved}")
        if (a, b, seat) in _FORBIDDEN:
            forbidden.append(f"forbidden state {(a, b, _TURNS[seat].value)}")
        if oracle:
            output = text[:k]
            if a != scan(a_text, output) or b != scan(b_text, output):
                scans.append("automaton disagrees with scan oracle")
        last_a, last_b = a, b
    yield from moves
    yield from forbidden
    yield from scans


def _predicates_check(alice: TossString, bob: TossString):
    """Every fired prediction must match the real playout, counts included,
    and predictions fired on the same pair must agree with each other."""
    fired = all_predictions(alice, bob)
    if not fired:
        return
    outcome, _ = play(alice, bob)
    if len({p.kind for p in fired}) > 1:
        yield "predictions disagree with each other"
    for p in fired:
        if p.kind is not outcome.kind:
            yield f"{p.rule} predicted {p.kind.value}"
        elif p.tosses is not None and p.tosses != outcome.tosses:
            yield f"{p.rule} predicted toss {p.tosses}, got {outcome.tosses}"


def _forcing_suite(n: int) -> tuple[int, list[str]]:
    """Run all six forcing operations against every opponent string and
    cross-check: FOUND strings must verify (and respect the win-count
    bounds), and IMPOSSIBLE answers must leave the opponent clear in the
    existence mask of the goal, built once per (role, goal) per run."""
    checks = 0
    violations: list[str] = []
    reached: dict[tuple[Player, forcing.ForceGoal], int] = {}
    for code in range(1 << n):
        opponent = TossString(n, code)
        for (role, goal), op in forcing._FORCERS.items():
            checks += 1
            label = f"{op.__name__}({opponent.text})"
            try:
                result = op(opponent)
            except Exception as exc:  # a construction bug is a violation
                violations.append(f"{label}: raised {exc!r}")
                continue
            if result.status is forcing.ForceStatus.UNKNOWN:
                violations.append(f"{label}: unknown below the search cap")
            elif result.status is forcing.ForceStatus.FOUND:
                outcome = result.verified_outcome
                if outcome.kind is not forcing._GOAL_KINDS[role, goal]:
                    violations.append(f"{label}: outcome {outcome.kind.value}")
                if goal is forcing.ForceGoal.WIN:
                    limit = n if role is Player.ALICE else n + 1
                    if outcome.tosses > limit:
                        violations.append(f"{label}: win too late ({outcome.tosses})")
            else:
                if (role, goal) not in reached:
                    seat = int(role is Player.ALICE)  # the opponent's
                    wanted = _KINDS.index(forcing._GOAL_KINDS[role, goal])
                    reached[role, goal] = _reached(n, seat, wanted, 1)
                if reached[role, goal] >> code & 1:
                    violations.append(f"{label}: impossible but a forcer exists")
    return checks, violations


def _symmetry_suite(n: int) -> tuple[int, list[str]]:
    """Complementing both strings must mirror the playout exactly.

    Both conditions read the same from a pair and from its mirror, so each
    complement class is played once, from the pair whose first string
    starts with H, and each reason is a violation of both pairs."""
    size = 1 << n
    mask = size - 1
    strings = [TossString(n, code) for code in range(size)]
    found = []  # (alice code, bob code, reason)
    for a in range(size >> 1):
        for b in range(size):
            if a == b:
                continue
            outcome, trace = play(strings[a], strings[b])
            mirrored, mirrored_trace = play(strings[a ^ mask], strings[b ^ mask])
            reasons = []
            if mirrored != outcome:
                reasons.append("outcome changes under complementation")
            if mirrored_trace.codes != trace.codes.translate(_FLIP):
                reasons.append("trace does not mirror under complementation")
            for reason in reasons:
                found += (a, b, reason), (a ^ mask, b ^ mask, reason)
    # Stable: back into pair order, each pair's reasons in check order.
    found.sort(key=lambda v: v[:2])
    violations = [f"{strings[a].text}/{strings[b].text}: {r}" for a, b, r in found]
    return size * (size - 1), violations


_SUITES = {
    "bound": _bound_suite,
    "predicates": partial(_pair_suite, _predicates_check),
    "forcing": _forcing_suite,
    "symmetry": _symmetry_suite,
}
VERIFY_SUITES = tuple(_SUITES)


def verify_suite(
    n: int, suite: str, *, cap: int = DEFAULT_SWEEP_CAP
) -> VerifyReport:
    """Run one verification sweep; see :data:`VERIFY_SUITES` for names."""
    _check_sweep_args(n, cap, 1)
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {VERIFY_SUITES}")
    checks, violations = _SUITES[suite](n)
    return VerifyReport(suite, n, checks, tuple(violations))


def sweep_cap_from_env() -> int:
    """The sweep cap, honoring the NOFLIP_SWEEP_CAP override."""
    raw = os.environ.get(SWEEP_CAP_ENV)
    if raw is None:
        return DEFAULT_SWEEP_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{SWEEP_CAP_ENV} must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError(f"{SWEEP_CAP_ENV} must be positive, got {cap}")
    return cap
