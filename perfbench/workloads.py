"""The four benchmark workloads and their input generators.

Each workload is a closed loop with one client: a stream of rounds,
each a fixed mix of library requests generated from the seed alone.
A workload knows how to run one request (with a span around every call
into a noflip layer), how to check every output outside the timed
region, which CLI command is its headline, and which per-layer numbers
it yields.  Why each one exists is in METRICS.md.
"""

from __future__ import annotations

import random
import statistics
from time import perf_counter_ns

import noflip
from noflip import ForceGoal, Player, TossString

_BIN = str.maketrans("01", "HT")
_BITS = str.maketrans("HT", "01")
_SWAP = str.maketrans("HT", "TH")

_WANTED = {
    (Player.ALICE, ForceGoal.WIN): "alice_wins",
    (Player.ALICE, ForceGoal.LOSS): "bob_wins",
    (Player.ALICE, ForceGoal.INFINITE_GAME): "infinite",
    (Player.BOB, ForceGoal.WIN): "bob_wins",
    (Player.BOB, ForceGoal.LOSS): "alice_wins",
    (Player.BOB, ForceGoal.INFINITE_GAME): "infinite",
}


def median(values):
    return statistics.median(values) if values else float("nan")


def quantile(values, q: int):
    """The q-th percentile, as statistics.quantiles(n=100) gives it."""
    if len(values) < 2:
        return float(values[0]) if values else float("nan")
    return statistics.quantiles(values, n=100)[q - 1]


def random_text(rng: random.Random, n: int) -> str:
    return format(rng.getrandbits(n), f"0{n}b").translate(_BIN)


def comp(letter: str) -> str:
    return "T" if letter == "H" else "H"


def first_double(text: str) -> int | None:
    """0-based index i of the first i with text[i] == text[i + 1]."""
    for i in range(len(text) - 1):
        if text[i] == text[i + 1]:
            return i
    return None


def replay(alice: str, bob: str):
    """Reference playout: progress by :func:`noflip.scan_progress` after
    every toss and an own repeated-state check.  Returns the outcome as
    (kind, tosses, entry, period), the toss text and the (a, b) progress
    of every state, flattened into bytes."""
    n = len(alice)
    out = ""
    a = b = k = 0
    seen: dict[tuple[int, int, int], int] = {}
    states = [0, 0]
    while True:
        key = (a, b, k & 1)
        if key in seen:
            return ("infinite", None, seen[key], k - seen[key]), out, bytes(states)
        seen[key] = k
        out += alice[a] if k % 2 == 0 else bob[b]
        k += 1
        a = noflip.scan_progress(alice, out)
        b = noflip.scan_progress(bob, out)
        states += (a, b)
        if a == n:
            return ("alice_wins", k, None, None), out, bytes(states)
        if b == n:
            return ("bob_wins", k, None, None), out, bytes(states)


def outcome_key(outcome) -> tuple:
    return (outcome.kind.value, outcome.tosses, outcome.entry, outcome.period)


class Call:
    """One timed request: its round, request, latency, checked output
    summary, and the duration of every layer span inside it."""

    __slots__ = ("round", "req", "ns", "out", "layer")

    def __init__(self, rnd, req, ns, out, layer):
        self.round = rnd
        self.req = req
        self.ns = ns
        self.out = out
        self.layer = layer


class Workload:
    name = ""
    #: share of the measured window given to CLI processes
    cli_share = 0.25
    #: rounds always run; counts in the per-layer metrics cover exactly these
    fixed_rounds = 1
    #: requests timed and checked but left out of the round's time
    off_round = ()
    #: statement run after ``import noflip`` to fill lazy caches in set-up
    warmup = ""

    def __init__(self, seed: int, ref: dict):
        self.seed = seed
        self.ref = ref

    def rng(self, *salt) -> random.Random:
        return random.Random(":".join(map(str, (self.name, self.seed) + salt)))

    def requests(self, i: int) -> list:
        raise NotImplementedError

    def call(self, req, tracer, rid, root):
        """Run one request; returns (raw result, {span name: ns})."""
        raise NotImplementedError

    def summarize(self, req, raw):
        """Reduce a raw result to what the checks need (outside timing)."""
        raise NotImplementedError

    def check(self, calls: list[Call]) -> int:
        """How many of one round's calls gave a wrong output; runs after
        the round, outside its timing."""
        raise NotImplementedError

    def final_failures(self) -> int:
        """Calls found wrong by checks that wait for the end of the run."""
        return 0

    def reference_ops(self) -> tuple[int, int]:
        """(attempted, failed) for re-running the pinned reference set."""
        return 0, 0

    def cli(self, j: int) -> tuple[list[str], str]:
        """The j-th headline CLI call: arguments and the expected stdout."""
        raise NotImplementedError

    def cli_in_process(self, j: int) -> None:
        """The library work that the j-th CLI call does."""
        raise NotImplementedError

    def named(self, sample: list[Call], round_ns: list[int]) -> dict:
        """The workload's own end-to-end figures, {name: (value, unit)},
        from a uniform sample of the calls and every round's wall time."""
        return {}

    def layer_metrics(self, sample: list[Call], fixed: list[Call]) -> dict:
        """Per-layer metrics from a uniform sample of the calls and every
        call of the fixed rounds."""
        return {}


# ---------------------------------------------------------------------------
# sweep


class Sweep(Workload):
    """census, longest and no-loss at one length, and census on 2 workers."""

    name = "sweep"
    N = 7
    KINDS = ("census", "census_2w", "longest", "noloss")
    cli_share = 0.3
    # The two workers' time depends on how fast the machine's other CPU
    # is, which the reference loop does not see: between two sets of ten
    # runs its median moved from 55 to 33 ms while the rest stood still.
    # It is reported as census_2w_s but kept out of round_s.
    off_round = ("census_2w",)
    warmup = f"noflip.no_loss_strings({N})"

    def requests(self, i):
        kinds = list(self.KINDS)
        self.rng(i).shuffle(kinds)
        return kinds

    def call(self, kind, tracer, rid, root):
        n = self.N
        with tracer.span("enumeration." + kind, rid, root) as s:
            if kind == "census":
                raw = noflip.census(n)
            elif kind == "census_2w":
                raw = noflip.census(n, workers=2)
            elif kind == "longest":
                raw = noflip.longest_finite(n)
            else:
                raw = noflip.no_loss_strings(n)
        return raw, {s.name: s.ns}

    def summarize(self, kind, raw):
        if kind.startswith("census"):
            return [raw.n, raw.total, raw.alice_wins, raw.bob_wins, raw.infinite]
        if kind == "longest":
            return [raw.max_finite_tosses, [[a.text, b.text] for a, b in raw.argmax_pairs]]
        return [s.text for s in raw]

    def check(self, calls):
        ref = self.ref["sweep"]
        want = {
            "census": ref["census"], "census_2w": ref["census"],
            "longest": ref["longest"], "noloss": ref["noloss"],
        }
        return sum(c.out != want[c.req] for c in calls)

    def reference_ops(self):
        """The sweep at n=8 once, against its pinned values: at n=7 no
        string is loss-free, so the stream never sees a non-empty no-loss
        answer."""
        ref = self.ref["sweep_n8"]
        got = {
            "census": noflip.census(8),
            "longest": noflip.longest_finite(8),
            "noloss": noflip.no_loss_strings(8),
        }
        return len(got), sum(self.summarize(k, v) != ref[k] for k, v in got.items())

    def cli(self, j):
        return ["enumerate", "--n", str(self.N)], self.ref["sweep"]["cli_stdout"]

    def cli_in_process(self, j):
        noflip.census(self.N)

    def _medians(self, calls):
        return {
            k: median([c.ns for c in calls if c.req == k]) / 1e9 for k in self.KINDS
        }

    def named(self, sample, round_ns):
        m = self._medians(sample)
        return {f"{k}_s": (m[k], "s") for k in self.KINDS}

    def layer_metrics(self, sample, fixed):
        n = self.N
        m = self._medians(sample)
        pairs = (1 << n) * ((1 << n) - 1)
        return {
            "enumeration.census_pairs_per_s": (pairs / m["census"], "1/s"),
            "enumeration.longest_pairs_per_s": (pairs / m["longest"], "1/s"),
            "enumeration.noloss_strings_per_s": (
                ((1 << (n - 1)) - 1) / m["noloss"], "1/s"),
            "enumeration.pool_speedup": (m["census"] / m["census_2w"], "ratio"),
        }


# ---------------------------------------------------------------------------
# games


class Games(Workload):
    """play plus all_predictions on a seeded stream of pairs, lengths 4..63.

    The pool holds POOL pairs, a third of each kind.  Their 6,600 or so
    distinct strings outnumber the engine's 4096-entry automaton cache,
    so requests both hit and miss it."""

    name = "games"
    POOL = 4096
    ROUND = 64
    LENGTHS = (4, 63)
    fixed_rounds = 8
    warmup = (
        "a, b = noflip.TossString.from_text('HHTHTTHT'), "
        "noflip.TossString.from_text('THHTHTTH'); "
        "noflip.play(a, b); noflip.all_predictions(a, b)"
    )

    def __init__(self, seed, ref):
        super().__init__(seed, ref)
        rng = self.rng("pool")
        self.pool = []  # (alice, bob, kind, expected outcome kind or None)
        for i in range(self.POOL):
            alice, bob, expected = self._pair(rng, i % 3)
            self.pool.append(
                (TossString.from_text(alice), TossString.from_text(bob),
                 ("uniform", "forced-win", "forced-infinite")[i % 3], expected)
            )
        self.seen: dict[int, tuple] = {}  # first result of each pair
        self.calls_per_pair = [0] * self.POOL

    def _pair(self, rng, kind):
        n = rng.randint(*self.LENGTHS)
        while True:
            x, y = random_text(rng, n), random_text(rng, n)
            d = first_double(x)
            if kind == 0 and x != y:
                return x, y, None
            if kind == 1 and rng.getrandbits(1):
                # Alice flips Bob's first letter and copies his prefix.
                return comp(x[0]) + x[:-1], x, "alice_wins"
            if kind == 1:
                # Bob breaks Alice's first double (or doubles her first
                # letter if she alternates) and copies her prefix behind it.
                bob = x[0] + x[:-1] if d is None else comp(x[d]) + x[:-1]
                return x, bob, "bob_wins"
            if kind == 2 and d is not None:
                # The constant string of the letter opposite her first
                # double stalls any opponent with a double.
                own = comp(x[d]) * n
                return (x, own, "infinite") if rng.getrandbits(1) else (own, x, "infinite")

    def requests(self, i):
        rng = self.rng(i)
        return [rng.randrange(self.POOL) for _ in range(self.ROUND)]

    def call(self, idx, tracer, rid, root):
        alice, bob = self.pool[idx][:2]
        with tracer.span("engine.play", rid, root) as sp:
            outcome, trace = noflip.play(alice, bob)
        with tracer.span("analysis.predict", rid, root) as sq:
            fired = noflip.all_predictions(alice, bob)
        return (outcome, trace, fired), {sp.name: sp.ns, sq.name: sq.ns}

    def summarize(self, idx, raw):
        outcome, trace, fired = raw
        states = []
        ordered = True
        for k, s in enumerate(trace.states):
            states += (s.a, s.b)
            ordered &= s.k == k and (s.turn is Player.ALICE) == (k % 2 == 0)
        fp = (
            outcome_key(outcome), trace.text, bytes(states), ordered,
            tuple((p.rule, p.kind.value, p.tosses) for p in fired),
        )
        same = self.seen.setdefault(idx, fp) == fp
        self.calls_per_pair[idx] += 1
        return (same, len(trace.tosses), outcome.is_infinite, bool(fired))

    def check(self, calls):
        """A repeated pair must give the identical result; first results
        are replayed at the end."""
        return sum(not c.out[0] for c in calls)

    def final_failures(self):
        failed = 0
        for idx, (key, text, states, ordered, fired) in self.seen.items():
            alice, bob, _, expected = self.pool[idx]
            ref_key, ref_text, ref_states = replay(alice.text, bob.text)
            sound = all(
                k == ref_key[0] and (t is None or t == ref_key[1]) for _, k, t in fired
            )
            if (key, text, states) != (ref_key, ref_text, ref_states) or not (
                ordered and sound and expected in (None, ref_key[0])
            ):
                failed += self.calls_per_pair[idx]
        return failed

    def cli(self, j):
        alice, bob, stdout = self.ref["games"]["cli"][j % len(self.ref["games"]["cli"])]
        return ["simulate", "--alice", alice, "--bob", bob, "--predict"], stdout

    def cli_in_process(self, j):
        alice, bob, _ = self.ref["games"]["cli"][j % len(self.ref["games"]["cli"])]
        a, b = TossString.from_text(alice), TossString.from_text(bob)
        noflip.play(a, b)
        noflip.all_predictions(a, b)

    def named(self, sample, round_ns):
        play = [c.layer["engine.play"] / 1e3 for c in sample]
        return {
            "play_us_p50": (median(play), "us"),
            "play_us_p99": (quantile(play, 99), "us"),
        }

    def layer_metrics(self, sample, fixed):
        play_ns = sum(c.layer["engine.play"] for c in sample)
        tosses = sum(c.out[1] for c in sample)
        strings = list(dict.fromkeys(s for p in self.pool for s in p[:2]))[:1000]
        build = []
        for s in strings:
            t = perf_counter_ns()
            noflip.ProgressAutomaton.build(s)
            build.append(perf_counter_ns() - t)
        return {
            "engine.play_calls": (len(fixed), "count"),
            "engine.tosses": (sum(c.out[1] for c in fixed), "count"),
            "engine.infinite_share": (
                sum(c.out[2] for c in fixed) / len(fixed), "ratio"),
            "engine.ns_per_toss": (play_ns / tosses, "ns"),
            "engine.automaton_build_us_p50": (median(build) / 1e3, "us"),
            "analysis.predict_us_p50": (
                median([c.layer["analysis.predict"] for c in sample]) / 1e3, "us"),
            "analysis.fired_ratio": (
                sum(c.out[3] for c in fixed) / len(fixed), "ratio"),
        }


# ---------------------------------------------------------------------------
# force


class Force(Workload):
    """force over every role and goal at lengths 4..CAP+4, plus requests
    that must fall to the exhaustive search, plus one IMPOSSIBLE request
    at the cap that scans every candidate."""

    name = "force"
    CAP = 12
    GENERAL, SEARCH, WORST = 48, 8, 1
    #: length of the search-path requests; a single length keeps their
    #: latencies dense around p90
    SEARCH_N = 10
    fixed_rounds = 4
    warmup = (
        "s = noflip.TossString.from_text('HTTHHTHTH'); "
        "[noflip.force(r, g, s, cap=12) for r in noflip.Player for g in noflip.ForceGoal]"
    )

    def requests(self, i):
        rng = self.rng(i)
        reqs = []
        for _ in range(self.GENERAL):
            n = rng.randint(4, self.CAP + 4)
            reqs.append((rng.choice(list(Player)), rng.choice(list(ForceGoal)),
                         random_text(rng, n), "general"))
        for _ in range(self.SEARCH):
            # Bob's forced loss against an even-length, non-constant
            # opponent whose leading run is even: no rule applies.
            while True:
                text = random_text(rng, self.SEARCH_N)
                run = len(text) - len(text.lstrip(text[0]))
                if run % 2 == 0 and run < self.SEARCH_N:
                    break
            reqs.append((Player.BOB, ForceGoal.LOSS, text, "search"))
        for _ in range(self.WORST):
            text = rng.choice(self.ref["force"]["no_loss_at_cap"])
            if rng.getrandbits(1):
                text = text.translate(_SWAP)
            reqs.append((Player.BOB, ForceGoal.LOSS, text, "worst"))
        rng.shuffle(reqs)
        return [(r, g, TossString.from_text(t), kind) for r, g, t, kind in reqs]

    def call(self, req, tracer, rid, root):
        role, goal, opponent, _ = req
        with tracer.span("forcing.force", rid, root) as s:
            raw = noflip.force(role, goal, opponent, cap=self.CAP)
        return raw, {s.name: s.ns}

    def summarize(self, req, raw):
        outcome = raw.verified_outcome
        return (
            raw.status.value, raw.method,
            raw.constructed.text if raw.constructed else None,
            outcome_key(outcome) if outcome else None,
        )

    def _bad(self, req, out) -> bool:
        role, goal, opponent, kind = req
        status, method, text, key = out
        if status == "unknown":
            return opponent.length <= self.CAP
        if kind == "worst":
            return (status, method) != ("impossible", "exhaustive-search")
        if status == "impossible":
            return False
        if text is None or len(text) != opponent.length or text == opponent.text:
            return True
        if role is Player.ALICE:
            ref_key = replay(text, opponent.text)[0]
        else:
            ref_key = replay(opponent.text, text)[0]
        return ref_key != key or ref_key[0] != _WANTED[role, goal]

    def check(self, calls):
        return sum(self._bad(c.req, c.out) for c in calls)

    def reference_ops(self):
        ref = self.ref["force"]["reference"]
        failed = 0
        for role, goal, opponent, status, method, text in ref:
            r = noflip.force(Player(role), ForceGoal(goal),
                             TossString.from_text(opponent), cap=self.CAP)
            got = (r.status.value, r.method, r.constructed.text if r.constructed else None)
            failed += got != (status, method, text)
        return len(ref), failed

    def cli(self, j):
        role, goal, opponent, stdout = self.ref["force"]["cli"][j % len(self.ref["force"]["cli"])]
        return ["force", "--role", role, "--goal", goal, "--opponent", opponent,
                "--search-cap", str(self.CAP)], stdout

    def cli_in_process(self, j):
        role, goal, opponent, _ = self.ref["force"]["cli"][j % len(self.ref["force"]["cli"])]
        noflip.force(Player.ALICE if role == "alice" else Player.BOB,
                     {"win": ForceGoal.WIN, "loss": ForceGoal.LOSS,
                      "infinite": ForceGoal.INFINITE_GAME}[goal],
                     TossString.from_text(opponent), cap=self.CAP)

    def named(self, sample, round_ns):
        ms = [c.ns / 1e6 for c in sample]
        return {
            "force_ms_p50": (median(ms), "ms"),
            "force_ms_p90": (quantile(ms, 90), "ms"),
            "force_worst_s": (
                median([c.ns for c in sample if c.req[3] == "worst"]) / 1e9, "s"),
        }

    @staticmethod
    def candidates(req, out) -> int:
        """Candidates the search scanned, read off the answer: the rank of
        the constructed string in the normalized H<T order, or all of
        them for IMPOSSIBLE."""
        opponent = req[2]
        n = opponent.length
        if out[0] == "impossible":
            return (1 << n) - 1
        mask = (1 << n) - 1 if opponent.text[0] == "T" else 0
        code = int(out[2].translate(_BITS), 2) ^ mask
        return code + 1 - ((opponent.bits ^ mask) < code)

    def layer_metrics(self, sample, fixed):
        def searched(c):
            return c.out[1] == "exhaustive-search" and c.out[0] != "unknown"

        search = [c for c in sample if searched(c)]
        return {
            "forcing.rule_ms_p50": (
                median([c.ns for c in sample if c.out[1] != "exhaustive-search"]) / 1e6,
                "ms"),
            "forcing.search_ms_p50": (median([c.ns for c in search]) / 1e6, "ms"),
            "forcing.search_candidates": (
                sum(self.candidates(c.req, c.out) for c in fixed if searched(c)), "count"),
            "forcing.search_us_per_candidate": (
                sum(c.ns for c in search) / 1e3
                / sum(self.candidates(c.req, c.out) for c in search), "us"),
            "forcing.search_share": (len(search) / len(sample), "ratio"),
            "forcing.unknown_share": (
                sum(c.out[0] == "unknown" for c in sample) / len(sample), "ratio"),
        }


# ---------------------------------------------------------------------------
# verify


class Verify(Workload):
    """The four verification suites at one small length."""

    name = "verify"
    N = 5
    cli_share = 0.3
    warmup = "[noflip.verify_suite(3, s) for s in noflip.VERIFY_SUITES]"

    def requests(self, i):
        suites = list(noflip.VERIFY_SUITES)
        self.rng(i).shuffle(suites)
        return suites

    def call(self, suite, tracer, rid, root):
        with tracer.span("enumeration.verify_" + suite, rid, root) as s:
            raw = noflip.verify_suite(self.N, suite)
        return raw, {s.name: s.ns}

    def summarize(self, suite, raw):
        return (raw.suite, raw.n, raw.checks, raw.ok)

    def check(self, calls):
        checks = self.ref["verify"]["checks"]
        return sum(c.out != (c.req, self.N, checks[c.req], True) for c in calls)

    def cli(self, j):
        return ["verify", "--n", str(self.N)], self.ref["verify"]["cli_stdout"]

    def cli_in_process(self, j):
        for suite in noflip.VERIFY_SUITES:
            noflip.verify_suite(self.N, suite)

    def named(self, sample, round_ns):
        # A round is one pass of the four suites.
        return {"verify_s": (median(round_ns) / 1e9, "s")}

    def layer_metrics(self, sample, fixed):
        out = {
            f"enumeration.verify_{s}_s": (
                median([c.ns for c in sample if c.req == s]) / 1e9, "s")
            for s in noflip.VERIFY_SUITES
        }
        out["enumeration.verify_checks"] = (sum(c.out[2] for c in fixed), "count")
        return out


WORKLOADS = {cls.name: cls for cls in (Sweep, Games, Force, Verify)}
