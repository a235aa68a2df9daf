"""Command-line front end.

Four subcommands: ``simulate`` plays one game to its verdict, ``force``
builds a string guaranteeing an outcome against a given opponent,
``enumerate`` sweeps every pair of one or more lengths, and ``verify``
replays the internal consistency suites.  Output is plain text by
default; ``--format json`` emits one machine-readable document, and
``--format csv`` is available for the census sweep.

Exit codes: 0 on success, 1 when a verification sweep reports
violations, 2 on usage errors (including sweeps past the length cap),
3 when a search gives up below its cap, 130 when interrupted (Ctrl-C),
141 when standard output closes early (as in ``| head``).  Output for
a given invocation is byte-identical across runs and thread counts.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import enumeration, forcing
from .analysis import all_predictions
from .engine import MAX_LENGTH, Outcome, Player, TossString, play

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_INCONCLUSIVE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE

def _lengths(raw: str) -> list[int]:
    """Parse ``4`` or an inclusive range ``2..8``."""
    first_text, sep, last_text = raw.partition("..")
    try:
        first = int(first_text)
        last = int(last_text) if sep else first
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a length like 4 or a range like 2..8, got {raw!r}"
        )
    if first < 1 or last < first:
        raise argparse.ArgumentTypeError(f"bad length range {raw!r}")
    if last > MAX_LENGTH:
        raise argparse.ArgumentTypeError(
            f"lengths must be at most {MAX_LENGTH}, got {raw!r}"
        )
    return list(range(first, last + 1))


def _thread_count(raw: str) -> int:
    if raw == "auto":
        return os.cpu_count() or 1
    try:
        count = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"thread count must be a number or 'auto', got {raw!r}"
        )
    if count < 1:
        raise argparse.ArgumentTypeError("thread count must be positive")
    return count


def _search_cap(raw: str) -> int:
    if not raw.isdecimal():
        raise argparse.ArgumentTypeError(
            f"search cap must be 0 (rules only) or a positive number, got {raw!r}"
        )
    return int(raw)


def _sig15(x: float) -> float:
    """Round to 15 significant digits so JSON output is reproducible."""
    return float(f"{x:.15g}")


def _outcome_doc(outcome: Outcome) -> dict:
    if outcome.is_infinite:
        return {
            "kind": outcome.kind.value,
            "entry": outcome.entry,
            "period": outcome.period,
        }
    return {"kind": outcome.kind.value, "tosses": outcome.tosses}


def _emit(docs: list) -> None:
    """One JSON document: the only one, or the list of them."""
    # Imported here: json would slow every text-format command's start-up.
    import json

    print(json.dumps(docs[0] if len(docs) == 1 else docs))


def _cmd_simulate(args: argparse.Namespace) -> int:
    alice = TossString.from_text(args.alice)
    bob = TossString.from_text(args.bob)
    outcome, trace = play(alice, bob)
    predictions = all_predictions(alice, bob) if args.predict else None
    if args.format == "json":
        doc = {
            "alice": alice.text,
            "bob": bob.text,
            "outcome": _outcome_doc(outcome),
            "trace": trace.text,
        }
        if args.states:
            doc["states"] = [[s.a, s.b, s.turn.value, s.k] for s in trace.states]
        if predictions is not None:
            doc["predictions"] = [
                {"rule": p.rule, "kind": p.kind.value, "tosses": p.tosses}
                for p in predictions
            ]
        _emit([doc])
        return EXIT_OK
    print(outcome.describe())
    print(f"trace: {trace.text}")
    if args.states:
        print(
            "states: "
            + ", ".join(
                f"({s.a},{s.b},{s.turn.value},{s.k})" for s in trace.states
            )
        )
    if predictions is not None:
        if predictions:
            for p in predictions:
                count = f" (toss {p.tosses})" if p.tosses is not None else ""
                print(f"predicted: {p.rule} -> {p.kind.value}{count}")
        else:
            print("predicted: none")
    return EXIT_OK


def _cmd_force(args: argparse.Namespace) -> int:
    role = Player.ALICE if args.role == "alice" else Player.BOB
    opponent = TossString.from_text(args.opponent)
    goal = forcing.ForceGoal(args.goal)
    result = forcing.force(role, goal, opponent, cap=args.search_cap)
    if args.format == "json":
        constructed, outcome = result.constructed, result.verified_outcome
        doc = {
            "status": result.status.value,
            "method": result.method,
            "constructed": constructed.text if constructed else None,
            "outcome": _outcome_doc(outcome) if outcome else None,
        }
        _emit([doc])
    elif result.status is forcing.ForceStatus.FOUND:
        print(f"found: {result.constructed.text} via {result.method}")
        print(f"verified: {result.verified_outcome.describe()}")
    elif result.status is forcing.ForceStatus.IMPOSSIBLE:
        print(f"impossible ({result.method})")
    else:
        print(f"unknown: no answer within search cap {args.search_cap}")
    if result.status is forcing.ForceStatus.UNKNOWN:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _census_doc(c: enumeration.OutcomeCensus) -> dict:
    return {
        "n": c.n,
        "total": c.total,
        "bob_wins": c.bob_wins,
        "alice_wins": c.alice_wins,
        "infinite": c.infinite,
        "bob_proportion": _sig15(c.bob_proportion),
        "alice_proportion": _sig15(c.alice_proportion),
        "infinite_proportion": _sig15(c.infinite_proportion),
    }


def _cmd_enumerate(args: argparse.Namespace) -> int:
    cap = enumeration.sweep_cap_from_env()
    workers = args.threads
    # Lengths come in ascending order: checking the longest before the first
    # sweep refuses a bad range without sweeping the lengths in front of it.
    enumeration._check_sweep_args(args.n[-1], cap, workers)
    if args.what == "census":
        rows = [enumeration.census(n, cap=cap, workers=workers) for n in args.n]
        if args.format == "csv":
            print("n,total,bob_wins,alice_wins,infinite")
            for c in rows:
                print(f"{c.n},{c.total},{c.bob_wins},{c.alice_wins},{c.infinite}")
        elif args.format == "json":
            _emit([_census_doc(c) for c in rows])
        else:
            for c in rows:
                print(
                    f"n={c.n}: {c.total} games, {c.bob_wins} bob wins, "
                    f"{c.alice_wins} alice wins, {c.infinite} infinite"
                )
        return EXIT_OK
    if args.format == "csv":
        raise ValueError("csv output is only available for the census")
    if args.what == "longest":
        stats = [enumeration.longest_finite(n, cap=cap, workers=workers) for n in args.n]
        if args.format == "json":
            docs = [
                {
                    "n": s.n,
                    "max_finite_tosses": s.max_finite_tosses,
                    "pairs": [[a.text, b.text] for a, b in s.argmax_pairs],
                }
                for s in stats
            ]
            _emit(docs)
            return EXIT_OK
        for s in stats:
            print(f"n={s.n}: {s.max_finite_tosses}")
        if len(stats) == 1:
            pairs = stats[0].argmax_pairs
            print("pairs: " + ", ".join(f"{a.text}/{b.text}" for a, b in pairs))
        else:
            print("sequence: " + ",".join(str(s.max_finite_tosses) for s in stats))
        return EXIT_OK
    results = [
        (n, enumeration.no_loss_strings(n, cap=cap, workers=workers)) for n in args.n
    ]
    if args.format == "json":
        docs = [{"n": n, "strings": [s.text for s in found]} for n, found in results]
        _emit(docs)
        return EXIT_OK
    for n, found in results:
        print(f"n={n}: " + (", ".join(s.text for s in found) or "(none)"))
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    cap = enumeration.sweep_cap_from_env()
    enumeration._check_sweep_args(args.n[-1], cap, 1)
    suites = (
        enumeration.VERIFY_SUITES if args.suite == "all" else (args.suite,)
    )
    reports = [
        enumeration.verify_suite(n, suite, cap=cap)
        for n in args.n
        for suite in suites
    ]
    if args.format == "json":
        docs = [
            {
                "suite": r.suite,
                "n": r.n,
                "checks": r.checks,
                "violations": list(r.violations),
                "ok": r.ok,
            }
            for r in reports
        ]
        _emit(docs)
    else:
        for r in reports:
            verdict = "ok" if r.ok else "FAILED"
            print(
                f"{r.suite} n={r.n}: {r.checks} checks, "
                f"{len(r.violations)} violations [{verdict}]"
            )
            for line in r.violations[:5]:
                print(f"  {line}")
    return EXIT_OK if all(r.ok for r in reports) else EXIT_VIOLATIONS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="noflip",
        description="Deterministic head/tail string duels: simulate, force, sweep.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="play one game to its verdict")
    sim.add_argument("--alice", required=True, metavar="STRING")
    sim.add_argument("--bob", required=True, metavar="STRING")
    sim.add_argument("--states", action="store_true", help="include the state walk")
    sim.add_argument(
        "--predict", action="store_true", help="show structural predictions too"
    )
    sim.add_argument("--format", choices=("text", "json"), default="text")
    sim.set_defaults(handler=_cmd_simulate)

    frc = sub.add_parser("force", help="construct a string guaranteeing an outcome")
    frc.add_argument("--role", choices=("alice", "bob"), required=True)
    frc.add_argument(
        "--goal", choices=sorted(g.value for g in forcing.ForceGoal), required=True
    )
    frc.add_argument("--opponent", required=True, metavar="STRING")
    frc.add_argument(
        "--search-cap",
        type=_search_cap,
        default=forcing.DEFAULT_SEARCH_CAP,
        metavar="N",
        help="longest length still searched exhaustively when no rule applies",
    )
    frc.add_argument("--format", choices=("text", "json"), default="text")
    frc.set_defaults(handler=_cmd_force)

    enu = sub.add_parser("enumerate", help="sweep every pair of the given lengths")
    enu.add_argument(
        "--n", type=_lengths, required=True, metavar="N[..M]",
        help="string length or inclusive range, e.g. 4 or 1..8",
    )
    enu.add_argument(
        "--what", choices=("census", "longest", "noloss"), default="census"
    )
    enu.add_argument("--format", choices=("text", "json", "csv"), default="text")
    enu.add_argument(
        "--threads", type=_thread_count, default=1, metavar="N|auto",
        help="worker processes for the sweep (results are order-stable)",
    )
    enu.set_defaults(handler=_cmd_enumerate)

    ver = sub.add_parser("verify", help="replay the internal consistency suites")
    ver.add_argument("--n", type=_lengths, required=True, metavar="N[..M]")
    ver.add_argument(
        "--suite",
        choices=enumeration.VERIFY_SUITES + ("all",),
        default="all",
    )
    ver.add_argument("--format", choices=("text", "json"), default="text")
    ver.set_defaults(handler=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        code = args.handler(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        print(f"noflip: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("noflip: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except BrokenPipeError:
        # The reader is gone.  Point stdout at devnull so that the flush at
        # interpreter exit has nowhere to fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    raise SystemExit(main())
