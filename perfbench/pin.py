"""Write perfbench/reference.json: the outputs every benchmark run checks.

Run from the repository root (takes about two minutes):

    python3 perfbench/pin.py

The sweep values come from noflip's cutoff kernel (census, longest_finite,
no_loss_strings) and are confirmed here by recounting every ordered pair
with ``play``, whose repeated-state classifier shares no code with that
kernel.  The no-loss strings at the forcing cap are confirmed by
``force``'s exhaustive search, which plays every candidate with ``play``.
CLI reference bytes are the stdout of the CLI at the time of pinning.
The script stops with an error if any recount disagrees.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import noflip  # noqa: E402
from noflip import ForceGoal, ForceStatus, OutcomeKind, Player, TossString  # noqa: E402

from workloads import Force, Games, Sweep, Verify  # noqa: E402

#: values the cutoff kernel gave at n=10 when the benchmark was defined
N10 = {"census": (72636, 81294, 893622), "longest": 28, "witnesses": 6, "noloss": 29}


def cli_stdout(args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, "-m", "noflip.cli", *args], cwd=ROOT,
                          env=env, capture_output=True, text=True, check=True)
    return proc.stdout


def recount(n: int) -> dict:
    """census, longest and no-loss at n, by playing every ordered pair."""
    strings = [TossString(n, code) for code in range(1 << n)]
    counts = {OutcomeKind.ALICE_WINS: 0, OutcomeKind.BOB_WINS: 0, OutcomeKind.INFINITE: 0}
    best, witnesses, vulnerable = 0, [], set()
    for a in strings:
        for b in strings:
            if a == b:
                continue
            outcome, _ = noflip.play(a, b)
            counts[outcome.kind] += 1
            if outcome.is_infinite:
                continue
            if outcome.kind is OutcomeKind.ALICE_WINS:
                vulnerable.add(a.bits)
            if outcome.tosses > best:
                best, witnesses = outcome.tosses, []
            if outcome.tosses == best:
                witnesses.append([a.text, b.text])
    return {
        "census": [n, len(strings) * (len(strings) - 1), counts[OutcomeKind.ALICE_WINS],
                   counts[OutcomeKind.BOB_WINS], counts[OutcomeKind.INFINITE]],
        "longest": [best, witnesses],
        "noloss": [strings[c].text for c in range(1, 1 << (n - 1)) if c not in vulnerable],
    }


def sweep_outputs(n: int) -> dict:
    c = noflip.census(n)
    longest = noflip.longest_finite(n)
    return {
        "census": [c.n, c.total, c.alice_wins, c.bob_wins, c.infinite],
        "longest": [longest.max_finite_tosses,
                    [[a.text, b.text] for a, b in longest.argmax_pairs]],
        "noloss": [s.text for s in noflip.no_loss_strings(n)],
    }


def require(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"pin: {what}")
    print(f"confirmed: {what}")


def main() -> None:
    ref: dict = {}

    n = Sweep.N
    sweep = sweep_outputs(n)
    require(sweep == recount(n), f"sweep outputs at n={n} equal a recount by play")
    sweep["cli_stdout"] = cli_stdout(["enumerate", "--n", str(n)])
    ref["sweep"] = sweep
    n8 = sweep_outputs(8)
    require(n8 == recount(8), "sweep outputs at n=8 equal a recount by play")
    ref["sweep_n8"] = n8

    n10 = recount(10)
    require(
        tuple(n10["census"][2:]) == N10["census"]
        and n10["longest"][0] == N10["longest"]
        and len(n10["longest"][1]) == N10["witnesses"]
        and len(n10["noloss"]) == N10["noloss"]
        and n10 == sweep_outputs(10),
        "cutoff-kernel census, longest and no-loss at n=10 equal a recount by play",
    )
    ref["sweep_n10"] = n10

    cap = Force.CAP
    no_loss = [s.text for s in noflip.no_loss_strings(cap)]
    require(
        all(
            noflip.force(Player.BOB, ForceGoal.LOSS, TossString.from_text(t), cap=cap)
            .status is ForceStatus.IMPOSSIBLE
            for t in no_loss
        ),
        f"all {len(no_loss)} no-loss strings at n={cap} are IMPOSSIBLE for force",
    )
    ref["force"] = {"no_loss_at_cap": no_loss}

    force = Force(0, ref)
    reference = []
    for i in range(force.fixed_rounds):
        for role, goal, opponent, _ in force.requests(i):
            r = noflip.force(role, goal, opponent, cap=cap)
            reference.append([role.value, goal.value, opponent.text, r.status.value,
                              r.method, r.constructed.text if r.constructed else None])
    ref["force"]["reference"] = reference
    ref["force"]["cli"] = [
        ["bob", "loss", opponent.text,
         cli_stdout(["force", "--role", "bob", "--goal", "loss", "--opponent",
                     opponent.text, "--search-cap", str(cap)])]
        for i in (0, 1)
        for _, _, opponent, kind in force.requests(i)
        if kind == "search"
    ]

    games = Games(0, ref)
    long_wins = [p for p in games.pool if p[2] == "forced-win" and p[0].length >= 40][:8]
    ref["games"] = {"cli": [
        [a.text, b.text,
         cli_stdout(["simulate", "--alice", a.text, "--bob", b.text, "--predict"])]
        for a, b, _, _ in long_wins
    ]}

    n = Verify.N
    ref["verify"] = {
        "checks": {s: noflip.verify_suite(n, s).checks for s in noflip.VERIFY_SUITES},
        "cli_stdout": cli_stdout(["verify", "--n", str(n)]),
    }

    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
