import doctest
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import noflip
from noflip import cli, enumeration
from noflip.engine import MAX_LENGTH
from noflip.enumeration import VerifyReport

README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestSimulate:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", "HHTT", "--bob", "THHH", "--states"
        )
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "BobWins at toss 8"
        assert lines[1] == "trace: HTHHTHHH"
        assert lines[2].startswith("states: (0,0,A,0), (1,0,B,1)")
        assert lines[2].endswith("(2,4,A,8)")
        assert lines[2].count("(") == 9

    def test_json_finite(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", "HTHT", "--bob", "HHTH",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == {"kind": "bob_wins", "tosses": 4}
        assert len(doc["trace"]) == 4
        assert "states" not in doc

    def test_json_infinite_with_states(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", "HH", "--bob", "TT",
            "--states", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc["outcome"] == {"kind": "infinite", "entry": 1, "period": 2}
        assert doc["trace"] == "HTH"
        assert doc["states"][0] == [0, 0, "A", 0]
        assert len(doc["states"]) == 4

    def test_predictions_shown(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", "HH", "--bob", "TT", "--predict"
        )
        assert code == 0
        assert "predicted: run-length-gap -> infinite" in out

    @pytest.mark.parametrize(
        "alice,bob,predictions",
        [
            (
                "HH",
                "TT",
                [
                    {"rule": "run-length-gap", "kind": "infinite", "tosses": None},
                    {"rule": "constant-alice", "kind": "infinite", "tosses": None},
                ],
            ),
            ("HH", "TH", [{"rule": "constant-alice", "kind": "bob_wins", "tosses": 3}]),
            ("HTT", "THH", []),
        ],
    )
    def test_json_predictions(self, capsys, alice, bob, predictions):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", alice, "--bob", bob,
            "--predict", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["predictions"] == predictions

    def test_predictions_can_be_empty(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", "HTT", "--bob", "THH", "--predict"
        )
        assert code == 0
        assert "predicted: none" in out

    def test_bad_letters_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alice", "HX", "--bob", "HH")
        assert code == 2
        assert err.startswith("noflip:")

    def test_unequal_lengths_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--alice", "H", "--bob", "HH")
        assert code == 2
        assert err.startswith("noflip:")

    @pytest.mark.parametrize("n", [2, 3])
    def test_trace_round_trips(self, capsys, n):
        # The printed trace must itself witness the printed outcome: the
        # first completion happens exactly at the final toss for finite
        # games, and never happens for repeating ones.
        from noflip import TossString

        for a_code in range(1 << n):
            for b_code in range(1 << n):
                if a_code == b_code:
                    continue
                alice = TossString(n, a_code).text
                bob = TossString(n, b_code).text
                code, out, _ = run_cli(
                    capsys, "simulate", "--alice", alice, "--bob", bob,
                    "--format", "json",
                )
                assert code == 0
                doc = json.loads(out)
                trace = doc["trace"]
                outcome = doc["outcome"]
                if outcome["kind"] == "infinite":
                    entry, period = outcome["entry"], outcome["period"]
                    extended = trace
                    while len(extended) < len(trace) + 2 * period:
                        j = entry + (len(extended) - entry) % period
                        extended += trace[j]
                    full, winner = extended, None
                else:
                    assert len(trace) == outcome["tosses"]
                    full = trace
                    winner = alice if outcome["kind"] == "alice_wins" else bob
                for stop in range(1, len(full) + 1):
                    prefix = full[:stop]
                    done = prefix.endswith(alice) or prefix.endswith(bob)
                    expected = winner is not None and stop == len(trace)
                    assert done == expected
                if winner is not None:
                    assert full.endswith(winner)


class TestForce:
    def test_found_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "win",
            "--opponent", "HTHH",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "found: THTH via flip-before-first-double"
        assert lines[1] == "verified: BobWins at toss 5"

    def test_impossible_text(self, capsys):
        code, out, _ = run_cli(
            capsys, "force", "--role", "alice", "--goal", "loss",
            "--opponent", "HHH",
        )
        assert code == 0
        assert out.strip() == "impossible (odd-length-constant-opponent)"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "force", "--role", "alice", "--goal", "win",
            "--opponent", "HTHH", "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "status": "found",
            "method": "flip-first-letter",
            "constructed": "THTH",
            "outcome": {"kind": "alice_wins", "tosses": 4},
        }

    def test_search_cap_controls_the_fallback(self, capsys):
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "loss",
            "--opponent", "HHTTHHTTHH", "--search-cap", "9",
        )
        assert code == 3
        assert "unknown" in out
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "loss",
            "--opponent", "HHTTHHTTHH", "--search-cap", "10",
        )
        assert code == 0
        assert out.splitlines()[0] == "found: HHHTTHHTTT via exhaustive-search"
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "loss",
            "--opponent", "HHTTHHTTHH", "--search-cap", "0",
        )
        assert code == 3
        assert "unknown" in out
        # 0 still applies the shape rules
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "loss",
            "--opponent", "HTH", "--search-cap", "0",
        )
        assert code == 0
        assert out.splitlines()[0] == "found: HTT via copy-flip-last"

    @pytest.mark.parametrize("bad", ["-5", "-1", "five"])
    def test_bad_search_caps_are_usage_errors(self, capsys, bad):
        code, out, err = run_cli(
            capsys, "force", "--role", "bob", "--goal", "loss",
            "--opponent", "HHTTHHTTHH", "--search-cap", bad,
        )
        assert code == 2
        assert out == ""
        assert "search cap must be 0" in err
        assert "Traceback" not in err


class TestLengthEdges:
    """Strings of MAX_LENGTH letters play and force; one letter more is a
    usage error, not a traceback."""

    LONGEST = ("HT" * MAX_LENGTH)[:MAX_LENGTH]
    TOO_LONG = "H" * (MAX_LENGTH + 1)

    def test_simulate_at_the_longest_length(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--alice", self.LONGEST, "--bob", "T" * MAX_LENGTH
        )
        assert code == 0
        assert out.splitlines()[0] == f"AliceWins at toss {MAX_LENGTH}"

    def test_force_at_the_longest_length(self, capsys):
        code, out, _ = run_cli(
            capsys, "force", "--role", "bob", "--goal", "win",
            "--opponent", self.LONGEST,
        )
        assert code == 0
        expected = "HH" + self.LONGEST[1 : MAX_LENGTH - 1]
        assert out.splitlines()[0] == f"found: {expected} via double-first-letter"

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--alice", TOO_LONG, "--bob", "T" * (MAX_LENGTH + 1)),
            ("force", "--role", "bob", "--goal", "win", "--opponent", TOO_LONG),
        ],
        ids=["simulate", "force"],
    )
    def test_one_letter_more_is_a_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"longer than {MAX_LENGTH} tosses" in err
        assert "Traceback" not in err


class TestEnumerate:
    def test_census_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "1..4", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == [
            "n,total,bob_wins,alice_wins,infinite",
            "1,2,0,2,0",
            "2,12,6,4,2",
            "3,56,16,26,14",
            "4,240,84,64,92",
        ]

    def test_census_json_proportions(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "4", "--format", "json"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["bob_proportion"] == 0.35
        assert '"alice_proportion": 0.266666666666667' in out
        assert '"infinite_proportion": 0.383333333333333' in out

    def test_census_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert out.strip() == "n=2: 12 games, 6 bob wins, 4 alice wins, 2 infinite"

    def test_longest_range_prints_sequence(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "1..5", "--what", "longest"
        )
        assert code == 0
        assert "sequence: 1,3,4,8,9" in out

    def test_longest_single_prints_pairs(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "2", "--what", "longest")
        assert code == 0
        assert "pairs: HH/TH, TT/HT" in out

    def test_noloss_text(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "4", "--what", "noloss")
        assert code == 0
        assert out.strip() == "n=4: HHTT"

    def test_noloss_json_for_one_length_is_one_document(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "4", "--what", "noloss", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == {"n": 4, "strings": ["HHTT"]}

    def test_noloss_json_for_a_range_is_a_list(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--n", "4..6", "--what", "noloss", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == [
            {"n": 4, "strings": ["HHTT"]},
            {"n": 5, "strings": []},
            {"n": 6, "strings": ["HHHHTT", "HHTHTT", "HHTTTT"]},
        ]

    @pytest.mark.parametrize(
        "bad,message",
        [
            ("0", "thread count must be positive"),
            ("-1", "thread count must be positive"),
            ("many", "thread count must be a number or 'auto', got 'many'"),
        ],
        ids=["0", "-1", "many"],
    )
    def test_bad_thread_counts_are_usage_errors(self, capsys, bad, message):
        code, out, err = run_cli(capsys, "enumerate", "--n", "3", "--threads", bad)
        assert code == 2
        assert out == ""
        assert f"argument --threads: {message}" in err
        assert "Traceback" not in err

    def test_csv_is_census_only(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate", "--n", "4", "--what", "longest", "--format", "csv"
        )
        assert code == 2
        assert "census" in err

    def test_threads_do_not_change_the_bytes(self, capsys):
        _, sequential, _ = run_cli(
            capsys, "enumerate", "--n", "1..5", "--format", "csv"
        )
        _, threaded, _ = run_cli(
            capsys, "enumerate", "--n", "1..5", "--format", "csv", "--threads", "2"
        )
        assert threaded == sequential

    def test_repeat_runs_are_byte_identical(self, capsys):
        args = ("enumerate", "--n", "1..4", "--what", "longest", "--format", "json")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_threads_auto(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--n", "3", "--threads", "auto")
        assert code == 0
        assert "n=3:" in out

    def test_env_cap_blocks_large_sweeps(self, capsys, monkeypatch):
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "3")
        code, _, err = run_cli(capsys, "enumerate", "--n", "4")
        assert code == 2
        assert "cap" in err

    def test_env_cap_must_be_a_number(self, capsys, monkeypatch):
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "plenty")
        code, _, err = run_cli(capsys, "enumerate", "--n", "2")
        assert code == 2
        assert "NOFLIP_SWEEP_CAP" in err

    @pytest.mark.parametrize("bad", ["0", "5..2", "x", "2..y"])
    def test_bad_length_ranges(self, capsys, bad):
        code, _, _ = run_cli(capsys, "enumerate", "--n", bad)
        assert code == 2

    def test_lengths_past_the_word_size_are_usage_errors(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--n", "1..100000000000")
        assert code == 2
        assert "at most 63" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "what, sweep",
        [
            ("census", "census"),
            ("longest", "longest_finite"),
            ("noloss", "no_loss_strings"),
        ],
    )
    def test_cap_is_checked_before_the_first_sweep(
        self, capsys, monkeypatch, what, sweep
    ):
        swept = []
        monkeypatch.setattr(enumeration, sweep, lambda n, **kw: swept.append(n))
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "3")
        code, _, err = run_cli(capsys, "enumerate", "--n", "2..4", "--what", what)
        assert code == 2
        assert "cap 3" in err
        assert swept == []

    def test_raised_cap_does_not_admit_lengths_past_the_word_size(
        self, capsys, monkeypatch
    ):
        swept = []
        monkeypatch.setattr(enumeration, "census", lambda n, **kw: swept.append(n))
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "100")
        code, _, err = run_cli(capsys, "enumerate", "--n", "64")
        assert code == 2
        assert "at most 63" in err
        assert swept == []


class TestVerify:
    def test_single_suite_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "bound")
        assert code == 0
        assert out.strip() == "bound n=2: 12 checks, 0 violations [ok]"

    def test_all_suites_by_default(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "2")
        assert code == 0
        assert len(out.splitlines()) == 4

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--n", "2", "--suite", "symmetry",
            "--format", "json",
        )
        doc = json.loads(out)
        assert code == 0
        assert doc == {
            "suite": "symmetry", "n": 2, "checks": 12, "violations": [], "ok": True,
        }

    def test_cap_is_checked_before_the_first_suite(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(
            enumeration, "verify_suite", lambda n, suite, **kw: ran.append(n)
        )
        monkeypatch.setenv("NOFLIP_SWEEP_CAP", "3")
        code, _, err = run_cli(capsys, "verify", "--n", "2..4")
        assert code == 2
        assert "cap 3" in err
        assert ran == []

    def test_violations_set_the_exit_code(self, capsys, monkeypatch):
        def broken(n, suite, *, cap=enumeration.DEFAULT_SWEEP_CAP):
            return VerifyReport(suite, n, 1, ("HH/TT: it broke",))

        monkeypatch.setattr(enumeration, "verify_suite", broken)
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--suite", "bound")
        assert code == 1
        assert "[FAILED]" in out
        assert "  HH/TT: it broke" in out


class TestTopLevel:
    def test_help_exits_cleanly(self, capsys):
        assert cli.main(["--help"]) == 0
        capsys.readouterr()

    def test_missing_command_is_usage(self, capsys):
        assert cli.main([]) == 2
        capsys.readouterr()

    def test_unknown_command_is_usage(self, capsys):
        assert cli.main(["conquer"]) == 2
        capsys.readouterr()

    def test_interrupt_is_one_line_and_exit_130(self, capsys, monkeypatch):
        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(enumeration, "census", interrupted)
        try:
            code, out, err = run_cli(capsys, "enumerate", "--n", "3")
        except KeyboardInterrupt:
            pytest.fail("the interrupt escaped main")
        assert code == 130
        assert out == ""
        assert err == "noflip: interrupted\n"


def python_env(**extra: str) -> dict[str, str]:
    """The environment of a fresh interpreter that imports this noflip."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(noflip.__file__)))
    return {**os.environ, "PYTHONPATH": src, **extra}


def cli_process(*argv: str, env=None, **kwargs) -> subprocess.Popen:
    """``python -m noflip.cli ARGV`` in a fresh interpreter."""
    return subprocess.Popen(
        [sys.executable, "-m", "noflip.cli", *argv],
        env=python_env(**(env or {})), text=True, **kwargs,
    )


def test_importing_the_cli_does_not_load_the_process_pool():
    script = (
        "import sys, noflip.cli; "
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=python_env(), timeout=60,
    )
    assert proc.stdout == "[]\n"


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    # Measured against the modules loaded before the import, so whatever
    # site loads at start-up does not count.
    script = (
        "import sys; before = set(sys.modules); import noflip.cli; "
        "print(*sorted(set(sys.modules) - before))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=python_env(), timeout=60,
    )
    added = proc.stdout.split()
    assert "noflip.cli" in added
    assert not {"dataclasses", "inspect", "json"} & set(added), added


def test_ctrl_c_during_a_parallel_sweep_leaves_no_worker():
    proc = cli_process(
        "enumerate", "--n", "13", "--threads", "2",
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30
        workers: list[str] = []
        while len(workers) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = subprocess.run(
                ["pgrep", "-P", str(proc.pid)], capture_output=True, text=True
            ).stdout.split()
        assert len(workers) == 2, f"the two workers never started: children {workers}"
        time.sleep(0.3)  # let both workers pick up their span
        assert proc.poll() is None, f"the sweep ended before the interrupt: exit {proc.returncode}"
        os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    left = subprocess.run(
        ["pgrep", "-g", str(proc.pid)], capture_output=True, text=True
    ).stdout.split()
    seen = f"exit {proc.returncode}, stdout {out!r}, stderr {err!r}, pids left {left}"
    assert proc.returncode == 130, seen
    assert out == "", seen
    assert err == "noflip: interrupted\n", seen
    assert left == [], seen


# A sweep on two workers whose first chunk blocks until the second has
# returned and its process waits for another task, then sends Ctrl-C's
# SIGINT to the whole process group.
IDLE_WORKER_SCRIPT = """
import os, signal, sys, time
from functools import partial
from noflip import cli, enumeration

def chunk(marker, task):
    if task[1]:  # returns at once; its process goes back to the task queue
        open(marker, "w").close()
        return [0, 0, 0], 0, []
    while not os.path.exists(marker):
        time.sleep(0.01)
    time.sleep(0.5)
    os.killpg(0, signal.SIGINT)
    time.sleep(60)

if __name__ == "__main__":
    os.cpu_count = lambda: 2
    enumeration._sweep_chunk = partial(chunk, sys.argv[1])
    sys.exit(cli.main(["enumerate", "--n", "2", "--threads", "2"]))
"""


def test_ctrl_c_reaching_an_idle_worker_prints_no_traceback(tmp_path):
    script = tmp_path / "idle_worker.py"
    script.write_text(IDLE_WORKER_SCRIPT)
    proc = subprocess.Popen(
        [sys.executable, str(script), str(tmp_path / "returned")],
        env=python_env(), text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    left = subprocess.run(
        ["pgrep", "-g", str(proc.pid)], capture_output=True, text=True
    ).stdout.split()
    seen = f"exit {proc.returncode}, stdout {out!r}, stderr {err!r}, pids left {left}"
    assert (proc.returncode, out, err, left) == (130, "", "noflip: interrupted\n", []), seen


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_141_without_a_traceback(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = cli_process(
            "verify", "--n", "1..3",
            stdout=write_end, stderr=subprocess.PIPE,
            env={"PYTHONUNBUFFERED": unbuffered},
        )
        _, err = proc.communicate(timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert "Traceback" not in err
    assert "Exception ignored" not in err


def readme_examples() -> list[tuple[list[str], str]]:
    """(argv, stdout) for each ``$ noflip ...`` line in the README's
    command-line block, the output being the lines below it."""
    section = README.read_text().split("## Command line", 1)[1]
    block = section.split("```", 2)[1]
    examples: list[tuple[list[str], list[str]]] = []
    for line in block.splitlines():
        if line.startswith("$ noflip "):
            examples.append((shlex.split(line)[2:], []))
        elif examples:
            examples[-1][1].append(line)
    return [(argv, "\n".join(lines).strip("\n") + "\n") for argv, lines in examples]


def test_readme_shows_every_subcommand():
    commands = {argv[0] for argv, _ in readme_examples()}
    assert commands == {"simulate", "force", "enumerate", "verify"}


@pytest.mark.parametrize(
    "argv, expected",
    [pytest.param(argv, out, id=" ".join(argv)) for argv, out in readme_examples()],
)
def test_readme_examples_print_what_they_show(capsys, argv, expected):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out == expected


def test_readme_library_quick_start_runs_as_a_doctest():
    section = README.read_text().split("## Library quick start", 1)[1]
    block = section.split("```python", 1)[1].split("```", 1)[0]
    test = doctest.DocTestParser().get_doctest(block, {}, "README", str(README), 0)
    runner = doctest.DocTestRunner(
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
    )
    results = runner.run(test)
    assert results.attempted == len(test.examples) > 0
    assert results.failed == 0
