"""Benchmark for the noflip package, measured from outside the package.

Run from the repository root:

    python3 perfbench/run.py --workload {sweep,games,force,verify} \\
        --seed N --seconds S --trace {0,1}

One run is one fresh process and one client in a closed loop.  It sets
up noflip several times in fresh interpreters (``setup_s``), then for
``--seconds`` alternates rounds of library requests with the workload's
headline ``noflip`` CLI command.  Every output is checked outside the
timed regions.  A fixed reference loop, timed between rounds and CLI calls,
gives the machine's speed during the run; every timing but ``setup_s`` is
reported scaled to the reference speed (see ``speed_scale``).  With
``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it runs every round twice, once with span recording on and
once off, and reports the per-layer metrics and the tracing overhead.

Human-readable lines come first; the last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results, machine facts and spans go to ``.perfbench/``.
METRICS.md defines every metric.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from time import perf_counter_ns

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")

SETUP_RUNS = 21
#: calls kept for the latency quantiles: a uniform sample, so that the
#: benchmark's own memory does not grow with the program's speed
SAMPLE_SIZE = 5000
MIN_ROUNDS = 3
MIN_CLI = 3
#: share of the measured window given to the reference loop
REF_SHARE = 0.1
MIN_REF = 20
#: the reference loop's time at the reference speed, about what it takes
#: on the 2-vCPU virtual machine the benchmark was tuned on
REF_LOOP_NS = 10_000_000
TIME_UNITS = {"s", "ms", "us", "ns"}
CHILD_TIMEOUT_S = 120

SETUP_CODE = """\
import time
t = time.perf_counter()
import noflip
{warmup}
print(time.perf_counter() - t)
"""

# The first sweep call at a length builds that length's tables.  The
# no-loss sweep is used because it is short (about 4 ms at n=7), so the
# build (about 1.4 ms) is not lost in the call's own run-to-run noise.
TABLE_BUILD_CODE = """\
import statistics, time
import noflip
def timed():
    t = time.perf_counter()
    noflip.no_loss_strings({n})
    return time.perf_counter() - t
first = timed()
print(first - statistics.median(timed() for _ in range(5)))
"""


def reference_loop() -> int:
    """Fixed interpreter work that shares no code with noflip.  The speed
    of a shared machine drifts by tens of percent over seconds to minutes,
    and this loop's time drifts with it."""
    s = 0
    for i in range(100_000):
        s += (i * i) & 7
    return s


def time_reference(out: list) -> int:
    t = perf_counter_ns()
    value = reference_loop()
    ns = perf_counter_ns() - t
    if value != 150_000:
        raise RuntimeError(f"reference loop gave {value}")
    out.append(ns)
    return ns


def speed_scale(ref_ns: list) -> float:
    """Factor that turns a wall time of this run into a time at the
    reference speed: REF_LOOP_NS over the run's median reference loop."""
    return REF_LOOP_NS / statistics.median(ref_ns)


def scaled(metrics: dict, scale: float) -> dict:
    return {
        k: (v * scale if u in TIME_UNITS else v, u) for k, (v, u) in metrics.items()
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return env


def python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
        text=True, timeout=CHILD_TIMEOUT_S,
    )


def python_float(code: str) -> float:
    proc = python(["-c", code])
    if proc.returncode != 0:
        raise RuntimeError(f"child process failed:\n{proc.stderr}")
    return float(proc.stdout)


def machine_facts() -> dict:
    sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT),
                             "GIT_CONFIG_NOSYSTEM": "1", "GIT_CONFIG_GLOBAL": os.devnull},
        )
        if proc.returncode == 0:
            sha = proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "git_sha": sha,
        "loadavg_start": os.getloadavg(),
    }


class Runner:
    """Runs one workload's rounds and CLI calls and keeps what they gave."""

    def __init__(self, wl, tracer):
        self.wl = wl
        self.tracer = tracer
        self.rids = itertools.count(1)
        self.sample = []  # uniform sample of the measured calls
        self.measured = 0  # measured calls so far
        self.fixed = []  # every measured call of the fixed rounds
        self.round_ns = []  # wall time of every measured round
        self.paired_ns = [0, 0]  # traced run: total (traced, untraced) round time
        self.attempted = 0
        self.failed = 0
        self.cli_ns = []
        self.in_process_ns = []
        self.ref_ns = []  # every reference loop of the run
        self._pick = random.Random(f"sample:{wl.name}:{wl.seed}")

    def run_round(self, i: int) -> tuple[int, list]:
        """Run round i; check its outputs after its wall time is taken."""
        from workloads import Call

        wl, tracer = self.wl, self.tracer
        raw = []
        start = perf_counter_ns()
        for req in wl.requests(i):
            rid = next(self.rids)
            root = tracer.span("bench.request", rid)
            with root:
                try:
                    result, layer = wl.call(req, tracer, rid, root)
                except Exception as exc:  # counted as a failed operation
                    print(f"perfbench: {wl.name} request {req!r} raised {exc!r}",
                          file=sys.stderr)
                    result, layer = exc, None
            raw.append((req, root.ns, result, layer))
        wall = perf_counter_ns() - start
        wall -= sum(ns for req, ns, _, _ in raw if req in wl.off_round)
        calls = [Call(i, req, ns, wl.summarize(req, result), layer)
                 for req, ns, result, layer in raw if layer is not None]
        self.attempted += len(raw)
        self.failed += len(raw) - len(calls) + wl.check(calls)
        return wall, calls

    def keep(self, calls) -> None:
        for c in calls:
            if c.round < self.wl.fixed_rounds:
                self.fixed.append(c)
            self.measured += 1
            if len(self.sample) < SAMPLE_SIZE:
                self.sample.append(c)
            else:
                j = self._pick.randrange(self.measured)
                if j < SAMPLE_SIZE:
                    self.sample[j] = c

    def round(self, i: int, paired: bool) -> int:
        if not paired:
            wall, calls = self.run_round(i)
            self.keep(calls)
            self.round_ns.append(wall)
            return wall
        total = 0
        # Alternate which half goes first, so warm caches favour neither.
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            self.tracer.enabled = traced
            wall, calls = self.run_round(i)
            self.paired_ns[not traced] += wall
            total += wall
            if traced:
                self.keep(calls)
                self.round_ns.append(wall)
        return total

    def cli(self, j: int, in_process: bool) -> int:
        args, expected = self.wl.cli(j)
        rid = next(self.rids)
        with self.tracer.span("cli." + args[0], rid) as s:
            proc = python(["-m", "noflip.cli", *args])
        self.cli_ns.append(s.ns)
        self.attempted += 1
        if proc.returncode != 0 or proc.stdout != expected:
            self.failed += 1
            print(f"perfbench: noflip {' '.join(args)} exited {proc.returncode} "
                  f"with unexpected output:\n{proc.stdout}{proc.stderr}", file=sys.stderr)
        if in_process:
            t = perf_counter_ns()
            self.wl.cli_in_process(j)
            self.in_process_ns.append(perf_counter_ns() - t)
        return s.ns

    def measure(self, seconds: float, traced: bool) -> None:
        """Interleave rounds, CLI calls and reference loops for
        ``seconds``, giving the CLI and the reference loop their shares of
        the time, and at least the minimum of each."""
        wl = self.wl
        min_rounds = max(MIN_ROUNDS, wl.fixed_rounds)
        deadline = perf_counter_ns() + int(seconds * 1e9)
        spent_ref = spent_cli = spent_rounds = 0
        i = j = 0
        while True:
            spent = spent_ref + spent_cli + spent_rounds
            if perf_counter_ns() >= deadline:
                if i < min_rounds:
                    task = "round"
                elif j < MIN_CLI:
                    task = "cli"
                elif len(self.ref_ns) < MIN_REF:
                    task = "ref"
                else:
                    break
            elif spent_ref < REF_SHARE * spent:
                task = "ref"
            elif spent_cli < wl.cli_share * spent:
                task = "cli"
            else:
                task = "round"
            if task == "ref":
                spent_ref += time_reference(self.ref_ns)
            elif task == "cli":
                spent_cli += self.cli(j, traced)
                j += 1
            else:
                spent_rounds += self.round(i, traced)
                i += 1


def end_to_end(runner) -> dict:
    """Wall times; the caller scales them to the reference speed."""
    return {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "cli_s": (statistics.median(runner.cli_ns) / 1e9, "s"),
        # The mean, i.e. the inverse of rounds completed per second: on a
        # shared machine it moves less from run to run than the median.
        "round_s": (statistics.mean(runner.round_ns) / 1e9, "s"),
    }


def per_layer(main, seed, ref, workloads, tracer) -> tuple[dict, list]:
    """Per-layer metrics: the main workload's own traced rounds for the
    layers it calls, a fixed short probe of each other workload for the
    rest, and the layer measurements no workload stream gives."""
    import noflip
    from workloads import Sweep

    metrics = main.wl.layer_metrics(main.sample, main.fixed)
    probes = []
    for cls in workloads.values():
        if cls is type(main.wl):
            continue
        probe = Runner(cls(seed, ref), tracer)
        for i in range(cls.fixed_rounds):
            probe.round(i, False)
        metrics.update(probe.wl.layer_metrics(probe.sample, probe.fixed))
        probes.append(probe)

    pool = []
    for _ in range(5):
        rid = next(main.rids)
        with tracer.span("enumeration.pool_startup", rid) as s:
            noflip.census(2, workers=2)
        pool.append(s.ns)
    metrics["enumeration.pool_startup_s"] = (statistics.median(pool) / 1e9, "s")
    metrics["enumeration.table_build_s"] = (statistics.median(
        python_float(TABLE_BUILD_CODE.format(n=Sweep.N)) for _ in range(3)), "s")

    startup = []
    for _ in range(5):
        with tracer.span("cli.help", next(main.rids)) as s:
            python(["-m", "noflip.cli", "--help"])
        startup.append(s.ns)
    metrics["cli.startup_s"] = (statistics.median(startup) / 1e9, "s")
    metrics["cli.overhead_s"] = (
        (statistics.median(main.cli_ns) - statistics.median(main.in_process_ns)) / 1e9,
        "s",
    )
    traced_ns, untraced_ns = main.paired_ns
    metrics["bench.trace_overhead"] = (traced_ns / untraced_ns - 1, "ratio")
    return metrics, probes


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "noflip", "__init__.py")):
        print(f"perfbench: no noflip source at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    facts = machine_facts()
    sys.path.insert(0, SRC)
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json")) as fh:
        ref = json.load(fh)

    cls = WORKLOADS[args.workload]
    wl = cls(args.seed, ref)
    # The benchmark process pays its own import and warm-up before any
    # timing, so the set-up children below find compiled bytecode.
    import noflip  # noqa: F401

    exec(wl.warmup, {"noflip": noflip})
    traced = bool(args.trace)
    tracer = Tracer(traced)
    runner = Runner(wl, tracer)
    setup = [] if traced else [
        python_float(SETUP_CODE.format(warmup=wl.warmup)) for _ in range(SETUP_RUNS)
    ]
    runner.measure(args.seconds, traced)
    main_spans = len(tracer.spans)
    scale = speed_scale(runner.ref_ns)

    probes = []
    if traced:
        metrics, probes = per_layer(runner, args.seed, ref, WORKLOADS, tracer)
        metrics = scaled(metrics, scale)
    attempted, failed = wl.reference_ops()
    for run in [runner, *probes]:
        attempted += run.attempted
        failed += run.failed + run.wl.final_failures()
    if traced:
        named = {}
        declared = declared["per_layer"]
    else:
        # Set-up is timed in fresh interpreters, whose import time does not
        # follow the reference loop's, so it stays a plain wall time.
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            **scaled(end_to_end(runner), scale),
        }
        named = {
            **scaled(wl.named(runner.sample, runner.round_ns), scale),
            "error_rate": (failed / attempted, "ratio"),
        }
        declared = declared["end_to_end"]

    self_s = {
        layer: ns / 1e9 * scale
        for layer, ns in tracer.self_ns_by_layer(tracer.spans[:main_spans]).items()
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "facts": facts, "attempted": attempted, "failed": failed,
        "rounds": len(runner.round_ns), "calls": runner.measured,
        "cli_calls": len(runner.cli_ns), "speed_scale": scale,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "named": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "self_s_by_layer": self_s,
        "raw_setup_s": setup, "raw_ref_ns": runner.ref_ns,
        "raw_round_ns": runner.round_ns, "raw_cli_ns": runner.cli_ns,
        "sampled_call_ns": [c.ns for c in runner.sample],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)
    if traced:
        tracer.write(stem + ".spans.jsonl")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          f"rounds={len(runner.round_ns)} calls={runner.measured} "
          f"cli_calls={len(runner.cli_ns)} ref_loops={len(runner.ref_ns)} "
          f"speed_scale={scale:.4f}")
    print("# " + " ".join(f"{k}={v}" for k, v in facts.items()))
    for k, (v, u) in {**named, **metrics}.items():
        print(f"{k:36s} {v:14.6g} {u}")
    for layer, s in sorted(self_s.items()):
        print(f"self_s[{layer}]{'':{28 - len(layer)}s} {s:14.6g} s")

    produced = sorted((k, u) for k, (_, u) in metrics.items())
    if produced != sorted((m["name"], m["unit"]) for m in declared):
        print(f"perfbench: metrics {produced} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    if not all(math.isfinite(v) for v, _ in metrics.values()):
        print("perfbench: a metric has no finite value", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
