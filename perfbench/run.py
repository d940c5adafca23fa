"""Benchmark of the xmhopf CLI: time to verdict on four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program under test is src/ of the checkout that holds this file; the
command may be run from any directory.  A round is every invocation of the workload once, in an
order fixed by the seed.  The run repeats whole rounds until S seconds have
passed, one child process at a time, and checks every output against the
facts the generator derived (gen.py).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  The full record of
the run goes to perfbench/out/runs/.

--trace 0 gives the end-to-end metrics.  --trace 1 runs the rounds
in-process under spans (spans.py) and gives the per-layer metrics.

Times are reported in reference seconds: each timed step is bracketed by a
fixed exact-arithmetic product, and its wall time is scaled by REF_NOMINAL_S
over the product's mean duration around it.  The host's speed drifts by tens of
percent within seconds; the scaling removes most of that drift (README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

STARTED = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import gen  # noqa: E402

COMMANDS = ("verify", "report", "dual", "structure-theorem", "integrals", "grouplikes", "hom")
SETUP_REPEATS = 5
STARTUP_REPEATS = 5
# A hang is a failed invocation; the slowest invocation today takes about 4 s.
INVOCATION_TIMEOUT_S = 30
# Invocations not started by then count as failed, so a run ends within 180 s.
RUN_DEADLINE_S = 140
CLI = [sys.executable, "-S", "-m", "xmhopf.cli"]
IMPORT_CLI = [sys.executable, "-S", "-c", "import xmhopf.cli"]
REF_SIZE = 24
REF_NOMINAL_S = 0.016


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_s():
    """Wall time of a fixed exact product, a 24x24 by 24x8 Fraction matrix: the host's speed.

    It does the program's kind of work (Fraction arithmetic, zero tests,
    short-lived objects), which tracks the program's slow-downs better than
    an integer loop does.
    """
    t0 = time.perf_counter()
    zero = Fraction(0)
    rows = [[Fraction(i * j % 5, 1 + (i + j) % 3) for j in range(REF_SIZE)]
            for i in range(REF_SIZE)]
    cols = list(zip(*rows))[:8]
    [[sum((a * b for a, b in zip(r, c) if a != zero and b != zero), zero) for c in cols]
     for r in rows]
    return time.perf_counter() - t0


class Clock:
    """Times steps in reference seconds, with one reference loop between steps."""

    def __init__(self):
        self.last_ref = reference_s()

    def time(self, fn, *args):
        before = self.last_ref
        t0 = time.perf_counter()
        result = fn(*args)
        wall = time.perf_counter() - t0
        self.last_ref = reference_s()
        return result, wall, wall * REF_NOMINAL_S * 2 / (before + self.last_ref)


# -- checking ----------------------------------------------------------------------------


def check_output(inv, code, stdout):
    """Problems with one completed invocation, as a list of strings (empty when correct)."""
    exp = inv["expect"]
    if code != exp["exit"]:
        return [f"exit {code}, expected {exp['exit']}"]
    problems = []
    lines = stdout.splitlines()
    outputs = {}
    for line in lines:
        if line.startswith("output "):
            key, _, value = line[len("output "):].partition(": ")
            outputs[key] = json.loads(value)
    verdict = "result: PASS" if code == 0 else "result: FAIL"
    if not lines or lines[-1] != verdict:
        problems.append(f"last line is not {verdict!r}")
    for key, want in exp.get("outputs", {}).items():
        if outputs.get(key) != want:
            problems.append(f"output {key} = {outputs.get(key)!r}, expected {want!r}")
    for key, least in exp.get("at_least", {}).items():
        if not isinstance(outputs.get(key), int) or outputs[key] < least:
            problems.append(f"output {key} = {outputs.get(key)!r}, expected >= {least}")
    if "object" in exp:
        if f"object: {exp['object']}" not in lines:
            problems.append(f"report does not name {exp['object']!r}")
        if not any(line.startswith("  witness: ") for line in lines):
            problems.append("failing report has no witness")
    return problems


class Ledger:
    """Attempts, failures, wrong outputs and stdout digests of one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = []  # hangs and crashes
        self.wrong = []  # completed with an output that contradicts the facts
        self.digests = {}

    def record(self, index, inv, code, stdout, stderr, where):
        self.attempted += 1
        label = f"{where} #{index}: {inv['command']} {' '.join(inv['args'])}"
        if code is None or "Traceback" in stderr:
            reason = "traceback" if code is not None else stderr or "timeout"
            self.failed.append(f"{label}: {reason}")
            return
        problems = check_output(inv, code, stdout)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if self.digests.setdefault(index, digest) != digest:
            problems.append("stdout differs from the first round")
        self.wrong.extend(f"{label}: {p}" for p in problems)


# -- running -----------------------------------------------------------------------------


def run_child(argv):
    """Run one child to its end; returns (exit code or None on timeout, stdout, stderr, cpu)."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
        code = proc.returncode
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        code = None
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return code, out, err, cpu


def past_deadline():
    return time.perf_counter() - STARTED > RUN_DEADLINE_S


def more_rounds(rounds, t0, seconds):
    """At least one round; then rounds until seconds have passed or the deadline."""
    return not rounds or (time.perf_counter() - t0 < seconds and not past_deadline())


def timed_round(invocations, ledger, clock, where, call, after=None):
    """Time call(inv) -> (code, stdout, stderr, cpu) on every invocation of one round.

    Returns per-command reference seconds, and the wall and CPU totals.
    after(wall, ref), if given, runs after each call.
    """
    times = {c: 0.0 for c in COMMANDS}
    wall_total = cpu_total = 0.0
    for i, inv in enumerate(invocations):
        if past_deadline():
            ledger.record(i, inv, None, "", "not started before the run deadline", where)
            continue
        (code, out, err, cpu), wall, ref = clock.time(call, inv)
        ledger.record(i, inv, code, out, err, where)
        if after is not None:
            after(wall, ref)
        times[inv["command"]] += ref
        wall_total += wall
        cpu_total += cpu
    return times, wall_total, cpu_total


def cli_call(inv):
    return run_child(CLI + [inv["command"]] + inv["args"])


def in_process(main):
    """A call for timed_round that runs main(argv) in this process; CPU is not measured."""

    def call(inv):
        out, err = io.StringIO(), io.StringIO()
        args = [inv["command"], os.path.join(ROOT, inv["args"][0])] + inv["args"][1:]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(args)
            except Exception:  # a crash is a failed invocation, as in a child process
                traceback.print_exc()
                code = 1
        return code, out.getvalue(), err.getvalue(), 0.0

    return call


def setup(workload, seed, clock):
    """Generate the documents and facts, then import the CLI once; returns (invocations, s)."""
    outdir = os.path.join("perfbench", "out", "docs", f"{workload}-{seed}")

    def once():
        invocations = gen.build(workload, seed, outdir, root=ROOT)
        code, _, err, _ = run_child(IMPORT_CLI)
        if code != 0:
            raise SystemExit(f"cannot import xmhopf.cli from {ROOT}/src:\n{err}")
        return invocations

    invocations, _, ref = clock.time(once)
    return invocations, ref


def end_to_end(invocations, seconds, ledger, clock):
    rounds = []
    t0 = time.perf_counter()
    while more_rounds(rounds, t0, seconds):
        times, wall, _ = timed_round(invocations, ledger, clock, "cli", cli_call)
        rounds.append({"commands_s": times, "wall_s": wall})
    metrics = {}
    for name, part in (("batch_s", COMMANDS), ("verify_s", ("verify",)),
                       ("derived_s", COMMANDS[1:])):
        value = statistics.median(sum(r["commands_s"][c] for c in part) for r in rounds)
        metrics[name] = (value, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
                              "MiB")
    return metrics, rounds


def per_layer(invocations, seconds, ledger, clock):
    """Traced in-process rounds, plus the CLI numbers only a fresh process shows."""
    import spans

    startup = [clock.time(run_child, IMPORT_CLI)[2] for _ in range(STARTUP_REPEATS)]
    cli_times, cli_wall, cli_cpu = timed_round(invocations, ledger, clock, "cli", cli_call)

    sys.path.insert(0, os.path.join(ROOT, "src"))
    import xmhopf.cli

    if not xmhopf.cli.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"xmhopf imported from {xmhopf.cli.__file__}, not from {ROOT}/src")
    untraced = timed_round(invocations, ledger, clock, "in-process",
                           in_process(xmhopf.cli.main))[0]

    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_call = in_process(tracer.span("cli.main", xmhopf.cli.main))

        def call(inv):
            tracer.reset()
            return traced_call(inv)

        rounds = []
        t0 = time.perf_counter()
        while more_rounds(rounds, t0, seconds):
            stats, counts = {}, {}
            traced = timed_round(invocations, ledger, clock, "traced", call,
                                 lambda wall, ref: tracer.fold_into(stats, counts, ref / wall))[0]
            layers = spans.layer_metrics(stats, counts, len(invocations))
            layers["trace.round_s"] = (sum(traced.values()), "s")
            layers["trace.counting_s"] = (stats.get("trace.counting", (0, 0.0))[1], "s")
            rounds.append(layers)
    finally:
        tracer.uninstall()
    metrics = {k: (statistics.median(r[k][0] for r in rounds), rounds[0][k][1])
               for k in rounds[0]}
    untraced_s = sum(untraced.values())
    metrics["trace.untraced_round_s"] = (untraced_s, "s")
    overhead = metrics["trace.round_s"][0] / untraced_s - 1 if untraced_s else 0.0
    metrics["trace.overhead_share"] = (overhead, "share")
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    metrics["cli.cpu_share"] = (cli_cpu / cli_wall if cli_wall else 0.0, "share")
    for command, value in cli_times.items():
        metrics[f"cli.{command.replace('-', '_')}_s"] = (value, "s")
    return metrics, rounds


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in ("src/xmhopf/cli.py", "fixtures/mutations/manifest.json"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            print(f"not a source checkout: {ROOT}/{need} is missing", file=sys.stderr)
            return 2

    clock = Clock()
    setups = []
    for _ in range(SETUP_REPEATS):
        invocations, s = setup(args.workload, args.seed, clock)
        setups.append(s)
    ledger = Ledger()
    if args.trace:
        metrics, rounds = per_layer(invocations, args.seconds, ledger, clock)
    else:
        metrics, rounds = end_to_end(invocations, args.seconds, ledger, clock)
        metrics["setup_s"] = (statistics.median(setups), "s")

    result = {
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": len(ledger.failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, python=sys.version, setups_s=setups, rounds=rounds,
                  invocations=invocations, failures=ledger.failed, wrong=ledger.wrong)
    rundir = os.path.join(HERE, "out", "runs")
    os.makedirs(rundir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(rundir, f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    for problem in ledger.failed + ledger.wrong:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
