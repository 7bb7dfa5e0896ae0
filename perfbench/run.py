#!/usr/bin/env python3
"""Benchmark of the toriq command line on three workloads.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload catalog-sweep --seed 1 --seconds 20 --trace 0

One operation is one ``toriq <command> --fan <file> --cutoff <n> --format
json`` process, run one at a time (closed loop, one client).  A round runs
every case of the workload once; the run repeats whole rounds until the
operations have taken ``--seconds`` in total.  With ``--trace 0`` the last
line of stdout is a JSON object with the end-to-end metrics, in seconds
scaled by the CPU's speed, probed between and during operations (class
``Calibration``); with ``--trace 1`` the
cases run in-process through ``toriq.cli.main``, alternating untraced and
traced passes, and the object holds the per-layer metrics.  See
perfbench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict, namedtuple
from fractions import Fraction
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_REPEATS = 5
OP_TIMEOUT_S = 150
ENTRY = "import sys; from toriq.cli import main; sys.exit(main())"
SETUP = "import sys\nfrom toriq.cli import ingest\nfor p in sys.argv[1:]: ingest(p)"
IMPORT = ("import time; t = time.perf_counter(); import toriq.cli; "
          "print(time.perf_counter() - t)")

# Calibration probes (class Calibration) and their values at the nominal
# speed, to which every time is scaled.
CAL_CHILD = "import fractions, itertools, json"
CAL_LOOP = 1500
CAL_STARTUP_S = 0.050
CAL_LOOP_S = 0.0036
CAL_EVERY_S = 0.5       # of operation time between two start-up probes
SAMPLE_EVERY_S = 0.2    # loop probes while an operation runs


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


Proc = namedtuple("Proc", "start wall cpu code stdout stderr rss_kib")


def spawn(args, timeout=OP_TIMEOUT_S, sample=None):
    """Run one interpreter to its end and return a ``Proc``.

    ``start`` and ``wall`` are perf_counter seconds, ``cpu`` is the child's
    user plus system time, ``rss_kib`` its maximum resident set size.  The
    exit code is None when the process was killed at the timeout.  While
    the child runs, ``sample`` (if given) is called every ``SAMPLE_EVERY_S``.
    """
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, cwd=ROOT, env=child_env())
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in chunks:
                sel.register(f, selectors.EVENT_READ)
            deadline = time.monotonic() + timeout
            next_sample = time.monotonic() + SAMPLE_EVERY_S
            while sel.get_map():
                now = time.monotonic()
                left = deadline - now
                if left <= 0:
                    proc.kill()
                    timed_out = True
                    break
                if sample and now >= next_sample:
                    sample()
                    next_sample = time.monotonic() + SAMPLE_EVERY_S
                    continue
                wait = min(left, next_sample - now) if sample else left
                for key, _ in sel.select(wait):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return Proc(start, wall, usage.ru_utime + usage.ru_stime,
                None if timed_out else proc.returncode,
                b"".join(chunks[proc.stdout]), b"".join(chunks[proc.stderr]),
                usage.ru_maxrss)


def pin_to_one_cpu():
    """Keep this process and its children on one CPU.

    The CPUs of a shared host change speed independently of each other, so
    the calibration and the operations must run on the same one.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def interpolate(points, t):
    """The value at time ``t`` of a series of (time, value) points."""
    if t <= points[0][0]:
        return points[0][1]
    for (t0, v0), (t1, v1) in zip(points, points[1:]):
        if t <= t1:
            return v0 + (v1 - v0) * (t - t0) / (t1 - t0)
    return points[-1][1]


class Calibration:
    """The speed of the benchmark's CPU over the run, to scale times by.

    The CPUs of a shared host slow down and speed up by half or more over
    seconds to minutes, and the operations with them.  Two probes follow
    that speed on the CPU the operations run on:

    - start-up: the wall time of a fresh interpreter that imports a few
      standard modules (process start, page faults, imports), measured
      between operations, at least every ``CAL_EVERY_S`` of operation time;
    - loop: the CPU time of a fixed piece of pure-Python work in this
      process, the kind the program does (a dict of tuples to Fractions,
      sorted and summed), measured three times with each start-up probe and
      also every ``SAMPLE_EVERY_S`` while an operation runs.  The probe
      takes the CPU from the child for a few milliseconds; the child's own
      CPU time does not count it.  A bare counting loop follows the
      operations' speed about half as well.

    An operation's time is the child's CPU time divided by its speed
    factor, a weighted geometric mean of the two probes relative to their
    nominal values (their values in the machine's fast state): the start-up
    probe weighs the share of the operation that starting an interpreter,
    importing toriq and reading the fans takes (``startup_cpu``, the median
    CPU time of the set-up process), the loop probe (the mean of the samples
    during the operation, or the six nearest for a short one) the rest.
    """

    def __init__(self):
        self.startups = []          # (perf_counter at the middle, seconds)
        self.loops = []             # (perf_counter at the end, CPU seconds)
        self.startup_cpu = None     # CPU seconds to import toriq, read fans

    def loop(self):
        start = time.process_time()
        table = {(i, i % 97): Fraction(i, 7 + i % 5) for i in range(CAL_LOOP)}
        total = Fraction(0)
        for key in sorted(table):
            total += table[key]
        self.loops.append((time.perf_counter(), time.process_time() - start))

    def measure(self):
        r = spawn(["-c", CAL_CHILD])
        if r.code != 0:
            raise SystemExit(f"calibration process failed ({r.code}): "
                             f"{r.stderr.decode(errors='replace')[-500:]}")
        self.startups.append((r.start + r.wall / 2, r.wall))
        for _ in range(3):
            self.loop()

    def factor(self, proc):
        """How much slower than nominal the CPU ran during ``proc``."""
        end = proc.start + proc.wall
        during = [v for t, v in self.loops if proc.start <= t <= end]
        if len(during) >= 3:
            loop = statistics.fmean(during)
        else:
            loop = statistics.median(v for _, v in self.loops_around(proc))
        startup = interpolate(self.startups, proc.start + proc.wall / 2)
        weight = min(1.0, self.startup_cpu / max(proc.cpu, 1e-9))
        return ((startup / CAL_STARTUP_S) ** weight
                * (loop / CAL_LOOP_S) ** (1 - weight))

    def loops_around(self, proc):
        """The three loop samples just before and the three just after."""
        before = [p for p in self.loops if p[0] < proc.start][-3:]
        after = [p for p in self.loops if p[0] > proc.start][:3]
        return before + after or self.loops

    def scaled(self, proc):
        """The child's CPU seconds at the nominal speed."""
        return proc.cpu / self.factor(proc)


def op_args(case, path):
    return ["-c", ENTRY, case.command, "--fan", str(path.relative_to(ROOT)),
            "--cutoff", str(case.cutoff), "--format", "json"]


class Verifier:
    """Counts operations and failures; checks each distinct report once.

    Exit code, traceback and timeout are judged as each operation ends.  A
    repeated operation must print byte-identical stdout to its first run.
    The reports themselves are checked by ``finish``, after the timed part,
    so that sympy is not loaded in this process while operations run: a
    child inherits the parent's peak RSS at fork.
    """

    def __init__(self, fans):
        self.fans = fans
        self.identity = {}          # case key -> stdout for the builtin fan
        self.first = {}             # case key -> [case, stdout, times seen]
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def record(self, case, code, stdout, stderr):
        self.attempted += 1
        semipositive = case.fan not in workloads.NOT_SEMIPOSITIVE
        expected = 3 if case.command == "certify" and not semipositive else 0
        if code is None:
            problem = "timeout"
        elif b"Traceback" in stderr:
            problem = "traceback: " + stderr.decode(errors="replace")[-300:]
        elif code != expected:
            problem = f"exit code {code}, expected {expected}"
        elif case.key not in self.first:
            self.first[case.key] = [case, stdout, 1]
            problem = None
        elif stdout != self.first[case.key][1]:
            self.wrong += 1
            problem = "stdout differs from the first run of this operation"
        else:
            self.first[case.key][2] += 1
            problem = None
        if problem:
            self.failed += 1
            log(f"FAILED {case.key}: {problem}")

    def finish(self):
        """Check every distinct report against the independent computations."""
        import checks

        refs = {name: checks.FanRef(fan) for name, (fan, _) in
                self.fans.items()}
        mori = {}
        for case, stdout, seen in self.first.values():
            ref = refs[case.fan]
            try:
                data = checks.check_report(case, stdout, ref,
                                           mori.get(case.fan))
                if case.key in self.identity:
                    checks.check_invariant(
                        stdout, self.identity[case.key],
                        checks.FanRef(workloads.FANS[case.fan]))
            except checks.CheckFailed as exc:
                self.failed += seen
                self.wrong += seen
                log(f"FAILED {case.key}: check failed: {exc}")
                continue
            if case.command == "analyze":
                mori[case.fan] = data


def import_toriq():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import toriq.cli
    if Path(toriq.__file__).resolve().parent != (SRC / "toriq").resolve():
        raise SystemExit(f"imported toriq from {toriq.__file__}, not {SRC}")
    return toriq.cli


def in_process(cli, argv):
    """Run toriq.cli.main in this process; return (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception:
            import traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue().encode(), err.getvalue().encode()


def identity_reports(cli, cases):
    """Reports for the builtin, untransformed fans, keyed by case."""
    out = {}
    for case in cases:
        _, stdout, _ = in_process(cli, [case.command, "--fan", case.fan,
                                        "--cutoff", str(case.cutoff),
                                        "--format", "json"])
        out[case.key] = stdout
    return out


def measure_setup(paths, cal):
    """Median scaled time of a fresh interpreter that imports and ingests."""
    args = ["-c", SETUP, *[str(p.relative_to(ROOT)) for p in paths]]
    spawn(args)   # warm-up: compiles the bytecode cache
    procs = []
    for _ in range(SETUP_REPEATS):
        cal.measure()
        r = spawn(args, sample=cal.loop)
        if r.code != 0:
            raise SystemExit(f"set-up process failed ({r.code}): "
                             f"{r.stderr.decode(errors='replace')[-500:]}")
        procs.append(r)
    cal.measure()
    cal.startup_cpu = statistics.median(r.cpu for r in procs)
    log(f"set-up wall {statistics.median(r.wall for r in procs):.3f} s, "
        f"CPU {cal.startup_cpu:.3f} s")
    return statistics.median(cal.scaled(r) for r in procs)


def measure_import():
    times = []
    for _ in range(SETUP_REPEATS):
        r = spawn(["-c", IMPORT])
        if r.code != 0:
            raise SystemExit(f"import failed: "
                             f"{r.stderr.decode(errors='replace')}")
        times.append(float(r.stdout))
    return statistics.median(times)


def untraced_run(cases, fans, verifier, seconds, cal, dump_path):
    """End-to-end times: per command, the sum over its cases of the median
    scaled time of that case's operations in the run."""
    ops = []                        # (case, Proc)
    measured = since_probe = 0.0
    rounds = 0
    cal.measure()
    while not rounds or measured < seconds:
        for case in cases:
            r = spawn(op_args(case, fans[case.fan][1]), sample=cal.loop)
            verifier.record(case, r.code, r.stdout, r.stderr)
            ops.append((case, r))
            measured += r.wall
            since_probe += r.wall
            if since_probe >= CAL_EVERY_S:
                cal.measure()
                since_probe = 0.0
        rounds += 1
    if since_probe:
        cal.measure()
    samples = defaultdict(lambda: defaultdict(list))
    for case, r in ops:
        for kind, value in (("scaled", cal.scaled(r)), ("cpu", r.cpu),
                            ("wall", r.wall)):
            samples[kind][case].append(value)

    def per_command(kind):
        return {f"{c}_s": sum(statistics.median(v) for case, v in
                              samples[kind].items() if case.command == c)
                for c in workloads.COMMANDS}

    metrics = {name: (value, "s") for name, value in
               per_command("scaled").items()}
    metrics["peak_rss_mib"] = (max(r.rss_kib for _, r in ops) / 1024, "MiB")
    for kind in ("wall", "cpu"):
        log(f"{kind}: " + ", ".join(f"{name} {value:.3f}" for name, value
                                    in per_command(kind).items()))
    log(f"{rounds} round(s), {len(cal.startups)} start-up and "
        f"{len(cal.loops)} loop probes; scaled: " + ", ".join(
            f"{name} {value:.3f}" for name, (value, _) in metrics.items()))
    with open(dump_path, "w") as fh:
        json.dump({"startup_cpu": cal.startup_cpu,
                   "ops": [[case.key, r.start, r.wall, r.cpu]
                           for case, r in ops],
                   "startup_probes": cal.startups,
                   "loop_probes": cal.loops}, fh)
    return metrics


def traced_run(cli, cases, fans, verifier, seconds, trace_path):
    """Per-layer metrics from in-process passes.

    Each case runs untraced and then traced, back to back, so that the
    difference of the two pass totals (the tracing overhead) is not swamped
    by the machine's speed drifting between passes.
    """
    from tracer import Tracer

    def timed(argv, case):
        start = time.perf_counter()
        code, stdout, stderr = in_process(cli, argv)
        wall = time.perf_counter() - start
        verifier.record(case, code, stdout, stderr)
        return wall, len(stdout)

    untraced, traced, layer = [], [], []
    measured = 0.0
    while not traced or measured < seconds:
        tracer = Tracer()
        plain = with_trace = report_bytes = 0
        for case in cases:
            argv = [case.command, "--fan", str(fans[case.fan][1]), "--cutoff",
                    str(case.cutoff), "--format", "json"]
            plain += timed(argv, case)[0]
            tracer.install()
            try:
                wall, size = timed(argv, case)
            finally:
                tracer.uninstall()
            with_trace += wall
            report_bytes += size
        untraced.append(plain)
        traced.append(with_trace)
        m = tracer.metrics()
        m["cli.report_kib"] = report_bytes / 1024
        layer.append(m)
        if len(traced) == 1:
            tracer.write(trace_path)
        measured += plain + with_trace
    log(f"{len(traced)} pass pair(s): untraced "
        + " ".join(f"{w:.3f}" for w in untraced) + "; traced "
        + " ".join(f"{w:.3f}" for w in traced))
    metrics = {name: (statistics.median(m[name] for m in layer), unit_of(name))
               for name in layer[0]}
    metrics["cli.import_s"] = (measure_import(), "s")
    metrics["trace.overhead_s"] = (statistics.median(
        t - u for t, u in zip(traced, untraced)), "s")
    return metrics


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_kib"):
        return "KiB"
    return "count"


def stop_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def main():
    signal.signal(signal.SIGTERM, stop_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "toriq" / "cli.py").is_file():
        log(f"no toriq sources under {SRC}; run from the root of a checkout")
        return 2

    pin_to_one_cpu()
    cases = workloads.WORKLOADS[args.workload]
    fans = workloads.write_fans(args.workload, args.seed, OUT / "fans")
    verifier = Verifier(fans)
    if args.trace:
        metrics = traced_run(import_toriq(), cases, fans, verifier,
                             args.seconds, OUT / f"trace-{args.workload}.json")
    else:
        cal = Calibration()
        setup = measure_setup([path for _, path in fans.values()], cal)
        metrics = {"setup_s": (setup, "s")}
        metrics.update(untraced_run(cases, fans, verifier, args.seconds, cal,
                                    OUT / f"ops-{args.workload}.json"))
    if args.workload in workloads.INVARIANCE_WORKLOADS:
        verifier.identity = identity_reports(import_toriq(), cases)
    verifier.finish()
    print(json.dumps({
        "correct": verifier.wrong == 0,
        "attempted": verifier.attempted,
        "failed": verifier.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
