"""hanoi-dimer benchmark: drives the CLI from outside, one process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is the checkout's ``src/``.
The load is a closed loop with one client: the workload's commands run one
after another, each in a fresh interpreter, and the next iteration starts
only after the previous one has exited.  Iterations repeat until about S
seconds have been measured; every iteration's output is checked.

``--trace 0`` reports the end-to-end metrics over the iterations, with the
commands' times scaled to a fixed host speed by a probe (see README.md).
``--trace 1`` spends half the time untraced and half traced (each command
run through ``traced_cli.py``), and reports per-layer metrics from the
traced iterations plus the tracing overhead.  The last line of stdout is
the result as JSON.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import CACHE, WORKLOADS, Finished

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_tmp"
TIME_LIMIT_S = 170.0
# set-up samples take this share of the measured time, spread through the run
SETUP_SHARE = 0.1
SETUP_CODE = "from hanoi_dimer import cli; cli.build_parser()"
# the host probe runs probe_kernel this often, for about 7 ms of CPU time
PROBE_PERIOD_S = 0.2
PROBE_TERMS = {(a, b, c): (a + 1) * (b + 2) - c
               for a in range(4) for b in range(4) for c in range(4)}
PROBE_POINT = (7 ** 1200, 11 ** 1000, 13 ** 800)
# about the mean probe_kernel time of a 60 s run on the reference host: 2
# vCPUs of an "Intel(R) Xeon(R) Processor" virtual machine, Python 3.11.7
PROBE_REF_S = 0.0065

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer metric -> span names whose self times it adds up
LAYER_TIMES = {
    "recursion_gen.generate_s": ("recursion_gen.generate",),
    "recursion_gen.save_s": ("recursion_gen.save_system",),
    "recursion_gen.load_s": ("recursion_gen.load_system",),
    "evolve.evolve_s": ("evolve.evolve_to", "evolve.step"),
    "evolve.ratios_s": ("evolve.ratios", "evolve.check_contraction"),
    "multipoly.evaluate_s": ("multipoly.evaluate_int",),
    "entropy.bounds_s": ("entropy.bounds",),
    "appendix_check.omega_s": ("appendix_check.omega_ascending_certificate",),
    "appendix_check.alpha_s": ("appendix_check.alpha_descending_certificate",),
    "appendix_check.contraction_s": ("appendix_check.quadratic_contraction_certificate",),
    "multipoly.substitute_s": ("multipoly.substitute",),
    "matching_oracle.oracle_s": ("matching_oracle.boundary_class_vector",),
    "hanoi_graph.build_s": ("hanoi_graph.build",),
    "cli.self_s": ("cli.main",),
}
# per-layer metric -> span name whose calls it counts
LAYER_CALLS = {
    "evolve.steps": "evolve.step",
    "multipoly.evaluate_calls": "multipoly.evaluate_int",
    "multipoly.substitute_calls": "multipoly.substitute",
    "matching_oracle.count_calls": "matching_oracle.count_matchings",
    "matching_oracle.class_vectors": "matching_oracle.boundary_class_vector",
}
# counts the traced process attaches to spans, with their units
LAYER_COUNTS = {
    "recursion_gen.poly_terms": "count",
    "recursion_gen.cache_bytes": "bytes",
    "evolve.final_digits": "digits",
    "entropy.lambda_digits": "digits",
    "entropy.certified_digits": "digits",
    "appendix_check.omega_terms": "count",
    "appendix_check.alpha_terms": "count",
    "appendix_check.contraction_terms": "count",
}
# digit counts describe the largest number seen, so they are not summed
MAXED = frozenset({"evolve.final_digits", "entropy.lambda_digits",
                   "entropy.certified_digits"})


def per_layer_units() -> dict[str, str]:
    units = {name: "s" for name in LAYER_TIMES}
    units.update({name: "count" for name in LAYER_CALLS})
    units.update(LAYER_COUNTS)
    units["trace.overhead_s"] = "s"
    return units


def machine() -> dict:
    model = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "int_info": {name: getattr(sys.int_info, name) for name in (
            "bits_per_digit", "sizeof_digit", "default_max_str_digits",
            "str_digits_check_threshold") if hasattr(sys.int_info, name)},
    }


def child_env(scratch: Path) -> dict[str, str]:
    """Environment of every child: the checkout's source, private dirs only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env["HANOI_DIMER_CACHE"] = str(scratch / "cache")
    env["HOME"] = str(scratch / "home")
    env["TMPDIR"] = str(scratch)
    return env


def run_child(argv: list[str], env: dict[str, str], scratch: Path,
              deadline: float) -> tuple[int, bytes, bytes, float, float, float]:
    """Run one process to exit, timed from launch to exit.

    Its own CPU time and peak RSS come from wait4, not RUSAGE_CHILDREN, whose
    peak RSS is the maximum over every child so far.
    """
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=scratch, stdout=out, stderr=err)
        killer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out_path.read_bytes(), err_path.read_bytes(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def trimmed_mean(values) -> float:
    """Mean of the middle values, without the lowest and highest fifth."""
    values = sorted(values)
    cut = len(values) // 5
    return statistics.fmean(values[cut:len(values) - cut])


def probe_kernel() -> int:
    """A fixed computation like the library's hot loop, independent of its code.

    Dict-driven evaluation of a 64-term polynomial at a point of big integers,
    with a cache of powers, as ``multipoly.evaluate_int`` does in ``evolve``.
    It imports nothing from the program, so no change to the program can
    change its time.
    """
    powers: dict[tuple[int, int], int] = {}
    total = 0
    for exps, coeff in PROBE_TERMS.items():
        term = coeff
        for i, e in enumerate(exps):
            if e:
                got = powers.get((i, e))
                if got is None:
                    got = powers[(i, e)] = PROBE_POINT[i] ** e
                term *= got
        total += term
    return total


class HostProbe:
    """Host speed, sampled on the CPU the commands run on, while they run.

    ``main`` pins the harness and so its children to one CPU.  A thread of
    the harness wakes every ``PROBE_PERIOD_S`` and runs ``probe_kernel``,
    taking a few milliseconds of that CPU from whatever runs there.  Its own
    CPU time for the kernel says how fast the CPU was at that moment.  Its
    wall time adds the time the host took the CPU away (steal), which a
    command's wall time holds too.  Once the probe has started, ``main``
    lowers the priority of the main thread and so of every command, so the
    probe gets the CPU as soon as it wakes and its wall time does not depend
    on what the program does.
    """

    def __init__(self):
        self.wall_s: list[float] = []
        self.cpu_s: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample)
        self._thread.start()

    def _sample(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            wall, cpu = time.perf_counter(), time.thread_time()
            probe_kernel()
            self.cpu_s.append(time.thread_time() - cpu)
            self.wall_s.append(time.perf_counter() - wall)

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def speed(self) -> tuple[float, float]:
        """Reference over mean probe time, for wall time and for CPU time.

        Above 1 on a fast stretch of host time.  The mean, not the median: a
        vCPU of this host switches between a fast and a slow state every
        second or so, so the samples are bimodal, and only their mean follows
        the share of time spent slow, as a command's time does.
        """
        return (PROBE_REF_S / statistics.fmean(self.wall_s),
                PROBE_REF_S / statistics.fmean(self.cpu_s))


class SetupSampler:
    """Wall time of fresh interpreters importing the CLI and building its parser.

    ``top_up`` runs after each command of an untraced iteration and takes
    samples until they make up ``SETUP_SHARE`` of the time since the run
    started.  So the samples are spread through the whole run.  The first
    command has already written the bytecode cache, which users have too.
    """

    def __init__(self):
        self.start = time.perf_counter()
        self.samples: list[float] = []

    def top_up(self, env: dict[str, str], scratch: Path, deadline: float) -> None:
        argv = [sys.executable, "-c", SETUP_CODE]
        while sum(self.samples) < SETUP_SHARE * (time.perf_counter() - self.start):
            code, _, err, wall, _, _ = run_child(argv, env, scratch, deadline)
            if code != 0:
                raise SystemExit(f"set-up failed: {err.decode(errors='replace')}")
            self.samples.append(wall)


@dataclass
class Iteration:
    """One pass over a workload's commands, checked."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    problems: list[str]
    span_lists: list[list[spans.Span]]


def run_iteration(workload, deadline: float, run_id: str | None = None,
                  setup: SetupSampler | None = None) -> Iteration:
    """Run every command of ``workload`` in a fresh private directory.

    With a ``run_id`` each command goes through traced_cli.py and its spans
    are collected, one list per command.  With a ``setup`` sampler, set-up
    samples are taken between the commands.
    """
    scratch = Path(tempfile.mkdtemp(prefix="iter-", dir=WORK))
    try:
        (scratch / "home").mkdir()
        env = child_env(scratch)
        cache = str(scratch / "cache")
        finished: list[Finished] = []
        spans_files: list[Path] = []
        for index, command in enumerate(workload.commands):
            command = tuple(cache if arg == CACHE else arg for arg in command)
            if run_id is None:
                argv = [sys.executable, "-m", "hanoi_dimer", *command]
            else:
                spans_files.append(scratch / f"spans-{index}.json")
                argv = [sys.executable, str(HERE / "traced_cli.py"),
                        str(spans_files[-1]), run_id, "--", *command]
            finished.append(Finished(command, *run_child(argv, env, scratch, deadline)))
            if setup is not None:
                setup.top_up(env, scratch, deadline)
        span_lists = [spans.load_spans(json.loads(f.read_text(encoding="utf-8")))
                      for f in spans_files if f.is_file()]
        try:
            problems = workload.check(finished, Path(cache), ROOT)
        except Exception as err:  # a malformed output counts as a failure
            problems = [f"check raised {err!r}"]
        return Iteration(sum(f.wall_s for f in finished), sum(f.cpu_s for f in finished),
                         max(f.rss_mb for f in finished), problems, span_lists)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def layer_metrics(span_lists: list[list[spans.Span]]) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (all its commands)."""
    times: dict[str, float] = {}
    calls: dict[str, int] = {}
    for command_spans in span_lists:
        for name, value in spans.self_times(command_spans).items():
            times[name] = times.get(name, 0.0) + value
        for name, value in spans.call_counts(command_spans).items():
            calls[name] = calls.get(name, 0) + value
    attached = spans.attached_counts(
        [span for command_spans in span_lists for span in command_spans], MAXED)
    metrics = {metric: sum(times.get(name, 0.0) for name in names)
               for metric, names in LAYER_TIMES.items()}
    metrics.update({metric: calls.get(name, 0) for metric, name in LAYER_CALLS.items()})
    metrics.update({metric: attached.get(metric, 0) for metric in LAYER_COUNTS})
    return metrics


def repeat(seconds: float, once) -> list[Iteration]:
    """Closed loop: run ``once`` until about ``seconds`` have been measured.

    Another iteration starts only if, at the median pace so far (set-up
    samples included), it would end within the budget; at least one always
    runs.
    """
    done: list[Iteration] = []
    paces: list[float] = []
    start = time.perf_counter()
    while True:
        begun = time.perf_counter()
        done.append(once())
        paces.append(time.perf_counter() - begun)
        if time.perf_counter() - start + statistics.median(paces) > seconds:
            return done


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True,
                        help="recorded only: the workloads are fixed instances")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hanoi_dimer" / "cli.py").is_file():
        print(f"no hanoi_dimer source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # one CPU for the harness, its children and the host probe (see HostProbe)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    setup = SetupSampler()  # sampled only where setup_s is reported
    probe: HostProbe | None = None
    traced: list[Iteration] = []
    try:
        if args.trace:
            untraced = repeat(args.seconds / 2, lambda: run_iteration(workload, deadline))
            numbers = itertools.count()
            traced = repeat(args.seconds / 2, lambda: run_iteration(
                workload, deadline, f"{workload.name}-seed{args.seed}-{next(numbers)}"))
        else:
            probe = HostProbe()
            # Linux nice values are per thread: the probe thread keeps its own
            os.setpriority(os.PRIO_PROCESS, 0, 19)
            untraced = repeat(args.seconds, lambda: run_iteration(
                workload, deadline, setup=setup))
    finally:
        if probe is not None:
            probe.stop()
    try:
        WORK.rmdir()
    except OSError:
        pass

    iterations = untraced + traced
    problems = [p for it in iterations for p in it.problems]
    failed = sum(1 for it in iterations if it.problems)
    if args.trace:
        per_iteration = [layer_metrics(it.span_lists) for it in traced]
        values = {name: statistics.median(m[name] for m in per_iteration)
                  for name in per_iteration[0]}
        values["trace.overhead_s"] = spans.tracing_overhead(
            [it.wall_s for it in traced], [it.wall_s for it in untraced])
        units = per_layer_units()
    else:
        wall_speed, cpu_speed = probe.speed()
        values = {
            "wall_s": wall_speed * trimmed_mean(it.wall_s for it in untraced),
            "cpu_s": cpu_speed * trimmed_mean(it.cpu_s for it in untraced),
            "peak_rss_mb": statistics.median(it.rss_mb for it in untraced),
            "setup_s": wall_speed * statistics.median(setup.samples),
        }
        units = END_TO_END_UNITS
    print(json.dumps({
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine(),
        "commands": [" ".join(c) for c in workload.commands],
        "untraced_wall_s": [round(it.wall_s, 4) for it in untraced],
        "untraced_cpu_s": [round(it.cpu_s, 4) for it in untraced],
        "traced_wall_s": [round(it.wall_s, 4) for it in traced],
        "setup_s": [round(t, 4) for t in setup.samples],
        "probe_wall_s": [round(t, 5) for t in probe.wall_s] if probe else [],
        "probe_cpu_s": [round(t, 5) for t in probe.cpu_s] if probe else [],
        "problems": problems[:10],
    }))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(iterations),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
