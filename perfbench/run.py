"""Benchmark of the isopath command line, end to end and layer by layer.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 36 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  One run:

1. times ``setup_s``: SETUP_STARTS fresh interpreters each import
   ``isopath.cli`` and load the verified base-cover table, as every CLI
   process does; the median of their CPU times is reported;
2. writes the inputs of (workload, seed) with ``inputs.py`` in a child
   process, under ``.perfbench_out/``;
3. runs the op list in passes, one client in a closed loop, each op one
   in-process ``isopath.cli.main(argv)`` call.  An untimed ``gc.collect()``
   precedes every op and every output is checked after its timed span.
   Passes repeat while the next one is expected to end within
   ``--seconds`` of wall time;
4. prints one line per metric, then the result as one JSON line.

With ``--trace 1`` the first half of the time runs untraced and the second
half traced (see ``spans.py``); the result then holds the per-layer
metrics, and ``trace.ops_ratio`` is traced over untraced ops per second.
Spans are written to ``.perfbench_out/trace-<workload>-<seed>.json``.

An op fails on an unexpected exit code, wrong output, output that differs
from its first run, or an escaped exception.  An unproven optimum
is not wrong output, but it lowers ``solved_rate``.

Times are CPU time of the process (set-up) or of the thread (ops and
spans), not wall time.  The program is single-threaded and CPU-bound, so
on an idle machine the two agree; on a shared virtual machine the
hypervisor takes the CPU away in bursts (steal time), which stretches wall
time by up to 1.6x from one minute to the next but is not charged as CPU
time.  The end-to-end times are further scaled by the reference loop of
``speed.py``, run beside each op and each set-up, because CPU time itself
moves with the load of other tenants; span times are plain CPU time.
"""

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter, deque

import inputs
import speed
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
SETUP_STARTS = 21

SETUP_PROBE = """\
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
del sys.path[0]
r0 = speed.reference_ms()
t0 = time.process_time()
import isopath.cli
from isopath import base_covers
t1 = time.process_time()
base_covers.base_cover_table()
t2 = time.process_time()
print(t2 - t0, t2 - t1, r0, speed.reference_ms())
"""


def measure_setup(starts):
    """CPU seconds to import the CLI and load the base covers, and the load
    part alone, in fresh interpreters, scaled by the reference loop run
    before and after.  One untimed start fills the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    totals, loads = [], []
    for i in range(starts + 1):
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, HERE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        total, load, *reference = map(float, proc.stdout.split())
        if i:
            totals.append(total * speed.scale(reference))
            loads.append(load * speed.scale(reference))
    return totals, loads


# --- output checks ---------------------------------------------------------


def _fields(stdout):
    out = {}
    for line in stdout.splitlines():
        for token in line.split():
            key, _, value = token.partition("=")
            out.setdefault(key, value)
    return out


def _read_paths(name):
    with open(name, encoding="ascii") as handle:
        lines = [line.split() for line in handle if line.strip() and not line.startswith("#")]
    return [tuple(int(v) for v in line) for line in lines]


def _cover_ok(adj, paths):
    """Reference check: every path simple, a walk, and shortest; all vertices covered."""
    covered = set()
    for p in paths:
        if len(set(p)) != len(p) or any(b not in adj[a] for a, b in zip(p, p[1:])):
            return False
        dist = {p[0]: 0}
        queue = deque([p[0]])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if dist.get(p[-1]) != len(p) - 1:
            return False
        covered.update(p)
    return covered == set(range(len(adj)))


def _adjacency(name):
    with open(name, encoding="ascii") as handle:
        n = int(handle.readline().split()[1])
        adj = [set() for _ in range(n)]
        for line in handle:
            _, u, v = line.split()
            adj[int(u)].add(int(v))
            adj[int(v)].add(int(u))
    return adj


class Checker:
    """Judges one op's output; returns (error or None, solved)."""

    def __init__(self, workload):
        self.check = getattr(self, "_" + workload)
        self._graphs = {}

    def _construct(self, op, rc, stdout):
        size = op["expect"]["size"]
        if rc != 0:
            return f"exit {rc}", False
        if stdout != f"size={size}\n":
            return f"printed {stdout!r}, closed form is {size}", False
        if len(_read_paths(op["argv"][-1])) != size:
            return "written cover does not hold size= paths", False
        return None, True

    def _certify(self, op, rc, stdout):
        want = op["expect"]
        fields = _fields(stdout)
        if rc != (0 if want["valid"] else 2):
            return f"exit {rc}", False
        if fields.get("valid") != ("true" if want["valid"] else "false"):
            return f"valid={fields.get('valid')}", False
        if fields.get("size") != str(want["size"]) or fields.get("uncovered") != str(want["uncovered"]):
            return "size or uncovered count differs from the ground truth", False
        bad = sorted(int(line.split()[0][5:]) for line in stdout.splitlines() if line.startswith("path="))
        if bad != want["bad_paths"]:
            return f"rejected paths {bad}, injected {want['bad_paths']}", False
        return None, True

    def _oracle(self, op, rc, stdout):
        want = op["expect"]
        fields = _fields(stdout)
        proven = fields.get("proven") == "true"
        if rc != (0 if proven else 2) or "nodes" not in fields:
            return f"exit {rc} with proven={fields.get('proven')}", False
        paths = _read_paths(op["argv"][-1])
        if fields.get("size") != str(len(paths)):
            return "size= differs from the written cover", False
        graph = want["graph"]
        if graph not in self._graphs:
            self._graphs[graph] = _adjacency(graph)
        if not _cover_ok(self._graphs[graph], paths):
            return "written cover is not a valid isometric path cover", False
        if len(paths) < want["size"] or (proven and want["exact"] and len(paths) != want["size"]):
            return f"size {len(paths)}, closed form {want['size']}", False
        return None, proven


# --- the op loop -----------------------------------------------------------


class Run:
    def __init__(self, workload, ops, meter):
        self.ops = ops
        self.meter = meter
        self.checker = Checker(workload)
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.unsolved = set()  # indices of ops with a run that did not end solved
        self.errors = Counter()
        self.first_pass_rss_kb = None

    def _execute(self, i, main):
        op = self.ops[i]
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        before = speed.reference_ms()
        mark = len(self.meter.runs)
        start = time.thread_time_ns()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = main(list(op["argv"]))
        except (Exception, SystemExit) as exc:
            rc = exc
        elapsed = time.thread_time_ns() - start
        elapsed *= speed.scale([before, *self.meter.runs[mark:], speed.reference_ms()])
        self.attempted += 1
        stdout = out.getvalue()
        if isinstance(rc, BaseException):
            error, solved = f"raised {type(rc).__name__}", False
        else:
            # a malformed or missing output file is this op's failure, not the run's
            try:
                error, solved = self.checker.check(op, rc, stdout)
                if error is None:
                    error = self._check_repeats(i, op, rc, stdout)
            except Exception as exc:  # recorded as the op's error
                error, solved = f"check raised {type(exc).__name__}: {exc}", False
        if error is not None:
            self.failed += 1
            self.errors[f"{op['label']}: {error}"] += 1
        if error is not None or not solved:
            self.unsolved.add(i)
        return elapsed

    def _check_repeats(self, i, op, rc, stdout):
        """The op's exit code, output and written file, as in its first run."""
        digest = hashlib.sha256(f"{rc}\n{stdout}".encode())
        if "-o" in op["argv"]:
            with open(op["argv"][-1], "rb") as handle:
                digest.update(handle.read())
        if self.digests.setdefault(i, digest.digest()) != digest.digest():
            return "output differs from the first pass"
        return None

    def schedule(self):
        """One pass as a list of op indices.  An op with ``repeat`` runs that
        many times, spread evenly over the pass: the machine's speed changes
        over seconds, and runs back to back would all meet the same state."""
        n = len(self.ops)
        runs = []
        for i, op in enumerate(self.ops):
            k = op.get("repeat", 1)
            runs.extend(((j + (i + 0.5) / n) / k, i) for j in range(k))
        return [i for _, i in sorted(runs)]

    def passes(self, seconds, main, on_op=None):
        """Whole passes over the ops until the next would end after ``seconds``.
        Returns per-op lists of durations in ns, and the number of passes."""
        durations = [[] for _ in self.ops]
        order = self.schedule()
        start = time.perf_counter()
        passes = 0
        while True:
            for i in order:
                if on_op is not None:
                    on_op(passes, i)
                durations[i].append(self._execute(i, main))
            passes += 1
            if self.first_pass_rss_kb is None:
                self.first_pass_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if (time.perf_counter() - start) * (passes + 1) / passes > seconds:
                return durations, passes


def op_times(durations):
    """Each op's time in ms: the lower median of its runs."""
    return [statistics.median_low(d) / 1e6 for d in durations]


def ops_per_s(durations):
    """Op runs completed per (scaled) CPU second over the whole run.  Every
    pass runs the full mix, so this is throughput at the workload's mix."""
    return sum(map(len, durations)) / (sum(map(sum, durations)) / 1e9)


def end_to_end(run, durations, setup):
    times = op_times(durations)
    samples = sum(map(len, durations))
    return {
        "ops_per_s": (ops_per_s(durations), "1/s", samples),
        "op_p50_ms": (statistics.median(times), "ms", samples),
        "op_p90_ms": (statistics.quantiles(times, n=10)[8], "ms", samples),
        "solved_rate": (1 - len(run.unsolved) / len(run.ops), "ratio", len(run.ops)),
        "peak_rss_mb": (run.first_pass_rss_kb / 1024, "MB", 1),
        "setup_s": (statistics.median(setup), "s", len(setup)),
    }


def pass_counts(tracer, passes):
    """Layer counts summed over each traced pass."""
    totals = [Counter() for _ in range(passes)]
    for (pass_index, _), counts in tracer.counts.items():
        totals[pass_index].update(counts)
    return totals


def per_layer(tracer, passes, counts, untraced, traced, loads):
    self_s = {name: seconds / passes for name, seconds in tracer.self_times().items()}
    metrics = {}
    for name in ("graph.generate", "graph.parse", "graph.distances", "construct.build",
                 "cover.verify", "cover.io", "solver.enumerate", "solver.search"):
        metrics[name + "_s"] = (self_s.get(name, 0.0), "s", passes)
    metrics["cli.self_s"] = (self_s["cli"], "s", passes)
    metrics["base_covers.load_s"] = (statistics.median(loads), "s", len(loads))
    for name in ("graph.edges", "construct.paths", "base_covers.lookups", "cover.verify_paths",
                 "cover.rejected_paths", "solver.pool_paths", "solver.nodes"):
        metrics[name] = (counts[name], "count", passes)
    search = self_s.get("solver.search")
    metrics["solver.nodes_per_s"] = (counts["solver.nodes"] / search if search else 0.0, "1/s", passes)
    solves = counts["solver.solves"]
    metrics["solver.proven_ratio"] = (counts["solver.proven"] / solves if solves else 0.0, "ratio", solves)
    metrics["trace.ops_ratio"] = (ops_per_s(traced) / ops_per_s(untraced), "ratio", passes)
    return metrics


def traced_run(run, seconds, isopath, loads):
    """Half the time untraced, half traced; returns (metrics, tracer)."""
    untraced, _ = run.passes(seconds / 2, isopath.cli.main)
    tracer = Tracer()
    tracer.install(isopath)
    try:
        traced, passes = run.passes(seconds / 2, tracer.wrap("cli", isopath.cli.main),
                                    lambda pass_index, i: setattr(tracer, "op", (pass_index, i)))
    finally:
        tracer.uninstall()
    counts = pass_counts(tracer, passes)
    if any(c != counts[0] for c in counts):
        run.failed += 1
        run.errors["layer counts differ between passes"] += 1
    return per_layer(tracer, passes, counts[0], untraced, traced, loads), tracer


def print_trace(tracer, ops, metrics):
    """Each layer's share of op time, and the exact counts of the hard ops."""
    op_s = sum(end - start for name, start, end, _, _ in tracer.spans if name == "cli") / 1e9
    op_s /= metrics["cli.self_s"][2]
    for name, (value, unit, _) in metrics.items():
        if unit == "s" and value and name != "base_covers.load_s":
            print(f"share {name[:-2]} {100 * value / op_s:.1f}% of {op_s:.3f} s op time per pass")
    for i, op in enumerate(ops):
        if op.get("hard"):
            counts = tracer.counts[(0, i)]
            print(f"count {op['label']}: solver.nodes={counts['solver.nodes']} "
                  f"solver.pool_paths={counts['solver.pool_paths']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description="isopath CLI benchmark")
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "isopath", "cli.py")):
        print(f"error: no isopath sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import isopath.cli
    from isopath import base_covers

    # One CPU for the whole run, inherited by every thread and child: the
    # speed meter thread then measures the CPU the ops run on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    totals, loads = measure_setup(SETUP_STARTS)
    work = os.path.join(OUT, f"{args.workload}-{args.seed}")
    shutil.rmtree(work, ignore_errors=True)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "inputs.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", work],
        check=True, timeout=170,
    )
    with open(os.path.join(work, "ops.json"), encoding="ascii") as handle:
        ops = json.load(handle)
    base_covers.base_cover_table()  # once per process, as in a CLI run; timed by setup_s

    cwd = os.getcwd()
    os.chdir(work)
    try:
        with speed.Meter() as meter:
            run = Run(args.workload, ops, meter)
            if args.trace:
                metrics, tracer = traced_run(run, args.seconds, isopath, loads)
            else:
                metrics = end_to_end(run, run.passes(args.seconds, isopath.cli.main)[0], totals)
    finally:
        os.chdir(cwd)
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        with open(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"), "w",
                  encoding="ascii") as handle:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": tracer.spans}, handle)
        print_trace(tracer, ops, metrics)
    for error, count in sorted(run.errors.items()):
        print(f"failed x{count} {error}")
    for name, (value, unit, n) in metrics.items():
        print(f"metric {name} {value:.6g} {unit} n={n}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
