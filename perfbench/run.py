"""End-to-end benchmark of the spherediv CLI.

Run from the repository root:

    python3 perfbench/run.py --workload obstruct --seed 1 --seconds 20 --trace 0

Workloads: obstruct, circle, tile, finite (see workloads.py for why each
exists).  One process, one client, no threads: a closed loop that calls
``spherediv.cli.main(argv)`` in-process, one op at a time, with ``--output``
into the run's scratch directory.  Each op starts cold: the zonal basis cache
is cleared before it.  Every op's output is checked by the benchmark's own
code (checks.py) after the op's clock stops.

``--trace 0`` repeats the generated pass until ``--seconds`` of op time have
been spent, finishing the pass it is in, and prints the end-to-end metrics.  ``--trace 1`` runs the
pass twice untraced and twice traced, alternating, prints the per-layer
metrics (times per traced pass) and the tracing overhead, checks that the
deterministic counts agree between the two traced passes and with any
earlier run of the same seed on the same code, and writes the spans under
``.perfbench/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  ``failed`` counts ops with a wrong or missing
answer (a failed check, an exception, or an exit code other than 0).  The
``tile`` instances built to run past the node budget may end with exit 3
instead; such a stop is reported separately and is included in
``failed_share``.  On any other op exit 3 is a failure.  The traced run also
checks that every budget stop searched exactly one node past the budget.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from collections import deque
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

import checks
import tracing
import workloads

END_TO_END = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_REPEATS = 7
TRACED_PASSES = 2
STATE_DIR = ".perfbench"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_import_seconds(src: str) -> float:
    """Import time of spherediv.cli in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import spherediv.cli; "
            "print(time.perf_counter() - t)")
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def fill_cache(zonal, ops) -> None:
    keys = workloads.cache_keys(ops)
    if not keys:
        return
    cache_dir = next(op.env["SPHEREDIV_CACHE_DIR"] for op in ops
                     if op.env.get("SPHEREDIV_CACHE_DIR"))
    saved = os.environ.get("SPHEREDIV_CACHE_DIR")
    os.environ["SPHEREDIV_CACHE_DIR"] = cache_dir
    try:
        zonal.clear_cache()
        for d, n in keys:
            zonal.build_zonal_basis(d, n)
    finally:
        zonal.clear_cache()
        if saved is None:
            del os.environ["SPHEREDIV_CACHE_DIR"]
        else:
            os.environ["SPHEREDIV_CACHE_DIR"] = saved


class Runner:
    """Runs ops one at a time and classifies their outcomes."""

    def __init__(self, cli_main, zonal, out_path: str):
        self.cli_main = cli_main
        self.zonal = zonal
        self.out_path = out_path
        self.tracer = None
        self.op_id = 0
        self.problems: list[str] = []

    def run(self, op):
        """(seconds, outcome, parsed output); outcome is ok, budget or failed."""
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        saved = {k: os.environ.get(k) for k in op.env}
        os.environ.update(op.env)
        self.zonal.clear_cache()
        self.op_id += 1
        err = io.StringIO()
        code = None
        try:
            with redirect_stderr(err), redirect_stdout(io.StringIO()):
                if self.tracer is not None:
                    self.tracer.op = self.op_id
                    idx = self.tracer.begin("cli")
                t0 = perf_counter()
                try:
                    code = self.cli_main(op.argv + ["--output", self.out_path])
                finally:
                    seconds = perf_counter() - t0
                    if self.tracer is not None:
                        self.tracer.end(idx)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            err.write(f"{type(exc).__name__}: {exc}")
        except SystemExit as exc:  # argparse rejected the arguments
            err.write(f"SystemExit {exc.code}")
        finally:
            for k, v in saved.items():
                if v is None:
                    os.environ.pop(k, None)
                else:
                    os.environ[k] = v
        return seconds, *self.classify(op, code, err.getvalue())

    def classify(self, op, code, stderr: str):
        if code == 0:
            try:
                with open(self.out_path, encoding="utf-8") as fh:
                    data = json.load(fh)
                op.check(data)
                return "ok", data
            except (checks.CheckFailed, OSError, ValueError, KeyError,
                    TypeError, IndexError) as exc:
                self.problem(op, f"check failed: {type(exc).__name__}: {exc}")
                return "failed", None
        if code == 3 and op.budget_limited:
            return "budget", None
        self.problem(op, f"exit {code}: {stderr.strip()[:300]}")
        return "failed", None

    def problem(self, op, text: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{op.kind} {' '.join(op.argv)}: {text}")


class Tally:
    def __init__(self):
        self.latencies_ms: list[float] = []
        self.busy = 0.0
        self.failed = 0
        self.budget = 0

    def add(self, seconds: float, outcome: str) -> None:
        self.latencies_ms.append(1000.0 * seconds)
        self.busy += seconds
        self.failed += outcome == "failed"
        self.budget += outcome == "budget"

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    def tail(self) -> tuple[float, float]:
        """(value, percentile) of the highest percentile with >= 10 ops above."""
        lat = sorted(self.latencies_ms)
        n = len(lat)
        if n <= 10:
            return lat[-1], 100.0
        return lat[n - 11], 100.0 * (n - 10) / n


def run_ops(runner: Runner, ops, tally: Tally, seconds: float | None,
            between_passes=None) -> None:
    """One pass over the ops (seconds None), or whole passes until seconds of
    op time have been spent.  Whole passes keep the mix of input kinds the
    same in every run, however many ops the machine's speed lets through.
    ``between_passes`` is called after each pass, outside the op clock."""
    queue = deque()
    index = 0
    while True:
        if queue:
            op = queue.popleft()
        elif index % len(ops) == 0 and index:
            if between_passes is not None:
                between_passes()
            if seconds is None or tally.busy >= seconds:
                return
            op = ops[0]
            index += 1
        else:
            op = ops[index % len(ops)]
            index += 1
        spent, outcome, data = runner.run(op)
        tally.add(spent, outcome)
        if outcome == "ok" and op.then is not None:
            follow = op.then(data)
            if follow is not None:
                queue.append(follow)


def code_digest(root: str) -> str:
    """Digest of the program and benchmark sources, to key stored counts."""
    h = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(root, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".py", ".json")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, root).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()[:16]


def compare_with_earlier(root: str, workload: str, seed: int, counts: dict) -> list[str]:
    """Check the counts against an earlier run of this seed on the same code."""
    path = os.path.join(root, STATE_DIR, "counts",
                        f"{workload}-{seed}-{code_digest(root)}.json")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            earlier = json.load(fh)
        return [f"{k}: {earlier.get(k)} in an earlier run, {v} now"
                for k, v in counts.items() if earlier.get(k) != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(counts, fh, sort_keys=True)
    os.replace(tmp, path)
    return []


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def emit(lines: list[str], result: dict) -> None:
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "spherediv", "cli.py")):
        sys.stderr.write("perfbench: run from the repository root (src/spherediv missing)\n")
        return 2
    sys.path.insert(0, src)
    run_dir = os.path.join(root, STATE_DIR, f"run-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        return bench(args, root, src, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def bench(args, root: str, src: str, run_dir: str) -> int:
    t0 = perf_counter()
    import spherediv.cli as cli
    from spherediv import zonal
    import_s = perf_counter() - t0

    setups = []

    def set_up():
        """One set-up: import spherediv.cli in a fresh interpreter, generate
        the inputs and fill the disk cache; returns the ops."""
        spent = child_import_seconds(src)
        t0 = perf_counter()
        rep_ops = workloads.build(args.workload, args.seed,
                                  os.path.join(run_dir, f"in{len(setups)}"))
        fill_cache(zonal, rep_ops)
        setups.append(spent + perf_counter() - t0)
        return rep_ops

    ops = set_up()
    runner = Runner(cli.main, zonal, os.path.join(run_dir, "out.json"))
    head = f"perfbench {args.workload} seed {args.seed}"
    if not args.trace:
        tally = Tally()

        def set_up_again():
            # the other set-ups are spread over the run, so that a swing in
            # machine speed lasting a few seconds moves only some of them
            share = min(1.0, tally.busy / args.seconds)
            while len(setups) < 1 + (SETUP_REPEATS - 1) * share:
                set_up()

        run_ops(runner, ops, tally, args.seconds, set_up_again)
        setup_s = statistics.median(setups)
        tail, pct = tally.tail()
        values = {"ops_per_s": tally.attempted / tally.busy,
                  "latency_p50_ms": statistics.median(tally.latencies_ms),
                  "latency_tail_ms": tail, "setup_s": setup_s, "peak_rss_mb": peak_rss_mb()}
        lines = [f"{head}: closed loop, 1 client, {tally.attempted} ops in "
                 f"{tally.busy:.2f} s of op time, pass of {len(ops)} generated inputs"]
        lines += [f"{name} {values[name]:.6g} {unit}" for name, unit in END_TO_END.items()]
        above = sum(1 for x in tally.latencies_ms if x > tail)
        lines.append(f"latency_tail_ms is p{pct:.1f} of {tally.attempted} ops "
                     f"({above} ops above it)")
        lines.append(f"setup_s is the median of {len(setups)} set-ups, the first before "
                     f"the timed phase and the others between passes")
        lines.append(f"failed_share {(tally.failed + tally.budget) / tally.attempted:.6g} "
                     f"ratio ({tally.failed} failed + {tally.budget} past the node budget "
                     f"of {tally.attempted})")
        lines += [f"problem: {p}" for p in runner.problems]
        emit(lines, {"correct": tally.failed == 0, "attempted": tally.attempted,
                     "failed": tally.failed,
                     "metrics": {name: {"value": values[name], "unit": unit}
                                 for name, unit in END_TO_END.items()}})
        return 0

    # untraced and traced passes alternate, so a drift in machine speed
    # shifts both sides of the overhead alike
    untraced, traced = Tally(), Tally()
    tracer = tracing.Tracer()
    passes = []
    for _ in range(TRACED_PASSES):
        run_ops(runner, ops, untraced, None)
        runner.tracer = tracer
        tracer.install()
        try:
            run_ops(runner, ops, traced, None)
        finally:
            tracer.uninstall()
            runner.tracer = None
        passes.append(tracer.take_pass())
    tracing.write_spans(os.path.join(root, STATE_DIR, f"spans-{args.workload}-{args.seed}.jsonl"),
                        passes)
    counts = [tracing.deterministic_counts(p) for p in passes]
    mismatches = [f"{k}: pass 1 {counts[0][k]}, pass {i + 1} {c[k]}"
                  for i, c in enumerate(counts[1:], start=1) for k in c if c[k] != counts[0][k]]
    mismatches += compare_with_earlier(root, args.workload, args.seed, counts[0])
    values = tracing.layer_values(passes, import_s, statistics.median(untraced.latencies_ms),
                                  statistics.median(traced.latencies_ms))
    spec = tracing.per_layer_spec()
    attempted = untraced.attempted + traced.attempted
    failed = untraced.failed + traced.failed
    lines = [f"{head}: traced run, {TRACED_PASSES} untraced and {TRACED_PASSES} traced "
             f"passes, alternating, of {len(ops)} generated inputs; per-layer times are "
             f"seconds per traced pass"]
    lines += [f"{m['name']} {values[m['name']]:.6g} {m['unit']}" for m in spec]
    lines += [f"deterministic count mismatch: {m}" for m in mismatches]
    lines += [f"problem: {p}" for p in runner.problems + tracer.problems]
    emit(lines, {"correct": failed == 0 and not mismatches and not tracer.problems,
                 "attempted": attempted,
                 "failed": failed,
                 "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                             for m in spec}})
    return 0


if __name__ == "__main__":
    sys.exit(main())
