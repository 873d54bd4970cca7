#!/usr/bin/env python3
"""Seeded benchmark of the extph command-line pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pph --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: each op is an in-process call to
``extph.cli.main([...])`` with ``--out`` pointing at a file under
``.perfbench_work/``, on input files generated from ``--seed``.  Every
output is checked.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload, each in its own
process, and prints all of their metrics.  See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 9
TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile


def _levels(rng, count, distinct):
    """``count`` values on a grid of exactly ``distinct`` levels, in random order."""
    levels = [0.25 * (k + 1) for k in range(distinct)]
    values = levels + [rng.choice(levels) for _ in range(count - distinct)]
    rng.shuffle(values)
    return values


def _digraph_text(rng, vertices, out_degree, weights):
    """Every vertex has exactly ``out_degree`` out-edges to random targets.

    A fixed out-degree d fixes the number of allowed paths: n d edges,
    n d^2 two-paths and n d^3 three-paths, so inputs of one size cost
    about the same and run-to-run spread comes from the machine.
    """
    names = [f"v{i:03d}" for i in range(vertices)]
    edges = []
    for a in range(vertices):
        edges += [(a, b) for b in sorted(rng.sample([b for b in range(vertices) if b != a], out_degree))]
    lines = [f"{v}\t-\t-" for v in names]
    lines += [f"{names[a]}\t{names[b]}\t{w!r}" for (a, b), w in zip(edges, _levels(rng, len(edges), weights))]
    return "\n".join(lines) + "\n"


def _hypergraph_text(rng, vertices, per_arity, weights):
    """Every vertex as a hyperedge, plus ``per_arity`` random hyperedges of each arity 2..5."""
    names = [f"v{i:03d}" for i in range(vertices)]
    edges = [(v,) for v in range(vertices)]
    for arity in range(2, 6):
        chosen = set()
        while len(chosen) < per_arity:
            chosen.add(tuple(sorted(rng.sample(range(vertices), arity))))
        edges += sorted(chosen)
    values = _levels(rng, len(edges), weights)
    return "".join(f"{w!r}\t{','.join(names[i] for i in e)}\n" for e, w in zip(edges, values))


def _check_diagram(text):
    from extph.diagrams import format_diagram, read_diagram

    if format_diagram(read_diagram(text)) != text:
        return "diagram does not round-trip through read_diagram/format_diagram"
    return None


def _check_stability(text):
    lines = text.splitlines()
    rows = lines[1:-1]
    if lines[0] != "trial\td_E\td_B\tstatus" or not rows:
        return "stability report has no trial rows"
    for row in rows:
        _, d_e, d_b, status = row.split("\t")
        if status != "pass" or not float(d_b) <= float(d_e) + 1e-9:
            return f"stability trial failed: {row!r}"
    if lines[-1] != f"# {len(rows)}/{len(rows)} trials within the stability bound":
        return f"bad stability summary {lines[-1]!r}"
    return None


# Sizes were picked on a 2-core x86-64 sandbox (Python 3.11, numpy 2.4) so
# that one op takes a few tenths of a second and a 30 s run holds dozens.
WORKLOADS = {
    # Main user path: input build, validation and the cone dominate, the
    # matcher never runs; the no-change control for matcher work.
    "pph": dict(
        make=_digraph_text,
        size=dict(vertices=60, out_degree=3, weights=30),
        smoke=dict(vertices=8, out_degree=2, weights=5),
        argv=["pph", "--pmax", "2"],
        check=_check_diagram,
    ),
    # Tall extension blocks over a small basis at p_max 3: the same cone,
    # matrix and reduction layers on another shape.
    "hyper": dict(
        make=_hypergraph_text,
        size=dict(vertices=80, per_arity=355, weights=40),
        smoke=dict(vertices=8, per_arity=6, weights=5),
        argv=["hyper", "--pmax", "3"],
        check=_check_diagram,
    ),
    # The bottleneck matcher plus four pipelines per op; matcher work and
    # the recomputed unperturbed diagram show here, with pph as control.
    "stability": dict(
        make=_digraph_text,
        size=dict(vertices=56, out_degree=2, weights=30),
        smoke=dict(vertices=8, out_degree=2, weights=5),
        argv=["stability", "--trials", "2", "--delta", "0.25"],
        check=_check_stability,
    ),
    # The rank oracle takes nearly all of each op; the control for every
    # other layer.
    "oracle": dict(
        make=_digraph_text,
        size=dict(vertices=9, out_degree=2, weights=7),
        smoke=dict(vertices=5, out_degree=2, weights=3),
        argv=["pph", "--oracle-check"],
        check=_check_diagram,
    ),
}
INPUTS = {"full": 64, "smoke": 2}  # distinct inputs per run
TRACED_INPUTS = 8  # the traced run cycles over the first few, so counts repeat


def _fail(message):
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(2)


def _commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _tail(values):
    """(percentile, value, samples beyond it) for the highest whole percentile
    with TAIL_BEYOND samples above it, or the maximum when there are too few.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100, ordered[-1], 0
    pct = 100 * (n - TAIL_BEYOND) // n
    rank = math.ceil(pct * n / 100)
    return pct, ordered[rank - 1], n - rank


def _setup_probe():
    """Wall seconds for a fresh interpreter to start and import extph.cli."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", "import extph.cli"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


class Bench:
    """The inputs, the op and its output checks for one workload run."""

    def __init__(self, name, mode, seed, work):
        import extph.cli

        self.main = extph.cli.main
        spec = WORKLOADS[name]
        self.check = spec["check"]
        size = spec["smoke" if mode == "smoke" else "size"]
        t0 = time.perf_counter()
        self.argvs = []
        self.out = work / "out.tsv"
        for i in range(INPUTS[mode]):
            path = work / f"input{i:02d}.tsv"
            path.write_text(spec["make"](random.Random(f"{name}:{seed}:{i}"), **size))
            argv = spec["argv"]
            self.argvs.append([argv[0], str(path), *argv[1:], "--out", str(self.out)])
        self.input_gen_s = time.perf_counter() - t0
        self.digests = [None] * len(self.argvs)
        self.expected = None
        if seed == DEFAULT_SEED and EXPECTED.is_file():
            self.expected = json.loads(EXPECTED.read_text()).get(mode, {}).get(name)
        self.attempted = 0
        self.errors = []
        self.cpus = sorted(os.sched_getaffinity(0))

    def pin(self, k):
        """Run the next op, and any set-up probe it spawns, on the k-th CPU in turn.

        On the 2-core sandbox each core had slow stretches of its own, and a
        process left on one core sampled only that core's; in 8 alternated
        pairs of runs, pinning in turn halved the run-to-run spread of the
        timing metrics.
        """
        os.sched_setaffinity(0, {self.cpus[k % len(self.cpus)]})

    def op(self, i, main):
        """Run input i once; return its wall seconds, or None when it failed."""
        self.attempted += 1
        self.out.unlink(missing_ok=True)
        gc.collect()  # a CLI user starts each op with a fresh heap; leave no garbage to the next op
        t0 = time.perf_counter()
        try:
            code = main(self.argvs[i])
        except (Exception, SystemExit) as exc:  # includes RecursionError from the matcher
            problem = f"{type(exc).__name__}: {exc}"
        else:
            elapsed = time.perf_counter() - t0
            problem = f"exit code {code}" if code != 0 else self._verify(i)
            if problem is None:
                return elapsed
        self.errors.append(f"input {i}: {problem}")
        return None

    def _verify(self, i):
        try:
            data = self.out.read_bytes()
        except OSError as exc:
            return f"no output: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if self.digests[i] is None:
            if self.expected is not None and digest != self.expected[i]:
                return f"output sha256 {digest} differs from the recorded {self.expected[i]}"
            self.digests[i] = digest
            return self.check(data.decode("utf-8"))
        if digest != self.digests[i]:
            return "output differs from an earlier op on the same input"
        return None

    def loop(self, seconds, main, min_ops=0):
        """Closed loop over the inputs in order, with SETUP_REPEATS set-up probes
        spread over it, so that both sample the whole run.

        Returns (op seconds, loop seconds without the probes, probe seconds).
        """
        times, setup = [], []
        start = time.perf_counter()
        deadline = start + seconds
        k = 0
        while time.perf_counter() < deadline or k < max(min_ops, 1):
            self.pin(k)
            if time.perf_counter() >= start + (len(setup) + 0.5) * seconds / SETUP_REPEATS:
                setup.append(_setup_probe())
            elapsed = self.op(k % len(self.argvs), main)
            if elapsed is not None:
                times.append(elapsed)
            k += 1
        setup += [_setup_probe() for _ in range(SETUP_REPEATS - len(setup))]
        return times, time.perf_counter() - start - sum(setup), setup


def _traced(bench, seconds):
    """The first TRACED_INPUTS inputs in turn, each untraced and then traced,
    for ``seconds`` and until each of them has run.

    Returns the untraced op seconds, per traced op (seconds, self seconds
    per span name), each input's counts, the tracer and any problems.
    """
    n_inputs = min(TRACED_INPUTS, len(bench.argvs))
    tracer = spans.Tracer()
    traced_main = tracer.wrap(spans.ROOT_SPAN, bench.main)
    untraced, per_op, first, problems = [], [], {}, []
    start = time.perf_counter()
    k = 0
    while time.perf_counter() < start + seconds or k < n_inputs:
        i = k % n_inputs
        bench.pin(k)  # both ops of a pair on one core, so the overhead ratio compares like with like
        k += 1
        elapsed = bench.op(i, bench.main)
        if elapsed is not None:
            untraced.append(elapsed)
        root = len(tracer.spans)
        with tracer:
            elapsed = bench.op(i, traced_main)
        counts = tracer.take_counts()
        if elapsed is None:
            continue
        try:
            selfs, calls = spans.self_times(tracer.spans, root)
        except ValueError as exc:
            problems.append(f"input {i}: {exc}")
            continue
        if abs(sum(selfs.values()) - elapsed) > 0.001 + 0.01 * elapsed:
            problems.append(f"input {i}: self times sum to {sum(selfs.values())} s, the op took {elapsed} s")
        counts.update({f"{n}.calls": calls[n] for n in spans.CALLED})
        if first.setdefault(i, counts) != counts:
            problems.append(f"input {i}: counts differ between two ops on the same input")
        per_op.append((elapsed, selfs))
    if len(first) < n_inputs:
        problems.append("some input never completed a traced op")
    return untraced, per_op, first, tracer, problems


def run_workload(args):
    if not (SRC / "extph" / "__init__.py").is_file():
        _fail(f"no extph sources under {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import extph
    import numpy

    if SRC.resolve() not in Path(extph.__file__).resolve().parents:
        _fail(f"imported extph from {extph.__file__}, not from {SRC}")
    mode = "smoke" if args.smoke else "full"
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, mode, args.seed, work)
        bench.op(0, bench.main)  # warm-up, untimed
        if args.trace:
            loop_start = time.perf_counter()
            times, per_op, counts, tracer, problems = _traced(bench, args.seconds)
            loop_s = time.perf_counter() - loop_start
        else:
            every_input = len(bench.argvs) if args.record_digests else 0
            times, loop_s, setup = bench.loop(args.seconds, bench.main, min_ops=every_input)
            problems = []
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if args.record_digests:
        if args.seed != DEFAULT_SEED or bench.errors or None in bench.digests:
            _fail("digests are recorded only from a clean run at the default seed that covers every input")
        table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
        table.setdefault(mode, {})[args.workload] = bench.digests
        EXPECTED.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n")

    failed = len(bench.errors)
    for line in bench.errors + problems:
        print(f"FAIL {line}")
    if not times or (args.trace and not per_op):
        _fail("no op succeeded, so there is nothing to time")
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": mode,
        "commit": _commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "inputs": len(bench.argvs),
        "ops": {"warmup": 1, "timed": len(times), "attempted": bench.attempted},
        "input_gen_s": bench.input_gen_s,
        "loop_s": loop_s,
    }
    p25, p50, p75 = _quartiles(times)
    if args.trace:
        metrics = _layer_metrics(per_op, counts, p50)
        env["ops"]["traced"] = len(per_op)
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(json.dumps({"env": env, "spans": tracer.spans}))
        env["spans_file"] = str(trace_path.relative_to(ROOT))
    else:
        s25, s50, s75 = _quartiles(setup)
        pct, tail, beyond = _tail(times)
        metrics = {
            "setup_s": {"value": s50, "unit": "s"},
            "op_s.p50": {"value": p50, "unit": "s"},
            "op_s.tail": {"value": tail, "unit": "s"},
            "ops_per_s": {"value": len(times) / loop_s, "unit": "1/s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MiB"},
        }
        notes = {
            "setup_s": f"median of {len(setup)} fresh interpreters; q1 {s25:.4f}, q3 {s75:.4f}",
            "op_s.p50": f"q1 {p25:.4f}, q3 {p75:.4f}, n={len(times)}",
            "op_s.tail": f"p{pct}, {beyond} samples beyond it, n={len(times)}",
        }
        print(f"perfbench {args.workload} seed={args.seed} ops={len(times)} input_gen_s={bench.input_gen_s:.4f}")
        for name, m in metrics.items():
            print(f"  {name:<12} {m['value']:.6g} {m['unit']:<4} {notes.get(name, '')}")
        print(f"  {'fail_ratio':<12} {failed / bench.attempted:.6g}      {failed} of {bench.attempted} ops failed")
    print("env " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def _layer_metrics(per_op, counts, untraced_p50):
    metrics = {}
    for layer in spans.LAYERS:
        values = [selfs.get(layer, 0.0) for _, selfs in per_op]
        metrics[f"{layer}.self_s"] = {"value": statistics.median(values), "unit": "s"}
    traced_p50 = statistics.median(elapsed for elapsed, _ in per_op)
    metrics["trace.overhead_ratio"] = {"value": traced_p50 / untraced_p50, "unit": "ratio"}
    for name in [*spans.COUNTS, *(f"{n}.calls" for n in spans.CALLED)]:
        total = sum(c[name] for c in counts.values())
        unit = "count.computed" if name == "matcher.candidates" else "count"
        metrics[name] = {"value": total / max(len(counts), 1), "unit": unit}
    return metrics


def run_all(args):
    """Every workload in its own process, then all metrics in one table."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited with code {proc.returncode}")
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0, help="length of the timed loop")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for perfbench/smoke.py")
    ap.add_argument(
        "--record-digests", action="store_true",
        help=f"store this run's output digests in {EXPECTED.name} (default seed only)",
    )
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
