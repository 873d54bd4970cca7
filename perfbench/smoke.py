#!/usr/bin/env python3
"""Smoke test of the benchmark on tiny inputs.

Run from the root of a checkout:

    python3 perfbench/smoke.py

For every workload it checks that

* ``--smoke --trace 0`` at the default seed is correct, fails no op,
  matches the output digests in perfbench/expected.json and reports every
  end-to-end metric of BENCHMARK.json with its unit;
* ``--smoke --trace 1`` run twice at another seed is correct and reports
  every per-layer metric, and that the counts are identical across the
  two processes;

and that in a directory holding only BENCHMARK.json and perfbench/ the
benchmark exits non-zero without printing a result.  Exits 1 on the
first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(RUN), *map(str, args)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout.splitlines(), proc.stderr


def result(args):
    code, lines, err = bench(*args)
    if code != 0 or not lines:
        fail(f"{args} exited with {code}: {err.strip()}")
    out = json.loads(lines[-1])
    if sorted(out) != ["attempted", "correct", "failed", "metrics"]:
        fail(f"{args}: result keys {sorted(out)}")
    if not out["correct"] or out["failed"] or out["attempted"] < 1:
        fail(f"{args}: {out['attempted']} attempted, {out['failed']} failed, correct={out['correct']}\n"
             + "\n".join(line for line in lines if line.startswith("FAIL")))
    return out["metrics"]


def expect_metrics(metrics, declared, args):
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != want:
        fail(f"{args}: metrics {got} do not match BENCHMARK.json {want}")


def fail(message):
    print(f"smoke: FAIL {message}")
    sys.exit(1)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json lists other workloads than perfbench/run.py")
    for name in run.WORKLOADS:
        args = ["--workload", name, "--seconds", 1, "--smoke"]
        expect_metrics(result(args + ["--seed", run.DEFAULT_SEED, "--trace", 0]), spec["end_to_end"], args)
        traced = [result(args + ["--seed", 7, "--trace", 1]) for _ in range(2)]
        expect_metrics(traced[0], spec["per_layer"], args)
        counts = [{k: m["value"] for k, m in t.items() if m["unit"].startswith("count")} for t in traced]
        if counts[0] != counts[1]:
            fail(f"{name}: counts differ between two runs at one seed: {counts}")
        print(f"smoke: {name} ok")

    bare = run.WORK / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = bench("--workload", "pph", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or any(line.startswith("{") for line in lines):
        fail(f"without the sources the benchmark exited {code} and printed {lines}")
    print("smoke: a checkout without sources is refused")
    print("smoke: all checks passed")


if __name__ == "__main__":
    main()
