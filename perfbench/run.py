"""Time-to-verdict benchmark for the pcurv, rep and deform command lines.

    python3 perfbench/run.py --workload scan --seed 0 --seconds 20 --trace 0

The program is imported from the src/ directory beside perfbench/.  Each
pass is one fresh interpreter that imports pcurvkit.cli and runs every
operation of the workload in sequence, in-process through pcurv_main /
rep_main / deform_main: a closed loop with one client and --jobs 1.
Passes repeat until --seconds is used up (at least MIN_PASSES); every
metric is the median over passes.

--trace 0 reports the end-to-end metrics.  The result line carries times
in reference seconds (probe.py: raw time rescaled by the machine's speed
at the moment), which stay steady on a shared host; raw wall and set-up
times are printed beside them.  --trace 1 makes one untraced pass, one
pass with spans around pcurvkit's public entry points and one pass
counting GF(p) arithmetic, and reports the per-layer metrics.
--workload all runs the four workloads in turn.  --record stores the
answers of seed 0 and the holdout seed in expected.json.

Every operation's report is checked (see workloads.py); the last line of
stdout is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from probe import REFERENCE_S  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
EXPECTED = os.path.join(HERE, "expected.json")

SETUP_SAMPLES = 7          # import-only interpreters per run, besides one per pass
MIN_PASSES = 3
RUN_LIMIT_S = 170          # every run ends well inside the 180 s a run may take

# name, unit, better, in the result line.  Times in the result line are
# reference seconds (probe.py); raw times are printed beside them.
END_TO_END = [
    ("ref_wall_s", "s", "lower", True),
    ("setup_s", "s", "lower", True),
    ("peak_rss_mb", "MB", "lower", True),
    ("wall_s", "s", "lower", False),
    ("raw_setup_s", "s", "lower", False),
]


class RunFailed(RuntimeError):
    """The benchmark itself cannot run (no program to measure)."""


# -- child processes ----------------------------------------------------------


def _child(plan: dict, deadline: float) -> dict | None:
    """Run worker.py on a plan; its JSON, or None when it failed.

    The JSON gains "setup_s": spawn to `import pcurvkit.cli` done, without
    the probe's own time.
    """
    os.makedirs(OUT, exist_ok=True)
    plan_path = os.path.join(OUT, f"plan-{os.getpid()}.json")
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), plan_path, SRC],
            capture_output=True, text=True, env=env,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return None
    finally:
        os.remove(plan_path)
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return None
    try:
        got = json.loads(proc.stdout.strip().splitlines()[-1])
    except ValueError:
        return None
    got["setup_s"] = got["imported_at"] - spawned - got["probe_s"]
    return got


def _write_specs(workload: str, seed: int, ops: list[dict]) -> list[dict]:
    spec_dir = os.path.join(OUT, f"{workload}-{seed}")
    os.makedirs(spec_dir, exist_ok=True)
    planned = []
    for i, op in enumerate(ops):
        path = os.path.join(spec_dir, f"{i:02d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(op["spec"], fh, indent=1)
        planned.append({"tool": op["tool"],
                        "argv": [path if a == "{spec}" else a for a in op["args"]]})
    return planned


class Tally:
    """Operations attempted and failed, with the first few problems."""

    def __init__(self, workload, ops, recorded):
        self.workload, self.ops, self.recorded = workload, ops, recorded
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def add(self, child: dict | None) -> None:
        for i, op in enumerate(self.ops):
            self.attempted += 1
            got = child["ops"][i] if child is not None else None
            if got is None:
                problem = "pass did not finish"
            elif got["error"] and got["results"] is None:
                problem = got["error"]
            else:
                rec = self.recorded[i] if self.recorded else None
                try:
                    problem = workloads.check(self.workload, op, got["code"],
                                              got["results"], rec)
                except (KeyError, TypeError, IndexError, ValueError) as exc:
                    problem = f"unreadable report: {type(exc).__name__}: {exc}"
            if problem is not None:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"op {i} ({op['args'][0]}): {problem}")


# -- runs ---------------------------------------------------------------------


def timed_run(seconds, planned, tally) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    _child({"mode": "setup"}, deadline)          # warm the bytecode cache
    samples = {name: [] for name, *_ in END_TO_END}
    durations = []

    def add_setup(got):
        samples["raw_setup_s"].append(got["setup_s"])
        # at the speed the probe measured around the import
        samples["setup_s"].append(got["setup_s"] * REFERENCE_S / got["kernel_s"])

    for _ in range(SETUP_SAMPLES):
        got = _child({"mode": "setup"}, deadline)
        if got is not None:
            add_setup(got)
    while True:
        began = time.monotonic()
        got = _child({"mode": "plain", "ops": planned}, deadline)
        durations.append(time.monotonic() - began)
        tally.add(got)
        if got is not None:
            add_setup(got)
            for name in ("wall_s", "ref_wall_s", "peak_rss_mb"):
                samples[name].append(got[name])
        now = time.monotonic()
        if got is None or now >= deadline - max(durations):
            break
        if len(durations) >= MIN_PASSES and now + statistics.median(durations) > start + seconds:
            break
    return samples


def traced_run(workload, seed, planned, tally) -> tuple[dict, dict]:
    deadline = time.monotonic() + RUN_LIMIT_S
    _child({"mode": "setup"}, deadline)
    plain = _child({"mode": "plain", "ops": planned}, deadline)
    tally.add(plain)
    spans_out = os.path.join(OUT, f"spans-{workload}-{seed}.tsv.gz")
    spans = _child({"mode": "spans", "ops": planned, "spans_out": spans_out},
                   deadline)
    tally.add(spans)
    counts = _child({"mode": "counts", "ops": planned}, deadline)
    tally.add(counts)
    if plain is None or spans is None or counts is None:
        return {}, {}
    layers = dict(spans["layers"])
    layers["fields.gf_ops"] = counts["gf_ops"]
    layers["trace.overhead_ratio"] = spans["ref_wall_s"] / plain["ref_wall_s"]
    unwrapped = sorted(set(spans["unwrapped"]) | set(counts["unwrapped"]))
    layers["trace.unwrapped_count"] = len(unwrapped)
    detail = {"spans_file": os.path.relpath(spans_out, ROOT),
              "span_count": spans["span_count"], "unwrapped": unwrapped,
              "spans": spans["spans"], "plain_ref_wall_s": plain["ref_wall_s"],
              "traced_ref_wall_s": spans["ref_wall_s"]}
    return layers, detail


# -- reporting ----------------------------------------------------------------


def layer_unit(name: str) -> tuple[str, str]:
    if name.endswith(".calls") or name in ("fields.gf_ops", "connection.bad_primes",
                                           "surface.bfs.elements",
                                           "trace.unwrapped_count"):
        return "count", "lower"
    if name.endswith("_ratio") and name != "trace.overhead_ratio":
        return "ratio", "higher"
    if name == "trace.overhead_ratio":
        return "ratio", "lower"
    if name == "connection.p_exponent":
        return "log/log", "lower"
    return "s", "lower"


def high_percentile(values):
    """(label, value) of the highest percentile with ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    q = (n - 10) / n
    return f"p{int(q * 100)}", sorted(values)[n - 11]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_recorded(workload: str, seed: int):
    try:
        with open(EXPECTED, encoding="utf-8") as fh:
            return json.load(fh).get(workload, {}).get(str(seed))
    except FileNotFoundError:
        return None


def run_workload(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    if not os.path.isfile(os.path.join(SRC, "pcurvkit", "cli.py")):
        raise RunFailed(f"no pcurvkit sources under {SRC}; run from a checkout root")
    env = environment(seed)
    ops = workloads.build(workload, seed)
    planned = _write_specs(workload, seed, ops)
    tally = Tally(workload, ops, load_recorded(workload, seed))
    metrics, lines, detail = {}, [], {}
    if trace:
        layers, detail = traced_run(workload, seed, planned, tally)
        for name, value in layers.items():
            unit, better = layer_unit(name)
            metrics[name] = {"value": value, "unit": unit}
            lines.append(f"{workload:8s} {name:36s} {value:>14.6g} {unit:8s} ({better} is better)")
    else:
        samples = timed_run(seconds, planned, tally)
        detail = {"samples": samples}
        for name, unit, better, gated in END_TO_END:
            values = samples[name]
            if not values:
                continue
            med = statistics.median(values)
            if gated:
                metrics[name] = {"value": med, "unit": unit}
            hi = high_percentile(values)
            hi_text = f"{hi[0]} {hi[1]:.6g}" if hi else "no percentile (n <= 10)"
            lines.append(f"{workload:8s} {name:12s} median {med:10.6g} {unit:3s} "
                         f"{hi_text}, n={len(values)} ({better} is better)")
    fail_frac = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"{workload:8s} {'fail_frac':12s} {fail_frac:.6g} ratio "
                 f"({tally.failed}/{tally.attempted} operations; lower is better)")
    env["loadavg_end"] = list(os.getloadavg())
    result = {
        "correct": tally.failed == 0 and tally.attempted > 0 and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {"workload": workload, "trace": trace, "env": env,
              "problems": tally.problems, "result": result, **detail}
    with open(os.path.join(OUT, f"result-{workload}-{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for line in lines:
        print(line)
    for problem in tally.problems:
        print(f"{workload:8s} FAILED {problem}")
    print(f"{workload:8s} env {json.dumps(env, sort_keys=True)}")
    return result


def record_expected() -> int:
    """Store the answers of seed 0 and the holdout seed in expected.json."""
    stored = {}
    for workload in workloads.WORKLOADS:
        stored[workload] = {}
        for seed in (0, workloads.HOLDOUT_SEED):
            ops = workloads.build(workload, seed)
            planned = _write_specs(workload, seed, ops)
            got = _child({"mode": "plain", "ops": planned},
                         time.monotonic() + RUN_LIMIT_S)
            tally = Tally(workload, ops, None)
            tally.add(got)
            if tally.failed:
                print("\n".join(tally.problems), file=sys.stderr)
                return 1
            stored[workload][str(seed)] = [workloads.answer(workload, o["results"])
                                           for o in got["ops"]]
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(stored, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the answers of seed 0 and the holdout seed")
    args = parser.parse_args(argv)
    try:
        if args.record:
            return record_expected()
        if args.workload is None:
            parser.error("--workload is required")
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names}
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
