"""One pass of a workload in a fresh interpreter.

    python3 worker.py PLAN.json SRC_DIR

The plan lists the operations (tool and argv) and the mode:

  setup   import pcurvkit.cli and stop
  plain   run every operation, nothing wrapped, with the speed probe on
  spans   the same under Tracer spans, probe on; writes the plan's spans file
  counts  the same with GF(p) arithmetic counted

The last line on stdout is one JSON object: the monotonic clock reading
when `import pcurvkit.cli` finished, the probe kernel's time around the
import and the time the probe itself took, the wall time of the
operations (with the probe on, also in reference seconds; see probe.py),
peak RSS, and each operation's exit status and report.  The CLIs' own
output is captured, never printed.
"""

import sys
import time


def main() -> int:
    plan_path, src = sys.argv[1], sys.argv[2]
    import os
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from probe import Probe, burst
    probed = time.monotonic()
    kernel_s = burst()
    probe_s = time.monotonic() - probed

    sys.path.insert(0, src)
    import pcurvkit.cli
    imported = time.monotonic()
    kernel_s = (kernel_s + burst()) / 2

    import io
    import json
    import resource
    from contextlib import redirect_stderr, redirect_stdout

    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    out = {"imported_at": imported, "probe_s": probe_s, "kernel_s": kernel_s}
    if plan["mode"] == "setup":
        print(json.dumps(out))
        return 0

    import tracer as tracing

    tracer = counter = None
    if plan["mode"] == "spans":
        tracer = tracing.Tracer()
        tracer.install()
    elif plan["mode"] == "counts":
        counter = tracing.Counter()
        counter.install()

    mains = {"pcurv": "pcurv_main", "rep": "rep_main", "deform": "deform_main"}
    raw = []
    probe = Probe() if plan["mode"] in ("plain", "spans") else None
    if probe is not None:
        probe.start()
    t0 = time.perf_counter()
    for i, op in enumerate(plan["ops"]):
        if tracer is not None:
            tracer.op = i
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        try:
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = getattr(pcurvkit.cli, mains[op["tool"]])(op["argv"])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # an operation that raises counts as failed
            code, error = None, f"{type(exc).__name__}: {exc}"
        raw.append((code, stdout.getvalue(), stderr.getvalue(), error))
    wall = ref_wall = time.perf_counter() - t0
    if probe is not None:
        wall, ref_wall = probe.stop()

    ops = []
    for code, text, err, error in raw:
        try:
            results = json.loads(text)["results"] if text.strip() else None
        except (ValueError, KeyError):
            results = None
            error = error or "report is not JSON"
        ops.append({"code": code, "results": results,
                    "error": error or (err.strip() or None)})
    out.update({
        "wall_s": wall,
        "ref_wall_s": ref_wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    })
    if tracer is not None:
        summary = tracer.summary()
        out["layers"] = tracing.layer_metrics(summary, tracer)
        out["spans"] = summary
        out["span_count"] = len(tracer.name_id)
        out["unwrapped"] = tracer.unwrapped
        tracer.write(plan["spans_out"])
    if counter is not None:
        out["gf_ops"] = counter.calls
        out["unwrapped"] = counter.unwrapped
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
