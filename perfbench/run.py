"""The repository benchmark: one command, three seeded workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_lem --seed 0 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
no instrumentation. ``--trace 1`` additionally repeats the timed work with
spans around each layer's calls and reports the per-layer metrics, every
layer's self time, and the tracing overhead (traced minus untraced) of
each end-to-end metric. Either way the correctness checks run outside
the timed region, and the last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is
0 only when every operation and check passed.

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import sys
import traceback

from benchlib.common import OUT_DIR, ROOT, Outcome, ProgramMissing, load_program, run_record
from benchlib.tracing import self_time_table

WORKLOADS = ("paper_lem", "sweep_standard", "serve_mixed")

#: Per-layer metric prefixes a workload never enters (reported as 0).
ABSENT_LAYERS = {
    "paper_lem": ("planner.", "pool.", "transport.", "service.", "cache.", "store.", "http."),
    "sweep_standard": ("engine.sequential.", "service.", "cache.", "store.", "http."),
    "serve_mixed": ("engine.sequential.",),
}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def report_trace(out: Outcome, e2e_names) -> None:
    """Self times, stage accounting and tracing overhead of a traced run."""
    rows = out.spans.self_times()
    print(f"self time by layer ({out.workload}, traced run)")
    print(self_time_table(rows))
    traced = out.extra["traced_e2e"]
    overhead = {}
    print(f"{'tracing overhead':34s} {'untraced':>14s} {'traced':>14s} {'traced-untraced':>16s}")
    for name in e2e_names:
        base = out.metrics[name].value
        if name in traced:
            overhead[name] = traced[name] - base
            print(f"{name:34s} {base:14.6g} {traced[name]:14.6g} {overhead[name]:16.6g}")
        else:
            print(f"{name:34s} {base:14.6g} {'-':>14s} {'no spans inside':>16s}")
    acc = out.extra.get("stage_accounting")
    if acc:
        print("engine stage accounting (ms per step): " + ", ".join(f"{k}={v:.4g}" for k, v in acc.items()))
    out.extra["self_times"] = rows
    out.extra["tracing_overhead"] = overhead
    span_path = os.path.join(OUT_DIR, f"{out.workload}-seed{out.seed}.spans.jsonl")
    out.spans.write(span_path)
    out.extra["span_file"] = os.path.relpath(span_path, ROOT)


def stop_process_helpers() -> None:
    """Stop the forkserver and resource tracker the pools started, and wait.

    Both exit on their own once this process ends; stopping them here
    means no process the benchmark started outlives it. Closed pools'
    semaphores are collected first, so none is left for the tracker.
    """
    from multiprocessing import forkserver, resource_tracker

    gc.collect()
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        load_program()
        spec = load_spec()
    except (ProgramMissing, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    module = importlib.import_module(f"benchlib.{args.workload}")
    e2e_names = [m["name"] for m in spec["end_to_end"]]
    layer_names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out = Outcome(args.workload, args.seed, bool(args.trace), run_record(), units)
    try:
        module.run(out, args.seconds)
    except Exception:  # noqa: BLE001 - any failure ends the run without a result
        traceback.print_exc()
        print(out.table(), file=sys.stderr)
        return 1
    finally:
        stop_process_helpers()

    names = layer_names if out.trace else e2e_names
    if out.trace:
        absent = ABSENT_LAYERS[out.workload]
        for name in layer_names:
            if name not in out.metrics and name.startswith(absent):
                out.put(name, 0.0, 0, note="layer not on this workload's path")
        report_trace(out, e2e_names)
    missing = [n for n in names if n not in out.metrics]
    if missing:
        print(out.table(), file=sys.stderr)
        print(f"error: workload did not measure {missing}", file=sys.stderr)
        return 1
    print(out.table())
    suffix = "traced" if out.trace else "untraced"
    out.save(os.path.join(OUT_DIR, f"{out.workload}-seed{out.seed}-{suffix}.json"))
    print(out.summary_line(names))
    return 0 if out.correct else 1


if __name__ == "__main__":
    # Guarded: the pool's forkserver re-imports this module in workers.
    sys.exit(main())
