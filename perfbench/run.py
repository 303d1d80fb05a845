"""diffnet benchmark: one command, two seeded workloads.

    python3 perfbench/run.py --workload {default,cyclic} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. Set-up generates the workload's corpus from
the seed and writes ``tweets.jsonl`` and ``labels.csv``; it is repeated
three times and ``setup_s`` is the median. The pipeline then runs at
``jobs=1`` in a fresh process (``worker.py``) that sees only those files,
so ``peak_rss_mb`` is that process's peak; classify runs in two rounds
and ``classify_s`` is their mean. Article vectors are checked
against an independent reference and, for seeds listed in
``digests.json``, the features CSV, both reports and the sweep series
against recorded sha256 digests.

The last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` (ops: one per article featurization and per
sweep cell) and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer spans and
counts of a traced run. The lines before it are the run record: machine
facts, corpus parameters, input properties, stage times and, when traced,
self time per module and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 3
# the whole run must end within 180 s
DEADLINE_S = 170

sys.path.insert(0, str(ROOT / "src"))


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def machine_facts() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def setup(workload: str, seed: int, inputs: Path, repeats: int) -> tuple[list[float], dict]:
    from workloads import build_inputs

    times = []
    params: dict = {}
    for _ in range(repeats):
        t0 = time.perf_counter()
        params = build_inputs(workload, seed, inputs)
        times.append(time.perf_counter() - t0)
    return times, params


def end_to_end(result: dict, setup_s: float) -> dict:
    lat = result["article_latency"]
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "classify_s": {"value": result["classify_s"], "unit": "s"},
        "pipeline_s": {
            "value": result["classify_s"] + result.get("sweep_s", 0.0), "unit": "s"
        },
        "article_p50_ms": {"value": lat["p50_ms"], "unit": "ms"},
        "article_tail_ms": {"value": lat["tail_ms"], "unit": "ms"},
        "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
    }


def per_layer(result: dict) -> dict:
    out = {}
    for name, value in result["per_layer"].items():
        if any(part.endswith("_s") for part in name.split(".")):
            unit = "s"
        elif name.endswith("_share"):
            unit = "ratio"
        else:
            unit = "count"
        out[name] = {"value": value, "unit": unit}
    return out


def record(args, result: dict, setup_times: list[float], params: dict) -> list[str]:
    """Human-readable run record, printed before the result line."""
    check = result["check"]
    props = check["properties"]
    lines = [
        f"workload {args.workload} seed {args.seed} trace {args.trace} jobs {result['jobs']}",
        "machine " + json.dumps(machine_facts(), sort_keys=True),
        "corpus " + json.dumps(params, sort_keys=True),
        "setup_s runs " + " ".join(f"{t:.4f}" for t in setup_times),
        f"inputs tweets_parsed {result['tweets_parsed']} articles_grouped "
        f"{result['articles_grouped']} articles_kept {result['articles_kept']}",
        "inputs articles_per_size_class "
        + json.dumps(props["articles_per_size_class"], sort_keys=True),
        f"inputs largest_layer_nodes {props['largest_layer_nodes']}",
        "inputs cyclic_lwcc_share "
        f"{props['cyclic_lwcc_share']['cyclic']}/{props['cyclic_lwcc_share']['base']} "
        f"= {props['cyclic_lwcc_share']['value']:.4f} (largest WCCs of the Q/RT/M/R layers)",
        f"inputs sweep_cells {props['sweep_cells']} distinct_prefixes "
        f"{props['sweep_distinct_prefixes']} (lifetimes checked against the reference: "
        f"{props['sweep_lifetimes_checked_by_reference']})",
        "stages_s " + json.dumps(
            {k: round(v, 4) for k, v in result["stages"].items()}, sort_keys=True
        ),
        f"classify_s {result['classify_s']:.4f}",
    ]
    if "classify_rounds_s" in result:
        lines[-1] += " (mean of rounds " + " ".join(
            f"{t:.4f}" for t in result["classify_rounds_s"]
        ) + ")"
    if "sweep_s" in result:
        lines.append(f"sweep_s {result['sweep_s']:.4f} (pipeline_s = classify_s + sweep_s)")
    if "article_latency" in result:
        lat = result["article_latency"]
        lines.append(
            f"article latency p50 {lat['p50_ms']:.3f} ms, p{lat['tail_percentile']:g} "
            f"{lat['tail_ms']:.3f} ms, max {lat['max_ms']:.3f} ms over {lat['articles']} "
            f"articles (median per article of {lat['samples']} timings in {lat['passes']} passes, "
            f"{lat['seconds']:.3f} s)"
        )
    if "per_layer" in result:
        lines.append(
            f"tracing overhead: traced classify_s {result['traced_classify_s']:.4f} - "
            f"untraced {result['classify_s']:.4f} = {result['tracing_overhead_s']:.4f} s"
        )
        if "traced_sweep_s" in result:
            lines.append(f"traced sweep_s {result['traced_sweep_s']:.4f}")
        for root, modules in sorted(result["self_by_module"].items()):
            total = sum(modules.values())
            lines.append(
                f"self time under {root} ({total:.4f} s): "
                + ", ".join(f"{m} {t:.4f}" for m, t in sorted(modules.items()))
            )
        lines.append(
            "untraced stages for comparison: " + ", ".join(
                f"{k} {v:.4f}" for k, v in sorted(result["stages"].items())
            )
        )
        pl = result["per_layer"]
        lines.append(
            f"graphops.cyclic_lwcc_share {pl['graphops.cyclic_lwcc_share']:.4f} "
            f"of base graphops.lwccs {pl['graphops.lwccs']:g} (every distance call)"
        )
    lines.append(
        f"check ops {check['ops']} ops_failed {check['ops_failed']} digests "
        f"{'compared' if check['digests_recorded'] else 'not recorded for this seed'} "
        f"({result['check_s']:.1f} s, untimed)"
    )
    for item in check["mismatches"][:20]:
        lines.append(f"check mismatch: {item}")
    lines.append("digests " + json.dumps(check["digests"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="diffnet benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diffnet" / "__init__.py").is_file():
        return fail(f"no diffnet sources under {ROOT / 'src'}")
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; expected one of {WORKLOADS}")

    run_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs = run_dir / "inputs"
    out = run_dir / "result.json"
    try:
        started = time.monotonic()
        # setup_s is an end-to-end metric only; a traced run sets up once
        repeats = 1 if args.trace else SETUP_REPEATS
        setup_times, params = setup(args.workload, args.seed, inputs, repeats)
        env = dict(os.environ)
        # one string-hash layout for every run, so set and dict orders in
        # the program do not change its speed from run to run
        env["PYTHONHASHSEED"] = "0"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(HERE)] + env.get("PYTHONPATH", "").split(os.pathsep)
        ).rstrip(os.pathsep)
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--inputs", str(inputs), "--out", str(out),
        ]
        try:
            timeout = DEADLINE_S - (time.monotonic() - started)
            proc = subprocess.run(cmd, env=env, timeout=timeout, check=False)
        except subprocess.TimeoutExpired:
            return fail(f"run took longer than {DEADLINE_S} s")
        if proc.returncode != 0 or not out.is_file():
            return fail(f"worker exited with code {proc.returncode}")
        result = json.loads(out.read_text())
        if args.trace:
            # the spans file outlives the run directory
            spans = run_dir / f"spans-{args.workload}-{args.seed}.jsonl"
            spans.replace(WORK / spans.name)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for line in record(args, result, setup_times, params):
        print(line)
    check = result["check"]
    metrics = per_layer(result) if args.trace else end_to_end(
        result, statistics.median(setup_times)
    )
    print(
        json.dumps(
            {
                "correct": check["ops_failed"] == 0,
                "attempted": check["ops"],
                "failed": check["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
