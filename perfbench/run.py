"""orthosym benchmark: closed-loop CLI requests on three workloads.

    python3 perfbench/run.py --workload dense-eig --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the
per-layer metrics of BENCHMARK.json.  ``--workload all`` runs every
workload in its own process (both modes when ``--trace 1``) and prints one
table.  The last line of stdout is always one JSON result.
"""

import os

# Before numpy is imported: pin BLAS to one thread in this process and in
# every interpreter it starts.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NAMES = ("dense-eig", "small-mixed", "graph-search")


def _load_program():
    """Import orthosym from this checkout's src/ and nowhere else."""
    if not (SRC / "orthosym" / "cli.py").is_file():
        sys.exit(f"perfbench: no orthosym sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import orthosym.cli

    if Path(orthosym.cli.__file__).resolve().parent != SRC / "orthosym":
        sys.exit(f"perfbench: orthosym was imported from {orthosym.cli.__file__}, not {SRC}")
    return orthosym.cli


def _line(name, value, unit, note=""):
    print(f"  {name:<36} {value:>14.6g} {unit:<14} {note}")


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _load_program()
    import harness
    import spans
    import workloads

    workload = workloads.WORKLOADS[name]()
    workdir = WORK / f"{name}-seed{seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        inp = workloads.Inputs(seed, workdir)
        env = harness.environment(ROOT, seed)
        client = harness.Client(cli)
        warm = [client.send(r) for r in workload.warmup(inp)]
        if trace:
            requests = [r for _ in range(workload.trace_cycles) for r in workload.cycle(inp)]
            plain = [client.send(r) for r in requests]
            recorder = spans.Recorder()
            recorder.install()
            try:
                client.recorder = recorder
                traced = [client.send(r) for r in requests]
            finally:
                client.recorder = None
                recorder.uninstall()
            recorder.dump(WORK / f"spans-{name}-seed{seed}.json")
            ratio = sum(o.seconds for o in traced) / sum(o.seconds for o in plain)
            metrics = recorder.metrics(ratio)
            units = {m: u for m, u, _ in spans.PER_LAYER}
            outcomes = plain  # the traced pass repeats these requests
        else:
            outcomes, final_probe = harness.run_for(client, lambda: workload.cycle(inp), seconds)
            times = harness.corrected(outcomes, final_probe)
            setup_raw, setup = harness.measure_setup(str(SRC))
            metrics = harness.end_to_end(outcomes, times, statistics.median(setup))
            raw = harness.end_to_end(outcomes, [o.seconds for o in outcomes], statistics.median(setup_raw))
            units = dict(harness.END_TO_END)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checked = warm + outcomes + (traced if trace else [])
    failed = [o for o in checked if o.failure]
    wrong = [o for o in failed if not o.cut]
    mix = harness.mix(outcomes)
    n = len(outcomes)
    print(f"workload {name}  seed {seed}  {'traced' if trace else 'untraced'}  closed loop, 1 client, 1 thread")
    print(f"  environment {json.dumps(env, sort_keys=True)}")
    print(f"  why: {workload.why}")
    print(f"  request mix {json.dumps(mix['kinds'])}")
    print(f"  size mix {json.dumps(mix['sizes'])}  repeat share {mix['repeat_share']:.3f}")
    if trace:
        for key, value in metrics.items():
            _line(key, value, units[key])
        print(f"  (spans of {len(traced)} traced requests; the same requests untraced give the ratio)")
        print("  one closed-loop client: no layer has a queue, so waiting time is 0 s in every layer")
    else:
        beyond = sum(t * 1e3 > metrics["latency_p90_ms"] for t in times)
        notes = {
            "setup_s": f"median of {len(setup)} interpreter starts",
            "requests_per_s": f"{sum(not o.cut for o in outcomes)} completed / their time",
            "latency_p50_ms": f"n={n} requests",
            "latency_p90_ms": f"n={n} requests, {beyond} beyond",
            "peak_rss_mb": "n=1 process (ru_maxrss)",
        }
        probes = sorted(o.probe for o in outcomes)
        print(
            f"  times are host-corrected to a {harness.REFERENCE_PROBE_S * 1e3:g} ms probe "
            f"(probe median {probes[n // 2] * 1e3:.3f} ms, p90/p10 {probes[n * 9 // 10] / probes[n // 10]:.2f}); raw wall time in brackets"
        )
        for key, value in metrics.items():
            _line(key, value, units[key], f"[{raw[key]:.6g}]  {notes[key]}")
        _line("failed_ratio", harness.failed_ratio(outcomes), "ratio", f"{sum(o.failure is not None for o in outcomes)} of {n} requests")
    for o in failed[:10]:
        print(f"  FAILED {o.kind} n={o.size}: {o.failure}")
    return {
        "correct": not wrong,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Each workload in a fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        for mode in (0, 1) if trace else (0,):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(mode)]
            done = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if done.returncode != 0 or not lines:
                sys.exit(f"perfbench: {name} exited with code {done.returncode}")
            result = json.loads(lines[-1])
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for key, metric in result["metrics"].items():
                combined["metrics"][f"{name}.{key}"] = metric
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        _load_program()
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
