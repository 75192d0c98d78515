#!/usr/bin/env python3
"""The repository benchmark: host throughput of trace replay, end to end
and layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload replay-32w --seed 64165 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates two untraced and two traced runs and reports the
per-layer metrics (see README.md).  Every repetition runs in a fresh
process, timed from its launch to the start of the replay (set-up) and
across the replay itself, so no repetition inherits another's heap,
imports or invocation ids.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it holds provenance, per-repetition samples and the outcome of every
output check.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0xFAA5
# Used only to verify claims, never while writing a change.
HELDOUT_SEED = 0xBEEF
STUDY = "study-pull-observed"
SHARDED = "replay-32w-2shard"
MODEL_NOTE = (
    "The simulator is unvalidated against real hardware: the repository "
    "holds no reference measurements, so simulated statistics are checked "
    "for identity across runs and engines, not for accuracy."
)


def _load_source() -> None:
    """Put the checkout's ``src`` first on the path, or stop."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no simulator source under {src}")
    sys.path.insert(0, str(src))


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=lambda s: int(s, 0), default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # One repetition in this process (the parent spawns these).
    parser.add_argument("--repetition", choices=("plain", "traced"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--full-check", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ------------------------------------------------------ one repetition
def repetition(W, args) -> dict:
    """Build the inputs, run the workload once, check its outputs.

    Prints a ready line between set-up and the timed region so the parent
    can time set-up from process launch.
    """
    tracer = None
    if args.repetition == "traced":
        import layers
        from tracer import Tracer

        tracer = Tracer().install(layers.PROBES)
    region = tracer.region if tracer else (lambda _name: contextlib.nullcontext())
    workload = args.workload
    run_dir = None
    try:
        with region("bench.setup"):
            inputs = W.build_inputs(workload, args.seed)
        if workload == STUDY:
            run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
        gc.collect()
        print(json.dumps({"ready": True}), flush=True)
        with region("bench.run"):
            t0 = perf_counter()
            if workload == STUDY:
                out = W.run_study(inputs, run_dir)
            elif workload == SHARDED:
                out = W.run_sharded(inputs)
            else:
                out = W.run_serial(inputs)
            elapsed = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    report = {"arrivals": inputs["arrivals"], "digest": inputs["digest"],
              "elapsed": elapsed}
    try:
        if tracer is not None:
            report["metrics"] = layers.per_layer_metrics(
                tracer.probes, inputs["arrivals"], elapsed,
                out.get("flight"), out.get("seam"),
                W.run_dir_bytes(run_dir) if run_dir else None,
                W.count_lines(run_dir / "traces.jsonl") if run_dir else 0,
            )
            if args.spans:
                report["spans"] = tracer.dump(ROOT / args.spans)
                report["self_s"] = {
                    k: round(v, 6) for k, v in sorted(tracer.self_seconds().items())
                }
        if workload != STUDY:
            report["summary"] = W.check_replay(out, inputs)
        elif args.full_check:
            report["summary"] = W.check_study(out, inputs)
        else:
            report["summary"] = W.study_outcome(out, inputs)
    except W.CheckFailed as exc:
        report["failure"] = {"message": str(exc), "failed": exc.failed}
    finally:
        if run_dir is not None:
            shutil.rmtree(run_dir, ignore_errors=True)
    return report


def spawn(workload: str, seed: int, mode: str = "plain",
          full_check: bool = False, spans: str | None = None) -> tuple:
    """Run one repetition in a fresh process: (set-up seconds, report)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--repetition", mode]
    if full_check:
        cmd.append("--full-check")
    if spans:
        cmd += ["--spans", spans]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        rest = proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or not ready or not rest.strip():
        raise RuntimeError(f"{mode} repetition of {workload} exited with code {code}")
    return setup, json.loads(rest.strip().splitlines()[-1])


# ------------------------------------------------------------- the run
class Ledger:
    """Arrivals attempted and failed, plus checks that fail the run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()

    def verify(self, report: dict, reference) -> dict | None:
        """Account one repetition; returns its summary, None if it failed.

        ``reference`` is the summary the repetition must equal: the serial
        engine's on the sharded workload, else the first repetition's.  A
        study repetition after the first returns only its cheap checks and
        run-dir digest, so it is compared on the keys it has.
        """
        n = report["arrivals"]
        self.attempted += n
        self.digests.add(report["digest"])
        failure = report.get("failure")
        if failure:
            self.failed += failure["failed"]
            self.problems.append(failure["message"])
            return None
        summary = report["summary"]
        if reference is not None and any(
            reference.get(k) != v for k, v in summary.items()
        ):
            self.failed += n
            self.problems.append("simulated outcome differs from the reference run")
            return None
        return summary


def serial_reference(workload: str, seed: int, ledger: Ledger):
    """The serial engine's summary, which the sharded engine must equal."""
    if workload != SHARDED:
        return None
    _setup, report = spawn("replay-32w", seed)
    if report.get("failure"):
        ledger.problems.append(f"serial reference: {report['failure']['message']}")
        return None
    ledger.digests.add(report["digest"])
    return report["summary"]


def measure(workload: str, seed: int, seconds: float, ledger: Ledger) -> dict:
    """Untraced repetitions until ``seconds`` of replay have been timed."""
    reference = serial_reference(workload, seed, ledger)
    rates, setups, measured = [], [], 0.0
    while not rates or measured < seconds:
        setup, report = spawn(workload, seed, full_check=reference is None)
        setups.append(setup)
        measured += report["elapsed"]
        rates.append(report["arrivals"] / report["elapsed"])
        summary = ledger.verify(report, reference)
        reference = reference or summary
    return {
        "metrics": {
            "inv_per_s": {"value": statistics.median(rates), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        },
        "detail": {"inv_per_s": rates, "setup_s": setups, "summary": reference},
    }


def traced(workload: str, seed: int, ledger: Ledger) -> dict:
    """Two traced repetitions, whose counts must repeat, each after an
    untraced one that gives the tracing overhead."""
    import layers

    reference = serial_reference(workload, seed, ledger)
    spans = f"{OUT.name}/spans-{workload}-seed{seed}.jsonl.gz"
    plains, runs = [], []
    for k in range(2):
        _setup, plain = spawn(workload, seed, full_check=reference is None)
        summary = ledger.verify(plain, reference)
        reference = reference or summary
        plains.append(plain)
        runs.append(spawn(workload, seed, "traced", spans=None if k else spans)[1])
    for report in runs:
        if ledger.verify(report, reference) is None:
            ledger.problems.append("the traced run changed the simulated outcome")
    first, second = runs[0]["metrics"], runs[1]["metrics"]
    unrepeated = sorted(
        name for name, (unit, _better) in layers.METRICS.items()
        if unit in layers.DETERMINISTIC_UNITS and name in first
        and first[name] != second[name]
    )
    if unrepeated:
        ledger.problems.append(f"per-layer counts differ between traced runs: {unrepeated}")
    untraced = statistics.fmean(p["arrivals"] / p["elapsed"] for p in plains)
    rates = [r["arrivals"] / r["elapsed"] for r in runs]
    values = {name: statistics.fmean([first[name], second[name]]) for name in first}
    values["bench.traced_inv_per_s"] = statistics.fmean(rates)
    values["bench.tracing_slowdown"] = untraced / values["bench.traced_inv_per_s"]
    return {
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, (unit, _better) in layers.METRICS.items()
        },
        "detail": {
            "untraced_inv_per_s": untraced,
            "traced_inv_per_s": rates,
            "counts_repeat": not unrepeated,
            "spans_file": spans,
            "spans": runs[0]["spans"],
            "self_s": runs[0]["self_s"],
            "summary": reference,
        },
    }


# ----------------------------------------------------------- reporting
def peak_rss_mb() -> float:
    """High-water resident set of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def provenance(W, workload: str, seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, check=True,
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode())
        src.update(path.read_bytes())
    why = {
        w["name"]: w["why"]
        for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    }
    return {
        "workload": workload,
        "why": why[workload],
        "params": W.WORKLOADS[workload],
        "seed": seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": src.hexdigest()[:16],
        "model": MODEL_NOTE,
    }


def main(argv=None) -> int:
    args = _args(argv)
    _load_source()
    import workloads as W

    if args.workload not in W.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(W.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    if args.repetition:
        print(json.dumps(repetition(W, args), default=str))
        return 0

    ledger = Ledger()
    if args.trace:
        result = traced(args.workload, args.seed, ledger)
    else:
        result = measure(args.workload, args.seed, args.seconds, ledger)
    if len(ledger.digests) > 1:
        ledger.problems.append("set-up built different inputs at the same seed")
    detail = provenance(W, args.workload, args.seed)
    detail.update(result["detail"], problems=ledger.problems)
    print(json.dumps(detail, default=str))
    print(json.dumps({
        "correct": ledger.failed == 0 and not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
