"""Benchmark of the cbfsim command line, run in-process from source.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the program is imported from ``src/``.  The
load is a closed loop: one client issues each invocation of the workload
(see bench_workloads.py) only after the previous one has finished, and
repeats the whole list until ``--seconds`` are used up.  Every output is
checked; a failed check counts against ``failed`` and never stops the run.

``--trace 0`` reports the end-to-end metrics: the median wall time of the
invocation list, the median set-up time of fresh processes started between
repetitions, and the peak resident set.  ``--trace 1`` alternates plain and traced repetitions
and reports per-layer self times and counts from the traced ones (see
bench_trace.py), the workload-level rates from the plain ones, and the
tracing overhead between them.  The last line of standard output is the
result as JSON; spans and the full result go to ``.perfbench_work/``.

``--smoke`` runs every workload briefly and checks that each metric named in
BENCHMARK.json is printed with its unit and that a tampered output CSV is
counted as a failure.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench_trace import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# Set-up is probed in a fresh process after every repetition, so that its
# median spans the same window as the repetitions; at least this many.
MIN_SETUP_PROBES = 9
# Two repetitions at least, so reruns can be compared byte for byte.
MIN_REPS = 2
# Enough traced repetitions for per-layer medians; bounds the spans kept.
MAX_TRACED_REPS = 3
SMOKE_SEED = 7

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Workload-level rates, taken from plain repetitions of the traced run.
# Keyed by invocation name for the search rates.
SEARCH_RATES = {"pairs": "search_pairs_per_s",
                "triples": "search_triples_per_s",
                "stochastic": "search_evals_per_s"}

PER_LAYER = {
    "ber_mbit_s": "Mbit/s",
    "search_pairs_per_s": "1/s",
    "search_triples_per_s": "1/s",
    "search_evals_per_s": "1/s",
    "fail_ratio": "ratio",
    "trace.overhead_s": "s",
    "simulate.self_s": "s",
    "simulate.transmit_self_s": "s",
    "simulate.batches": "count",
    "simulate.bits": "bit",
    "simulate.points": "count",
    "simulate.points_at_max_bits": "count",
    "simulate.max_point_share": "ratio",
    **{f"simulate.mbit_s.{s}_{c}": "Mbit/s" for s in ("cbf", "rbf", "single")
       for c in ("awgn", "rayleigh")},
    "channel.noise_s": "s",
    "channel.noise_samples": "count",
    "channel.fading_s": "s",
    "channel.modulate_s": "s",
    "channel.demod_s": "s",
    "stbc.decode_s": "s",
    "stbc.codewords": "count",
    "arrays.steering_s": "s",
    "arrays.gain_power_s": "s",
    "arrays.gain_power_calls": "count",
    "arrays.composite_s": "s",
    "beams.exhaustive_self_s": "s",
    "beams.stochastic_self_s": "s",
    "beams.candidates": "count",
    "beams.stochastic_miss_ratio": "ratio",
    "beams.stochastic_evals": "count",
    "cli.self_s": "s",
    "cli.bytes_written": "byte",
    "env.src_lines": "lines",
    "env.nproc": "count",
    "env.blas_threads": "count",
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=("ber_lattice", "ber_point", "search"))
    p.add_argument("--seed", type=int, default=SMOKE_SEED)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--probe-setup", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.smoke and args.workload is None:
        p.error("--workload is required")
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be non-negative")
    return args


def load(workload: str, seed: int):
    """Import the program and build the workload's command lines; each line
    goes through the program's own argument parser once."""
    from cbfsim import cli
    import bench_workloads

    invocations = bench_workloads.WORKLOADS[workload](seed)
    parser = cli.build_parser()
    for inv in invocations:
        parser.parse_args(inv.argv_with_out(WORK / inv.name))
    return cli, invocations


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of one fresh process: import plus input construction
    before the first timed call."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--probe-setup",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
    return float(proc.stdout.split()[-1])


@dataclass
class Rep:
    """One pass over the workload's invocation list."""

    times: dict[str, float] = field(default_factory=dict)
    bits: int = 0
    candidates: dict[str, int] = field(default_factory=dict)
    bytes_written: int = 0
    layers: dict[str, float] | None = None

    @property
    def wall(self) -> float:
        return sum(self.times.values())


@dataclass
class Ledger:
    """Invocations attempted and failed, and each invocation's outputs from
    its first repetition, which later ones must repeat byte for byte."""

    attempted: int = 0
    failed: int = 0
    first: dict[str, dict[str, bytes]] = field(default_factory=dict)


def run_rep(cli, invocations, outdir: Path, ledger: Ledger, tracer=None,
            tamper=None) -> Rep:
    import bench_workloads

    rep = Rep()
    for inv in invocations:
        base = outdir / inv.name
        for old in outdir.glob(inv.name + ".*"):
            old.unlink()
        argv = inv.argv_with_out(base)
        stdout = io.StringIO()
        problems = []
        with contextlib.redirect_stdout(stdout):
            t0 = time.perf_counter()
            try:
                code = (tracer.span("cli.main", cli.main, argv) if tracer
                        else cli.main(argv))
            except Exception as exc:  # counted as a failed invocation
                code = None
                problems.append(f"raised {exc!r}")
            rep.times[inv.name] = time.perf_counter() - t0
        if code not in (0, None):
            problems.append(f"exit code {code}")
        if tamper is not None and inv.name in ledger.first:
            tamper(inv, base)  # smoke mode: corrupt a rerun's output
        outputs = bench_workloads.read_outputs(inv, base)
        outcome = bench_workloads.check(inv, outputs, stdout.getvalue(),
                                        ledger.first.get(inv.name))
        ledger.first.setdefault(inv.name, outputs)
        problems += outcome.problems
        rep.bits += outcome.bits
        if inv.command == "search":
            rep.candidates[inv.name] = outcome.candidates
        rep.bytes_written += sum(p.stat().st_size
                                 for p in outdir.glob(inv.name + ".*"))
        ledger.attempted += 1
        if problems:
            ledger.failed += 1
            print(f"check failed: {inv.name}: {'; '.join(problems[:3])}",
                  file=sys.stderr)
    return rep


def measure(cli, invocations, outdir: Path, seconds: float, trace: bool,
            tamper=None, between=None):
    """Closed-loop repetitions until ``seconds`` are used; with ``trace``,
    every other repetition runs under the span recorder until
    MAX_TRACED_REPS have.  ``between`` is called after each repetition."""
    ledger = Ledger()
    tracer = Tracer() if trace else None
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        gc.collect()  # start each repetition from the same heap state
        use_trace = (trace and len(plain) > len(traced)
                     and len(traced) < MAX_TRACED_REPS)
        if use_trace:
            first_span = len(tracer.spans)
            tracer.install()
            try:
                rep = run_rep(cli, invocations, outdir, ledger, tracer, tamper)
            finally:
                tracer.uninstall()
            rep.layers = layer_metrics(tracer.spans[first_span:])
            traced.append(rep)
        else:
            rep = run_rep(cli, invocations, outdir, ledger, None, tamper)
            plain.append(rep)
        if between is not None:
            between()
        done = len(plain) + len(traced)
        elapsed = time.perf_counter() - start
        if done >= MIN_REPS and elapsed * (done + 1) / done > seconds:
            break
    return ledger, plain, traced, tracer


def _median(values):
    return statistics.median(values) if values else 0.0


def workload_rates(plain: list[Rep]) -> dict[str, float]:
    rates = {"ber_mbit_s": _median([
        rep.bits / rep.wall * 1e-6 for rep in plain if rep.bits])}
    for name, metric in SEARCH_RATES.items():
        rates[metric] = _median([rep.candidates[name] / rep.times[name]
                                 for rep in plain if name in rep.candidates])
    return rates


def environment() -> dict:
    import numpy as np

    nproc = len(os.sched_getaffinity(0))
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": _blas_threads(nproc), "commit": _git_commit(),
            "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in (SRC / "cbfsim").rglob("*.py"))}


def _blas_threads(nproc: int) -> int:
    """OpenBLAS's own thread count when it is loaded, else the environment's
    request; capped at nproc either way."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        libs = []
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                fn = getattr(lib, name)
                fn.argtypes, fn.restype = [], ctypes.c_int
                return min(int(fn()), nproc)
    text = os.environ.get("OPENBLAS_NUM_THREADS") or os.environ.get(
        "OMP_NUM_THREADS", "")
    return min(int(text), nproc) if text.isdigit() else nproc


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    """Measure one workload; returns the result line's fields and the
    values of every metric, both end-to-end and per-layer."""
    cli, invocations = load(workload, seed)
    outdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    setup = []
    ledger, plain, traced, tracer = measure(
        cli, invocations, outdir, seconds, trace,
        between=lambda: setup.append(probe_setup(workload, seed)))
    while len(setup) < MIN_SETUP_PROBES:
        setup.append(probe_setup(workload, seed))
    usage = [resource.getrusage(who).ru_maxrss
             for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    env = environment()
    wall = _median([rep.wall for rep in plain])
    values = {"wall_s": wall, "setup_s": statistics.median(setup),
              "peak_rss_mb": max(usage) / 1024.0,
              **workload_rates(plain),
              "fail_ratio": ledger.failed / ledger.attempted,
              "env.src_lines": env["src_lines"], "env.nproc": env["nproc"],
              "env.blas_threads": env["blas_threads"]}
    if trace:
        # Against the plain repetitions interleaved with the traced ones.
        interleaved = plain[:len(traced)]
        values["trace.overhead_s"] = (_median([r.wall for r in traced])
                                      - _median([r.wall for r in interleaved]))
        values["cli.bytes_written"] = _median([r.bytes_written for r in traced])
        for key in traced[0].layers:
            values[key] = _median([r.layers[key] for r in traced])
        tracer.write(outdir.with_suffix(".spans.jsonl"))
    shutil.rmtree(outdir)
    names = PER_LAYER if trace else END_TO_END
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed,
              "metrics": {k: {"value": values[k], "unit": names[k]}
                          for k in names}}
    report = {"workload": workload, "seed": seed, "trace": int(trace),
              "plain_reps": len(plain), "traced_reps": len(traced),
              "plain_walls": [r.wall for r in plain],
              "traced_walls": [r.wall for r in traced],
              "env": env, "values": values, "result": result}
    outdir.with_suffix(".result.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return result, report


def print_report(report: dict):
    units = {**END_TO_END, **PER_LAYER}
    print(f"workload {report['workload']} seed {report['seed']} trace "
          f"{report['trace']} reps {report['plain_reps']} plain "
          f"{report['traced_reps']} traced")
    for key, value in report["values"].items():
        print(f"{key} {value:.6g} {units[key]}")
    result = report["result"]
    print(f"fail_ratio {result['failed']}/{result['attempted']} invocations")
    print("env " + json.dumps(report["env"], sort_keys=True))


def smoke() -> int:
    """Every workload once, plain and traced; then a tampered rerun."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    if set(END_TO_END) | set(PER_LAYER) != {
            m["name"] for m in spec["end_to_end"] + spec["per_layer"]}:
        problems.append("metric names differ from BENCHMARK.json")
    for w in spec["workloads"]:
        result, report = run_workload(w["name"], SMOKE_SEED, 0.0, trace=True)
        print_report(report)
        for section, units in (("end_to_end", END_TO_END),
                               ("per_layer", PER_LAYER)):
            for m in spec[section]:
                value = report["values"].get(m["name"])
                if units.get(m["name"]) != m["unit"]:
                    problems.append(f"{m['name']}: printed unit "
                                    f"{units.get(m['name'])} != {m['unit']}")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{w['name']}: {m['name']} not printed")
                elif section == "end_to_end" and not value > 0:
                    problems.append(f"{w['name']}: {m['name']} = {value}")
        if not result["correct"]:
            problems.append(f"{w['name']}: {result['failed']} failed checks")

    def tamper(inv, base):
        path = base.with_name(base.name + ".ber.csv")
        path.write_text(path.read_text(encoding="utf-8") + "tampered\n",
                        encoding="utf-8")

    cli, invocations = load("ber_lattice", SMOKE_SEED)
    outdir = WORK / "smoke-tamper"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    ledger, *_ = measure(cli, invocations[-1:], outdir, 0.0, False, tamper)
    shutil.rmtree(outdir)
    print(f"tampered rerun: fail_ratio {ledger.failed}/{ledger.attempted}")
    if not ledger.failed:
        problems.append("a tampered output CSV was not counted as a failure")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cbfsim" / "__init__.py").is_file():
        print(f"error: no cbfsim sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.probe_setup:
        t0 = time.perf_counter()
        load(args.workload, args.seed)
        print(time.perf_counter() - t0)
        return 0
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    result, report = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    print_report(report)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
