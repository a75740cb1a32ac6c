"""Benchmark of the starfem CLI: whole runs end to end, and a traced run per layer.

Run from the root of a checkout (the program is imported from ./src):

    python3 perfbench/run.py --workload table_wide --seed 0 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --seconds 50

Each operation is one CLI process, started as the installed ``starfem``
command would start it, one at a time, with the CLI's default ``threads``
and BLAS pinned to one thread. With ``--trace 0`` the run repeats, for
``--seconds``, a fresh interpreter that imports starfem and loads the
workload's config (the set-up) followed by one CLI run, and reports the
medians of the end-to-end metrics. With ``--trace 1`` it alternates a
traced run (perfbench/tracer.py) with an untraced one and reports the
per-layer metrics: self times of the spans, counts, and the tracing cost.

Every run's CSV is checked: data rows (not the ``#`` header) against the
rows in perfbench/reference/, recorded at DEFAULT_SEED. For another seed the
seeded workload is checked for structure only. The last line of standard
output is one JSON object; the line before it holds the samples and the
environment.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE_DIR = os.path.join(BENCH_DIR, "reference")
WORK_ROOT = os.path.join(".bench_build", "perfbench")
DEFAULT_SEED = 0
RUN_TIMEOUT_S = 60.0
# Relative tolerance on the 6-significant-digit CSV values: admits a flip of
# the last printed digit from reordered roundoff, rejects any real change.
RTOL = 1e-4
# Balance residuals are roundoff-sized, so a correct solver may change them
# freely; they are checked against this ceiling, not against the reference.
RESIDUAL_CEILING = 1e-6
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

CLI_CODE = ("import sys; from starfem.expcli import main; "
            "sys.exit(main(sys.argv[1:]))")
SETUP_CODE = ("import sys, starfem; from starfem.expcli import load_config; "
              "load_config(sys.argv[1]); print(starfem.__file__)")

WORKLOADS = {
    # The paper's table: wide stars, short edges. Load assembly (ex3's two
    # shared frequencies), elimination and the gate dominate; no stage repeats.
    "table_wide": {
        "command": "table",
        "config": {"example": "ex3", "stages": "10,100,1000,10000,100000",
                   "mesh": 100, "reference": "upscaled", "full_h1": "true"},
        "residual_columns": (),
    },
    # Overlapping windows of consecutive mid-size stages: the only workload
    # where the stage cache is hit (451 requests, 211 solves). ex5's per-edge
    # frequencies share nothing across edges. The seed draws the coefficients.
    "cauchy_dense": {
        "command": "cauchy",
        "config": {"example": "ex5", "coeff": "random",
                   "centers": ",".join(map(str, range(1000, 1201, 5))),
                   "window": 10, "mesh": 100},
        "seeded": True,
        "residual_columns": (),
    },
    # Two edges with very fine meshes: every nodal value is needed, so the
    # per-node elimination dominates and loads are small. Not listed in
    # BENCHMARK.json: this interpreter-bound run follows the speed of a
    # shared host, and its 40 s medians spread by ~0.21 (IQR over median,
    # ten seeds, 2-core KVM guest), which no bound of 0.25 or less holds.
    # Run it by hand for the traced breakdown of the elimination.
    "identity_long": {
        "command": "identity",
        "config": {"example": "ex1", "n": 2, "mesh": 300000},
        "residual_columns": ("center_identity", "max_edge_identity",
                             "flux_gap"),
    },
}
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "unknowns_per_s": "1/s",
                    "peak_rss_mb": "MB", "success_rate": "ratio"}

# Span name -> per-layer metric. The metric is the summed self time: span
# duration minus the part covered by its child spans.
SELF_TIME_METRICS = {
    "femsolve.loads": "femsolve.loads_s",
    "femsolve.solve": "femsolve.eliminate_s",
    "femsolve.gate": "femsolve.gate_s",
    "femsolve.assemble": "femsolve.assemble_s",
    "stargraph.build": "stargraph.build_s",
    "forcing.field": "forcing.field_s",
    "analysis.request": "analysis.request_s",
    "analysis.solve_stage": "analysis.request_s",
    "analysis.average": "analysis.average_s",
    "analysis.norms": "analysis.norms_s",
    "analysis.sweep": "analysis.sweep_s",
    "upscale.reference": "upscale.reference_s",
    "femsolve.identity": "femsolve.identity_s",
    "expcli.main": "expcli.parse_s",
    "expcli.run": "expcli.write_s",
    "trace.hook": "trace.hook_s",
}
PER_LAYER_UNITS = {
    **{name: "s" for name in SELF_TIME_METRICS.values()},
    "expcli.main_s": "s", "starfem.import_s": "s", "traced_wall_s": "s",
    "trace_overhead_s": "s",
    "analysis.stage_requests": "count", "analysis.stage_solves": "count",
    "analysis.cache_hit_ratio": "ratio", "femsolve.unknowns": "count",
    "femsolve.load_evals": "count", "femsolve.array_mb": "MB",
    "femsolve.backward_error_max": "1", "femsolve.center_identity_max": "1",
}


class BenchError(Exception):
    """The program cannot be run here at all; no result is printed."""


def config_text(name: str, seed: int, out: str) -> str:
    spec = WORKLOADS[name]
    items = dict(spec["config"], emit=spec["command"], out=out)
    if spec.get("seeded"):
        items["seed"] = seed
    return "".join(f"{k} = {v}\n" for k, v in items.items())


def distinct_stages(name: str) -> list:
    cfg = WORKLOADS[name]["config"]
    if "stages" in cfg:
        return [int(v) for v in cfg["stages"].split(",")]
    if "centers" in cfg:
        w = int(cfg["window"])
        return sorted({j for n in map(int, cfg["centers"].split(","))
                       for j in range(n - w // 2, n + w - w // 2 + 1)})
    return [int(cfg["n"])]


def unknowns(name: str) -> int:
    m = int(WORKLOADS[name]["config"]["mesh"])
    return sum(n * (m - 1) + 1 for n in distinct_stages(name))


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for var in BLAS_THREAD_VARS:
        env[var] = "1"
    return env


def run_child(argv: list, cwd: str, timeout: float) -> dict:
    """Run one process to its end; wall time from start to exit, max RSS."""
    log_path = os.path.join(cwd, "child.log")
    env = child_env()
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=log,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
        output = fh.read()
    return {"wall": wall, "code": proc.returncode, "output": output,
            "timed_out": wall >= timeout, "rss_mb": usage.ru_maxrss / 1024.0}


def read_rows(path: str) -> list:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.reader(lines))


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def check_rows(rows: list, reference: list, exact: bool,
               residual_columns=()) -> str:
    """'' when the rows pass, else the first mismatch.

    With ``exact`` every float cell must match the reference to RTOL;
    without it (another seed) float cells need only be finite and >= 0.
    Integer and text cells always match exactly, so row count, stage sizes,
    groups and windows are checked in both modes.
    """
    if not rows or rows[0] != reference[0]:
        return f"header {rows[:1]} != {reference[:1]}"
    if len(rows) != len(reference):
        return f"{len(rows) - 1} data rows, reference has {len(reference) - 1}"
    header = reference[0]
    for lineno, (got, want) in enumerate(zip(rows[1:], reference[1:]), 2):
        if len(got) != len(want):
            return f"row {lineno}: {len(got)} cells, want {len(want)}"
        for col, g, w in zip(header, got, want):
            if w.lstrip("-").isdigit() or _number(w) is None:
                if g != w:
                    return f"row {lineno} {col}: {g!r} != {w!r}"
                continue
            v = _number(g)
            if v is None or not math.isfinite(v):
                return f"row {lineno} {col}: {g!r} is not a finite number"
            if col in residual_columns:
                if not 0.0 <= v <= RESIDUAL_CEILING:
                    return f"row {lineno} {col}: {v} outside [0, {RESIDUAL_CEILING}]"
            elif exact:
                if abs(v - float(w)) > RTOL * abs(float(w)):
                    return f"row {lineno} {col}: {v} != {w}"
            elif v < 0.0:
                return f"row {lineno} {col}: {v} < 0"
    return ""


class Workload:
    """One workload's config and work directory inside the checkout."""

    def __init__(self, name: str, seed: int, work: str):
        self.name, self.work = name, work
        self.spec = WORKLOADS[name]
        self.csv = os.path.join(work, f"{name}.csv")
        self.config = os.path.join(work, f"{name}.cfg")
        self.reference_path = os.path.join(REFERENCE_DIR, f"{name}.csv")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(config_text(name, seed, f"{name}.csv"))
        self.exact = not self.spec.get("seeded") or seed == DEFAULT_SEED

    def cli_args(self) -> list:
        return [self.spec["command"], "--config", self.config]

    def verify(self, result: dict) -> str:
        """'' when the run succeeded with correct output, else why not."""
        if result["timed_out"]:
            return "timed out"
        if result["code"] != 0:
            return f"exit {result['code']}: {result['output'][-400:]}"
        try:
            rows = read_rows(self.csv)
            os.unlink(self.csv)
        except OSError as exc:
            return f"no output: {exc}"
        with open(self.reference_path, encoding="utf-8", newline="") as fh:
            reference = list(csv.reader(fh))
        return check_rows(rows, reference, self.exact,
                          self.spec["residual_columns"])

    def cli_run(self) -> dict:
        result = run_child([sys.executable, "-c", CLI_CODE] + self.cli_args(),
                           self.work, RUN_TIMEOUT_S)
        result["error"] = self.verify(result)
        return result

    def traced_run(self) -> dict:
        spans = os.path.join(self.work, "spans.json")
        result = run_child([sys.executable, os.path.join(BENCH_DIR, "tracer.py"),
                            spans] + self.cli_args(), self.work, RUN_TIMEOUT_S)
        result["error"] = self.verify(result)
        try:
            with open(spans, encoding="utf-8") as fh:
                result["trace"] = json.load(fh)
            os.unlink(spans)
        except (OSError, ValueError) as exc:
            result["trace"] = None
            result["error"] = result["error"] or f"no trace: {exc}"
        return result

    def setup_run(self) -> float:
        result = run_child([sys.executable, "-c", SETUP_CODE, self.config],
                           self.work, RUN_TIMEOUT_S)
        if result["code"] != 0:
            raise BenchError(f"cannot import starfem and load the config:\n"
                             f"{result['output'][-2000:]}")
        where = os.path.realpath(result["output"].strip().splitlines()[-1])
        if not where.startswith(os.path.realpath("src") + os.sep):
            raise BenchError(f"starfem was imported from {where}, not ./src")
        return result["wall"]


def layer_metrics(trace: dict) -> dict:
    spans = trace["spans"]
    children: dict = {}
    for idx, (_, _, _, parent) in enumerate(spans):
        children.setdefault(parent, []).append(idx)
    out = {name: 0.0 for name in SELF_TIME_METRICS.values()}
    for idx, (name, t0, t1, _) in enumerate(spans):
        covered, reach = 0.0, t0
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], t1)
            if hi > lo:
                covered += hi - lo
                reach = hi
        if name in SELF_TIME_METRICS:
            out[SELF_TIME_METRICS[name]] += (t1 - t0) - covered
    counts = {}
    for name, _, _, _ in spans:
        counts[name] = counts.get(name, 0) + 1
    requests = counts.get("analysis.request", 0)
    solves = counts.get("analysis.solve_stage", 0)
    c = trace["counters"]
    out.update({
        "expcli.main_s": sum(t1 - t0 for name, t0, t1, _ in spans
                             if name == "expcli.main"),
        "starfem.import_s": trace["import_s"],
        "analysis.stage_requests": requests,
        "analysis.stage_solves": solves,
        "analysis.cache_hit_ratio": (requests - solves) / requests if requests else 0.0,
        "femsolve.unknowns": c["unknowns"],
        "femsolve.load_evals": c["load_evals"],
        "femsolve.array_mb": c["array_bytes"] / 2**20,
        "femsolve.backward_error_max": c["backward_error_max"],
        "femsolve.center_identity_max": c["center_identity_max"],
    })
    return out


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8", errors="replace") as fh:
            return fh.read()
    except OSError:
        return ""


def environment() -> dict:
    """Where the figures were taken: CPU, caches, Python, numpy and BLAS."""
    import numpy

    cpu = next((ln.split(":", 1)[1].strip()
                for ln in _read("/proc/cpuinfo").splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read(os.path.join(base, index, "level")).strip()
        kind = _read(os.path.join(base, index, "type")).strip()
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(os.path.join(base, index, "size")).strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration") or blas.get("name")
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    return {"nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas,
            "blas_threads": {v: "1" for v in BLAS_THREAD_VARS},
            "processes": 1}


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def measure(w: Workload, seconds: float, trace: bool) -> tuple:
    """Run the workload for ``seconds``; (metrics, samples, attempted, failed)."""
    runs, traced, setups = [], [], []
    samples: dict = {}
    w.setup_run()  # warm the file cache and bytecode; checks what is imported
    start = last = time.perf_counter()
    while True:
        # the setup or traced run sits next to each CLI run, so both see the
        # same state of a shared machine
        if trace:
            traced.append(w.traced_run())
        else:
            setups.append(w.setup_run())
        runs.append(w.cli_run())
        now = time.perf_counter()
        # stop when one more round would end past the measuring window
        if 2 * now - last - start > seconds:
            break
        last = now
    everything = runs + traced
    failed = [r["error"] for r in everything if r["error"]]
    walls = [r["wall"] for r in runs]
    samples["wall_s"] = walls
    if trace:
        per_run = [layer_metrics(r["trace"]) for r in traced if r["trace"]]
        metrics = {k: _median([p[k] for p in per_run])
                   for k in per_run[0]} if per_run else {}
        traced_walls = [r["wall"] for r in traced]
        metrics["traced_wall_s"] = _median(traced_walls)
        metrics["trace_overhead_s"] = _median(traced_walls) - _median(walls)
        samples["traced_wall_s"] = traced_walls
        missing = {m for r in traced if r["trace"] for m in r["trace"]["missing"]}
        samples["missing_spans"] = sorted(missing)
        units = PER_LAYER_UNITS
    else:
        samples["setup_s"] = setups
        setup = _median(setups)
        work = unknowns(w.name)
        metrics = {
            "wall_s": _median(walls),
            "setup_s": setup,
            "unknowns_per_s": _median([work / (t - setup) for t in walls]),
            "peak_rss_mb": _median([r["rss_mb"] for r in runs]),
            "success_rate": 1.0 - len(failed) / len(everything),
        }
        samples["peak_rss_mb"] = [r["rss_mb"] for r in runs]
        units = END_TO_END_UNITS
    samples["errors"] = failed[:5]
    samples["error_rate"] = len(failed) / len(everything)
    result = {k: {"value": metrics.get(k, float("nan")), "unit": u}
              for k, u in units.items()}
    return result, samples, len(everything), len(failed)


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    work = os.path.join(WORK_ROOT, f"{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        w = Workload(name, seed, os.path.abspath(work))
        metrics, samples, attempted, failed = measure(w, seconds, trace)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"workload": name, "seed": seed, "seconds": seconds,
                      "trace": int(trace), "unknowns": unknowns(name),
                      "samples": samples, "environment": environment()}))
    for metric, mv in metrics.items():
        print(f"{name:14s} {metric:30s} {mv['value']:.6g} {mv['unit']}")
    print(f"{name:14s} {'error_rate':30s} {samples['error_rate']:.6g} ratio "
          f"({failed} of {attempted} runs failed)")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def record_reference(name: str):
    """Write the reference rows of one workload from the program as it is."""
    work = os.path.join(WORK_ROOT, f"record-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        w = Workload(name, DEFAULT_SEED, os.path.abspath(work))
        result = run_child([sys.executable, "-c", CLI_CODE] + w.cli_args(),
                           w.work, RUN_TIMEOUT_S)
        if result["code"] != 0:
            raise BenchError(result["output"])
        rows = read_rows(w.csv)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    with open(os.path.join(REFERENCE_DIR, f"{name}.csv"), "w", encoding="utf-8",
              newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help=f"rewrite perfbench/reference/ at seed {DEFAULT_SEED}")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("seed must fit in an unsigned 64-bit value")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        if not os.path.isfile(os.path.join("src", "starfem", "expcli.py")):
            raise BenchError("run from the root of a starfem checkout: "
                             "src/starfem/expcli.py not found")
        if args.record_reference:
            for name in names:
                record_reference(name)
            return 0
        results = {name: bench(name, args.seed, args.seconds, bool(args.trace))
                   for name in names}
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
