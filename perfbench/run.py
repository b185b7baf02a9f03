#!/usr/bin/env python3
"""lcklab benchmark: verified suite-points per second, cold CLI time,
set-up time and peak memory, or per-layer costs from a traced run.

    python3 perfbench/run.py --workload hopf-fd --seed 42 --seconds 30 --trace 0

Run it from anywhere; it uses the `src/` tree next to this directory.
The workloads are in `perfbench/workloads.json`.  Each run:

* `--trace 0`: after one warm-up call, repeats a cycle for `--seconds`
  seconds: launch the CLI in a fresh process (`wall_s`; `setup_s` up to
  its first suite point; `peak_rss_mb`), then call
  `lcklab.suites.run_config` in-process, one call after another, for
  `CYCLE_CALLS_S` (`points_per_s`: the cycle's suite-points over its
  call seconds).  Each metric is the median over cycles; in-process
  times are rescaled to a reference machine speed (see `speed.py`).
* `--trace 1`: alternates untraced and traced in-process calls at one
  seed for `--seconds` seconds and reports per-layer counts and times
  (medians over traced calls) plus the tracing overhead.

Load is a closed loop from one process and one thread.  Every call's
lcklab seed comes from `--seed`.  Every report passes the correctness
gate: all verdicts `pass`, the workload's suites and no others, and the
same bytes from the cold CLI and the in-process call at one seed (and
from traced and untraced calls).  A breach counts in `failed`.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  A line above it carries the environment facts;
`.perfbench_out/` keeps the full result set and the spans of the last
traced call.  Exit code 2 means the program could not be found or run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

MIN_CYCLES = 3
CYCLE_CALLS_S = 0.8
CHILD_TIMEOUT_S = 120.0


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    n: int
    s: int
    lam: float
    points: int
    suites: tuple
    select_all: bool
    all_suites: tuple   # every workload's suites: the per-layer suite metrics

    @property
    def suite_points(self) -> int:
        return self.points * len(self.suites)

    def config(self, seed: int):
        from lcklab.report import RunConfig
        chosen = ("all",) if self.select_all else self.suites
        return RunConfig(model=self.model, n=self.n, s=self.s, lam=self.lam,
                         points=self.points, seed=seed, suites=chosen)

    def cli_args(self, seed: int) -> list[str]:
        chosen = "all" if self.select_all else ",".join(self.suites)
        return ["--model", self.model, "--n", str(self.n), "--s", str(self.s),
                "--lambda", repr(self.lam), "--points", str(self.points),
                "--seed", str(seed), "--suites", chosen]


def load_spec() -> dict:
    with open(HERE / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_workload(name: str, spec: dict | None = None) -> Workload:
    spec = spec or load_spec()
    w = spec["workloads"][name]
    c = w["config"]
    all_suites = []
    for other in spec["workloads"].values():
        all_suites += [s for s in other["suites"] if s not in all_suites]
    return Workload(name=name, model=c["model"], n=c["n"], s=c["s"],
                    lam=c["lam"], points=c["points"], suites=tuple(w["suites"]),
                    select_all=w["select_all"], all_suites=tuple(all_suites))


def call_seeds(seed: int):
    """The lcklab seed of each successive call of a run."""
    rng = random.Random(seed)
    while True:
        yield rng.getrandbits(31)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

class Gate:
    """Counts attempted and failed runs; a failure is kept, never dropped."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def report_problem(workload: Workload, report) -> str | None:
    """Why a report fails the gate, or None when it passes."""
    names = tuple(r.name for r in report.results)
    if names != workload.suites:
        return f"suites {list(names)} differ from the workload's {len(workload.suites)}"
    bad = [f"{r.name}={r.verdict}" for r in report.results if r.verdict != "pass"]
    if bad:
        return "verdicts not pass: " + ", ".join(bad)
    return None


def run_in_process(workload: Workload, seed: int, gate: Gate, what: str):
    """One gated run_config call; returns (seconds, report bytes or None)."""
    from lcklab import report as report_mod
    from lcklab import suites as suites_mod
    t0 = time.perf_counter()
    try:
        report = suites_mod.run_config(workload.config(seed))
    except Exception as exc:  # an erroring call is a failed run, not a crash
        elapsed = time.perf_counter() - t0
        gate.record(False, f"{what} seed {seed}: {type(exc).__name__}: {exc}")
        return elapsed, None
    elapsed = time.perf_counter() - t0
    problem = report_problem(workload, report)
    gate.record(problem is None, f"{what} seed {seed}: {problem}")
    return elapsed, report_mod.to_json(report).encode("utf-8")


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("LCKLAB_SEED", None)
    return env


def cold_cli(workload: Workload, seed: int, out: Path):
    """Launch the CLI in a fresh process; returns (wall seconds, set-up
    seconds, peak RSS MB, exit code, report bytes, stderr).  Set-up runs
    from launch to the first suite point.  Times are rescaled to the
    reference speed by the speed kernel's time in the child."""
    cmd = [sys.executable, str(HERE / "cli_child.py"), *workload.cli_args(seed),
           "--out", str(out)]
    if out.exists():
        out.unlink()
    t0 = time.monotonic()
    try:
        done = subprocess.run(cmd, env=child_env(), cwd=ROOT, stdin=subprocess.DEVNULL,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=CHILD_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        return CHILD_TIMEOUT_S, 0.0, 0.0, -1, b"", "timed out"
    wall = time.monotonic() - t0
    stderr = done.stderr.decode("utf-8", "replace")
    facts = [line.split()[1:] for line in stderr.splitlines()
             if line.startswith("perfbench-child ")]
    if not facts:
        return wall, 0.0, 0.0, done.returncode, b"", stderr.strip()
    first_point, kb, kernel_s, after_s = map(float, facts[0])
    factor = speed.REFERENCE_S / kernel_s
    wall = (wall - after_s) * factor
    setup = (first_point - t0) * factor if first_point > 0 else 0.0
    payload = out.read_bytes() if out.exists() else b""
    return wall, setup, kb / 1024.0, done.returncode, payload, stderr.strip()


# ---------------------------------------------------------------------------
# end-to-end run
# ---------------------------------------------------------------------------

def end_to_end(workload: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    """Cycles of one cold CLI run and `CYCLE_CALLS_S` of
    in-process calls, until `seconds` have passed.  Spreading the cold
    runs over the whole run averages the machine's slow and fast spells."""
    seeds = call_seeds(seed)
    samples = {"points_per_s": [], "wall_s": [], "setup_s": [], "peak_rss_mb": []}
    cold_seeds = []

    # warm-up: the first call pays lazy numpy set-up, as no later call does
    run_in_process(workload, next(seeds), gate, "warm-up")
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(cold_seeds) < MIN_CYCLES:
        s = next(seeds)
        cold_seeds.append(s)
        wall, setup, mb, rc, cli_bytes, stderr = cold_cli(
            workload, s, OUT / f"cli-{workload.name}.json")
        if gate.record(rc == 0 and cli_bytes and setup > 0 and mb > 0,
                       f"CLI seed {s} exit {rc}: {stderr}"):
            samples["wall_s"].append(wall)
            samples["setup_s"].append(setup)
            samples["peak_rss_mb"].append(mb)
        speed.kernel()  # absorbs the slow moment after a child exits
        cycle_end = time.perf_counter() + CYCLE_CALLS_S
        points, seconds_at_ref = 0, 0.0
        while True:
            factor = speed.scale()
            elapsed, payload = run_in_process(workload, s, gate, "in-process")
            if payload is not None:
                points += workload.suite_points
                seconds_at_ref += elapsed * factor
            if cli_bytes:  # the cycle's first call repeats the CLI's seed
                gate.record(payload == cli_bytes,
                            f"seed {s}: CLI report bytes differ from the in-process report")
                cli_bytes = b""
            if time.perf_counter() >= cycle_end:
                break
            s = next(seeds)
        if points:
            samples["points_per_s"].append(points / seconds_at_ref)

    units = {"points_per_s": "points/s", "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    metrics = {name: (statistics.median(samples[name]), unit)
               for name, unit in units.items() if samples[name]}
    return {"metrics": metrics, "samples": samples, "cold_seeds": cold_seeds}


# ---------------------------------------------------------------------------
# traced run
# ---------------------------------------------------------------------------

def per_layer(workload: Workload, derived: dict, scale: float) -> dict:
    """Per-layer metrics of one traced call, as name -> (value, unit);
    times are rescaled to the reference speed by `scale`."""
    from layertrace import CHART_BUILDERS
    calls, incl, self_s = derived["calls"], derived["inclusive_s"], derived["self_s"]
    m = {}
    for fn in ("charts.wirtinger_derivative", "charts.covariant_derivative",
               "charts.christoffel", "charts.real_form", "lck.lee_data",
               "semieuclid.form_validate", "sampling.sample_hopf",
               "sampling.sample_null_config", "foliations.lightlike_transversal"):
        m[f"{fn}.calls"] = (calls[fn], "count")
        m[f"{fn}.s"] = (scale * incl[fn], "s")
    for fn in ("foliations.gauss_weingarten", "foliations.h_P_residual",
               "foliations.isotropic_transversal_pair", "cr.levi_form"):
        m[f"{fn}.s"] = (scale * incl[fn], "s")
    m["charts.metric_eval.calls"] = (calls["charts.metric_eval"], "count")
    m["lck.lee_data.calls_per_point"] = (calls["lck.lee_data"] / workload.suite_points, "count")
    draws = derived["candidate_draws"]
    m["sampling.sample_hopf.accept_ratio"] = (
        calls["sampling.sample_hopf"] / draws if draws else 0.0, "ratio")
    m["models.chart_builds.calls"] = (sum(calls[f] for f in CHART_BUILDERS), "count")
    for layer in ("charts", "lck", "semieuclid", "sampling", "foliations", "cr",
                  "models", "suites"):
        m[f"{layer}.self_s"] = (scale * self_s[layer], "s")
    for name in workload.all_suites:
        m[f"suites.{name}.ms_per_point"] = (
            1e3 * scale * incl[f"suites.{name}"] / workload.points, "ms")
    m["report.serialize_s"] = (scale * incl["report.to_json"], "s")
    return m


def traced(workload: Workload, seed: int, seconds: float, gate: Gate) -> dict:
    from lcklab import report as report_mod
    from lcklab import suites as suites_mod
    from layertrace import Tracer

    s0 = next(call_seeds(seed))
    _, ref = run_in_process(workload, s0, gate, "warm-up")
    plain, traced_rates, layer_runs, counts0, spans = [], [], [], None, None
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not traced_rates:
        factor = speed.scale()
        elapsed, payload = run_in_process(workload, s0, gate, "untraced")
        gate.record(payload == ref, f"seed {s0}: untraced report bytes differ between calls")
        plain.append(workload.suite_points / (elapsed * factor))
        factor = speed.scale()
        with Tracer() as tracer:
            t0 = time.perf_counter()
            report = suites_mod.run_config(workload.config(s0))
            elapsed = time.perf_counter() - t0
            payload = report_mod.to_json(report).encode("utf-8")
        problem = report_problem(workload, report)
        gate.record(problem is None and payload == ref,
                    f"seed {s0}: traced report {problem or 'bytes differ from untraced'}")
        spans = tracer.spans()
        derived = spans.derive()
        counts = {**dict(sorted(derived["calls"].items())),
                  "candidate_draws": derived["candidate_draws"]}
        if counts0 is None:
            counts0 = counts
        gate.record(counts == counts0, f"seed {s0}: traced call counts differ between calls")
        traced_rates.append(workload.suite_points / (elapsed * factor))
        layer_runs.append(per_layer(workload, derived, factor))

    metrics = {}
    for name, (_, unit) in layer_runs[0].items():
        if unit == "count":
            metrics[name] = layer_runs[0][name]
        else:
            metrics[name] = (statistics.median(r[name][0] for r in layer_runs), unit)
    pps_traced = statistics.median(traced_rates)
    pps_plain = statistics.median(plain)
    metrics["trace.points_per_s"] = (pps_traced, "points/s")
    metrics["trace.overhead_ratio"] = (pps_plain / pps_traced, "ratio")
    spans.write_csv(OUT / f"spans-{workload.name}.csv")
    return {"metrics": metrics,
            "samples": {"points_per_s": plain, "trace.points_per_s": traced_rates},
            "call_counts": counts0, "spans": len(spans), "call_seeds": [s0]}


# ---------------------------------------------------------------------------
# environment and entry point
# ---------------------------------------------------------------------------

def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu_model(),
            "git_sha": git_sha(), "src_sha256": src_digest()}


def main(argv=None) -> int:
    spec = load_spec()
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(spec["workloads"]))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "lcklab" / "__init__.py").is_file():
        print(f"perfbench: no lcklab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import lcklab
    if Path(lcklab.__file__).resolve().parent != SRC / "lcklab":
        print(f"perfbench: imported lcklab from {lcklab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    workload = load_workload(args.workload, spec)
    gate = Gate()
    if args.trace:
        result = traced(workload, args.seed, args.seconds, gate)
    else:
        result = end_to_end(workload, args.seed, args.seconds, gate)
    for problem in gate.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    expected = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]]
    missing = [name for name in expected if name not in result["metrics"]]
    if missing:
        print(f"perfbench: metrics not measured: {missing}", file=sys.stderr)
        return 2

    metrics = {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()}
    env = environment()
    summary = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "input": {"points": workload.points,
                                              "suites": len(workload.suites)},
               "fail_ratio": gate.failed / gate.attempted, "problems": gate.problems,
               "environment": env, **{k: v for k, v in result.items() if k != "metrics"}}
    name = f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps({**summary, "metrics": metrics}, indent=1) + "\n")
    for k, m in metrics.items():
        print(f"{k:48s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_ratio':48s} {gate.failed}/{gate.attempted}")
    print(json.dumps({"environment": env}))
    print(json.dumps({"correct": gate.failed == 0, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
