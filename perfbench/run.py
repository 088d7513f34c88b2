"""padefit benchmark: one workload per invocation, serial, single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The library is imported from ``src/``;
nothing is installed.

Workloads (their reasons are in BENCHMARK.json):

- extrapolation: one task is one replicate of the sqrt-decay study
  (q_search, the base regularized fit, tune_lambda1 at 11 exponents).
- structure_search: one task is a 63-candidate grid search on 201 noisy
  sin(2 pi x) points plus the reference-point interpolation route.
- reliability: one task is the Weibull and rational-CDF route on 20
  simulated failure times, ending in a rational MTTF or PoleOnRange.
- cli_cold: one task is one cold ``python -m padefit.cli`` process on
  data/table1.csv, rotating through fit, sweep and search.

Every run first checks the workload's acceptance anchors on fixed inputs,
outside the timed loop.  With ``--trace 0`` it then runs tasks for S
seconds (library workloads after one untimed warm-up task) and reports
the end-to-end metrics.  With ``--trace 1`` it alternates untraced and
traced passes over a fixed set of tasks for S seconds and reports
per-layer metrics (see tracer.py) and the tracing overhead.

Reported times are scaled to a nominal host speed by a probe timed
around each step (see hostspeed.py), because the speed of a shared
machine drifts far more than the effects being measured; the raw
wall-clock figures are in the metadata line.

A task fails if it raises anything but a PadefitError, returns a NaN or
infinity, leaks a RuntimeWarning, or fails a check; a failed anchor or a
task whose outcome differs between two runs of the same input also
counts.  The last stdout line is the result object; the line before it
holds run metadata and the outcome digests.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads, and keep the benchmark on
# one CPU so that the host-speed probe and the timed work share it;
# children inherit both.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import selectors  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


# The library comes from this checkout's src/ and nowhere else.
if not (SRC / "padefit" / "__init__.py").is_file() or not (ROOT / "data" / "table1.csv").is_file():
    die(f"run from a padefit checkout: {SRC / 'padefit'} or data/table1.csv is missing")
sys.path.insert(0, str(SRC))

import hostspeed  # noqa: E402
import numpy  # noqa: E402
import padefit  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from padefit.errors import PadefitError  # noqa: E402

if Path(padefit.__file__).resolve().parent != SRC / "padefit":
    die(f"imported padefit from {padefit.__file__}, not from {SRC}")

WORKLOADS = ("extrapolation", "structure_search", "reliability", "cli_cold")

#: Each timed run completes at least this many tasks, and the outcome
#: digest covers the first this-many pool inputs.
MIN_TASKS = 20

#: A timed run stops after this many times --seconds even if MIN_TASKS
#: has not been reached, to keep a run bounded.
MAX_STRETCH = 6

#: Tail percentile per workload: the highest of 50/75/90/95/99 that keeps
#: at least ten tasks beyond it in a 25 s run at the seed commit, on a host
#: 20% slower than nominal.  Fixed so that commits are compared at the
#: same percentile; the metadata line reports the count beyond it.
TAIL_PERCENTILE = {"extrapolation": 75, "structure_search": 90, "reliability": 95, "cli_cold": 75}

#: Tasks in the fixed set of a traced pass.
TRACE_TASKS = {"extrapolation": 4, "structure_search": 16, "reliability": 64, "cli_cold": 3}

#: Fresh processes timed per run for setup_s.
SETUP_RUNS = 9

CHILD_TIMEOUT_S = 60.0

INPUT_SIZE = {
    "extrapolation": "11 points of sqrt(x)exp(-x) on [0, 2], 10% noise",
    "structure_search": "201 points (sigma 0.01) + 47 points (sigma 0.1) of sin(2 pi x)",
    "reliability": "20 Weibull(1, 2) failure times with median ranks",
    "cli_cold": "data/table1.csv, 10 points",
}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv: list[str]) -> dict:
    """Run one child to completion; return exit code, output, wall time,
    spawn time on the wall clock, and peak RSS in MiB."""
    spawned = time.time()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    chunks = {proc.stdout: [], proc.stderr: []}
    deadline = t0 + CHILD_TIMEOUT_S
    try:
        with selectors.DefaultSelector() as sel:
            for pipe in chunks:
                sel.register(pipe, selectors.EVENT_READ)
            while sel.get_map():
                left = deadline - time.perf_counter()
                if left <= 0:
                    proc.kill()
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        proc.kill()
        raise
    finally:
        # wait4 rather than Popen.wait: it also returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    wall = time.perf_counter() - t0
    return {
        "rc": proc.returncode,
        "stdout": b"".join(chunks[proc.stdout]).decode(),
        "stderr": b"".join(chunks[proc.stderr]).decode(),
        "wall": wall,
        "spawned": spawned,
        "peak_mib": usage.ru_maxrss / 1024.0,
    }


def outcome_digest(outcome: list) -> str:
    text = "|".join(float(v).hex() if isinstance(v, float) else repr(v) for v in outcome)
    return hashlib.sha256(text.encode()).hexdigest()


def combined_digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()[:16]


def git_sha() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


class Run:
    """Counters and findings of one benchmark invocation."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.meta: dict = {}
        self.host = hostspeed.HostSpeed()

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# -- library workloads --------------------------------------------------------


def run_task(task, inputs) -> tuple[list, bool, float]:
    """Run one task; return (outcome, passed, seconds spent in the task)."""
    ok = True
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        try:
            outcome = task(inputs)
        except PadefitError as exc:
            outcome = [type(exc).__name__]
        except Exception as exc:  # an untyped failure is a finding, not a crash
            outcome = ["untyped " + type(exc).__name__ + ": " + str(exc)]
            ok = False
        elapsed = time.perf_counter() - t0
    if any(issubclass(w.category, RuntimeWarning) for w in caught):
        outcome.append("RuntimeWarning")
        ok = False
    return outcome, ok and not workloads.nonfinite(outcome), elapsed


def check_task(run: Run, seen: dict, index: int, outcome: list, ok: bool) -> None:
    digest = outcome_digest(outcome)
    first = seen.setdefault(index, digest)
    ok = ok and first == digest
    run.record(ok, f"task {index}: {outcome[:6]}" + ("" if first == digest else " (digest changed)"))


def setup_children(run: Run) -> list[dict]:
    argv = [sys.executable, str(HERE / "child.py"), "setup", *(["--trace"] if run.trace else []), run.workload, str(run.seed)]
    results = []
    for _ in range(SETUP_RUNS):
        child = run_child(argv)
        child["step"] = run.host.add(child["wall"])
        run.record(child["rc"] == 0, f"setup child exit {child['rc']}: {child['stderr'][-300:]}")
        results.append(child)
    return results


def library_gate(run: Run) -> list:
    values = []
    for name, value, ok in workloads.anchors(run.workload):
        run.record(ok, f"anchor {name}: {value!r}")
        values.append(value)
    return values


def library_timed(run: Run, pool: list) -> dict:
    task = workloads.TASKS[run.workload]
    seen: dict[int, str] = {}
    outcome, ok, _ = run_task(task, pool[0])  # untimed warm-up
    check_task(run, seen, 0, outcome, ok)
    raw, steps = [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= run.seconds and len(raw) >= MIN_TASKS:
            break
        if elapsed >= MAX_STRETCH * run.seconds:
            break
        index = len(raw) % len(pool)
        outcome, ok, dt = run_task(task, pool[index])
        raw.append(dt)
        steps.append(run.host.add(dt))
        check_task(run, seen, index, outcome, ok)
    wall = time.perf_counter() - start
    digest = combined_digest([seen[i] for i in range(min(MIN_TASKS, len(seen)))])
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"raw": raw, "steps": steps, "wall": wall, "digest": digest, "peak_mib": peak}


def library_traced(run: Run, pool: list) -> dict:
    task = workloads.TASKS[run.workload]
    fixed = pool[: TRACE_TASKS[run.workload]]
    seen: dict[int, str] = {}
    tr = tracer.Tracer()
    run_task(task, pool[0])  # untimed warm-up
    untraced, traced = [], []
    start = time.perf_counter()
    def one_pass(begin_task) -> list[int]:
        steps = []
        for i, inputs in enumerate(fixed):
            begin_task()
            outcome, ok, dt = run_task(task, inputs)
            steps.append(run.host.add(dt))
            check_task(run, seen, i, outcome, ok)
        return steps

    while not traced or time.perf_counter() - start < run.seconds:
        untraced.append(one_pass(lambda: None))
        tr.install()
        try:
            traced.append(one_pass(tr.begin_task))
        finally:
            tr.uninstall()
    return {
        "snapshot": tr.snapshot(),
        "tasks": len(traced) * len(fixed),
        "untraced": untraced,
        "traced": traced,
        "per_pass": len(fixed),
    }


# -- cli_cold -------------------------------------------------------------------


def cli_task(run: Run, argv: list[str], reference: dict, traced: bool) -> dict:
    """One cold CLI process; checks exit 0, valid JSON and metrics.d."""
    if traced:
        child = run_child([sys.executable, str(HERE / "child.py"), "cli", "--trace", *argv])
        try:
            doc = json.loads(child["stdout"]) if child["rc"] == 0 else {}
        except ValueError:
            doc = {}
        child["rc"] = doc.get("rc", child["rc"])
        child["report"] = doc.get("stdout", "")
        child["doc"] = doc
    else:
        child = run_child([sys.executable, "-m", "padefit.cli", *argv])
        child["report"] = child["stdout"]
    child["step"] = run.host.add(child["wall"])
    d = None
    try:
        d = json.loads(child["report"])["metrics"]["d"]
    except (ValueError, KeyError, TypeError):
        pass
    ok = child["rc"] == 0 and d is not None and d == reference[argv[0]]
    run.record(ok, f"cli {argv[0]}: exit {child['rc']}, d={d!r}, {child['stderr'][-300:]}")
    child["outcome"] = [argv[0], child["rc"], d]
    return child


def cli_gate(run: Run, commands, reference: dict) -> list:
    return [cli_task(run, argv, reference, False)["outcome"] for argv in commands]


def cli_timed(run: Run, rotation: list, reference: dict) -> dict:
    raw, steps, peaks, digests = [], [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if (elapsed >= run.seconds and len(raw) >= MIN_TASKS) or elapsed >= MAX_STRETCH * run.seconds:
            break
        child = cli_task(run, rotation[len(raw) % len(rotation)], reference, False)
        raw.append(child["wall"])
        steps.append(child["step"])
        peaks.append(child["peak_mib"])
        if len(digests) < MIN_TASKS:
            digests.append(outcome_digest(child["outcome"]))
    wall = time.perf_counter() - start
    return {"raw": raw, "steps": steps, "wall": wall, "digest": combined_digest(digests), "peak_mib": max(peaks)}


def cli_traced(run: Run, rotation: list, reference: dict) -> dict:
    total = None
    untraced, traced, timings = [], [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < run.seconds:
        untraced.append([cli_task(run, argv, reference, False)["step"] for argv in rotation])
        steps = []
        for argv in rotation:
            child = cli_task(run, argv, reference, True)
            steps.append(child["step"])
            doc = child["doc"]
            if doc:
                total = tracer.merge(total, doc["trace"])
                timings.append((doc["started"] - child["spawned"], doc["import_s"], doc["main_s"]))
        traced.append(steps)
    return {
        "snapshot": total,
        "tasks": len(traced) * len(rotation),
        "untraced": untraced,
        "traced": traced,
        "per_pass": len(rotation),
        "timings": timings,
    }


# -- metrics --------------------------------------------------------------------


def end_to_end(run: Run, timed: dict, setups: list[dict]) -> dict:
    """Times scaled to the nominal host; the raw wall-clock figures go to
    the metadata line."""
    pct = TAIL_PERCENTILE[run.workload]
    scaled = sorted(run.host.scaled(i) for i in timed["steps"])
    raw = sorted(timed["raw"])
    tail = _percentile(scaled, pct)
    run.meta.update(
        tasks=len(scaled),
        tail_percentile=pct,
        tail_samples_beyond=sum(1 for v in scaled if v > tail),
        digest=timed["digest"],
        raw={
            "tasks_per_s": len(raw) / timed["wall"],
            "task_p50_ms": 1e3 * statistics.median(raw),
            "task_tail_ms": 1e3 * _percentile(raw, pct),
            "setup_s": statistics.median(c["wall"] for c in setups),
        },
    )
    return {
        "tasks_per_s": len(scaled) / sum(scaled),
        "task_p50_ms": 1e3 * statistics.median(scaled),
        "task_tail_ms": 1e3 * tail,
        "setup_s": statistics.median(run.host.scaled(c["step"]) for c in setups),
        "peak_rss_mb": timed["peak_mib"],
    }


def _percentile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolation percentile of an ascending list."""
    pos = (len(sorted_values) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def per_layer(run: Run, traced: dict, setups: list[dict]) -> dict:
    """Layer times are taken raw inside the steps; each is scaled by the
    host factor of the steps it was taken in (traced tasks or setups)."""
    snap = traced["snapshot"]
    if snap is None:
        die("no traced child reported")
    setup_docs = [json.loads(c["stdout"]) for c in setups if c["rc"] == 0]
    if not setup_docs:
        die("no traced setup child reported")
    task_factor = run.host.factor([i for steps in traced["traced"] for i in steps])
    setup_factor = run.host.factor([c["step"] for c in setups])
    metrics = {
        name: value * task_factor if name.endswith("_s") else value
        for name, value in tracer.layer_metrics(snap, traced["tasks"]).items()
    }
    metrics["datagen.self_s"] = setup_factor * statistics.median(
        tracer.datagen_self_s(d["trace"]) for d in setup_docs
    )
    if run.workload == "cli_cold":
        timings, factor = traced["timings"], task_factor
    else:
        timings = [(d["started"] - c["spawned"], d["import_s"], 0.0) for d, c in zip(setup_docs, setups)]
        factor = setup_factor
    metrics["cli.interpreter_s"] = factor * statistics.median(t[0] for t in timings)
    metrics["cli.import_s"] = factor * statistics.median(t[1] for t in timings)
    metrics["cli.main_s"] = factor * statistics.median(t[2] for t in timings)
    plain = statistics.median(sum(map(run.host.scaled, steps)) for steps in traced["untraced"])
    with_trace = statistics.median(sum(map(run.host.scaled, steps)) for steps in traced["traced"])
    metrics["trace.overhead_s"] = (with_trace - plain) / traced["per_pass"]
    metrics["trace.overhead_ratio"] = with_trace / plain - 1.0
    run.meta.update(traced_tasks=traced["tasks"], absent=snap["absent"])
    return metrics


def load_spec() -> dict:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        die(f"cannot read BENCHMARK.json: {exc}")
    return spec


def render(spec_metrics: list[dict], values: dict) -> dict:
    """Attach units from BENCHMARK.json; every listed metric must be present."""
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        die(f"metrics not produced: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or not args.seconds > 0:
        die("--seed must be nonnegative and --seconds positive")
    spec = load_spec()
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    setups = setup_children(run)
    inputs = workloads.build_inputs(run.workload, run.seed)
    if run.workload == "cli_cold":
        rotation, reference = inputs
        gate = cli_gate(run, workloads.CLI_COMMANDS, reference)
        result = cli_traced(run, rotation, reference) if run.trace else cli_timed(run, rotation, reference)
    else:
        gate = library_gate(run)
        result = library_traced(run, inputs) if run.trace else library_timed(run, inputs)
    run.host.finish()
    if run.trace:
        metrics = render(spec["per_layer"], per_layer(run, result, setups))
    else:
        metrics = render(spec["end_to_end"], end_to_end(run, result, setups))
    gate_digest = combined_digest([outcome_digest(v if isinstance(v, list) else [v]) for v in gate])
    baseline_path = HERE / "baseline.json"
    baseline = json.loads(baseline_path.read_text(encoding="utf-8")) if baseline_path.is_file() else {}
    run.meta.update(
        workload=run.workload,
        seed=run.seed,
        trace=run.trace,
        seconds=run.seconds,
        input_size=INPUT_SIZE[run.workload],
        git_sha=git_sha(),
        python=platform.python_version(),
        numpy=numpy.__version__,
        nproc=os.cpu_count(),
        affinity=len(os.sched_getaffinity(0)),
        attempted=run.attempted,
        failed=run.failed,
        failed_ratio=run.failed / run.attempted,
        probe_median_ms=1e3 * statistics.median(run.host.probes),
        probes=len(run.host.probes),
        gate_digest=gate_digest,
        gate_digest_matches_baseline=baseline.get("gate_digest", {}).get(run.workload) == gate_digest,
        problems=run.problems,
    )
    print(json.dumps({"meta": run.meta}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
