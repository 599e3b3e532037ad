"""Run one benchmark workload against the program in ``src/`` and report it.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 28 --trace 0

Iterations run back to back until the next one would overrun ``--seconds``.
Each takes set-up samples (a fresh interpreter importing numpy and ``cib``,
then making the workload's inputs) and runs one whole cycle of the workload
while ``speed.Sampler`` measures the machine's speed.  With ``--trace 0`` every
cycle is untraced and the end-to-end metrics are reported; with
``--trace 1`` traced and untraced cycles alternate, the per-layer metrics
come from the traced ones and the overhead is their difference.  Human
readable lines come first; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import contextlib
import hashlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one BLAS thread per process, so that --jobs 2 stays within two cores
THREAD_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PIN)

import numpy as np  # noqa: E402  (after the thread pin)

import layers  # noqa: E402
import stats  # noqa: E402
from speed import NOMINAL_PY_PROBE_S, Sampler, py_probe_s, speed  # noqa: E402
from tracer import Tracer, write_jsonl  # noqa: E402
from workloads import VARIANTS, WORKLOADS, Context, cpu_now, compare  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "_results"
SETUP_EVERY_S = 1.5  # cycle time per set-up sample


def import_program():
    """Import ``cib`` from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    import cib
    import cib.cli  # noqa: F401  (the package does not import its command line)

    if Path(cib.__file__).resolve().parent != SRC / "cib":
        raise ImportError(f"cib was found at {cib.__file__}, not in {SRC}")
    return cib


def git_commit() -> str:
    """HEAD of the checkout read from ``.git`` files; the checkout may not be a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(load_start) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "cib").glob("*.py")):
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
        "git_commit": git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any of its reaped children (ru_maxrss is KiB)."""
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def load_reference(workload: str, variant: int):
    path = BENCH / "reference.json"
    if not path.is_file():
        return None
    return json.loads(path.read_text()).get("workloads", {}).get(workload, {}).get(str(variant))


SET_UP_INTERVAL = 0.02  # seconds between set-up speed samples
# A fresh interpreter that samples its own core's speed while it imports numpy and cib.cli.
SET_UP_CHILD = "\n".join([
    "import signal, sys, time",
    inspect.getsource(py_probe_s),
    "samples = []",
    "signal.signal(signal.SIGALRM, lambda signum, frame: samples.append(py_probe_s()))",
    f"signal.setitimer(signal.ITIMER_REAL, {SET_UP_INTERVAL}, {SET_UP_INTERVAL})",
    f"sys.path.insert(0, {str(SRC)!r})",
    "import numpy, cib.cli",
    "signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)",
    "print(*samples)",
])


def set_up(workload, work: Path, variant: int, cib) -> tuple[float, float]:
    """One set-up sample: the fresh interpreter of SET_UP_CHILD, then the workload's inputs.

    Returns the wall time (less the probes) and the same time at the nominal
    speed.  The child samples its own core, which this process cannot; this
    process samples itself while it makes the inputs.
    """
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-c", SET_UP_CHILD], check=True, capture_output=True, text=True)
    with Sampler(SET_UP_INTERVAL, py_probe_s) as sampler:
        workload.prepare(work, variant, cib)
    child = [float(p) for p in out.stdout.split()]
    wall = time.perf_counter() - t0 - sum(child) - sampler.spent
    samples = child + sampler.samples or [py_probe_s()]
    return wall, wall * speed(samples) * NOMINAL_PY_PROBE_S


def baseline_costs(workload: str) -> dict:
    """Command costs in probe units (``<label>_rel``) recorded in ``baseline.json``."""
    path = BENCH / "baseline.json"
    named = json.loads(path.read_text())["workloads"].get(workload, {}).get("named", {}) if path.is_file() else {}
    return {k[:-len("_rel")]: v["median"] for k, v in named.items() if k.endswith("_rel") and k != "cycle_rel"}


def command_ratio_max(cycles, baseline: dict, ledger) -> list[float]:
    """The largest ratio, over the cycle's commands, of median cost to baseline cost.

    Gated beside ``cycle_rel`` so that a slowdown confined to one command
    (one estimator mode, the ``--jobs 2`` pool, ``cib gradcheck``) shows at
    its own size rather than diluted by the rest of the cycle.
    """
    costs = {label: statistics.median(r["commands"][label] for r in cycles) for label in cycles[0]["commands"]}
    if not ledger.check(set(costs) <= set(baseline), f"no baseline cost for {sorted(set(costs) - set(baseline))}"):
        return []
    ratio, label = max((cost / baseline[label], label) for label, cost in costs.items())
    print(f"  cmd_ratio_max is {label}: {costs[label]:.6g} over its baseline {baseline[label]:.6g} probe")
    return [ratio]


def run_cycles(cib, workload, args, work, ledger):
    """Closed loop: whole cycles until the next one would overrun.

    Each iteration takes set-up samples, one per SETUP_EVERY_S of the last
    cycle (spread over the run, so that one slow moment of the machine
    cannot set the median), then runs one cycle.  Returns the set-up samples
    and per-cycle records.
    """
    variant = args.seed % VARIANTS
    reference = load_reference(workload.name, variant)
    tracer = Tracer() if args.trace else None
    setups, records, spans_out, first = [], [], [], None
    min_cycles = 3 if args.trace else 2
    deadline = time.perf_counter() + args.seconds
    k, wall = 0, 0.0
    while True:
        begun = time.perf_counter()
        for j in range(max(1, round(wall / SETUP_EVERY_S))):
            setups.append(set_up(workload, work / f"setup-{k}-{j}", variant, cib))
        traced = bool(args.trace) and k % 2 == 0
        out = work / f"cycle-{k}"
        sampler = Sampler()
        ctx = Context(cib, ledger, sampler)
        if traced:
            tracer.start(f"{workload.name}-seed{args.seed}-cycle{k}", out / "spans")
            installed, absent = layers.install(tracer)
        try:
            # traced cycles take no speed samples: a probe inside a span would count as its time
            with contextlib.nullcontext() if traced else sampler:
                w0, c0 = time.perf_counter(), cpu_now()
                workload.cycle(ctx, out)
                wall, cpu = time.perf_counter() - w0, cpu_now() - c0
        except Exception:
            ledger.check(False, f"cycle {k} raised:\n{traceback.format_exc()}")
            break
        finally:
            if traced:
                tracer.restore()
                spans = tracer.stop()
        record = {"traced": traced, "wall": wall - sampler.spent, "cpu": cpu - sampler.spent,
                  "result": ctx.result}
        if sampler.samples:
            record["probe"] = statistics.median(sampler.samples)
            record["rel"] = sampler.cost(record["wall"])
            record["commands"] = {label: ctx.result.cost(label, speed(sampler.samples))
                                  for label in ctx.result.labels()}
        if first is None:
            first = ctx.result.artifacts
        else:
            ledger.check(ctx.result.artifacts == first, f"cycle {k} artifacts differ from cycle 0")
        compare(ledger, workload, ctx.result.values, reference)
        if traced:
            record["absent"] = absent
            for span in workload.spans:
                if ledger.check(span in installed, f"wrapper {span} not installed: its target is gone"):
                    ledger.check(any(s.name == span for s in spans), f"wrapper {span} never fired")
            record["layers"] = layers.cycle_metrics(spans, os.getpid(), tracer.workers_started)
            record["steps_ms"] = layers.step_durations_ms(spans)
            spans_out.extend(spans)
        records.append(record)
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        now = time.perf_counter()
        if k >= min_cycles and deadline - now < now - begun:
            break
    if spans_out:
        write_jsonl(spans_out, RESULTS / f"{workload.name}.spans.jsonl")
    return setups, records


def per_layer(records, ledger, units) -> dict:
    """Median of each layer time over traced cycles; counts must repeat exactly."""
    traced = [r for r in records if r["traced"]]
    untraced = [r for r in records if not r["traced"]]
    metrics = {}
    for name, unit in units.items():
        values = [r["layers"][name] for r in traced if name in r["layers"]]
        if not values:
            continue
        if unit in ("count", "bytes"):
            ledger.check(len(set(values)) == 1, f"count {name} differs between cycles: {values}")
            metrics[name] = values[0]
        else:
            metrics[name] = statistics.median(values)
    steps = [ms for r in traced for ms in r["steps_ms"]]
    metrics["model.step_ms_p50"] = statistics.median(steps) if steps else 0.0
    p99 = stats.percentile(steps, 99.0) if steps else 0.0
    if p99 is not None:  # left out when fewer than ten steps lie beyond it
        metrics["model.step_ms_p99"] = p99
    if untraced:
        base = statistics.median(r["wall"] for r in untraced)
        overhead = statistics.median(r["wall"] for r in traced) - base
        metrics["trace.overhead_s"] = overhead
        metrics["trace.overhead_pct"] = 100.0 * overhead / base
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cib = import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    load_start = os.getloadavg()
    workload = WORKLOADS[args.workload]()
    work = BENCH / "_work" / f"{workload.name}-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    ledger = stats.Ledger()
    try:
        setups, records = run_cycles(cib, workload, args, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = environment(load_start)

    cycles = [r for r in records if not r["traced"]]
    named = workload.named_samples([r["result"] for r in cycles]) if cycles else {}
    named["setup_s"] = ("s", [nominal for _, nominal in setups])
    named["setup_wall_s"] = ("s", [wall for wall, _ in setups])
    named["peak_rss_mb"] = ("MB", [peak_rss_mb()])
    named["cycle_s"] = ("s", [r["wall"] for r in cycles])
    named["cycle_cpu_s"] = ("s", [r["cpu"] for r in cycles])
    named["cycle_rel"] = ("probe", [r["rel"] for r in cycles if "rel" in r])
    named["probe_s"] = ("s", [r["probe"] for r in cycles if "probe" in r])
    probed = [r for r in cycles if "commands" in r]
    for label in probed[0]["commands"] if probed else ():
        named[f"{label}_rel"] = ("probe", [r["commands"][label] for r in probed])
    named["cmd_ratio_max"] = ("ratio", command_ratio_max(probed, baseline_costs(workload.name), ledger)
                              if probed else [])

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        metrics = per_layer(records, ledger, units)
        out = {name: {"value": metrics[name], "unit": units[name]} for name in units if name in metrics}
    else:
        out = {m["name"]: {"value": statistics.median(named[m["name"]][1]), "unit": m["unit"]}
               for m in spec["end_to_end"] if named[m["name"]][1]}

    print(f"workload {workload.name}: seed {args.seed}, {len(records)} cycles "
          f"({sum(r['traced'] for r in records)} traced)")
    for name, (unit, samples) in named.items():
        if not samples:
            continue
        d = stats.describe(samples)
        tail = "".join(f" {k} {v:.6g}" for k, v in d.items() if k.startswith("p"))
        print(f"  {name:24s} {d['median']:.6g} {unit}  [q1 {d['q1']:.6g}, q3 {d['q3']:.6g}] n={d['n']}{tail}")
    print(f"  {'failed_ratio':24s} {ledger.ratio:.6g}  ({ledger.failed} of {ledger.attempted} operations)")
    for failure in ledger.failures[:20]:
        print(f"  FAILED: {failure}")
    print("  env " + json.dumps(env, sort_keys=True))
    if args.trace:
        absent = sorted({s for r in records if r["traced"] for s in r["absent"]})
        if absent:
            print(f"  not found in this program: {', '.join(absent)}")
        for name, value in out.items():
            print(f"  {name:44s} {value['value']:.6g} {value['unit']}")
    doc = {"correct": ledger.failed == 0, "attempted": ledger.attempted, "failed": ledger.failed,
           "metrics": out}
    detail = dict(doc, workload=workload.name, seed=args.seed, trace=args.trace, env=env,
                  failures=ledger.failures,
                  samples={k: {"unit": u, "values": v} for k, (u, v) in named.items()})
    (RESULTS / f"{workload.name}.trace{args.trace}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(doc), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
