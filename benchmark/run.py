"""singmod benchmark: exact norms, chain bounds and the CLI sweep, end to end.

    python3 benchmark/run.py --workload norm-grid --seed 1 --seconds 35 --trace 0

Workloads (see BENCHMARK.json and benchmark/NOTES.md):
  norm-grid   verify_nonunit(d1, d2, m, factor=True) over the grid
  chain-grid  verify_chain(ks=(3, 5, 7), tail_target=1e-3) over the same grid,
              from reports built on the reference log N
  sweep-cli   `singmod sweep ...` as a subprocess, twice on one fresh cache
              directory (the first pass may write it, the second reads it)

Each pass is a fresh process, so the program's process-global caches start
cold as they do for a command-line user.  The seed and the pass number fix
each pass's instance order.  Passes repeat while another one fits in
--seconds (at least one runs).

Grid latencies and set-up times are scaled to reference-host seconds by a
calibration kernel timed beside them (calib.py), which takes out the speed
drift of a shared host.  sweep-cli's pass times stay raw: its two pool
workers run where no kernel can be timed beside them.  Raw wall-clock
figures are printed as comment lines.  Throughput comes from the median
pass.  The latency percentiles pool every instance call of every pass: an
instance's latency depends on what earlier instances left in the caches,
and pooling several orders keeps one order from deciding the percentiles.

With --trace 1, untraced and traced passes alternate.  The traced passes
wrap singmod's public functions and give the per-layer metrics; comparing
the two kinds of pass gives the tracing overhead.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could not
run at all (for instance, no singmod sources in this checkout).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import calib
import layers
import workloads as wl
from tracer import INSTANCE_SPAN, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("norm-grid", "chain-grid", "sweep-cli")
END_TO_END = [
    ("instances_per_s", "1/s"),
    ("instance_p50_s", "s"),
    ("instance_p95_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PER_ROUND = 2       # set-up probes timed before each round of passes
SETUP_MIN = 7             # and topped up to this many at the end
SETUP_CALIBRATION = 8     # calibration samples timed before each probe
RUN_LIMIT_S = 170.0       # hard wall for one benchmark run
MAX_PROBLEMS = 20         # problems echoed to stderr per pass

_T0 = time.monotonic()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 1]), averaged over the order
    statistics within n/200 ranks of it (at least one on each side).

    The sweep's latencies come rounded to 0.1 ms, so a bare order statistic
    of them would move in whole steps; the short average resolves between.
    """
    ordered = sorted(values)
    rank = max(math.ceil(q * len(ordered)) - 1, 0)
    width = max(len(ordered) // 200, 1)
    return statistics.fmean(ordered[max(rank - width, 0): rank + width + 1])


def run_instances(items, prepare, call, check, tracer=None):
    """Time call(prepare(item)) per item; exceptions and failed checks count.

    A full garbage collection runs before each call, so that collection
    work owed by earlier instances does not land in a later one, and one
    calibration sample is timed after it.  Both stay outside the instance
    span.  Returns (latencies, calibrations, outputs, failed, problems,
    timed_s), timed_s being the loop's wall time less those two.  With a
    tracer every call runs inside one instance span.
    """
    prepared = [prepare(item) for item in items]
    latencies, calibrations, outputs = [], [], []
    start = time.perf_counter()
    collecting = 0.0
    for i, args in enumerate(prepared):
        t = time.perf_counter()
        gc.collect()
        collecting += time.perf_counter() - t
        idx = None
        if tracer is not None:
            tracer.instance = i
            idx = tracer.open(INSTANCE_SPAN)
        t = time.perf_counter()
        try:
            out = call(args)
        except Exception as err:  # an instance failure, never the run's
            out = err
        latencies.append(time.perf_counter() - t)
        if idx is not None:
            tracer.close(idx)
        outputs.append(out)
        calibrations.append(calib.sample())
    timed = time.perf_counter() - start - sum(calibrations) - collecting
    failed, problems = 0, []
    for item, out in zip(items, outputs):
        found = ([f"raised {type(out).__name__}: {out}"]
                 if isinstance(out, Exception) else check(item, out))
        if found:
            failed += 1
            problems.extend(f"{item}: {p}" for p in found)
    return latencies, calibrations, outputs, failed, problems, timed


# ---------------------------------------------------------------------------
# one pass, in its own process


def _grid_pass(workload: str, seed: int, pass_index: int, tracer):
    from singmod import PrecisionContext, verify
    from singmod.verify import VerificationReport

    ctx = PrecisionContext()
    items = wl.shuffled(wl.grid_instances(), seed, pass_index)
    if workload == "norm-grid":
        ref = wl.load_reference("norm_grid")["instances"]

        def prepare(item):
            return item

        def call(item):
            return verify.verify_nonunit(*item, ctx, factor=True)

        def check(item, rep):
            return wl.check_norm(rep, ref[wl.key(*item)])
    else:
        ref = wl.load_reference("chain_grid")["instances"]
        logs = wl.load_reference("norm_grid")["instances"]

        def prepare(item):
            d1, d2, m = item
            rep = VerificationReport(d1=d1, d2=d2, m=m, cycle_kind="big",
                                     status="ok", log_norm=logs[wl.key(*item)]["log_norm"],
                                     non_unit=True, asserted=True)
            return item, rep

        def call(args):
            (d1, d2, m), rep = args
            return verify.verify_chain(d1, d2, m, ctx, ks=wl.CHAIN_KS,
                                       tail_target=wl.CHAIN_TAIL, report=rep)

        def check(item, bounds):
            return wl.check_chain(bounds, ref[wl.key(*item)])

    # calls go through the module attribute so the wrappers see them
    uninstall = _install(tracer)
    try:
        latencies, calibrations, outputs, failed, problems, timed = run_instances(
            items, prepare, call, check, tracer)
    finally:
        uninstall()
    scaled = [t * f for t, f in zip(latencies, calib.windowed_factors(calibrations))]
    keys = [wl.key(*item) for item in items]
    statuses = {"ok": 0, "zero": 0, "error": 0}
    for out in outputs:
        if workload == "norm-grid":
            status = getattr(out, "status", "error")
        else:
            status = "error" if isinstance(out, Exception) else "ok"
        statuses[status if status in statuses else "error"] += 1
    return {"timed_s": timed, "work_s": sum(scaled), "raw_work_s": sum(latencies),
            "latencies": dict(zip(keys, scaled)), "raw_latencies": dict(zip(keys, latencies)),
            "attempted": len(items), "failed": failed, "problems": problems,
            "statuses": statuses}


def _sweep_argv(workdir: str, name: str):
    return [*wl.SWEEP_ARGS, "--cache-dir", os.path.join(workdir, "cache"),
            "--out", os.path.join(workdir, name + ".json")]


def _sweep_traced_pass(workdir: str, name: str, tracer):
    """The CLI's main() in this process, wrapped; the pool workers fork from it."""
    from singmod import cli

    uninstall = _install(tracer)
    start = time.perf_counter()
    try:
        tracer.instance = 0
        idx = tracer.open(INSTANCE_SPAN)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(_sweep_argv(workdir, name))
        finally:
            tracer.close(idx)
    finally:
        uninstall()
    timed = time.perf_counter() - start
    payload = _read_json(os.path.join(workdir, name + ".json"))
    ref = wl.load_reference("sweep_cli")
    failed, problems = wl.check_sweep(payload, code, ref)
    return {"timed_s": timed, "attempted": len(ref["reports"]), "failed": failed,
            "problems": problems, "statuses": _sweep_statuses(payload)}


def _install(tracer):
    if tracer is None:
        return lambda: None
    return layers.install(tracer)


def pass_worker(args) -> int:
    sys.path.insert(0, SRC)

    tracer = Tracer() if args.trace else None
    if args.workload == "sweep-cli":
        result = _sweep_traced_pass(args.workdir, f"traced{args.pass_index}", tracer)
    else:
        result = _grid_pass(args.workload, args.seed, args.pass_index, tracer)
    if tracer is not None:
        metrics = layers.layer_metrics(tracer)
        metrics["modular.jvalue_cache.entries"] = layers.jvalue_cache_size() or 0
        metrics["trace.instance_coverage"] = layers.instance_total(tracer) / result["timed_s"]
        result["layers"] = metrics
        gap = layers.self_time_gap(tracer)
        if gap > 1e-6:
            result["harness_errors"] = [f"self times miss the instance spans by {gap:.3g} s"]
        if args.workload == "norm-grid":
            calls = tracer.counts.get("modular.j_eval.calls", 0)
            expected = tracer.counts.get("identity.j_eval_expected", 0)
            if calls != expected or calls == 0:
                result.setdefault("harness_errors", []).append(
                    f"j_eval calls {calls:g} != sum over modpoly_eval of "
                    f"(1 + cosets) = {expected:g}")
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}-pass{args.pass_index}.json.gz"))
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# the parent: passes, checks, metrics


def _read_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _sweep_latencies(payload):
    return {wl.key(r.get("d1"), r.get("d2"), r.get("m")): float(r.get("elapsed", 0.0))
            for r in (payload or {}).get("reports", [])}


def _sweep_statuses(payload):
    out = {"ok": 0, "zero": 0, "error": 0}
    for r in (payload or {}).get("reports", []):
        status = r.get("status")
        out[status if status in out else "error"] += 1
    return out


def _env():
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def _remaining() -> float:
    return RUN_LIMIT_S - (time.monotonic() - _T0)


def _spawn(cmd):
    """Run cmd from the checkout root; (exit code, stdout, wall seconds)."""
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(_remaining(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += "\n[benchmark: pass killed at the run time limit]"
    if proc.returncode:
        sys.stderr.write(err[-2000:])
    return proc.returncode, out, time.monotonic() - spawned


def _worker_pass(args, pass_index: int, traced: bool, workdir: str = "") -> dict:
    """A pass in a worker process; grid workers calibrate instance by instance."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--pass-worker",
           "--workload", args.workload, "--seed", str(args.seed),
           "--pass-index", str(pass_index), "--trace", "1" if traced else "0",
           "--workdir", workdir]
    code, out, wall = _spawn(cmd)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if code == 0 and lines else None
    except ValueError:
        result = None
    if result is None:
        return {"broken": f"pass worker exited {code}", "wall": wall}
    result["wall"] = wall
    if args.workload == "sweep-cli":
        result["work_s"] = wall
    return result


def _cli_pass(workdir: str, name: str) -> dict:
    cmd = [sys.executable, "-m", "singmod.cli", *_sweep_argv(workdir, name)]
    code, _, wall = _spawn(cmd)
    payload = _read_json(os.path.join(workdir, name + ".json"))
    ref = wl.load_reference("sweep_cli")
    failed, problems = wl.check_sweep(payload, code, ref)
    raw = _sweep_latencies(payload)
    return {"wall": wall, "work_s": wall, "raw_work_s": wall,
            "latencies": raw, "raw_latencies": raw,
            "attempted": len(ref["reports"]), "failed": failed, "problems": problems,
            "statuses": _sweep_statuses(payload), "busy_s": sum(raw.values())}


def _setup_probe(args) -> tuple[float, float] | None:
    """(scaled, raw) wall time from a fresh process to ready; None on failure.

    sweep-cli: a trivial `singmod cmpoints -3`; the grids: interpreter start,
    `import singmod`, the references and the instance list (--setup-probe).
    """
    if args.workload == "sweep-cli":
        cmd = [sys.executable, "-m", "singmod.cli", "cmpoints", "-3"]
    else:
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--setup-probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    scale = calib.factor(calib.samples(SETUP_CALIBRATION))
    code, _, wall = _spawn(cmd)
    return None if code else (wall * scale, wall)


def setup_probe(args) -> int:
    """Everything a grid pass does before its first instance, then exit."""
    sys.path.insert(0, SRC)
    import singmod  # noqa: F401
    wl.shuffled(wl.grid_instances(), args.seed, 0)
    wl.load_reference("norm_grid")
    if args.workload == "chain-grid":
        wl.load_reference("chain_grid")
    return 0


def _round(args, index: int, traced: bool) -> list[dict]:
    """One unit of repetition: a grid pass, or a sweep write/read pass pair."""
    if args.workload != "sweep-cli":
        return [_worker_pass(args, index, traced)]
    workdir = os.path.join(OUT_DIR, f"sweep-{os.getpid()}-{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if traced:
            return [_worker_pass(args, 2 * index + i, True, workdir) for i in range(2)]
        return [_cli_pass(workdir, f"pass{i}") for i in range(2)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def collect(args):
    """Run rounds while another fits in --seconds; (untraced, traced, setups)."""
    setups, plain, traced = [], [], []
    start = time.monotonic()
    rounds = 0
    while True:
        if not args.trace:
            setups.extend(_setup_probe(args) for _ in range(SETUP_PER_ROUND))
        plain.extend(_round(args, rounds, False))
        if args.trace:
            traced.extend(_round(args, rounds, True))
        rounds += 1
        elapsed = time.monotonic() - start
        if any("broken" in p for p in plain + traced):
            break
        if elapsed + elapsed / rounds > min(args.seconds, _remaining() - 10):
            break
    if not args.trace:
        setups.extend(_setup_probe(args) for _ in range(SETUP_MIN - len(setups)))
    return plain, traced, setups


def _summarise(args, plain, traced, setups):
    broken = [p["broken"] for p in plain + traced if "broken" in p]
    counted = [p for p in plain + traced if "broken" not in p]
    attempted = sum(p["attempted"] for p in counted)
    failed = sum(p["failed"] for p in counted)
    harness = [e for p in counted for e in p.get("harness_errors", [])] + broken
    if None in setups:
        harness.append("a set-up probe failed")
    for p in counted:
        for line in p["problems"][:MAX_PROBLEMS]:
            print(f"FAILED {line}", file=sys.stderr)
    for line in harness:
        print(f"HARNESS {line}", file=sys.stderr)
    if broken:
        attempted = max(attempted, 1)
        failed = attempted
    ok_plain = [p for p in plain if "broken" not in p]
    metrics = {}
    if not args.trace and ok_plain:
        setup = [s for s in setups if s is not None]
        raw = _end_to_end(args.workload, ok_plain, [s[1] for s in setup], scaled=False)
        values = _end_to_end(args.workload, ok_plain, [s[0] for s in setup], scaled=True)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        print(f"# {args.workload}: {len(ok_plain)} passes; throughput of the median pass; "
              f"{sum(len(p['latencies']) for p in ok_plain)} latency samples; "
              f"{len(setup)} set-up samples; times in reference-host seconds")
        for name, unit in END_TO_END:
            print(f"# raw wall-clock {name} {raw[name]!r} {unit}")
    elif args.trace and ok_plain and len(counted) == len(plain) + len(traced):
        metrics = _layer_summary(args, ok_plain, traced)
    print(f"# failed_frac {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    return {"correct": failed == 0 and not harness and bool(metrics),
            "attempted": max(attempted, 1), "failed": failed if attempted else 1,
            "metrics": metrics}


def _end_to_end(workload: str, passes, setups, scaled: bool) -> dict:
    """End-to-end values from untraced passes, scaled or raw."""
    lat = [t for p in passes for t in p["latencies" if scaled else "raw_latencies"].values()]
    work = statistics.median(p["work_s" if scaled else "raw_work_s"] for p in passes)
    return {
        "instances_per_s": passes[0]["attempted"] / work,
        "instance_p50_s": percentile(lat, 0.5),
        "instance_p95_s": percentile(lat, 0.95),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


def _layer_summary(args, plain, traced):
    units = dict(layers.PER_LAYER)
    values = {name: statistics.mean(p["layers"][name] for p in traced) for name in units}
    for status in ("ok", "zero", "error"):
        values[f"verify.status.{status}"] = statistics.mean(
            p["statuses"][status] for p in traced)
    values["trace.overhead_frac"] = (
        statistics.median(p["work_s"] for p in traced)
        / statistics.median(p["work_s"] for p in plain) - 1.0)
    if args.workload == "sweep-cli":
        values["cli.process_s"] = statistics.median(p["wall"] for p in plain)
        values["cli.pool_utilisation"] = statistics.median(
            p["busy_s"] / (wl.SWEEP_WORKERS * p["wall"]) for p in plain)
    print(f"# {args.workload}: {len(traced)} traced and {len(plain)} untraced passes; "
          "per-layer values are per traced pass")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pass-worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--pass-index", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default="", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "singmod", "__init__.py")):
        print(f"benchmark: no singmod sources under {SRC}", file=sys.stderr)
        return 2
    if args.pass_worker:
        return pass_worker(args)
    if args.setup_probe:
        return setup_probe(args)
    plain, traced, setups = collect(args)
    print(json.dumps(_summarise(args, plain, traced, setups)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
