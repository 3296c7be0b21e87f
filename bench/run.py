#!/usr/bin/env python3
"""Layered benchmark for lambda-forge.

    python3 bench/run.py --workload classify-naive --seed 1 --seconds 20 --trace 0

Run from anywhere; it uses the ``src/`` and ``configs/`` next to this
directory and writes generated inputs, results and spans under
``.bench_work/`` at the repository root.

``--trace 0`` drives the ``lambda-forge`` CLI as subprocesses, one client
in a closed loop, and reports the end-to-end metrics.  ``--trace 1`` runs
the same invocations in-process through ``lambda_forge.cli.main`` and
reports the per-layer metrics (see README.md).  The last line of stdout is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import workloads
from workloads import ROOT, Workload

HERE = Path(__file__).resolve().parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
W = min(2, len(os.sched_getaffinity(0)))
INVOCATION_TIMEOUT_S = 160


# --- shared checking ---------------------------------------------------------

class Tally:
    """Attempted and failed items, with the first reasons for failure."""

    def __init__(self, wl: Workload) -> None:
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.reasons: list[str] = []

    def counts(self) -> dict:
        return {k: v for k, v in vars(self).items() if k != "wl"}

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 20:
            self.reasons.append(reason)

    def judge(self, inv, rc, out: bytes, err: str) -> None:
        """Count one invocation; it fails on a non-zero exit, a digest or an oracle."""
        self.attempted += 1
        if rc != 0:
            self.fail(f"{inv.argv[0]}: exit {rc}: {err.strip()[-300:]}")
            return
        want = self.wl.digests.get(inv.ref)
        if want is not None:
            self.digests_checked += 1
            if hashlib.sha256(out).hexdigest() != want:
                self.fail(f"{inv.argv[0]}: sha256 differs from the digest recorded for {inv.ref!r}")
                return
        try:
            problem = inv.check(out)
        except (ValueError, KeyError, TypeError) as exc:
            problem = f"{inv.argv[0]}: unreadable output ({exc!r})"
        if problem:
            self.fail(problem)


def run_requests(wl: Workload, tally: Tally, invoke,
                 before_request=lambda: None) -> tuple[list[float], list[bytes]]:
    """One run of the workload: returns per-request latencies and all outputs.

    ``invoke(inv)`` returns (rc, out, err, wall_s).  A step that cannot be
    built because an earlier one failed counts as a failed invocation.
    """
    latencies, outputs = [], []
    for request in wl.requests:
        before_request()
        prev: list[bytes] = []
        latency = 0.0
        for step in request:
            try:
                inv = step(prev)
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                tally.attempted += 1
                tally.fail(f"cannot build the next step from the previous output: {exc!r}")
                break
            rc, out, err, wall = invoke(inv)
            latency += wall
            tally.judge(inv, rc, out, err)
            prev.append(out)
            outputs.append(out)
        latencies.append(latency)
    return latencies, outputs


# --- untraced: CLI subprocesses ----------------------------------------------

def child_env(workers: int) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["LAMBDA_FORGE_THREADS"] = str(workers)
    return env


def children_cpu_s() -> float:
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def _reap_group(proc: subprocess.Popen) -> None:
    """Kill a timed-out invocation with every process it started, and wait for them."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.communicate()
    for _ in range(100):
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def spawn(cmd: list[str], env: dict[str, str]) -> tuple[int | None, bytes, str, float]:
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
                            cwd=ROOT, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _reap_group(proc)
        return None, b"", f"timed out after {INVOCATION_TIMEOUT_S} s", time.perf_counter() - t0
    return proc.returncode, out, err.decode(errors="replace"), time.perf_counter() - t0


def probe_setup(config: Path, env: dict[str, str]) -> float | None:
    """Seconds from spawning a fresh interpreter until its FormContext is built."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(config)],
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
                            cwd=ROOT, start_new_session=True)
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    try:
        proc.communicate(timeout=INVOCATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        _reap_group(proc)
        return None
    return elapsed if line.strip() == b"ready" and proc.returncode == 0 else None


def untraced(wl: Workload, seconds: float, tally: Tally) -> tuple[dict, dict]:
    env = child_env(W)
    probe_setup(wl.setup_config, env)  # untimed: fills the bytecode and file caches
    setups: list[float] = []
    state = {"cpu": 0.0, "probes": 0, "mark": None}

    def probe(upto: int) -> None:
        while state["probes"] < min(upto, wl.setup_probes):
            state["probes"] += 1
            tally.attempted += 1
            s = probe_setup(wl.setup_config, env)
            if s is None:
                tally.fail(f"set-up probe failed on {wl.setup_config.name}")
            else:
                setups.append(s)

    def spread_probes():
        """Before each request, probe in proportion to the last request's share of the run."""
        now = time.perf_counter()
        share = (now - state["mark"]) / seconds if state["mark"] else 0.0
        probe(state["probes"] + max(1, math.ceil(wl.setup_probes * share)))
        state["mark"] = time.perf_counter()

    def invoke(inv):
        cpu0 = children_cpu_s()
        rc, out, err, wall = spawn([sys.executable, "-m", "lambda_forge", *inv.args(W)], env)
        state["cpu"] += children_cpu_s() - cpu0
        return rc, out, err, wall

    walls, cpus, latencies = [], [], []
    start = time.perf_counter()
    while True:
        state["cpu"] = 0.0
        lat, _ = run_requests(wl, tally, invoke, spread_probes)
        walls.append(sum(lat))
        cpus.append(state["cpu"])
        latencies += lat
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    probe(wl.setup_probes)
    run_s = statistics.median(walls)
    metrics = {
        "run_s": run_s,
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "request_p50_s": statistics.median(latencies),
    }
    details = {
        "runs": len(walls), "run_walls_s": walls, "run_cpus_s": cpus,
        "setup_samples_s": setups, "request_samples": len(latencies),
        "primes_per_s": wl.primes / run_s if wl.primes else None,
        "primes_per_run": wl.primes or None,
    }
    return metrics, details


# --- traced: in-process passes through cli.main ------------------------------

def import_program():
    sys.path.insert(0, str(SRC))
    import lambda_forge

    if Path(lambda_forge.__file__).resolve().parent != (SRC / "lambda_forge").resolve():
        raise SystemExit(f"error: imported lambda_forge from {lambda_forge.__file__}, not {SRC}")
    from lambda_forge import cli, config, curves, density, forms, levels, residual

    return cli, config, curves, density, forms, levels, residual


def in_process_pass(wl: Workload, tally: Tally, workers: int, main) -> tuple[float, list[bytes]]:
    """Run every invocation through ``main(argv)``; returns total wall and outputs."""
    os.environ["LAMBDA_FORGE_THREADS"] = str(workers)

    def invoke(inv):
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = main(inv.args(workers))
            except (Exception, SystemExit) as exc:  # a crash fails this invocation only
                rc, err = None, io.StringIO(repr(exc))
        return rc, out.getvalue().encode(), err.getvalue(), time.perf_counter() - t0

    latencies, outputs = run_requests(wl, tally, invoke)
    return sum(latencies), outputs


def check_point_counts(wl: Workload, config, curves, tally: Tally) -> int:
    """Oracle: naive and BSGS counts agree on a seeded sample of each sweep range."""
    checked = 0
    for path, ells in wl.point_count_ranges:
        tally.attempted += 1
        curve = config.load_config(path).curve
        bad = [ell for ell in ells
               if curves.count_points_naive(curve, ell, limit=ell)
               != curves.count_points_bsgs(curve, ell)]
        checked += len(ells)
        if bad:
            tally.fail(f"naive and BSGS point counts differ on {path.name} at ell in {bad}")
    return checked


def install_full_trace(tr, cli, config, curves, density, forms, levels, residual) -> None:
    tr.patch(cli, "load_config", "config.load_config")
    tr.patch(cli, "build_context", "config.build_context")
    tr.patch(config, "load_coefficients", "forms.load_coefficients")
    for module in (cli, density, levels):
        tr.patch(module, "classify_range", "residual.classify_range", generator=True)
    tr.patch(cli, "empirical_density", "density.empirical_density")
    tr.patch(cli, "sigma_ell", "iwasawa.sigma_ell")
    tr.patch(levels, "sigma_ell", "iwasawa.sigma_ell")
    tr.patch(cli, "plan_target_lambda", "levels.plan_target_lambda")
    tr.patch(levels, "build_level_set", "levels.build_level_set")
    tr.patch(cli, "carayol_check", "levels.carayol_check")
    tr.patch(residual, "sieve_primes", "arith.sieve_primes", generator=True)
    tr.patch(residual, "classify_prime", "residual.classify_prime")
    tr.patch(residual, "a_ell", "forms.a_ell")
    tr.patch(forms, "a_ell", "forms.a_ell")
    tr.patch(forms, "is_prime", "arith.is_prime")
    tr.patch(forms, "trace_of_frobenius", "curves.trace_of_frobenius")
    tr.patch(curves, "count_points_naive", "curves.count_points_naive")
    tr.patch(curves, "count_points_bsgs", "curves.count_points_bsgs")


def dispatch_cost(sweeps: list[dict], sieve) -> tuple[int, int]:
    """Computed, not measured: chunks a pool sweep submits and their pickled (ctx, chunk) bytes."""
    chunks = size = 0
    for rec in sweeps:
        buf: list[int] = []
        for ell in sieve(rec["range"]):
            buf.append(ell)
            if len(buf) == rec["chunk_size"]:
                chunks, size = chunks + 1, size + len(pickle.dumps((rec["ctx"], buf)))
                buf = []
        if buf:
            chunks, size = chunks + 1, size + len(pickle.dumps((rec["ctx"], buf)))
    return chunks, size


def in_fresh_child(fn, tally: Tally):
    """Run ``fn()`` in a forked child and return its result.

    Every pass starts from the same process state, as a CLI process does.  In
    one process, a second ``cli.main`` pass of classify-naive ran about a
    third faster than the first, which would show as negative tracing
    overhead.
    """
    ctx = multiprocessing.get_context("fork")  # the benchmark process has no threads
    recv, send = ctx.Pipe(duplex=False)

    def child():
        try:
            send.send((fn(), tally.counts()))
        except BaseException as exc:  # report any crash to the parent, then exit
            send.send((exc, tally.counts()))

    proc = ctx.Process(target=child)
    proc.start()
    send.close()
    try:
        result, state = recv.recv()
    except EOFError:
        result, state = RuntimeError(f"pass died with exit code {proc.exitcode}"), None
    proc.join()
    if state is not None:
        vars(tally).update(state)
    if isinstance(result, BaseException):
        tally.attempted += 1
        tally.fail(f"traced pass crashed: {result!r}")
        return None
    return result


def traced(wl: Workload, tally: Tally) -> tuple[dict, dict]:
    from tracer import SweepProbe, Tracer

    cli, config, curves, density, forms, levels, residual = import_program()
    stem = WORK / "traces" / f"{wl.name}-seed{wl.seed}"

    def probed_pass(workers):
        probe = SweepProbe()
        probe.install(cli, density, levels)
        wall, outputs = in_process_pass(wl, tally, workers, cli.main)
        pooled = [r for r in probe.sweeps if r["workers"] is not None]
        chunks, nbytes = dispatch_cost([r for r in pooled if r["workers"] > 1],
                                       residual.sieve_primes)
        return {
            "wall": wall, "digests": [hashlib.sha256(o).digest() for o in outputs],
            "sweep_s": sum(r["busy_s"] for r in pooled), "plan_s": probe.plan_s,
            "first_item_s": [r["first_item_s"] for r in pooled if r["first_item_s"] is not None],
            "chunks": chunks, "dispatch_bytes": nbytes,
        }

    def traced_pass():
        tr = Tracer()
        install_full_trace(tr, cli, config, curves, density, forms, levels, residual)
        wall, outputs = in_process_pass(
            wl, tally, 1, lambda argv: tr.call("cli.main", cli.main, argv))
        tr.restore()
        tr.write(stem)
        return {"wall": wall, "output_bytes": sum(len(o) for o in outputs),
                "spans": len(tr.spans) // 5, "layers": tr.aggregate()}

    serial = in_fresh_child(lambda: probed_pass(1), tally)
    trace = in_fresh_child(traced_pass, tally)
    parallel = in_fresh_child(lambda: probed_pass(W), tally)
    sampled = check_point_counts(wl, config, curves, tally)
    if serial is None or trace is None or parallel is None:
        raise SystemExit("error: a traced pass crashed: " + "; ".join(tally.reasons))
    for one, many in zip(serial["digests"], parallel["digests"]):
        tally.attempted += 1
        if one != many:
            tally.fail(f"output at {W} workers differs from the output at 1 worker")

    agg = trace["layers"]

    def get(name, key="total_s"):
        return agg.get(name, {}).get(key, 0)

    naive_s, bsgs_s = get("curves.count_points_naive"), get("curves.count_points_bsgs")
    naive_n, bsgs_n = get("curves.count_points_naive", "spans"), get("curves.count_points_bsgs", "spans")
    classify_n = get("residual.classify_prime", "spans")
    classify_self = get("residual.classify_prime", "self_s")
    firsts = parallel["first_item_s"]
    metrics = {
        "config.load_s": get("config.load_config"),
        "forms.build_context_s": get("config.build_context"),
        "forms.a_ell_calls": get("forms.a_ell", "spans"),
        "forms.a_ell_s": get("forms.a_ell"),
        "arith.sieve_s": get("arith.sieve_primes"),
        "arith.primes": get("arith.sieve_primes", "items"),
        "arith.is_prime_calls": get("arith.is_prime", "spans"),
        "arith.is_prime_s": get("arith.is_prime"),
        "curves.naive_calls": naive_n,
        "curves.naive_s": naive_s,
        "curves.naive_us_per_call": naive_s / naive_n * 1e6 if naive_n else 0.0,
        "curves.bsgs_calls": bsgs_n,
        "curves.bsgs_s": bsgs_s,
        "curves.bsgs_us_per_call": bsgs_s / bsgs_n * 1e6 if bsgs_n else 0.0,
        "curves.naive_share": naive_s / (naive_s + bsgs_s) if naive_n + bsgs_n else 0.0,
        "residual.classify_self_s": classify_self,
        "residual.classify_us_per_prime": classify_self / classify_n * 1e6 if classify_n else 0.0,
        "residual.sweep_serial_s": serial["sweep_s"],
        "residual.sweep_parallel_s": parallel["sweep_s"],
        "residual.parallel_efficiency":
            serial["sweep_s"] / (W * parallel["sweep_s"]) if parallel["sweep_s"] else 0.0,
        "residual.chunks": parallel["chunks"],
        "residual.dispatch_bytes": parallel["dispatch_bytes"],
        "residual.first_item_s": statistics.median(firsts) if firsts else 0.0,
        "iwasawa.sigma_calls": get("iwasawa.sigma_ell", "spans"),
        "iwasawa.sigma_s": get("iwasawa.sigma_ell"),
        "levels.plan_s": parallel["plan_s"],
        "levels.plan_serial_s": serial["plan_s"],
        "levels.build_level_set_s": get("levels.build_level_set"),
        "levels.carayol_s": get("levels.carayol_check"),
        "density.empirical_s": get("density.empirical_density"),
        "cli.self_s": get("cli.main", "self_s"),
        "cli.output_bytes": trace["output_bytes"],
        "bench.trace_overhead_s": trace["wall"] - serial["wall"],
    }
    details = {
        "untraced_1_worker_s": serial["wall"], "traced_1_worker_s": trace["wall"],
        "untraced_w_workers_s": parallel["wall"], "spans": trace["spans"],
        "spans_file": str(stem.with_suffix(".spans").relative_to(ROOT)),
        "point_count_oracle_ells": sampled,
        "layers": {k: {m: round(v, 6) if isinstance(v, float) else v for m, v in row.items()}
                   for k, row in agg.items()},
    }
    return metrics, details


# --- record and report -------------------------------------------------------

def git_commit() -> str | None:
    """HEAD of the repository, or None in a checkout that is not a git repository."""
    if not (ROOT / ".git").exists():
        return None
    with contextlib.suppress(OSError, subprocess.CalledProcessError):
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                              capture_output=True, text=True).stdout.strip()
    return None


def machine_and_run(args) -> dict:
    model = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "lambda_forge").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "machine": {
            "nproc": os.cpu_count(), "affinity": sorted(os.sched_getaffinity(0)),
            "cpu_model": model, "python": platform.python_version(), "numpy": numpy_version,
        },
        "run": {
            "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(), "workers": W,
            "seed": args.seed, "workload": args.workload, "trace": args.trace,
            "seconds": args.seconds, "loadavg_before": list(os.getloadavg()),
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (SRC / "lambda_forge" / "__init__.py", ROOT / "BENCHMARK.json",
                           *workloads.PLAN_CFGS)
               if not p.is_file()]
    if missing:
        print(f"error: program files missing: {', '.join(map(str, missing))}", file=sys.stderr)
        return 2

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    record = machine_and_run(args)
    ref_path = HERE / "references.json"
    references = json.loads(ref_path.read_text()) if ref_path.is_file() else {}
    wl = workloads.build(args.workload, args.seed, WORK / "inputs" / f"{args.workload}-seed{args.seed}",
                         references)
    tally = Tally(wl)
    if args.trace:
        metrics, details = traced(wl, tally)
    else:
        metrics, details = untraced(wl, args.seconds, tally)
    if set(metrics) != set(units):
        raise SystemExit(f"error: metrics {sorted(set(metrics) ^ set(units))} not as declared")
    record["run"]["loadavg_after"] = list(os.getloadavg())
    record.update({
        "inputs": wl.notes, "details": details, "digests_checked": tally.digests_checked,
        "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted, "failures": tally.reasons,
        "metrics": metrics,
    })
    out = WORK / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} workers={W} "
          f"attempted={tally.attempted} failed={tally.failed} digests={tally.digests_checked}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:>16.6f} {units[name]}")
    if not args.trace:
        if details["primes_per_s"]:
            print(f"{'primes_per_s':32s} {details['primes_per_s']:>16.1f} 1/s")
        print(f"# run_s: median of {details['runs']} runs; request_p50_s: median of "
              f"{details['request_samples']} requests; setup_s: {len(details['setup_samples_s'])} probes")
    print(f"{'failed_ratio':32s} {record['failed_ratio']:>16.6f} fraction")
    for reason in tally.reasons:
        print(f"# FAILED: {reason}")
    print(f"# record: {out.relative_to(ROOT)}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
