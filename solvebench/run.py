"""Solver benchmark: seeded, correctness-gated ops through the public API.

Run from the root of a checkout::

    python3 solvebench/run.py --workload dp-stream --seed 1 --seconds 14 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ledger of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it carry the host fingerprint, the host probe and the p90
latencies.  The exit code is 0 only when every op passed the
correctness gate.  ``NOTES.md`` explains the workloads and the metrics.

This process is the single client.  It derives every input from the
seed, has reference interpreters compute the reference answers before
any op is timed, then launches the solving interpreters (``child.py``)
one at a time, so nothing runs alongside a timed op.  It adopts and
reaps every process its interpreters leave, so none outlives a run.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 150
# How long an interpreter's leftover processes (pool workers, the
# multiprocessing resource tracker) may take to end on their own once
# the interpreter has exited, before they are killed.
GROUP_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36

# Per-layer metrics and their units.  Times and ratios are the median over
# the traced ops that report them; counts (SUMMED) are summed over the
# traced ops, so they repeat exactly.  The rest are set per run.
PER_LAYER = {
    "process.import_s": "s",
    "dispatch.weights_s": "s",
    "dispatch.auto_regret": "frac",
    "dispatch.parallel_ops": "count",
    "plan.build_s": "s",
    "kernel.busy_s": "s",
    "kernel.ns_per_candidate": "ns",
    "kernel.candidates": "count",
    "kernel.bytes_computed": "bytes",
    "pool.spawn_s": "s",
    "parallel.layer_s": "s",
    "parallel.barrier_idle_s": "s",
    "parallel.par_eff": "frac",
    "shard.dispatched": "count",
    "shard.retries": "count",
    "shard.fallbacks": "count",
    "solve.unspanned_s": "s",
    "engine.pool_reuses": "count",
    "engine.table_rebuilds": "count",
    "engine.pipeline_wait_s": "s",
    "store.open_s": "s",
    "store.commit_s": "s",
    "store.fsync_s": "s",
    "store.commits": "count",
    "store.bytes_written": "bytes",
    "commit.blocked_s": "s",
    "commit.overlap_s": "s",
    "store.rehash_s": "s",
    "store.reopen_s": "s",
    "bvm.build_s": "s",
    "bvm.compile_s": "s",
    "bvm.replay_s": "s",
    "bvm.replay_ns_per_instr_lane.single": "ns",
    "bvm.replay_ns_per_instr_lane.b16": "ns",
    "bvm.replay_ns_per_instr_lane.b64": "ns",
    "bvm.instructions": "count",
    "bvm.cycles": "count",
    "trace.unattributed_frac": "frac",
    "trace.overhead_frac": "frac",
    "host.probe_ms": "ms",
}
SUMMED = {
    "dispatch.parallel_ops",
    "kernel.candidates",
    "kernel.bytes_computed",
    "shard.dispatched",
    "shard.retries",
    "shard.fallbacks",
    "engine.pool_reuses",
    "engine.table_rebuilds",
    "store.commits",
    "store.bytes_written",
}

END_TO_END = {
    "setup_s": "s",
    "solve_latency_s": "s",
    "instances_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class ChildFailed(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Host
# ----------------------------------------------------------------------


def _fs_type(path: Path) -> str:
    best, kind = "", "unknown"
    with open("/proc/self/mounts") as fh:
        for line in fh:
            fields = line.split()
            mount = fields[1]
            inside = str(path) == mount or str(path).startswith(mount.rstrip("/") + "/")
            if inside and len(mount) > len(best):
                best, kind = mount, fields[2]
    return kind


def _git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else None
    return ref


def fingerprint(spill_root: Path) -> dict:
    import importlib.util

    import numpy

    shm = shutil.disk_usage("/dev/shm").total if os.path.isdir("/dev/shm") else None
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "ram_mb": os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // 2**20,
        "dev_shm_mb": shm // 2**20 if shm is not None else None,
        "spill_fs": _fs_type(spill_root),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "git_sha": _git_sha(),
    }


def host_probe_ms(reps: int = 5) -> list[float]:
    """A fixed pure-Python plus numpy loop, timed ``reps`` times (ms).

    Diagnostic only: it identifies runs taken in a slow host phase and is
    never used to rescale a metric.
    """
    import numpy as np

    data = np.random.default_rng(0).random(200_000)
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        np.sort(data)
        out.append((time.perf_counter() - t0) * 1e3)
    return out


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------


def child_env(workers: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_WORKERS"] = str(workers)
    env.pop("PYTHONPATH", None)
    return env


def become_subreaper() -> None:
    """Adopt the orphans of our interpreters, so they can be reaped here.

    An interpreter's pool workers and resource tracker can outlive it by a
    moment; without this they are reparented to init, which need not reap
    them, and would be left behind as zombies.
    """
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _kill(proc: subprocess.Popen) -> None:
    """Kill an interpreter and its pool workers (it leads its own session)."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def reap_group(pgid: int) -> None:
    """Wait until every process of group ``pgid`` has ended and is reaped.

    The group's leader has been waited for already.  Its descendants are
    reparented to this process (a subreaper) as their parents end; they
    get ``GROUP_GRACE_S`` to end on their own, then they are killed.
    """
    deadline = time.monotonic() + GROUP_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-pgid, os.WNOHANG)
        except ChildProcessError:
            pid = 0
        if pid:
            continue
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return  # nothing of the group is left, not even a zombie
        now = time.monotonic()
        if now > deadline + GROUP_GRACE_S:
            raise ChildFailed(f"processes of group {pgid} are not ending")
        if now > deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.005)


class Interpreter:
    """One solving interpreter (``child.py``), fed one JSON line per request.

    Every request gets one reply line.  A set-up sample or a dp-cold op is
    a single request; the measuring interpreter of a warm workload takes
    its job, then one op per request, then ``None`` for its closing reply.
    It idles between requests, so set-up samples can be taken in other
    interpreters between its ops without running alongside them.
    """

    def __init__(self, env: dict, log: Path):
        self.log = log
        with open(log, "w") as err:
            t_launch = time.monotonic()
            self.proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), repr(t_launch)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=err,
                env=env, cwd=str(ROOT), text=True, start_new_session=True,
            )

    def request(self, msg) -> dict:
        self.send(msg)
        return self.receive()

    def send(self, msg) -> None:
        try:
            self.proc.stdin.write(json.dumps(msg) + "\n")
            self.proc.stdin.flush()
        except OSError:
            pass  # receive() reports the exit

    def receive(self) -> dict:
        timer = threading.Timer(CHILD_TIMEOUT_S, _kill, (self.proc,))
        timer.start()
        try:
            line = self.proc.stdout.readline()
        except OSError:
            line = ""
        finally:
            timer.cancel()
        if not line.strip():
            self.close()
            raise ChildFailed(f"solving interpreter exited {self.proc.returncode}:\n"
                              f"{self.log.read_text()[-3000:]}")
        return json.loads(line)

    def close(self) -> None:
        """Wait for the interpreter to end; kill it if it does not."""
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill(self.proc)
            self.proc.wait()
        reap_group(self.proc.pid)


def launch(job: dict, env: dict, log: Path) -> dict:
    """Run a one-request interpreter to its end; returns its reply."""
    interpreter = Interpreter(env, log)
    try:
        return interpreter.request(job)
    finally:
        interpreter.close()


# ----------------------------------------------------------------------
# References (computed here, before any timed op)
# ----------------------------------------------------------------------


def references(plan: dict, env: dict, spill_root: Path) -> dict:
    """Reference digests per instance and the BVM cycle counts.

    Computed in ``WORKERS`` reference interpreters side by side, all
    before the first solving interpreter starts.
    """
    from repro.ttpar.bvm_tt import build_bvm_tt, build_bvm_tt_batch

    keys = sorted({(plan["workload"], op["kind"], op["k"], s)
                   for op in plan["ops"] for s in op["seeds"]})
    shares = [keys[i::wl.WORKERS] for i in range(wl.WORKERS)]
    interpreters = [Interpreter(env, spill_root / f"reference-{i}.log")
                    for i in range(len(shares))]
    try:
        for it, share in zip(interpreters, shares):
            it.send({"mode": "reference", "keys": share})
        replies = [it.receive()["answers"] for it in interpreters]
    finally:
        for it in interpreters:
            it.close()
    answers = dict(zip((k for share in shares for k in share),
                       (a for reply in replies for a in reply)))
    refs: dict = {"dp": {}, "single_cycles": {}, "shape_cycles": None}
    for key in keys:
        (_, kind, k, seed), (dig, cycles) = key, answers[key]
        refs["dp"][f"{k}:{seed}"] = dig
        if kind == "single":
            refs["single_cycles"][seed] = cycles
    if plan["workload"] == "bvm":
        single = build_bvm_tt(wl.bvm_instance(plan["ops"][0]["seeds"][0]))
        shape = build_bvm_tt_batch(single.r, single.layout.k, single.layout.p)
        refs["shape_cycles"] = len(shape.prog.instructions)
    return refs


def check_op(op: dict, res: dict, refs: dict) -> list[str]:
    """Mismatches of one op against the references (empty when correct)."""
    if "error" in res:
        return [res["error"].strip().splitlines()[-1]]
    errors = []
    expected = [refs["dp"][f"{op['k']}:{s}"] for s in op["seeds"]]
    if op["kind"] == "durable":
        expected = expected * 2  # the write solve and the reopen
        if res["reopen_computed"] != 0:
            errors.append(f"reopen computed {res['reopen_computed']} layers")
    if res["digests"] != expected:
        bad = sum(a != b for a, b in zip(res["digests"], expected))
        errors.append(f"{bad} of {len(expected)} result tables differ from the reference")
    if op["kind"] == "single":
        want = refs["single_cycles"][op["seeds"][0]]
        if res["cycles"] != [want]:
            errors.append(f"cycles {res['cycles']} != {want}")
    elif op["kind"] == "batch":
        if set(res["cycles"]) != {refs["shape_cycles"]}:
            errors.append(f"lane cycles {sorted(set(res['cycles']))} != {refs['shape_cycles']}")
    return errors


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def low_quartile(values):
    """The lower quartile of a run's samples (its only sample, if one).

    A shared host's speed can swing by up to 1.5x within seconds, so a
    run's samples spread wide and its median moves with the share of the
    run spent in slow phases.  The lower quartile is the cost in the run's
    quieter phases.  It sees a slowdown of every call in full, but only
    part of one that hits fewer than three calls in four.
    """
    if len(values) < 2:
        return median(values)
    return statistics.quantiles(values, n=4)[0]


def p90(values):
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 2 else median(values)


def execute(workload: str, plan: dict, env: dict, spill_root: Path, trace: bool):
    """Set-up samples and ops; returns (setup samples, op results, extras).

    Set-up samples are fresh interpreters that stop once set up.  They are
    spread evenly between the ops, so host phases hit both alike, and on
    the warm workloads the measuring interpreter is one of them.
    """
    ops = plan["ops"]
    base = {"workload": workload, "trace": trace, "plan": plan,
            "spill_root": str(spill_root)}
    cold = workload == "dp-cold"
    extra = 0 if trace else wl.SETUP_SAMPLES[workload] - (0 if cold else 1)
    slots = [i * len(ops) // extra for i in range(extra)]
    log = spill_root / "one-shot.log"
    session = None if cold else Interpreter(env, spill_root / "session.log")
    try:
        ready = {} if cold else session.request({**base, "mode": "run"})
        setups = [] if cold else [ready]
        first_traced = next((op for op in ops if op["traced"]), None)
        results = []
        for i, op in enumerate(ops):
            setups += [launch({**base, "mode": "setup"}, env, log)
                       for _ in range(slots.count(i))]
            if cold:
                job = {**base, "mode": "cold-op", "op": op, "regret": op is first_traced}
                try:
                    results.append(launch(job, env, log))
                except ChildFailed as exc:
                    results.append({"error": str(exc)})
            else:
                results.append(session.request(op))
        last = {} if cold else session.request(None)
    finally:
        if session is not None:
            session.close()
    extras: dict = {}
    if cold:
        done = [r for r in results if "error" not in r]
        extras["import_s"] = [r["import_s"] for r in done + setups]
        extras["peak_rss_mb"] = [r["peak_rss_mb"] for r in done]
        return setups, results, extras
    extras["import_s"] = [r["import_s"] for r in setups]
    extras["peak_rss_mb"] = [last["peak_rss_mb"]]
    for key in ("plan.build_s", "dispatch.auto_regret", "bvm.instructions"):
        for source in (ready, last):
            if key in source:
                extras[key] = source[key]
    return setups, results, extras


def end_to_end(workload, plan, setups, results, extras) -> tuple[dict, dict]:
    """Every time is the lower quartile of its samples in the run.

    A rate over ops of several shapes (the k of a dp-stream chunk, the
    width of a BVM batch) takes that per shape, so a run's mix of shapes
    cannot move it.
    """
    pairs = list(zip(plan["ops"], results))
    lat = [r["latency_s"] for op, r in pairs if op["kind"] != "batch"]
    latency = low_quartile(lat)
    if workload in ("dp-cold", "dp-durable"):
        # One instance per op; a dp-durable op is the write and the reopen.
        rate = 1.0 / low_quartile([r.get("wall_s", r["latency_s"]) for r in results])
    else:
        walls: dict = {}
        for op, r in pairs:
            if workload != "bvm" or op["kind"] == "batch":
                walls.setdefault((op["k"], len(op["seeds"])), []).append(r["wall_s"])
        shape_s = {shape: low_quartile(v) for shape, v in walls.items()}
        rate = sum(n for _, n in shape_s) / sum(shape_s.values())
        if workload == "dp-stream":
            # Chunk wall / chunk length over the mix of k.
            latency = 1.0 / rate
    metrics = {
        "setup_s": low_quartile([s["setup_s"] for s in setups]),
        "solve_latency_s": latency,
        "instances_per_s": rate,
        "peak_rss_mb": median(extras["peak_rss_mb"]),
    }
    diag = {
        "solve_latency_median_s": median(lat),
        "latency_s": lat,
        "solve_latency_p90_s": p90(lat),
        "latency_samples": len(lat),
        "setup_samples": [s["setup_s"] for s in setups],
        "op_labels": [f"{op['kind']}:{op['k']}:{len(op['seeds'])}" for op, _ in pairs],
        "op_s": [r.get("wall_s", r["latency_s"]) for r in results],
    }
    if workload == "dp-durable":
        diag["reopen_s"] = median([r["reopen_s"] for r in results])
    return metrics, diag


def per_layer(workload, plan, results, extras, probe) -> dict:
    ops = plan["ops"]
    ledgers = [r["ledger"] for op, r in zip(ops, results) if op["traced"]]
    out = {}
    for name in PER_LAYER:
        values = [lg[name] for lg in ledgers if name in lg]
        out[name] = sum(values) if name in SUMMED else median(values)
    out["process.import_s"] = median(extras["import_s"])
    if "plan.build_s" in extras:
        out["plan.build_s"] = extras["plan.build_s"]
    if "dispatch.auto_regret" in extras:
        out["dispatch.auto_regret"] = extras["dispatch.auto_regret"]
    if workload == "bvm":
        out["bvm.instructions"] = extras["bvm.instructions"]
        out["bvm.cycles"] = next(r["cycles"][0] for op, r in zip(ops, results)
                                 if op["kind"] == "batch")
    wall = "latency_s" if workload == "dp-cold" else "wall_s"
    traced = sum(r[wall] for op, r in zip(ops, results) if op["traced"])
    plain = sum(r[wall] for op, r in zip(ops, results) if not op["traced"])
    out["trace.overhead_frac"] = traced / plain - 1.0
    out["host.probe_ms"] = median(probe)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"solvebench: no solver source at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    become_subreaper()
    # A terminated run unwinds, so its interpreters are closed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload not in wl.WORKLOADS:
        print(f"solvebench: unknown workload {args.workload!r}; "
              f"expected one of {wl.WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("solvebench: --seconds must be >= 1", file=sys.stderr)
        return 2
    # Imports in every solving interpreter read bytecode, never compile.
    compileall.compile_dir(str(SRC), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    trace = bool(args.trace)
    spill_root = ROOT / ".bench_build" / "solvebench" / f"spill-{os.getpid()}"
    spill_root.mkdir(parents=True, exist_ok=True)
    try:
        host = fingerprint(spill_root)
        probe = host_probe_ms()
        plan = wl.make_plan(args.workload, args.seed, args.seconds, trace)
        env = child_env(wl.WORKERS)
        refs = references(plan, env, spill_root)
        failed = 0
        try:
            setups, results, extras = execute(args.workload, plan, env, spill_root, trace)
        except ChildFailed as exc:
            print(f"solvebench: {exc}", file=sys.stderr)
            setups, results, extras = [], [], {}
            failed = len(plan["ops"])
        for i, (op, res) in enumerate(zip(plan["ops"], results)):
            errors = check_op(op, res, refs)
            if errors:
                failed += 1
                print(f"solvebench: op {i} ({op['kind']} k={op['k']}): "
                      + "; ".join(errors), file=sys.stderr)
        probe += host_probe_ms()
    finally:
        shutil.rmtree(spill_root, ignore_errors=True)

    print(json.dumps({"host": host, "workers": wl.WORKERS}))
    print(json.dumps({"host.probe_ms": {"before": probe[:5], "after": probe[5:]}}))
    metrics: dict = {}
    if not failed:
        if trace:
            values = per_layer(args.workload, plan, results, extras, probe)
            metrics = {n: {"value": v, "unit": PER_LAYER[n]} for n, v in values.items()}
        else:
            values, diag = end_to_end(args.workload, plan, setups, results, extras)
            print(json.dumps(diag))
            metrics = {n: {"value": v, "unit": END_TO_END[n]} for n, v in values.items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(plan["ops"]),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
