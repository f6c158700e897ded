"""One solving interpreter of the benchmark (launched by ``run.py``).

``python3 child.py LAUNCH`` reads a JSON job as one line on stdin, where
``LAUNCH`` is the controller's ``time.monotonic()`` just before it started
this process (CLOCK_MONOTONIC is system-wide on Linux, so the two clocks
agree).  It imports the solver from the checkout's ``src/`` and sets its
workload up.  Every reply is one JSON line on stdout: timings, result
digests for the controller's correctness gate, and — for traced ops —
the per-layer ledger derived from the solver's own spans and
``DPResult.metrics``.  Nothing here compares against a reference; a
``reference`` job only computes reference answers for the controller.

A ``run`` job replies once set up, then reads one op per line and
answers each, until a ``null`` line asks for its closing reply.  Between
two ops it waits idle, so the controller can time set-up samples in
other interpreters without anything running alongside them.
"""

from __future__ import annotations

import json
import os
import sys
import time

LAUNCH = float(sys.argv[1])
JOB = json.loads(sys.stdin.readline())

import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro  # noqa: E402,F401

T_IMPORT = time.monotonic()

import workloads as wl  # noqa: E402
from repro import solve  # noqa: E402
from repro.core.dispatch import cached_subset_weights  # noqa: E402
from repro.core.engine import SolverEngine  # noqa: E402
from repro.core.kernels import layer_plan  # noqa: E402
from repro.core.sequential import subset_weights  # noqa: E402
from repro.obs import Tracer, tracing  # noqa: E402

# Computed-bytes model of the fused layer kernel (cache misses ignored):
# per subset it reads its mask and p(S) and writes cost and best action;
# per candidate it gathers cost[S & T] and cost[S & ~T].
BYTES_PER_MASK = 4 * 8
BYTES_PER_CANDIDATE = 2 * 8


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Ledger: per-layer figures of one op from its events and metrics
# ----------------------------------------------------------------------


def _spans(events, name=None, cat=None):
    return [
        e for e in events
        if e["ph"] == "X"
        and (name is None or e["name"] == name)
        and (cat is None or e["cat"] == cat)
    ]


def _dur(spans) -> float:
    return sum(e["t1"] - e["t0"] for e in spans)


def covered_fraction(events, w0: float, w1: float) -> float:
    """Share of ``[w0, w1]`` covered by the union of all spans."""
    iv = sorted(
        (max(e["t0"], w0), min(e["t1"], w1)) for e in _spans(events)
        if e["t1"] > w0 and e["t0"] < w1
    )
    covered, end = 0.0, w0
    for a, b in iv:
        a = max(a, end)
        if b > a:
            covered += b - a
            end = b
    return covered / (w1 - w0) if w1 > w0 else 0.0


def _solves(events):
    """Parent layer spans split per solve (a solve restarts at layer 1)."""
    layers = sorted(_spans(events, "layer", "layer"), key=lambda e: e["t0"])
    out: list[list] = []
    for e in layers:
        if e["args"]["layer"] == 1 or not out:
            out.append([])
        out[-1].append(e)
    return out


def pool_figures(events, workers: int) -> dict:
    """Pool spawn, barrier idle and parallel efficiency from the spans.

    A pool is created lazily at its first shard dispatch, so the first
    pool layer of a solve that spawned one waits longer between its
    start and its first worker shard than that solve's other pool
    layers: that excess is the spawn.
    """
    shards = _spans(events, "shard", "shard")
    spawn = busy = pool_wall = 0.0
    for layers in _solves(events):
        gaps = []
        for lay in layers:
            if lay["args"].get("mode") != "pool":
                continue
            mine = [s for s in shards
                    if s["args"]["layer"] == lay["args"]["layer"]
                    and lay["t0"] <= s["t0"] <= lay["t1"]]
            if not mine:
                continue
            gaps.append(min(s["t0"] for s in mine) - lay["t0"])
            busy += _dur(mine)
            pool_wall += lay["t1"] - lay["t0"]
        if len(gaps) > 1:
            spawn += max(0.0, gaps[0] - statistics.median(gaps[1:]))
    return {
        "pool.spawn_s": spawn,
        "parallel.par_eff": busy / (workers * pool_wall) if pool_wall else 0.0,
    }


def dp_ledger(events, results, solve_walls, workers) -> dict:
    """Per-layer figures of the DP solves one op made."""
    m = [r.metrics for r in results]
    layers = _spans(events, "layer", "layer")
    # Only computed layers have spans (a reopen skips every layer); all
    # instances of one op share their action count.
    masks = sum(e["args"]["masks"] for e in layers)
    candidates = masks * results[0].problem.n_actions
    kernel_s = sum(x["time.kernel_s"] for x in m)
    if kernel_s == 0.0:
        # Single-process solves record no kernel time; each of their layer
        # spans is exactly one kernel call.
        kernel_s = _dur(layers)
    out = {
        "kernel.busy_s": kernel_s,
        "kernel.candidates": candidates,
        "kernel.ns_per_candidate": kernel_s / candidates * 1e9 if candidates else 0.0,
        "kernel.bytes_computed": masks * BYTES_PER_MASK + candidates * BYTES_PER_CANDIDATE,
        "parallel.layer_s": _dur(layers),
        "parallel.barrier_idle_s": sum(x["time.barrier_s"] for x in m),
        "shard.dispatched": sum(x["shard.dispatched"] for x in m),
        "shard.retries": sum(x["shard.retries"] for x in m),
        "shard.fallbacks": sum(x["shard.fallbacks"] for x in m),
        "dispatch.parallel_ops": sum(1 for x in m if x["shard.dispatched"] > 0),
        "solve.unspanned_s": sum(solve_walls) - sum(x["time.solve_s"] for x in m),
        "engine.pool_reuses": sum(x["engine.pool_reuses"] for x in m),
        "engine.table_rebuilds": sum(x["engine.table_rebuilds"] for x in m),
        "engine.pipeline_wait_s": _dur(_spans(events, "pipeline.wait")),
        "store.open_s": _dur(_spans(events, "store.open")),
        "store.commit_s": sum(x["store.commit_s"]["total"] for x in m),
        "store.fsync_s": sum(x["store.fsync_s"]["total"] for x in m),
        "store.commits": sum(x["store.commits"] for x in m),
        "store.bytes_written": sum(x["store.bytes_written"] for x in m),
        "commit.blocked_s": sum(x["commit.blocked_s"] for x in m),
        "commit.overlap_s": sum(x["commit.overlap_s"] for x in m),
        "store.rehash_s": sum(x["store.rehash_s"]["total"] for x in m),
    }
    out.update(pool_figures(events, workers))
    return out


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class Bench:
    """Span recorder for the benchmark's own calls into the solver."""

    def __init__(self, traced: bool):
        self.tracer = Tracer() if traced else None

    def call(self, name, fn, *args, **kwargs):
        t0 = time.monotonic()
        out = fn(*args, **kwargs)
        t1 = time.monotonic()
        if self.tracer is not None:
            self.tracer.complete(name, "bench", t0, t1)
        return out, t1 - t0

    def events(self):
        return self.tracer.raw_events() if self.tracer is not None else []


def auto_regret(problem, auto_fn) -> float:
    """``auto``'s time over the best of numpy, cold parallel, warm engine.

    Every path runs once untimed first, so plan and weights are warm for
    all of them and only the backend choice differs.
    """
    def timed(fn):
        fn()
        t0 = time.perf_counter()
        fn()
        return time.perf_counter() - t0

    with SolverEngine() as eng:
        candidates = [
            timed(lambda: solve(problem, backend="numpy")),
            timed(lambda: solve(problem, backend="parallel")),
            timed(lambda: eng.solve(problem)),
        ]
    return timed(auto_fn) / min(candidates) - 1.0


def run_cold(job) -> dict:
    """One op of dp-cold: this whole interpreter is the op."""
    op = job["op"]
    problem = wl.dp_instance(op["k"], op["seeds"][0])
    b = Bench(op["traced"])
    extra = {}
    if b.tracer is not None:
        # The same work solve() would do first, made visible: both calls
        # populate the caches solve() then hits.
        _, extra["plan.build_s"] = b.call("plan.build", layer_plan, problem.k)
        _, extra["dispatch.weights_s"] = b.call(
            "dispatch.weights", cached_subset_weights, problem)
    t0 = time.monotonic()
    result = solve(problem, tracer=b.tracer)
    t1 = time.monotonic()
    out = {
        "latency_s": t1 - LAUNCH,
        "import_s": T_IMPORT - LAUNCH,
        "digests": [wl.digest(result.cost, result.best_action)],
        "peak_rss_mb": peak_rss_mb(),
    }
    if b.tracer is not None:
        b.tracer.complete("process.import", "bench", LAUNCH, T_IMPORT)
        events = b.events()
        ledger = dp_ledger(events, [result], [t1 - t0], wl.WORKERS)
        ledger.update(extra)
        ledger["trace.unattributed_frac"] = 1.0 - covered_fraction(events, LAUNCH, t1)
        if job.get("regret"):
            ledger["dispatch.auto_regret"] = auto_regret(problem, lambda: solve(problem))
        out["ledger"] = ledger
    return out


class Stream:
    def __init__(self, job):
        self.engine = SolverEngine()
        self.plan_s = 0.0
        warm = job["plan"]["warmup"]
        for k, s in zip(warm["ks"], warm["seeds"]):
            t0 = time.perf_counter()
            layer_plan(k)
            self.plan_s += time.perf_counter() - t0
            self.engine.solve_many([wl.dp_instance(k, s)])

    def op(self, op) -> dict:
        problems = [wl.dp_instance(op["k"], s) for s in op["seeds"]]
        b = Bench(op["traced"])
        t0 = time.monotonic()
        with tracing(b.tracer):
            results = self.engine.solve_many(problems)
        t1 = time.monotonic()
        out = {
            "latency_s": (t1 - t0) / len(problems),
            "wall_s": t1 - t0,
            "instances": len(problems),
            "digests": [wl.digest(r.cost, r.best_action) for r in results],
        }
        if b.tracer is not None:
            events = b.events()
            ledger = dp_ledger(events, results, [t1 - t0], wl.WORKERS)
            ledger["trace.unattributed_frac"] = 1.0 - covered_fraction(events, t0, t1)
            _, ledger["dispatch.weights_s"] = b.call(
                "dispatch.weights", subset_weights, problems[0])
            out["ledger"] = ledger
        return out

    def regret(self, plan) -> float:
        """Median over k of the regret on the first instance of each k."""
        firsts = {}
        for op in plan["ops"]:
            firsts.setdefault(op["k"], op["seeds"][0])
        values = []
        for k, s in sorted(firsts.items()):
            problem = wl.dp_instance(k, s)
            values.append(auto_regret(problem, lambda: self.engine.solve(problem)))
        return statistics.median(values)

    def close(self):
        self.engine.close()


class Durable:
    def __init__(self, job):
        # One directory per interpreter: set-up samples come and go while
        # the measuring interpreter is alive.
        self.root = Path(job["spill_root"]) / f"pid{os.getpid()}"
        self.count = 0
        self.plan_s = 0.0
        warm = job["plan"]["warmup"]
        t0 = time.perf_counter()
        layer_plan(warm["k"])
        self.plan_s = time.perf_counter() - t0
        problem = wl.dp_instance(wl.DURABLE_WARMUP_K, warm["seeds"][0])
        spill = self._fresh()
        solve(problem, store="mmap", spill_dir=str(spill))
        solve(problem, store="mmap", spill_dir=str(spill))
        shutil.rmtree(spill)

    def _fresh(self) -> Path:
        self.count += 1
        return self.root / f"op{self.count}"

    def op(self, op) -> dict:
        problem = wl.dp_instance(op["k"], op["seeds"][0])
        spill = self._fresh()
        b = Bench(op["traced"])
        t0 = time.monotonic()
        written = solve(problem, store="mmap", spill_dir=str(spill), tracer=b.tracer)
        t1 = time.monotonic()
        reopened = solve(problem, store="mmap", spill_dir=str(spill), tracer=b.tracer)
        t2 = time.monotonic()
        out = {
            "latency_s": t1 - t0,
            "reopen_s": t2 - t1,
            "wall_s": t2 - t0,
            "instances": 1,
            "digests": [wl.digest(written.cost, written.best_action),
                        wl.digest(reopened.cost, reopened.best_action)],
            "reopen_computed": reopened.metrics["layers.computed"],
        }
        if b.tracer is not None:
            events = b.events()
            ledger = dp_ledger(events, [written, reopened], [t1 - t0, t2 - t1], wl.WORKERS)
            ledger["store.reopen_s"] = t2 - t1
            ledger["trace.unattributed_frac"] = 1.0 - covered_fraction(events, t0, t2)
            out["ledger"] = ledger
        del written, reopened
        shutil.rmtree(spill)
        return out

    def close(self):
        shutil.rmtree(self.root, ignore_errors=True)


class Bvm:
    plan_s = 0.0  # no layer plan on this path

    def __init__(self, job):
        # Imported here: `import repro` does not load the BVM stack, and
        # a DP user never pays for it.
        from repro.ttpar.bvm_tt import build_bvm_tt, build_bvm_tt_batch, solve_tt_bvm

        self.build, self.solve = build_bvm_tt, solve_tt_bvm
        self.engine = SolverEngine()
        warm = solve_tt_bvm(
            wl.bvm_instance(job["plan"]["warmup"]["seeds"][0]), backend="packed")
        self.shape = build_bvm_tt_batch(warm.r, warm.layout.k, warm.layout.p)
        self.shape.prog.compiled()

    def op(self, op) -> dict:
        problems = [wl.bvm_instance(s) for s in op["seeds"]]
        b = Bench(op["traced"])
        t0 = time.monotonic()
        with tracing(b.tracer):
            if op["kind"] == "single":
                results = [self.solve(problems[0], backend="packed")]
            else:
                results = self.engine.solve_many(problems, solver="bvm")
        t1 = time.monotonic()
        out = {
            "latency_s": t1 - t0,
            "wall_s": t1 - t0,
            "instances": len(problems),
            "digests": [wl.digest(r.cost, r.best_action) for r in results],
            "cycles": [r.cycles for r in results],
        }
        if b.tracer is not None:
            events = b.events()
            replay = _dur(_spans(events, "bvm.replay"))
            tag = "single" if op["kind"] == "single" else f"b{len(problems)}"
            ledger = {
                f"bvm.replay_ns_per_instr_lane.{tag}":
                    replay / (results[0].cycles * len(problems)) * 1e9,
                "trace.unattributed_frac": 1.0 - covered_fraction(events, t0, t1),
            }
            if op["kind"] == "single":
                ledger["bvm.compile_s"] = _dur(_spans(events, "bvm.compile"))
                ledger["bvm.replay_s"] = replay
                _, ledger["bvm.build_s"] = b.call("bvm.build", self.build, problems[0])
            out["ledger"] = ledger
        return out

    def close(self):
        self.engine.close()


SESSIONS = {"dp-stream": Stream, "dp-durable": Durable, "bvm": Bvm}


def guarded(fn, *args) -> dict:
    """Run one op; an exception fails that op, not the whole run."""
    try:
        return fn(*args)
    except Exception:
        return {"error": traceback.format_exc()}


def reply(out: dict) -> None:
    sys.stdout.write(json.dumps(out) + "\n")
    sys.stdout.flush()


def main() -> None:
    mode = JOB["mode"]
    if mode == "reference":
        reply({"answers": [wl.reference(tuple(key)) for key in JOB["keys"]]})
        return
    if mode == "cold-op":
        reply(guarded(run_cold, JOB))
        return
    session = SESSIONS[JOB["workload"]](JOB) if JOB["workload"] != "dp-cold" else None
    ready = time.monotonic()
    out = {"setup_s": ready - LAUNCH, "import_s": T_IMPORT - LAUNCH}
    if session is not None:
        out["plan.build_s"] = session.plan_s
    if mode == "run":
        reply(out)
        for line in sys.stdin:
            op = json.loads(line)
            if op is None:
                break
            reply(guarded(session.op, op))
        out = {}
        if JOB["trace"] and JOB["workload"] == "dp-stream":
            out["dispatch.auto_regret"] = session.regret(JOB["plan"])
    if JOB["workload"] == "bvm":
        out["bvm.instructions"] = len(session.shape.prog.instructions)
    if session is not None:
        session.close()
    out["peak_rss_mb"] = peak_rss_mb()
    reply(out)


if __name__ == "__main__":
    main()
