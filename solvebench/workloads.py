"""Seeded inputs and the fixed operation plan of every workload.

Imported by the controller (``run.py``) and by each solving interpreter
(``child.py``), so both derive the same instances from the same numbers.
Nothing here times anything; the only solve is the untimed reference.

The operation count of a run is a pure function of ``--seconds`` (via the
nominal per-op costs below, which are constants, never measurements), and
the operation order a pure function of ``--seed``: a slow host runs the
same ops for longer, it never runs a different mix.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

WORKLOADS = ("dp-cold", "dp-stream", "dp-durable", "bvm")

#: Pool workers every solving interpreter is pinned to (``REPRO_WORKERS``).
WORKERS = min(2, len(os.sched_getaffinity(0)))

# DP instances: random_instance(k, N_TESTS, N_TREATS) accepted only when
# the generator needed no fallback treatments, so the action count (and
# with it every kernel count) is a property of k alone.
N_TESTS, N_TREATS = 6, 10
COLD_K = DURABLE_K = 22
STREAM_KS = (16, 18, 20)
STREAM_CHUNK = 6

# BVM instances: integral k=4 problems with 3 tests + 3 treatments and no
# fallback treatment, i.e. one (r=3, k=4, p=3) machine shape on CCC(3).
BVM_K, BVM_TESTS, BVM_TREATS = 4, 3, 3
BVM_BATCHES = (16, 64)
BVM_SINGLES_PER_BATCH = 4
BVM_SINGLE_POOL = 8
BVM_LANE_POOL = 64

# Distinct k=22 instances per run; ops cycle over them (each op is a
# fresh interpreter or a fresh spill directory, so no cache carries over).
DISTINCT_22 = 3

# Nominal seconds per op, used only to turn --seconds into an op count
# (op time as measured on a 2-vCPU host; a slower host runs longer).
NOMINAL_OP_S = {
    "dp-cold": 1.2,
    "dp-stream": 1.2 / len(STREAM_KS),
    "dp-durable": 1.6,
    "bvm": 1.9 / (len(BVM_BATCHES) * (1 + BVM_SINGLES_PER_BATCH)),
}
MIN_OPS = 4

#: Setup samples per run (on the warm workloads the measuring interpreter
#: is one of them).
SETUP_SAMPLES = {"dp-cold": 21, "dp-stream": 7, "dp-durable": 7, "bvm": 11}

# dp-durable warms its code paths with a durable solve of this size; the
# k=22 layer plan is built explicitly during set-up.
DURABLE_WARMUP_K = 12


def dp_instance(k: int, seed: int):
    """The accepted random instance for ``(k, seed)``."""
    from repro.core.generators import random_instance

    return random_instance(k, N_TESTS, N_TREATS, seed=seed)


def accept_dp_seed(k: int, seed: int) -> int:
    """First seed >= ``seed`` whose instance has no fallback treatments."""
    for s in range(seed, seed + 10_000):
        if dp_instance(k, s).n_actions == N_TESTS + N_TREATS:
            return s
    raise RuntimeError(f"no fallback-free k={k} instance near seed {seed}")


def bvm_instance(seed: int):
    """Integral-cost, integral-weight instance (exact in 16-bit fixed point)."""
    from repro import Action, TTProblem

    rng = np.random.default_rng(seed)
    full = (1 << BVM_K) - 1
    weights = rng.integers(1, 6, BVM_K).astype(float)
    actions = [
        Action.test(int(rng.integers(1, full)), float(rng.integers(0, 6)))
        for _ in range(BVM_TESTS)
    ]
    covered = 0
    for _ in range(BVM_TREATS):
        subset = int(rng.integers(1, full + 1))
        actions.append(Action.treatment(subset, float(rng.integers(1, 6))))
        covered |= subset
    if covered != full:
        actions.append(Action.treatment(full & ~covered, 3.0))
    return TTProblem.build(weights, actions)


def accept_bvm_seed(seed: int) -> int:
    for s in range(seed, seed + 10_000):
        if bvm_instance(s).n_actions == BVM_TESTS + BVM_TREATS:
            return s
    raise RuntimeError(f"no same-shape BVM instance near seed {seed}")


# Ops of one full mix: a workload's op count is a multiple of it.
CYCLE = {
    "dp-cold": 1,
    "dp-stream": len(STREAM_KS),
    "dp-durable": 1,
    "bvm": len(BVM_BATCHES) * (1 + BVM_SINGLES_PER_BATCH),
}


def base_op_count(workload: str, seconds: int, trace: bool) -> int:
    """Distinct ops of a run: a traced run has half as many, each twinned."""
    n = max(MIN_OPS, round(seconds / NOMINAL_OP_S[workload]))
    cycle = CYCLE[workload]
    if trace:
        return max(cycle, n // 2 // cycle * cycle)
    return -(-n // cycle) * cycle


class _Seeds:
    """Instance seeds drawn from the run seed, made acceptable on demand."""

    def __init__(self, rng: np.random.Generator, accept):
        self._rng = rng
        self._accept = accept

    def next(self) -> int:
        return self._accept(int(self._rng.integers(0, 2**31 - 10_001)))


def make_plan(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """The run's warm-up inputs and its ordered list of ops.

    Every op is a dict with a ``kind`` and the instance seeds it solves.
    A traced run is made of twins: each op is followed or preceded by one
    of the same shape, one of the two traced, so ``trace.overhead_frac``
    compares like with like.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    n = base_op_count(workload, seconds, trace)
    base = []
    warmup: dict = {}
    if workload in ("dp-cold", "dp-durable"):
        k = COLD_K
        seeds = _Seeds(rng, lambda s: accept_dp_seed(k, s))
        pool = [seeds.next() for _ in range(DISTINCT_22)]
        kind = "cold" if workload == "dp-cold" else "durable"
        base = [{"kind": kind, "k": k, "seeds": [pool[int(i)]]}
                for i in rng.integers(0, DISTINCT_22, n)]
        if workload == "dp-durable":
            warmup = {"k": k, "seeds": [accept_dp_seed(DURABLE_WARMUP_K, seeds.next())]}
    elif workload == "dp-stream":
        seeders = {k: _Seeds(rng, lambda s, k=k: accept_dp_seed(k, s)) for k in STREAM_KS}
        warmup = {"ks": list(STREAM_KS),
                  "seeds": [seeders[k].next() for k in STREAM_KS]}
        for i in range(n):
            k = STREAM_KS[i % len(STREAM_KS)]
            base.append({"kind": "chunk", "k": k,
                         "seeds": [seeders[k].next() for _ in range(STREAM_CHUNK)]})
    else:
        seeds = _Seeds(rng, accept_bvm_seed)
        singles = [seeds.next() for _ in range(BVM_SINGLE_POOL)]
        lanes = [seeds.next() for _ in range(BVM_LANE_POOL)]
        warmup = {"seeds": [seeds.next()]}
        cycle = []
        for width in BVM_BATCHES:
            cycle += [("single", 1)] * BVM_SINGLES_PER_BATCH + [("batch", width)]
        kinds = cycle * (n // len(cycle))
        kinds = [kinds[int(i)] for i in rng.permutation(len(kinds))]
        for kind, width in kinds:
            if kind == "single":
                chosen = [singles[int(rng.integers(0, BVM_SINGLE_POOL))]]
            else:
                chosen = [lanes[int(i)] for i in rng.permutation(BVM_LANE_POOL)[:width]]
            base.append({"kind": kind, "k": BVM_K, "seeds": chosen})

    if not trace:
        ops = [dict(op, traced=False) for op in base]
    else:
        ops = []
        for i, op in enumerate(base):
            twin = dict(op, seeds=_twin_seeds(workload, op, rng))
            # Alternate which twin runs first.  On dp-stream (an odd cycle of
            # k) each k then sees both orders; the first of a pair pays the
            # engine's table rebuild after a k switch.
            first_traced = i % 2 == 1
            ops += [dict(op, traced=first_traced), dict(twin, traced=not first_traced)]
    return {"workload": workload, "warmup": warmup, "ops": ops}


def _twin_seeds(workload: str, op: dict, rng: np.random.Generator) -> list[int]:
    if workload in ("dp-cold", "dp-durable", "bvm"):
        # No per-instance cache survives between these ops, and repeating
        # the instance keeps references (and BVM program sizes) identical.
        return list(op["seeds"])
    # dp-stream: the engine caches subset weights by instance, so the
    # twin must solve other instances of the same k.
    seeds = _Seeds(rng, lambda s: accept_dp_seed(op["k"], s))
    return [seeds.next() for _ in op["seeds"]]


def digest(cost, best) -> str:
    """Bit-exact fingerprint of a cost / best-action table pair."""
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(cost, dtype=np.float64).tobytes())
    h.update(np.ascontiguousarray(best, dtype=np.int64).tobytes())
    return h.hexdigest()


def reference(key: tuple) -> tuple:
    """Reference answer of one instance: numpy-backend digest, and for a
    single BVM solve the cycle count of its program (one cycle per
    instruction).  ``key`` is ``(workload, kind, k, seed)``."""
    from repro import solve
    from repro.ttpar.bvm_tt import build_bvm_tt

    workload, kind, k, seed = key
    problem = bvm_instance(seed) if workload == "bvm" else dp_instance(k, seed)
    result = solve(problem, backend="numpy")
    cycles = None
    if kind == "single":
        cycles = len(build_bvm_tt(problem).prog.instructions)
    return digest(result.cost, result.best_action), cycles
