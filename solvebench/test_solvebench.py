"""Self-checks of the benchmark, run from the checkout root::

    python3 -m pytest solvebench/test_solvebench.py -q

Every exact count must repeat between two traced runs on one seed. All
of them depend only on the shape of the inputs (instances are accepted
only with a fixed action count), so they must also repeat on another
seed. Each run uses ``--seconds 1``, the smallest fixed op count.
"""

import json
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

EXACT = {
    "dp-cold": ["kernel.candidates", "kernel.bytes_computed", "shard.dispatched"],
    "dp-stream": ["kernel.candidates", "shard.dispatched", "engine.table_rebuilds",
                  "engine.pool_reuses"],
    "dp-durable": ["kernel.candidates", "shard.dispatched", "store.commits",
                   "store.bytes_written"],
    "bvm": ["bvm.instructions", "bvm.cycles"],
}


def bench(cwd: Path, workload: str, seed: int, trace: int):
    return subprocess.run(
        [sys.executable, "solvebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def traced_counts(workload: str, seed: int) -> dict:
    proc = bench(ROOT, workload, seed, 1)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    return {name: m["value"] for name, m in out["metrics"].items()}


@pytest.mark.parametrize("workload", sorted(EXACT))
def test_exact_counts_repeat_on_a_seed_and_across_seeds(workload):
    first, again, other = (traced_counts(workload, s) for s in (1, 1, 2))
    for name in EXACT[workload]:
        assert first[name] > 0, name
        assert again[name] == first[name], name
        assert other[name] == first[name], name


# Runs the command given in its arguments as a child subreaper, so any
# process the run leaves behind is reparented to it, and reports the exit
# code and whether such an orphan exists once the run has returned.
ORPHAN_HARNESS = textwrap.dedent("""
    import ctypes, json, os, subprocess, sys
    ctypes.CDLL(None).prctl(36, 1, 0, 0, 0)
    code = subprocess.run(sys.argv[1:], capture_output=True).returncode
    try:
        os.waitpid(-1, os.WNOHANG)
        orphans = True  # a child, running or not, outlived the run
    except ChildProcessError:
        orphans = False
    print(json.dumps({"code": code, "orphans": orphans}))
""")


@pytest.mark.parametrize("workload", ["dp-cold", "dp-durable"])
def test_leaves_no_process_behind(workload):
    """Pool workers and resource trackers of the interpreters are reaped."""
    proc = subprocess.run(
        [sys.executable, "-c", ORPHAN_HARNESS, sys.executable, "solvebench/run.py",
         "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert json.loads(proc.stdout) == {"code": 0, "orphans": False}


def test_refuses_to_run_without_the_solver_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "solvebench", tmp_path / "solvebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "bvm", 1, 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_metric_names_and_units_match_benchmark_json():
    sys.path.insert(0, str(ROOT / "solvebench"))
    import run
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
