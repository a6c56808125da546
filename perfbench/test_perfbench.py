"""Self-tests of the benchmark's own code: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from pb_stats import TooFewSamples, min_samples, percentile, self_times  # noqa: E402


def run(args, env_extra=None, cwd=ROOT):
    env = dict(os.environ, **(env_extra or {}))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=170
    )


# -- the percentile rule -------------------------------------------------


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert min_samples(90) == 100 and min_samples(50) == 20
    assert percentile(list(range(100)), 90) == 89  # ten samples (90..99) beyond
    assert percentile(list(range(20)), 50) == 9
    with pytest.raises(TooFewSamples):
        percentile(list(range(99)), 90)
    with pytest.raises(TooFewSamples):
        percentile(list(range(19)), 50)


# -- span self-time arithmetic -------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    #   0: parent       [0, 10]
    #   1: child        [1, 4]   with grandchild 2 [2, 3]
    #   3: child        [3, 6]   overlaps child 1 on [3, 4]
    #   4: child        [8, 12]  outlives the parent
    starts = [0.0, 1.0, 2.0, 3.0, 8.0]
    ends = [10.0, 4.0, 3.0, 6.0, 12.0]
    parents = [-1, 0, 1, 0, 0]
    selfs = list(self_times(starts, ends, parents))
    # Children cover [1, 6] and [8, 10] of the parent: 7 of its 10.
    assert selfs == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_self_time_of_disjoint_children_is_plain_subtraction():
    selfs = list(self_times([0.0, 1.0, 5.0], [10.0, 2.0, 7.5], [-1, 0, 0]))
    assert selfs == pytest.approx([6.5, 1.0, 2.5])


# -- schedule determinism --------------------------------------------------

_SCHEDULE = (
    "import json, sys; sys.path[:0] = [{here!r}, {src!r}]; "
    "from pb_workloads import first_ops; "
    "print(json.dumps([first_ops(s, 200, ['p%02d' % i for i in range(8)], 3, k) "
    "for s in (1, 2) for k in (0, 5)]))"
)


def test_one_seed_gives_one_schedule_under_any_hash_seed():
    code = _SCHEDULE.format(here=str(HERE), src=str(ROOT / "src"))
    outputs = [run(["-c", code], {"PYTHONHASHSEED": hs}) for hs in ("0", "4242")]
    for out in outputs:
        assert out.returncode == 0, out.stderr
    assert outputs[0].stdout == outputs[1].stdout
    schedules = json.loads(outputs[0].stdout)
    kinds = {op[0] for ops in schedules for op in ops}
    assert kinds == {"leave", "join", "crash", "recover", "partition", "heal",
                     "server_crash", "server_recover"}
    assert schedules[0] != schedules[2]  # another seed, another schedule


# -- exact counts on the simulator -----------------------------------------

EXACT = ("links.wire_per_delivery", "net.events_per_delivery", "checking.events_per_delivery")


def test_sim_counts_repeat_exactly_across_runs_and_hash_seeds():
    results = []
    for hash_seed in ("0", "4242"):
        out = run(
            [str(HERE / "run.py"), "--workload", "steady-sim", "--seed", "3",
             "--seconds", "1", "--trace", "1"],
            {"PYTHONHASHSEED": hash_seed},
        )
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert result["correct"], out.stderr
        results.append({name: result["metrics"][name]["value"] for name in EXACT})
    assert results[0] == results[1]
    assert all(value > 0 for value in results[0].values())


# -- no program, no result --------------------------------------------------


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = run(
        ["perfbench/run.py", "--workload", "steady-sim", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
