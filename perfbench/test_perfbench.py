"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import os
import random
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "tests"), os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import nilqp  # noqa: E402
from nilqp import betti_numbers, catalog_get  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _items(name, seed, rounds=1):
    w = workloads.BY_NAME[name]
    return workloads.build(w, seed, rounds, [None] * len(w.bases()))


def _generated(seed):
    return [inputs.canonical_dump(item.algebra).encode() for item in _items("bigraded_qi", seed, 2)]


def test_same_seed_gives_byte_identical_structure_constants():
    assert _generated(7) == _generated(7)
    assert _generated(7) != _generated(8)


def test_item_lists_are_fixed_by_seed_and_seconds():
    w = workloads.BY_NAME["betti"]
    assert workloads.rounds_for(w, 20) == workloads.rounds_for(w, 20)
    assert workloads.rounds_for(w, 1) * len(w.bases()) >= workloads.MIN_ITEMS
    short, long = _items("betti", 3, 1), _items("betti", 3, 2)
    assert [i.algebra for i in long[: len(short)]] == [i.algebra for i in short]


def test_exhausted_budget_is_told_from_a_finished_search():
    rng = random.Random(1)
    for label, exhausts in (("L5_parity+L5_parity", True), ("n5+n3+abelian_1", False)):
        base = next(b for b in workloads._search_bases() if b.label == label)
        moved = inputs.move(base.algebra, inputs.random_invertible_t(base.algebra.dim, rng))
        assert workloads.exhausts_budget(moved) is exhausts, label


def _fake_items():
    alg = catalog_get("n5").algebra
    good = workloads.Item("good", alg, call=lambda: betti_numbers(alg).betti,
                          check=lambda b: None if b == (1, 4, 5, 5, 4, 1) else "wrong")
    wrong_ref = workloads.Item("wrong_ref", alg, call=lambda: betti_numbers(alg).betti,
                               check=lambda b: None if b == (1, 4, 6, 6, 4, 1) else "wrong")

    def boom():
        raise ValueError("boom")

    raises = workloads.Item("raises", alg, call=boom, check=lambda out: None)
    return [good, wrong_ref, raises] * 2


def test_failures_are_counted_and_do_not_abort():
    items = _fake_items()
    _, outputs = run.execute(items, range(len(items)))
    record = run.summarize(items, outputs, 0)
    assert record["attempted"] == 6
    assert [f["label"] for f in record["failures"]] == ["wrong_ref", "raises"] * 2
    assert record["failed_ratio"] == 4 / 6
    assert "ValueError: boom" in record["failures"][1]["error"]

    timed = run.timed_run(items, 0)
    assert timed["attempted"] == 6
    assert timed["failed_ratio"] == 4 / 6
    assert timed["metrics"]["items_per_s"][0] > 0


def test_self_times_on_a_synthetic_span_tree():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["c", 2.0, 3.0, 1, 0],
        ["b", 5.0, 9.0, 0, 0],
        [None, 6.0, 7.5, 3, 0],  # unnamed: excluded from b, not reported
        ["a", 20.0, 21.0, -1, 1],
    ]
    assert tracing.self_times(spans) == {"a": (2, 4.0), "b": (2, 4.5), "c": (1, 1.0)}


def test_tracer_counts_calls_and_restores_the_package():
    original_check, original_bracket = nilqp.checker.check, nilqp.LieAlgebra.bracket
    items = _items("verdicts", 1)
    n3 = next(item for item in items if item.label == "n3")
    tracer = tracing.Tracer()
    tracer.install(extra_modules=[workloads])
    try:
        n3.call()
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer)
    assert metrics["checker.check.calls"][0] == 1
    assert metrics["liealg.bracket.calls"][0] > 0
    assert metrics["liealg.lower_central_series.calls"][0] >= 1
    assert nilqp.checker.check is original_check and workloads.check is original_check
    assert nilqp.LieAlgebra.bracket is original_bracket


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path / "BENCHMARK.json")
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verdicts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
