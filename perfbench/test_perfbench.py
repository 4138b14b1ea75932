"""Tests of the benchmark itself: op lists, failure rules, tracing, guards.

Run from the root of a qct checkout:  python3 -m pytest perfbench -q
"""

import ast
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pytest  # noqa: E402

import qct.laurent  # noqa: E402
import qct.products  # noqa: E402
import qct.qring  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_ops(workload):
    assert workloads.build_ops(workload, 7) == workloads.build_ops(workload, 7)


def test_other_seed_other_ct_point_sample_of_same_size_from_same_pool():
    pool = set(workloads.ct_point_pool())
    a, b = workloads.ct_point_sample(1), workloads.ct_point_sample(2)
    assert len(a) == len(b) >= 100
    assert set(a) <= pool and set(b) <= pool
    assert set(a) != set(b)


def test_ct_point_keeps_the_bench_ct_cases():
    for seed in (0, 1):
        ops = workloads.build_ops("ct-point", seed)
        assert ops[:len(workloads.BENCH_CT_CASES)] == list(workloads.BENCH_CT_CASES)


def test_interp_grid_has_112_ops_and_seed_sets_order():
    a, b = workloads.build_ops("interp-grid", 1), workloads.build_ops("interp-grid", 2)
    assert len(a) == 112 and sorted(a) == sorted(b) and a != b


def test_op_failure_rules(tmp_path):
    check = lambda op: workloads.run_op(op, str(tmp_path))  # noqa: E731
    assert check(("qdyson", ((1, 1),)))
    assert check(("verify", ("--suite", "qdyson")))
    # trimmed cases, randomized substitution and usage errors all fail
    assert not check(("verify", ("--suite", "qdyson", "--max-seconds", "0.000001")))
    assert not check(("verify", ("--suite", "splitting", "--shape", "2,2", "--c", "3")))
    assert not check(("verify", ("--suite", "no-such-suite")))
    assert not check(("kadell", ((1,), 1, (1, 1))))  # raises: lengths differ
    assert os.listdir(tmp_path) == []


def test_passes_time_and_tally_every_op():
    with speed.Host() as host:
        passes = run.run_passes([1, 2, 3], 0, lambda op: op != 2, host)
    assert len(passes) == 1 and passes[0]["verdicts"] == [True, False, True]
    assert len(passes[0]["op_s"]) == 3 and passes[0]["wall_s"] >= sum(passes[0]["op_s"])
    assert len(passes[0]["op_cpu_s"]) == 3 and passes[0]["cpu_s"] >= sum(passes[0]["op_cpu_s"])
    scale = passes[0]["speed_factor"]
    assert passes[0]["op_norm_s"] == [t * scale for t in passes[0]["op_cpu_s"]]
    assert passes[0]["norm_s"] == pytest.approx(passes[0]["cpu_s"] * scale)
    assert run.tally(passes) == (3, 1)


def test_passes_repeat_until_the_time_is_up():
    with speed.Host() as host:
        passes = run.run_passes([1, 2], 0.05, lambda op: time.sleep(0.01) is None, host)
    assert len(passes) >= 2 and run.tally(passes) == (2 * len(passes), 0)
    assert all(p["kernel_runs"] >= 1 and p["norm_s"] > 0 for p in passes)


def test_speed_factor_scales_to_the_nominal_kernel_time():
    assert speed.factor([speed.REF_S] * 3) == pytest.approx(1.0)
    assert speed.factor([2 * speed.REF_S, 2 * speed.REF_S]) == pytest.approx(0.5)
    assert speed.reference_kernel() > 0


def test_kernel_helper_process_answers_and_is_stopped():
    host = speed.Host()
    with host:
        host.samples()
        time.sleep(5 * speed.REF_PAUSE_S)
        during = host.samples()
        at_once = host.samples()
    assert len(during) >= 2 and len(at_once) >= 1 and all(t > 0 for t in during + at_once)
    assert host._proc.returncode == 0


def test_self_times_on_nested_tree():
    # 0 [0, 10] -> 1 [1, 4] -> 2 [2, 3];  0 -> 3 [5, 9];  4 is a second root
    parents = [-1, 0, 1, 0, -1]
    durations = [10.0, 3.0, 1.0, 4.0, 2.0]
    assert spans.self_times(parents, durations) == [3.0, 2.0, 1.0, 4.0, 2.0]


def test_tracer_records_nested_spans_and_restores_every_binding():
    fold = qct.laurent.ct_fold
    mul = vars(qct.qring.QFrac)["__mul__"]
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert qct.products.ct_fold is not fold and qct.laurent.ct_fold is not fold
        assert vars(qct.qring.QFrac)["__rmul__"] is vars(qct.qring.QFrac)["__mul__"]
        tracer.op_id = 5
        value = qct.products.bf_ct(qct.products.Shape((1, 2)), 1, 1, 1)
    finally:
        assert tracer.uninstall()
    assert qct.products.ct_fold is fold and qct.laurent.ct_fold is fold
    assert vars(qct.qring.QFrac)["__mul__"] is mul and vars(qct.qring.QFrac)["__rmul__"] is mul
    assert value == qct.products.bf_ct(qct.products.Shape((1, 2)), 1, 1, 1)
    names = [tracer.names[i] for i in tracer.span_name]
    assert names[:2] == ["products.bf_ct", "laurent.ct_fold"]
    assert list(tracer.span_parent[:2]) == [-1, 0] and set(tracer.span_op) == {5}
    metrics = tracer.metrics(passes=1)
    assert metrics["products.bf_ct.calls"] == 1 and metrics["laurent.ct_fold.calls"] == 1
    assert metrics["laurent.self_s"] > 0


def test_benchmark_json_lists_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    per_layer = [(m["name"], m["unit"]) for m in bench["per_layer"]]
    assert per_layer == spans.metric_names()
    e2e = run.end_to_end([{"norm_s": 1.0, "op_norm_s": [0.1, 0.2]}], setup_s=0.5)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == \
        [(name, unit) for name, (_, unit) in e2e.items()]


def _qct_module_aliases(tree):
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases |= {(a.asname or a.name).split(".")[0] for a in node.names
                        if a.name.split(".")[0] == "qct"}
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qct"):
            aliases |= {a.asname or a.name for a in node.names}
    return aliases


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_benchmark_uses_only_public_qct_names_and_default_kernel():
    """Library refactors of private names or of QCT_KERNEL cannot break the benchmark."""
    problems = []
    for fname in sorted(os.listdir(HERE)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(HERE, fname)) as fh:
            tree = ast.parse(fh.read(), fname)
        qct_names = _qct_module_aliases(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qct"):
                problems += [f"{fname}: imports {a.name}" for a in node.names
                             if _private(a.name) or any(map(_private, node.module.split(".")))]
            elif isinstance(node, ast.Import):
                problems += [f"{fname}: imports {a.name}" for a in node.names
                             if a.name.startswith("qct") and any(map(_private, a.name.split(".")))]
            elif isinstance(node, ast.Attribute) and _private(node.attr):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if isinstance(base, ast.Name) and base.id in qct_names:
                    problems.append(f"{fname}: uses {node.attr}")
            elif isinstance(node, ast.keyword) and node.arg == "kernel":
                problems.append(f"{fname}: passes kernel=")
    for layer, name, _ in spans.TARGETS:
        problems += [f"spans.py: wraps {layer}.{name}" for part in name.split(".") if _private(part)]
    assert problems == []
