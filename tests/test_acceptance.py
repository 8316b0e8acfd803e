"""Acceptance suite: one test per criterion, each printing a PASS line.

The random-graph suite is generated once per session and shared; every
check against it must agree 100%, so any single disagreement fails the
criterion.
"""

import io
import json
import os
import random
import subprocess
import sys
import time
from math import comb

import pytest

from gicsat.encoder import cardinality_clause_count, encode_instance
from gicsat.gismo import GismoConfig, run_gismo
from gicsat.graph import build_graph, parse_graph
from gicsat.oracle import (is_gics, is_gis_bruteforce, min_gics_exhaustive,
                           projected_models)
from gicsat.satcore import enumerate_models_projected

FIG1_EDGES = "a b\na d\nb c\nb e\nc e\nd e\n"
DATA = os.path.join(os.path.dirname(__file__), os.pardir, "data")

SUITE_GRAPHS = 200
SENSOR_SETS_PER_GRAPH = 50
SUITE_KS = (1, 2, 3)
SUITE_SECONDS = 600.0


def fig1():
    return parse_graph(io.StringIO(FIG1_EDGES))


def ok(num, label):
    print(f"[acceptance] criterion {num} ({label}): PASS")


@pytest.fixture(scope="module")
def suite():
    """200 random graphs with n in 3..8, instantiated at k in {1,2,3}."""
    rng = random.Random(2026)
    entries = []
    for i in range(SUITE_GRAPHS):
        n = 3 + i % 6
        p = (0.3, 0.5, 0.7)[i % 3]
        g = build_graph(n, [(u, v) for u in range(n)
                            for v in range(u + 1, n) if rng.random() < p])
        for k in SUITE_KS:
            inst = encode_instance(g, k)
            entries.append((g, k, inst, projected_models(inst)))
    return entries


@pytest.fixture(scope="module")
def suite_runs(suite):
    return [(g, k, inst, models, run_gismo(inst, GismoConfig()))
            for g, k, inst, models in suite]


def test_criterion_1_worked_example():
    start = time.monotonic()
    g = fig1()
    inst = encode_instance(g, 1)
    order = tuple(g.index_of(t) for t in "edcba")
    res = run_gismo(inst, GismoConfig(order=order))
    assert {g.labels[v] for v in res.sensor_set} == {"a", "c"}
    assert is_gics(g, res.sensor_set, 1)
    best, size = min_gics_exhaustive(g, 1)
    assert size == 2
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(1, "worked-example placement {a,c}, minimum cardinality 2")


def test_criterion_2_truth_table_rows():
    start = time.monotonic()
    g = fig1()
    inst = encode_instance(g, 1)
    got = set(enumerate_models_projected(inst.formula, inst.z_vars))

    table = {
        "a": ({"a"}, {"a", "b", "d"}),
        "b": ({"b"}, {"a", "b", "c", "e"}),
        "c": ({"c"}, {"b", "c", "e"}),
        "d": ({"d"}, {"a", "d", "e"}),
        "e": ({"e"}, {"b", "c", "d", "e"}),
        "": (set(), set()),
    }
    expected = set()
    for x_true, y_true in table.values():
        lits = []
        for v in range(g.n):
            xv, yv = inst.group_of(v)
            lits.append(xv if g.labels[v] in x_true else -xv)
            lits.append(yv if g.labels[v] in y_true else -yv)
        expected.add(tuple(sorted(lits, key=abs)))
    assert got == expected
    assert len(got) == 6
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    ok(2, "six truth-table rows reproduced exactly")


def test_criterion_3_reduction_soundness(suite):
    start = time.monotonic()
    rng = random.Random(77)
    checks = 0
    for g, k, inst, models in suite:
        for _ in range(SENSOR_SETS_PER_GRAPH):
            sensors = {v for v in range(g.n) if rng.random() < 0.5}
            assert is_gics(g, sensors, k) == \
                is_gis_bruteforce(inst, sensors, models), \
                f"disagreement on n={g.n} k={k} sensors={sorted(sensors)}"
            checks += 1
    elapsed = time.monotonic() - start
    assert checks >= SUITE_GRAPHS * len(SUITE_KS) * SENSOR_SETS_PER_GRAPH
    assert elapsed < SUITE_SECONDS
    ok(3, f"identification <-> grouped support on {checks} sensor sets")


def test_criterion_4_algorithm_correctness(suite_runs):
    start = time.monotonic()
    for g, k, inst, models, res in suite_runs:
        assert is_gis_bruteforce(inst, res.sensor_set, models)
        assert is_gics(g, res.sensor_set, k)
    elapsed = time.monotonic() - start
    assert elapsed < SUITE_SECONDS
    ok(4, f"all {len(suite_runs)} runs return a grouped support and a "
          f"valid placement")


def test_criterion_5_set_minimality(suite_runs):
    clean = 0
    for g, k, inst, models, res in suite_runs:
        if res.budget_exhaustions:
            continue
        clean += 1
        for v in res.sensor_set:
            assert not is_gis_bruteforce(inst, res.sensor_set - {v}, models), \
                f"removable group {v} on n={g.n} k={k}"
    assert clean == len(suite_runs)  # default budget never exhausts here
    ok(5, f"no single group removable across {clean} exhaustion-free runs")


def test_criterion_6_model_count_identity(suite):
    for g, k, inst, models in suite:
        assert len(models) == sum(comb(g.n, i) for i in range(k + 1))
    ok(6, "projected model count equals the failure-set count everywhere")


def test_criterion_7_encoding_size():
    ratios_by_k = {}
    for n in range(10, 101, 10):
        g = build_graph(n, [(i, i + 1) for i in range(n - 1)])
        counts = {}
        for k in (1, 2, 4, 8):
            inst = encode_instance(g, k)
            measured = len(inst.formula)
            closed_form = 2 * g.n + 2 * g.m + cardinality_clause_count(g.n, k)
            assert measured == closed_form
            assert measured <= 3 * (k * g.n + g.n + g.m)
            counts[k] = measured
        for k in (1, 2, 4, 8):
            ratio = counts[k] / counts[1]
            assert ratio <= k  # at most linear growth in k
            ratios_by_k.setdefault(k, []).append(ratio)
    for k, ratios in ratios_by_k.items():
        assert all(r >= 1.0 for r in ratios)
    ok(7, "clause counts match the closed form and stay within 3(kn+n+m)")


def test_criterion_8_desk_scale_performance():
    rng = random.Random(7)
    n = 500
    p = 1500 / (n * (n - 1) / 2)
    g = build_graph(n, [(u, v) for u in range(n)
                        for v in range(u + 1, n) if rng.random() < p])
    for k in (1, 2, 4):
        start = time.monotonic()
        encode_instance(g, k)
        assert time.monotonic() - start < 10.0

    rng = random.Random(50)
    n = 50
    g = build_graph(n, [(u, v) for u in range(n)
                        for v in range(u + 1, n) if rng.random() < 0.1])
    start = time.monotonic()
    inst = encode_instance(g, 2)
    res = run_gismo(inst, GismoConfig(budget=5000))
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    assert res.total_queries >= n
    ok(8, f"500-node encodes < 10 s; 50-node run in {elapsed:.1f} s")


def test_criterion_9_byte_identical_json(tmp_path):
    outputs = []
    for name in ("one.json", "two.json"):
        path = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "gicsat", "solve",
             os.path.join(DATA, "fig1.edges"), "--k", "2",
             "--order", "random", "--seed", "99", "--budget", "5000",
             "--output", str(path)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(path.read_bytes())
        assert proc.stdout.encode() == outputs[-1]
    assert outputs[0] == outputs[1]
    record = json.loads(outputs[0])
    assert record["sensors"] and record["config"]["seed"] == 99
    ok(9, "identical flags and seed give byte-identical records")
