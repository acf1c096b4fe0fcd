"""Layer predictions of the benchmark: every workload loads the layers its
row names and bypasses the others.

    python3 -m pytest perfbench

Each workload makes one pass over its pool untraced and one traced, with
seed 1.
"""

import json

import pytest

import run as bench

# The workloads on which each per-layer metric must be nonzero.
ROWS = {
    "jetoracle.rank_s": ("oracle",),
    "jetoracle.rank_calls": ("oracle",),
    "jetoracle.rank_cells": ("oracle",),
    "jetoracle.rank_nnz": ("oracle",),
    "jetoracle.euler_s": ("oracle",),
    "jetoracle.euler_calls": ("oracle",),
    "jetoracle.tqd_calls": ("oracle",),
    "localalgebra.sb_local_calls": ("germs", "global"),
    "localalgebra.sb_local_s": ("germs", "global"),
    "localalgebra.sb_global_calls": ("global",),
    "localalgebra.sb_global_s": ("global",),
    "localalgebra.sb_self_s": ("germs",),
    "localalgebra.sb_size_max": ("germs",),
    "localalgebra.sb_coeff_bits_max": ("germs",),
    "localalgebra.sb_repeat_ratio": ("germs", "global"),
    "localalgebra.nf_calls": ("germs", "global"),
    "localalgebra.nf_s": ("germs", "global"),
    "localalgebra.member_calls": ("germs", "global"),
    "residues.calls": ("germs", "global"),
    "residues.self_s": ("germs", "global"),
    "residues.bound_max": ("germs", "global"),
    "series.calls": ("germs", "global"),
    "series.self_s": ("germs", "global"),
    "indices.calls": ("germs", "oracle", "global"),
    "indices.self_s": ("germs", "oracle", "global"),
    "projective.check_calls": ("global",),
    "projective.audit_calls": ("global",),
    "projective.self_s": ("global",),
    "chern.rhs_calls": ("global",),
    "dsl.parse_s": ("global",),
    "dsl.run_calls": ("global",),
    "polyring.mul_calls": ("germs", "oracle", "global"),
    "polyring.mul_s": ("germs", "oracle", "global"),
    "polyring.mul_term_pairs": ("germs", "oracle", "global"),
    "polyring.addsub_calls": ("germs", "oracle", "global"),
    "polyring.addsub_s": ("germs", "oracle", "global"),
}

# Metric prefixes that must read 0 on each workload: the layers it
# bypasses, and on oracle repeated standard bases.
BYPASSED = {
    "germs": ("jetoracle.", "projective.", "dsl.", "chern.",
              "localalgebra.sb_global_"),
    "oracle": ("projective.", "dsl.", "chern.", "localalgebra.sb_global_",
               "localalgebra.sb_repeat_ratio"),
    "global": ("jetoracle.",),
}


@pytest.fixture(scope="module")
def results():
    # zero seconds: one pass untraced, one pass traced
    return {name: bench.run(name, 1, 0, 1)[1]
            for name in ("germs", "oracle", "global")}


@pytest.fixture(scope="module")
def layer_metrics(results):
    return {name: {k: m["value"] for k, m in result["metrics"].items()}
            for name, result in results.items()}


def test_no_pooled_operation_fails(results):
    for name, result in results.items():
        assert result["correct"], name
        assert result["failed"] == 0, (name, result["failed"])


def test_every_row_is_loaded_where_predicted(layer_metrics):
    for metric, names in ROWS.items():
        for name in names:
            assert layer_metrics[name][metric] > 0, (metric, name)


def test_bypassed_layers_stay_at_zero(layer_metrics):
    for name, prefixes in BYPASSED.items():
        for metric, value in layer_metrics[name].items():
            if metric.startswith(prefixes):
                assert value == 0, (metric, name)


def test_per_layer_keys_match_the_declared_list(layer_metrics):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer"]}
    for metrics in layer_metrics.values():
        assert set(metrics) == names


def test_integer_rank_has_the_largest_self_time_on_oracle(layer_metrics):
    m = layer_metrics["oracle"]
    others = [m[layer + ".self_s"] for layer in bench.layers.LAYERS
              if layer != "jetoracle"]
    assert m["jetoracle.rank_s"] > max(others)
