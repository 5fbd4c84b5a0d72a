"""Tests for the high-level experiment drivers (Section V regenerators)."""

from __future__ import annotations

import pytest

from repro.eval.experiments import (
    EXPERIMENTS,
    ExperimentConfig,
    run_batch,
    run_experiment,
    run_fig8,
    run_fig11,
    run_partitioned,
    run_table2,
    run_table3,
)

TINY = ExperimentConfig(
    datasets=("Cifar-10",),
    num_points=400,
    num_queries=3,
    k=5,
    leaf_size=50,
    num_tables=8,
    seed=0,
)


class TestRegistryOfExperiments:
    def test_every_listed_experiment_has_a_driver(self):
        for name in EXPERIMENTS:
            # Should not raise KeyError; actually running fig5/fig6 at even a
            # tiny scale is covered by the benchmarks, so only resolve here.
            assert name in EXPERIMENTS
        with pytest.raises(KeyError):
            run_experiment("fig42", TINY)

    def test_run_experiment_dispatches(self):
        output = run_experiment("table2", TINY)
        assert output.experiment == "table2"


class TestTableDrivers:
    def test_table2_lists_requested_datasets(self):
        config = ExperimentConfig(datasets=("Sift", "Sun"), num_points=100)
        output = run_table2(config)
        assert [record["dataset"] for record in output.records] == ["Sift", "Sun"]
        assert all(record["d"] > 0 for record in output.records)

    def test_table2_defaults_to_all_small_datasets_when_empty(self):
        config = ExperimentConfig(datasets=(), num_points=100)
        output = run_table2(config)
        assert len(output.records) == 14  # all non-large-scale data sets

    def test_table3_reports_all_methods(self):
        output = run_table3(TINY)
        methods = {record["method"] for record in output.records}
        assert methods == {"BC-Tree", "Ball-Tree", "NH", "FH"}
        for record in output.records:
            assert record["indexing_seconds"] >= 0.0
            assert record["index_size_mb"] > 0.0

    def test_table3_tree_index_smaller_than_hashing(self):
        """The headline Table III claim at surrogate scale: tree index size is
        far below the hashing index size."""
        output = run_table3(TINY)
        sizes = {record["method"]: record["index_size_mb"] for record in output.records}
        assert sizes["BC-Tree"] < sizes["NH"]
        assert sizes["Ball-Tree"] < sizes["FH"]


class TestFigureDrivers:
    def test_fig8_has_all_variants_at_full_recall(self):
        output = run_fig8(TINY)
        variants = {record["variant"] for record in output.records}
        assert variants == {"BC-Tree", "BC-Tree-wo-C", "BC-Tree-wo-B", "BC-Tree-wo-BC"}
        assert all(record["recall"] == pytest.approx(1.0) for record in output.records)

    def test_fig8_wo_bc_never_prunes_points(self):
        output = run_fig8(TINY)
        wo_bc = [r for r in output.records if r["variant"] == "BC-Tree-wo-BC"][0]
        assert wo_bc["avg_pruned_ball"] == 0
        assert wo_bc["avg_pruned_cone"] == 0

    def test_fig11_covers_multiple_leaf_sizes(self):
        output = run_fig11(TINY)
        leaf_sizes = {record["leaf_size"] for record in output.records}
        assert len(leaf_sizes) >= 3
        assert all(record["recall"] <= 1.0 for record in output.records)

    def test_partitioned_recall_is_exact_for_every_shard_count(self):
        output = run_partitioned(TINY)
        assert all(
            record["recall"] == pytest.approx(1.0) for record in output.records
        )
        shard_counts = {record["num_partitions"] for record in output.records}
        assert 1 in shard_counts and 4 in shard_counts

    def test_batch_path_column_names_each_dispatch(self):
        """``exact=False`` tree rows report the fast GEMM kernel, the other
        tree rows the block kernel, and the linear scan runs per query."""
        records = run_batch(TINY).records
        paths = {
            (record["method"], record["budget"]): record["path"]
            for record in records
        }
        assert paths[("BC-Tree", "fast")] == "fast-gemm"
        assert paths[("BC-Tree", "exact")] == "kernel"
        assert paths[("BC-Tree", "cf=0.1")] == "kernel"
        assert paths[("Linear", "exact")] == "per-query"
        assert all(
            record["why_per_query"] == ""
            for record in records
            if record["path"] != "per-query"
        )

    def test_output_columns_subset_of_record_keys(self):
        for output in (run_table2(TINY), run_fig8(TINY)):
            for record in output.records:
                missing = [col for col in output.columns if col not in record]
                assert not missing, f"{output.experiment}: missing {missing}"
