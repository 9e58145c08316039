"""Tests for the node/network models and the measurement protocol."""

import numpy as np
import pytest

from repro.cluster.network import GigabitNetwork, NetworkConfig
from repro.cluster.node import Node, NodeConfig
from repro.cluster.testbed import Cluster, MeasurementConfig
from repro.errors import ConfigurationError
from repro.metrics.catalog import METRIC_NAMES
from repro.workloads import RunContext, workload_by_name


class TestNode:
    def test_table_iii_node(self):
        node = Node("slave-0")
        assert node.total_cores == 12  # 2 sockets x 6 cores
        assert node.config.memory_bytes == 32 * (1 << 30)
        assert node.config.os_name == "CentOS 6.4"

    def test_memory_validation(self):
        with pytest.raises(ConfigurationError):
            NodeConfig(memory_bytes=0)


class TestNetwork:
    def test_transfer_time_model(self):
        network = GigabitNetwork()
        # 1 Gb/s at 94 % efficiency moves ~117.5 MB/s.
        one_mb = network.transfer(1_000_000)
        assert one_mb == pytest.approx(
            NetworkConfig().latency_s + 1_000_000 / (1e9 * 0.94 / 8), rel=1e-9
        )

    def test_transfer_accounting(self):
        network = GigabitNetwork()
        network.transfer(100)
        network.transfer(200)
        assert network.bytes_transferred == 300
        assert network.transfers == 2

    def test_negative_transfer_rejected(self):
        with pytest.raises(ConfigurationError):
            GigabitNetwork().transfer(-1)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(bandwidth_bits_per_s=0)
        with pytest.raises(ConfigurationError):
            NetworkConfig(protocol_efficiency=0.0)


class TestMeasurementConfig:
    def test_defaults(self):
        config = MeasurementConfig()
        assert 1 <= config.slaves_measured <= 4

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            MeasurementConfig(slaves_measured=0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(slaves_measured=5)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(perf_repeats=0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(active_cores=0)
        with pytest.raises(ConfigurationError):
            MeasurementConfig(ops_per_core=0)

    def test_more_active_cores_than_a_socket_raises(self):
        """Seven cores cannot run on a six-core socket: refused, not
        quietly simulated on six under a config that says seven."""
        with pytest.raises(ConfigurationError, match="active_cores=7"):
            Cluster().characterize_workload(
                workload_by_name("S-Grep"),
                RunContext(scale=0.2, seed=5),
                MeasurementConfig(slaves_measured=1, active_cores=7),
            )


class TestCharacterization:
    @pytest.fixture(scope="class")
    def characterization(self):
        cluster = Cluster()
        return cluster.characterize_workload(
            workload_by_name("S-Grep"),
            RunContext(scale=0.2, seed=5),
            MeasurementConfig(slaves_measured=2, active_cores=2, ops_per_core=1500),
        )

    def test_has_a_master_and_four_slaves(self):
        cluster = Cluster()
        assert len(cluster.slaves) == 4
        assert cluster.master.hostname == "master"

    def test_all_45_metrics_present_and_finite(self, characterization):
        assert set(characterization.metrics) == set(METRIC_NAMES)
        assert all(np.isfinite(v) for v in characterization.metrics.values())

    def test_mean_over_slaves(self, characterization):
        assert len(characterization.per_slave) == 2
        for name, value in characterization.metrics.items():
            expected = np.mean([s[name] for s in characterization.per_slave])
            assert value == pytest.approx(expected)

    def test_shuffle_traffic_hits_the_network(self):
        cluster = Cluster()
        cluster.characterize_workload(
            workload_by_name("H-WordCount"),
            RunContext(scale=0.2, seed=5),
            MeasurementConfig(slaves_measured=1, active_cores=2, ops_per_core=1500),
        )
        assert cluster.network.bytes_transferred > 0

    def test_correctness_checks_travel_with_the_result(self, characterization):
        assert characterization.run.checks.get("matches_correct") == 1.0


def test_collection_memoises(tmp_path):
    from repro.cluster.collection import CollectionConfig, characterize_suite
    from repro.workloads import workload_by_name

    config = CollectionConfig(
        scale=0.2,
        seed=9,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=2, ops_per_core=1200
        ),
    )
    workloads = (workload_by_name("H-Grep"), workload_by_name("S-Grep"))
    first = characterize_suite(workloads, config, cache_dir=tmp_path)
    again = characterize_suite(workloads, config, cache_dir=tmp_path)
    assert again is first  # in-process memo
    # The persistent store rebuilds the *full* result without re-running:
    # matrix and per-workload details both hydrate on a cache hit.
    from repro.cluster import collection

    runs_before = collection.collection_runs()
    collection._MEMO.clear()
    loaded = characterize_suite(workloads, config, cache_dir=tmp_path)
    assert collection.collection_runs() == runs_before  # no re-collection
    assert loaded.matrix.workloads == first.matrix.workloads
    assert np.allclose(loaded.matrix.values, first.matrix.values)
    assert [c.name for c in loaded.characterizations] == ["H-Grep", "S-Grep"]
    for original, hydrated in zip(first.characterizations, loaded.characterizations):
        assert hydrated.metrics == original.metrics
        assert hydrated.per_slave == original.per_slave
        assert hydrated.run.checks == original.run.checks
        assert hydrated.run.trace.records == original.run.trace.records


def test_characterize_suite_rejects_failed_checks():
    """A characterization of a wrong computation must fail loudly."""
    from repro.cluster.collection import CollectionConfig, characterize_suite
    from repro.errors import AnalysisError
    from repro.workloads import RunContext, Workload, WorkloadRun
    from repro.workloads.base import Category, DataType, StackFamily
    from repro.stacks.hadoop import HadoopStack
    from repro.stacks.mapreduce import MapReduceJob

    def broken_runner(context: RunContext) -> WorkloadRun:
        stack = HadoopStack()
        stack.hdfs.put("/in", ["a"] * 10)
        trace = stack.new_trace("H-Broken")
        stack.run(MapReduceJob(name="noop", mapper=lambda x: [x]), "/in", trace)
        return WorkloadRun(
            trace=trace, output_records=10, checks={"sorted": 0.0}
        )

    broken = Workload(
        algorithm="Broken",
        family=StackFamily.HADOOP,
        category=Category.OFFLINE_ANALYTICS,
        data_type=DataType.UNSTRUCTURED,
        declared_size="1 GB",
        declared_bytes=1 << 30,
        runner=broken_runner,
    )
    config = CollectionConfig(
        scale=0.2,
        seed=3,
        measurement=MeasurementConfig(
            slaves_measured=1, active_cores=2, ops_per_core=1000
        ),
    )
    with pytest.raises(AnalysisError, match="H-Broken"):
        characterize_suite((broken,), config)
