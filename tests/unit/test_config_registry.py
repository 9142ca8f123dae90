"""Unit tests for SimulationConfig validation and the protocol registry."""

import pytest

from repro.config import SimulationConfig
from repro.mpi.cluster import Cluster
from repro.protocols.registry import (
    available_protocols,
    create_protocol,
    protocol_class,
    validate_protocols,
)
from repro.workloads.presets import workload_factory


class TestSimulationConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.nprocs == 4 and cfg.protocol == "tdi"

    @pytest.mark.parametrize("field,value", [
        ("nprocs", 0),
        ("comm_mode", "bogus"),
        ("checkpoint_interval", 0.0),
        ("restart_delay", -1.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        # restart_delay is the injector's RESTART_DELAY now, not a field
        with pytest.raises(TypeError if field == "restart_delay" else ValueError):
            SimulationConfig(**{field: value})

    def test_with_updates_functionally(self):
        cfg = SimulationConfig(nprocs=4)
        cfg2 = cfg.with_(nprocs=8)
        assert cfg.nprocs == 4 and cfg2.nprocs == 8
        assert cfg2.protocol == cfg.protocol

    def test_frozen(self):
        cfg = SimulationConfig()
        with pytest.raises(Exception):
            cfg.nprocs = 2  # type: ignore[misc]


class TestRegistry:
    def test_builtins_available(self):
        assert set(available_protocols()) >= {"tdi", "tag", "tel", "none"}

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protocol"):
            protocol_class("bogus")

    def test_protocol_class_names(self):
        for name in ("tdi", "tag", "tel", "none"):
            assert protocol_class(name).name == name

    @pytest.mark.parametrize("name", available_protocols())
    def test_cluster_hosts_a_logger_node_when_the_protocol_needs_one(self, name):
        needs_logger = protocol_class(name).needs_logger
        assert needs_logger == (name in ("tel", "pess", "part"))
        cluster = Cluster(SimulationConfig(nprocs=3, protocol=name),
                          workload_factory("lu", scale="fast"))
        assert len(cluster.nodes) == 3 + needs_logger
        assert len(cluster.services) == needs_logger

    def test_create_protocol_unknown(self):
        with pytest.raises(ValueError):
            create_protocol("nope")

    def test_validate_protocols_accepts_registered(self):
        validate_protocols(("tdi", "tag", "tel", "none"))

    def test_validate_protocols_names_every_unknown(self):
        with pytest.raises(ValueError, match="'bogus'.*'nope'"):
            validate_protocols(("tdi", "bogus", "nope"))
