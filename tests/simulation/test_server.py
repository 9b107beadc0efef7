"""Tests for replica servers and their failure behaviours."""

from __future__ import annotations

import pytest

from repro.exceptions import SimulationError
from repro.protocol.timestamps import Timestamp
from repro.simulation.server import (
    ByzantineForgeBehavior,
    ByzantineReplayBehavior,
    ByzantineSilentBehavior,
    CorrectBehavior,
    CrashedBehavior,
    ReplicaServer,
    StoredValue,
)


class TestCorrectBehavior:
    def test_stores_and_returns_latest(self):
        server = ReplicaServer(0)
        assert server.handle_write("x", "v1", Timestamp(1, 0))
        assert server.handle_write("x", "v2", Timestamp(2, 0))
        stored = server.handle_read("x")
        assert stored.value == "v2"
        assert server.writes_handled == 2
        assert server.reads_handled == 1

    def test_ignores_stale_writes(self):
        server = ReplicaServer(0)
        server.handle_write("x", "new", Timestamp(5, 0))
        server.handle_write("x", "old", Timestamp(2, 0))
        assert server.handle_read("x").value == "new"

    def test_unknown_variable_reads_none(self):
        assert ReplicaServer(0).handle_read("missing") is None

    def test_variables_are_independent(self):
        server = ReplicaServer(0)
        server.handle_write("x", 1, Timestamp(1, 0))
        server.handle_write("y", 2, Timestamp(1, 0))
        assert server.handle_read("x").value == 1
        assert server.handle_read("y").value == 2


class TestCrashAndRecovery:
    def test_crashed_server_is_silent(self):
        server = ReplicaServer(0)
        server.handle_write("x", "v", Timestamp(1, 0))
        server.crash()
        assert server.is_crashed
        assert not server.handle_write("x", "v2", Timestamp(2, 0))
        assert server.handle_read("x") is None

    def test_recovery_restores_state_and_behavior(self):
        server = ReplicaServer(0)
        server.handle_write("x", "v", Timestamp(1, 0))
        server.crash()
        server.recover()
        assert not server.is_crashed
        assert server.handle_read("x").value == "v"

    def test_installing_a_crashed_behavior_crashes_the_server(self):
        server = ReplicaServer(0)
        server.behavior = CrashedBehavior()
        assert server.is_crashed
        server.recover()
        assert not server.is_crashed

    def test_a_crashed_behavior_subclass_is_crashed(self):
        class Halted(CrashedBehavior):
            pass

        assert ReplicaServer(0, behavior=Halted()).is_crashed
        assert not ReplicaServer(0, behavior=ByzantineSilentBehavior()).is_crashed

    def test_double_crash_then_recover_keeps_original_behavior(self):
        server = ReplicaServer(0, behavior=ByzantineSilentBehavior())
        server.crash()
        server.crash()
        server.recover()
        assert server.is_byzantine

    def test_negative_id_rejected(self):
        with pytest.raises(SimulationError):
            ReplicaServer(-1)


class TestByzantineBehaviors:
    def test_silent_behavior(self):
        server = ReplicaServer(0, behavior=ByzantineSilentBehavior())
        assert server.is_byzantine
        assert not server.handle_write("x", "v", Timestamp(1, 0))
        assert server.handle_read("x") is None

    def test_replay_behavior_serves_first_value(self):
        server = ReplicaServer(0, behavior=ByzantineReplayBehavior())
        server.handle_write("x", "v1", Timestamp(1, 0))
        server.handle_write("x", "v2", Timestamp(2, 0))
        assert server.handle_read("x").value == "v1"

    def test_replay_behavior_without_writes(self):
        server = ReplicaServer(0, behavior=ByzantineReplayBehavior())
        assert server.handle_read("x") is None

    def test_forge_behavior_fabricates(self):
        forged_ts = Timestamp.forged_maximum()
        server = ReplicaServer(0, behavior=ByzantineForgeBehavior("FORGED", forged_ts))
        assert server.handle_write("x", "honest", Timestamp(1, 0))  # pretends to ack
        reply = server.handle_read("x")
        assert reply.value == "FORGED"
        assert reply.timestamp == forged_ts
        assert reply.signature == b"forged"


class TestGossipMerge:
    def test_merge_adopts_newer_value(self):
        server = ReplicaServer(0)
        server.handle_write("x", "old", Timestamp(1, 0))
        changed = server.merge("x", StoredValue("new", Timestamp(2, 0)))
        assert changed
        assert server.handle_read("x").value == "new"

    def test_merge_rejects_older_value(self):
        server = ReplicaServer(0)
        server.handle_write("x", "new", Timestamp(5, 0))
        assert not server.merge("x", StoredValue("old", Timestamp(1, 0)))

    def test_merge_into_empty_storage(self):
        server = ReplicaServer(0)
        assert server.merge("x", StoredValue("v", Timestamp(1, 0)))

    def test_crashed_and_byzantine_servers_ignore_gossip(self):
        crashed = ReplicaServer(0)
        crashed.crash()
        assert not crashed.merge("x", StoredValue("v", Timestamp(1, 0)))
        byzantine = ReplicaServer(1, behavior=ByzantineSilentBehavior())
        assert not byzantine.merge("x", StoredValue("v", Timestamp(1, 0)))
