"""Unit tests for the quorum-trace records and the sampling collector."""

from __future__ import annotations

import json
import random

import pytest

from repro.obs.trace import DISPOSITIONS, QuorumTrace, RpcSpan, Tracer


class TestRpcSpan:
    def test_elapsed_and_dict_form(self):
        span = RpcSpan(3, "read", 1.0, 1.25, "ok")
        assert span.elapsed == pytest.approx(0.25)
        assert span.to_dict() == {
            "server": 3,
            "method": "read",
            "started_at": 1.0,
            "ended_at": 1.25,
            "elapsed": pytest.approx(0.25),
            "disposition": "ok",
        }

    def test_every_documented_disposition_is_a_string(self):
        assert all(isinstance(name, str) for name in DISPOSITIONS)
        assert set(DISPOSITIONS) >= {"ok", "dropped", "timeout", "silent", "unsent"}


class TestQuorumTrace:
    def test_records_spans_and_counts_dispositions(self):
        trace = QuorumTrace(7, "read", client_id="c1", variable="x", shard=0)
        trace.record(1, "read", 0.0, 0.1, "ok")
        trace.record(2, "read", 0.0, 0.2, "ok")
        trace.record(3, "read", 0.0, 0.5, "timeout")
        assert trace.span_dispositions() == {"ok": 2, "timeout": 1}

    def test_finish_stamps_status_and_elapsed(self):
        trace = QuorumTrace(1, "write")
        assert trace.elapsed is None
        trace.finish("unavailable")
        assert trace.status == "unavailable"
        assert trace.elapsed is not None and trace.elapsed >= 0.0

    def test_dict_form_is_json_serialisable(self):
        trace = QuorumTrace(9, "read", variable="k0")
        trace.quorum = (1, 2, 3)
        trace.record(1, "read", 0.0, 0.1, "ok")
        trace.selection = {"rule": "AsyncRegister", "verdict": "selected"}
        trace.classification = "fresh"
        trace.context = {"lock": "leader", "step": "verify"}
        trace.finish()
        line = json.dumps(trace.to_dict(), sort_keys=True)
        decoded = json.loads(line)
        assert decoded["trace_id"] == 9
        assert decoded["quorum"] == [1, 2, 3]
        assert decoded["classification"] == "fresh"
        assert decoded["context"] == {"lock": "leader", "step": "verify"}
        assert decoded["spans"][0]["disposition"] == "ok"


class TestTracer:
    def test_rate_zero_never_samples_and_never_draws(self):
        tracer = Tracer(sample_rate=0.0, seed=1)
        state = tracer._rng.getstate()
        assert all(tracer.begin("read") is None for _ in range(50))
        assert tracer._rng.getstate() == state  # no draw at the endpoint
        assert tracer.started == 0 and tracer.sampled_out == 0

    def test_rate_one_samples_everything_without_drawing(self):
        tracer = Tracer(sample_rate=1.0, seed=1)
        state = tracer._rng.getstate()
        traces = [tracer.begin("read") for _ in range(10)]
        assert all(trace is not None for trace in traces)
        assert tracer._rng.getstate() == state
        assert tracer.started == 10

    def test_fractional_rate_samples_roughly_that_fraction(self):
        tracer = Tracer(sample_rate=0.3, seed=5)
        sampled = sum(tracer.begin("read") is not None for _ in range(2000))
        assert 450 < sampled < 750
        assert tracer.started + tracer.sampled_out == 2000

    def test_ids_are_unique(self):
        tracer = Tracer(sample_rate=1.0)
        ids = [tracer.begin("read").trace_id for _ in range(5)]
        assert len(set(ids)) == 5

    def test_sampling_stream_is_private(self):
        # Seeding a workload RNG with the tracer's root must not couple the
        # two streams (the salt keeps them apart).
        workload = random.Random(42)
        tracer = Tracer(sample_rate=0.5, seed=42)
        before = [workload.random() for _ in range(5)]
        for _ in range(100):
            tracer.begin("read")
        workload = random.Random(42)
        after = [workload.random() for _ in range(5)]
        assert before == after

    def test_retention_cap_counts_overflow(self):
        tracer = Tracer(sample_rate=1.0, max_traces=2)
        for _ in range(5):
            trace = tracer.begin("read")
            tracer.finish(trace)
        assert len(tracer.traces) == 2
        assert tracer.overflowed == 3

    def test_finish_closes_and_retains(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.begin("write", client_id="w1", variable="x", shard=2)
        tracer.finish(trace, status="unavailable")
        assert tracer.traces == [trace]
        assert trace.status == "unavailable"
        assert tracer.to_dicts()[0]["shard"] == 2

    def test_invalid_rates_are_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=-0.1)
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)
        with pytest.raises(ValueError):
            Tracer(max_traces=-1)
