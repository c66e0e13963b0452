"""Synthetic trace generator: determinism, traffic shape, validation.

The generator composes four traffic phenomena — diurnal rate cycles,
flash crowds, heavy-tailed sessions, correlated tenant bursts — into a
single replayable :class:`~repro.serving.trace.Trace`.  These tests pin
the properties downstream code relies on: same spec → identical trace,
arrival times sorted and ids dense, plan indices in range, and the rate
function actually expressing the configured diurnal/flash structure.
"""

import dataclasses

import pytest

from repro.serving import ArrivalSpec, TraceGenSpec, WorkloadSpec
from repro.serving.driver import WorkloadDriver
from repro.sim import MachineConfig
from repro.workloads import tracegen
from repro.workloads.tracegen import (DIURNAL_AMPLITUDE, SESSION_MEAN_QUERIES,
                                      generate_trace, session_rate_at)


def small_spec(**overrides):
    defaults = dict(queries=60, seed=3, base_rate=40.0, tenants=3)
    defaults.update(overrides)
    return TraceGenSpec(**defaults)


class TestDeterminism:
    def test_same_spec_same_trace(self):
        spec = small_spec()
        assert generate_trace(spec, plan_count=3) == \
            generate_trace(spec, plan_count=3)

    def test_seed_changes_trace(self):
        spec = small_spec()
        other = dataclasses.replace(spec, seed=4)
        a = generate_trace(spec, plan_count=3)
        b = generate_trace(other, plan_count=3)
        assert [q.arrival_time for q in a.queries] != \
            [q.arrival_time for q in b.queries]

    def test_params_seeds_unique_per_query(self):
        trace = generate_trace(small_spec(), plan_count=2)
        seeds = [q.params_seed for q in trace.queries]
        assert len(seeds) == len(set(seeds))


class TestTraceShape:
    def test_exact_query_count_sorted_dense_ids(self):
        trace = generate_trace(small_spec(), plan_count=3)
        assert len(trace.queries) == 60
        times = [q.arrival_time for q in trace.queries]
        assert times == sorted(times)
        assert [q.query_id for q in trace.queries] == list(range(60))

    def test_plan_indices_in_range(self):
        for plan_count in (1, 2, 5):
            trace = generate_trace(small_spec(), plan_count=plan_count)
            assert all(0 <= q.plan_index < plan_count
                       for q in trace.queries)

    def test_open_loop_trace_kind(self):
        trace = generate_trace(small_spec(), plan_count=2)
        assert trace.arrival_kind == "trace"
        assert not trace.closed_loop

    def test_sessions_share_plan_via_tenant_affinity(self, monkeypatch):
        # Full plan affinity: every query of a tenant uses the tenant's
        # preferred plan, so at most `tenants` distinct indices appear.
        monkeypatch.setattr(tracegen, "PLAN_AFFINITY", 1.0)
        trace = generate_trace(small_spec(tenants=2), plan_count=5)
        assert len({q.plan_index for q in trace.queries}) <= 2

    def test_shipped_affinity_favours_the_tenant_plan(self):
        # One tenant, five plans: at PLAN_AFFINITY = 0.5 about 0.5 + 0.5/5
        # of the sessions run plan 0, far above the uniform 1/5.
        trace = generate_trace(small_spec(queries=300, tenants=1),
                               plan_count=5)
        favoured = sum(q.plan_index == 0 for q in trace.queries)
        assert favoured > 0.4 * len(trace.queries)

    def test_service_class_mix(self):
        mixed = generate_trace(small_spec(), plan_count=2)
        names = {q.service_class.name for q in mixed.queries}
        assert names == {"interactive", "batch"}

    def test_heavy_tail_produces_multi_query_sessions(self):
        # Pareto session lengths with mean 3: some sessions must batch
        # several back-to-back queries (gaps ~ session_gap, far smaller
        # than the mean inter-session spacing).
        spec = small_spec(queries=120, session_gap=0.001)
        trace = generate_trace(spec, plan_count=1)
        times = [q.arrival_time for q in trace.queries]
        gaps = [b - a for a, b in zip(times, times[1:])]
        tight = sum(1 for g in gaps if g < 0.005)
        assert tight > len(gaps) // 4


class TestRateFunction:
    def test_diurnal_cycle_modulates_rate(self):
        # The flash window, [5.0, 5.4) of this cycle, covers neither.
        spec = small_spec(diurnal_period=10.0)
        peak = session_rate_at(spec, 2.5)    # sin peak at period/4
        trough = session_rate_at(spec, 7.5)  # sin trough at 3*period/4
        assert peak > trough
        assert peak == pytest.approx(
            spec.base_rate / SESSION_MEAN_QUERIES * (1 + DIURNAL_AMPLITUDE))
        assert trough == pytest.approx(
            spec.base_rate / SESSION_MEAN_QUERIES * (1 - DIURNAL_AMPLITUDE))

    def test_flash_crowd_window_multiplies_rate(self):
        spec = small_spec(diurnal_period=10.0, flash_magnitude=6.0,
                          flash_duration=1.0)
        # One flash opening at half the cycle, where the sinusoid
        # crosses zero as it does at the cycle's start.
        inside = session_rate_at(spec, 5.0)
        outside = session_rate_at(spec, 0.0)
        assert inside == pytest.approx(outside * 6.0)

    def test_flash_crowd_raises_local_density(self):
        # Short cycle so the flash window, [1.0, 1.3) of each 2 s cycle,
        # lands inside the generated horizon.  The control is the same
        # spec with the flash switched off (magnitude 1).
        stormy = small_spec(queries=100, diurnal_period=2.0,
                            flash_magnitude=8.0, flash_duration=0.3)
        calm = dataclasses.replace(stormy, flash_magnitude=1.0)

        def in_flash(spec):
            trace = generate_trace(spec, plan_count=1)
            return sum(1 for q in trace.queries
                       if 1.0 <= q.arrival_time % 2.0 < 1.3)

        assert in_flash(stormy) > 2 * in_flash(calm)
        trace = generate_trace(stormy, plan_count=1)
        horizon = trace.queries[-1].arrival_time
        # Bucket arrivals; the max-density bucket under flash crowds
        # should clearly exceed the uniform expectation.
        buckets = [0] * 10
        for q in trace.queries:
            buckets[min(9, int(q.arrival_time / horizon * 10))] += 1
        assert max(buckets) > 2 * (len(trace.queries) / 10)


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("queries", 0),
        ("base_rate", 0.0),
        ("diurnal_period", 0.0),
        ("flash_magnitude", 0.5),
        ("session_gap", -0.1),
        ("tenants", 0),
        ("tenant_bursts", -1),
    ])
    def test_rejects_bad_field(self, field, value):
        with pytest.raises(ValueError):
            TraceGenSpec(**{field: value})


class TestReplayIntegration:
    def test_generated_trace_replays_deterministically(self):
        import json

        from repro.optimizer import best_bushy_trees, compile_plan
        from repro.query import QueryGenerator, QueryGeneratorConfig
        from repro.sim import RandomStreams

        config = MachineConfig(nodes=1, processors_per_node=2)
        generator = QueryGenerator(
            RandomStreams(7),
            QueryGeneratorConfig(relations_per_query=3, scale=0.002),
        )
        plans = []
        for index in range(2):
            graph = generator.generate(index)
            tree = best_bushy_trees(graph, k=1)[0]
            plans.append(compile_plan(graph, tree, config,
                                      label=f"g{index}"))
        trace = generate_trace(
            small_spec(queries=8, base_rate=20.0), plan_count=2
        )
        spec = WorkloadSpec(queries=8,
                            arrival=ArrivalSpec(kind="poisson", rate=20.0))
        runs = [
            json.dumps(
                WorkloadDriver(plans, config, spec, trace=trace)
                .run().metrics.summary(),
                sort_keys=True,
            )
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
