"""The serving layer's decision functions on hand-built state.

Victim choice, spill cover, spill pricing and the broker's ``"best"``
target are pure functions of what they are handed
(:mod:`repro.serving.preemption`, :mod:`repro.serving.broker`), so they
are exercised here on plain stand-in objects — no simulator, no plan, no
run.  The end-to-end behaviour stays covered by
``test_serving_preemption.py`` and ``test_serving_retry.py``.
"""

from types import SimpleNamespace

from repro.engine import ExecutionParams
from repro.optimizer.operator_tree import OpKind
from repro.serving import BATCH, INTERACTIVE, ServiceClass
from repro.serving.broker import CrossQueryBroker
from repro.serving.broker import benefit_key
from repro.serving.preemption import (greedy_cover, reload_seconds,
                                      select_victim, spill_seconds,
                                      spillable_joins)
from repro.sim.machine import MachineConfig


def runtime(kind, join_id, terminated=False, ending=False, suspended=False):
    return SimpleNamespace(
        op=SimpleNamespace(kind=kind, join_id=join_id),
        terminated=terminated, ending=ending, suspended=suspended,
    )


def node(spillable=None, queued=0, held=0):
    """A node stand-in: ``spillable`` is ``{join id: bytes}``."""
    spillable = spillable or {}
    return SimpleNamespace(
        store=SimpleNamespace(
            spillable_bytes=lambda join_id: spillable.get(join_id, 0),
            bytes_held=held,
        ),
        total_queued_activations=lambda: queued,
    )


def building_context(per_node_bytes, query_id=0, done=False):
    """A context with one live build (join 1) holding ``per_node_bytes``."""
    ops = {0: runtime(OpKind.BUILD, 1), 1: runtime(OpKind.PROBE, 1)}
    nodes = [node({1: nbytes}) for nbytes in per_node_bytes]
    return SimpleNamespace(ops=ops, nodes=nodes, done=done,
                           query_id=query_id)


def running(query_id, service_class, context):
    return SimpleNamespace(query_id=query_id, service_class=service_class,
                           context=context)


BLOCKED = SimpleNamespace(service_class=INTERACTIVE)


class TestSpillableJoins:
    def test_a_live_build_is_the_runtime_to_suspend(self):
        context = building_context([300, 0])
        [(target, join_id, per_node)] = spillable_joins(context, {0: 1, 1: 1})
        assert target is context.ops[0] and join_id == 1
        assert per_node == {0: 300}  # node 1 holds nothing: not listed

    def test_once_the_build_ended_the_probe_is_suspended(self):
        context = building_context([300])
        context.ops[0].terminated = True
        [(target, _join_id, _per_node)] = spillable_joins(context, {0: 1})
        assert target is context.ops[1]

    def test_finished_suspended_and_ending_joins_are_skipped(self):
        for flag in ("terminated", "ending", "suspended"):
            context = building_context([300])
            context.ops[0].terminated = True  # the probe is the candidate
            setattr(context.ops[1], flag, True)
            assert spillable_joins(context, {0: 1}) == []

    def test_only_shortfall_nodes_the_context_spans_count(self):
        context = building_context([300, 200])
        assert spillable_joins(context, {1: 1})[0][2] == {1: 200}
        # elastic: the shortfall names a node beyond this query's prefix
        assert spillable_joins(context, {2: 1}) == []


class TestSelectVictim:
    def test_ranks_by_bytes_on_the_shortfall_nodes(self):
        # q1 holds more in total, q2 more where the shortfall is
        victims = [
            running(1, BATCH, building_context([900, 100], query_id=1)),
            running(2, BATCH, building_context([100, 400], query_id=2)),
        ]
        victim, joins = select_victim(victims, BLOCKED, {1: 50})
        assert victim.query_id == 2
        assert joins[0][2] == {1: 400}
        victim, _joins = select_victim(victims, BLOCKED, {0: 50, 1: 50})
        assert victim.query_id == 1

    def test_query_id_breaks_a_tie(self):
        victims = [
            running(7, BATCH, building_context([500], query_id=7)),
            running(3, BATCH, building_context([500], query_id=3)),
            running(5, BATCH, building_context([500], query_id=5)),
        ]
        victim, _joins = select_victim(victims, BLOCKED, {0: 1})
        assert victim.query_id == 3

    def test_only_strictly_lower_priority_is_eligible(self):
        peer = ServiceClass("peer", priority=INTERACTIVE.priority)
        above = ServiceClass("above", priority=INTERACTIVE.priority + 1)
        victims = [
            running(1, peer, building_context([900], query_id=1)),
            running(2, above, building_context([900], query_id=2)),
        ]
        assert select_victim(victims, BLOCKED, {0: 1}) is None
        victims.append(running(3, BATCH, building_context([10], query_id=3)))
        victim, _joins = select_victim(victims, BLOCKED, {0: 1})
        assert victim.query_id == 3

    def test_sp_finished_and_empty_handed_queries_are_skipped(self):
        victims = [
            running(1, BATCH, None),  # SP: no context, no hash state
            running(2, BATCH, building_context([900], query_id=2, done=True)),
            running(3, BATCH, building_context([0], query_id=3)),
        ]
        assert select_victim(victims, BLOCKED, {0: 1}) is None
        assert select_victim([], BLOCKED, {0: 1}) is None


class TestGreedyCover:
    JOINS = [("rt1", 1, {0: 100}), ("rt2", 2, {0: 300}), ("rt3", 3, {0: 200})]

    def test_stops_at_the_first_covering_prefix(self):
        assert greedy_cover(self.JOINS, {0: 250}) == [self.JOINS[1]]
        assert greedy_cover(self.JOINS, {0: 301}) == [self.JOINS[1],
                                                      self.JOINS[2]]

    def test_spills_everything_when_nothing_covers(self):
        assert greedy_cover(self.JOINS, {0: 10_000}) == [
            self.JOINS[1], self.JOINS[2], self.JOINS[0]]

    def test_every_shortfall_node_must_be_covered(self):
        joins = [("a", 1, {0: 500}), ("b", 2, {1: 150}), ("c", 3, {0: 50})]
        # the biggest join covers node 0 alone; node 1 needs join 2
        assert greedy_cover(joins, {0: 100, 1: 100}) == joins[:2]

    def test_join_id_breaks_a_size_tie(self):
        joins = [("a", 9, {0: 200}), ("b", 4, {0: 200})]
        assert greedy_cover(joins, {0: 1}) == [joins[1]]


class TestSpillPricing:
    def context(self):
        return SimpleNamespace(
            params=ExecutionParams(),
            instructions_time=MachineConfig().instructions_time,
        )

    def test_serialize_then_stream_at_the_disk_rate(self):
        context = self.context()
        params = context.params
        nbytes = 1 << 20
        stream = nbytes / params.disk.transfer_rate
        assert spill_seconds(context, nbytes) == context.instructions_time(
            params.network.send_instructions(nbytes)) + stream
        assert reload_seconds(context, nbytes) == context.instructions_time(
            params.network.receive_instructions(nbytes)) + stream

    def test_nothing_to_move_still_costs_one_message(self):
        context = self.context()
        assert 0 < spill_seconds(context, 0) < spill_seconds(context, 4096)
        assert 0 < reload_seconds(context, 0) < reload_seconds(context, 4096)


def steal_candidate(query_id, backlog, held, nodes=2):
    """A context whose busiest node queues ``backlog`` activations."""
    return SimpleNamespace(
        query_id=query_id, done=False,
        nodes=[node(queued=backlog if n == 0 else 1, held=held)
               for n in range(nodes)],
    )


class TestBrokerBestTarget:
    def test_prefers_backlog_per_shipped_byte(self):
        cheap = steal_candidate(1, backlog=40, held=1_000)
        heavy = steal_candidate(2, backlog=400, held=1_000_000)
        assert min([heavy, cheap], key=benefit_key) is cheap
        # the same tables, ten times the relief: the bigger backlog wins
        relieved = steal_candidate(3, backlog=400, held=1_000)
        assert min([cheap, relieved], key=benefit_key) is relieved

    def test_query_id_breaks_a_tie(self):
        twins = [steal_candidate(query_id, backlog=40, held=1_000)
                 for query_id in (8, 2, 5)]
        assert min(twins, key=benefit_key).query_id == 2

    def broker(self, policy, contexts, loads):
        params = ExecutionParams(cross_query_steal=True,
                                 cross_steal_policy=policy)
        substrate = SimpleNamespace(
            params=params, env=SimpleNamespace(now=0.0),
            config=SimpleNamespace(nodes=len(loads)), membership=None,
            contexts=contexts, node_load=lambda n: loads[n],
            logger=SimpleNamespace(enabled=False),
        )
        return CrossQueryBroker(substrate)

    def candidates(self):
        """Three co-resident queries with a recording scheduler on node 1."""
        poked = []
        contexts = []
        for query_id, backlog, held in ((1, 40, 1_000_000), (2, 40, 1_000),
                                        (3, 40, 1_000)):
            context = steal_candidate(query_id, backlog, held)
            context.nodes[1].scheduler = SimpleNamespace(
                on_machine_starving=lambda q=query_id: poked.append(q))
            contexts.append(context)
        return contexts, poked

    def test_best_notifies_one_query_and_all_notifies_every_query(self):
        idle = SimpleNamespace(query_id=0, done=False)
        for policy, expected in (("best", [2]), ("all", [1, 2, 3])):
            contexts, poked = self.candidates()
            broker = self.broker(policy, [idle] + contexts, loads=[120, 0])
            broker.on_node_starving(1, idle)
            assert poked == expected
            assert broker.notifications == 1

    def test_a_balanced_machine_is_left_alone(self):
        idle = SimpleNamespace(query_id=0, done=False)
        contexts, poked = self.candidates()
        broker = self.broker("best", [idle] + contexts, loads=[120, 100])
        broker.on_node_starving(1, idle)
        assert poked == [] and broker.notifications == 0
