"""Property tests for routing conservation and flow control.

The output channel is the engine's most delicate component: it converts
tuple counts into batched activations across Zipf-weighted cells with
exact integer conservation, under queue bounds and credit windows.  These
tests drive it directly (single-node contexts so deliveries are local) and
assert the invariants the integration suite relies on.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Relation
from repro.engine import ExecutionParams
from repro.engine.context import ExecutionContext
from repro.engine.substrate import Substrate
from repro.optimizer import BaseNode, JoinNode, compile_plan
from repro.query import JoinEdge, QueryGraph
from repro.sim import MachineConfig


def make_context(nodes=1, procs=4, params=None):
    """A context for a trivial join plan (R join S)."""
    sel = 1.0 / 100
    graph = QueryGraph(
        [Relation("R", 100), Relation("S", 100)], [JoinEdge("R", "S", sel)]
    )
    tree = JoinNode(BaseNode(graph.relation("R")), BaseNode(graph.relation("S")), sel)
    config = MachineConfig(nodes=nodes, processors_per_node=procs)
    plan = compile_plan(graph, tree, config)
    params = params or ExecutionParams()
    return ExecutionContext(plan, config, Substrate(config, params), params)


def build_channel(context):
    """The scan -> build channel on node 0."""
    scan = context.plan.operators.scans()[0]
    return context.channels[(0, scan.op_id)]


class TestChannelConservation:
    @given(pushes=st.lists(st.integers(min_value=0, max_value=500),
                           min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_property_flush_conserves_tuples_exactly(self, pushes):
        context = make_context()
        channel = build_channel(context)
        for n in pushes:
            channel.push_tuples(n)
        channel.flush()
        assert channel.tuples_out == channel.tuples_in == sum(pushes)

    @given(theta=st.floats(min_value=0.0, max_value=1.0),
           total=st.integers(min_value=1, max_value=2000))
    @settings(max_examples=50, deadline=None)
    def test_property_conservation_under_skew(self, theta, total):
        from repro.catalog import SkewSpec
        context = make_context(
            params=ExecutionParams(skew=SkewSpec.uniform_redistribution(theta))
        )
        channel = build_channel(context)
        channel.push_tuples(total)
        channel.flush()
        assert channel.tuples_out == total

    def test_batches_respect_batch_size(self):
        context = make_context(params=ExecutionParams(batch_size=32))
        channel = build_channel(context)
        channel.push_tuples(10_000)
        consumer = context.plan.operators.builds()[0].op_id
        queue_set = context.nodes[0].queue_sets[consumer]
        sizes = [a.tuples for q in queue_set.queues for a in q]
        assert sizes
        assert all(s <= 32 for s in sizes)

    def test_outstanding_counter_tracks_emissions(self):
        context = make_context()
        channel = build_channel(context)
        consumer = context.plan.operators.builds()[0].op_id
        runtime = context.ops[consumer]
        before = runtime.outstanding
        channel.push_tuples(1000)
        channel.flush()
        assert runtime.outstanding == before + channel.activations_emitted

    def test_flush_idempotent(self):
        context = make_context()
        channel = build_channel(context)
        channel.push_tuples(77)
        channel.flush()
        out = channel.tuples_out
        channel.flush()
        assert channel.tuples_out == out

    def test_terminal_channel_counts_results(self):
        context = make_context()
        root = context.plan.operators.root_id
        channel = context.channels[(0, root)]
        assert channel.router is None
        assert channel.push_tuples(42) == 0
        assert context.result_sink.tuples == 42


class TestFlowControl:
    def test_stall_on_full_queues(self):
        context = make_context(
            params=ExecutionParams(queue_capacity=2, pending_stall_limit=2,
                                   batch_size=8)
        )
        channel = build_channel(context)
        assert not channel.stalled
        # 4 threads x capacity 2 x batch 8 = 64 tuples fit; push far more.
        channel.push_tuples(5000)
        assert channel.stalled
        assert channel.parked_activations() > 0

    def test_unstall_after_draining(self):
        context = make_context(
            params=ExecutionParams(queue_capacity=2, pending_stall_limit=2,
                                   batch_size=8)
        )
        channel = build_channel(context)
        channel.push_tuples(5000)
        consumer = context.plan.operators.builds()[0].op_id
        queue_set = context.nodes[0].queue_sets[consumer]
        node = context.nodes[0]
        # Consume everything; every pop triggers the drain hook.
        drained = 0
        while queue_set.has_work:
            for index, queue in enumerate(queue_set.queues):
                while not queue.is_empty:
                    activation = queue_set.pop(index)
                    node.on_queue_pop(queue, activation)
                    drained += activation.tuples
        assert not channel.stalled
        assert channel.parked_activations() == 0
        # A drained cell keeps no deque (dead channels are cyclic garbage).
        assert all(parked is None for parked in channel._undelivered)
        assert drained == channel.tuples_out

    def test_stalled_op_not_selectable(self):
        context = make_context(
            params=ExecutionParams(queue_capacity=2, pending_stall_limit=2,
                                   batch_size=8)
        )
        channel = build_channel(context)
        scan_id = context.plan.operators.scans()[0].op_id
        runtime = context.ops[scan_id]
        context.seed_triggers()
        assert context.is_op_selectable(context.nodes[0], runtime)
        channel.push_tuples(5000)
        assert not context.is_op_selectable(context.nodes[0], runtime)


class TestRemoteCredits:
    def test_remote_cells_start_with_credit_window(self):
        context = make_context(nodes=2, procs=2,
                               params=ExecutionParams(credit_window=3))
        channel = build_channel(context)
        remote_cells = [
            i for i, cell in enumerate(channel.router.cells) if cell[0] != 0
        ]
        assert remote_cells
        assert all(channel._remote_credits[i] == 3 for i in remote_cells)

    def test_remote_sends_consume_credits_and_park_beyond(self):
        from repro.engine.scheduler import NodeScheduler
        context = make_context(nodes=2, procs=2,
                               params=ExecutionParams(credit_window=1,
                                                      batch_size=4,
                                                      pending_stall_limit=100))
        for node in context.nodes:
            NodeScheduler(context, node)
        channel = build_channel(context)
        channel.push_tuples(1000)
        remote_cells = [
            i for i, cell in enumerate(channel.router.cells) if cell[0] != 0
        ]
        assert all(channel._remote_credits[i] == 0 for i in remote_cells)
        assert channel.parked_activations() > 0
        # Returning credits drains parked batches.
        before = channel.parked_activations()
        cell = channel.router.cells[remote_cells[0]]
        channel.on_credit(cell, 5)
        assert channel.parked_activations() < before


# ---------------------------------------------------------------------------
# Steal protocol: the paper's five conditions (Sections 3.2 and 4)
# ---------------------------------------------------------------------------

def make_steal_context(params=None):
    """A two-node context with schedulers, probe unblocked on both nodes."""
    from repro.engine.scheduler import NodeScheduler

    context = make_context(nodes=2, procs=2, params=params)
    for node in context.nodes:
        NodeScheduler(context, node)
    probe = context.plan.operators.probes()[0]
    runtime = context.ops[probe.op_id]
    runtime.blocked = False
    for node_id in runtime.home:
        context.nodes[node_id].queue_sets[probe.op_id].set_blocked(False)
    return context, runtime


def fill_probe_queues(context, runtime, node_id, fills, tuples=8,
                      tuple_size=100):
    """Push ``fills[i]`` data activations into node's i-th probe queue."""
    from repro.engine.activation import DataActivation

    queue_set = context.nodes[node_id].queue_sets[runtime.op_id]
    for queue_index, count in enumerate(fills[:len(queue_set.queues)]):
        for _ in range(count):
            queue_set.push(
                queue_index,
                DataActivation(op_id=runtime.op_id,
                               group=(node_id, queue_index),
                               tuples=tuples, tuple_size=tuple_size),
                force=True,
            )
    return queue_set


class TestStealProtocolConditions:
    """The provider's best-candidate selection honours all five conditions.

    (i) the requester can store the shipment, (ii) enough work to
    amortize, (iii) at most the steal fraction, (iv) probe activations
    only, (v) unblocked operators only — plus home membership.
    """

    @given(
        fills=st.lists(st.integers(min_value=0, max_value=40),
                       min_size=2, max_size=2),
        free_memory=st.sampled_from([0, 100, 1_000, 100_000, 10_000_000]),
        min_steal=st.integers(min_value=1, max_value=8),
        fraction=st.sampled_from([0.25, 0.5, 1.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_candidate_satisfies_all_conditions(
            self, fills, free_memory, min_steal, fraction):
        context, runtime = make_steal_context(
            params=ExecutionParams(min_steal_activations=min_steal,
                                   steal_fraction=fraction)
        )
        queue_set = fill_probe_queues(context, runtime, 1, fills)
        provider = context.nodes[1].scheduler
        candidate = provider._best_candidate(
            requester=0, scope=None, free_memory=free_memory,
            cached=frozenset(),
        )
        eligible = {}
        for index, queue in enumerate(queue_set.queues):
            if len(queue) < min_steal:
                continue  # condition (ii) must exclude it
            steal_count = max(1, int(len(queue) * fraction))
            activation_bytes = int(
                queue.bytes_queued / max(1, len(queue)) * steal_count
            )
            if activation_bytes > free_memory:
                continue  # condition (i) must exclude it
            eligible[index] = steal_count
        if candidate is None:
            assert not eligible
            return
        # Condition (iv): probes only; (v): unblocked; home membership.
        offered = context.ops[candidate.op_id]
        assert offered.kind.name == "PROBE"
        assert not offered.blocked and not offered.terminated
        assert 0 in offered.home
        # Condition (ii) + (iii): count within [min, fraction * queue].
        queue = queue_set.queues[candidate.queue_index]
        assert len(queue) >= min_steal
        assert candidate.steal_count == eligible[candidate.queue_index]
        assert candidate.steal_count <= max(1, int(len(queue) * fraction))
        # Condition (i): the shipment fits the requester's free memory.
        assert candidate.overhead <= free_memory

    def test_blocked_probe_is_never_offered(self):
        context, runtime = make_steal_context()
        fill_probe_queues(context, runtime, 1, [10, 10])
        runtime.blocked = True
        candidate = context.nodes[1].scheduler._best_candidate(
            requester=0, scope=None, free_memory=10_000_000,
            cached=frozenset(),
        )
        assert candidate is None

    def test_trigger_activations_are_never_offered(self):
        # Scans hold only trigger activations; condition (iv) excludes
        # them (triggers need local disks).
        context, _ = make_steal_context()
        context.seed_triggers()
        scan_ids = {op.op_id for op in context.plan.operators.scans()}
        for node in context.nodes:
            candidate = node.scheduler._best_candidate(
                requester=1 - node.node_id, scope=None,
                free_memory=10_000_000, cached=frozenset(),
            )
            assert candidate is None or candidate.op_id not in scan_ids

    def test_scope_restricts_the_offer(self):
        context, runtime = make_steal_context()
        fill_probe_queues(context, runtime, 1, [10, 10])
        provider = context.nodes[1].scheduler
        other_scope = runtime.op_id + 999
        assert provider._best_candidate(
            requester=0, scope=other_scope, free_memory=10_000_000,
            cached=frozenset(),
        ) is None
        scoped = provider._best_candidate(
            requester=0, scope=runtime.op_id, free_memory=10_000_000,
            cached=frozenset(),
        )
        assert scoped is not None and scoped.op_id == runtime.op_id

    def test_non_home_requester_gets_no_offer(self):
        context, runtime = make_steal_context()
        fill_probe_queues(context, runtime, 1, [10, 10])
        # Shrink the probe's home to the provider only.
        runtime.home = (1,)
        candidate = context.nodes[1].scheduler._best_candidate(
            requester=0, scope=None, free_memory=10_000_000,
            cached=frozenset(),
        )
        assert candidate is None


class TestStealConservation:
    @given(
        count=st.integers(min_value=0, max_value=50),
        steal=st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=50, deadline=None)
    def test_property_steal_moves_without_duplication(self, count, steal):
        context, runtime = make_steal_context()
        queue_set = fill_probe_queues(context, runtime, 1, [count, 0])
        queue = queue_set.queues[0]
        before = list(queue)
        stolen = queue_set.steal_from(0, steal)
        remaining = list(queue)
        # Conservation: stolen + remaining is exactly the original set,
        # in order, with no activation duplicated or lost.
        assert len(stolen) == min(steal, count)
        assert remaining + stolen == before
        assert queue.total_popped == len(stolen)
