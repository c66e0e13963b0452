"""Table-driven activation selection against the dict-walking reference.

``ExecutionThread._select`` walks ``NodeState.selection`` — one
``(op_id, queue set, runtime, channel)`` tuple per entry of
``node.queue_sets``, built once the context's channels exist — and
``NodeState.on_queue_pop`` keeps the owed flow-control credits indexed by
``(op, queue index)``.  The model they must reproduce is kept *here*:
:func:`reference_select`, the same two passes over ``node.queue_sets``
looking each operator's runtime and channel up in the context's dicts on
every step, and :func:`reference_on_queue_pop`, whose owed credits are
one flat ``(op, queue index, src)`` dict scanned whole when a queue
empties.  On hypothesis-built states — FP operator assignments, stalled
channels, blocked / suspended / terminated operators, an excluded
operator, activations pushed anywhere, local or from any other node —
two identically built contexts pop the same ``(activation, queue)``
sequence and return the same credits in the same order, one through
each path.
"""

from functools import partial

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import ExecutionParams, QueryExecutor, Substrate
from repro.engine.activation import DataActivation
from repro.optimizer.operator_tree import OpKind
from repro.sim import MachineConfig
from repro.workloads import pipeline_chain_scenario

NODES = 3
CONFIG = MachineConfig(nodes=NODES, processors_per_node=3)
PLAN, _ = pipeline_chain_scenario(nodes=NODES, processors_per_node=3,
                                  base_tuples=600, chain_joins=3)
OPS = sorted(op.op_id for op in PLAN.operators)


def reference_select(thread, exclude_op=None):
    """``ExecutionThread._select`` as it was: the node's ``queue_sets``
    dict walked twice, runtime and channel looked up per operator."""
    context = thread.context
    node = thread.node
    ops = context.ops
    assigned = thread.assigned_ops
    channels = context.channels
    node_id = node.node_id
    for op_id, queue_set in node.queue_sets.items():
        if not queue_set._non_empty or op_id == exclude_op:
            continue
        if assigned is not None and op_id not in assigned:
            continue
        runtime = ops[op_id]
        if runtime.terminated or runtime.blocked or runtime.suspended:
            continue
        channel = channels.get((node_id, op_id))
        if channel is not None and channel.stalled:
            continue
        queue = queue_set.queues[thread.index]
        if not queue.is_empty:
            activation = queue_set.pop(thread.index)
            node.on_queue_pop(queue, activation)
            return activation, queue
    for op_id, queue_set in node.queue_sets.items():
        if not queue_set._non_empty or op_id == exclude_op:
            continue
        if assigned is not None and op_id not in assigned:
            continue
        runtime = ops[op_id]
        if runtime.terminated or runtime.blocked or runtime.suspended:
            continue
        channel = channels.get((node_id, op_id))
        if channel is not None and channel.stalled:
            continue
        queue_index = queue_set.first_non_empty(thread.index + 1)
        if queue_index is not None:
            queue = queue_set.queues[queue_index]
            activation = queue_set.pop(queue_index)
            node.on_queue_pop(queue, activation)
            return activation, queue
    return None


def reference_on_queue_pop(node, owed_credits, queue, activation):
    """``NodeState.on_queue_pop`` as it was: owed credits in one flat
    ``(op, queue index, src)`` dict, scanned whole when a queue empties."""
    context = node.context
    producer_id = context.producer_of.get(queue.op_id)
    if producer_id is not None:
        channel = context.channels.get((node.node_id, producer_id))
        if channel is not None:
            channel.on_local_space(queue.thread_index)
    if (not activation.is_trigger and activation.remote
            and activation.src_node >= 0):
        key = (queue.op_id, queue.thread_index, activation.src_node)
        owed = owed_credits.get(key, 0) + 1
        threshold = max(1, context.params.credit_window // 2)
        if owed >= threshold:
            owed_credits[key] = 0
            context.return_credits(
                node.node_id, activation.src_node, queue.op_id,
                (node.node_id, queue.thread_index), owed,
            )
        else:
            owed_credits[key] = owed
    if queue.is_empty:
        for key in list(owed_credits):
            op_id, thread_index, src = key
            if op_id == queue.op_id and thread_index == queue.thread_index:
                owed = owed_credits.pop(key)
                if owed:
                    context.return_credits(
                        node.node_id, src, op_id,
                        (node.node_id, thread_index), owed,
                    )


def build(strategy, reference=False):
    """A launched (not yet run) context whose credit returns are logged;
    ``reference`` swaps in the flat-dict credit accounting."""
    substrate = Substrate(CONFIG, ExecutionParams())
    context = QueryExecutor(PLAN, CONFIG, strategy=strategy).launch(substrate)
    context.credit_log = []
    return_credits = context.return_credits

    def logged(*args):
        context.credit_log.append(args)
        return_credits(*args)

    context.return_credits = logged
    if reference:
        for node in context.nodes:
            node.on_queue_pop = partial(reference_on_queue_pop, node, {})
    return context


def apply_state(context, state):
    """Put ``context`` into the drawn state (same on every copy)."""
    for op_id, node_id, queue_index, tuples, src in state["pushes"]:
        queue_set = context.nodes[node_id].queue_sets.get(op_id)
        if queue_set is None or context.ops[op_id].kind is OpKind.SCAN:
            continue
        queue_set.push(queue_index, DataActivation(
            op_id=op_id, group=(node_id, queue_index), tuples=tuples,
            remote=src != node_id, src_node=src,
        ), force=True)
    for op_id, (blocked, suspended, terminated) in state["flags"].items():
        runtime = context.ops[op_id]
        runtime.blocked = blocked
        runtime.suspended = suspended
        runtime.terminated = terminated or (
            state["quiet_scans"] and runtime.kind is OpKind.SCAN)
    for key in state["stalled"]:
        channel = context.channels.get(key)
        if channel is not None:
            channel._stalled_cells = 1
    for node in context.nodes:
        for thread in node.threads:
            assigned = state["assigned"].get((node.node_id, thread.index), "keep")
            if assigned != "keep":
                thread.assigned_ops = assigned


def describe(picked):
    if picked is None:
        return None
    activation, queue = picked
    return activation, queue.key


STATES = st.fixed_dictionaries({
    "strategy": st.sampled_from(["DP", "FP"]),
    "pushes": st.lists(st.tuples(
        st.sampled_from(OPS), st.integers(0, NODES - 1), st.integers(0, 2),
        st.integers(1, 500), st.integers(0, NODES - 1)), max_size=40),
    # Scans hold many triggers and come first: half the states retire
    # them so the data activations get picked too.
    "quiet_scans": st.booleans(),
    # (blocked, suspended, terminated) per operator, each mostly False so
    # that data activations are often selectable.
    "flags": st.fixed_dictionaries({op_id: st.tuples(
        *[st.sampled_from([False, False, False, True])] * 3) for op_id in OPS}),
    "stalled": st.lists(st.tuples(st.integers(0, NODES - 1),
                                  st.sampled_from(OPS)),
                        max_size=6),
    "assigned": st.dictionaries(
        st.tuples(st.integers(0, NODES - 1), st.integers(0, 2)),
        st.one_of(st.just("keep"), st.none(),
                  st.frozensets(st.sampled_from(OPS)).map(set)),
        max_size=6),
    # Each step: which thread selects, and which operator it excludes.
    "steps": st.lists(st.tuples(st.integers(0, NODES - 1), st.integers(0, 2),
                                st.one_of(st.none(), st.sampled_from(OPS))),
                      min_size=1, max_size=60),
})


@settings(max_examples=120)
@given(STATES)
def test_table_select_pops_what_the_dict_walk_pops(state):
    fast = build(state["strategy"])
    reference = build(state["strategy"], reference=True)
    apply_state(fast, state)
    apply_state(reference, state)
    for node_id, index, exclude in state["steps"]:
        got = fast.nodes[node_id].threads[index]._select(exclude)
        want = reference_select(reference.nodes[node_id].threads[index],
                                exclude)
        assert describe(got) == describe(want)
    for ours, theirs in zip(fast.nodes, reference.nodes):
        assert ({op_id: [len(q) for q in qs.queues]
                 for op_id, qs in ours.queue_sets.items()}
                == {op_id: [len(q) for q in qs.queues]
                    for op_id, qs in theirs.queue_sets.items()})
    assert fast.credit_log == reference.credit_log
    assert fast.network.messages_sent == reference.network.messages_sent


# One probe queue set on node 0, the only selectable operator: pushes
# from any node into any of its queues, interleaved with pops by any of
# the node's threads — the credit windows fill, return at the threshold,
# and emptied queues return the crumbs of several sources at once.
CREDIT_ACTIONS = st.lists(st.one_of(
    st.tuples(st.just("push"), st.integers(0, 2), st.integers(0, NODES - 1)),
    st.tuples(st.just("pop"), st.integers(0, 2), st.none()),
), min_size=1, max_size=80)


def only_probe_selectable(context):
    probe = next(r for r in context.ops.values()
                 if r.kind is OpKind.PROBE and 0 in r.home)
    for runtime in context.ops.values():
        runtime.terminated = runtime is not probe
    probe.blocked = False
    return probe.op_id


@settings(max_examples=150)
@given(CREDIT_ACTIONS)
def test_credit_returns_match_the_flat_dict_scan(actions):
    fast, reference = build("DP"), build("DP", reference=True)
    op_id = only_probe_selectable(fast)
    assert only_probe_selectable(reference) == op_id
    for what, index, src in actions:
        if what == "push":
            for context in (fast, reference):
                context.nodes[0].queue_sets[op_id].push(index, DataActivation(
                    op_id=op_id, group=(0, index), tuples=3,
                    remote=src != 0, src_node=src), force=True)
        else:
            got = fast.nodes[0].threads[index]._select()
            want = reference_select(reference.nodes[0].threads[index])
            assert describe(got) == describe(want)
    assert fast.credit_log == reference.credit_log


def test_crumbs_of_several_sources_return_in_first_owed_order():
    context = build("DP")
    op_id = only_probe_selectable(context)
    queue_set = context.nodes[0].queue_sets[op_id]
    thread = context.nodes[0].threads[0]
    cell = (0, 0)

    def drain(sources):
        for src in sources:
            queue_set.push(0, DataActivation(op_id=op_id, group=cell,
                                             tuples=3, remote=True,
                                             src_node=src), force=True)
        context.credit_log.clear()
        while thread._select() is not None:
            pass
        return context.credit_log

    # Node 1 reaches the threshold (half the window of 4) and is paid at
    # once; the emptied queue then returns node 2's crumb, and node 1's
    # zero is no message.
    assert drain([2, 1, 1]) == [(0, 1, op_id, cell, 2),
                                (0, 2, op_id, cell, 1)]
    # Crumbs go back in the order they were first owed, not by node id.
    assert drain([2, 1]) == [(0, 2, op_id, cell, 1), (0, 1, op_id, cell, 1)]


def test_the_selection_table_follows_queue_sets_order():
    for strategy in ("DP", "FP"):
        context = build(strategy)
        for node in context.nodes:
            assert [entry[0] for entry in node.selection] == list(
                node.queue_sets)
            for op_id, queue_set, runtime, channel in node.selection:
                assert queue_set is node.queue_sets[op_id]
                assert runtime is context.ops[op_id]
                assert channel is context.channels.get((node.node_id, op_id))


def test_the_states_reach_both_passes():
    # A foreign queue (pass 2) and a primary queue (pass 1) both pop.
    context = build("DP")
    probe = next(r for r in context.ops.values()
                 if r.kind is OpKind.PROBE and 0 in r.home)
    probe.blocked = False
    queue_set = context.nodes[0].queue_sets[probe.op_id]
    queue_set.push(2, DataActivation(op_id=probe.op_id, group=(0, 2),
                                     tuples=5), force=True)
    thread = context.nodes[0].threads[0]
    thread.assigned_ops = {probe.op_id}
    activation, queue = thread._select()
    assert activation.op_id == probe.op_id and queue.key == (probe.op_id, 0, 2)
    queue_set.push(0, DataActivation(op_id=probe.op_id, group=(0, 0),
                                     tuples=5), force=True)
    assert thread._select()[1].key == (probe.op_id, 0, 0)
