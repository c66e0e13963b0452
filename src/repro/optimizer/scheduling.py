"""Operator scheduling: the partial order produced by the optimizer.

Section 2.2: "operator scheduling as decided by the optimizer reflects the
optimization constraints as well as the constraints implied by the hash
join method.  It is expressed by a partial order on the set of operators
of the tree where op1 < op2 states that operator op2 cannot be started
before the end of op1."

Three constraint families, as in the paper's Figure 2:

* **hash constraints** — ``Build_i < Probe_i`` for every join (the probe
  cannot start before its hash table is complete);
* **heuristic 1** — "the execution of a pipeline chain is started only
  when all the hash tables are ready": for every probe in a chain,
  ``Build(probe) < driving scan of the chain``;
* **heuristic 2** — "pipeline chains are executed one-at-a-time": the
  chains are totally ordered (topologically w.r.t. hash-table
  dependencies) and the terminal operator of each chain precedes the
  driving scan of the next.

Note on the paper's Figure 2: it lists "Heuristic 2: Build3 < Scan3",
which is internally inconsistent (Build3 belongs to Scan3's own chain
under any consistent reading of the figure); we take the intended
semantics — sequential chains — and generate ``terminal(chain_i) <
source(chain_{i+1})`` for consecutive chains in the chosen total order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Mapping

from .operator_tree import OperatorTree, OpKind

__all__ = ["Schedule", "ScheduleError", "build_schedule", "chain_total_order"]


class ScheduleError(ValueError):
    """Raised when scheduling constraints are cyclic or malformed."""


@dataclass(frozen=True)
class Schedule:
    """A partial order: ``predecessors[op]`` must all terminate before
    ``op`` may start (its queues stay *blocked* until then)."""

    predecessors: Mapping[int, frozenset[int]]

    def predecessors_of(self, op_id: int) -> frozenset[int]:
        """Operators that must terminate before ``op_id`` starts."""
        return self.predecessors.get(op_id, frozenset())

    def topological_order(self) -> list[int]:
        """A deterministic linear extension; raises on cycles."""
        indegree = {op_id: len(preds) for op_id, preds in self.predecessors.items()}
        successors: dict[int, list[int]] = {op_id: [] for op_id in self.predecessors}
        for op_id, preds in self.predecessors.items():
            for pred in preds:
                successors[pred].append(op_id)
        ready = [op_id for op_id, deg in indegree.items() if deg == 0]
        heapq.heapify(ready)
        order = []
        while ready:
            op_id = heapq.heappop(ready)
            order.append(op_id)
            for succ in successors[op_id]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self.predecessors):
            raise ScheduleError("scheduling constraints contain a cycle")
        return order


def chain_total_order(tree: OperatorTree) -> list[int]:
    """A deterministic total order on pipeline chains.

    Topological w.r.t. hash-table dependencies (a chain that builds a hash
    table precedes every chain probing it), ties broken by chain id — which
    follows the paper's expansion order (build sides first).
    """
    deps = tree.chain_dependencies()
    indegree = {cid: len(d) for cid, d in deps.items()}
    successors: dict[int, list[int]] = {cid: [] for cid in deps}
    for cid, d in deps.items():
        for dep in d:
            successors[dep].append(cid)
    ready = [cid for cid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        cid = heapq.heappop(ready)
        order.append(cid)
        for succ in successors[cid]:
            indegree[succ] -= 1
            if indegree[succ] == 0:
                heapq.heappush(ready, succ)
    if len(order) != len(deps):
        raise ScheduleError("chain dependencies contain a cycle")
    return order


def build_schedule(tree: OperatorTree, heuristic1: bool = True,
                   heuristic2: bool = True) -> Schedule:
    """The paper's default schedule for an operator tree.

    ``heuristic1=False`` drops the hash-tables-ready constraint (probes
    may then fill queues early and exercise flow control harder);
    ``heuristic2=False`` lets independent chains run concurrently ("full
    parallel" end of the spectrum discussed in Section 3.2).  Hash
    constraints are always included — they are physical, not heuristic.
    """
    preds: dict[int, set[int]] = {op.op_id: set() for op in tree}

    # Hash constraints: Build_i < Probe_i.
    for probe in tree.probes():
        preds[probe.op_id].add(tree.build_of(probe.op_id))

    # Heuristic 1: a chain starts only when all its hash tables are ready.
    if heuristic1:
        for chain in tree.chains:
            for op_id in chain.op_ids:
                op = tree.op(op_id)
                if op.kind is OpKind.PROBE:
                    preds[chain.source_id].add(tree.build_of(op_id))

    # Heuristic 2: chains one-at-a-time.
    if heuristic2:
        order = chain_total_order(tree)
        for earlier, later in zip(order, order[1:]):
            preds[tree.chains[later].source_id].add(tree.chains[earlier].terminal_id)

    schedule = Schedule({op_id: frozenset(p) for op_id, p in preds.items()})
    schedule.topological_order()  # validates acyclicity
    return schedule
