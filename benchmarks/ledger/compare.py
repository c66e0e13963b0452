"""``--compare A.json B.json``: apply each metric's bound, one row each.

``A`` is the base of every ratio.  Verdicts, per workload x end-to-end
metric:

* ``ok`` — B is not worse than A by more than the metric's bound;
* ``regressed`` — it is;
* ``unresolved`` — the repetitions of either side spread wider than the
  bound and the two sides overlap, so the medians decide nothing;
* ``model-changed`` — a sim value (or the ``sim_digest``) differs: the
  modelled machine did something else, which a perf-only change may not.
"""

from __future__ import annotations

import json
import statistics

from catalog import END_TO_END, SIM_REL_TOL

BAD = ("regressed", "model-changed")


def _samples(record: dict, name: str) -> list:
    if name == "queries_per_s":
        return [record["logical_queries"] / w for w in record["rep_wall_s"]]
    if name == "activations_per_s":
        return [record["activations"] / w for w in record["rep_wall_s"]]
    if name == "setup_s":
        return list(record["setup_samples_s"])
    return [record["metrics"][name]["value"]]


def _spread(samples: list) -> float:
    """Range of the samples as a share of their median."""
    if len(samples) < 2:
        return 0.0
    return (max(samples) - min(samples)) / statistics.median(samples)


def judge(metric, a: dict, b: dict) -> dict:
    """One comparison row for ``metric`` between records ``a`` and ``b``."""
    va = a["metrics"][metric.name]["value"]
    vb = b["metrics"][metric.name]["value"]
    row = {"metric": metric.name, "unit": metric.unit, "a": va, "b": vb,
           "ratio": vb / va if va else None, "worse_by": None,
           "allowed": None, "spread": None}
    if metric.kind == "sim":
        same = abs(va - vb) <= SIM_REL_TOL * max(abs(va), abs(vb))
        row["verdict"] = "ok" if same else "model-changed"
        return row
    if metric.name == "failed_share":
        row["verdict"] = "ok" if vb <= va else "regressed"
        return row
    sign = -1.0 if metric.better == "higher" else 1.0
    worse_by = sign * (vb - va) / va
    allowed = max(metric.bound, metric.floor / va)
    sa, sb = _samples(a, metric.name), _samples(b, metric.name)
    spread = max(_spread(sa), _spread(sb))
    overlap = min(sa) <= max(sb) and min(sb) <= max(sa)
    if spread > allowed and overlap:
        verdict = "unresolved"
    else:
        verdict = "regressed" if worse_by > allowed else "ok"
    row.update(worse_by=worse_by, allowed=allowed, spread=spread,
               verdict=verdict)
    return row


def compare(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    if doc_a["seed"] != doc_b["seed"] or doc_a["smoke"] != doc_b["smoke"]:
        print(f"note: A is seed {doc_a['seed']} smoke={doc_a['smoke']}, "
              f"B is seed {doc_b['seed']} smoke={doc_b['smoke']}; sim values "
              "only repeat at equal seed and size")
    print(f"A (base of every ratio) = {path_a}\nB = {path_b}")
    header = (f"{'workload':<17}{'metric':<19}{'A':>13}{'B':>13} {'unit':<6}"
              f"{'B/A':>8}{'worse by':>10}{'bound':>8}{'spread':>8}  verdict")
    print(header)
    bad = 0
    for name, a in doc_a["workloads"].items():
        b = doc_b["workloads"].get(name)
        if b is None or not a["metrics"] or not b["metrics"]:
            print(f"{name:<17}not measured on both sides (missing or failed)")
            bad += 1
            continue
        for metric in END_TO_END:
            row = judge(metric, a, b)
            bad += row["verdict"] in BAD
            print(_format(name, row))
        same = a["sim_digest"] == b["sim_digest"]
        bad += not same
        print(f"{name:<17}{'sim_digest':<19}{a['sim_digest'][:12]:>13}"
              f"{b['sim_digest'][:12]:>13} {'sha256':<6}{'':>34}  "
              f"{'ok' if same else 'model-changed'}")
    print(f"{bad} row(s) regressed or model-changed" if bad
          else "every row ok or unresolved")
    return 1 if bad else 0


def _format(workload: str, row: dict) -> str:
    def share(value):
        return f"{value:>8.1%}" if value is not None else f"{'':>8}"

    ratio = f"{row['ratio']:.4f}" if row["ratio"] is not None else "-"
    return (f"{workload:<17}{row['metric']:<19}{row['a']:>13.6g}"
            f"{row['b']:>13.6g} {row['unit']:<6}{ratio:>8}"
            f"{share(row['worse_by']):>10}{share(row['allowed'])}"
            f"{share(row['spread'])}  {row['verdict']}")
