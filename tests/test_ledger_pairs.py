"""``scripts/ledger_pairs.py``'s report on stub runs (no ledger is run)."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))
import ledger_pairs  # noqa: E402


def run(rss, repetitions, rate=1000.0, setup=0.5):
    return {
        "metrics": {"activations_per_s": {"value": rate},
                    "setup_s": {"value": setup},
                    "peak_rss_mb": {"value": rss}},
        "repetitions": repetitions, "failed": 0, "sim_digest": "d" * 64,
    }


def peak_lines(text):
    return [line for line in text.splitlines()
            if line.lstrip().startswith("peak_rss_mb ") and "ratio" in line]


def test_peak_rss_is_compared_again_over_equal_repetition_pairs():
    # Pair 2 ran one repetition fewer on the change side: a lower peak
    # that says nothing about the change, so the second line drops it.
    runs = {
        "parent": [run(40.0, 2), run(40.0, 2), run(40.0, 2), run(40.0, 2)],
        "change": [run(36.0, 2), run(30.0, 1), run(36.0, 2), run(41.0, 2)],
    }
    text = ledger_pairs.report("w", 1996, runs)
    assert "peak_rss_mb over the 3 of 4 pairs whose runs had equal " \
           "repetitions:" in text
    every, equal = peak_lines(text)
    assert "change 34.5/36/37.25" in every and "change wins 3/4" in every
    assert "change 36/36/38.5" in equal and "change wins 2/3" in equal
    assert "ratio 0.900" in equal
    assert "change runs: 36 36 41" in text


def test_no_pair_at_equal_repetitions_is_said_not_hidden():
    runs = {"parent": [run(40.0, 2)], "change": [run(36.0, 1)]}
    text = ledger_pairs.report("w", 1996, runs)
    assert "peak_rss_mb over the 0 of 1 pairs whose runs had equal " \
           "repetitions:" in text
    assert len(peak_lines(text)) == 1
