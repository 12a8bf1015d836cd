"""Compare two ladder documents under ``BENCHMARK.json``'s bounds.

``python3 benchmarks/ladder/compare.py A.json B.json`` prints, for every
(workload, end-to-end metric), A's and B's medians and one verdict:

``worse``       B is worse than A by more than the metric's bound
``better``      B is better than A by more than the bound
``same``        the medians are within the bound of each other
``unresolved``  the A/A spread recorded for the pair exceeds the bound, so
                the bound cannot separate a change from noise

The spread is A's own when A holds at least three sets (``run.py --repeat
K``), otherwise the one recorded in ``baseline.json``.  Per-layer metrics
have no bound and are listed with their change only.  The exit code is
non-zero on any ``worse`` and when B failed a larger share of operations.
"""

from __future__ import annotations

import json
import sys
from statistics import median
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MIN_SETS_FOR_SPREAD = 3
CALIBRATION_TOLERANCE = 0.10


def verdict(a: float, b: float, better: str, bound: float, spread: Optional[float]) -> str:
    """Classify B against A for one bounded metric."""
    if spread is not None and spread > bound:
        return "unresolved"
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    if worsening > bound:
        return "worse"
    if worsening < -bound:
        return "better"
    return "same"


def failed_share(document: dict) -> float:
    """Operations failed over operations attempted, whole document."""
    entries = document["workloads"].values()
    attempted = sum(entry["attempted"] for entry in entries)
    return sum(entry["failed"] for entry in entries) / attempted


def machine_speed(document: dict) -> Optional[float]:
    """Median of the calibration loop over every run in the document."""
    spins = [
        spin
        for entry in document["workloads"].values()
        for spin in entry.get("calibration_ms", [])
    ]
    return median(spins) if spins else None


def recorded_spread(cell: dict, baseline: Optional[dict], workload: str, metric: str):
    """The A/A spread to judge a pair by: A's own, else the baseline's."""
    if len(cell["values"]) >= MIN_SETS_FOR_SPREAD:
        return cell["spread"]
    if baseline is not None:
        recorded = baseline["workloads"].get(workload, {}).get("end_to_end", {})
        if metric in recorded:
            return recorded[metric]["spread"]
    return None


def compare(a: dict, b: dict, contract: dict, baseline: Optional[dict]) -> List[dict]:
    """One row per (workload, metric) present in both documents."""
    bounded = {entry["name"]: entry for entry in contract["end_to_end"]}
    rows = []
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None:
            continue
        for section in ("end_to_end", "per_layer"):
            for metric, cell in entry_a.get(section, {}).items():
                other = entry_b.get(section, {}).get(metric)
                if other is None:
                    continue
                row = {
                    "workload": workload,
                    "metric": metric,
                    "unit": cell["unit"],
                    "a": cell["median"],
                    "b": other["median"],
                    "verdict": "",
                }
                if section == "end_to_end":
                    spec = bounded[metric]
                    row["verdict"] = verdict(
                        cell["median"], other["median"], spec["better"], spec["bound"],
                        recorded_spread(cell, baseline, workload, metric),
                    )
                rows.append(row)
    return rows


def main(argv: List[str]) -> int:
    """Print the comparison; return the exit code."""
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: compare.py A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    baseline_path = HERE / "baseline.json"
    baseline = (
        json.loads(baseline_path.read_text(encoding="utf-8"))
        if baseline_path.exists() else None
    )
    rows = compare(a, b, contract, baseline)
    for row in rows:
        change = (row["b"] - row["a"]) / abs(row["a"]) if row["a"] else 0.0
        print(
            f"{row['workload']:18s} {row['metric']:32s} {row['a']:14.4f} "
            f"{row['b']:14.4f} {row['unit']:6s} {100 * change:+7.1f}% {row['verdict']}"
        )
    speed_a, speed_b = machine_speed(a), machine_speed(b)
    if speed_a and speed_b:
        drift = (speed_b - speed_a) / speed_a
        print(f"machine calibration: A {speed_a:.1f} ms  B {speed_b:.1f} ms ({100 * drift:+.1f}%)")
        if abs(drift) > CALIBRATION_TOLERANCE:
            print("WARNING: the machine ran at different speeds for A and B; "
                  "timing verdicts above say more about the machine than the code")
    share_a, share_b = failed_share(a), failed_share(b)
    print(f"failed share: A {share_a:.6f}  B {share_b:.6f}")
    tally: Dict[str, int] = {}
    for row in rows:
        if row["verdict"]:
            tally[row["verdict"]] = tally.get(row["verdict"], 0) + 1
    print("end-to-end verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(tally.items())))
    return 1 if tally.get("worse") or share_b > share_a else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
