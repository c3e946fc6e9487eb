"""Reading recorded runs: ``compare``, the layer table and the digest file.

Runs are the JSON lines ``bench/run.py --out FILE`` appends, one per run.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

from bench.stats import quartiles, relative_spread


def load_runs(path: Path) -> List[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def _by_workload(runs: List[dict], traced: bool) -> Dict[str, List[dict]]:
    groups: Dict[str, List[dict]] = defaultdict(list)
    for run in runs:
        if bool(run["trace"]) == traced and not run.get("quick"):
            groups[run["workload"]].append(run)
    return groups


def verdict(before: List[float], after: List[float], better: str,
            bound: float) -> Tuple[float, str]:
    """``(relative change, verdict)`` of ``after`` against ``before``.

    The change is signed so that positive means worse.  ``worse`` and
    ``better`` need the medians to differ by more than the bound, or by
    more than the runs' spread when that is the smaller.  When either
    set's spread exceeds the bound the sets cannot show a regression of
    the bound's size: the verdict is ``unresolved`` unless every run of
    one set beats every run of the other.
    """
    # Flip "higher is better" metrics so that larger always means worse.
    sign = 1.0 if better == "lower" else -1.0
    before = [sign * value for value in before]
    after = [sign * value for value in after]
    base = statistics.median(before)
    change = (statistics.median(after) - base) / abs(base)
    spread = max(relative_spread(before), relative_spread(after))
    if spread > bound:
        if min(after) > max(before):
            return change, "worse"
        if max(after) < min(before):
            return change, "better"
        return change, "unresolved"
    if change > bound:
        return change, "worse"
    if -change > spread:
        return change, "better"
    return change, "same"


def compare(before: List[dict], after: List[dict], declared: dict) -> Tuple[str, bool]:
    """Render the comparison table; the flag is False on any regression or
    digest difference."""
    a_sets, b_sets = _by_workload(before, False), _by_workload(after, False)
    lines = [
        f"{'workload':<18} {'metric':<17} {'A median [q1, q3]':>28} "
        f"{'B median [q1, q3]':>28} {'change':>8} {'bound':>6}  verdict"
    ]
    ok = True
    for workload in sorted(set(a_sets) & set(b_sets)):
        a_runs, b_runs = a_sets[workload], b_sets[workload]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            change, outcome = verdict(a, b, metric["better"], metric["bound"])
            ok &= outcome != "worse"
            qa, qb = quartiles(a), quartiles(b)
            lines.append(
                f"{workload:<18} {name:<17} "
                f"{qa[1]:>10.3f} [{qa[0]:>7.2f}, {qa[2]:>7.2f}] "
                f"{qb[1]:>10.3f} [{qb[0]:>7.2f}, {qb[2]:>7.2f}] "
                f"{100 * change:>+7.1f}% {100 * metric['bound']:>5.0f}%  {outcome}"
            )
        a_digests = {run["seed"]: run["digests"] for run in a_runs}
        b_digests = {run["seed"]: run["digests"] for run in b_runs}
        common = sorted(set(a_digests) & set(b_digests))
        differ = [seed for seed in common if a_digests[seed] != b_digests[seed]]
        ok &= not differ
        status = (f"DIFFER on seeds {differ}" if differ
                  else f"equal on {len(common)} common seed(s)")
        lines.append(f"{workload:<18} {'digests':<17} {status} "
                     f"(A: {len(a_runs)} runs, B: {len(b_runs)} runs)")
    return "\n".join(lines), ok


def layer_table(runs: List[dict], declared: dict) -> str:
    """Markdown: per workload, median self-time share of every span name
    over its traced runs, then the median of each per-layer metric."""
    out: List[str] = []
    for workload, traced in sorted(_by_workload(runs, True).items()):
        names = sorted({name for run in traced for name in run["shares"]})
        shares = {
            name: statistics.median(run["shares"].get(name, 0.0) for run in traced)
            for name in names
        }
        out += [f"## {workload}", "",
                f"{len(traced)} traced run(s), seeds "
                f"{sorted(run['seed'] for run in traced)}.", "",
                "| span (layer.operation) | self time, % of client time |",
                "|---|---:|"]
        for name, share in sorted(shares.items(), key=lambda item: -item[1]):
            out.append(f"| {name} | {share:.1f} |")
        out += [f"| sum of the rows | {sum(shares.values()):.1f} |",
                "", "| per-layer metric | median | unit |", "|---|---:|---|"]
        for metric in declared["per_layer"]:
            value = statistics.median(
                run["metrics"][metric["name"]]["value"] for run in traced
            )
            out.append(f"| {metric['name']} | {value:.3f} | {metric['unit']} |")
        out.append("")
    return "\n".join(out)


def digest_table(runs: List[dict], seconds: int) -> dict:
    """The ``bench/digests.json`` document for full-length runs."""
    table: Dict[str, Dict[str, List[str]]] = defaultdict(dict)
    for run in runs:
        if run["seconds"] != seconds or run.get("quick") or not run["correct"]:
            continue
        seeds = table[run["workload"]]
        seed = str(run["seed"])
        if seeds.setdefault(seed, run["digests"]) != run["digests"]:
            raise ValueError(f"{run['workload']} seed {seed}: runs disagree on "
                             f"the result digests; the program is not deterministic")
    return {
        "seconds": seconds,
        "workloads": {
            workload: dict(sorted(seeds.items(), key=lambda item: int(item[0])))
            for workload, seeds in sorted(table.items())
        },
    }
