"""``python -m bench``: work with runs recorded by ``bench/run.py --out``.

Commands::

    python -m bench compare A.jsonl B.jsonl   # medians, quartiles, verdicts
    python -m bench layers RUNS.jsonl         # markdown layer breakdown
    python -m bench digests RUNS.jsonl ...    # rewrite bench/digests.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.report import compare, digest_table, layer_table, load_runs

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    commands = parser.add_subparsers(dest="command", required=True)
    compare_parser = commands.add_parser(
        "compare", help="compare two sets of runs (A = before, B = after)")
    compare_parser.add_argument("before", type=Path)
    compare_parser.add_argument("after", type=Path)
    layers_parser = commands.add_parser(
        "layers", help="print the layer breakdown of traced runs as markdown")
    layers_parser.add_argument("runs", type=Path)
    digests_parser = commands.add_parser(
        "digests", help="record result digests of full-length runs")
    digests_parser.add_argument("runs", type=Path, nargs="+")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.command == "compare":
        table, ok = compare(load_runs(args.before), load_runs(args.after), declared)
        print(table)
        return 0 if ok else 1
    if args.command == "layers":
        print(layer_table(load_runs(args.runs), declared))
        return 0
    runs = [run for path in args.runs for run in load_runs(path)]
    document = digest_table(runs, declared["run_seconds"])
    (ROOT / "bench" / "digests.json").write_text(json.dumps(document, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
