"""End-to-end benchmark of the fact-checking service (see ``bench/README.md``).

``python3 bench/run.py --workload NAME`` measures one run;
``python -m bench compare A B`` compares two sets of recorded runs.
"""
