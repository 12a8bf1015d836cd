"""Keep the benchmark's own tests out of a bare ``pytest`` run.

Tier-1 (``python -m pytest -x -q`` from the repo root) would otherwise
collect ``test_ladder.py`` and spend two minutes starting servers.  A file
named on the command line is collected regardless, so
``python -m pytest benchmarks/ladder/test_ladder.py`` still runs it.
"""

collect_ignore = ["test_ladder.py"]
