"""``explain()`` of the single-column-join workloads, as the formula-only
planner printed it (commit ``c55a403``, the parent of the PR that measures
composite keys): the eight ``serving_queries()`` over ``serving_relations()``
and the ladder's three ``join_100k`` queries over a 2,000-row slice.
``tests/test_engine_ordering.py`` requires today's planner to print the same
text, byte for byte, without drawing a sample.  The three serving roots
whose rows are distinct by construction carry the ``[distinct: no dedup]``
mark the planner added later; nothing else in the text moved.
"""

SERVING_PLANS = (
    (
        "project[A]  [est_rows=40.0 cost=3256.0]\n"
        "  hash join on (B) [build=right]  [est_rows=600.0 cost=2616.0]\n"
        "    scan R  [est_rows=600.0 cost=600.0]\n"
        "    project[B], no dedup (pushed)  [est_rows=17.0 cost=782.0]\n"
        "      scan S  [est_rows=391.0 cost=391.0]"
    ),
    (
        "project[A, C]  [est_rows=920.0 cost=30893.0]\n"
        "  hash join on (B) [build=right]  [est_rows=13800.0 cost=16173.0]\n"
        "    scan R  [est_rows=600.0 cost=600.0]\n"
        "    scan S  [est_rows=391.0 cost=391.0]"
    ),
    (
        "project[B, D]  [est_rows=153.0 cost=8594.0]\n"
        "  hash join on (C) [build=right]  [est_rows=3519.0 cost=4922.0]\n"
        "    scan S  [est_rows=391.0 cost=391.0]\n"
        "    scan T  [est_rows=207.0 cost=207.0]"
    ),
    (
        "project[A, D]  [est_rows=360.0 cost=21707.0]\n"
        "  hash join on (B) [build=right]  [est_rows=5400.0 cost=15947.0]\n"
        "    project[B, D] (pushed)  [est_rows=153.0 cost=8594.0]\n"
        "      hash join on (C) [build=right]  [est_rows=3519.0 cost=4922.0]\n"
        "        scan S  [est_rows=391.0 cost=391.0]\n"
        "        scan T  [est_rows=207.0 cost=207.0]\n"
        "    scan R  [est_rows=600.0 cost=600.0]"
    ),
    (
        "project[D]  [est_rows=9.0 cost=3888.0]\n"
        "  hash join on (C) [build=right]  [est_rows=207.0 cost=3672.0]\n"
        "    project[C] (pushed)  [est_rows=23.0 cost=2821.0]\n"
        "      hash join on (B) [build=left]  [est_rows=391.0 cost=2407.0]\n"
        "        project[B], no dedup (pushed)  [est_rows=17.0 cost=1200.0]\n"
        "          scan R  [est_rows=600.0 cost=600.0]\n"
        "        scan S  [est_rows=391.0 cost=391.0]\n"
        "    scan T  [est_rows=207.0 cost=207.0]"
    ),
    (
        "project[C]  [est_rows=23.0 cost=1357.0]  [distinct: no dedup]\n"
        "  hash join on (C) [build=right]  [est_rows=23.0 cost=1311.0]\n"
        "    project[C] (pushed)  [est_rows=23.0 cost=805.0]\n"
        "      scan S  [est_rows=391.0 cost=391.0]\n"
        "    project[C], no dedup (pushed)  [est_rows=23.0 cost=414.0]\n"
        "      scan T  [est_rows=207.0 cost=207.0]"
    ),
    (
        "project[A, B]  [est_rows=600.0 cost=3816.0]  [distinct: no dedup]\n"
        "  hash join on (B) [build=right]  [est_rows=600.0 cost=2616.0]\n"
        "    scan R  [est_rows=600.0 cost=600.0]\n"
        "    project[B], no dedup  [est_rows=17.0 cost=782.0]\n"
        "      scan S  [est_rows=391.0 cost=391.0]"
    ),
    (
        "project[A, C, D]  [est_rows=8280.0 cost=57274.0]  [distinct: no dedup]\n"
        "  hash join on (C) [build=right]  [est_rows=8280.0 cost=40714.0]\n"
        "    project[A, C] (pushed)  [est_rows=920.0 cost=30893.0]\n"
        "      hash join on (B) [build=right]  [est_rows=13800.0 cost=16173.0]\n"
        "        scan R  [est_rows=600.0 cost=600.0]\n"
        "        scan S  [est_rows=391.0 cost=391.0]\n"
        "    scan T  [est_rows=207.0 cost=207.0]"
    ),
)

JOIN_100K_PLANS = (
    (
        "project[G, K]  [est_rows=2000.0 cost=32000.0]\n"
        "  hash join on (P) [build=right]  [est_rows=2000.0 cost=28000.0]\n"
        "    hash join on (C) [build=left]  [est_rows=2000.0 cost=18000.0]\n"
        "      scan R  [est_rows=2000.0 cost=2000.0]\n"
        "      scan S  [est_rows=5000.0 cost=5000.0]\n"
        "    scan T  [est_rows=2000.0 cost=2000.0]"
    ),
    (
        "project[O, G]  [est_rows=2000.0 cost=22000.0]\n"
        "  hash join on (C) [build=left]  [est_rows=2000.0 cost=18000.0]\n"
        "    scan R  [est_rows=2000.0 cost=2000.0]\n"
        "    scan S  [est_rows=5000.0 cost=5000.0]"
    ),
    (
        "project[C, K]  [est_rows=2000.0 cost=16000.0]\n"
        "  hash join on (P) [build=right]  [est_rows=2000.0 cost=12000.0]\n"
        "    scan R  [est_rows=2000.0 cost=2000.0]\n"
        "    scan T  [est_rows=2000.0 cost=2000.0]"
    ),
)
