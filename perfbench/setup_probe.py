"""Set-up cost of a fresh process: import grmcodes, then build every table.

Run as ``python3 perfbench/setup_probe.py <src-dir>``; prints one JSON line
with the total (``setup_s``) and the table-building part (``tables_s``).

numpy is imported before the clock starts.  Its import is a fixed cost no
change to grmcodes can move, and it swings by a factor of two with the
state of a shared host while the rest of the set-up does not.
"""

import json
import sys
import time

# every field in the table and every designated quadratic tower
FIELDS = (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 49, 64)
TOWERS = (2, 3, 4, 5, 7, 8)


def build_tables(gf) -> None:
    for q in FIELDS:
        gf.get_field(q)
    for base in TOWERS:
        gf.quadratic_extension(base)


if __name__ == "__main__":
    import numpy  # noqa: F401

    t0 = time.perf_counter()
    sys.path.insert(0, sys.argv[1])
    from grmcodes import gf

    t1 = time.perf_counter()
    build_tables(gf)
    t2 = time.perf_counter()
    print(json.dumps({"setup_s": t2 - t0, "tables_s": t2 - t1}))
