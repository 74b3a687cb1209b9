"""Every code of Mat(N x M, F_Q) passes every check, and there are COUNT
of them.  The whole-shape sweeps of CI run it:

    python tests/check_every_code.py N M Q COUNT

Mat(2x2, F_2), with 67 codes, takes a fraction of a second.  The last
line names the elapsed seconds and the microseconds per code.
"""

import sys
import time

from qrank import all_codes, check_all, gf_new

n, m, q, expected = map(int, sys.argv[1:])
count, start = 0, time.perf_counter()
for C in all_codes(n, m, gf_new(q)):
    failed = [report for report in check_all(C) if not report.passed]
    assert not failed, (C, failed[0])
    count += 1
assert count == expected, count
elapsed = time.perf_counter() - start
print(count, f"codes of Mat({n}x{m}, F_{q}) pass every check in {elapsed:.1f} s, {1e6 * elapsed / count:.0f} us a code")
