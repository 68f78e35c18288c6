"""A fixed computation that times the host, not the program.

Every request child runs ``reference_work`` once before it imports
ellwitt, in the same fresh process and so under the same host load as
the request that follows.  The runner scales each request's times by the
reference time measured next to it (see run.py), which takes the shared
host's drift out of the end-to-end metrics.  Nothing here touches
ellwitt, and it uses only built-in modules, so that it imports nothing
the program would otherwise import itself.
"""

from math import gcd

#: Sized so that the work takes about 30 ms on the reference machine.
RATIONAL_TERMS = 500
TABLE_ITEMS = 120_000

#: The reference time that the end-to-end metrics are scaled to: about
#: the work's time on the reference machine when the host is quiet.
NOMINAL_S = 0.025


def reference_work() -> int:
    """Exact rational sums in bigints, and a dict of lists: the kinds of
    work (bigint arithmetic, allocation, interpreted loops) the program
    itself does."""
    num, den = 0, 1
    squares = []
    for i in range(1, RATIONAL_TERMS):
        num, den = num * i + (i % 7 + 1) * den, den * i
        g = gcd(num, den)
        num, den = num // g, den // g
        squares.append(num * num)
    table = {}
    for i in range(TABLE_ITEMS):
        table.setdefault(i % 1009, []).append(i * i % 13)
    return len(squares) + len(table)
