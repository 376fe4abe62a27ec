"""The reference kernel: fixed work that no regopen code runs.

Every timed operation is followed by reference runs, timed the same way:
in-process workloads call :func:`kernel`, and the cli workload runs this
file in a fresh interpreter, since its operations are processes.
On a shared host the speed of a core moves by up to 2x, in phases that
last from milliseconds to minutes.  CPU time moves with it, as the
slowdown comes from the neighbours on the core and not from being
descheduled.  An operation's time over the reference time measured
around it cancels that speed.

    python3 bench/reference.py
"""
from fractions import Fraction

TERMS = 120


def kernel() -> Fraction:
    """A harmonic sum in stdlib Fractions."""
    total = Fraction(0)
    for i in range(1, TERMS):
        total += Fraction(1, i)
    return total


if __name__ == "__main__":
    kernel()
