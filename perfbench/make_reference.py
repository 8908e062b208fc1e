"""Regenerate the probe-m400 reference data table.

Run from the root of a checkout as ``python3 perfbench/make_reference.py``.
The table holds the datum of every candidate centre at each of the four
amplitudes; the benchmark compares each measured datum with it. Regenerate
it only at a commit whose probe data are known to be right.
"""

import program

program.load()

import workloads  # noqa: E402  (needs the checkout's helmpert on the path)

if __name__ == "__main__":
    workloads.make_reference()
    print(f"wrote {workloads.PROBE_REFERENCE}")
