"""Name of the GF(2) kernel, for run environments that record it.

There is one kernel per field: Python-int bitsets at p = 2 (`bitmat`)
and tuple rows of ints mod p otherwise (`modp`); nothing selects between
alternatives.
"""


def selected():
    """Name of the GF(2) kernel."""
    return "int-bitset"
