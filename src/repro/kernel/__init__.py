"""Compiled synopsis kernels: the engine of the Section 4 path join.

A :class:`SynopsisKernel` is an immutable per-synopsis artifact compiled
lazily from one (encoding table, p-statistics provider) pair.  It interns
every tag's path ids into dense integer indexes with ``array``-backed
frequency tables, precomputes per-(tag, tag) containment bitmatrices for
both axes, and runs the path join on Python-int bitsets — in every mode
(fixpoint or single pass, depth-consistent or pairwise) and for every
provider kind.  :func:`repro.core.pathjoin.path_join` always runs here,
on the kernel :func:`live_kernel` keeps for the provider.

The join itself lives in :mod:`repro.kernel.join`, loaded on the first
join: it builds on :mod:`repro.core.pathjoin`'s ``JoinResult``, which in
turn imports :func:`live_kernel` from here.
"""

from repro.kernel.compiled import (
    SynopsisKernel,
    adopt_kernel,
    drop_kernel,
    live_kernel,
    peek_kernel,
    popcount,
)

__all__ = [
    "SynopsisKernel",
    "adopt_kernel",
    "drop_kernel",
    "live_kernel",
    "peek_kernel",
    "popcount",
]
