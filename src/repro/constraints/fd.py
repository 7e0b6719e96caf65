"""Functional-dependency utilities.

Algorithm 4 (constraint-aware sequencing) consumes "FDs from Phi":
:func:`extract_fds` reads them off the DC list.  While sampling, each
FD counts in its violation index (:mod:`repro.constraints.index`),
which also keeps a hard FD the way §7.3.6's determinant -> dependent
lookup does.
"""

from __future__ import annotations


def extract_fds(dcs) -> list[tuple[tuple[str, ...], str, object]]:
    """Return ``(determinant, dependent, dc)`` for each FD-shaped DC.

    Order follows the input DC list; non-FD constraints are skipped.
    """
    out = []
    for dc in dcs:
        fd = dc.as_fd()
        if fd is not None:
            out.append((fd[0], fd[1], dc))
    return out
