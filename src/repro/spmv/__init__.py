"""The TurboBC SpMV kernels.

The paper implements the masked sparse matrix--vector products of
Algorithm 1 (lines 19 and 37) with three kernels; the SpMV is up to 90 % of
total runtime, so kernel choice decides which TurboBC variant wins a graph:

============  =================  ===========================================
kernel        parallelisation    sweet spot
============  =================  ===========================================
``scCOOC``    thread per edge    regular graphs with degree outliers (the
                                 mawi traces): per-edge work is flat no
                                 matter how skewed the degrees are
``scCSC``     thread per column  regular graphs with near-uniform degrees:
                                 zero redundancy, but a warp stalls on its
                                 largest column (divergence)
``veCSC``     warp per column    irregular graphs: 32 lanes stream a column
                                 cooperatively with coalesced loads and a
                                 shuffle reduction
============  =================  ===========================================

This package adds three more over the same stored CSC: ``edgeCSC`` (the
scCOOC strategy with a per-thread ``CP_A`` lookup, for the adaptive
dispatcher), ``pullCSC`` (bottom-up, bitmap probes with an early exit) and
``tcSpMM`` (blocked 16x16 tiles on the simulated tensor cores).

All six compute the same product and differ only in cost.  Every kernel
function returns ``(y, KernelLaunch)`` from three calls:
:func:`repro.spmv._spmm.product` validates the operand and mask, runs the
one numeric engine and casts once, returning ``y`` with the counts the
kernel's pricing reads; the kernel module's cost function turns those
counts and the stored structure into the structure-exact ``KernelStats``
of the equivalent CUDA kernel; ``device.launch`` records it.  Each module
has one cost function per direction (gather, scatter), or one for both;
the SpMV is priced as a width-1 SpMM, with SpMV-only formulas as branches.

All "forward" kernels compute the gather product ``y = A^T x`` (per stored
entry ``(r, c)``: ``y[c] += x[r]``); the ``_scatter`` variants compute
``y = A x`` (``y[r] += x[c]``), which the backward stage of *directed*
graphs needs -- both read the same single stored format, preserving the
paper's one-format-per-run memory discipline.

Each kernel also has an ``_spmm`` variant that multiplies by an ``n x B``
frontier *matrix* (one column per BFS source) in a single launch: the sparse
structure is scanned once for the whole batch and frontier rows are loaded
B-wide (coalesced), which is what makes the batched driver fast.  Lane
results are bit-identical to B per-source SpMV calls (see
:mod:`repro.spmv._spmm`).
"""

from repro.spmv.edgecsc import (
    edgecsc_spmm,
    edgecsc_spmm_scatter,
    edgecsc_spmv,
    edgecsc_spmv_scatter,
)
from repro.spmv.sccooc import (
    sccooc_spmm,
    sccooc_spmm_scatter,
    sccooc_spmv,
    sccooc_spmv_scatter,
)
from repro.spmv.sccsc import (
    sccsc_spmm,
    sccsc_spmm_scatter,
    sccsc_spmv,
    sccsc_spmv_scatter,
)
from repro.spmv.veccsc import (
    veccsc_spmm,
    veccsc_spmm_scatter,
    veccsc_spmv,
    veccsc_spmv_scatter,
)
from repro.spmv.pullcsc import (
    pullcsc_spmm,
    pullcsc_spmm_scatter,
    pullcsc_spmv,
    pullcsc_spmv_scatter,
)
from repro.spmv.tcspmm import (
    tcspmm_spmm,
    tcspmm_spmm_scatter,
    tcspmm_spmv,
    tcspmm_spmv_scatter,
)
from repro.spmv.reference import (
    reference_spmm,
    reference_spmm_scatter,
    reference_spmv,
    reference_spmv_scatter,
)

KERNEL_NAMES = ("sccooc", "sccsc", "veccsc")
#: The PR-6 direction-optimised additions: the pull-mode (bottom-up) kernel
#: and the blocked tensor-core kernel.  Kept out of KERNEL_NAMES (the
#: paper's three static variants, which drive ``scf`` selection and the
#: baseline conformance loop) but exercised by their own conformance
#: configs, the kernel differential and the adaptive dispatcher.
EXTENDED_KERNEL_NAMES = KERNEL_NAMES + ("pullcsc", "tcspmm")

__all__ = [
    "KERNEL_NAMES",
    "EXTENDED_KERNEL_NAMES",
    "edgecsc_spmm",
    "edgecsc_spmm_scatter",
    "edgecsc_spmv",
    "edgecsc_spmv_scatter",
    "sccooc_spmm",
    "sccooc_spmm_scatter",
    "sccooc_spmv",
    "sccooc_spmv_scatter",
    "sccsc_spmm",
    "sccsc_spmm_scatter",
    "sccsc_spmv",
    "sccsc_spmv_scatter",
    "veccsc_spmm",
    "veccsc_spmm_scatter",
    "veccsc_spmv",
    "veccsc_spmv_scatter",
    "pullcsc_spmm",
    "pullcsc_spmm_scatter",
    "pullcsc_spmv",
    "pullcsc_spmv_scatter",
    "tcspmm_spmm",
    "tcspmm_spmm_scatter",
    "tcspmm_spmv",
    "tcspmm_spmv_scatter",
    "reference_spmm",
    "reference_spmm_scatter",
    "reference_spmv",
    "reference_spmv_scatter",
]
