"""End-to-end and per-layer benchmark of the FastKron reproduction.

``perfbench/run.py`` is the command; this package holds its parts:

``stats``
    Percentiles, the sample-count rule, scheduled-send latency, span
    self-time and the roofline arithmetic.
``host``
    Host ceilings (GEMM peak, copy bandwidth) and the machine fingerprint.
``inputs``
    Every input a workload uses, derived from the workload seed.
``library``
    The in-process ``kmm-library`` workload and the library probes the
    served workloads reuse.
``served``
    The open-loop load generator of ``serve-small`` and ``serve-mixed`` and
    the server subprocess it drives.
``tracing``
    Span recording by wrapping public functions, and the per-layer
    attribution of served requests.
"""

#: Environment variables that set BLAS threading.  ``run.py`` pins every one
#: to 1 before numpy loads; child processes inherit the setting.
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
