"""Dual Meta Imitation Learning (DMIL): hierarchical meta imitation learning.

Importing the package sets the two process-wide settings that every caller
needs, whichever entry point it came through (the CLI, the pilot script,
the test suite, the benchmark or a library caller): BLAS on one thread, so
that runs are byte-identical (dmil.blas), and fixed malloc thresholds, so
that the hard-EM warm start reuses its freed memory (dmil.allocator).
"""

from . import allocator, blas

blas.pin_one_thread()
# Whether mallopt took both thresholds; the allocator's state cannot be read back.
MALLOC_THRESHOLDS_SET = allocator.set_thresholds()
