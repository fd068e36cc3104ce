"""Pin BLAS to one thread for the whole suite (dmil.blas), as the CLI does,
so that the suite computes the same bits whatever the environment's
OPENBLAS_NUM_THREADS says."""

from dmil.blas import pin_one_thread

pin_one_thread()
