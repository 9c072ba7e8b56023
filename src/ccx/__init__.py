"""Desk-scale bi-temporal change captioning pipeline.

Subpackages cover a dense-tensor autodiff engine, a miniature ViT-style
image encoder, a difference-aware feature enhancement module, a small
autoregressive caption decoder, the standard caption metric suite
(BLEU / METEOR / ROUGE-L / CIDEr-D), a deterministic synthetic dataset
generator, and a three-stage training harness.

Importing ``ccx`` sets the process's allocator policy once (see
``_keep_freed_heap``).
"""

import ctypes
import warnings

__version__ = "0.1.0"

# glibc's mallopt parameters (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


def _keep_freed_heap():
    """Keep the heap a train step frees for the next step to reuse.

    A step frees its whole graph and the next one allocates it again. By
    default glibc serves arrays above a moving threshold by ``mmap`` and
    returns the freed top of the heap to the kernel, so every step faults
    its working set in again (about 4.8k minor faults per default train
    step). Both thresholds are pinned: arrays up to 32 MiB (glibc's
    largest allowed mmap threshold on 64-bit) come from the heap, and the
    heap is trimmed only once 1 GiB at its top is free. Pinning the trim
    threshold alone would also switch off the dynamic mmap threshold,
    which faults more than today. The cost is that the process's resident
    size stays at its peak after a step. Where libc has no ``mallopt``
    (not glibc), the allocator is left as it is.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # the trim threshold is set only once the mmap threshold holds
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20) != 1 or mallopt(_M_TRIM_THRESHOLD, 1 << 30) != 1:
        warnings.warn("ccx: mallopt refused the heap thresholds; freed memory goes "
                      "back to the kernel after each step", RuntimeWarning, stacklevel=2)


_keep_freed_heap()
