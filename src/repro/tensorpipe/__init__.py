"""The tensor compilation pipeline: esn -> teil -> affine (paper §V-A, Fig. 5).

This package implements the middle of the paper's Fig. 5: the Einstein
notation dialect (``esn``) is lowered into the Tensor Intermediate Language
(``teil``), which is then lowered into explicit ``affine`` loop nests over
``memref`` buffers — the form the HLS engine (:mod:`repro.hls`) synthesizes.
"""

from repro.tensorpipe.lower_esn import lower_esn_to_teil
from repro.tensorpipe.lower_teil import lower_teil_to_affine

__all__ = ["lower_esn_to_teil", "lower_teil_to_affine"]
