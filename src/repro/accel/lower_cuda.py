"""CUDA lowering pass: portable kernel IR -> CUDA-flavoured kernel program.

All numerics come from :mod:`repro.core.compute`, through the shared
:class:`~repro.accel.lower.Lowering` emitters; this pass only
contributes the CUDA launch decoration (``__launch_bounds__``) and
speaks through the CUDA macro set (``__global__`` qualifiers,
``CUdeviceptr`` device memory, pointer-arithmetic sub-buffer access).

For the batched derivative kernels (``kernelEdgeDerivatives`` and the
fused ``kernelEdgeGradientsBatch``) the edge axis of the IR's iteration
space maps onto ``blockIdx.x``: one thread block per branch, so an
N-branch gradient sweep is a single launch with an N-wide grid.
"""

from __future__ import annotations

from typing import List

from repro.accel.lower import Lowering


class CudaLowering(Lowering):
    """Lower the IR for the CUDA driver-API framework.

    Supports the ``gpu`` variant (one thread per partials entry, shared
    memory staging) and the ``x86`` variant (state loop per thread, used
    when the requested config asks for it).  The ``cpu`` variant belongs
    to :class:`~repro.accel.lower_cpu.CPUVectorLowering`.
    """

    lowering_name = "cuda"
    supported_variants = ("gpu", "x86")

    def header_extra(self) -> List[str]:
        return [
            f"# __launch_bounds__  = {self.workgroup_size()}",
        ]
