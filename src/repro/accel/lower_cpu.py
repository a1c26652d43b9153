"""CPU-vector lowering pass: portable kernel IR -> host-SIMD program.

The new backend the IR makes cheap: instead of emulating a GPU thread
grid or the OpenCL-on-CPU x86 variant's per-work-item state loop, the
``cpu`` variant hands each pattern work-group to the host's vector
units as one contiguous batched product.  Dispatch is x86-style (one
work-item per pattern, ``workgroup_patterns`` wide, no local memory);
the arithmetic is the shared :func:`repro.core.compute.lift` every
lowering emits, which keeps cpu-vector results bitwise equal to the
other backends.

The pass is framework-agnostic: it accepts whichever macro set the
owning interface speaks (OpenCL-on-CPU by default), since the emitted
program never touches device-specific keywords outside comments.

For the batched derivative kernels (``kernelEdgeDerivatives`` and the
fused ``kernelEdgeGradientsBatch``) the edge axis of the IR's iteration
space becomes the outer host loop: branches run serially on the host
while each branch's pattern block still feeds the vector units.
"""

from __future__ import annotations

from typing import List

from repro.accel.lower import Lowering


class CPUVectorLowering(Lowering):
    """Lower the IR for host execution with SIMD-width vectorisation."""

    lowering_name = "cpu-vector"
    supported_variants = ("cpu",)

    def header_extra(self) -> List[str]:
        return [
            f"# host SIMD dispatch  = {self.workgroup_size()} "
            "patterns per work-group",
        ]
