"""Base lowering pass: portable kernel IR -> compilable kernel source.

One :class:`Lowering` walks a :class:`~repro.accel.ir.ProgramIR` and
emits the kernel-program artefact the simulated frameworks compile with
:func:`~repro.accel.kernelgen.compile_kernel_program`.  The backends
subclass it (:mod:`repro.accel.lower_cuda`,
:mod:`repro.accel.lower_opencl`, :mod:`repro.accel.lower_cpu`) and differ
only where the paper says they must: framework keywords
(:class:`~repro.accel.kernelgen.MacroSet`) and per-backend launch
decorations.  The kernel variant shapes the IR's iteration space, the
perf model's pricing and one header comment, never the arithmetic.

**Bit-identity contract.**  Every emitted program imports its numerics
from :mod:`repro.core.compute` — ``lift`` for each inner product,
``transition`` for the matrix exponential and ``site_sum`` for the site
reductions — the same functions the CPU backends call.  Backends
therefore cannot differ in arithmetic, and double-precision
log-likelihoods and gradients are bitwise equal across every backend
except the ``cpu-serial`` oracle (see ``tests/test_ir_lowering.py``).

This module also hosts :func:`fit_config_for_device` — the single
clamp-and-backstop fitting policy that was previously copied between
``CudaInterface.build_program``, ``OpenCLInterface.build_program``, and
``KernelConfigValidator.suggest``.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.accel.device import DeviceSpec
from repro.accel.ir import (
    AccumulateLogFactors,
    Barrier,
    Comment,
    DynamicRescale,
    FusedDispatch,
    GradientReduce,
    Guarded,
    InnerProduct,
    KernelIR,
    LocalTile,
    LogWithScale,
    MatrixExpADB,
    Multiply,
    ProgramIR,
    SiteReduce,
    StateGather,
    Stmt,
)
from repro.accel.kernelgen import (
    KernelConfig,
    MacroSet,
    fit_pattern_block_size,
    fit_workgroup_block,
    fits_local_memory,
)

# ---------------------------------------------------------------------------
# Shared configuration fitting (the former cuda/opencl duplicate)
# ---------------------------------------------------------------------------


def fit_config_for_device(
    config: KernelConfig,
    device: DeviceSpec,
    variant: Optional[str] = None,
) -> KernelConfig:
    """Clamp a requested config to one device's hard limits.

    Applies, in order, the paper's accommodations (sections VII-B.1/2):

    * ``pattern_block_size`` halved until local-memory staging fits
      (AMD codon accommodation), then until ``block × states`` respects
      the device work-group cap (GCN's 256 vs NVIDIA's 1024);
    * local staging only for the gpu variant and only where it fits —
      otherwise global-memory access with the caches managing reuse;
    * FMA only on hardware that has it (Table IV);
    * ``workgroup_patterns`` clamped to the device work-group cap.

    ``variant`` overrides the requested kernel variant (the OpenCL
    interface forces it per processor type).  This is the one fitting
    policy shared by every backend's ``build_program``, by
    ``KernelConfigValidator.suggest``, and by the autotuner's candidate
    enumeration — previously three copies.
    """
    fitted_variant = config.variant if variant is None else variant
    block = fit_pattern_block_size(
        config.state_count,
        config.precision,
        device.local_mem_kb,
        preferred=config.pattern_block_size,
    )
    if fitted_variant == "gpu":
        block = fit_workgroup_block(
            block, config.state_count, device.max_workgroup_size
        )
    use_local = fitted_variant == "gpu" and fits_local_memory(
        config.state_count, config.precision, device.local_mem_kb, block
    )
    return KernelConfig(
        state_count=config.state_count,
        precision=config.precision,
        variant=fitted_variant,
        use_fma=config.use_fma and device.supports_fma,
        pattern_block_size=block,
        workgroup_patterns=min(
            config.workgroup_patterns, device.max_workgroup_size
        ),
        category_count=config.category_count,
        use_local_memory=use_local,
    )


#: How each variant schedules the state reduction (section VII-B.2).  It
#: is only a comment in the program: every variant computes the product
#: with the same :func:`repro.core.compute.lift`.
_STATE_SCHEDULE = {
    "gpu": "one work-item per (pattern, state), {KW_LOCAL_MEM} tiles",
    "x86": "each work-item loops over the state space",
    "cpu": "one batched product per pattern block on host SIMD",
}


class LoweringError(ValueError):
    """A lowering pass cannot realise the given IR."""


class Lowering:
    """Base lowering: IR -> Python-source kernel program.

    Subclasses set :attr:`lowering_name`, may restrict
    :attr:`supported_variants`, and may override :meth:`header_extra`
    for backend-specific launch decoration.  Everything numeric is
    emitted here, identically for every backend.
    """

    lowering_name = "generic"
    #: Kernel variants this backend can realise.
    supported_variants = ("gpu", "x86", "cpu")

    def __init__(self, config: KernelConfig, macros: MacroSet) -> None:
        if config.variant not in self.supported_variants:
            raise LoweringError(
                f"{type(self).__name__} cannot lower the "
                f"{config.variant!r} variant (supports "
                f"{self.supported_variants})"
            )
        self.config = config
        self.macros = macros

    # -- formatting helpers -------------------------------------------------

    def macro_map(self) -> Dict[str, object]:
        """Template fields available to comments and docstrings."""
        return {
            "KW_GLOBAL_KERNEL": self.macros.kw_global_kernel,
            "KW_DEVICE_MEM": self.macros.kw_device_mem,
            "KW_LOCAL_MEM": self.macros.kw_local_mem,
            "KW_THREAD_FENCE": self.macros.kw_thread_fence,
            "VARIANT": self.config.variant,
        }

    def workgroup_size(self) -> int:
        """Work-items per work-group the launch geometry will request."""
        if self.config.variant == "gpu":
            return self.config.pattern_block_size * self.config.state_count
        return self.config.workgroup_patterns

    def header_extra(self) -> List[str]:
        """Backend-specific header lines (launch decoration)."""
        return []

    # -- top-level emission --------------------------------------------------

    def lower(self, program: ProgramIR) -> str:
        """Emit the full kernel-program source for ``program``.

        Validates before emitting: structural checks
        (:meth:`ProgramIR.validate`) raise directly, then the dataflow
        verifier (:mod:`repro.analysis.irverify`) gates emission on
        error-severity hazards — a racy tile body or divergent barrier
        never reaches a framework compile, on any backend.
        """
        program.validate()
        from repro.analysis.diagnostics import (
            Severity,
            format_diagnostics,
            has_errors,
        )
        from repro.analysis.irverify import verify_program_ir

        diagnostics = verify_program_ir(program)
        if has_errors(diagnostics):
            errors = [
                d for d in diagnostics if d.severity >= Severity.ERROR
            ]
            raise LoweringError(
                "IR verification failed:\n"
                + format_diagnostics(errors)
            )
        config = self.config
        pattern_block = (
            config.pattern_block_size
            if config.variant == "gpu"
            else config.workgroup_patterns
        )
        local_bytes = (
            config.local_memory_bytes() if config.variant == "gpu" else 0
        )
        bar = "# " + "=" * 75
        lines = [
            bar,
            "# BEAGLE kernel program (generated -- do not edit)",
            "#",
            f"# framework          : {self.macros.framework}",
            f"# lowering           : {self.lowering_name}",
            f"# kernel qualifier   : {self.macros.kw_global_kernel}",
            f"# device memory      : {self.macros.kw_device_mem}",
            f"# local memory       : {self.macros.kw_local_mem}",
            f"# thread fence       : {self.macros.kw_thread_fence}",
            f"# sub-pointer access : {self.macros.subpointer_strategy}",
            "#",
            f"# STATE_COUNT        = {config.state_count}",
            f"# REAL               = {config.real_type}  "
            f"({config.precision} precision)",
            f"# VARIANT            = {config.variant}",
            f"# FP_FAST_FMA        = {config.use_fma}",
            f"# PATTERN_BLOCK_SIZE = {pattern_block}",
            f"# LOCAL_MEM_BYTES    = {local_bytes}",
            "# STATE_SCHEDULE     = "
            + _STATE_SCHEDULE[config.variant].format(**self.macro_map()),
            f"# IR_SIGNATURE       = {program.signature()}",
        ]
        lines.extend(self.header_extra())
        lines.extend([
            bar,
            "import numpy as np",
            "",
            "from repro.core.compute import lift, site_sum, transition",
            "",
            f"STATE_COUNT = {config.state_count}",
            f"REAL = np.{config.real_type}",
            f"USES_FMA = {config.use_fma}",
            f"PATTERN_BLOCK_SIZE = {pattern_block}",
        ])
        for kernel in program.kernels:
            lines.extend(["", ""])
            lines.extend(self._emit_kernel(kernel))
        lines.extend(["", "", "KERNELS = {"])
        for name in program.kernel_names:
            lines.append(f'    "{name}": {name},')
        lines.append("}")
        return "\n".join(lines) + "\n"

    # -- kernel emission ------------------------------------------------------

    def _emit_kernel(self, kernel: KernelIR) -> List[str]:
        lines = self._def_lines(kernel)
        if kernel.doc:
            doc = kernel.doc.format(**self.macro_map())
            doc_lines = doc.split("\n")
            if len(doc_lines) == 1:
                lines.append(f'    """{doc_lines[0]}"""')
            else:
                lines.append(f'    """{doc_lines[0]}')
                lines.extend(f"    {d}" for d in doc_lines[1:-1])
                lines.append(f'    {doc_lines[-1]}"""')
        for stmt in kernel.body:
            lines.extend(self._emit_stmt(stmt))
        return lines

    def _def_lines(self, kernel: KernelIR) -> List[str]:
        """The (wrapped) ``def`` statement; ``geom`` is always trailing."""
        names = [p.name for p in kernel.params] + ["geom"]
        head = f"def {kernel.name}("
        indent = " " * len(head)
        lines: List[str] = []
        current = head
        for i, name in enumerate(names):
            last = i == len(names) - 1
            piece = name + ("):" if last else ", ")
            if len(current) + len(piece) > 79 and current.strip() != "":
                lines.append(current.rstrip())
                current = indent
            current += piece
        lines.append(current)
        return lines

    def _emit_stmt(self, stmt: Stmt) -> List[str]:
        m = self.macro_map()
        if isinstance(stmt, Comment):
            return [f"    # {stmt.text.format(**m)}"]
        if isinstance(stmt, LocalTile):
            return [
                f"    # {m['KW_LOCAL_MEM']} tile {stmt.name}: "
                f"{stmt.contents} ({stmt.reals} REALs per work-group)."
            ]
        if isinstance(stmt, Barrier):
            return [
                f"    # {m['KW_THREAD_FENCE']} -- staged tiles visible "
                "to the whole work-group."
            ]
        if isinstance(stmt, InnerProduct):
            return [f"    {stmt.dest} = lift({stmt.partials}, {stmt.matrices})"]
        if isinstance(stmt, StateGather):
            return [
                f"    {stmt.dest} = {stmt.matrices_ext}"
                f"[..., {stmt.states}].swapaxes(-1, -2)"
            ]
        if isinstance(stmt, Multiply):
            return [f"    np.multiply({stmt.a}, {stmt.b}, out={stmt.dest})"]
        if isinstance(stmt, MatrixExpADB):
            return [
                f"    expd = np.exp(np.multiply.outer("
                f"{stmt.lengths_rates}, {stmt.eigenvalues}))",
                f"    p = transition({stmt.eigenvectors}, expd, "
                f"{stmt.inv_eigenvectors})",
                "    p = np.clip(p.real if np.iscomplexobj(p) else p, "
                "0.0, None)",
                f"    {stmt.dest}[...] = p.astype(REAL)",
            ]
        if isinstance(stmt, FusedDispatch):
            return [
                f"    for kind, args in {stmt.batch}:",
                "        KERNELS[kind](*args, geom)",
            ]
        if isinstance(stmt, Guarded):
            lines = [f"    if {stmt.cond}:"]
            for inner in stmt.body:
                lines.extend("    " + ln for ln in self._emit_stmt(inner))
            return lines
        if isinstance(stmt, DynamicRescale):
            return [
                f"    maxima = {stmt.partials}.max(axis=(0, 2))",
                f"    needs = (maxima > 0.0) & (maxima < {stmt.threshold})",
                "    safe = np.where(needs, maxima, 1.0)",
                f"    {stmt.partials} /= safe[np.newaxis, :, np.newaxis]",
                f"    {stmt.scale_factors_log}[...] = np.log(safe)",
            ]
        if isinstance(stmt, AccumulateLogFactors):
            return [
                f"    for buf in {stmt.factor_buffers}:",
                f"        {stmt.cumulative} += buf",
            ]
        if isinstance(stmt, SiteReduce):
            return [
                f"    site = site_sum({stmt.weights},",
                f"                    ({stmt.partials_expr})"
                ".astype(np.float64),",
                f"                    {stmt.frequencies})",
            ]
        if isinstance(stmt, GradientReduce):
            lines = []
            for site, lifted in (("f", stmt.lifted), ("f1", stmt.lifted1),
                                 ("f2", stmt.lifted2)):
                pad = " " * (len(site) + 12)
                lines.extend([
                    f"    {site} = site_sum({stmt.weights},",
                    f"    {pad}({stmt.parent} * {lifted})"
                    ".astype(np.float64),",
                    f"    {pad}{stmt.frequencies})",
                ])
            lines.extend([
                '    with np.errstate(divide="ignore", invalid="ignore"):',
                "        log_site = np.log(f)",
                "        g1 = f1 / f",
                "        g2 = f2 / f - g1 * g1",
                f"    if {stmt.scale} is not None:",
                "        # Scale factors are branch-length independent: an",
                "        # additive constant on logL, zero on d1/d2.",
                f"        log_site = log_site + {stmt.scale}",
                f"    {stmt.out_log_like}[...] = log_site",
                f"    {stmt.out_d1}[...] = g1",
                f"    {stmt.out_d2}[...] = g2",
            ])
            return lines
        if isinstance(stmt, LogWithScale):
            return [
                '    with np.errstate(divide="ignore"):',
                "        log_site = np.log(site)",
                f"    if {stmt.scale} is not None:",
                f"        log_site = log_site + {stmt.scale}",
                f"    {stmt.out}[...] = log_site",
            ]
        raise LoweringError(
            f"no emitter for IR statement {type(stmt).__name__}"
        )


def lowering_for(config: KernelConfig, macros: MacroSet) -> Lowering:
    """Select the lowering pass for one (config, framework) pair.

    The cpu-vector lowering serves the ``cpu`` variant under either
    framework's macro set; otherwise the framework picks its own pass.
    """
    if config.variant == "cpu":
        from repro.accel.lower_cpu import CPUVectorLowering

        return CPUVectorLowering(config, macros)
    if macros.framework == "CUDA":
        from repro.accel.lower_cuda import CudaLowering

        return CudaLowering(config, macros)
    from repro.accel.lower_opencl import OpenCLLowering

    return OpenCLLowering(config, macros)
