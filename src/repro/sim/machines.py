"""Calibrated machine models for the paper's experiment platforms (§5).

Each entry reproduces the documented hardware of one machine used in the
paper, with per-workload-class IPC / stall / calibration-bias parameters
chosen so the *measured* experiment outcomes land where the paper reports
them:

* ``thinkie``  — Intel Core i7 M620 laptop, 4 cores, 8 GB, local SSD;
  the machine all profiling runs use (E.1/E.2).
* ``stampede`` — 2× 8-core Xeon E5-2680 (Sandy Bridge), 32 GB, local HDD.
* ``archer``   — Cray XC30, 2× 12-core E5-2697v2 (Ivy Bridge), 64 GB.
* ``supermic`` — 2× 10-core E5-2680 (Ivy Bridge-EP), 128 GB, Lustre;
  measured sustained clock ≈ 3.59 GHz (§5 E.3).
* ``comet``    — 2× 12-core E5-2680v3, 128 GB, NFS; sustained ≈ 2.89 GHz.
* ``titan``    — 16-core AMD Opteron 6274, 32 GB, Lustre.
* ``localhost``— a generic modern node for examples and quick tests.

Calibration notes
-----------------
*Application IPC* on Comet (2.17) and Supermic (2.04) are the paper's
measured Fig 11 values, as are the sustained kernel IPCs (C: 2.80 / 2.53,
ASM: 3.30 / 2.86).  The kernel *calibration* IPCs encode the E.3 cycle
error convergence (C: ~3.5 % / ~4.0 %, ASM: ~14.5 % / ~26.5 %) via
``bias = calib_ipc / ipc``.  The Lustre model is shared verbatim between
Titan and Supermic because the paper finds "Lustre performs very similar
for both resources", while the local filesystems differ strongly.
"""

from __future__ import annotations

from repro.parallel.scaling import ScalingModel
from repro.sim.filesystem import FilesystemModel
from repro.sim.resource import CPUModel, MachineSpec, MemoryModel, WorkloadClassSpec

__all__ = ["get_machine", "list_machines", "resolve_machine", "MACHINES"]

_GB = 1 << 30


def _classes(
    app_md: tuple[float, float],
    asm: tuple[float, float],
    c_kernel: tuple[float, float],
    python: tuple[float, float] = (0.55, 1.05),
) -> dict[str, WorkloadClassSpec]:
    """Build a workload-class table from (ipc, cycle_bias) pairs."""

    def kernel(ipc: float, bias: float, stall: float) -> WorkloadClassSpec:
        return WorkloadClassSpec(
            ipc=ipc, calib_ipc=ipc * bias, stall_ratio=stall
        )

    app_ipc, app_stall = app_md
    return {
        "app.md": WorkloadClassSpec(ipc=app_ipc, stall_ratio=app_stall),
        "app.generic": WorkloadClassSpec(ipc=app_ipc * 0.85, stall_ratio=0.6),
        "app.startup": WorkloadClassSpec(ipc=1.1, stall_ratio=0.9),
        "app.io": WorkloadClassSpec(ipc=0.9, stall_ratio=1.1),
        "kernel.asm": kernel(asm[0], asm[1], stall=0.12),
        "kernel.c": kernel(c_kernel[0], c_kernel[1], stall=0.45),
        "kernel.python": kernel(python[0], python[1], stall=1.4),
        "kernel.sleep": WorkloadClassSpec(ipc=1.0, stall_ratio=0.0),
    }


# The shared Lustre mount (identical parameters on Titan and Supermic —
# "likely access the same Lustre metadata service and I/O node").
_LUSTRE = FilesystemModel(
    name="lustre",
    kind="lustre",
    read_latency=0.8e-3,
    write_latency=8e-3,
    read_bandwidth=6e8,
    write_bandwidth=1.5e8,
    cache_bandwidth=2.5e9,
    cache_hit_fraction=0.7,
)

_NFS = FilesystemModel(
    name="nfs",
    kind="nfs",
    read_latency=1.2e-3,
    write_latency=15e-3,
    read_bandwidth=2.5e8,
    write_bandwidth=6e7,
    cache_bandwidth=1.5e9,
    cache_hit_fraction=0.3,
)


def _thinkie() -> MachineSpec:
    return MachineSpec(
        name="thinkie",
        description="Intel Core i7 M620, 4 cores, 8GB, Intel SSD 320 (profiling host)",
        cpu=CPUModel(
            frequency=2.67e9,
            cores=4,
            classes=_classes(
                app_md=(1.90, 0.55), asm=(2.90, 1.030), c_kernel=(2.40, 1.015)
            ),
        ),
        memory_bytes=8 * _GB,
        memory=MemoryModel(),
        filesystems={
            "local": FilesystemModel(
                name="local",
                kind="local-ssd",
                read_latency=30e-6,
                write_latency=150e-6,
                read_bandwidth=1.2e9,
                write_bandwidth=4.5e8,
                cache_bandwidth=3e9,
                cache_hit_fraction=0.5,
            )
        },
        scaling={
            "openmp": ScalingModel(0.975, 0.006),
            "mpi": ScalingModel(0.975, 0.008),
        },
        noise_sigma=0.015,
    )


def _stampede() -> MachineSpec:
    return MachineSpec(
        name="stampede",
        description="2x 8-core Xeon E5-2680 (Sandy Bridge), 32GB, local 250GB HDD",
        cpu=CPUModel(
            frequency=2.7e9,
            cores=16,
            classes=_classes(
                app_md=(2.05, 0.50), asm=(3.10, 1.047), c_kernel=(2.70, 1.030)
            ),
        ),
        memory_bytes=32 * _GB,
        filesystems={
            "local": FilesystemModel(
                name="local",
                kind="local-hdd",
                read_latency=0.5e-3,
                write_latency=4e-3,
                read_bandwidth=1.5e8,
                write_bandwidth=1.1e8,
                cache_bandwidth=2.5e9,
                cache_hit_fraction=0.45,
            )
        },
        scaling={
            "openmp": ScalingModel(0.985, 0.005),
            "mpi": ScalingModel(0.985, 0.006),
        },
        noise_sigma=0.015,
    )


def _archer() -> MachineSpec:
    return MachineSpec(
        name="archer",
        description="Cray XC30, 2x 12-core E5-2697v2 (Ivy Bridge), 64GB, local /tmp",
        cpu=CPUModel(
            frequency=2.7e9,
            cores=24,
            classes=_classes(
                app_md=(2.10, 0.48), asm=(3.15, 1.050), c_kernel=(2.75, 1.030)
            ),
        ),
        memory_bytes=64 * _GB,
        filesystems={
            "local": FilesystemModel(
                name="local",
                kind="local-hdd",
                read_latency=0.6e-3,
                write_latency=5e-3,
                read_bandwidth=1.3e8,
                write_bandwidth=9e7,
                cache_bandwidth=2.5e9,
                cache_hit_fraction=0.45,
            )
        },
        scaling={
            "openmp": ScalingModel(0.985, 0.005),
            "mpi": ScalingModel(0.988, 0.005),
        },
        noise_sigma=0.012,
    )


def _supermic() -> MachineSpec:
    return MachineSpec(
        name="supermic",
        description="2x 10-core Xeon E5-2680 (Ivy Bridge-EP), 128GB, Lustre",
        cpu=CPUModel(
            # Sustained clock measured in E.3: ~3.58-3.60 GHz.
            frequency=3.59e9,
            cores=20,
            classes=_classes(
                app_md=(2.04, 0.52), asm=(2.86, 1.265), c_kernel=(2.53, 1.040)
            ),
        ),
        memory_bytes=128 * _GB,
        filesystems={
            "lustre": _LUSTRE,
            "local": FilesystemModel(
                name="local",
                kind="local-hdd",
                read_latency=0.4e-3,
                write_latency=3e-3,
                read_bandwidth=2.5e8,
                write_bandwidth=1e8,
                cache_bandwidth=2e9,
                cache_hit_fraction=0.4,
            ),
        },
        default_fs="lustre",
        scaling={
            "openmp": ScalingModel(0.990, 0.009),
            "mpi": ScalingModel(0.992, 0.0045),
        },
        noise_sigma=0.02,
    )


def _comet() -> MachineSpec:
    return MachineSpec(
        name="comet",
        description="2x 12-core Xeon E5-2680v3, 128GB, NFS",
        cpu=CPUModel(
            # Sustained clock measured in E.3: ~2.88-2.90 GHz.
            frequency=2.89e9,
            cores=24,
            classes=_classes(
                app_md=(2.17, 0.50), asm=(3.30, 1.145), c_kernel=(2.80, 1.035)
            ),
        ),
        memory_bytes=128 * _GB,
        filesystems={
            "nfs": _NFS,
            "local": FilesystemModel(
                name="local",
                kind="local-ssd",
                read_latency=0.2e-3,
                write_latency=1.5e-3,
                read_bandwidth=4e8,
                write_bandwidth=1.8e8,
                cache_bandwidth=2.5e9,
                cache_hit_fraction=0.5,
            ),
        },
        default_fs="nfs",
        scaling={
            "openmp": ScalingModel(0.988, 0.006),
            "mpi": ScalingModel(0.990, 0.005),
        },
        noise_sigma=0.015,
    )


def _titan() -> MachineSpec:
    return MachineSpec(
        name="titan",
        description="16-core AMD Opteron 6274, 32GB DDR3, Lustre (OLCF)",
        cpu=CPUModel(
            frequency=2.2e9,
            cores=16,
            classes=_classes(
                app_md=(1.40, 0.75), asm=(2.10, 1.060), c_kernel=(1.80, 1.040)
            ),
        ),
        memory_bytes=32 * _GB,
        filesystems={
            "lustre": _LUSTRE,
            "local": FilesystemModel(
                name="local",
                kind="local-ssd",
                read_latency=60e-6,
                write_latency=0.5e-3,
                read_bandwidth=8e8,
                write_bandwidth=3e8,
                cache_bandwidth=3e9,
                cache_hit_fraction=0.6,
            ),
        },
        default_fs="lustre",
        # Titan shows more consistent runs (smaller error bars, Fig 12)
        # and OpenMP outperforms OpenMPI there; the opposite of Supermic.
        scaling={
            "openmp": ScalingModel(0.992, 0.0035),
            "mpi": ScalingModel(0.992, 0.0070),
        },
        noise_sigma=0.008,
    )


def _localhost() -> MachineSpec:
    return MachineSpec(
        name="localhost",
        description="Generic modern workstation (examples / quick tests)",
        cpu=CPUModel(
            frequency=3.0e9,
            cores=8,
            classes=_classes(
                app_md=(2.2, 0.45), asm=(3.2, 1.04), c_kernel=(2.8, 1.02)
            ),
        ),
        memory_bytes=16 * _GB,
        filesystems={
            "local": FilesystemModel(name="local", kind="local-ssd"),
        },
        scaling={
            "openmp": ScalingModel(0.985, 0.005),
            "mpi": ScalingModel(0.985, 0.006),
        },
        noise_sigma=0.01,
    )


#: Registry of machine factories, keyed by machine name.
MACHINES = {
    "thinkie": _thinkie,
    "stampede": _stampede,
    "archer": _archer,
    "supermic": _supermic,
    "comet": _comet,
    "titan": _titan,
    "localhost": _localhost,
}

_CACHE: dict[str, MachineSpec] = {}


def get_machine(name: str) -> MachineSpec:
    """Look up a machine model by name (specs are shared and read-only)."""
    if name not in MACHINES:
        raise KeyError(f"unknown machine {name!r}; available: {sorted(MACHINES)}")
    if name not in _CACHE:
        _CACHE[name] = MACHINES[name]()
    return _CACHE[name]


def list_machines() -> list[str]:
    """Names of all registered machine models."""
    return sorted(MACHINES)


def resolve_machine(machine: MachineSpec | str) -> MachineSpec:
    """Pass specs through unchanged; look up names in the registry."""
    if isinstance(machine, str):
        return get_machine(machine)
    return machine
