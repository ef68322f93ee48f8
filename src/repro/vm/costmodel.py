"""Calibrated cost model.

The VM executes guest bytecode for real; simulated time is charged per
instruction, per native operation, per VMTI call, per byte serialized,
and per byte transferred.  The constants below are calibrated so the
reproduction's tables land in the same regime as the paper's (see
EXPERIMENTS.md for the calibration notes); the *shapes* — who wins,
what scales with heap size, what is bandwidth-bound — emerge from the
mechanisms, not from these constants.

Reference node: 2.53 GHz Xeon E5540 running Sun JDK 1.6 in JIT mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.units import ms, us


@dataclass
class VmtiCosts:
    """Per-call costs of the debug interface (paper section IV.A:
    'Most of the JVMTI functions ... finish within 1us.  However, some
    functions take much longer time (e.g. GetLocalInt take about 30us)'."""

    get_local: float = us(30)
    get_frame_location: float = us(1)
    get_local_variable_table: float = us(2)
    set_breakpoint: float = us(10)
    clear_breakpoint: float = us(5)
    raise_exception: float = us(20)
    pop_frame: float = us(20)
    force_early_return: float = us(20)
    get_static: float = us(2)
    set_static: float = us(2)
    get_object: float = us(5)


@dataclass
class CostModel:
    """All tunable costs for one VM/system configuration.

    Attributes:
        instr_seconds: time per executed bytecode instruction on the
            reference node.  Workload harnesses scale this to map reduced
            problem sizes onto paper-scale execution times (documented
            per experiment).
        exec_factor: multiplier on guest execution time for the hosting
            system (JDK 1.0; JESSICA2's old Kaffe JIT ≈ 4.1; execution
            in a Xen guest ≈ 2.2).
        agent_factor: multiplier when a debugger agent is attached but
            idle (the paper's C1: 0.1%-3.2%).
        serialize_spb / deserialize_spb: seconds per byte for Java-style
            object serialization (used by eager-copy and by SOD object
            fetches).
        serialized_expansion: Java serialization writes ~2x the nominal
            object bytes (class descriptors, handles).
        alloc_spb: seconds per byte for large allocations (JESSICA2
            allocates static arrays at class-load time; 64 MB ≈ 70 ms).
        native_base: base cost of any native call.
        search_spb: text scan cost per byte (string search kernels).
        vmti: per-call VMTI costs.
    """

    instr_seconds: float = 2e-9
    exec_factor: float = 1.0
    agent_factor: float = 1.0
    serialize_spb: float = 7e-9
    deserialize_spb: float = 13e-9
    serialized_expansion: float = 2.0
    alloc_spb: float = 1.1e-9
    native_base: float = us(0.5)
    search_spb: float = 3.3e-9
    #: optional cap on file-I/O throughput, bytes/s (the paper suspects
    #: "some bottlenecks exist in the I/O library of the [Kaffe] JVM
    #: implementation" — JESSICA2's Table VI gain is tiny because even
    #: local reads are bottlenecked); None = uncapped.
    io_bandwidth_cap: float | None = None
    #: multiplier on file-I/O time (Xen's virtualized I/O path).
    io_factor: float = 1.0
    vmti: VmtiCosts = field(default_factory=VmtiCosts)

    def io_time(self, fs_seconds: float, nbytes: int) -> float:
        """File read time under the JVM I/O cap / virtualization factor.
        A capped JVM pays the cap *plus* a fraction of the underlying
        path cost, so a faster path still helps a little (JESSICA2's
        2.88% Table VI gain)."""
        if self.io_bandwidth_cap is not None:
            return nbytes / self.io_bandwidth_cap + 0.1 * fs_seconds
        return fs_seconds * self.io_factor

    #: relative cost of specific opcodes (1.0 default), in whole cost
    #: ticks (:data:`repro.bytecode.code.TICKS_PER_WEIGHT`).  Field accesses
    #: are pricier than register moves; static accesses are cheap
    #: absolute-address loads/stores — mirrors the paper's Table V
    #: baseline times (field read 2.60 ns ... static write 0.13 ns).
    op_weights = {
        "GETF": 2.0, "PUTF": 2.6, "ALOAD": 1.6, "ASTORE": 1.8,
        "GETS": 0.8, "PUTS": 1.2, "ISREMOTE": 0.8,
        "LOAD": 0.5, "STORE": 0.6, "CONST": 0.4,
    }

    def unit_op_cost(self) -> float:
        """Simulated seconds per weight-1.0 instruction (node speed not
        included).  ``Machine.run`` prices its cost ticks from it once
        per run; per-opcode weights are baked, as ticks, into the
        pre-decoded streams
        (:meth:`repro.bytecode.code.CodeObject.predecoded`), so changing
        ``op_weights`` after execution started requires
        ``Machine.invalidate_caches()``."""
        return self.instr_seconds * self.exec_factor * self.agent_factor

    def serialize_cost(self, nominal_bytes: int) -> float:
        """Seconds to Java-serialize ``nominal_bytes`` of object data."""
        return nominal_bytes * self.serialize_spb

    def deserialize_cost(self, nominal_bytes: int) -> float:
        """Seconds to deserialize ``nominal_bytes``."""
        return nominal_bytes * self.deserialize_spb

    def wire_bytes(self, nominal_bytes: int) -> int:
        """On-the-wire size of serialized object data."""
        return int(nominal_bytes * self.serialized_expansion)

    def copy(self, **overrides) -> "CostModel":
        """A copy with selected fields overridden."""
        import dataclasses
        return dataclasses.replace(self, **overrides)


#: Costs of system-level operations used by the migration engines.
@dataclass
class SystemCosts:
    """Fixed costs of middleware operations (calibrated to Table IV).

    SODEE:
        * ``sod_transfer_fixed``: socket setup + control messages for a
          migration request/transfer (ms range).
        * ``sod_restore_fixed``: worker coordination, JNI invocation and
          classloading machinery at the destination.
        * ``worker_spawn``: spawning a worker JVM when none is pre-started.
        * ``portable_capture_fixed``: extra Java-serialization step when
          the *destination* lacks VMTI (iPhone/JamVM case, Table VII).
        * ``java_restore_per_frame``: reflection-based frame rebuild on a
          VMTI-less device (charged on device CPU, so the phone's speed
          factor applies).
    G-JavaMPI (eager-copy process migration over a JVMDI-era interface):
        fixed + per-frame + per-byte costs for capture/restore.
    JESSICA2 (in-JVM thread migration):
        raw access to JVM internals -> tiny per-frame costs, fixed
        transfer overhead; static arrays allocated at class load
        (``alloc_spb`` above).
    """

    fault_service_fixed: float = ms(1.0)
    sod_transfer_fixed: float = ms(4.0)
    sod_restore_fixed: float = ms(5.0)
    sod_restore_per_frame: float = ms(0.15)
    sod_capture_fixed: float = ms(0.05)
    worker_spawn: float = ms(350.0)
    portable_capture_fixed: float = ms(13.0)
    #: extra on-the-wire bytes of the portable (Java-serialized) state
    #: format: class descriptors, string tables, handles (section IV.D)
    portable_state_overhead_bytes: int = 4200
    java_restore_fixed: float = ms(1.2)       # x25 on the phone ≈ 30 ms
    java_restore_per_frame: float = ms(0.04)  # x25 on the phone ≈ 1 ms/frame

    gj_capture_fixed: float = ms(30.0)
    gj_capture_per_frame: float = ms(0.6)
    gj_restore_fixed: float = ms(35.0)
    gj_restore_per_frame: float = ms(0.6)
    gj_transfer_fixed: float = ms(8.0)

    j2_capture_fixed: float = ms(0.05)
    j2_capture_per_frame: float = us(8)
    j2_transfer_fixed: float = ms(2.1)
    j2_restore_fixed: float = ms(6.5)
    j2_restore_per_frame: float = us(40)
    #: execution slowdown of the migrated thread under JESSICA2's
    #: home-based global object space (in-JVM access checks on the
    #: remote node — this is what makes its Table III overheads exceed
    #: its Table IV latencies).
    j2_dsm_exec_overhead: float = 0.003

    xen_working_set_bytes: int = 340 * 1024 * 1024
    xen_dirty_rounds: float = 1.25
    xen_stop_copy: float = ms(300.0)
    xen_interference: float = 1.0


def jdk_model(instr_seconds: float = 2e-9) -> CostModel:
    """Plain Sun JDK 1.6, no agent."""
    return CostModel(instr_seconds=instr_seconds)


def sodee_model(instr_seconds: float = 2e-9,
                agent_factor: float = 1.01) -> CostModel:
    """SODEE: JDK + idle JVMTI agent + preprocessed classes."""
    return CostModel(instr_seconds=instr_seconds, agent_factor=agent_factor)


def gjavampi_model(instr_seconds: float = 2e-9,
                   agent_factor: float = 1.01) -> CostModel:
    """G-JavaMPI rides a similar debugger interface to SODEE."""
    return CostModel(instr_seconds=instr_seconds, agent_factor=agent_factor)


def jessica2_model(instr_seconds: float = 2e-9,
                   exec_factor: float = 4.1,
                   io_cap: float | None = 5.3e6) -> CostModel:
    """JESSICA2's Kaffe JIT is ~4x slower than Sun JDK 1.6 (Table II),
    and its JVM I/O library bottlenecks file reads (Table VI)."""
    return CostModel(instr_seconds=instr_seconds, exec_factor=exec_factor,
                     io_bandwidth_cap=io_cap)


def xen_model(instr_seconds: float = 2e-9,
              exec_factor: float = 2.2,
              io_factor: float = 2.7) -> CostModel:
    """Execution inside a Xen guest on the modified CentOS host
    (the paper cautions this is not a pure-hypervisor slowdown).
    Virtualized I/O pays an additional factor (Table VI)."""
    return CostModel(instr_seconds=instr_seconds, exec_factor=exec_factor,
                     io_factor=io_factor)
