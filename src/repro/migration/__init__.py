"""SOD migration: capture, restore, object faulting, the SODEE engine,
flows, policies, prefetching and tracing."""

from repro.migration.capture import capture_segment, run_to_msp
from repro.migration.object_manager import (HomeObjectServer,
                                            WorkerObjectManager)
from repro.migration.restore import RestoreDriver, java_level_restore
from repro.migration.sodee import Host, MigrationRecord, SODEngine
from repro.migration.state import (CapturedFrame, CapturedState,
                                   GraphDecoder, GraphEncoder, decode_value,
                                   encode_object_shallow, encode_value)
from repro.migration.tracing import Tracer, format_timeline

__all__ = [
    "capture_segment", "run_to_msp",
    "HomeObjectServer", "WorkerObjectManager",
    "RestoreDriver", "java_level_restore",
    "Host", "MigrationRecord", "SODEngine",
    "CapturedFrame", "CapturedState", "GraphDecoder", "GraphEncoder",
    "decode_value", "encode_object_shallow", "encode_value",
    "Tracer", "format_timeline",
]
