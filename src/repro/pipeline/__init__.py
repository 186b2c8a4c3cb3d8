"""Pipeline subsystem: pass-managed compilation, cached + parallel runs.

Three layers, consumed bottom-up by the rest of the stack:

* **Pass manager** (:mod:`.passes`, :mod:`.artifact`) — the compile flow
  as named, registered passes over a :class:`CompilationArtifact`;
  ``repro.scheduler.compile_loop`` is now a thin wrapper over it.
* **Result cache** (:mod:`.cache`) — content-addressed
  ``(benchmark, MachineConfig, SimOptions)`` -> :class:`ProgramResult`
  store with an optional on-disk JSON mirror in the sharded
  :class:`KeyedFileStore` every persisted cache shares.
* **Executor + session** (:mod:`.executor`, :mod:`.session`) — serial or
  process-parallel fan-out of simulation requests behind the cache;
  ``repro.eval.ExperimentContext`` runs everything through a session.
"""

from .artifact import (
    CompilationArtifact,
    CompileOptions,
    PassOrderError,
    PipelineError,
)
from .cache import (
    RESULT_SCHEMA_VERSION,
    KeyedFileStore,
    ResultCache,
    cache_key,
    code_fingerprint,
    decode_result,
    describe_config,
    describe_options,
    encode_result,
    result_fingerprint,
    result_schema_digest,
)
from .compilecache import (
    CompileCacheStats,
    CompiledLoopCache,
    FrontendArtifact,
    compile_cached,
    compile_key,
    drop_compile_cache,
    frontend_key,
    get_compile_cache,
    loop_fingerprint,
)
from .executor import (
    ParallelExecutor,
    RequestError,
    RunRequest,
    SerialExecutor,
    describe_request,
    execute_request,
    make_executor,
    shared_executor,
)
from .manifest import GCReport, ManifestEntry, StoreManifest, VerifyReport
from .passes import (
    BACKEND_PIPELINE,
    DEFAULT_PIPELINE,
    FRONTEND_PIPELINE,
    SCHEDULER_PASSES,
    Pass,
    PassManager,
    available_passes,
    backend_pipeline,
    default_pass_manager,
    frontend_config_fields,
    get_pass,
    make_policy,
    register_pass,
    register_scheduler,
    traced_config,
)
from .session import Session

__all__ = [
    "BACKEND_PIPELINE",
    "DEFAULT_PIPELINE",
    "FRONTEND_PIPELINE",
    "RESULT_SCHEMA_VERSION",
    "SCHEDULER_PASSES",
    "CompilationArtifact",
    "CompileCacheStats",
    "CompileOptions",
    "CompiledLoopCache",
    "FrontendArtifact",
    "GCReport",
    "KeyedFileStore",
    "ManifestEntry",
    "ParallelExecutor",
    "Pass",
    "PassManager",
    "PassOrderError",
    "PipelineError",
    "RequestError",
    "ResultCache",
    "RunRequest",
    "SerialExecutor",
    "Session",
    "StoreManifest",
    "VerifyReport",
    "available_passes",
    "backend_pipeline",
    "cache_key",
    "code_fingerprint",
    "compile_cached",
    "compile_key",
    "decode_result",
    "default_pass_manager",
    "describe_config",
    "describe_options",
    "describe_request",
    "drop_compile_cache",
    "encode_result",
    "execute_request",
    "frontend_config_fields",
    "frontend_key",
    "get_compile_cache",
    "get_pass",
    "loop_fingerprint",
    "make_executor",
    "make_policy",
    "register_pass",
    "register_scheduler",
    "result_fingerprint",
    "result_schema_digest",
    "shared_executor",
    "traced_config",
]
