"""Which public call of each layer the traced run wraps, and the per-layer
metrics it derives from the spans and from the campaign's ``RunMetrics``.

Each function is patched in the namespace its caller looks it up in, each
method on its class.  The metric names are those of ``per_layer`` in
``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib

#: Self-time layers: (span name, module path, attribute or Class.method).
#: ``run_atpg`` is looked up by the ATPG-based generators; the pipeline
#: stages by ``repro.core.pipeline``; ``run_logic_tracing`` by the cache's
#: memoized tracing (which imports it at call time); ``verify_compaction``
#: by the pipeline's lazy import of ``repro.verify``.
SELF_TIME_LAYERS = (
    ("atpg", "repro.stl.generators.atpg_based", "run_atpg"),
    ("tracing", "repro.core.tracing", "run_logic_tracing"),
    ("patterns", "repro.core.patterns", "PatternReport.to_pattern_set"),
    ("goodsim", "repro.faults.fault_sim", "FaultSimulator.good_values"),
    ("propagate", "repro.faults.fault_sim", "FaultSimulator.run"),
    ("signature", "repro.faults.fault_sim", "FaultSimulator.run_signature"),
    ("scheduler", "repro.exec.scheduler", "ShardedFaultScheduler.run"),
    ("cache.get", "repro.exec.cache", "ArtifactCache.get"),
    ("cache.put", "repro.exec.cache", "ArtifactCache.put"),
    ("incremental", "repro.exec.incremental", "IncrementalFaultSim.run"),
    ("fc_eval", "repro.core.pipeline", "evaluate_fc"),
    ("partition", "repro.core.pipeline", "partition_ptp"),
    ("labeling", "repro.core.pipeline", "label_instructions"),
    ("reduction", "repro.core.pipeline", "reduce_ptp"),
    ("verify", "repro.verify", "verify_compaction"),
    ("dropping", "repro.faults.dropping", "FaultListReport.drop_result"),
)

#: The STL generators, patched on the package the benchmark calls them
#: through (``repro.stl.generators.generate_*``); one ``stl`` layer.
GENERATORS = ("generate_imm", "generate_mem", "generate_cntrl",
              "generate_tpgen", "generate_rand", "generate_sfu_imm")

def _resolve(module_path, dotted):
    owner = importlib.import_module(module_path)
    *classes, attr = dotted.split(".")
    for name in classes:
        owner = getattr(owner, name)
    return owner, attr


# -- counts taken at the wrapped boundaries ----------------------------------

def _atpg_after(tracer, args, result, token):
    tracer.count("atpg.aborted", len(result.aborted))
    tracer.count("atpg.patterns", result.patterns.count)


def _tracing_after(tracer, args, result, token):
    tracer.count("tracing.cycles", result.cycles)


def _patterns_after(tracer, args, result, token):
    tracer.count("patterns.count", result.count)


def _gate_stats(args):
    stats = args[0].stats
    return stats.get("gates_evaluated", 0), stats.get("gates_skipped", 0)


def _propagate_after(tracer, args, result, token):
    evaluated, skipped = _gate_stats(args)
    tracer.count("propagate.faults", len(result.fault_list))
    tracer.count("propagate.gates_evaluated", evaluated - token[0])
    tracer.count("propagate.gates_skipped", skipped - token[1])


def _signature_after(tracer, args, result, token):
    tracer.count("signature.faults", len(args[2]))


def _cache_get_after(tracer, args, result, token):
    tracer.count("cache.hits" if result is not None else "cache.misses")


#: Metrics counted by the hooks above, under their own names.
COUNTED = ("atpg.aborted", "atpg.patterns", "tracing.cycles",
           "patterns.count", "propagate.faults", "propagate.gates_evaluated",
           "propagate.gates_skipped", "signature.faults", "cache.hits",
           "cache.misses")

COUNTERS = {
    "atpg": (None, _atpg_after),
    "tracing": (None, _tracing_after),
    "patterns": (None, _patterns_after),
    "propagate": (_gate_stats, _propagate_after),
    "signature": (None, _signature_after),
    "cache.get": (None, _cache_get_after),
}


def install(tracer):
    """Wrap every layer's public call; undo with ``tracer.unwrap()``."""
    for name, module_path, dotted in SELF_TIME_LAYERS:
        owner, attr = _resolve(module_path, dotted)
        before, after = COUNTERS.get(name, (None, None))
        tracer.wrap(owner, attr, name, before=before, after=after)
    generators = importlib.import_module("repro.stl.generators")
    for attr in GENERATORS:
        tracer.wrap(generators, attr, "stl")


def _ratio(part, whole):
    return part / whole if whole else 0.0


def per_layer_metrics(tracer, metrics):
    """The ``per_layer`` metrics of one traced run, whose campaigns shared
    the ``RunMetrics`` *metrics* (the source of pool and incremental
    counts)."""
    own = tracer.self_seconds()
    values = {layer + ".self_s": own.get(layer, 0.0)
              for layer in ("stl",) + tuple(
                  name for name, __, __ in SELF_TIME_LAYERS
                  if not name.startswith("cache."))}
    values.update({name: tracer.counts.get(name, 0) for name in COUNTED})
    pool, inc = metrics.pool, metrics.incremental
    restored, resimulated = inc["faults_restored"], inc["faults_resimulated"]
    hits, misses = values["cache.hits"], values["cache.misses"]
    values.update({
        "tracing.calls": tracer.calls("tracing"),
        "tracing.cycles_per_s": _ratio(values["tracing.cycles"],
                                       own.get("tracing", 0.0)),
        "propagate.calls": tracer.calls("propagate"),
        "scheduler.runs": tracer.calls("scheduler"),
        "pool.spawned": pool.get("workers_spawned", 0),
        "pool.chunks": pool.get("chunks_dispatched", 0),
        "pool.requeued": pool.get("chunks_requeued", 0),
        "pool.inlined": pool.get("chunks_inline", 0),
        "pool.init_s": pool.get("worker_init_seconds", 0.0),
        "cache.get_s": own.get("cache.get", 0.0),
        "cache.put_s": own.get("cache.put", 0.0),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "incremental.faults_restored": restored,
        "incremental.faults_resimulated": resimulated,
        "incremental.restore_ratio": _ratio(restored,
                                            restored + resimulated),
        "unattributed_s": own.get("cold", 0.0) + own.get("warm", 0.0),
        "trace_overhead_s": tracer.overhead_s,
    })
    return values
