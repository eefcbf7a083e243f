"""The layer boundaries the traced run wraps, one probe per public entry.

Every probe wraps a function or method of ``src/repro`` from outside
it; :func:`install` applies them all for one traced operation and
:meth:`~spans.Tracer.unpatch` takes them off again, so untraced
operations run the unmodified program.
"""

from __future__ import annotations

import time

import numpy as np

from spans import Tracer


def _launch_attrs(attrs, result, *args, **kwargs) -> None:
    attrs["cycles"] = result.cycles
    attrs["issued"] = result.issued


def _tensor_attrs(attrs, result, *args, **kwargs) -> None:
    attrs["trials"] = len(result.outcomes)
    attrs["fallbacks"] = sum(1 for outcome in result.outcomes
                             if outcome == "fallback")


def _lookup_attrs(attrs, result, *args, **kwargs) -> None:
    attrs["cache"] = result.cache


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary and start recording."""
    import repro.compiler
    import repro.experiments.common as common
    import repro.gpu.device as device
    import repro.gpu.tensor as tensor
    import repro.inject.engine as engine
    import repro.inject.fabric as fabric
    import repro.inject.journal as journal
    import repro.inject.lease as lease
    from repro.certify.engine import Certifier
    from repro.certify.service import CertificateService
    from repro.certify.store import CertificateStore
    from repro.ecc import swap
    from repro.workloads import WORKLOADS

    # experiments + compiler + gpu timing path (figures)
    tracer.patch(common, "run_scheme",
                 tracer.timed("experiments", "experiments.cell"))
    compile_probe = tracer.timed("compiler", "compiler.compile")
    tracer.patch(common, "compile_for_scheme", compile_probe)
    tracer.patch(repro.compiler, "compile_for_scheme", compile_probe)
    tracer.patch(device.Device, "launch",
                 tracer.timed("gpu", "gpu.launch", _launch_attrs))

    # gpu functional path + tensor executor (campaign)
    tracer.patch(device, "run_functional",
                 tracer.timed("gpu", "gpu.functional"))
    tracer.patch(tensor, "run_trials",
                 tracer.timed("tensor", "tensor.run_trials", _tensor_attrs))

    # workloads: instance construction and host-side verification
    verify_probe = tracer.aggregated("workloads.verify")

    def build_probe(original):
        timed = tracer.timed("workloads", "workloads.build")(original)

        def wrapper(*args, **kwargs):
            instance = timed(*args, **kwargs)
            instance.verify = verify_probe(instance.verify)
            return instance
        return wrapper

    for workload_class in {type(workload) for workload in WORKLOADS.values()}:
        if "build" in workload_class.__dict__:
            tracer.patch(workload_class, "build", build_probe)

    # ecc: every scheme family's scalar and batched read ports (a
    # subclass calling its parent's method, or read_many falling back to
    # scalar reads, counts once)
    nested = [0]
    probes = {
        "read": tracer.aggregated("ecc.read", depth=nested),
        "read_many": tracer.aggregated(
            "ecc.read_many",
            lambda result, scheme, data, *rest, **kwargs:
            float(np.size(data)), depth=nested)}
    for scheme_class in vars(swap).values():
        if isinstance(scheme_class, type) and \
                issubclass(scheme_class, swap.SwapScheme):
            for method, probe in probes.items():
                if method in scheme_class.__dict__:
                    tracer.patch(scheme_class, method, probe)

    # journal writer: records, bytes written, time
    def append_probe(original):
        def wrapper(journal_, record):
            before = journal_._handle.tell()
            start = time.perf_counter()
            result = original(journal_, record)
            tracer.leaf("journal.append", time.perf_counter() - start,
                        journal_._handle.tell() - before)
            return result
        return wrapper

    tracer.patch(journal.Journal, "append", append_probe)

    # inject engine: engine-side batches (fork + wait + IPC) and the gpu
    # unit runner inside each batch worker
    tracer.patch(engine.CampaignEngine, "_run_batch_once",
                 tracer.timed("inject", "inject.batch"))
    gpu_runner = engine.unit_runner("gpu")
    tracer.on_unpatch(lambda: engine.register_unit_kind(
        "gpu", gpu_runner, replace=True))

    def runner(params, context, batch):
        with tracer.span("inject", "inject.runner") as attrs:
            result = gpu_runner(params, context, batch)
            attrs["drawn"] = batch.size
            attrs["visible"] = result["trials"]
            attrs["not_hit"] = result["counts"].get("not_hit", 0)
            return result

    engine.register_unit_kind("gpu", runner, replace=True)

    # fabric: coordinator, shard processes, merge, lease table
    tracer.patch(fabric.CampaignFabric, "run",
                 tracer.timed("fabric", "fabric.coordinator"))
    tracer.patch(fabric, "_shard_entry",
                 tracer.timed("fabric", "fabric.shard"))
    tracer.patch(fabric, "merge_shard_journals",
                 tracer.timed("fabric", "merge.merge"))

    def grant_probe(original):
        def wrapper(table, shard, *args, **kwargs):
            if table.current(shard) is not None:
                tracer.count("fabric.leases_stolen")
            tracer.count("fabric.leases_granted")
            return original(table, shard, *args, **kwargs)
        return wrapper

    tracer.patch(lease.LeaseTable, "grant", grant_probe)

    # certify: sweeps, the service lookup path, the store
    tracer.patch(Certifier, "certify",
                 tracer.timed("certify", "certify.sweep"))
    tracer.patch(CertificateService, "lookup",
                 tracer.timed("certify", "service.lookup", _lookup_attrs))
    tracer.patch(CertificateStore, "get",
                 tracer.aggregated("store.get"))
    tracer.patch(CertificateStore, "put",
                 tracer.aggregated("store.put"))
    tracer.enabled = True
