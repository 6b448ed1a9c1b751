"""Service registry: the simulated fleet the profiler collects from.

Each :class:`Service` is one continuously-deployed program — a seeded
:mod:`repro.workloads` module built as a CSSPGO profiling binary (probes
inserted, release-style optimization).  Services differ in *shape* (their
workload spec), *traffic weight* (skewed, like a real fleet — the
scheduler prioritizes heavy services), and *release cadence*: a rolling
release rebuilds the workload with a revision-bumped seed, which changes
the code and therefore bumps :meth:`~repro.codegen.binary.Binary.identity`
— exactly the "deployed binary races ahead of its profile" situation that
drives the CSSPGO -> AutoFDO -> no-PGO degradation chain.
"""

from __future__ import annotations

import copy
from typing import Dict, Iterable, List, Optional

from .. import telemetry
from ..pgo.build import BuildArtifacts, build
from ..pgo.variants import PGOVariant
from ..workloads import WorkloadSpec, build_workload

#: Seed stride between revisions of one service — coprime to the service
#: seed strides below, so revision streams never collide across services.
_REVISION_STRIDE = 7919


class ServiceSpec:
    """Shape + operational cadence of one fleet service."""

    def __init__(self, name: str, workload: WorkloadSpec, *,
                 weight: float = 1.0,
                 collect_every: int = 20, collect_offset: int = 0,
                 release_every: int = 0, release_offset: int = 0):
        self.name = name
        self.workload = workload
        #: Relative traffic share; the scheduler serves heavier services
        #: first when tasks contend for workers.
        self.weight = weight
        #: Ticks between collection-task schedulings (offset staggers
        #: services so the fleet's load is spread, not phase-locked).
        self.collect_every = max(1, collect_every)
        self.collect_offset = collect_offset % self.collect_every
        #: Ticks between rolling releases; 0 = this service never releases.
        self.release_every = release_every
        self.release_offset = release_offset


class Service:
    """Runtime state of one deployed service: current revision + binary."""

    def __init__(self, spec: ServiceSpec):
        self.spec = spec
        self.revision = 0
        self.module = None
        self.build: Optional[BuildArtifacts] = None
        self.binary_id: Optional[str] = None
        self._rebuild()

    def _rebuild(self) -> None:
        workload = copy.copy(self.spec.workload)
        workload.seed = self.spec.workload.seed \
            + self.revision * _REVISION_STRIDE
        self.module = build_workload(workload)
        # The deployed binary is a CSSPGO profiling build: probes inserted,
        # release-style optimization — what the fleet's PMU attaches to.
        self.build = build(self.module, PGOVariant.CSSPGO_FULL)
        self.binary_id = self.build.binary.identity()

    def release(self, tick: int) -> None:
        """Roll out the next revision (new code, new binary identity)."""
        self.revision += 1
        self._rebuild()
        telemetry.emit("fleet_release", service=self.spec.name,
                       revision=self.revision, binary=self.binary_id,
                       tick=tick)

    def __repr__(self) -> str:
        return (f"<Service {self.spec.name} rev={self.revision} "
                f"binary={self.binary_id}>")


class ServiceRegistry:
    """Ordered collection of services with rolling-release bookkeeping."""

    def __init__(self, services: Iterable[Service]):
        self.services: Dict[str, Service] = {}
        for service in services:
            if service.spec.name in self.services:
                raise ValueError(
                    f"duplicate service name {service.spec.name!r}")
            self.services[service.spec.name] = service

    def __len__(self) -> int:
        return len(self.services)

    def __iter__(self):
        return iter(self.services.values())

    def get(self, name: str) -> Service:
        return self.services[name]

    def step(self, tick: int) -> List[Service]:
        """Apply this tick's rolling releases; returns who released."""
        released: List[Service] = []
        for service in self.services.values():
            every = service.spec.release_every
            if (every > 0 and tick > 0
                    and tick % every == service.spec.release_offset % every):
                service.release(tick)
                released.append(service)
        return released


def default_fleet(count: int = 3, *, seed: int = 0, collect_every: int = 20,
                  release_every: int = 0) -> List[Service]:
    """A small mixed fleet: skewed traffic weights, staggered collection,
    rolling releases on the heaviest service.

    Workload shapes are deliberately tiny (the fleet simulation does *real*
    collection and profile generation per completed task — hundreds of
    them over a run) and mixed: seeds and worker counts vary per service,
    so no two services profile alike.
    """
    count = max(1, count)
    services: List[Service] = []
    for index in range(count):
        workload = WorkloadSpec(
            f"svc{index}", seed=seed + 101 * index,
            n_leaf=4, n_dispatch=2, n_mid=2, n_wrapper=1,
            n_workers=2 + index % 2, n_services=2,
            regions_per_function=(2, 3), requests=40)
        # Zipf-ish traffic skew: service 0 dominates, the tail thins out.
        weight = max(1.0, 8.0 / (index + 1))
        spec = ServiceSpec(
            f"svc{index}", workload, weight=weight,
            collect_every=collect_every,
            collect_offset=(index * 3) % collect_every,
            # Only the heaviest service rolls releases by default: enough
            # to exercise the identity-mismatch chain without spending the
            # whole run rebuilding binaries.
            release_every=release_every if index == 0 else 0,
            release_offset=release_every // 2 if release_every else 0)
        services.append(Service(spec))
    return services
