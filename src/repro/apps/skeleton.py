"""Application-Skeleton DAG workloads (the §7 integration).

The paper's related work discusses Application Skeletons (Katz et al.,
ref [24]): "Application Skeletons can be used to represent a DAG of such
components", while "Synapse ... provides configuration parameters at the
level of individual DAG components".  This module implements that
composition: a :class:`SkeletonApp` is a directed acyclic graph whose
nodes are *components* — any :class:`~repro.apps.base.ApplicationModel`
— and whose edges are dependencies.

Execution uses level synchronisation: the DAG's topological generations
map onto engine phases (barriers), and every component of a generation
runs as one concurrent stream.  This matches how DAG middleware executes
ready sets and lets the profiler observe the whole composed application
as a single black box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.apps.base import ApplicationModel
from repro.core.errors import WorkloadError
from repro.sim.resource import MachineSpec
from repro.sim.workload import SimWorkload

if TYPE_CHECKING:
    import networkx as nx

__all__ = ["SkeletonApp", "chain", "fan_out_fan_in"]


def _empty_graph() -> nx.DiGraph:
    # networkx is imported where a graph is first touched, not with the
    # module: `import repro` reaches this file, and most runs build no DAG.
    import networkx as nx  # noqa: PLC0415 (lazy)

    return nx.DiGraph()


@dataclass
class SkeletonApp(ApplicationModel):
    """A DAG of application components executed with level barriers.

    The graph's nodes carry their component model in the ``app`` node
    attribute::

        g = nx.DiGraph()
        g.add_node("prep",  app=SyntheticApp(bytes_read=64 << 20))
        g.add_node("sim",   app=GromacsModel(iterations=100_000))
        g.add_edge("prep", "sim")
        skeleton = SkeletonApp(graph=g)

    Components' own workloads are flattened: each component contributes
    one serial demand stream per generation (inner concurrency of a
    component is serialised — components that need concurrency should be
    split into multiple DAG nodes).
    """

    graph: nx.DiGraph = field(default_factory=_empty_graph)
    name: str = field(default="skeleton", repr=False)

    def __post_init__(self) -> None:
        import networkx as nx  # noqa: PLC0415 (lazy)

        if not isinstance(self.graph, nx.DiGraph):
            raise WorkloadError("SkeletonApp needs a networkx.DiGraph")
        if self.graph.number_of_nodes() == 0:
            raise WorkloadError("skeleton graph has no components")
        if not nx.is_directed_acyclic_graph(self.graph):
            raise WorkloadError("skeleton graph must be acyclic")
        for node, data in self.graph.nodes(data=True):
            app = data.get("app")
            if not isinstance(app, ApplicationModel):
                raise WorkloadError(
                    f"node {node!r} lacks an ApplicationModel 'app' attribute"
                )

    # -- structure queries ---------------------------------------------------

    def generations(self) -> list[list[str]]:
        """Topological generations: the concurrent ready-sets in order."""
        import networkx as nx  # noqa: PLC0415 (lazy)

        return [sorted(gen) for gen in nx.topological_generations(self.graph)]

    def component(self, node: str) -> ApplicationModel:
        """The application model of one DAG node."""
        return self.graph.nodes[node]["app"]

    @property
    def n_components(self) -> int:
        """Number of DAG nodes."""
        return self.graph.number_of_nodes()

    def critical_path_length(self) -> int:
        """Number of generations (the DAG's depth)."""
        return len(self.generations())

    # -- workload construction --------------------------------------------------

    def build_workload(self, machine: MachineSpec) -> SimWorkload:
        workload = SimWorkload(
            name=self.command(),
            metadata={"app": "skeleton", "components": self.n_components},
        )
        for number, generation in enumerate(self.generations()):
            phase = workload.phase(f"generation-{number}")
            for node in generation:
                component = self.component(node)
                inner = component.build_workload(machine)
                stream = phase.stream(str(node))
                for inner_phase in inner.phases:
                    for inner_stream in inner_phase.streams:
                        stream.demands.extend(inner_stream.demands)
        return workload

    def command(self) -> str:
        return f"skeleton n{self.n_components} d{self.critical_path_length()}"

    def tags(self) -> dict[str, object]:
        return {
            "components": self.n_components,
            "depth": self.critical_path_length(),
        }


def chain(components: Mapping[str, ApplicationModel], name: str = "skeleton-chain") -> SkeletonApp:
    """A linear pipeline: components execute strictly in mapping order."""
    if not components:
        raise WorkloadError("chain needs at least one component")
    graph = _empty_graph()
    previous = None
    for node, app in components.items():
        graph.add_node(node, app=app)
        if previous is not None:
            graph.add_edge(previous, node)
        previous = node
    return SkeletonApp(graph=graph, name=name)


def fan_out_fan_in(
    prepare: ApplicationModel,
    workers: Mapping[str, ApplicationModel],
    collect: ApplicationModel,
    name: str = "skeleton-fan",
) -> SkeletonApp:
    """The canonical scatter/gather skeleton: prepare -> workers -> collect."""
    if not workers:
        raise WorkloadError("fan_out_fan_in needs at least one worker")
    graph = _empty_graph()
    graph.add_node("prepare", app=prepare)
    graph.add_node("collect", app=collect)
    for node, app in workers.items():
        graph.add_node(node, app=app)
        graph.add_edge("prepare", node)
        graph.add_edge(node, "collect")
    return SkeletonApp(graph=graph, name=name)
