"""The cost-distance Steiner tree algorithm (paper Algorithm 1).

The algorithm works like Kruskal's algorithm: it keeps a set of *active*
terminals (initially the sinks), runs a Dijkstra search from every active
terminal simultaneously -- each search ``u`` uses its own edge length
``l_u(e) = c(e) + w(u) * d(e)`` -- and merges the first pair of components
whose searches meet.  Merging two sinks creates a new active Steiner terminal
whose weight is the sum of the merged weights and whose position is chosen
randomly proportional to the weights (or by the improved placement of
Section III-D).  Merging with the root simply deactivates the sink.  The
bifurcation penalty ``b(u, v)`` of Eq. (5) is added when a search reaches
another component, so the pair minimising ``L(u, v)`` is extracted first.

Enhancements of Section III (all individually switchable via
:class:`CostDistanceConfig`):

* **A. Component discounting** -- edges already in the tree component a search
  starts from cost ``0`` (their delay still counts), and a search connects as
  soon as it reaches *any* vertex of another component, which implicitly
  places Steiner vertices at the points where paths enter existing trees.
* **B. Two-level heap** -- one binary heap per active search plus a top-level
  heap over the sub-heap minima.
* **C. Goal-oriented search** -- A* potentials from L1 / landmark lower
  bounds on connection cost and delay.
* **D. Better Steiner vertex embedding** -- instead of the random endpoint,
  the new Steiner vertex is placed on the freshly added path at the position
  minimising an estimate of the cost of extending the path to the root.
* **E. Encouraged root connections** -- the expected penalty of a root
  connection is reduced by the future savings ``eta * dbif * w(u)``.

The plain configuration (:meth:`CostDistanceConfig.plain`) disables all
enhancements and matches the analysed algorithm, which carries the
``O(log t)`` approximation guarantee.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro import obs
from repro.core.future_cost import FutureCostEstimator
from repro.core.heap import AddressableBinaryHeap, TwoLevelHeap
from repro.core.instance import SteinerInstance
from repro.core.objective import prune_dangling_branches
from repro.core.oracle import SteinerOracle
from repro.core.tree import EmbeddedTree

__all__ = [
    "CostDistanceConfig",
    "MergeRecord",
    "CostDistanceResult",
    "CostDistanceSolver",
]

#: Identifier of the root component in merge records.
ROOT_ID = -1


@dataclass(frozen=True)
class CostDistanceConfig:
    """Configuration of the cost-distance solver.

    The default configuration enables all practical enhancements of
    Section III; :meth:`plain` returns the analysed variant of Section II.
    """

    discount_components: bool = True
    use_two_level_heap: bool = True
    use_future_costs: bool = True
    improved_steiner_placement: bool = True
    encourage_root_connections: bool = True
    num_landmarks: int = 0
    record_trace: bool = False
    seed: int = 0

    @classmethod
    def plain(cls, record_trace: bool = False, seed: int = 0) -> "CostDistanceConfig":
        """The unenhanced algorithm of Section II (keeps the O(log t) guarantee)."""
        return cls(
            discount_components=False,
            use_two_level_heap=False,
            use_future_costs=False,
            improved_steiner_placement=False,
            encourage_root_connections=False,
            num_landmarks=0,
            record_trace=record_trace,
            seed=seed,
        )


@dataclass(frozen=True)
class MergeRecord:
    """One iteration of the algorithm, for tracing / Figure 3."""

    iteration: int
    source_node: int
    source_weight: float
    target_node: int
    target_weight: float
    meeting_node: int
    steiner_node: Optional[int]
    path_edges: Tuple[int, ...]
    is_root_merge: bool
    active_after: int
    active_terminals: Tuple[Tuple[int, float], ...] = ()


@dataclass
class CostDistanceResult:
    """Tree plus bookkeeping returned by :meth:`CostDistanceSolver.solve_with_details`."""

    tree: EmbeddedTree
    merges: List[MergeRecord]
    num_iterations: int
    num_labels: int


class _Terminal:
    """An active terminal (sink or Steiner vertex) of the algorithm."""

    __slots__ = ("node", "weight", "comp")

    def __init__(self, node: int, weight: float, comp: int) -> None:
        self.node = node
        self.weight = weight
        self.comp = comp


class _Search:
    """The persistent Dijkstra search of one active terminal."""

    __slots__ = ("weight", "comp", "tentative", "parent", "permanent")

    def __init__(self, weight: float, comp: int, seed_node: int) -> None:
        self.weight = weight
        self.comp = comp
        self.tentative: Dict[int, float] = {seed_node: 0.0}
        self.parent: Dict[int, int] = {}
        self.permanent: Set[int] = set()


class _FlatQueue:
    """Single addressable heap with the same API as :class:`TwoLevelHeap`."""

    def __init__(self) -> None:
        self._heap: AddressableBinaryHeap = AddressableBinaryHeap()
        # Queued items per search, in insertion order: ``remove_search``
        # deletes them in this order, and the deletion order shapes the heap
        # layout and so the ties.  A ``set`` would make it depend on
        # ``PYTHONHASHSEED`` (the items include ``("c", node)`` tuples).
        self._by_search: Dict[int, Dict[object, None]] = {}

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def add_search(self, search_id: int) -> None:
        self._by_search.setdefault(search_id, {})

    def remove_search(self, search_id: int) -> None:
        for item in self._by_search.pop(search_id, {}):
            self._heap.remove((search_id, item))

    def push(self, search_id: int, item, key: float) -> bool:
        self._by_search.setdefault(search_id, {})[item] = None
        return self._heap.push((search_id, item), key)

    def pop(self):
        key, (search_id, item) = self._heap.pop()
        members = self._by_search.get(search_id)
        if members is not None:
            members.pop(item, None)
        return key, search_id, item


class _UnionFind:
    """Union-find over graph nodes, used to keep the output edge set acyclic."""

    def __init__(self) -> None:
        self.parent: Dict[int, int] = {}

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


class CostDistanceSolver(SteinerOracle):
    """The cost-distance Steiner tree oracle (paper Algorithm 1)."""

    name = "CD"

    #: The searches grow outward from the net's terminals, so the tree
    #: depends on costs near the net plus the global cost floor (A*
    #: potentials).  With landmarks (``num_landmarks > 0``) this no longer
    #: holds -- the engine checks for that separately.
    region_cache_safe = True

    def __init__(self, config: Optional[CostDistanceConfig] = None) -> None:
        self.config = config or CostDistanceConfig()

    # ------------------------------------------------------------------ API
    def build(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> EmbeddedTree:
        """Build an embedded cost-distance Steiner tree for ``instance``."""
        return self.solve_with_details(instance, rng).tree

    def solve(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> EmbeddedTree:
        """Alias of :meth:`build`."""
        return self.build(instance, rng)

    # --------------------------------------------------------------- solver
    def solve_with_details(
        self, instance: SteinerInstance, rng: Optional[random.Random] = None
    ) -> CostDistanceResult:
        """Run the algorithm and return the tree together with its trace."""
        config = self.config
        rng = rng if rng is not None else random.Random(config.seed)
        graph = instance.graph
        # One batch routes many nets against one cost vector; the context
        # (when attached and covering these exact arrays) shares the O(edges)
        # list conversions and the future-cost estimator across the batch.
        ctx = instance.context
        if ctx is not None and ctx.covers(instance.cost, instance.delay):
            cost = ctx.cost_list()
            delay = ctx.delay_list()
        else:
            ctx = None
            cost = instance.cost.tolist()
            delay = instance.delay.tolist()
        bif = instance.bifurcation
        root_node = instance.root

        # ---- initial terminals (duplicate sink tiles collapse into one) ----
        position_of: Dict[int, int] = {}
        init_nodes: List[int] = []
        init_weights: List[float] = []
        for node, weight in zip(instance.sinks, instance.weights):
            if node == root_node:
                continue
            if node in position_of:
                init_weights[position_of[node]] += weight
            else:
                position_of[node] = len(init_nodes)
                init_nodes.append(node)
                init_weights.append(weight)

        merges: List[MergeRecord] = []
        if not init_nodes:
            tree = EmbeddedTree(graph, root_node, tuple(instance.sinks), (), self.name)
            return CostDistanceResult(tree, merges, 0, 0)

        # ---- component bookkeeping ----
        comp_nodes: Dict[int, Set[int]] = {}
        comp_edges: Dict[int, Set[int]] = {}
        comp_owner: Dict[int, int] = {}
        node_comp: Dict[int, int] = {}
        # Delay from every component node to the component's representative
        # terminal, along the component's own edges.  Used so that a search
        # entering a component "anywhere" (enhancement III-A) still pays the
        # delay towards the component's terminal, as in the paper's
        # per-end-component labels.
        comp_rep: Dict[int, int] = {}
        comp_delay: Dict[int, Dict[int, float]] = {}

        def new_component(owner: int, nodes: Set[int]) -> int:
            comp_id = len(comp_nodes)
            comp_nodes[comp_id] = nodes
            comp_edges[comp_id] = set()
            comp_owner[comp_id] = owner
            for n in nodes:
                node_comp[n] = comp_id
            rep = next(iter(nodes))
            comp_rep[comp_id] = rep
            comp_delay[comp_id] = {n: 0.0 for n in nodes}
            return comp_id

        new_component(ROOT_ID, {root_node})

        active: Dict[int, _Terminal] = {}
        searches: Dict[int, _Search] = {}
        queue = TwoLevelHeap() if config.use_two_level_heap else _FlatQueue()

        estimator: Optional[FutureCostEstimator] = None
        if config.use_future_costs or config.improved_steiner_placement:
            if ctx is not None:
                estimator = ctx.estimator(config.num_landmarks)
            else:
                estimator = FutureCostEstimator(
                    graph,
                    cost_lower_bound=instance.cost,
                    num_landmarks=config.num_landmarks,
                )

        next_tid = 0
        total_active_weight = 0.0
        target_positions: List[int] = []
        # Planar coordinates of the targets, refreshed together with the
        # target list: the potential runs once per heap push, so looking the
        # coordinates up there (8 node_planar calls per push) dominated the
        # search before they were hoisted to the per-merge refresh.
        target_coords: List[Tuple[int, int]] = []
        target_bbox: List[int] = [0, 0, 0, 0]  # xmin, xmax, ymin, ymax
        planar_tiles = graph.nx * graph.ny
        grid_nx = graph.nx
        # Per-tile lower-bound rates of the admissible A* potential (see
        # FutureCostEstimator.multi_target_potential).  Without future costs
        # both rates are 0, so every potential is ``l1 * 0.0 == 0.0``.
        if estimator is not None and config.use_future_costs:
            pot_cost_rate = estimator.min_cost_per_tile
            pot_delay_rate = estimator.fastest_delay_per_tile
        else:
            pot_cost_rate = pot_delay_rate = 0.0

        # Nearest-target L1 distances, memoised per planar tile between
        # target refreshes: the distance ignores the layer, so the layers
        # above a tile share its entry, and the target set only changes at
        # merges.
        l1_cache: Dict[int, float] = {}

        def refresh_targets() -> None:
            target_positions.clear()
            target_positions.append(root_node)
            target_positions.extend(term.node for term in active.values())
            target_coords.clear()
            for t in target_positions:
                rest = t % planar_tiles
                target_coords.append((rest % grid_nx, rest // grid_nx))
            xs = [c[0] for c in target_coords]
            ys = [c[1] for c in target_coords]
            target_bbox[:] = [min(xs), max(xs), min(ys), max(ys)]
            l1_cache.clear()

        def tile_l1(tile: int) -> float:
            """L1 distance from ``tile`` to the current target set, memoised.

            Reproduces ``FutureCostEstimator.multi_target_potential`` (exact
            nearest-target L1 for up to 8 targets, bounding-box distance
            beyond) over the precomputed target coordinates.  The admissible
            potential of a node on ``tile`` in a search of weight ``w`` is
            ``tile_l1(tile) * (pot_cost_rate + w * pot_delay_rate)``.
            """
            ax = tile % grid_nx
            ay = tile // grid_nx
            if len(target_coords) <= 8:
                best = None
                for bx, by in target_coords:
                    d = abs(ax - bx) + abs(ay - by)
                    if best is None or d < best:
                        best = d
                        if best == 0:
                            break
                l1 = float(best or 0)
            else:
                xmin, xmax, ymin, ymax = target_bbox
                dx = max(0, xmin - ax, ax - xmax)
                dy = max(0, ymin - ay, ay - ymax)
                l1 = float(dx + dy)
            l1_cache[tile] = l1
            return l1

        def merge_penalty(source_tid: int, owner: int) -> float:
            w_u = active[source_tid].weight
            if owner == ROOT_ID:
                rest = max(total_active_weight - w_u, 0.0)
                penalty = bif.beta(w_u, rest)
                if config.encourage_root_connections and bif.enabled:
                    penalty -= bif.eta * bif.dbif * w_u
                return max(penalty, 0.0)
            return bif.beta(w_u, active[owner].weight)

        def connection_key(source_tid: int, comp: int, node: int, dist: float) -> float:
            """Full key of a connection candidate: path distance, delay from
            the entry point to the target component's terminal, and the
            bifurcation merge penalty."""
            owner = comp_owner[comp]
            inside = comp_delay[comp].get(node, 0.0)
            return dist + active[source_tid].weight * inside + merge_penalty(source_tid, owner)

        def start_search(tid: int, term: _Terminal) -> None:
            search = _Search(term.weight, term.comp, term.node)
            searches[tid] = search
            queue.add_search(tid)
            tile = term.node % planar_tiles
            l1 = l1_cache.get(tile)
            if l1 is None:
                l1 = tile_l1(tile)
            queue.push(tid, term.node, 0.0 + l1 * (pot_cost_rate + term.weight * pot_delay_rate))

        def deactivate(tid: int) -> None:
            active.pop(tid, None)
            searches.pop(tid, None)
            queue.remove_search(tid)

        for node, weight in zip(init_nodes, init_weights):
            tid = next_tid
            next_tid += 1
            comp = new_component(tid, {node})
            active[tid] = _Terminal(node, weight, comp)
            total_active_weight += weight
        refresh_targets()
        for tid, term in list(active.items()):
            start_search(tid, term)

        # ---- main loop ----
        queue_push = queue.push
        adjacency = graph.adjacency
        discount = config.discount_components
        tree_edges: List[int] = []
        tree_edge_set: Set[int] = set()
        acyclic = _UnionFind()
        num_labels = 0
        num_pops = 0
        iteration = 0
        infinity = float("inf")

        while active:
            if not queue:
                raise RuntimeError(
                    "cost-distance search exhausted the queue before connecting "
                    "all terminals; the routing graph is disconnected"
                )
            key, tid, item = queue.pop()
            num_pops += 1
            search = searches.get(tid)
            if search is None:
                continue

            if isinstance(item, tuple):
                # Connection candidate ('c', node).
                node = item[1]
                comp = node_comp.get(node)
                if comp is None or comp == search.comp:
                    continue
                owner = comp_owner.get(comp)
                if owner is None or (owner != ROOT_ID and owner not in active):
                    continue
                dist = search.tentative.get(node)
                if dist is None or node not in search.permanent:
                    continue
                fresh_key = connection_key(tid, comp, node, dist)
                if fresh_key > key + 1e-9:
                    queue.push(tid, item, fresh_key)
                    continue
                iteration += 1
                self._merge(
                    instance=instance,
                    config=config,
                    rng=rng,
                    estimator=estimator,
                    iteration=iteration,
                    source_tid=tid,
                    owner=owner,
                    meeting_node=node,
                    active=active,
                    searches=searches,
                    queue=queue,
                    comp_nodes=comp_nodes,
                    comp_edges=comp_edges,
                    comp_owner=comp_owner,
                    node_comp=node_comp,
                    comp_rep=comp_rep,
                    comp_delay=comp_delay,
                    tree_edges=tree_edges,
                    tree_edge_set=tree_edge_set,
                    acyclic=acyclic,
                    merges=merges,
                    delay=delay,
                    connection_key=connection_key,
                    start_search=start_search,
                    deactivate=deactivate,
                )
                # Root merges reduce the total active weight.
                if merges and merges[-1].is_root_merge:
                    total_active_weight = sum(t.weight for t in active.values())
                next_tid = max(next_tid, max(active.keys(), default=-1) + 1)
                refresh_targets()
                continue

            # Regular node label.
            node = item
            if node in search.permanent:
                continue
            dist = search.tentative[node]
            search.permanent.add(node)
            num_labels += 1

            comp = node_comp.get(node)
            if comp is not None and comp != search.comp:
                owner = comp_owner.get(comp)
                if owner == ROOT_ID or owner in active:
                    if config.discount_components:
                        # Enhancement III-A: reaching any vertex of another
                        # component counts as a connection to it.
                        connect = True
                    elif owner == ROOT_ID:
                        connect = node == root_node
                    else:
                        connect = node == active[owner].node
                    if connect:
                        queue.push(tid, ("c", node), connection_key(tid, comp, node, dist))

            own_edges = comp_edges.get(search.comp) if discount else None
            weight = search.weight
            tentative = search.tentative
            permanent = search.permanent
            parent = search.parent
            # The potential's rate factor depends on the search only, so it
            # is formed once per label rather than once per push.
            factor = pot_cost_rate + weight * pot_delay_rate
            for edge, other in adjacency[node]:
                if other in permanent:
                    continue
                if own_edges is not None and edge in own_edges:
                    edge_cost = 0.0
                else:
                    edge_cost = cost[edge]
                candidate = dist + edge_cost + weight * delay[edge]
                if candidate < tentative.get(other, infinity):
                    tentative[other] = candidate
                    parent[other] = edge
                    tile = other % planar_tiles
                    l1 = l1_cache.get(tile)
                    if l1 is None:
                        l1 = tile_l1(tile)
                    queue_push(tid, other, candidate + l1 * factor)

        tree = self._finalize(instance, tree_edges)
        # Aggregated per-solve increments (not per pop) keep the hot loop
        # observable without taxing it.
        obs.inc("astar.pops", num_pops)
        obs.inc("cd.labels", num_labels)
        obs.inc("cd.merges", len(merges))
        obs.inc("cd.solves")
        return CostDistanceResult(tree, merges, iteration, num_labels)

    # ----------------------------------------------------------- internals
    def _merge(
        self,
        *,
        instance: SteinerInstance,
        config: CostDistanceConfig,
        rng: random.Random,
        estimator: Optional[FutureCostEstimator],
        iteration: int,
        source_tid: int,
        owner: int,
        meeting_node: int,
        active: Dict[int, _Terminal],
        searches: Dict[int, _Search],
        queue,
        comp_nodes: Dict[int, Set[int]],
        comp_edges: Dict[int, Set[int]],
        comp_owner: Dict[int, int],
        node_comp: Dict[int, int],
        comp_rep: Dict[int, int],
        comp_delay: Dict[int, Dict[int, float]],
        tree_edges: List[int],
        tree_edge_set: Set[int],
        acyclic: _UnionFind,
        merges: List[MergeRecord],
        delay: Sequence[float],
        connection_key,
        start_search,
        deactivate,
    ) -> None:
        """Perform one merge (one iteration of Algorithm 1)."""
        graph = instance.graph
        search = searches[source_tid]
        source = active[source_tid]

        # Backtrack the connecting path (meeting node -> search seed).
        rev_edges: List[int] = []
        rev_nodes: List[int] = [meeting_node]
        node = meeting_node
        while node in search.parent:
            edge = search.parent[node]
            rev_edges.append(edge)
            node = graph.other_endpoint(edge, node)
            rev_nodes.append(node)
        path_nodes = list(reversed(rev_nodes))  # seed -> meeting node
        path_edges = list(reversed(rev_edges))

        # Add new edges to the global tree, skipping anything that would
        # close a cycle (paths may touch nodes that already belong to the
        # growing tree).
        for edge in path_edges:
            if edge in tree_edge_set:
                continue
            u = int(graph.edge_u[edge])
            v = int(graph.edge_v[edge])
            if acyclic.union(u, v):
                tree_edge_set.add(edge)
                tree_edges.append(edge)

        # Merge the two components (union by size) and absorb the path.
        src_comp = source.comp
        dst_comp = active[owner].comp if owner != ROOT_ID else self._root_comp(comp_owner)
        if len(comp_nodes[src_comp]) >= len(comp_nodes[dst_comp]):
            big, small = src_comp, dst_comp
        else:
            big, small = dst_comp, src_comp
        for n in comp_nodes[small]:
            node_comp[n] = big
        comp_nodes[big].update(comp_nodes[small])
        comp_edges[big].update(comp_edges[small])
        comp_nodes.pop(small)
        comp_edges.pop(small)
        comp_owner.pop(small, None)
        comp_rep.pop(small, None)
        comp_delay.pop(small, None)
        # Path nodes that are not yet owned by any component join the merged
        # component.  Nodes already owned by a *different* component (the
        # path may brush past the root tile or a third component) keep their
        # owner -- stealing them could orphan that component's terminal and
        # make it unreachable for future connections.
        new_path_nodes = [n for n in path_nodes if n not in node_comp]
        comp_nodes[big].update(new_path_nodes)
        comp_edges[big].update(path_edges)
        for n in new_path_nodes:
            node_comp[n] = big

        is_root_merge = owner == ROOT_ID
        target_weight = 0.0 if is_root_merge else active[owner].weight
        target_node = instance.root if is_root_merge else active[owner].node

        steiner_node: Optional[int] = None
        if is_root_merge:
            comp_owner[big] = ROOT_ID
            comp_rep[big] = instance.root
            deactivate(source_tid)
        else:
            target = active[owner]
            if config.improved_steiner_placement and estimator is not None:
                steiner_node = self._best_steiner_position(
                    graph=graph,
                    estimator=estimator,
                    path_nodes=path_nodes,
                    path_edges=path_edges,
                    delay=delay,
                    source_weight=source.weight,
                    target_weight=target.weight,
                    root_nodes=self._root_target_sample(comp_nodes, comp_owner, instance.root),
                )
            else:
                choices = [source.node, target.node]
                weights = [source.weight, target.weight]
                if weights[0] + weights[1] <= 0:
                    weights = [1.0, 1.0]
                steiner_node = rng.choices(choices, weights=weights, k=1)[0]
            new_tid = max(list(active.keys()) + [0]) + 1
            merged_weight = source.weight + target.weight
            deactivate(source_tid)
            deactivate(owner)
            term = _Terminal(steiner_node, merged_weight, big)
            active[new_tid] = term
            comp_owner[big] = new_tid
            comp_rep[big] = steiner_node
            start_search(new_tid, term)

        # Recompute the delay from every component node to the (new)
        # representative terminal along the component's own edges.
        comp_delay[big] = self._component_delays(
            graph, comp_edges[big], comp_rep[big], delay
        )

        # Let other searches that already labeled the freshly added path
        # nodes compete for a connection to the new component.
        for p in new_path_nodes:
            for other_tid, other_search in searches.items():
                if other_search.comp == big:
                    continue
                if p in other_search.permanent:
                    key = connection_key(other_tid, big, p, other_search.tentative[p])
                    queue.push(other_tid, ("c", p), key)

        record = MergeRecord(
            iteration=iteration,
            source_node=source.node,
            source_weight=source.weight,
            target_node=target_node,
            target_weight=target_weight,
            meeting_node=meeting_node,
            steiner_node=steiner_node,
            path_edges=tuple(path_edges),
            is_root_merge=is_root_merge,
            active_after=len(active),
            active_terminals=tuple((t.node, t.weight) for t in active.values())
            if config.record_trace
            else (),
        )
        merges.append(record)

    @staticmethod
    def _component_delays(
        graph, edges: Set[int], representative: int, delay: Sequence[float]
    ) -> Dict[int, float]:
        """Delay from every node of a component to its representative terminal.

        Computed by a breadth/best-first walk over the component's own edges;
        components are (nearly) trees, so a simple Dijkstra over the edge set
        is cheap and exact.
        """
        adjacency: Dict[int, List[Tuple[int, int]]] = {}
        for edge in edges:
            u = int(graph.edge_u[edge])
            v = int(graph.edge_v[edge])
            adjacency.setdefault(u, []).append((edge, v))
            adjacency.setdefault(v, []).append((edge, u))
        result: Dict[int, float] = {representative: 0.0}
        heap = AddressableBinaryHeap()
        heap.push(representative, 0.0)
        settled: Set[int] = set()
        while heap:
            d, node = heap.pop()
            if node in settled:
                continue
            settled.add(node)
            result[node] = d
            for edge, other in adjacency.get(node, []):
                if other in settled:
                    continue
                candidate = d + delay[edge]
                if candidate < result.get(other, float("inf")):
                    result[other] = candidate
                    heap.push(other, candidate)
        return result

    @staticmethod
    def _root_comp(comp_owner: Dict[int, int]) -> int:
        for comp, owner in comp_owner.items():
            if owner == ROOT_ID:
                return comp
        raise RuntimeError("root component missing")

    @staticmethod
    def _root_target_sample(
        comp_nodes: Dict[int, Set[int]], comp_owner: Dict[int, int], root_node: int
    ) -> List[int]:
        for comp, owner in comp_owner.items():
            if owner == ROOT_ID:
                nodes = comp_nodes[comp]
                if len(nodes) <= 24:
                    return list(nodes)
                sample = list(nodes)[:: max(1, len(nodes) // 24)]
                if root_node not in sample:
                    sample.append(root_node)
                return sample
        return [root_node]

    @staticmethod
    def _best_steiner_position(
        *,
        graph,
        estimator: FutureCostEstimator,
        path_nodes: List[int],
        path_edges: List[int],
        delay: Sequence[float],
        source_weight: float,
        target_weight: float,
        root_nodes: List[int],
    ) -> int:
        """Pick the Steiner vertex position on the new path (Section III-D).

        Minimises ``w(u) d(P[u,s]) + w(v) d(P[v,s])`` plus a future-cost
        estimate of the cheapest ``s``-root extension weighted by
        ``w(u) + w(v)``.
        """
        if len(path_nodes) == 1:
            return path_nodes[0]
        prefix = [0.0]
        for edge in path_edges:
            prefix.append(prefix[-1] + delay[edge])
        total = prefix[-1]
        combined = source_weight + target_weight
        best_node = path_nodes[0]
        best_value = None
        for idx, node in enumerate(path_nodes):
            value = source_weight * prefix[idx] + target_weight * (total - prefix[idx])
            remaining = None
            for target in root_nodes:
                bound = estimator.cost_lower_bound_between(node, target)
                bound += combined * estimator.delay_lower_bound(node, target)
                if remaining is None or bound < remaining:
                    remaining = bound
            value += remaining or 0.0
            if best_value is None or value < best_value:
                best_value = value
                best_node = node
        return best_node

    def _finalize(self, instance: SteinerInstance, tree_edges: List[int]) -> EmbeddedTree:
        """Build the final :class:`EmbeddedTree` (pruning dangling branches)."""
        tree = EmbeddedTree(
            instance.graph,
            instance.root,
            tuple(instance.sinks),
            tuple(tree_edges),
            self.name,
        )
        return prune_dangling_branches(tree)
