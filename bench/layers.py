"""What the traced run measures: the wrapped boundaries and the metrics
derived from them.

Each per-layer metric is computed for one traced round (one census, one
search, one batch of ``check`` calls).  Times are inclusive unless the
name ends in ``self_s``.  Beside each metric sits the end-to-end metric
it is expected to move:

* ``varieties.catalog_s``, ``symmetry.cell_perms_s``: ``setup_s``, all
  workloads (measured in the fresh set-up processes);
* ``symmetry.*`` enumeration metrics: ``census`` ``wall_s``;
* ``composability.vector_*``, ``graphs.tree_*``: ``wall_s`` of
  ``census`` and both searches;
* ``solver.*``, ``model.build_s``, ``model.constraints``: search
  ``wall_s``; ``model.check_assignment_*``: ``search-universal``;
* ``composability.{matching,treecount,hall_witness,arrangement}_*``,
  ``graphs.bipartite_*``: ``check`` ``latency_p99_ms``;
* ``instances.parse_*``, ``cli.self_s``: ``check`` ``latency_p50_ms``;
* ``experiments.self_s``: ``wall_s`` of ``census`` and the searches.
"""

from __future__ import annotations

from tracer import CALL, GEN, SPAN, Boundary, Tracer


def _left_nodes(args, result):
    return {"graphs.bipartite_left_nodes": len(args[0])}


def _supports(args, result):
    return {"symmetry.supports": len(result)}


def _orbit(args, item):
    return {"symmetry.orbits": 1}


def _constraints(args, result):
    return {"model.constraints": len(result.constraints)}


def _search(args, result):
    out = {"solver.nodes": result.nodes}
    for key, n in result.prunes.items():
        out["solver.prune." + key.removeprefix("prune_")] = n
    return out


_C, _S, _G, _M = (
    "eightblocks.composability",
    "eightblocks.symmetry",
    "eightblocks.graphs",
    "eightblocks.model",
)

BOUNDARIES = (
    Boundary(_S, "canonical_supports", "symmetry.canonical_supports", SPAN, _supports),
    Boundary(_S, "orbit_vectors", "symmetry.orbit_vectors", GEN, _orbit),
    Boundary(_S, "count_orbits", "symmetry.count_orbits", SPAN),
    Boundary(
        _C, "composable_from_vector", "composability.vector",
        also=(("eightblocks.solver", "solver.oracle"),),
    ),
    Boundary(_G, "tree_component_count", "graphs.tree"),
    Boundary(_G, "maximum_bipartite_matching", "graphs.bipartite", CALL, _left_nodes),
    Boundary(_C, "is_composable_matching", "composability.matching"),
    Boundary(_C, "is_composable_treecount", "composability.treecount"),
    Boundary(_C, "hall_witness", "composability.hall_witness"),
    Boundary(_C, "extract_arrangement", "composability.arrangement"),
    Boundary(_C, "verify_arrangement", "composability.arrangement"),
    Boundary("eightblocks.instances", "parse_instance", "instances.parse"),
    Boundary("eightblocks.solver", "solve", "solver.solve", SPAN, _search),
    Boundary(_M, "min_universal_model", "model.build", SPAN, _constraints),
    Boundary(_M, "max_infeasible_model", "model.build", SPAN, _constraints),
    Boundary(_M, "existence_model", "model.build", SPAN, _constraints),
    Boundary(_M, "check_assignment", "model.check_assignment"),
    Boundary("eightblocks.experiments", "octet_census", "experiments.octet_census", SPAN),
    Boundary("eightblocks.experiments", "run_max_infeasible", "experiments.run_max_infeasible", SPAN),
    Boundary("eightblocks.experiments", "run_min_universal", "experiments.run_min_universal", SPAN),
    Boundary("eightblocks.cli", "main", "cli.main", SPAN),
)

#: every key SearchResult.prunes takes at the parent commit
PRUNE_KINDS = (
    "capbound", "counting", "forbidden_oracle", "generic_forbidden",
    "linear", "required_oracle", "symmetry", "leaf_reject", "sat_leaves",
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

#: (name, unit, better)
PER_LAYER = (
    ("varieties.catalog_s", "s", "lower"),
    ("symmetry.cell_perms_s", "s", "lower"),
    ("symmetry.canonical_supports_s", "s", "lower"),
    ("symmetry.supports", "count", "lower"),
    ("symmetry.orbit_vectors_s", "s", "lower"),
    ("symmetry.orbits", "count", "lower"),
    ("symmetry.count_orbits_s", "s", "lower"),
    ("composability.vector_calls", "count", "lower"),
    ("composability.vector_s", "s", "lower"),
    ("graphs.tree_calls", "count", "lower"),
    ("graphs.tree_s", "s", "lower"),
    ("solver.solve_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.oracle_s", "s", "lower"),
    ("solver.nodes", "count", "lower"),
    ("solver.nodes_per_s", "1/s", "higher"),
    *((f"solver.prune.{kind}", "count", "lower") for kind in PRUNE_KINDS),
    ("solver.oracle_calls_per_node", "ratio", "lower"),
    ("solver.oracle_prune_ratio", "ratio", "higher"),
    ("model.build_s", "s", "lower"),
    ("model.constraints", "count", "lower"),
    ("model.check_assignment_calls", "count", "lower"),
    ("model.check_assignment_s", "s", "lower"),
    ("composability.matching_calls", "count", "lower"),
    ("composability.matching_s", "s", "lower"),
    ("composability.treecount_calls", "count", "lower"),
    ("composability.treecount_s", "s", "lower"),
    ("composability.hall_witness_calls", "count", "lower"),
    ("composability.hall_witness_s", "s", "lower"),
    ("composability.arrangement_calls", "count", "lower"),
    ("composability.arrangement_s", "s", "lower"),
    ("graphs.bipartite_calls", "count", "lower"),
    ("graphs.bipartite_s", "s", "lower"),
    ("graphs.bipartite_left_nodes", "count", "lower"),
    ("instances.parse_calls", "count", "lower"),
    ("instances.parse_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: counts must repeat exactly for the same code and seed
COUNT_METRICS = tuple(name for name, unit, _ in PER_LAYER if unit == "count")

_CALLS_AND_TIME = (
    "composability.vector",
    "graphs.tree",
    "model.check_assignment",
    "composability.matching",
    "composability.treecount",
    "composability.hall_witness",
    "composability.arrangement",
    "graphs.bipartite",
    "instances.parse",
)


def round_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced round, set-up and overhead aside."""
    rec = tracer.records.get
    counts = tracer.counts

    def total(name: str) -> float:
        r = rec(name)
        return r.total if r else 0.0

    def calls(name: str) -> int:
        r = rec(name)
        return r.calls if r else 0

    def self_time(prefix: str) -> float:
        return sum(r.self_time for n, r in tracer.records.items() if n.startswith(prefix))

    m: dict[str, float] = {
        "symmetry.canonical_supports_s": total("symmetry.canonical_supports"),
        "symmetry.supports": counts["symmetry.supports"],
        "symmetry.orbit_vectors_s": total("symmetry.orbit_vectors"),
        "symmetry.orbits": counts["symmetry.orbits"],
        "symmetry.count_orbits_s": total("symmetry.count_orbits"),
    }
    for name in _CALLS_AND_TIME:
        m[name + "_calls"] = calls(name)
        m[name + "_s"] = total(name)
    solve_s = total("solver.solve")
    nodes = counts["solver.nodes"]
    oracle_calls = calls("solver.oracle")
    oracle_prunes = counts["solver.prune.required_oracle"] + counts["solver.prune.forbidden_oracle"]
    m.update({
        "solver.solve_s": solve_s,
        "solver.self_s": self_time("solver.solve"),
        "solver.oracle_s": total("solver.oracle"),
        "solver.nodes": nodes,
        "solver.nodes_per_s": nodes / solve_s if solve_s else 0.0,
        "solver.oracle_calls_per_node": oracle_calls / nodes if nodes else 0.0,
        "solver.oracle_prune_ratio": oracle_prunes / oracle_calls if oracle_calls else 0.0,
        "model.build_s": total("model.build"),
        "model.constraints": counts["model.constraints"],
        "graphs.bipartite_left_nodes": counts["graphs.bipartite_left_nodes"],
        "cli.self_s": self_time("cli.main"),
        "experiments.self_s": self_time("experiments."),
    })
    for kind in PRUNE_KINDS:
        m[f"solver.prune.{kind}"] = counts[f"solver.prune.{kind}"]
    return m


def extra_counts(tracer: Tracer) -> dict[str, int]:
    """Counts the metric list does not name, such as a new prune kind."""
    known = {name for name, _, _ in PER_LAYER}
    return {k: v for k, v in sorted(tracer.counts.items()) if k not in known}
