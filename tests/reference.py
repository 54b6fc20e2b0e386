"""Pure-Python reference for the array code: a dict merge and a set-of-parts
cut counter.  Edges are lists of (vertex tuple, multiplicity) pairs."""


def ref_merge(items, key=lambda verts: tuple(sorted(verts))):
    """Equal keys merged with multiplicities summed, in sorted key order."""
    merged = {}
    for verts, mult in items:
        merged[key(verts)] = merged.get(key(verts), 0) + mult
    return sorted(merged.items())


def ref_cut(edges, assign, k):
    """Edges (with multiplicity) whose vertices meet all k parts."""
    return sum(mult for verts, mult in edges if len({assign[v] for v in verts}) == k)


def as_items(g):
    """The (vertex tuple, multiplicity) pairs of a Hypergraph or ColoredMultigraph."""
    return list(zip(map(tuple, g.edges.tolist()), g.mult.tolist()))
