"""Independent references for checking the factor primitives and compile stages.

The factor references work on plain dicts keyed by full assignments,
looked up cell by cell, so they share no indexing or broadcasting
machinery with the array implementation they check.  The compile-stage
references are the direct quadratic algorithms: min-fill that re-scores
every remaining vertex at every step, maximum-cardinality search that
scans every vertex, and clique harvesting by pairwise subset tests.  The
query trace reference is a plain recursive descent that routes targets by
the variables each child's subtree holds.
"""

from itertools import product


def assignments(scope):
    """All full assignments of a scope, row-major (last variable fastest)."""
    names = [v.name for v in scope]
    for combo in product(*(range(v.cardinality) for v in scope)):
        yield dict(zip(names, combo))


def table_of(factor):
    """factor -> {tuple(sorted (name, state)): value} via per-cell lookup."""
    out = {}
    for a in assignments(factor.scope):
        out[tuple(sorted(a.items()))] = factor.value_at(a)
    return out


def ref_multiply(f, g):
    """Expected product table over the union scope, one scalar op per cell."""
    seen = {v.name: v for v in f.scope}
    scope = list(f.scope) + [v for v in g.scope if v.name not in seen]
    out = {}
    for a in assignments(scope):
        out[tuple(sorted(a.items()))] = f.value_at(a) * g.value_at(a)
    return scope, out


def ref_sum_out(f, names):
    names = set(names)
    scope = [v for v in f.scope if v.name not in names]
    dropped = [v for v in f.scope if v.name in names]
    out = {}
    for keep in assignments(scope):
        total = 0.0
        for extra in assignments(dropped):
            total += f.value_at({**keep, **extra})
        out[tuple(sorted(keep.items()))] = total
    return scope, out


def ref_substitute(f, name, state):
    scope = [v for v in f.scope if v.name != name]
    out = {}
    for a in assignments(scope):
        out[tuple(sorted(a.items()))] = f.value_at({**a, name: state})
    return scope, out


def ref_normalize(f, targets):
    targets = set(targets)
    context = [v for v in f.scope if v.name not in targets]
    group_vars = [v for v in f.scope if v.name in targets]
    out = {}
    for ctx in assignments(context):
        mass = 0.0
        for t in assignments(group_vars):
            mass += f.value_at({**ctx, **t})
        for t in assignments(group_vars):
            cell = {**ctx, **t}
            value = f.value_at(cell)
            out[tuple(sorted(cell.items()))] = value / mass if mass else 0.0
    return list(f.scope), out


def factor_matches(factor, scope, table, tol=0.0):
    """Compare a Factor cell-by-cell against a reference table."""
    assert sorted(v.name for v in factor.scope) == sorted(v.name for v in scope)
    for a in assignments(scope):
        expected = table[tuple(sorted(a.items()))]
        got = factor.value_at(a)
        if abs(got - expected) > tol:
            return False, a, expected, got
    return True, None, None, None


# -- compile stages -----------------------------------------------------------


def _ref_fill_cost(adj, v):
    nbrs = sorted(adj[v])
    cost = 0
    for i in range(len(nbrs)):
        for j in range(i + 1, len(nbrs)):
            if nbrs[j] not in adj[nbrs[i]]:
                cost += 1
    return cost


def ref_min_fill_order(g):
    """Eliminate the remaining vertex of least (fill cost, name), re-scoring all."""
    adj = {v: g.neighbors(v) for v in g.vertices}
    order = []
    remaining = sorted(adj)
    while remaining:
        best = min(remaining, key=lambda v: (_ref_fill_cost(adj, v), v))
        order.append(best)
        nbrs = sorted(adj[best])
        for i in range(len(nbrs)):
            for j in range(i + 1, len(nbrs)):
                adj[nbrs[i]].add(nbrs[j])
                adj[nbrs[j]].add(nbrs[i])
        for n in nbrs:
            adj[n].discard(best)
        del adj[best]
        remaining.remove(best)
    return tuple(order)


def ref_find_cliques(g, order):
    """Elimination cliques with every candidate inside another dropped."""
    adj = {v: g.neighbors(v) for v in g.vertices}
    candidates = []
    for v in order:
        candidates.append(frozenset(adj[v]) | {v})
        for n in adj[v]:
            adj[n].discard(v)
        del adj[v]
    cliques = []
    for c in candidates:
        if any(c <= other for other in candidates if other is not c and c != other):
            continue
        if c not in cliques:
            cliques.append(c)
    return tuple(cliques)


def ref_mcs_numbering(g, priority):
    """Number the vertex with the most numbered neighbours, scanning them all."""
    numbered = {}
    counts = {v: 0 for v in g.vertices}
    while len(numbered) < len(g.vertices):
        best = min(
            (v for v in g.vertices if v not in numbered),
            key=lambda v: (-counts[v], priority[v]),
        )
        numbered[best] = len(numbered) + 1
        for n in g.neighbors(best):
            if n not in numbered:
                counts[n] += 1
    return numbered


# -- query decomposition ------------------------------------------------------


def ref_trace(tree, cached_keys, targets):
    """Trace events of a recursive descent, without evidence.

    Each event is (clique id, targets, separator, requests, resolution),
    the fields of an engine ``TraceEvent``.  A component is entered at its
    root with the targets its cliques hold, in request order.  A clique
    whose (id, target set) key is in ``cached_keys`` is answered there;
    otherwise every target outside it is requested from the child whose
    subtree holds it, children in ascending rank, and a clique with no
    requests whose residual names are all targets is answered from its
    stored conditional.
    """

    def below(cid):
        names = set(tree.cliques[cid].members)
        for ch in tree.children[cid]:
            names |= below(ch)
        return names

    events = []

    def visit(cid, asked):
        clique = tree.cliques[cid]
        if (cid, frozenset(asked)) in cached_keys:
            events.append((cid, asked, clique.separator, (), "cache"))
            return
        requests = []
        for ch in tree.children[cid]:
            held = below(ch)
            sub = tuple(t for t in asked if t not in clique.members and t in held)
            if sub:
                requests.append((ch, sub, tree.cliques[ch].separator))
        stored = not requests and set(clique.residual) <= set(asked)
        resolution = "stored" if stored else "computed"
        events.append((cid, asked, clique.separator, tuple(requests), resolution))
        for ch, sub, _sep in requests:
            visit(ch, sub)

    for root in tree.roots:
        held = below(root)
        asked = tuple(t for t in targets if t in held)
        if asked:
            visit(root, asked)
    return events
