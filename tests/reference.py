"""Independent references for checking the loader, the factor primitives,
the compile stages and preprocessing.

The factor references work on plain dicts keyed by full assignments,
looked up cell by cell, so they share no indexing or broadcasting
machinery with the array implementation they check.  The compile-stage
references are the direct quadratic algorithms: min-fill that re-scores
every remaining vertex at every step, maximum-cardinality search that
scans every vertex, and clique harvesting by pairwise subset tests.  The
query trace reference is a plain recursive descent that routes targets by
the variables each child's subtree holds.  The loader reference reads a
document token by token and checks and renormalizes each CPT row by row,
and the preprocessing reference multiplies a ones table by each CPT and
the product by each child message through the public primitives.
"""

import math
from itertools import product

import numpy as np

from bnquery import (
    BayesianNetwork,
    Factor,
    NetworkFormatError,
    Variable,
    multiply,
    normalize_conditional,
    substitute,
    sum_out,
)


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
    the fields of an engine ``TraceEvent``.  The tree is entered at its
    root, clique 0, with every target in request order.  A clique
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

    visit(0, tuple(targets))
    return events


# -- loader -------------------------------------------------------------------


def _ref_tokens(text):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        yield lineno, line.split()


def ref_parse_network(text, warn=None):
    """Token-by-token parse; each row checked and renormalized on its own.

    The errors, their lines and order, and the warnings are the loader's
    contract for every document this reference accepts or rejects.  A
    negative or non-finite probability is outside it: this reference
    rejects those through ``Factor`` or as a row without mass.
    """
    warn = warn or (lambda message: None)
    lines = list(_ref_tokens(text))
    if not lines:
        raise NetworkFormatError("empty document; expected a 'bnet 1' header")
    lineno, header = lines[0]
    if header[:1] != ["bnet"] or len(header) != 2:
        raise NetworkFormatError(
            f"expected header 'bnet 1', got {' '.join(header)!r}", lineno
        )
    if header[1] != "1":
        raise NetworkFormatError(f"unsupported format version {header[1]!r}", lineno)

    variables = []
    by_name = {}
    parents = {}
    raw_cpts = {}  # child -> (def line, numbers)
    pending = None
    pending_need = 0

    def finish_pending(at_line):
        nonlocal pending
        if pending is None:
            return
        got = len(raw_cpts[pending][1])
        if got != pending_need:
            raise NetworkFormatError(
                f"CPT for {pending!r} needs {pending_need} probabilities, got {got}",
                at_line,
            )
        pending = None

    for lineno, toks in lines[1:]:
        key = toks[0]
        if key == "var":
            finish_pending(lineno)
            if len(toks) < 3:
                raise NetworkFormatError(
                    "var needs a name and at least one state label", lineno
                )
            name = toks[1]
            if name in by_name:
                raise NetworkFormatError(f"variable {name!r} declared twice", lineno)
            try:
                v = Variable(name, tuple(toks[2:]))
            except ValueError as exc:
                raise NetworkFormatError(str(exc), lineno) from None
            variables.append(v)
            by_name[name] = v
        elif key == "cpt":
            finish_pending(lineno)
            body = toks[1:]
            if "|" in body:
                bar = body.index("|")
                child, plist = body[:bar], tuple(body[bar + 1:])
            else:
                child, plist = body, ()
            if len(child) != 1:
                raise NetworkFormatError(
                    "cpt needs exactly one child name before '|'", lineno
                )
            child = child[0]
            if child not in by_name:
                raise NetworkFormatError(
                    f"cpt references undeclared variable {child!r}", lineno
                )
            for p in plist:
                if p not in by_name:
                    raise NetworkFormatError(
                        f"cpt for {child!r} references undeclared parent {p!r}", lineno
                    )
            if child in raw_cpts:
                raise NetworkFormatError(f"duplicate cpt for {child!r}", lineno)
            parents[child] = plist
            need = by_name[child].cardinality
            for p in plist:
                need *= by_name[p].cardinality
            raw_cpts[child] = (lineno, [])
            pending = child
            pending_need = need
        else:
            if pending is None:
                raise NetworkFormatError(
                    f"expected 'var' or 'cpt', got {key!r}", lineno
                )
            numbers = raw_cpts[pending][1]
            for tok in toks:
                try:
                    numbers.append(float(tok))
                except ValueError:
                    raise NetworkFormatError(
                        f"expected a probability, got {tok!r}", lineno
                    ) from None
                if len(numbers) > pending_need:
                    raise NetworkFormatError(
                        f"CPT for {pending!r} has more than "
                        f"{pending_need} probabilities",
                        lineno,
                    )
    finish_pending(lines[-1][0])

    missing = [v.name for v in variables if v.name not in raw_cpts]
    if missing:
        raise NetworkFormatError(f"no cpt block for {missing}")

    cpts = {}
    for v in variables:
        name = v.name
        defline, numbers = raw_cpts[name]
        scope = tuple(by_name[p] for p in parents[name]) + (v,)
        table = np.array(numbers, dtype=float).reshape(
            tuple(u.cardinality for u in scope)
        )
        rows = table.reshape(-1, v.cardinality)
        for r in range(rows.shape[0]):
            with np.errstate(over="ignore"):  # an overflowed sum raises below
                s = rows[r].sum()
            if s <= 0 or not math.isfinite(s):
                raise NetworkFormatError(
                    f"CPT row {r} for {name!r} has no probability mass", defline
                )
            if abs(s - 1.0) > 1e-6:
                warn(f"CPT row {_ref_row_label(name, parents[name], by_name, r)} "
                     f"sums to {s:.6g}; renormalized")
            rows[r] /= s
        cpts[name] = Factor(scope, table)
    return BayesianNetwork(variables, parents, cpts)


def _ref_row_label(child, plist, by_name, row):
    if not plist:
        return f"for {child!r}"
    labels = []
    for p in reversed(plist):
        card = by_name[p].cardinality
        labels.append((p, by_name[p].states[row % card]))
        row //= card
    inside = ", ".join(f"{p}={s}" for p, s in reversed(labels))
    return f"for {child!r} ({inside})"


# -- preprocessing --------------------------------------------------------------


def ref_compute_potentials(bn, tree, assignment):
    """A ones table over each clique's members, times its CPTs in name order."""
    potentials = {}
    for c in tree.cliques:
        scope = [bn.var(n) for n in c.members]
        pot = Factor(scope, np.ones([v.cardinality for v in scope]))
        for name in sorted(n for n, cid in assignment.items() if cid == c.id):
            pot = multiply(pot, bn.cpt(name))
        potentials[c.id] = pot
    return potentials


def ref_sliced(tree, potentials, evidence):
    """Each potential with the observed members substituted, in member order."""
    out = {}
    for c in tree.cliques:
        pot = potentials[c.id]
        for name in c.members:
            if name in evidence:
                pot = substitute(pot, name, evidence[name])
        out[c.id] = pot
    return out


def ref_collect(tree, potentials):
    """clique id -> (conditional, message), children first, one multiply per
    child message, then a normalization and a sum over the residual.

    A child with an empty separator is a hung component: its mass
    multiplies only the message, and a zero mass zeroes the conditional;
    a product of nonzero masses that underflows stays at the least
    positive float."""
    records = {}
    for c in reversed(tree.cliques):
        product, hung = potentials[c.id], []
        for ch in tree.children[c.id]:
            if tree.cliques[ch].separator:
                product = multiply(product, records[ch][1])
            else:
                hung.append(records[ch][1])
        residual = [n for n in c.residual if n in product.names]
        conditional = normalize_conditional(product, residual)
        message = sum_out(product, residual)
        own = message.total()
        for mass in hung:
            message = multiply(message, mass)
        if any(mass.total() == 0 for mass in hung):
            conditional = Factor(conditional.scope, np.zeros(conditional.values.shape))
        elif own and message.total() == 0:
            message = Factor((), np.nextafter(0.0, 1.0))
        records[c.id] = (conditional, message)
    return records
