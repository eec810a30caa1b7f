"""Seeded random networks and queries for the property-test corpus."""

import string

import numpy as np

from bnquery import BayesianNetwork, Factor, Variable


def random_network(rng, n_vars, max_parents=3, deterministic_share=0.1):
    """A random DAG over binary variables with random (renormalized) CPTs.

    About ``deterministic_share`` of the rows are 0/1 point masses so the
    zero-handling paths get exercised.
    """
    names = list(string.ascii_uppercase[:n_vars])
    order = list(names)
    rng.shuffle(order)
    variables = [Variable(n, ("0", "1")) for n in names]
    by_name = {v.name: v for v in variables}

    parents = {}
    for i, name in enumerate(order):
        earlier = order[:i]
        k = min(len(earlier), int(rng.integers(0, max_parents + 1)))
        chosen = sorted(rng.choice(earlier, size=k, replace=False)) if k else []
        parents[name] = tuple(chosen)

    cpts = {}
    for name in names:
        scope = tuple(by_name[p] for p in parents[name]) + (by_name[name],)
        rows = 1
        for p in parents[name]:
            rows *= 2
        table = np.empty((rows, 2))
        for r in range(rows):
            if rng.random() < deterministic_share:
                hot = int(rng.integers(0, 2))
                table[r] = [0.0, 0.0]
                table[r, hot] = 1.0
            else:
                row = rng.random(2) + 1e-3
                table[r] = row / row.sum()
        cpts[name] = Factor(scope, table.reshape([2] * len(scope)))
    return BayesianNetwork(variables, parents, cpts)


def random_forest(rng, n_vars):
    """Two random networks side by side, the second's names lowercased."""
    first, second = random_network(rng, n_vars), random_network(rng, n_vars)
    lower = {v.name: Variable(v.name.lower(), v.states) for v in second.variables}
    variables = list(first.variables) + list(lower.values())
    parents, cpts = dict(first.parents), dict(first.cpts)
    for name, var in lower.items():
        parents[var.name] = tuple(lower[p].name for p in second.parents[name])
        cpt = second.cpt(name)
        cpts[var.name] = Factor([lower[v.name] for v in cpt.scope], cpt.values)
    return BayesianNetwork(variables, parents, cpts)


def chain_network(n_vars, seed=7):
    """N00 -> N01 -> ... -> N{n-1}, binary, random smooth CPTs."""
    rng = np.random.default_rng(seed)
    names = [f"N{i:02d}" for i in range(n_vars)]
    variables = [Variable(n, ("0", "1")) for n in names]
    parents = {names[0]: ()}
    for prev, cur in zip(names, names[1:]):
        parents[cur] = (prev,)
    cpts = {}
    first = rng.random(2) + 0.1
    cpts[names[0]] = Factor([variables[0]], first / first.sum())
    for i in range(1, n_vars):
        rows = rng.random((2, 2)) + 0.1
        rows /= rows.sum(axis=1, keepdims=True)
        cpts[names[i]] = Factor([variables[i - 1], variables[i]], rows)
    return BayesianNetwork(variables, parents, cpts)


def random_query(rng, bn, observed=()):
    """Random disjoint (targets, given, evidence) pulled from the network."""
    free = [n for n in bn.names if n not in observed]
    rng.shuffle(free)
    n_targets = int(rng.integers(1, min(3, len(free)) + 1))
    targets = free[:n_targets]
    rest = free[n_targets:]
    n_given = int(rng.integers(0, min(2, len(rest)) + 1))
    given = rest[:n_given]
    rest = rest[n_given:]
    n_evidence = int(rng.integers(0, min(2, len(rest)) + 1))
    evidence = {name: int(rng.integers(0, 2)) for name in rest[:n_evidence]}
    return tuple(targets), tuple(given), evidence


def structure_network(parents):
    """Binary network with uniform CPTs over a ``{name: parents}`` map.

    Declaration order is the map's order.  Only the structure matters to
    the compile stages, so the tables carry no information.
    """
    variables = {n: Variable(n, ("0", "1")) for n in parents}
    cpts = {}
    for name, ps in parents.items():
        scope = [variables[p] for p in ps] + [variables[name]]
        cpts[name] = Factor(scope, np.full([2] * len(scope), 0.5))
    return BayesianNetwork(list(variables.values()), parents, cpts)


def windowed_parents(n_vars, window=6, max_parents=3, seed=0):
    """W0000..: each variable takes 0-3 parents among the `window` before it."""
    rng = np.random.default_rng(seed)
    names = [f"W{i:04d}" for i in range(n_vars)]
    parents = {}
    for i, name in enumerate(names):
        pool = names[max(0, i - window):i]
        k = min(len(pool), int(rng.integers(0, max_parents + 1)))
        picks = sorted(rng.choice(len(pool), size=k, replace=False)) if k else []
        parents[name] = tuple(pool[j] for j in picks)
    return parents


def star_parents(leaves):
    """Naive Bayes: class C with leaves L0000.. whose only parent is C."""
    parents = {"C": ()}
    for i in range(leaves):
        parents[f"L{i:04d}"] = ("C",)
    return parents


def chain_parents(n_vars):
    """N0000 -> N0001 -> ... -> N{n-1}."""
    names = [f"N{i:04d}" for i in range(n_vars)]
    return {name: (names[i - 1],) if i else () for i, name in enumerate(names)}
