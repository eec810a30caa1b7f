"""Reference answers that do not use the clique tree.

Each workload checks its answers against one of these:

* ``enumerate_joint``/``oracle_query`` from the package, for networks
  within the oracle's cell cap (asia);
* chain marginals by repeated vector-matrix products;
* naive-Bayes class posteriors summed in log space;
* a forward-backward sweep over the windowed DAG, whose window joints give
  every query confined to one window span, with or without evidence.

The remaining answers are checked against a second ``QueryEngine`` with
its caches disabled (see ``workloads``).
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from bnquery import BayesianNetwork

#: Absolute tolerance between an engine answer and its reference.
TOLERANCE = 1e-9


def chain_marginals(bn: BayesianNetwork, names: Sequence[str]) -> list[np.ndarray]:
    """Prior marginal of every chain variable, first to last."""
    p = bn.cpt(names[0]).values
    out = [p]
    for name in names[1:]:
        p = p @ bn.cpt(name).values
        out.append(p)
    return out


def star_class_posterior(
    bn: BayesianNetwork, cls: str, evidence: Mapping[str, int]
) -> np.ndarray:
    """P(cls | evidence on its leaf children), summed in log space."""
    log_p = np.log(bn.cpt(cls).values)
    for leaf, state in evidence.items():
        log_p = log_p + np.log(bn.cpt(leaf).values[:, state])
    log_p -= log_p.max()
    p = np.exp(log_p)
    return p / p.sum()


def star_leaf_marginal(bn: BayesianNetwork, cls: str, leaf: str) -> np.ndarray:
    return bn.cpt(cls).values @ bn.cpt(leaf).values


class WindowedDag:
    """Forward-backward over a DAG whose parents lie in a sliding window.

    ``names`` lists the variables in declaration order; each one's parents
    must be among the ``window`` names before it.  Step j works on the
    window S_j = names[j-window .. j]: alpha_j(S_j) = P(S_j, evidence up to
    j) and gamma_j(S_j) = P(evidence after j | S_j), so alpha_j * gamma_j is
    the joint of S_j with all the evidence.  Arrays keep one axis per name
    of S_j, of length 1 where they do not depend on it.
    """

    def __init__(self, bn: BayesianNetwork, names: Sequence[str], window: int):
        self.names = tuple(names)
        self.window = window
        self.pos = {n: i for i, n in enumerate(self.names)}
        self.cards = [bn.var(n).cardinality for n in self.names]
        # CPT of names[j], transposed and padded to broadcast over S_j.
        self._cpt: list[np.ndarray] = []
        for j, name in enumerate(self.names):
            lo = self._lo(j)
            cpt = bn.cpt(name)
            slot = []
            for p in bn.parents[name]:
                if p not in self.pos or not lo <= self.pos[p] < j:
                    raise ValueError(f"parent {p} of {name} is outside the window")
                slot.append(self.pos[p] - lo)
            order = sorted(range(len(slot)), key=slot.__getitem__)
            values = cpt.values.transpose(order + [len(slot)])
            shape = [1] * (j - lo) + [self.cards[j]]
            for k in order:
                shape[slot[k]] = self.cards[self.pos[bn.parents[name][k]]]
            self._cpt.append(values.reshape(shape))

    def _lo(self, j: int) -> int:
        return max(0, j - self.window)

    def sweep(self, evidence: Mapping[str, int]) -> "Sweep":
        n = len(self.names)
        factors = []
        for j, name in enumerate(self.names):
            f = self._cpt[j]
            if name in evidence:
                mask = np.zeros(self.cards[j])
                mask[evidence[name]] = 1.0
                f = f * mask
            factors.append(f)
        alpha = []
        a = np.ones(())
        for j in range(n):
            if j - self.window > 0:
                a = a.sum(axis=0)  # names[j-1-window] leaves the window
            a = a[..., None] * factors[j]
            alpha.append(a)
        gamma: list[np.ndarray] = [np.ones(())] * n
        gamma[-1] = np.ones([1] * alpha[-1].ndim)
        for j in range(n - 1, 0, -1):
            g = (factors[j] * gamma[j]).sum(axis=-1)
            if j - 1 - self.window >= 0:
                g = g[None]  # gamma_{j-1} ignores the name leaving the window
            gamma[j - 1] = g
        return Sweep(self, alpha, gamma)


class Sweep:
    """Window joints of one evidence state."""

    def __init__(self, dag: WindowedDag, alpha, gamma):
        self.dag = dag
        self.alpha = alpha
        self.gamma = gamma

    def conditional(self, targets: Sequence[str], given: Sequence[str] = ()) -> np.ndarray:
        """P(targets | given, evidence), axes in targets+given order.

        Every variable must lie in one window span.
        """
        dag = self.dag
        scope = list(targets) + list(given)
        j = max(dag.pos[n] for n in scope)
        lo = dag._lo(j)
        if min(dag.pos[n] for n in scope) < lo:
            raise ValueError(f"{scope} does not fit in one window")
        joint = self.alpha[j] * self.gamma[j]
        window = dag.names[lo:j + 1]
        keep = [window.index(n) for n in scope]
        drop = tuple(i for i in range(len(window)) if i not in keep)
        marginal = joint.sum(axis=drop)
        remaining = [i for i in range(len(window)) if i in keep]
        marginal = marginal.transpose([remaining.index(k) for k in keep])
        t_axes = tuple(range(len(targets)))
        return marginal / marginal.sum(axis=t_axes, keepdims=True)


def deviation(answer: np.ndarray, reference: np.ndarray) -> float:
    if answer.shape != reference.shape:
        return float("inf")
    return float(np.max(np.abs(answer - reference))) if answer.size else 0.0
