"""Bit-identical CPTs, trees, records, traces and answers across processes.

Python salts str hashing per process (``PYTHONHASHSEED``), so any result
that depends on set or dict iteration order over names would differ
between two runs of the same program.  One digest script runs here in two
subprocesses with different hash seeds and must print the same digest.
"""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).parent
SRC = TESTS.parent / "src"

# 40 twelve-variable networks: smaller corpora happened to give the same
# digest under every hash seed even while names of two str types mixed
DIGEST = """
import hashlib

import numpy as np

from bnquery import QueryEngine, dump_network, parse_network
from corpus import random_network

h = hashlib.sha256()
for seed in range(40):
    rng = np.random.default_rng(seed)
    bn = random_network(rng, 12)
    parsed = parse_network(dump_network(bn))
    for name in parsed.names:
        h.update(parsed.cpt(name).values.tobytes())
    engine = QueryEngine(bn)
    h.update(repr(engine.tree.cliques).encode())
    for cid in sorted(engine.prep):
        st = engine.prep[cid]
        for table in (st.potential, st.conditional, st.message):
            h.update(repr(table.names).encode())
            h.update(table.values.tobytes())
    names = bn.names
    engine.observe(names[0], 1)
    for targets in ([names[1], names[5]], [names[11]], names[3:10:3]):
        trace = []
        answer = engine.query_joint(targets, trace=trace)
        h.update(repr(trace).encode())
        h.update(repr(answer.names).encode())
        h.update(answer.values.tobytes())
print(h.hexdigest())
"""


def digest(hash_seed):
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(TESTS)])
    done = subprocess.run(
        [sys.executable, "-c", DIGEST],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


def test_digest_does_not_depend_on_the_hash_seed():
    first = digest(0)
    assert len(first) == 64
    assert digest(3) == first
