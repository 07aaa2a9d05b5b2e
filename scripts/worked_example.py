#!/usr/bin/env python3
"""Walk one five-step scenario end to end, printing every derived object.

The scenario pushes five balls through the queue with insertion counts
(3, 0, 2, 0, 0) and sides r, l, l, r, l; the script prints the trace, the
standings partitions, the permutation relating them, and the operator
product that reproduces the same block structure as a scalar.
"""

from lrcumulants.deque import (
    ChiWord,
    combined_standings,
    sigma_chi,
    simulate,
    standings_partitions,
)
from lrcumulants.fock import CoefficientTable, lemma67_vector, reverse_bimixture_symbol, symbol_str
from lrcumulants.lukasiewicz import LukPath, psi
from lrcumulants.partitions import act

path = LukPath([2, -1, 1, -1, -1])
chi = ChiWord("rllrl")

trace = simulate(path, chi)
print(f"rise-vector        : {list(path.rise)}")
print(f"chi                : {chi}")
print(f"exit order         : {list(trace.exit_order)}")
print(f"output partition   : {trace.output_partition.to_json()}")
print(f"insertion times    : {list(trace.insertion_times)}")
print(f"canonical path back: {psi(trace.output_partition).to_json()}")

left, right = standings_partitions(trace)
rho = combined_standings(trace)
sigma = sigma_chi(chi)
print(f"left standings     : {left.to_json()}")
print(f"right standings    : {right.to_json()}")
print(f"combined standings : {rho.to_json()}")
print(f"sigma              : {sigma.to_json()}")
print(f"sigma . combined   : {act(sigma, rho).to_json()}   (the output partition again)")

print("\nper-block reverse mixtures:")
for block in trace.output_partition.blocks:
    omega = tuple(range(1, 6))
    sub_omega = tuple(omega[m - 1] for m in block)
    sub_chi = "".join(chi.letters[m - 1] for m in block)
    sym = reverse_bimixture_symbol(sub_omega, sub_chi)
    print(f"  block {list(block)} -> {symbol_str(sym)}")

table = CoefficientTable.symbolic(5, 5)
vec = lemma67_vector(path, chi, (1, 2, 3, 4, 5), table)
print(f"\noperator product on the vacuum: {{(): {vec[()]}}}")
