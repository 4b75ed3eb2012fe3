#!/usr/bin/env python3
"""Supplements: completing a basic sequence to a quiddity sequence.

A basic sequence (1, A1, ..., Ak) with Ai >= 2 describes the left flank of
a triangulated polygon; reading the right flank of the same dual tree
produces the unique basic supplement, and gluing the two gives a quiddity
sequence.  Supplementing twice returns the original.
"""

from quiddity import eta, supplements

print("=== fans: a single integer always embeds ===")
for a in (1, 4, 6):
    print(f"  A={a}: left fan {supplements.fan(a)}  right fan {supplements.fan(a, 'right')}")
print()

alpha = (1, 2, 2, 6, 2, 4, 3, 2, 2, 2, 2)
bar = supplements.supplement(alpha)
print(f"alpha           = {alpha}")
print(f"supplement      = {bar}")
print(f"involution back = {supplements.supplement(bar)}")
glued = alpha + bar
print(f"concatenation ({len(glued)} entries) is a quiddity sequence: {eta.is_eta(glued)}")
print()

print("the run-rewriting computation agrees with the tree reading:")
print(f"  by runs: {supplements.supplement_by_runs(alpha)}")
print()

print("=== small catalogue ===")
for a in [(1, 4), (1, 2, 2), (1, 3, 3), (1, 2), (1, 5, 2, 2)]:
    print(f"  {a} -> {supplements.supplement(a)}")
print()

print("=== extending concatenations of super-basic blocks ===")
blocks = [(1, 4, 3), (1, 3, 4), (1, 3, 3)]
extended = supplements.extend_superbasic(blocks)
print(f"blocks {blocks}")
print(f"extend to {extended}")
print(f"valid: {eta.is_eta(extended)}; blocks appear verbatim: "
      f"{extended[:sum(len(b) for b in blocks)] == sum(blocks, ())}")
print()

print("=== which sequences can sit inside a larger quiddity sequence? ===")
for s in [(5,), (1, 3, 3, 1, 3, 3), (2, 2, 1), (2, 1, 2), (1, 1), (1, 2, 1), (9, 9)]:
    result = supplements.is_embeddable(s)
    if result.embeddable:
        print(f"  {s}: yes, e.g. {result.witness}")
    else:
        print(f"  {s}: no ({result.obstruction})")
