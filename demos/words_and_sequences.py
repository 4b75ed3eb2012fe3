#!/usr/bin/env python3
"""Generator words in SL2(Z) and the quiddity-sequence criterion.

Walks through the matrices S, T, U, shows how orders of short words are
computed exactly, rewrites a few elements into the alternating S/T normal
form, and demonstrates that a cyclic sequence of positive integers is a
quiddity sequence exactly when its U^c*S word multiplies out to -I.
"""

from quiddity import eta, sl2
from quiddity.sl2 import I, S, T, U

print("=== generators ===")
print(f"S = {S}   S^2 = {S @ S}   order {sl2.element_order(S)}")
print(f"T = {T}   order {sl2.element_order(T)}")
print(f"U = {U} = S*T^2: {S @ T @ T == U}")
print()

print("=== orders of short words ===")
for text in ["U*S", "U^2*S", "U*S*U^2*S", "U^-1*S"]:
    m = sl2.eval_tokens(text)
    order = sl2.element_order(m)
    print(f"{text:12s} -> {m}  order {order if order else 'infinite'}")
print()

print("=== the cube of U*S ===")
us = U @ S
print(f"(U*S)^3 = {us @ us @ us}  (this is -I, the seed of everything below)")
print()

print("=== normal forms ===")
for text in ["U^2*S*U*S", "U^5", "S*U^-3*S"]:
    m = sl2.eval_tokens(text)
    form = sl2.ts_normal_form(m)
    print(f"{text:12s} -> {form}   (re-evaluates correctly: {form.to_matrix() == m})")
print()

print("=== cancellation identity (U^(a+1)S)(US)(U^(b+1)S) = (U^aS)(U^bS) ===")
print("holds on -5..5 x -5..5:",
      all(sl2.word_product((a + 1, 1, b + 1)) == sl2.word_product((a, b))
          for a in range(-5, 6) for b in range(-5, 6)))
print()

print("=== quiddity criterion: product of U^c*S equals -I ===")
for seq in [(1, 1, 1), (2, 1, 3, 1, 2), (2, 2, 2), (2, 1, 2, 1, 2, 1)]:
    word = eta.word_matrix(seq)
    print(f"{seq}: word = {word}  ->  quiddity: {eta.is_eta(seq)}")
print()

print("=== rewriting rules preserve validity ===")
seq = (1, 1, 1)
print(f"start     {seq}")
for gap in [0, 1, 0]:
    seq = eta.expand(seq, gap)
    print(f"expand@{gap}  {seq}   valid: {eta.is_eta(seq)}")
print(f"rotate    {eta.rotate(seq, 2)}   valid: {eta.is_eta(eta.rotate(seq, 2))}")
print(f"reverse   {eta.reverse(seq)}   valid: {eta.is_eta(eta.reverse(seq))}")
seq = eta.contract(seq, 1)
print(f"contract  {seq}   valid: {eta.is_eta(seq)}")
