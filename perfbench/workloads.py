"""Seeded inputs for the four workloads, and the properties they record.

Everything here is plain data built from ``random.Random(seed)``; the
package never sees the seed, only the generated inputs.  The same seed
and scale give the same inputs.  Work per input set is kept nearly
independent of the seed (fixed op-type quotas, stratified or fixed sizes)
so that run-to-run spread reflects the program, not the draw.

Every input stays within the package's shipped defaults: brute force and
enumeration at n <= 14 (DEFAULT_BRUTE_CAP) and FRIEZE_BRUTE_CAP unset.
"""

from __future__ import annotations

import random
from collections import Counter

import oracles

WORKLOADS = ("enumerate", "formula", "queries", "cli")

WHY = {
    "enumerate": (
        "exhaustive sweeps to the brute-force cap: iter_quiddities and "
        "canonical_form/compose do almost all the work, sl2 does none"
    ),
    "formula": (
        "closed-form K_n at n in 400-900: bigint math.comb inside case_count/_tsa, "
        "counting without canonicalising or enumerating"
    ),
    "queries": (
        "2000 synthetic requests, 250 per op type, n=6-48, half invalid, a quarter repeated: "
        "eta ~43% of traced self time, frieze ~19%, sl2 ~12%; no enumeration"
    ),
    "cli": (
        "one python -m quiddity.cli process per README command at fixed sizes: import, "
        "argparse and rendering are only visible at process level"
    ),
}

# What one unit of ops_per_s is, per workload.
UNIT = {
    "enumerate": "triangulations (sum of C_{n-2} over calls)",
    "formula": "K_n values computed",
    "queries": "requests",
    "cli": "commands",
}

BRUTE_CAP = 14  # quiddity.similarity.DEFAULT_BRUTE_CAP

# The package has no recorded traffic, so the queries stream is synthetic
# and unverified against real use.  Its shape follows stated rules rather
# than guessed weights: every op type gets the same number of requests, half
# of the fresh sequences are valid, and a quarter of the sequence requests
# repeat a dihedral image of an earlier one (enough for a cache keyed on the
# canonical form to show, while most requests stay new).
QUERY_TYPES = ("verify", "frieze", "tree", "reduce", "supplement", "extend", "tiling", "embed")
SEQUENCE_OPS = ("verify", "frieze", "tree", "reduce")
REPEAT_SHARE = 0.25
MATRIX_FRIEZE_MAX_N = 12

SCALES = {
    "full": {"enum_n": range(3, BRUTE_CAP + 1), "formula_base": 400, "formula_step": 98,
             "formula_count": 6, "queries": 2000, "n_lo": 6, "n_hi": 48,
             "cli_formula_n": 500, "cli_brute_n": 12},
    "tiny": {"enum_n": range(3, 10), "formula_base": 30, "formula_step": 12,
             "formula_count": 3, "queries": 120, "n_lo": 6, "n_hi": 16,
             "cli_formula_n": 60, "cli_brute_n": 8},
}


# -- sequence builders ------------------------------------------------------

def random_quiddity(rng, n):
    """Random expansions of (1, 1, 1) up to length n, then a random rotation."""
    seq = [1, 1, 1]
    while len(seq) < n:
        i = rng.randrange(len(seq))
        seq[i] += 1
        seq[(i + 1) % len(seq)] += 1
        seq.insert(i + 1, 1)
    r = rng.randrange(n)
    return tuple(seq[r:] + seq[:r])


def same_sum_invalid(rng, n):
    """A non-quiddity sequence of length n with the quiddity sum 3n - 6."""
    while True:
        seq = list(random_quiddity(rng, n))
        i, j = rng.sample(range(n), 2)
        if seq[j] < 2:
            continue
        seq[i] += 1
        seq[j] -= 1
        if not oracles.is_quiddity(seq):
            return tuple(seq)


def dihedral_image(rng, seq):
    r = rng.randrange(len(seq))
    image = seq[r:] + seq[:r]
    return image[::-1] if rng.random() < 0.5 else image


def basic_sequence(rng, k):
    return (1,) + tuple(rng.randint(2, 5) for _ in range(k))


def superbasic_block(rng, k):
    inner = tuple(rng.randint(2, 5) for _ in range(k - 2))
    return (1, rng.randint(3, 5)) + inner + (rng.randint(3, 5),)


def word_text(exponents):
    return "*".join(("U" if c == 1 else f"U^{c}") + "*S" for c in exponents)


def stratified(count, lo, hi):
    """count sizes spread evenly over lo..hi."""
    return [lo + (i * (hi - lo + 1)) // count for i in range(count)]


# -- workloads --------------------------------------------------------------

def generate(workload, seed, scale="full"):
    """(ops, properties) for one workload.

    Each op is a dict with ``type``, its arguments, the expected answer
    where the generator knows it, and ``units`` of work for ops_per_s.
    """
    rng = random.Random(f"{workload}:{seed}")
    size = SCALES[scale]
    ops = {
        "enumerate": _enumerate_ops,
        "formula": _formula_ops,
        "queries": _query_ops,
        "cli": _cli_ops,
    }[workload](rng, size)
    return ops, _properties(workload, ops)


def _enumerate_ops(rng, size):
    # one op per n: brute K_n, enumerate_types and count_TSA_brute, each
    # over the C_{n-2} triangulations of the n-gon
    ns = list(size["enum_n"])
    rng.shuffle(ns)
    return [{"type": "sweep", "n": n, "units": 3 * oracles.catalan(n - 2)} for n in ns]


def _formula_ops(rng, size):
    # one n per stratum of width 10, so every seed does about the same work
    ns = [size["formula_base"] + size["formula_step"] * k + rng.randrange(10)
          for k in range(size["formula_count"])]
    rng.shuffle(ns)
    # one op per n: count_types, count_TSA and perfect_tripartitions
    return [{"type": "k_n", "n": n, "units": 1} for n in ns]


def _query_ops(rng, size):
    total = size["queries"]
    plan = []
    for kind in QUERY_TYPES:
        count = total // len(QUERY_TYPES)
        plan += [(kind, n) for n in stratified(count, size["n_lo"], size["n_hi"])]
    rng.shuffle(plan)
    history = []  # (sequence, valid) already sent
    ops = []
    for kind, n in plan:
        op = {"type": kind, "n": n, "units": 1}
        if kind in SEQUENCE_OPS:
            if history and rng.random() < REPEAT_SHARE:
                seq, valid = rng.choice(history)
                op["seq"] = dihedral_image(rng, seq)
                op["repeat"] = True
            else:
                valid = rng.random() < 0.5
                op["seq"] = random_quiddity(rng, n) if valid else same_sum_invalid(rng, n)
                op["repeat"] = False
                history.append((op["seq"], valid))
            op["valid"] = valid
            op["n"] = len(op["seq"])
            if kind == "tree":
                op["root"] = rng.randrange(op["n"])
            elif kind == "reduce":
                seq = op["seq"]
                k = op["n"] if rng.random() < 0.5 else rng.randint(2, op["n"] - 1)
                exps = list(seq[:k])
                if rng.random() < 0.2:
                    exps[rng.randrange(k)] *= -1
                op["word"] = word_text(exps)
        elif kind == "supplement":
            op["basic"] = basic_sequence(rng, max(1, n // 4))
        elif kind == "extend":
            op["blocks"] = [superbasic_block(rng, rng.randint(2, max(2, n // 8)))
                            for _ in range(rng.randint(2, 3))]
        elif kind == "tiling":
            reach = 1 + n // 8
            op["window"] = (-rng.randint(1, reach), rng.randint(1, reach),
                            -rng.randint(1, reach), rng.randint(1, reach))
        elif kind == "embed":
            op.update(_embed_query(rng, n))
        ops.append(op)
    return ops


def _embed_query(rng, n):
    """An is_embeddable query whose answer is known.

    A valid sequence minus two cyclically adjacent entries embeds at length
    n (those two entries complete it).  Starting away from a 1 skips the
    constructive shortcuts, so the bounded search runs; inserting 1,1 gives
    the certified adjacent-ones obstruction.
    """
    seq = random_quiddity(rng, n)
    kind = rng.choices(("search", "shortcut", "obstruction"), weights=(4, 4, 2))[0]
    starts = [i for i, x in enumerate(seq) if (x == 1) == (kind == "shortcut")]
    r = rng.choice(starts)
    query = (seq[r:] + seq[:r])[:-2]
    if kind == "obstruction":
        p = rng.randrange(1, len(query))
        return {"query": query[:p] + (1, 1) + query[p:], "embeddable": False, "case": kind}
    return {"query": query, "embeddable": True, "case": kind}


def _cli_ops(rng, size):
    """One process per README command.

    Sizes are fixed, so every seed does the same work; the seed varies only
    the argument values.  The counting commands run at the top of what one
    process does in a few tenths of a second, within the brute cap.
    """
    small = min(size["n_hi"], 16)

    def sequence(n):
        return ",".join(map(str, random_quiddity(rng, n)))

    i0 = rng.randint(2, 4)
    j0 = rng.randint(2, 4)
    window = f"--window={-i0}:{6 - i0},{-j0}:{6 - j0}"
    commands = [
        ["verify", sequence(small)],
        ["verify", ",".join(map(str, same_sum_invalid(rng, small))), "--format", "json"],
        ["frieze", sequence(12)],
        ["count", "--n", str(size["cli_formula_n"])],
        ["count", "--n", str(size["cli_brute_n"]), "--method", "brute", "--format", "json"],
        ["types", "--n", str(size["cli_brute_n"])],
        ["supplement", ",".join(map(str, basic_sequence(rng, 10)))],
        ["extend", ",".join(map(str, superbasic_block(rng, 4))), "+",
         ",".join(map(str, superbasic_block(rng, 4)))],
        ["reduce", word_text(random_quiddity(rng, small)[:8])],
        ["tree", sequence(small), "--format", "dot"],
        ["tiling", "--formula-paper", window],
        ["tiling", "--seed", "2,3,3,5", "--kfile", "{kfile}", "--lfile", "{lfile}", window],
    ]
    return [{"type": argv[0], "argv": argv, "units": 1} for argv in commands]


def parse_window(argv):
    """(i0, i1, j0, j1) of the --window=i0:i1,j0:j1 argument in argv."""
    arg = next(a for a in argv if a.startswith("--window="))
    ipart, jpart = arg.split("=", 1)[1].split(",")
    i0, i1 = (int(x) for x in ipart.split(":"))
    j0, j1 = (int(x) for x in jpart.split(":"))
    return i0, i1, j0, j1


def factor_files(argv):
    """k and l factor maps of the closed-form tiling over argv's window."""
    i0, i1, j0, j1 = parse_window(argv)
    k = {str(j): oracles.tiling_factor(j) for j in range(j0 + 1, j1)}
    l = {str(i): oracles.tiling_factor(i) for i in range(i0 + 1, i1)}
    return k, l


def _properties(workload, ops):
    sized = [op["n"] for op in ops if "n" in op]
    props = {
        "why": WHY[workload],
        "ops_unit": UNIT[workload],
        "ops": len(ops),
        "op_mix": dict(sorted(Counter(op["type"] for op in ops).items())),
        "n_histogram": {str(n): c for n, c in sorted(Counter(sized).items())},
    }
    seqs = [op for op in ops if "valid" in op]
    if seqs:
        props["valid_share"] = sum(op["valid"] for op in seqs) / len(seqs)
        props["repeated_dihedral_share"] = sum(op["repeat"] for op in seqs) / len(seqs)
        props["embed_cases"] = dict(Counter(op["case"] for op in ops if op["type"] == "embed"))
    return props
