"""Search kernel: bit-sliced model enumeration and formula evaluation.

It has two callers.  ``search`` scans a model class with ``run_search``;
``algebra`` hands the neighborhood frames of finite plausibility algebras
of one base size to ``first_countermodel`` as raw structures, the
assignments of elements to atoms being their valuations.  Both go through
the one chunk loop in ``first_countermodel``.

Formulas arrive compiled to flat postfix programs ``[op0, arg0, op1, arg1,
...]``.  Enumeration order is total and deterministic: world count
ascending, then per-world structures in ascending bitmask order (world 0
most significant), then valuations in ascending bitmask order (first atom
most significant).  Neighborhood families are compared as family bitmasks
(one bit per member set), which for the core-generated constrained class
orders each world's candidate cores by the family they generate.  A
universal model is the Kripke frame whose relation is full: every row
holds every world, so each world count has one universal structure.

Valuations are evaluated broadword (Knuth, TAOCP 4A §7.1.3): for one
structure, a formula's value at world ``w`` is a Python int whose bit
``u`` is its truth at ``w`` under the ``u``-th valuation.  Atoms become
fixed bit patterns, connectives become ``& | ^``, a box is an AND (a
diamond an OR) over a world's successors or core members, and a raw box is
an OR over the family's members of exact-truth-set indicators.  So each
formula is evaluated once per structure and chunk, not once per model,
and the lowest set bit of ``premises_ok & ~target`` is the first
countermodel in the order above.

Valuations are streamed in chunks of at most ``2**CHUNK_LOG2`` consecutive
indices, cut at whole atoms: the low atoms vary inside a chunk, the high
atoms are constant across it.  Memory therefore stays bounded whatever
the atom count.

Only one structure per isomorphism class is scanned.  Relabelling the
worlds by a permutation π maps a structure S to π(S) and each valuation to
one of π(S); a formula's truth at w becomes its truth at π(w), so premises
valid everywhere stay valid and a falsified target stays falsified.  Call
S orbit-minimal if no π(S) comes earlier in the order above.  The first
structure with a countermodel is orbit-minimal: an earlier relabelling
would have one too.  So scanning the orbit-minimal structures in order,
each in full, finds the same first countermodel as scanning them all, and
the count the full scan reports is still exact.  With k atoms, S the
countermodel's structure on n worlds, rank(S) its position among all
structures on n worlds and v its valuation's index,

    models_checked = Σ_{m<n} |structures(m)|·2^(m·k) + rank(S)·2^(n·k) + v + 1,

and an exhausted search over 1..N worlds reports
Σ_{n≤N} |structures(n)|·2^(n·k).  Finding the orbit minima costs more than
the searches they save, so their ranks are committed in
``plausible._orbits`` (written by ``tests/record_orbits.py``) and decoded
on first use.
"""

from itertools import product

(
    OP_ATOM,
    OP_TOP,
    OP_BOT,
    OP_NOT,
    OP_AND,
    OP_OR,
    OP_IMP,
    OP_IFF,
    OP_BOX,
    OP_DIA,
) = range(10)

(
    CLASS_CONSTRAINED,
    CLASS_RAW,
    CLASS_KRIPKE_ALL,
    CLASS_KRIPKE_EQUIV,
    CLASS_UNIVERSAL,
) = range(5)

# log2 of the valuations evaluated at once: each per-world int holds at
# most this many bits' worth of valuations (2**12 bits = 512 bytes).
CHUNK_LOG2 = 12


def family_key(core: int, n: int) -> int:
    """Bitmask of the superset family generated by ``core`` (bit X set iff
    X is a superset of core)."""
    key = 0
    for x in range(1 << n):
        if x & core == core:
            key |= 1 << x
    return key


def constrained_candidates(n: int) -> list[list[int]]:
    """Per-world candidate cores, ordered by the family bitmask they generate.

    Only cores containing their world are candidates (condition (t)).
    """
    out = []
    for w in range(n):
        cands = [c for c in range(1 << n) if (c >> w) & 1]
        cands.sort(key=lambda c: family_key(c, n))
        out.append(cands)
    return out


def is_equivalence(rows: tuple[int, ...], n: int) -> bool:
    for w in range(n):
        if not (rows[w] >> w) & 1:
            return False
    for a in range(n):
        ra = rows[a]
        for b in range(n):
            if (ra >> b) & 1 and rows[b] & ra != ra:
                return False
    return True


def partition_rows(n: int) -> list[tuple[int, ...]]:
    """Relation rows of every equivalence on ``n`` worlds, one per set
    partition: ``rows[w]`` is the block containing ``w``."""
    out: list[tuple[int, ...]] = []
    _place(0, n, [], out)
    return out


def _place(w: int, n: int, blocks: list[int], out: list) -> None:
    """Put world ``w`` into each block of ``blocks`` in turn, then into a
    new block of its own, and recurse; at ``w == n`` record the rows."""
    if w == n:
        out.append(tuple(next(b for b in blocks if (b >> z) & 1) for z in range(n)))
        return
    for i in range(len(blocks)):
        blocks[i] |= 1 << w
        _place(w + 1, n, blocks, out)
        blocks[i] ^= 1 << w
    blocks.append(1 << w)
    _place(w + 1, n, blocks, out)
    blocks.pop()


def world_choices(class_id: int, n: int) -> list:
    """Each world's entries in order, for the classes whose structures are
    all their combinations: candidate cores (constrained), family bitmasks
    (raw), successor rows (kripke-all) or the one full row (universal)."""
    if class_id == CLASS_CONSTRAINED:
        return constrained_candidates(n)
    if class_id == CLASS_RAW:
        return [range(1 << (1 << n))] * n
    if class_id == CLASS_UNIVERSAL:
        return [[(1 << n) - 1]] * n
    return [range(1 << n)] * n


def structures(class_id: int, n: int):
    """Yield per-world structure tuples for one world count, in order."""
    if class_id == CLASS_KRIPKE_EQUIV:
        # Sorted rows tuples are the product order of the relations.
        for rows in sorted(partition_rows(n)):
            if is_equivalence(rows, n):
                yield rows
    else:
        yield from product(*world_choices(class_id, n))


# (class id, worlds) -> ranks of the orbit-minimal structures, decoded
# from ``_orbits.RANKS`` on first use
_ranks: dict[tuple[int, int], list[int]] = {}


def orbit_ranks(class_id: int, n: int) -> list[int]:
    """Ranks, ascending, of the orbit-minimal structures on ``n`` worlds:
    their positions in ``structures(class_id, n)``."""
    ranks = _ranks.get((class_id, n))
    if ranks is None:
        # imported here, so that a command that runs no search never loads it
        from . import _orbits

        text, width = _orbits.RANKS[class_id, n], _orbits.WIDTH
        ranks = _ranks[class_id, n] = [int(text[i:i + width], 16) for i in range(0, len(text), width)]
    return ranks


def orbit_minima(class_id: int, n: int):
    """``(count, minima)``: how many structures there are on ``n`` worlds,
    and the orbit-minimal ones as ``(rank, structure)`` in order, decoded
    as they are iterated."""
    if class_id == CLASS_UNIVERSAL:  # its one structure, left out of _orbits
        return 1, [(0, ((1 << n) - 1,) * n)]
    ranks = orbit_ranks(class_id, n)
    if class_id == CLASS_KRIPKE_EQUIV:
        every = list(structures(class_id, n))
        return len(every), ((r, every[r]) for r in ranks)
    # A rank's digits, world 0 the most significant, index the worlds'
    # choices; every world has the same power-of-two number of them.
    choices = world_choices(class_id, n)
    bits = len(choices[0]).bit_length() - 1
    digit = (1 << bits) - 1
    shifts = [bits * (n - 1 - w) for w in range(n)]
    minima = ((r, tuple(c[(r >> s) & digit] for c, s in zip(choices, shifts))) for r in ranks)
    return 1 << (bits * n), minima


def bit_patterns(nbits: int) -> list[int]:
    """``patterns[b]`` has bit ``u`` set iff bit ``b`` of ``u`` is set, for
    every ``u < 2**nbits``."""
    width = 1 << nbits
    ones = (1 << width) - 1
    out = []
    for b in range(nbits):
        half = 1 << b
        out.append(ones // ((1 << (2 * half)) - 1) * (((1 << half) - 1) << half))
    return out


def _and_all(values, ones: int) -> int:
    r = ones
    for x in values:
        r &= x
    return r


def _or_all(values) -> int:
    r = 0
    for x in values:
        r |= x
    return r


def eval_program(prog, atoms, ones, n, class_id, frame) -> list[int]:
    """Evaluate a postfix program over one chunk of valuations.

    ``atoms[i][w]`` is atom ``i``'s value at world ``w`` and ``ones`` has a
    bit for every valuation of the chunk.  ``frame[w]`` lists world ``w``'s
    successors (Kripke and universal), core members (constrained) or family
    members as world sets (raw).  Returns the formula's value at each world.
    """
    stack: list = []
    for i in range(0, len(prog), 2):
        op = prog[i]
        if op == OP_ATOM:
            stack.append(atoms[prog[i + 1]])
        elif op == OP_TOP:
            stack.append([ones] * n)
        elif op == OP_BOT:
            stack.append([0] * n)
        elif op == OP_NOT:
            stack[-1] = [x ^ ones for x in stack[-1]]
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] = [x & y for x, y in zip(stack[-1], b)]
        elif op == OP_OR:
            b = stack.pop()
            stack[-1] = [x | y for x, y in zip(stack[-1], b)]
        elif op == OP_IMP:
            b = stack.pop()
            stack[-1] = [(x ^ ones) | y for x, y in zip(stack[-1], b)]
        elif op == OP_IFF:
            b = stack.pop()
            stack[-1] = [x ^ y ^ ones for x, y in zip(stack[-1], b)]
        elif op == OP_BOX:
            a = stack[-1]
            if class_id == CLASS_RAW:
                # exact[X]: the truth set is exactly the world set X
                exact = [ones]
                for x in a:
                    exact = [e & (x ^ ones) for e in exact] + [e & x for e in exact]
                stack[-1] = [_or_all(exact[s] for s in members) for members in frame]
            else:
                r = []
                for members in frame:
                    x = ones
                    for z in members:
                        x &= a[z]
                    r.append(x)
                stack[-1] = r
        else:  # OP_DIA
            a = stack[-1]
            r = []
            for members in frame:
                x = 0
                for z in members:
                    x |= a[z]
                r.append(x)
            stack[-1] = r
    return stack[-1]


def first_countermodel(gamma, target, n, natoms, class_id, minima):
    """Scan structures on ``n`` worlds, each valuation by valuation a chunk
    at a time, for the first model that globally validates every program of
    ``gamma`` while falsifying ``target``.

    ``minima`` lists ``(rank, structure)`` pairs in scan order, as
    ``orbit_minima`` does.  Returns ``(rank, structure, v, world)``: the
    model's structure, the index ``v`` of its valuation and a world where
    the target fails; or ``None`` if no model qualifies.
    """
    low = min(natoms, max(1, CHUNK_LOG2 // n))  # atoms varying inside a chunk
    high = natoms - low
    ones = (1 << (1 << (n * low))) - 1
    patterns = bit_patterns(n * low)
    # Valuation v = chunk << (n * low) | u; bit n*(natoms-1-i) + w of v is
    # atom i's truth at world w.
    low_atoms = [
        [patterns[n * (natoms - 1 - i) + w] for w in range(n)]
        for i in range(high, natoms)
    ]
    set_bits = [tuple(z for z in range(n) if (m >> z) & 1) for m in range(1 << n)]
    for rank, struct in minima:
        if class_id == CLASS_RAW:
            frame = [[x for x in range(1 << n) if (fam >> x) & 1] for fam in struct]
        else:
            frame = [set_bits[row] for row in struct]
        for chunk in range(1 << (n * high)):
            atoms = [
                [ones if (chunk >> (n * (high - 1 - i) + w)) & 1 else 0 for w in range(n)]
                for i in range(high)
            ]
            atoms += low_atoms
            ok = ones
            for g in gamma:
                ok &= _and_all(eval_program(g, atoms, ones, n, class_id, frame), ones)
                if not ok:
                    break
            if not ok:
                continue
            ts = eval_program(target, atoms, ones, n, class_id, frame)
            bad = ok & ~_and_all(ts, ones)
            if bad:
                u = (bad & -bad).bit_length() - 1
                world = next(w for w in range(n) if not (ts[w] >> u) & 1)
                return rank, struct, (chunk << (n * low)) | u, world
    return None


def run_search(class_id: int, max_worlds: int, natoms: int, programs, full_worlds: int):
    """Scan the model class for the first model falsifying the last program
    while globally validating all earlier ones.

    Only orbit-minimal structures are scanned; the result, ``models_checked``
    included, is that of scanning every structure (see the module
    docstring).  The scan stops at ``max_worlds``, below ``full_worlds``
    when the caller knows that the first countermodel, if any, lies within
    it.  Without one, the count still covers every structure on up to
    ``full_worlds`` worlds.  Returns ``(found, models_checked, worlds,
    structure, vmasks, world)``.
    """
    gamma = programs[:-1]
    target = programs[-1]
    checked = 0
    for n in range(1, max_worlds + 1):
        count, minima = orbit_minima(class_id, n)
        hit = first_countermodel(gamma, target, n, natoms, class_id, minima)
        if hit:
            rank, struct, v, world = hit
            full = (1 << n) - 1
            vmasks = tuple((v >> (n * (natoms - 1 - i))) & full for i in range(natoms))
            return (True, checked + (rank << (n * natoms)) + v + 1, n, struct, vmasks, world)
        checked += count << (n * natoms)
    for n in range(max_worlds + 1, full_worlds + 1):
        checked += orbit_minima(class_id, n)[0] << (n * natoms)
    return (False, checked, 0, (), (), -1)
