"""Search kernel: bit-sliced model enumeration and formula evaluation.

It has two callers.  ``search`` scans a model class with ``run_search``;
``algebra`` hands the finite plausibility algebras of one base size to
``first_countermodel`` as the constrained structures of their cores, the
assignments of elements to atoms being their valuations.  Both go through
the one chunk loop in ``first_countermodel``.

Formulas arrive compiled to flat postfix programs ``[op0, arg0, op1,
arg1, ...]``, whose opcodes are the formula nodes' tags.  Enumeration
order is total and deterministic: world count ascending, then per-world
structures in ascending bitmask order (world 0 most significant), then
valuations in ascending bitmask order (first atom most significant).
The structures of every class but kripke-equiv are all combinations of
per-world entries, listed once in ``_CHOICES``: a raw world's family is
a family bitmask (one bit per member set); a constrained world's cores
come in the order of the superset families they generate
(``constrained_candidates``).  A universal model is the Kripke frame
whose relation is full: every row holds every world, so each world count
has one universal structure.

Models are evaluated broadword (Knuth, TAOCP 4A §7.1.3): a formula's
value at world ``w`` is a Python int with one bit, a lane, per model of a
chunk.  Atoms become fixed bit patterns, connectives become ``& | ^``, a
box is an AND (a diamond an OR) over a world's successors or core members,
and a raw box is a diamond over the family's members of exact-truth-set
indicators ``exact[X]``.  So each formula is evaluated once per chunk,
not once per model.

A chunk holds at most ``2**CHUNK_LOG2`` models.  If a structure has more
valuations than that, its chunks are cut at whole atoms and streamed: the
low atoms vary inside a chunk, the high atoms are constant across it, and
a chunk holds one structure.  Otherwise a chunk holds a group of g
structures side by side, as many as fit: lane ``u·g + j`` is valuation
``u`` of the group's structure ``j`` (valuation-major).  Atoms are then
the bit patterns of one structure with each bit widened to g lanes, and
an entry z of world w's row, core or family counts for structure j only
where its membership vector, bit ``u·g + j`` set iff structure j has z at
w, is set: ``a[z] | ~M`` under a box, ``a[z] & M`` under a diamond,
``exact[X] & M`` under a raw box.  An entry every structure of the group
has needs no vector, so a group of one needs none at all: g = 1 is the
layout of a chunk of one structure.

The first countermodel is still the first in the order above: of the
lanes where the premises hold and the target fails, it takes the lowest
structure j that has one, found by folding the valuation blocks onto one,
then that structure's lowest valuation u.  Scanning the group's
structures in parallel changes what is evaluated at once, not which model
is reported, so ``models_checked`` is unchanged too.

Memory stays bounded whatever the atom count: the ints of one chunk have
at most ``2**CHUNK_LOG2`` bits, and besides the evaluation stack and the
atom patterns a chunk keeps at most one membership vector per world and
entry, n·n of them (n·2^n for raw).

Only one structure per isomorphism class is scanned.  Relabelling the
worlds by a permutation π maps a structure S to π(S) and each valuation to
one of π(S); a formula's truth at w becomes its truth at π(w), so premises
valid everywhere stay valid and a falsified target stays falsified.  Call
S orbit-minimal if no π(S) comes earlier in the order above.  The first
structure with a countermodel is orbit-minimal: an earlier relabelling
would have one too.  So scanning the orbit-minimal structures in order,
each in full, finds the same first countermodel as scanning them all, and
the count the full scan reports is still exact: ``structure_count`` gives
it in closed form.  Finding the orbit minima costs more than the searches
they save, so their ranks are committed in ``plausible._orbits`` (written
by ``tests/record_orbits.py``) and decoded on first use.
"""

from itertools import islice, product

from .syntax import And, Atom, Bottom, Box, Diamond, Iff, Implies, Not, Or, Top

# The opcodes are the node tags: ``syntax`` numbers the operators once.
OP_ATOM, OP_TOP, OP_BOT, OP_NOT, OP_AND = Atom._tag, Top._tag, Bottom._tag, Not._tag, And._tag
OP_OR, OP_IMP, OP_IFF, OP_BOX, OP_DIA = Or._tag, Implies._tag, Iff._tag, Box._tag, Diamond._tag

(
    CLASS_CONSTRAINED,
    CLASS_RAW,
    CLASS_KRIPKE_ALL,
    CLASS_KRIPKE_EQUIV,
    CLASS_UNIVERSAL,
) = range(5)

# log2 of the models evaluated at once: each per-world int holds at most
# this many bits' worth of models (2**12 bits = 512 bytes).
CHUNK_LOG2 = 12


def constrained_candidates(n: int) -> list[list[int]]:
    """Per-world candidate cores, in ascending order of the family bitmask
    each generates (bit X set iff X is a superset of the core).

    Only cores containing their world are candidates (condition (t)).  Let
    z be the lowest world where cores c and d differ, z in c.  The set of
    every world but z is a superset of d, not of c, and every set above it
    in bitmask order holds z and all worlds above z, so is a superset of c
    iff of d.  So c generates the smaller bitmask: the order is descending
    lexicographic order of the cores, world 0 first, which is descending
    order of their n-bit reversal.
    """
    reversal = [int(format(r, f"0{n}b")[::-1], 2) for r in reversed(range(1 << n))]
    return [[c for c in reversal if (c >> w) & 1] for w in range(n)]


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


# Each world's entries in order on n worlds, for the classes whose
# structures are all their combinations: candidate cores (constrained),
# family bitmasks (raw), successor rows (kripke-all) or the one full row.
_CHOICES = {
    CLASS_CONSTRAINED: constrained_candidates,
    CLASS_RAW: lambda n: [range(1 << (1 << n))] * n,
    CLASS_KRIPKE_ALL: lambda n: [range(1 << n)] * n,
    CLASS_UNIVERSAL: lambda n: [[(1 << n) - 1]] * n,
}


def structures(class_id: int, n: int):
    """Yield per-world structure tuples for one world count, in order."""
    if class_id == CLASS_KRIPKE_EQUIV:
        # Sorted rows tuples are the product order of the relations.
        for rows in sorted(partition_rows(n)):
            if is_equivalence(rows, n):
                yield rows
    else:
        yield from product(*_CHOICES[class_id](n))


# (class id, worlds) -> ranks of the orbit-minimal structures, decoded
# from ``_orbits.RANKS`` on first use
_ranks: dict[tuple[int, int], list[int]] = {}
# (class id, worlds) -> ``orbit_minima`` of a ``_CHOICES`` class, decoded on first use
_minima: dict[tuple[int, int], tuple] = {}
# (class id, worlds) -> ``structure_count``, computed on first use
_counts: dict[tuple[int, int], int] = {}


def structure_count(class_id: int, n: int) -> int:
    """How many structures ``structures(class_id, n)`` yields, in closed
    form: for a ``_CHOICES`` class, every world's number of entries to the
    n-th power; for kripke-equiv, the Bell number of set partitions of n
    worlds, the last entry of row n of the Bell triangle (Aitken's array).

    A search reports the count of the full scan.  With k atoms, S the first
    countermodel's structure on n worlds, rank(S) its position in
    ``structures(class_id, n)`` and v its valuation's index,

        models_checked = Σ_{m<n} structure_count(m)·2^(m·k) + rank(S)·2^(n·k) + v + 1,

    and an exhausted search over 1..N worlds reports
    Σ_{n≤N} structure_count(n)·2^(n·k), however few of those structures
    it scanned.
    """
    count = _counts.get((class_id, n))
    if count is None:
        if class_id == CLASS_KRIPKE_EQUIV:
            row = [1]
            for _ in range(n - 1):
                below = [row[-1]]
                for x in row:
                    below.append(below[-1] + x)
                row = below
            count = row[-1]
        else:
            count = len(_CHOICES[class_id](n)[0]) ** n
        _counts[class_id, n] = count
    return count


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
    """The orbit-minimal structures on ``n`` worlds as ``(rank, structure)``
    pairs, in order."""
    if class_id == CLASS_KRIPKE_EQUIV:
        every = list(structures(class_id, n))
        return [(r, every[r]) for r in orbit_ranks(class_id, n)]
    minima = _minima.get((class_id, n))
    if minima is None:
        # A rank's digits, world 0 the most significant, index the worlds'
        # choices; every world has the same power-of-two number of them.
        # Universal's one structure is left out of _orbits: its rank is 0.
        choices = _CHOICES[class_id](n)
        bits = len(choices[0]).bit_length() - 1
        digit = (1 << bits) - 1
        shifted = [(c, bits * (n - 1 - w)) for w, c in enumerate(choices)]
        ranks = [0] if class_id == CLASS_UNIVERSAL else orbit_ranks(class_id, n)
        minima = _minima[class_id, n] = tuple((r, tuple([c[(r >> s) & digit] for c, s in shifted])) for r in ranks)
    return minima


def bit_patterns(nbits: int, unit: int) -> list[int]:
    """``patterns[b]`` has bit ``u·unit + j`` set iff bit ``b`` of ``u`` is
    set, for every ``u < 2**nbits`` and ``j < unit``.

    The top pattern is the upper half of the lanes, and each pattern below
    is the one above XOR itself shifted down by its own half period: adding
    ``2**(b-1)`` to ``u`` flips bit ``b`` of ``u`` iff bit ``b-1`` is set.
    """
    p = (1 << (unit << nbits)) - 1
    out = []
    for b in reversed(range(nbits)):
        p ^= p >> (unit << b)
        out.append(p)
    return out[::-1]


def _and_all(values, ones: int) -> int:
    r = ones
    for x in values:
        r &= x
    return r


def eval_program(prog, atoms, ones, n, class_id, frame) -> list[int]:
    """Evaluate a postfix program over one chunk of lanes.

    ``atoms[i][w]`` is atom ``i``'s value at world ``w`` and ``ones`` has a
    bit for every lane of the chunk.  ``frame[w]`` is a pair ``(full,
    part)`` of world ``w``'s entries: its successors (Kripke and universal),
    core members (constrained) or family members as world sets (raw).
    ``full`` lists those every structure of the chunk has, and ``part``
    pairs each other one with the lanes of the structures that have it.
    A raw box is a diamond over ``exact[X]``: the lanes where the operand's
    truth set is exactly ``X``.  Returns the formula's value at each world.
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
        elif op == OP_BOX and class_id != CLASS_RAW:
            a = stack[-1]
            r = []
            for full, part in frame:
                x = ones
                for z in full:
                    x &= a[z]
                for z, m in part:
                    x &= a[z] | (m ^ ones)
                r.append(x)
            stack[-1] = r
        else:  # OP_DIA, or a raw box
            a = stack[-1]
            if op == OP_BOX:
                # exact[X]: the truth set is exactly the world set X
                exact = [ones]
                for x in a:
                    exact = [e & (x ^ ones) for e in exact] + [e & x for e in exact]
                a = exact
            r = []
            for full, part in frame:
                x = 0
                for z in full:
                    x |= a[z]
                for z, m in part:
                    x |= a[z] & m
                r.append(x)
            stack[-1] = r
    return stack[-1]


def _group_frame(group, width: int, repunit: int) -> list:
    """The ``frame`` argument of ``eval_program`` for the structures of
    ``group`` side by side, structure ``j`` in the lanes ``u·g + j``.

    A structure's entry at a world is a bitmask over ``width`` entries.  The
    entries of every structure, the last structure first, are packed into
    one int and read as one string of binary digits: entry ``z`` at world
    ``w`` takes one digit per structure from it, at a stride of one
    structure, and the membership vector they spell is spread over every
    valuation block by ``repunit``.
    """
    n = len(group[0][1])
    stride = n * width
    packed = 1  # above the digits, so that bin() keeps their leading zeros
    for _, struct in reversed(group):
        for row in struct:
            packed = packed << width | row
    digits = bin(packed)[3:]
    every = (1 << len(group)) - 1
    frame = []
    for w in range(n):
        full, part = [], []
        for z in range(width):
            members = int(digits[(w + 1) * width - 1 - z::stride], 2)
            if members == every:
                full.append(z)
            elif members:
                part.append((z, members * repunit))
        frame.append((full, part))
    return frame


def first_countermodel(gamma, target, n, natoms, class_id, minima):
    """Scan structures on ``n`` worlds a chunk at a time, for the first
    model that globally validates every program of ``gamma`` while
    falsifying ``target``.  A chunk holds all valuations of as many
    structures as fit, or part of one structure's valuations.

    ``minima`` lists ``(rank, structure)`` pairs in scan order, as
    ``orbit_minima`` does.  Returns ``(rank, structure, v, world)``: the
    model's structure, the index ``v`` of its valuation and a world where
    the target fails; or ``None`` if no model qualifies.
    """
    low = min(natoms, max(1, CHUNK_LOG2 // n))  # atoms varying inside a chunk
    high = natoms - low
    vbits = n * low
    # structures side by side, when all of one's valuations fit in a chunk
    g = 1 << max(0, CHUNK_LOG2 - vbits) if high == 0 else 1
    width = 1 << n if class_id == CLASS_RAW else n
    minima = iter(minima)
    size = 0
    while group := list(islice(minima, g)):
        if len(group) != size:  # the first group, and a shorter last one
            size = len(group)
            ones = (1 << (size << vbits)) - 1
            repunit = ones // ((1 << size) - 1)  # bit u·size set for every valuation u
            patterns = bit_patterns(vbits, size)
            # Valuation v = chunk << vbits | u; bit n*(natoms-1-i) + w of v is
            # atom i's truth at world w.
            low_atoms = [
                [patterns[n * (natoms - 1 - i) + w] for w in range(n)]
                for i in range(high, natoms)
            ]
        frame = _group_frame(group, width, repunit)
        for chunk in range(1 << (n * high)):
            atoms = [
                [ones if (chunk >> (n * (high - 1 - i) + w)) & 1 else 0 for w in range(n)]
                for i in range(high)
            ]
            atoms += low_atoms
            ok = ones
            for p in gamma:
                ok &= _and_all(eval_program(p, atoms, ones, n, class_id, frame), ones)
                if not ok:
                    break
            if not ok:
                continue
            ts = eval_program(target, atoms, ones, n, class_id, frame)
            bad = ok & ~_and_all(ts, ones)
            if bad:
                # the first structure j with a countermodel: fold the
                # valuation blocks onto block 0 and take its lowest lane
                j = 0
                if size > 1:
                    folded, span = bad, size << vbits
                    while span > size:
                        span >>= 1
                        folded = (folded | folded >> span) & ((1 << span) - 1)
                    j = (folded & -folded).bit_length() - 1
                lanes = (bad >> j) & repunit
                u = ((lanes & -lanes).bit_length() - 1) // size
                lane = u * size + j
                world = next(w for w in range(n) if not (ts[w] >> lane) & 1)
                rank, struct = group[j]
                return rank, struct, (chunk << vbits) | u, world
    return None


def filtration_count(programs, class_id: int) -> int | None:
    """T: worlds enough for the first model that globally validates every
    program but the last and falsifies the last, or None for no cut.

    The letters are the atoms of the programs and their distinct modal
    subformulas, each read as a letter; an atom that compiled to bottom,
    outside the search bounds, is none.  T counts the letter assignments
    under which every premise holds and, on constrained, every ``[]A -> A``
    and ``A -> <>A``; it is 0 if none of them falsifies the target.  Only
    a search without a class bound asks for T, so of the reflexive classes
    only constrained does: kripke-equiv and universal always stop at m + 1
    worlds.  The ``search`` module docstring says why T bounds the first
    countermodel.  With more than ``CHUNK_LOG2`` letters there is no cut.
    """
    # A program's letter program reads each modal subformula as its letter.
    # A modal subformula is keyed by its opcode and its operand's letter
    # program, which tells distinct subformulas apart as their programs do.
    letters: dict = {}  # an atom's slot, or a modal subformula's key -> its letter
    modal = []  # (opcode, letter, the operand's letter program) per modal letter
    lettered = []
    for prog in programs:
        out: list[int] = []
        starts: list[int] = []  # where each stack entry's letter program begins
        for i in range(0, len(prog), 2):
            op = prog[i]
            if op == OP_ATOM:
                starts.append(len(out))
                out += (OP_ATOM, letters.setdefault(prog[i + 1], len(letters)))
            elif op == OP_TOP or op == OP_BOT:
                starts.append(len(out))
                out += (op, 0)
            elif op >= OP_BOX:
                at = starts[-1]
                key = (op, *out[at:])
                letter = letters.get(key)
                if letter is None:
                    letter = letters[key] = len(letters)
                    modal.append((op, letter, out[at:]))
                out[at:] = (OP_ATOM, letter)
            else:
                if op != OP_NOT:
                    starts.pop()
                out += (op, 0)
        lettered.append(out)
    s = len(letters)
    if s > CHUNK_LOG2:
        return None
    ones = (1 << (1 << s)) - 1
    patterns = bit_patterns(s, 1)
    atoms = [[p] for p in patterns]
    ok = ones
    for p in lettered[:-1]:
        ok &= eval_program(p, atoms, ones, 1, class_id, ())[0]
    if class_id == CLASS_CONSTRAINED:
        for op, letter, operand in modal:
            a, x = eval_program(operand, atoms, ones, 1, class_id, ())[0], patterns[letter]
            ok &= (x ^ ones) | a if op == OP_BOX else (a ^ ones) | x
    if not ok & ~eval_program(lettered[-1], atoms, ones, 1, class_id, ())[0]:
        return 0
    return ok.bit_count()


def run_search(class_id: int, bound: int | None, natoms: int, programs, full_worlds: int):
    """Scan the model class for the first model falsifying the last program
    while globally validating all earlier ones.

    Only orbit-minimal structures are scanned; the result, ``models_checked``
    included, is that of scanning every structure (see the module
    docstring and ``structure_count``).  ``bound`` is worlds enough for the
    first countermodel, the class's world bound, or None where the class
    has none: then the scan stops at ``filtration_count`` instead, worked
    out once, after the 1-world scan found nothing.  Past the bound the
    count still covers every structure on up to ``full_worlds`` worlds.
    Returns ``(found, models_checked, worlds, structure, vmasks, world)``.
    """
    gamma = programs[:-1]
    target = programs[-1]
    checked = 0
    cut = bound
    for n in range(1, full_worlds + 1):
        if n == 2 and bound is None:
            cut = filtration_count(programs, class_id)
        if cut is None or n <= cut:
            hit = first_countermodel(gamma, target, n, natoms, class_id, orbit_minima(class_id, n))
            if hit:
                rank, struct, v, world = hit
                full = (1 << n) - 1
                vmasks = tuple((v >> (n * (natoms - 1 - i))) & full for i in range(natoms))
                return (True, checked + (rank << (n * natoms)) + v + 1, n, struct, vmasks, world)
        checked += structure_count(class_id, n) << (n * natoms)
    return (False, checked, 0, (), (), -1)
