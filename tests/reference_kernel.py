"""Reference search kernel: one model at a time, one formula evaluation per
model.

This is the per-model loop that ``plausible._kernel_py`` replaced with a
bit-sliced one, kept unchanged as the test oracle: the parity tests demand
identical ``run_search`` results from both.  Kripke-equivalence frames are
found by filtering every relation, independently of the kernel's
set-partition generator.

Formulas arrive compiled to flat postfix programs ``[op0, arg0, op1, arg1,
...]`` evaluated over truth-set bitmasks.  Enumeration order is total and
deterministic: world count ascending, then per-world structures in
ascending bitmask order (world 0 most significant), then valuations in
ascending bitmask order (first atom most significant).  Neighborhood
families are compared as family bitmasks (one bit per member set), which
for the core-generated constrained class orders each world's candidate
cores by the family they generate.
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


def family_key(core: int, n: int) -> int:
    """Bitmask of the superset family generated by ``core`` (bit X set iff
    X is a superset of core)."""
    key = 0
    for x in range(1 << n):
        if x & core == core:
            key |= 1 << x
    return key


def constrained_candidates(n: int, require_t: bool = True) -> list[list[int]]:
    """Per-world candidate cores, ordered by the family bitmask they generate.

    ``require_t`` keeps only cores containing their world (condition (t));
    without it the cores generate exactly the (c)(h)(n) families.
    """
    out = []
    for w in range(n):
        cands = [
            c
            for c in range(1 << n)
            if (c >> w) & 1 or not require_t
        ]
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


def structures(class_id: int, n: int):
    """Yield per-world structure tuples for one world count, in order."""
    if class_id == CLASS_CONSTRAINED:
        yield from product(*constrained_candidates(n))
    elif class_id == CLASS_RAW:
        yield from product(range(1 << (1 << n)), repeat=n)
    elif class_id == CLASS_KRIPKE_ALL:
        yield from product(range(1 << n), repeat=n)
    elif class_id == CLASS_KRIPKE_EQUIV:
        for rows in product(range(1 << n), repeat=n):
            if is_equivalence(rows, n):
                yield rows
    else:
        yield ()


def eval_program(prog, vmasks, full, n, class_id, struct) -> int:
    """Evaluate a postfix program to the truth-set bitmask of its formula."""
    stack = []
    i = 0
    length = len(prog)
    while i < length:
        op = prog[i]
        arg = prog[i + 1]
        i += 2
        if op == OP_ATOM:
            stack.append(vmasks[arg])
        elif op == OP_TOP:
            stack.append(full)
        elif op == OP_BOT:
            stack.append(0)
        elif op == OP_NOT:
            stack[-1] ^= full
        elif op == OP_AND:
            b = stack.pop()
            stack[-1] &= b
        elif op == OP_OR:
            b = stack.pop()
            stack[-1] |= b
        elif op == OP_IMP:
            b = stack.pop()
            stack[-1] = (stack[-1] ^ full) | b
        elif op == OP_IFF:
            b = stack.pop()
            stack[-1] = (stack[-1] ^ b) ^ full
        elif op == OP_BOX:
            a = stack[-1]
            r = 0
            if class_id == CLASS_CONSTRAINED:
                for w in range(n):
                    if struct[w] & ~a == 0:
                        r |= 1 << w
            elif class_id == CLASS_RAW:
                for w in range(n):
                    if (struct[w] >> a) & 1:
                        r |= 1 << w
            elif class_id in (CLASS_KRIPKE_ALL, CLASS_KRIPKE_EQUIV):
                for w in range(n):
                    if struct[w] & ~a == 0:
                        r |= 1 << w
            else:
                r = full if a == full else 0
            stack[-1] = r
        else:  # OP_DIA
            a = stack[-1]
            r = 0
            if class_id in (CLASS_KRIPKE_ALL, CLASS_KRIPKE_EQUIV):
                for w in range(n):
                    if struct[w] & a:
                        r |= 1 << w
            else:
                r = full if a else 0
            stack[-1] = r
    return stack[-1]


def run_search(class_id: int, max_worlds: int, natoms: int, programs):
    """Scan the model class for the first model falsifying the last program
    while globally validating all earlier ones.

    Returns ``(found, models_checked, worlds, structure, vmasks, world)``.
    """
    gamma = programs[:-1]
    target = programs[-1]
    checked = 0
    for n in range(1, max_worlds + 1):
        full = (1 << n) - 1
        vrange = range(1 << n)
        for struct in structures(class_id, n):
            for vmasks in product(vrange, repeat=natoms):
                checked += 1
                ok = True
                for g in gamma:
                    if eval_program(g, vmasks, full, n, class_id, struct) != full:
                        ok = False
                        break
                if not ok:
                    continue
                ts = eval_program(target, vmasks, full, n, class_id, struct)
                if ts != full:
                    world = 0
                    while (ts >> world) & 1:
                        world += 1
                    return (True, checked, n, struct, vmasks, world)
    return (False, checked, 0, (), (), -1)
