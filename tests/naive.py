"""Slow, independent reference implementations used only by tests.

Nothing here imports the package under test: polynomial arithmetic works
on little-endian coefficient tuples, set partitions come from a plain
recursive generator, group-algebra convolution is a dict double loop, and
permutation groups are listed element by element by breadth-first closure.
"""

from itertools import product


# --- polynomials over F_p ---------------------------------------------------

def pmul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


def pmod(a, m, p):
    a = list(a)
    dm = len(m) - 1
    while len(a) > dm:
        c = a[-1]
        if c == 0:
            a.pop()
            continue
        shift = len(a) - 1 - dm
        for i, mi in enumerate(m):
            a[shift + i] = (a[shift + i] - c * mi) % p
        a.pop()
    a += [0] * (dm - len(a))
    return tuple(a)


def is_irreducible(f, p):
    d = len(f) - 1
    for dd in range(1, d // 2 + 1):
        for tail in product(range(p), repeat=dd):
            g = tail + (1,)
            if not any(pmod(f, g, p)):
                return False
    return True


def root_order(f, p):
    """Multiplicative order of x in F_p[x]/f, or 0 if no power reaches 1."""
    e = len(f) - 1
    one = (1,) + (0,) * (e - 1)
    x = pmod((0, 1), f, p)
    acc = x
    for k in range(1, p ** e):
        if acc == one:
            return k
        acc = pmod(pmul(acc, x, p), f, p)
    return 0


def first_primitive_poly(p, e):
    """Lexicographically first (constant term first) primitive monic poly."""
    q1 = p ** e - 1
    for tail in product(range(p), repeat=e):
        f = tail + (1,)
        if is_irreducible(f, p) and root_order(f, p) == q1:
            return f
    raise AssertionError("no primitive polynomial found")


def least_primitive_root(p):
    for g in range(1, p):
        acc, k = g % p, 1
        while acc != 1:
            acc = acc * g % p
            k += 1
        if k == p - 1:
            return g
    raise AssertionError(f"no primitive root mod {p}")


def closure_is_subfield(subset, add, mul):
    """True iff the set holds 0 and 1 and is closed under the given
    addition and multiplication on element indices."""
    s = set(subset)
    return ({0, 1} <= s
            and all(add(a, b) in s and mul(a, b) in s for a in s for b in s))


def condition_by_definition(classes, q, is_subfield):
    """The prediction condition read straight off its statement: the
    singleton slopes M contain 0, 1 and infinity (slope q), and M minus
    infinity is not a subfield."""
    m = {cls[0] for cls in classes if len(cls) == 1}
    return {0, 1, q} <= m and not is_subfield(m - {q})


# --- set partitions ----------------------------------------------------------

def bell(n):
    """Bell number via the Bell triangle."""
    row = [1]
    for _ in range(n):
        nrow = [row[-1]]
        for v in row:
            nrow.append(nrow[-1] + v)
        row = nrow
    return row[0]


def set_partitions(items):
    """All partitions of a sequence, as tuples of tuples, in restricted
    growth string order."""
    items = list(items)
    n = len(items)
    if n == 0:
        yield ()
        return
    labels = [0] * n

    def rec(i, top):
        if i == n:
            blocks = {}
            for pos, lab in enumerate(labels):
                blocks.setdefault(lab, []).append(items[pos])
            yield tuple(tuple(b) for _, b in sorted(blocks.items()))
            return
        for v in range(top + 2):
            labels[i] = v
            yield from rec(i + 1, max(top, v))

    yield from rec(1, 0)


# --- group algebra -----------------------------------------------------------

def dict_convolve(a, b, add):
    """Convolution of coefficient dicts over a finite abelian group given
    by its addition function on element indices."""
    out = {}
    for g, cg in a.items():
        if not cg:
            continue
        for h, ch in b.items():
            if not ch:
                continue
            k = add(g, h)
            out[k] = out.get(k, 0) + cg * ch
    return out


# --- permutations -------------------------------------------------------------

def color_automorphisms(matrix):
    """All vertex permutations preserving an edge-color matrix, by brute
    force over the full symmetric group.  Only for tiny n."""
    import itertools
    m = [list(row) for row in matrix]
    n = len(m)
    out = []
    for perm in itertools.permutations(range(n)):
        if all(m[perm[u]][perm[v]] == m[u][v]
               for u in range(n) for v in range(n)):
            out.append(perm)
    return out


def perm_closure(gens, limit=200000):
    """Every element of the group generated by permutation tuples, via
    breadth-first closure under composition."""
    gens = [tuple(g) for g in gens]
    n = len(gens[0]) if gens else 0
    identity = tuple(range(n))
    seen = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for g in gens:
                b = tuple(g[x] for x in a)
                if b not in seen:
                    if len(seen) >= limit:
                        raise AssertionError("closure exceeded the limit")
                    seen.add(b)
                    nxt.append(b)
        frontier = nxt
    return seen


def strong_generators(elements, base):
    """A strong generating set along ``base`` for the group whose elements
    (permutation tuples) are all given: for each level i and each image
    gamma != base[i] of base[i] under the elements fixing base[:i], the
    least such element sending base[i] to gamma."""
    out = []
    fixing = sorted(elements)
    for point in base:
        picks = {}
        for e in fixing:
            if e[point] != point:
                picks.setdefault(e[point], e)
        out += [picks[gamma] for gamma in sorted(picks)]
        fixing = [e for e in fixing if e[point] == point]
    return out
