"""Builders the tests share: random fat graphs, every one-split expansion
of a diagram through the public move, a diagram-level evaluator of the
TQFT operations, independent of the type-level mu, and a wrong rule of
essential edges for negative controls."""

import itertools
import random
from functools import reduce

from chordlab import chord as ch
from chordlab import fatgraph as fg
from chordlab.errors import ChordLabError


def _random_composition(rng: random.Random, total: int, min_part: int) -> list[int]:
    """Random composition of total into parts >= min_part (greedy)."""
    parts = []
    left = total
    while left >= 2 * min_part:
        hi = left - min_part
        parts.append(rng.randint(min_part, hi))
        left -= parts[-1]
    if left:
        if left >= min_part:
            parts.append(left)
        elif parts:
            parts[-1] += left
    return parts


def random_fatgraph(rng: random.Random, max_edges: int = 12) -> fg.FatGraph:
    """A uniform-ish random connected fat graph with valence >= 3."""
    while True:
        n_edges = rng.randint(2, max_edges)
        n = 2 * n_edges
        halves = list(range(n))
        rng.shuffle(halves)
        sizes = _random_composition(rng, n, 3)
        vertex_lists, at = [], 0
        for s in sizes:
            vertex_lists.append(halves[at: at + s])
            at += s
        matching = list(range(n))
        rng.shuffle(matching)
        pairing = [0] * n
        for i in range(0, n, 2):
            a, b = matching[i], matching[i + 1]
            pairing[a], pairing[b] = b, a
        try:
            return fg.validate(pairing, vertex_lists)
        except ChordLabError:
            continue


def essential_either_end(t, a: int, b: int) -> bool:
    """chord._essential with one more edge called essential: a ghost edge
    from a circular vertex to an internal one, which the true rule
    collapses (it asks for both ends circular)."""
    va, vb = t.vertex_of[a], t.vertex_of[b]
    if t.colors[a] < t.p + t.q:
        return t.component[va] == t.component[vb]
    return t.circular[va] or t.circular[vb]


def expansions(c: ch.ChordDiagram) -> list[ch.ChordDiagram]:
    """Every diagram one vertex split of c gives, one per split, in the
    order of chord._splits.  The new edge is the last one, half-edges n-2
    and n-1; collapsing it gives back c's class."""
    return [ch.apply_expansion(c, x, y)
            for x, y in ch._splits(c.graph.vertices())]


def evaluate(c: ch.ChordDiagram, A):
    """The operation of chord diagram c on the Frobenius algebra A, read off
    c's ghost edges: a dict from each input basis tuple (one index per
    incoming circle) to {output basis tuple (boundary order): coefficient}.

    The built part S starts as every circular half-edge, each incoming
    circle's outer side one tensor factor.  Each ghost edge with an end at a
    built vertex is added in turn: to an unbuilt vertex it is a whisker and
    applies nothing; otherwise it applies m when its two ends lie on cycles
    of S of two factors and Delta when they lie on one, 2g+p+q-2 steps in
    all.  The factors are last sent to their cycles' boundary positions."""
    F, d, p, q = A.field_, A.dim, c.p, c.q
    nxt, pairing = c.graph.next_at_vertex, c.graph.pairing
    vertex_of = c.graph.vertex_of()
    in_S = [lab == ch.CIRCULAR for lab in c.labels]
    built = {vertex_of[h] for h, s in enumerate(in_S) if s}

    def next_S(h):                       # first half-edge of S after h
        h = nxt[h]
        while not in_S[h]:
            h = nxt[h]
        return h

    def cycle(h):                        # h's boundary cycle of S
        out, k = {h}, next_S(pairing[h])
        while k != h:
            out.add(k)
            k = next_S(pairing[k])
        return out

    reps = [pairing[m] for m in c.markings[:p]]   # one half-edge per factor
    state = {t: {t: F.one} for t in itertools.product(range(d), repeat=p)}
    todo = [h for h in range(len(pairing)) if not in_S[h] and h < pairing[h]]
    steps = 0
    while todo:
        h = next(h for h in todo if vertex_of[h] in built
                 or vertex_of[pairing[h]] in built)
        todo.remove(h)
        a, b = ((h, pairing[h]) if vertex_of[h] in built
                else (pairing[h], h))
        if vertex_of[b] not in built:    # a whisker: no operation
            in_S[a] = in_S[b] = True
            built.add(vertex_of[b])
            continue
        ca, cb = cycle(next_S(a)), cycle(next_S(b))
        i = next(f for f, r in enumerate(reps) if r in ca)
        j = next(f for f, r in enumerate(reps) if r in cb)
        in_S[a] = in_S[b] = True
        steps += 1
        if i != j:                       # m merges factors i and j
            i, j = sorted((i, j))
            image = lambda t: [(t[:i] + t[i+1:j] + t[j+1:] + (k,), x)
                               for k, x in enumerate(A.product[t[i]][t[j]])]
            reps = reps[:i] + reps[i+1:j] + reps[j+1:] + [a]
        else:                            # Delta splits factor i
            image = lambda t: [(t[:i] + t[i+1:] + (k, l), x)
                               for k, row in enumerate(A.coproduct[t[i]])
                               for l, x in enumerate(row)]
            reps = reps[:i] + reps[i+1:] + [a, b]
        for t_in, vec in state.items():
            out = {}
            for t, x in vec.items():
                for u, y in image(t):
                    if y:
                        out[u] = F.add(out.get(u, F.zero), F.mul(x, y))
            state[t_in] = {u: x for u, x in out.items() if x}
    top = c.top_type()
    assert steps == 2 * top.genus + p + q - 2
    cycle_of = c.graph.cycle_of()
    slot = [c.boundary_order[p:].index(cycle_of[r][0]) for r in reps]
    return {t_in: {tuple(t[slot.index(s)] for s in range(q)): x
                   for t, x in vec.items()}
            for t_in, vec in state.items()}


def evaluated_rows(c: ch.ChordDiagram, A) -> list[list]:
    """evaluate(c, A) in mu's layout: d^q rows by d^p columns, a basis
    tuple (t_1..t_n) indexing row or column sum t_k d^(n-k)."""
    F, d = A.field_, A.dim
    index = lambda t: reduce(lambda n, x: n * d + x, t, 0)
    rows = [[F.zero] * d ** c.p for _ in range(d ** c.q)]
    for t_in, vec in evaluate(c, A).items():
        for t_out, x in vec.items():
            rows[index(t_out)][index(t_in)] = x
    return rows


def truncated_polynomial(rank: int, delta: str = "1", field: str = "Q") -> str:
    """The frob text of k[x]/(x^rank) over field with Delta(x^i) = delta *
    sum_{j+k=i+rank-1} x^j (x) x^k: the cohomology-ring pattern of
    CP^(rank-1), Delta scaled."""
    lines = ["frob v1", f"field {field}"] + [f"basis x{i}" for i in range(rank)]
    lines.append("unit " + " ".join("1" if i == 0 else "0" for i in range(rank)))
    lines += [f"m {i} {j} -> {i + j} 1"
              for i in range(rank) for j in range(rank - i)]
    lines += [f"Delta {i} -> {j} {i + rank - 1 - j} {delta}"
              for i in range(rank) for j in range(rank)
              if 0 <= i + rank - 1 - j < rank]
    return "\n".join(lines) + "\n"


def bent_cp2_frob() -> str:
    """truncated_polynomial(3) with Delta(1) bent by one extra 1 (x) 1 term:
    an algebra that is not Frobenius, on which some gluings fail."""
    return truncated_polynomial(3) + "Delta 0 -> 0 0 1\n"
