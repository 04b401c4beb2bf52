"""Builders the tests share: random fat graphs, every one-split expansion
of a diagram through the public move, and a diagram-level evaluator of the
TQFT operations, independent of the type-level mu."""

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


def bent_cp2_frob() -> str:
    """The frob text of k[x]/(x^3), the CP^2 pattern, over Q, with the
    unscaled coproduct Delta(x^i) = sum_{j+k=i+2} x^j (x) x^k bent by one
    extra 1 (x) 1 term in Delta(1): an algebra that is not Frobenius, on
    which some gluings fail."""
    lines = ["frob v1", "field Q", "basis x0", "basis x1", "basis x2",
             "unit 1 0 0"]
    lines += [f"m {i} {j} -> {i + j} 1"
              for i in range(3) for j in range(3 - i)]
    lines += [f"Delta {i} -> {j} {i + 2 - j} 1"
              for i in range(3) for j in range(3) if 0 <= i + 2 - j < 3]
    lines.append("Delta 0 -> 0 0 1")
    return "\n".join(lines) + "\n"
