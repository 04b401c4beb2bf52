"""Builders the tests share: random fat graphs, and every one-split
expansion of a diagram through the public move."""

import random

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
