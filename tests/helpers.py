"""Builders and checks that more than one test module uses."""

import random

from gainsparse import SparsityParams, UncoloredMultigraph, is_kl_sparse
from gainsparse.henneberg import _construct

P23 = SparsityParams(2, 3)


def certificate_graph(family, steps, seed, group=None):
    """The graph of random_construct(family, steps, seed, group), as its
    construction built it."""
    return _construct(family, steps, seed, group)[1]


def edited(g, seed, edit, colours=()):
    """The (id, tail, head, colour coordinates) edges of g, with one plain
    edge rewired, recoloured from `colours`, or overwritten by a copy of
    another plain edge (edit "rewire", "recolour" or "copy")."""
    rng = random.Random(seed)
    raw = [(e.id, e.tail, e.head, e.color.coords) for e in sorted(g.edges)]
    plain = [i for i, (_, u, v, _) in enumerate(raw) if u != v]
    i = rng.choice(plain)
    eid, u, v, c = raw[i]
    if edit == "rewire":
        u, v = rng.sample(g.vertices, 2)
    elif edit == "recolour":
        c = rng.choice([x for x in colours if x != c])
    else:
        _, u, v, c = raw[rng.choice([j for j in plain if j != i])]
    raw[i] = (eid, u, v, c)
    return raw


def is_circuit_23(mg, edge_ids):
    """Is the edge id set a (2,3)-circuit of the multigraph mg: not
    (2,3)-sparse, while every subset missing one edge is?"""
    by_id = {e[0]: e for e in mg.edges}

    def sparse(ids):
        return is_kl_sparse(
            UncoloredMultigraph(mg.vertices, [by_id[i] for i in ids]), P23)

    return (not sparse(edge_ids)
            and all(sparse(edge_ids - {i}) for i in edge_ids))
