"""Builders and checks that more than one test module uses."""

from gainsparse import SparsityParams, UncoloredMultigraph, is_kl_sparse
from gainsparse.henneberg import _construct

P23 = SparsityParams(2, 3)


def certificate_graph(family, steps, seed, group=None):
    """The graph of random_construct(family, steps, seed, group), as its
    construction built it."""
    return _construct(family, steps, seed, group)[1]


def is_circuit_23(mg, edge_ids):
    """Is the edge id set a (2,3)-circuit of the multigraph mg: not
    (2,3)-sparse, while every subset missing one edge is?"""
    by_id = {e[0]: e for e in mg.edges}

    def sparse(ids):
        return is_kl_sparse(
            UncoloredMultigraph(mg.vertices, [by_id[i] for i in ids]), P23)

    return (not sparse(edge_ids)
            and all(sparse(edge_ids - {i}) for i in edge_ids))
