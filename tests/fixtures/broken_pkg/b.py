"""Other half of the import cycle, which still imports cleanly: ``a``
is bound as a module and read only at call time."""

from . import a

beta = 2


def make_edge_histogram(node, scope, buckets):
    return (node, scope, buckets, a.accumulate)
