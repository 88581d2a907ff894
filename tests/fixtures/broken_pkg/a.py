"""Half of an import cycle, plus one of each lint-rule violation."""

from .b import beta, make_edge_histogram


def accumulate(item, bucket=[]):
    bucket.append(item)
    return bucket


def debug(item):
    print(item)
    return item


def sketch():
    return make_edge_histogram("node", ("edge",), 8.0)


def deferred():
    from .b import gamma

    return beta + gamma
