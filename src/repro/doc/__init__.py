"""Document substrate: the XML data tree of the paper's Section 2.

Public surface:

* :class:`DocumentNode`, :class:`DocumentTree`, :func:`build_tree` — the tree
  model;
* :func:`parse_string`, :func:`parse_file` — XML → tree;
* :func:`serialize`, :func:`write_file`, :func:`text_size_bytes` — tree → XML;
* :func:`document_stats`, :class:`DocumentStats` — Table 1 characteristics.
"""

from .node import ATTRIBUTE_PREFIX, DocumentNode, Value
from .parser import TEXT_TAG, coerce_value, parse_file, parse_string
from .serializer import serialize, text_size_bytes, write_file
from .stats import DocumentStats, document_stats
from .tree import DocumentTree, build_tree, subtree_size

__all__ = [
    "ATTRIBUTE_PREFIX",
    "TEXT_TAG",
    "DocumentNode",
    "DocumentStats",
    "DocumentTree",
    "Value",
    "build_tree",
    "coerce_value",
    "document_stats",
    "parse_file",
    "parse_string",
    "serialize",
    "subtree_size",
    "text_size_bytes",
    "write_file",
]
