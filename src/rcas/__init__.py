"""Robust content-and-structure indexing for hierarchical (path, value) data.

Composite keys pair a prefix-free path with a binary-comparable value.  The
index interleaves the two dimensions at their discriminative bytes, stores
the result in an adaptive trie, and answers combined path/range queries in a
single traversal.  Static interleavings (path-value, value-path, label-wise,
z-order) are provided as baselines over the same node structure.

The package root exports the library entry points; the submodules (`keys`,
`interleave`, `trie`, `query`, `costmodel`, `dataset`) hold the rest.
"""

from .keys import CompositeKey
from .trie import build_static, bulk_load, load, save
from .query import ValueRange, cas_query, parse_query_path

__version__ = "0.1.0"
