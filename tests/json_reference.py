"""A tree's JSON form as nested dicts, kept as a test oracle.

The library writes JSON text by rewriting five characters of the
canonical text.  This builds the nested ``{"label", "children"}`` dicts
from the labels and parents instead, so it shares nothing with the
writer but the :class:`PlaneTree` fields.  It does not recurse, so it
also builds the dicts of trees deeper than ``json`` can read or write.
"""

import json


def tree_to_json_obj(t):
    """The nested dict of ``t``: ``{"label": "+"|"-", "children": [...]}``."""
    nodes = [{"label": "+" if s == 1 else "-", "children": []} for s in t.labels]
    for v in range(1, t.size):
        nodes[t.parents[v]]["children"].append(nodes[v])
    return nodes[t.root]


def tree_to_json_text(t):
    """The compact JSON text of the nested dict; recurses once per tree level."""
    return json.dumps(tree_to_json_obj(t), separators=(",", ":"))
