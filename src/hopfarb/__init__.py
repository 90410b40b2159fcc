"""Hopf arborescent calculus: signed plane trees, the homeomorphic-embedding
minor relation on them, Seifert-matrix invariants of the plumbed surfaces,
and excluded-minor mining over bounded tree universes."""

from .trees import (
    PlaneTree,
    TreeSyntaxError,
    parse,
    to_text,
    enumerate_trees,
    count,
    unrank,
    delete_leaf,
    strip_root,
    contract_path,
    reductions,
    equal,
    random_tree,
)
from .embedding import (
    EmbeddingWitness,
    embeds,
    embed_witness,
    verify_witness,
    oracle_embeds,
    operation_closure,
)
from .invariants import (
    SeifertMatrix,
    LaurentPolynomial,
    Fingerprint,
    seifert_matrix,
    betti,
    boundary_components,
    genus,
    alexander,
    signature,
    determinant,
    nullity,
    fingerprint,
    fingerprint_of_matrix,
    top_defect_upper_bound,
    smooth_defect_guarantee,
)
from .minors import (
    Universe,
    PosetReport,
    Predicate,
    universe,
    poset,
    evaluate,
    check_excluded_family,
    minimal_excluded,
    audit_monotone,
    fingerprint_classes,
)

__version__ = "0.1.0"
