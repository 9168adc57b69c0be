"""Engine for periodic quotients of free groups.

Builds B(m, n) inductively by periods of increasing rank, decides
element orders with sound certificates, and verifies the structural
properties of the realized finite stages (relator independence, exact
period orders, dihedral-product subgroup embeddings).
"""

from .words import (
    ORDER_ID,
    Word,
    format_word,
    parse_word,
    reduced_words,
    shortlex_less,
)
from .presentation import (
    Presentation,
    TowerStatus,
    load_presentation,
    parse_presentation,
    tower_presentation,
)
from .rewrite import RewritingSystem, complete_presentation, knuth_bendix
from .cosets import CosetTable, FiniteRealization, enumerate_cosets, realize
from .subgrp import (
    Certificate,
    abelian_invariants,
    smith_normal_form,
    verify_certificate,
)
from .oracle import Budgets, OrderVerdict, StageContext, element_order
from .tower import TowerResult, audit_tower, build_report, run_tower
from .dihedral import (
    DihedralProductSpec,
    FiniteGroupTable,
    build_dihedral,
    direct_product,
    embed_search,
)

__version__ = "0.1.0"

__all__ = [
    "ORDER_ID",
    "Word",
    "format_word",
    "parse_word",
    "reduced_words",
    "shortlex_less",
    "Presentation",
    "TowerStatus",
    "load_presentation",
    "parse_presentation",
    "tower_presentation",
    "RewritingSystem",
    "complete_presentation",
    "knuth_bendix",
    "CosetTable",
    "FiniteRealization",
    "enumerate_cosets",
    "realize",
    "Certificate",
    "abelian_invariants",
    "smith_normal_form",
    "verify_certificate",
    "Budgets",
    "OrderVerdict",
    "StageContext",
    "element_order",
    "TowerResult",
    "audit_tower",
    "build_report",
    "run_tower",
    "DihedralProductSpec",
    "FiniteGroupTable",
    "build_dihedral",
    "direct_product",
    "embed_search",
    "__version__",
]
