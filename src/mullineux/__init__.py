"""Partition combinatorics around the Mullineux involution: Kleshchev's
good-node lattice, twisted crystals on (double) restricted strict
partitions, Cartan-matrix folding, the distinct-parts/symmetric bijection,
and exact fixed-point counting identities."""

from .bijections import distinct_to_symmetric, durfee_length, symmetric_to_distinct
from .characters import (
    CountsTable,
    IdentityReport,
    character_series,
    counts_table,
    verify_identity,
)
from .folding import (
    FoldedCartan,
    FoldReport,
    check_fold_relations,
    fold_cartan,
    unfold,
)
from .involution import (
    FixedPointRecord,
    fixed_set,
    irr_alternating_count,
    mullineux,
    mullineux_map,
)
from .partitions import (
    CrystalKind,
    InternalConsistencyError,
    Node,
    Partition,
    Residue,
    conjugate,
    format_partition,
    has_distinct_parts,
    is_e_regular,
    is_symmetric,
    parse_partition,
    partitions_of,
    residue_counts,
    residue_twisted,
    residue_type_a,
)
from .twisted import (
    TwistedNode,
    canonical_path_twisted,
    e_twisted,
    enumerate_twisted,
    f_twisted,
    node_scan,
    signature_report_twisted,
)
from .typea import (
    CrystalGraph,
    SignatureReport,
    add_cogood,
    canonical_path,
    enumerate_kleshchev,
    remove_good,
    replay_path,
    signature_report,
)

__version__ = "0.1.0"
