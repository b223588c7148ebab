"""UCQ rewriting of conjunctive queries over existential rules."""

from .kb import (
    Atom,
    ConjunctiveQuery,
    ExistentialRule,
    FreshCounter,
    Term,
    atom,
    attach_answer_atom,
    canonicalize,
    const,
    cq,
    decompose_atomic_head,
    freshen_rule,
    rule,
    strip_answer_atom,
    var,
)
from .homomorphism import (
    core,
    cover,
    equivalent,
    find_homomorphism,
    homomorphisms,
    isomorphic,
    more_general,
)
from .partition import TermPartition, finer_than, join
from .unification import (
    PieceUnifier,
    aggregate_rules,
    compile_rules,
    enumerate_aggregated,
    general_piece_unifiers,
    pieces,
    single_piece_unifiers,
    validate_piece_unifier,
)
from .rewriting import (
    Limits,
    RewritingResult,
    beta,
    make_operator,
    rewrite,
    saturate,
)
from .chase import (
    ChaseState,
    EntailmentVerdict,
    chase,
    check_one_step_soundness,
    entails,
    verify_rewriting_set,
)
from .dlgp import Document, DlgpError, parse_document, query_to_dlgp, serialize

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
