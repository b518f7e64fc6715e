"""Factorization under pairwise factor constraints in commutative rings with
zero divisors: rings, relations, factorization enumeration, irreducibility
classification, essential-divisor splits, finite-factorization properties,
and a theorem-verification harness."""

from .rings import (
    AssociateKind,
    CofactorSet,
    ElementClass,
    InfiniteSetError,
    IntegersSpec,
    ModIntSpec,
    PolyQuotSpec,
    ProductSpec,
    Ring,
    RingConstructionError,
    UnsupportedOperationError,
    build_ring,
    enumerate_elements,
    ring_predicates,
)
from .relations import (
    ComaximalTau,
    EmptyTau,
    FullTau,
    RegCapTau,
    RegularTau,
    SubsetTau,
    TauConstructionError,
    TauProperty,
    TauRelation,
    ZeroProductTau,
    build_tau,
    check_tau_property,
)
from .factor import (
    Factorization,
    FactorizationSet,
    PreconditionError,
    PumpWitness,
    Rejection,
    canonicalize,
    enumerate_factorizations,
    refine,
    tau_divides,
    validate_factorization,
)
from .irreducibles import (
    Flag,
    IrreducibilityProfile,
    IrreducibleKind,
    TauRAtomResult,
    classify,
    hierarchy_violations,
    tau_r_atom,
)
from .ufact import (
    UDomainError,
    UFactorization,
    phi,
    phi_inverse,
    u_partitions,
    validate_u_factorization,
)
from .properties import (
    Elasticity,
    Evaluator,
    PropKind,
    PropScope,
    PropertyId,
    PropertyVerdict,
    check_property,
    elasticity,
)
from .theorems import (
    TheoremEntry,
    summarize,
    verify_corpus_entry,
)
from .corpus import CorpusError, default_corpus_spec, generate_corpus
from .parsing import (
    ParseError,
    build_ring_from_text,
    build_tau_from_text,
    parse_element,
    parse_ring_spec,
    parse_tau_spec,
)

__version__ = "0.1.0"
