"""Factorization under pairwise factor constraints in commutative rings with
zero divisors: rings, relations, factorization enumeration, irreducibility
classification, essential-divisor splits, finite-factorization properties,
and a theorem-verification harness.

Importing the package loads none of its modules: each exported name below
is read from its module on first access (PEP 562), so a CLI command loads
only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# The names each module exports through the package.
_EXPORTS = {
    "rings": """AssociateKind CofactorSet ElementClass InfiniteSetError IntegersSpec
        ModIntSpec PolyQuotSpec ProductSpec Ring RingConstructionError
        UnsupportedOperationError build_ring""",
    "relations": """ComaximalTau EmptyTau FullTau RegCapTau RegularTau SubsetTau
        TauConstructionError TauRelation ZeroProductTau build_tau check_tau_property""",
    "factor": """Factorization FactorizationSet PreconditionError PumpWitness
        canonicalize enumerate_factorizations tau_divides""",
    "irreducibles": """Flag IrreducibilityProfile IrreducibleKind TauRAtomResult
        classify hierarchy_violations tau_r_atom""",
    "ufact": "UDomainError UFactorization phi phi_inverse u_partitions",
    "properties": """Elasticity Evaluator PropKind PropScope PropertyId
        PropertyVerdict check_property elasticity""",
    "theorems": "summarize",
    "corpus": "CorpusError default_corpus_spec generate_corpus",
    "parsing": """ParseError build_ring_from_text build_tau_from_text parse_element
        parse_ring_spec parse_tau_spec""",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
