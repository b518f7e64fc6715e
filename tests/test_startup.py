"""What a process loads to start a command: ``import taufact`` loads no
submodule, ``taufact.cli`` loads only what ``main`` and the element queries
run, and every name the package exports is still the module's own."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import taufact

SRC = Path(taufact.__file__).resolve().parent.parent

# The names the package exports, by the module that defines them.
EXPORTS = {
    "rings": [
        "AssociateKind", "CofactorSet", "ElementClass", "InfiniteSetError", "IntegersSpec",
        "ModIntSpec", "PolyQuotSpec", "ProductSpec", "Ring", "RingConstructionError",
        "UnsupportedOperationError", "build_ring",
    ],
    "relations": [
        "ComaximalTau", "EmptyTau", "FullTau", "RegCapTau", "RegularTau", "SubsetTau",
        "TauConstructionError", "TauRelation", "ZeroProductTau", "build_tau", "check_tau_property",
    ],
    "factor": [
        "Factorization", "FactorizationSet", "PreconditionError", "PumpWitness",
        "canonicalize", "enumerate_factorizations", "tau_divides",
    ],
    "irreducibles": [
        "Flag", "IrreducibilityProfile", "IrreducibleKind", "TauRAtomResult",
        "classify", "hierarchy_violations", "tau_r_atom",
    ],
    "ufact": ["UDomainError", "UFactorization", "phi", "phi_inverse", "u_partitions"],
    "properties": [
        "Elasticity", "Evaluator", "PropKind", "PropScope", "PropertyId",
        "PropertyVerdict", "check_property", "elasticity",
    ],
    "theorems": ["TheoremEntry", "summarize", "verify_corpus_entry"],
    "corpus": ["CorpusError", "default_corpus_spec", "generate_corpus"],
    "parsing": [
        "ParseError", "build_ring_from_text", "build_tau_from_text", "parse_element",
        "parse_ring_spec", "parse_tau_spec",
    ],
}

# Loaded by the harness and the process pool, never by a query's start.
NOT_AT_START = [
    "taufact.theorems",
    "taufact.properties",
    "taufact.irreducibles",
    "taufact.ufact",
    "concurrent.futures",
    "fractions",
]

_PROBE = """
import json, sys
import taufact
after_package = sorted(m for m in sys.modules if m.startswith("taufact."))
import taufact.cli
after_cli = sorted(sys.modules)
print(json.dumps({"package": after_package, "cli": after_cli}))
"""


def test_start_up_loads_only_what_a_query_runs():
    done = subprocess.run(
        [sys.executable, "-c", _PROBE],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    loaded = json.loads(done.stdout)
    assert loaded["package"] == []
    assert [m for m in NOT_AT_START if m in loaded["cli"]] == []
    # ``main`` catches ``CorpusError``, and perfbench's tracer finds
    # ``taufact.corpus`` loaded once ``cli`` is
    assert "taufact.corpus" in loaded["cli"]


def test_exports_are_the_modules_own():
    assert sorted(taufact.__all__) == sorted(n for names in EXPORTS.values() for n in names)
    for module, names in EXPORTS.items():
        mod = importlib.import_module(f"taufact.{module}")
        for name in names:
            assert getattr(taufact, name) is getattr(mod, name), (module, name)
    from taufact import Evaluator, cli, theorems

    assert Evaluator is taufact.properties.Evaluator
    assert (cli, theorems) == (sys.modules["taufact.cli"], sys.modules["taufact.theorems"])
    assert set(taufact.__all__) <= set(dir(taufact))
