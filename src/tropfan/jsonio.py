"""JSON readers for datasets, parameters and networks, and writers for
parameters, patterns and reports.

Rationals travel as strings, either "p/q" or decimal literals; incoming JSON
numbers are parsed exactly (floats are routed through their literal text, so
"1.5" means 3/2, never a binary float) by the same parser as string literals,
with the same bound on decimal exponents.  Term and point indices are 1-based
in every document.
"""

from __future__ import annotations

import json
from typing import Any

from .classify import LevelSetReport
from .fan import ActivationPattern, Dataset, dataset
from .matroids import AxiomReport
from .rationals import format_rat, format_vec, parse_rat, rat, vec
from .relu import ConversionResult, ReluNetwork
from .tropical import SignomialParams, TropicalRationalParams


def loads(text: str) -> Any:
    try:
        return json.loads(text, parse_float=parse_rat, parse_int=int)
    except RecursionError:
        raise ValueError("JSON document is nested too deeply") from None


def dumps(obj: Any) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def dataset_from_json(doc: dict) -> Dataset:
    return dataset(doc["points"])


def signomial_to_json(sig: SignomialParams) -> dict:
    return {"terms": [{"a": format_rat(a), "s": format_vec(s)} for a, s in sig.terms]}


def signomial_from_json(doc: dict) -> SignomialParams:
    terms = tuple((rat(t["a"]), vec(t["s"])) for t in doc["terms"])
    d = len(terms[0][1]) if terms else 0  # SignomialParams refuses an empty list
    return SignomialParams(terms, d)


def rational_to_json(theta: TropicalRationalParams) -> dict:
    return {"num": signomial_to_json(theta.num), "den": signomial_to_json(theta.den)}


def rational_from_json(doc: dict) -> TropicalRationalParams:
    return TropicalRationalParams(signomial_from_json(doc["num"]), signomial_from_json(doc["den"]))


def pattern_to_json(G: ActivationPattern) -> dict:
    return {"neighbors": [sorted(nb) for nb in G.neighbors]}


def network_from_json(doc: dict) -> ReluNetwork:
    layers = tuple(
        (tuple(vec(row) for row in layer["W"]), vec(layer["c"])) for layer in doc["layers"]
    )
    return ReluNetwork(layers)


def level_report_to_json(report: LevelSetReport) -> dict:
    return {
        "k": report.k,
        "count": report.count,
        "components": [
            {
                "size": len(comp),
                "patterns": [pattern_to_json(report.patterns[i]) for i in comp],
            }
            for comp in report.components
        ],
        "adjacency": [{"a": a, "b": b, "dim": dim} for a, b, dim in report.adjacency],
    }


def conversion_to_json(result: ConversionResult) -> dict:
    return {
        "theta": rational_to_json(result.theta),
        "n": result.n,
        "m": result.m,
        "trace": [
            {
                "layer": layer,
                "formal_n": fn,
                "formal_m": fm,
                "stored_n": sn,
                "stored_m": sm,
            }
            for layer, fn, fm, sn, sm in result.trace
        ],
    }


def axiom_report_to_json(report: AxiomReport) -> dict:
    out = []
    for r in report.results:
        entry: dict[str, Any] = {"axiom": r.name, "passed": r.passed}
        if r.witness is not None:
            entry["witness"] = _witness_to_json(r.witness)
        out.append(entry)
    return {"all_passed": report.all_passed, "axioms": out}


def _witness_to_json(witness) -> Any:
    if isinstance(witness, ActivationPattern):
        return pattern_to_json(witness)
    if isinstance(witness, tuple):
        return [_witness_to_json(w) for w in witness]
    return witness
