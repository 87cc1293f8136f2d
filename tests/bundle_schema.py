"""The task bundle format as a JSON Schema, for comparison with `load_bundle` in tests.

The schema states the field types, the required fields, the minimums and
that objects hold only the named fields; README, "Task bundle format",
describes the same format in prose.  A JSON number is finite and not a
boolean here, and an integer is a JSON integer, not a number such as
2.0.  What a schema cannot state stays with the loader: address and
range parsing, keywords that normalise to nothing, and a reference with
syntax errors or a cycle.
"""

from __future__ import annotations

import sys

from jsonschema import Draft202012Validator, validators

from sheetcheck.quality import COMPARED_METRICS


def _is_number(checker, value) -> bool:
    # An integer past the largest float is not finite either: no float holds it.
    return isinstance(value, (int, float)) and not isinstance(value, bool) and abs(value) <= sys.float_info.max


def _is_integer(checker, value) -> bool:
    return isinstance(value, int) and _is_number(checker, value)


def _nullable(kind: str, **schema) -> dict:
    return {"type": [kind, "null"], **schema}


def _object(properties: dict, *required: str, nullable: bool = False) -> dict:
    """An object with only the fields `properties` names, of which `required` must be there."""
    return {
        "type": ["object", "null"] if nullable else "object",
        "properties": properties,
        "required": list(required),
        "additionalProperties": False,
    }


_THRESHOLDS = {"factor": {"type": "number", "minimum": 1}, "offset": {"type": "number", "minimum": 0}}
_TEXT = {"type": "string"}

SCHEMA = _object(
    {
        "task": _TEXT,
        "reference": {"type": ["string", "object"]},
        "tolerance": _object(
            {"abs": {"type": "number", "minimum": 0}, "rel": {"type": "number", "minimum": 0}}, nullable=True
        ),
        "graded_cells": _nullable("array", items=_TEXT),
        "annotations": _nullable(
            "array", items=_object({"range": _TEXT, "text": _TEXT, "link": _nullable("string")}, "range", "text")
        ),
        "materials": _nullable(
            "array",
            items=_object(
                {"title": _TEXT, "keywords": _nullable("array", items=_TEXT), "ref": _nullable("string")}, "title"
            ),
        ),
        "quality": _object(
            {
                **_THRESHOLDS,
                "min_idiom_operands": {"type": "integer", "minimum": 2},
                "overrides": _object(
                    {metric: _object(_THRESHOLDS, nullable=True) for metric in COMPARED_METRICS}, nullable=True
                ),
            },
            nullable=True,
        ),
    },
    "task",
    "reference",
)

_TYPES = Draft202012Validator.TYPE_CHECKER.redefine_many({"number": _is_number, "integer": _is_integer})

VALIDATOR = validators.extend(Draft202012Validator, type_checker=_TYPES)(SCHEMA)
