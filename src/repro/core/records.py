"""One strict decoder for every record read from outside the process.

Records reach the library from outside in a few ways: job specs and
submit requests over HTTP, job results and results documents at the
client, run results from cache files and the journal. Each record
states its fields once, as a table ``name -> (check, default)``, and
:func:`decode` checks a decoded JSON object against that table:

- a field whose default is :data:`REQUIRED` must be present;
- an absent optional field takes (a copy of) its default;
- a present field must pass its :class:`Check`;
- keys the table does not name are ignored (minor-version skew may add
  optional fields).

Every failure is one error, :class:`~repro.errors.RecordError`, naming
the record and the field; on the service wire it is the 400
``bad-request`` envelope. :func:`loads` parses the JSON text of a
record the same way: text that is not a JSON object is a
:class:`~repro.errors.RecordError` too.

>>> fields = {"seed": (of(int), REQUIRED), "tags": (list_of(of(str)), [])}
>>> decode({"seed": 3, "extra": None}, "run", fields)
{'seed': 3, 'tags': []}
>>> decode({"seed": True}, "run", fields)
Traceback (most recent call last):
...
repro.errors.RecordError: run field 'seed' must be of type int, got True
"""

from __future__ import annotations

import copy
import json
import reprlib
import sys
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.errors import RecordError

#: The default of a field that must be present.
REQUIRED: Any = object()


class Check(NamedTuple):
    """A test one field's value must pass, and what it expects in words.

    A test may raise a more specific :class:`~repro.errors.ServiceError`
    itself (the schema-version check raises ``unsupported-version``).
    """

    test: Callable[[Any], bool]
    expects: str


#: A record's field table: wire name -> (check, default or REQUIRED).
Fields = Dict[str, Tuple[Check, Any]]


def of(*types: type) -> Check:
    """An instance of one of ``types``; a bool never counts as an int."""
    return Check(lambda value: isinstance(value, types) and (
        bool in types or not isinstance(value, bool)
    ), "of type " + " or ".join(t.__name__ for t in types))


#: A real number: a non-NaN float, or an int that fits in a float.
REAL = Check(lambda value: value == value if isinstance(value, float)
             else type(value) is int and abs(value) <= sys.float_info.max,
             "a number")


def list_of(item: Check) -> Check:
    """A list (or tuple) whose every element passes ``item``."""
    return Check(lambda value: isinstance(value, (list, tuple))
                 and all(map(item.test, value)), f"a list of {item.expects}")


def one_of(*values: str) -> Check:
    """One of a fixed set of strings."""
    return Check(lambda value: isinstance(value, str) and value in values,
                 f"one of {values}")


def decode(record: Any, what: str, fields: Fields) -> Dict[str, Any]:
    """The values of ``fields`` in ``record``, checked, defaults filled in.

    ``what`` names the record in the error. Raises
    :class:`~repro.errors.RecordError` when ``record`` is not an object,
    a required field is missing, or a field fails its check.
    """
    if not isinstance(record, dict):
        raise RecordError(f"{what} must be an object, got {reprlib.repr(record)}")
    decoded: Dict[str, Any] = {}
    for name, (check, default) in fields.items():
        if name in record:
            decoded[name] = value = record[name]
            if not check.test(value):
                raise RecordError(f"{what} field {name!r} must be "
                                  f"{check.expects}, got {reprlib.repr(value)}")
        elif default is REQUIRED:
            raise RecordError(f"{what} field {name!r} is missing")
        else:
            decoded[name] = copy.copy(default)
    return decoded


def loads(text: "str | bytes", what: str) -> Dict[str, Any]:
    """``text`` parsed as a JSON object, else a RecordError.

    Bytes are decoded as JSON text (UTF-8); bytes that do not decode
    are a RecordError too.
    """
    try:
        record = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise RecordError(f"{what} is not valid JSON: {exc}") from exc
    decode(record, what, {})  # an object, whatever its keys
    return record
