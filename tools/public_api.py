"""List the package's public names with what a caller can set on each.

    python tools/public_api.py

Prints one line per name in ``subharmonic.__all__``: a dataclass with its
fields, any other callable with its parameters, as ``name(a, b=1, ...)``
(a field or parameter with a default shows its repr), and a name without
a Python signature (an exception class, a string) alone.  The last line
is ``settable values: N``, the count of the fields and parameters listed.

The package is imported from the ``src`` directory of the checkout this
file sits in, so a copy of this file run from another checkout lists that
checkout's API, and ``diff`` of the two listings shows what moved.
"""

from __future__ import annotations

import dataclasses
import inspect
import os
import sys
from typing import Iterator, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def settable(obj) -> Optional[List[str]]:
    """The fields of a dataclass or the parameters of a callable, each as
    ``name`` or ``name=repr(default)``; None for an object without a
    Python signature."""
    if dataclasses.is_dataclass(obj):
        pairs = [(f.name, f.default) for f in dataclasses.fields(obj)]
        none = dataclasses.MISSING
    elif not callable(obj):
        return None
    else:
        try:
            params = inspect.signature(obj).parameters.values()
        except (TypeError, ValueError):
            return None
        pairs = [(p.name, p.default) for p in params]
        none = inspect.Parameter.empty
    return [name if default is none else f"{name}={default!r}"
            for name, default in pairs]


def listing() -> Iterator[str]:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import subharmonic

    total = 0
    for name in subharmonic.__all__:
        names = settable(getattr(subharmonic, name))
        if names is None:
            yield name
        else:
            total += len(names)
            yield f"{name}({', '.join(names)})"
    yield f"settable values: {total}"


if __name__ == "__main__":
    for line in listing():
        print(line)
