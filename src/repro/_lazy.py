"""Package exports resolved on first use (PEP 562).

A package ``__init__`` that lists its public names in one
name→submodule table and installs :func:`lazy_exports` imports a
submodule only when one of its names is first read.  Importing the
package then costs only what a process actually uses: a serial sweep
never loads the trace generator, the importers or the partition search
just because they share a package with what it runs.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]):
    """The ``(__getattr__, __dir__)`` pair that serves ``exports``.

    ``exports`` maps each public name to the submodule defining it, or
    to ``"submodule:attribute"`` for a name re-exported under another
    name.  A resolved name is stored on the package, so each is looked
    up once.  Any other name raises ``AttributeError``, which also lets
    ``from package import submodule`` fall through to a plain import.
    """

    def __getattr__(name: str):
        try:
            target = exports[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module, _, attr = target.partition(":")
        value = getattr(import_module(f"{package}.{module}"), attr or name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
