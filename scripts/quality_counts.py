"""Print the two counts of the ROADMAP's quality aim for src/coulomblab.

- lines: the lines of every module of the package;
- settable values: parameters with a default in public functions and
  methods, plus dataclass fields with a default.  "Public" means a name
  without a leading underscore, defined in the module that is inspected
  (so an imported name is counted once, where it is defined).

Run from the repository root:

    PYTHONPATH=src python scripts/quality_counts.py
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pathlib
import pkgutil

import coulomblab


def _defaults(fn) -> int:
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return 0
    return sum(p.default is not inspect.Parameter.empty for p in params)


def settable_values() -> dict:
    """Per module, the count of public settable values."""
    counts = {}
    for info in pkgutil.iter_modules(coulomblab.__path__):
        mod = importlib.import_module(f"coulomblab.{info.name}")
        n = 0
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                n += _defaults(obj)
            elif inspect.isclass(obj):
                if dataclasses.is_dataclass(obj):
                    n += sum(f.default is not dataclasses.MISSING
                             or f.default_factory is not dataclasses.MISSING
                             for f in dataclasses.fields(obj))
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = member.__func__ if isinstance(member, (classmethod, staticmethod)) \
                        else member
                    if inspect.isfunction(fn):
                        n += _defaults(fn)
        counts[info.name] = n
    return counts


def package_lines() -> int:
    root = pathlib.Path(coulomblab.__file__).parent
    return sum(len(p.read_text().splitlines()) for p in sorted(root.glob("*.py")))


def main():
    counts = settable_values()
    print(f"src/coulomblab lines: {package_lines()}")
    print(f"public settable values: {sum(counts.values())} "
          f"({', '.join(f'{k} {v}' for k, v in counts.items() if v)})")


if __name__ == "__main__":
    main()
