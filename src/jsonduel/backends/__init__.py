"""Pluggable JSON engines behind one capability surface, plus the executor.

Engines are addressed by name in pipeline configuration:

  reference          the corrected in-repo engine
  reference-copy     an independent instance of the same engine
  planted:<bugs>     reference plus planted bugs, e.g. "planted:L2" or
                     "planted:L1+L2+L3"; "planted:" plants nothing
"""

from __future__ import annotations

from typing import Iterable, Mapping, Protocol, Union

from ..tdsl import ast
from .planted import BugId, PlantedBackend
from .reference import ReferenceBackend


class Backend(Protocol):
    """Capability surface every engine adapter provides."""

    name: str

    def validate(self, text: str) -> bool: ...

    def parse(self, text: str, features: Iterable[ast.ReaderFeature] = ()): ...

    def parse_typed(
        self,
        text: str,
        bean: ast.BeanDef,
        beans: Mapping[str, ast.BeanDef],
        features: Iterable[ast.ReaderFeature] = (),
    ) -> dict: ...

    def serialize(self, value, features: Iterable[ast.WriterFeature] = ()) -> str: ...

    def get(self, value, accessor: Union[str, int], as_type: ast.AsType): ...

    def path_eval(self, target, path: str): ...


def resolve_backend(name: str) -> Backend:
    """Build the engine a configuration name refers to."""
    if name == "reference":
        return ReferenceBackend()
    if name == "reference-copy":
        return ReferenceBackend(name="reference-copy")
    if name.startswith("planted:"):
        bugs = []
        for code in filter(None, name[len("planted:"):].split("+")):
            try:
                bugs.append(BugId(code))
            except ValueError:
                raise ValueError(f"unknown planted bug code '{code}' in '{name}'") from None
        return PlantedBackend(name, bugs)
    raise ValueError(f"unknown backend '{name}'")

