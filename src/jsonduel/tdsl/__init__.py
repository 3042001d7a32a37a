"""The JSON-test DSL: AST, parser, printer and response extraction.

`Script` and `parse_script` are re-exported for the benchmark; everything
else is imported from the module that defines it.
"""

from .ast import Script
from .parser import parse_script
