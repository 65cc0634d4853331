"""Ramsey arrowing and Folkman-number bound verification toolkit.

The modules are imported where they are used (`folkman.graphs`,
`folkman.arrowing`, `folkman.cnf`, `folkman.bounds`, `folkman.cli`), so a
CLI command loads only what it runs.
"""

__version__ = "0.1.0"
