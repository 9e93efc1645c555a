"""Exact truncated-series decisions for local Kahler immersions into
complex space forms: resolvability certificates, explicit maps, model
catalog, Wallach-set decisions and obstruction scans.

Every public function is one the ``kahlerimm`` command line reaches,
save a few that ``tests/test_imports.py`` names with their reasons.
Import each name from its module (``kahlerimm.immersion``, ...); the
package itself re-exports none, so importing it loads no module.
"""

__version__ = "0.1.0"
