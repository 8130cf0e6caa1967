"""curator: citable publication of scientific software and simulation data.

The package splits into a depot service contract (`client`), a reference
depot implementation with an HTTP facade (`depot`, `depot_http`), git
interrogation and deterministic archiving (`gitrepo`), the publication
workflows (`publish`), project-file and stat-header handling
(`provenance`), and the staged command-line tool (`cli`). Names are imported
from those submodules: the package imports none of them, so a process loads
only what it runs.
"""

__version__ = "0.1.0"
