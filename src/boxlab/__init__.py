"""boxlab: exact-rational analysis of nonsignaling correlation boxes.

Submodules:
    core          scenarios, boxes, marginals, relabeling
    lp            exact simplex with Farkas / dual certificates
    polytope      deterministic strategies, nonsignaling constraint rows
    bell          CHSH, CGLMP, normalization, unique maximizers
    locality      local models, nonlocality certificates, Eve's extension
    shareability  symmetric extensions (cloning), monogamy, box families
    isotropic     the isotropic family, depolarization, shrinking
    incompat      incompatibility (zero: jointly measurable), entropy bounds
    boxio, cli    file formats, the command line, secrecy as nonlocality
"""

from .core import Box, Scenario

__all__ = ["Box", "Scenario"]
__version__ = "0.1.0"
