"""ldpsim: LDP frequency oracles, multidimensional collection, and attack simulation.

Every name is imported from its module, e.g. ``from ldpsim import oracles``.
"""

__version__ = "0.1.0"
