"""Decentralized EV-charging simulation and controller training toolkit.

Each name is imported from the module that defines it, e.g.
``from gridcharge.simulator import SimKernel``.
"""

__version__ = "0.1.0"
