"""coulomblab: closed-form electrostatics, log-gas potential theory, and
Monte Carlo verification tools.

Importing the package loads no submodule: import the module you use, e.g.
``from coulomblab import domains``."""

__version__ = "0.1.0"
