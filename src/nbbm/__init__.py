"""Monte Carlo toolkit for branching Brownian motion with selection.

Subpackages by concern: closed-form interval kernels (kernels), the jump
process scaling limit (levy), the model and run definitions (engine), the
flat-array segment step and the runs on it (ensemble), selection rules and barrier dynamics (selection),
estimator/oracle reports (stats), and the command line front end (cli).
"""

from .kernels import IntervalParams

__version__ = "0.14.0"

__all__ = ["IntervalParams", "__version__"]
