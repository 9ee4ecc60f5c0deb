"""Exception and warning types shared across the package.

Errors derive from :class:`GraphPropError`; the CLI exits with code 2 for
configuration errors, 3 for data errors and 1 for any other. Warnings flag
a result that was still produced but is degraded somewhere (nodes excluded
and mean-filled, an iteration cap hit); every experiment runner records
them in the manifest notes instead of re-issuing them.
"""


class GraphPropError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(GraphPropError):
    """Invalid experiment configuration (CLI exit code 2)."""


class DataError(GraphPropError):
    """Unreadable or inconsistent input data (CLI exit code 3)."""


class NonFiniteInput(GraphPropError, ValueError):
    """An input array contains NaN or infinite entries."""


class TooFewObserved(GraphPropError, ValueError):
    """Fewer than k+1 observed fibers: the kNN construction is undefined."""


class EmptyGraph(GraphPropError):
    """The graph has no edges; adjacency normalisation is undefined."""


class NoMissingEntries(GraphPropError):
    """Reconstruction metrics are undefined without missing entries."""


class EmptyEvaluationSet(GraphPropError):
    """Classification accuracy is undefined over an empty id list."""


class InfeasibleFraction(GraphPropError, ValueError):
    """The requested missing fraction cannot satisfy the coverage condition."""


class AllMissing(GraphPropError):
    """Completion requires at least one observed entry."""


class SpectralNormNotConverged(GraphPropError):
    """ARPACK did not converge on the top eigenpair of a Gram operator, so
    no certified spectral norm (phi, GTVM's q or lambda_max) is available."""


class BoundViolation(GraphPropError):
    """A measured completion error exceeds its computed bound psi/(2 - phi)."""


class MaxItersExceeded(RuntimeWarning):
    """The conjugate-gradient solve hit its iteration cap; the last
    iterate is returned and ``SolverStats.converged`` is False."""


class UnreachableComponent(RuntimeWarning):
    """Some missing nodes lie in a component with edges but no observed
    node, so the grounded Laplacian system is singular there; the
    steady-state solve excludes them and fills them with the per-channel
    mean of the observed rows."""


class SingularSystemWarning(RuntimeWarning):
    """Total-variation inpainting could not pin every missing node.
    :func:`~graphprop.propagation.solve_reachable` raises it for GTVM
    where the steady-state solve raises :class:`UnreachableComponent`
    (missing nodes in a component with edges but no observed node, where
    the system is singular; they are mean-filled) or
    :class:`MaxItersExceeded` (the conjugate-gradient iteration cap; the
    last iterate is kept)."""


class CoverageViolationWarning(UserWarning):
    """Some node is observed in no acquisition and was excluded."""


class ZeroErrorBandWarning(RuntimeWarning):
    """A band had identically zero error; its PSNR is an infinite sentinel
    and is excluded from the band average."""
