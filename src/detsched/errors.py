"""Exception types shared across the library.

Every error raised by detsched derives from DetschedError, so callers can
catch one base class at an API boundary.  Subclasses are deliberately thin;
the message carries the detail.
"""


class DetschedError(Exception):
    """Base class for all detsched errors."""


class KernelInvalid(DetschedError):
    """Matrix fails the structural requirements of a scheduling kernel."""


class BadSpec(DetschedError):
    """Kernel specification has invalid parameters."""


class NotLRepresentable(DetschedError):
    """Marginal kernel has an eigenvalue at 1 and admits no likelihood form."""


class BadSubset(DetschedError):
    """Subset refers to unknown or duplicated node ids."""


class EnumerationTooLarge(DetschedError):
    """Exact enumeration requested for a ground set beyond the size cap."""


class NeverScheduled(DetschedError):
    """Conditioning on a node whose scheduling probability is zero."""


class SameNode(DetschedError):
    """Operation needs two distinct nodes but got the same one twice."""


class BadScaling(DetschedError):
    """Scaling values fall outside [0, 1]."""


class BadFunction(DetschedError):
    """Per-node rates for the Laplace functional must be nonnegative."""


class SingularDistance(DetschedError):
    """Intended link has (near-)zero length under a singular path loss."""


class DegenerateSignal(DetschedError):
    """Path loss of the intended link is not strictly positive."""


class IncompleteFading(DetschedError):
    """Fading draw is missing a required transmitter/receiver entry."""


class BadArgument(DetschedError):
    """Argument violates a documented precondition."""


class AlwaysScheduledReceiver(DetschedError):
    """Receiver is scheduled with conditional probability one, so the
    conditional coverage of the link is undefined."""


class MalformedConfig(DetschedError):
    """A config file holds no JSON document that Python can load."""


class ConfigError(DetschedError):
    """One or more problems found while parsing a run configuration.

    ``problems`` is a list of (field_path, message) pairs covering every
    issue found, not just the first.
    """

    def __init__(self, problems):
        self.problems = list(problems)
        lines = "; ".join(f"{path}: {msg}" for path, msg in self.problems)
        super().__init__(f"invalid configuration: {lines}")
