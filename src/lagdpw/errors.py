"""Exception hierarchy shared across the package."""


class LagdpwError(Exception):
    """Base class for all package errors."""


class SingularLoop(LagdpwError):
    """A loop (or one of its coefficients) is numerically singular."""


class OutsideBigCell(LagdpwError):
    """Birkhoff mode-matching system singular: loop not in the big cell."""


class IllConditioned(LagdpwError):
    """Truncated column space too ill-conditioned for a reliable split."""


class NotVacuum(LagdpwError):
    """Constant coefficients fail |a| = |b|, so [A, tau(A)] != 0."""


class PoleAtOrigin(LagdpwError):
    """Rotational potential with z^-3 b(z^m) not holomorphic at 0."""


class PoleOnPath(LagdpwError):
    """Non-finite values encountered while integrating the frame ODE."""


class TruncationOverflow(LagdpwError):
    """Laurent coefficients at the truncation boundary grew too large."""


class NoNodeSolved(LagdpwError):
    """Every node of a grid failed, so a build has no samples."""


class GridTooCoarse(LagdpwError):
    """Not enough nodes for the requested finite-difference stencil."""


class SchemaError(LagdpwError):
    """Invalid potential/run description; carries the offending field path."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class DomainError(LagdpwError):
    """Evaluation outside the admissible domain (e.g. h <= 0 or s <= 0)."""


class SeedTooLarge(LagdpwError):
    """Dual-seed consistency check failed: asymptotic seed outside its range."""


class NotRadialPIII(LagdpwError):
    """Spec does not admit the radial Painleve III reduction."""
