__all__ = ["InvariantViolation"]


class InvariantViolation(RuntimeError):
    """A quantity guaranteed by construction failed its bound check.

    Raised by the self-auditing report builders (midpoint bounds, decoding
    tables, parameter synthesis).  The guarded inequalities hold with margin
    in exact arithmetic, so seeing this exception means an implementation
    bug or corrupted input, never a property of the mathematics under study.
    """
