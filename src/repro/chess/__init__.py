"""The CHESS-style stateless model checker facade."""

from .checker import CheckResult, ChessChecker

__all__ = ["CheckResult", "ChessChecker"]
