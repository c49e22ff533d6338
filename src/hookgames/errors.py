"""Exception types shared across the package."""

from __future__ import annotations


class HookGamesError(Exception):
    """Base class for all package errors."""


class DomainError(HookGamesError, ValueError):
    """An argument lies outside the operation's domain."""


class RangeTooLargeError(DomainError):
    """Work would explore more positions than the search budget allows."""


class EngineInvariantError(HookGamesError, RuntimeError):
    """An internal consistency check failed; signals an engine bug."""
