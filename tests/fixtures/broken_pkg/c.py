"""Imports a module that does not exist."""

from .missing import thing
