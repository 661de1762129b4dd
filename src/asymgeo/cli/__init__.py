"""Command-line front end: instance files, generators, suite, rendering.

The package re-exports nothing: each name lives in its own module, and
loading one module loads only what that module needs.
"""
