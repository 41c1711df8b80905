"""Shared pytest set-up for the tier-1 suite.

When a hypothesis test fails, hypothesis's pytest plugin imports
`hypothesis.extra._patching` inside its `pytest_runtest_makereport` hook to
offer a patch of the failing example.  That module imports libcst, which uses
the deprecated `mypy_extensions.TypedDict`; under `filterwarnings = ["error"]`
the DeprecationWarning is raised inside the hook, and pytest stops the session
with INTERNALERROR in place of the falsifying example.  Importing the module
once here, with that one warning category ignored, leaves nothing to warn
about later; every other warning is still an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a hypothesis without it, or libcst missing
        pass
