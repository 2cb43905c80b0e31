"""Command-line tools wrapping the profile/emulate API (§4).

``build_parser`` and ``main`` live in :mod:`repro.cli.main` and resolve
here on first access: an eager import would put ``repro.cli.main`` into
``sys.modules`` before ``python -m repro.cli.main`` runs it (a
``RuntimeWarning``).  ``python -m repro`` is the no-install entry.

``main`` names the function and the submodule both: code that has
already imported ``repro.cli.main`` as a module and wants the function
should take it from there (``from repro.cli.main import main``).
"""

from importlib import import_module

__all__ = ["build_parser", "main"]


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module("repro.cli.main")

    # Importing the submodule bound the package attribute ``main`` to the
    # module; rebind both names to the functions, as the eager import did.
    globals().update(build_parser=module.build_parser, main=module.main)
    return globals()[name]
