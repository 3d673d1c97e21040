"""Say which loops `ddesim` runs: ``python -m hemohopf.kernel``.

Builds the compiled kernel into its cache if it is not there, so that no
later run pays for the build, and prints ``compiled <library path>`` or
``python`` when the Python loops run.
"""

from .ddesim import _kernel

if __name__ == "__main__":
    library = _kernel().library
    print(f"compiled {library}" if library else "python")
