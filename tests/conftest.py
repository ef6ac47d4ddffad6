"""The tests that start `python -m hermlp` or `python -c "import hermlp"`
need the package on the child's path.  `pythonpath` in pyproject.toml puts
src on this process's sys.path only, so the directory the package was
imported from is put on the children's PYTHONPATH as well."""

import os

import hermlp

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(hermlp.__file__)))
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
