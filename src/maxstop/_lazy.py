"""numpy, imported on its first attribute access.

The exact layer works on integers and Fractions only, so `import maxstop`
and the exact commands should not pay numpy's import.  Every module takes
`np` from here and none may `import numpy` itself: an import statement
naming numpy reads the module's `__spec__`, and that read runs the load.

LazyLoader's first access is not thread-safe before Python 3.12; maxstop
starts no threads.
"""

import importlib
import importlib.util
import sys


def _numpy():
    """numpy as a lazy module in sys.modules, so that one copy ever exists;
    imported at once if already loaded, or if not installed (which raises)."""
    spec = None if "numpy" in sys.modules else importlib.util.find_spec("numpy")
    if spec is None:
        return importlib.import_module("numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _numpy()
