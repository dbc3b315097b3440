"""Load a function of another nbbm checkout, for --baseline timings.

The package in that checkout is imported under the name `nbbm_baseline`,
so that it does not replace the nbbm package under test.
"""

import importlib
import importlib.util
import pathlib
import sys


def load_baseline(src: str, name: str):
    """The function `name` (`module.function`) of the nbbm package in src,
    a directory that holds `nbbm/` or `src/nbbm/`."""
    base = pathlib.Path(src).resolve()
    root = next((r for r in (base / "nbbm", base / "src" / "nbbm")
                 if (r / "__init__.py").is_file()), None)
    if root is None:
        sys.exit(f"--baseline {src}: holds neither nbbm/ nor src/nbbm/")
    spec = importlib.util.spec_from_file_location(
        "nbbm_baseline", root / "__init__.py",
        submodule_search_locations=[str(root)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules["nbbm_baseline"] = pkg
    spec.loader.exec_module(pkg)
    module, func = name.rsplit(".", 1)
    return getattr(importlib.import_module(f"nbbm_baseline.{module}"), func)
