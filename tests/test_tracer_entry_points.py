"""The benchmark tracer's entry points must all resolve in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_entry_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.ENTRY_POINTS


def test_every_entry_point_resolves():
    # Tracer.install does getattr(module, attr), or cls.__dict__[method] for
    # "Class.method"; a renamed or deleted target breaks every traced run
    entry_points = load_entry_points()
    assert entry_points
    missing = []
    for key, home, attr in entry_points:
        owner = importlib.import_module(f"fanobasket.{home}")
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(owner, cls_name, None)
            if cls is None or meth not in vars(cls):
                missing.append(f"{key}: fanobasket.{home}.{attr}")
        elif not callable(getattr(owner, attr, None)):
            missing.append(f"{key}: fanobasket.{home}.{attr}")
    assert missing == []
