"""The layer-tracing targets of perfbench/spans.py still name objects of
the package.  The file is loaded as it is; nothing is wrapped."""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_every_trace_target_resolves():
    targets = _targets()
    assert targets
    for name, mod_name, attr in targets:
        module = importlib.import_module(f"bruhat_forge.{mod_name}")
        if "." in attr:
            # methods are wrapped through the class __dict__
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), name
        else:
            assert callable(getattr(module, attr, None)), name
