"""The README's "Library usage" block runs as written."""

import re
from pathlib import Path

import numpy as np

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_usage_block_runs():
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library usage"):]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    n_fluid = scope["header"].n_fluid
    assert scope["u"].shape == (n_fluid, 3) and scope["xyz"].shape == (n_fluid, 3)
    assert np.isclose(scope["rho"].sum(), n_fluid)
