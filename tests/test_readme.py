"""The python blocks of README.md run, in order, and give what their comments state."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from pathlib import Path

from fliessnet import m_inf_bound

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_blocks_run_and_match_their_comments():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 6
    namespace: dict = {}
    for index, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {index}", "exec"), namespace)
    osc_rep = namespace["osc_rep"]
    assert (osc_rep.status, osc_rep.r, osc_rep.leading) == ("defined", 2, 1)
    rep = namespace["rep"]
    assert (rep.status, rep.r, rep.leading) == ("defined", 3, Fraction(62, 315))
    assert namespace["pred"].r_pred == 3
    bound = namespace["bound"]
    assert repr(bound.M_inf).startswith("77.28668")
    assert repr(bound.t_star).startswith("0.0129388")
    assert list(namespace["seq"].a) == [1, 2, 10, 82, 938, 13778, 247210]
    # The ring of all-ones maximal nodes escapes inside the grid, and not
    # before the envelope's t_star.
    traj = namespace["traj"]
    assert m_inf_bound(1, 1, 3).t_star <= traj.escape_time < 0.2
    assert set(traj.per_node_escape) == {1, 2, 3}
    assert math.isfinite(namespace["report"].max_abs_error)
