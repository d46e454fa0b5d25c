"""One SHA-256 over the residual tree of every catalog fixture.

For each fixture, in catalog order, the digest covers the entry id and
fixture name, the built condition's name and entry, its labels with the
multi-index of each component, and its compiled op list (serialised as
``test_scalar._op_list_digest`` does).  A change that moves any label,
component or op of any entry moves the digest.  After a deliberate change
of a tree, re-pin with ``PYTHONPATH=src python tests/test_fixture_trees.py``,
which prints the new digest.
"""

import hashlib

from grs.catalog import build, catalog_ids, fixtures
from grs.scalar import Program
from test_scalar import _op_list_digest

FIXTURE_COUNT = 58
TREES_DIGEST = "ee8eee150add9d00643c4a68c26c85e6c27fd72c55449390b9437878d1ccbf1c"


def trees_digest():
    h = hashlib.sha256()
    count = 0
    for cid in catalog_ids():
        for fx in fixtures(cid):
            cond = build(cid, fx.chart, **fx.params)
            labels = [(lab, [idx for idx, _e in comps]) for lab, comps in cond.residuals.items()]
            h.update(repr((cid, fx.name, cond.name, cond.entry, labels)).encode())
            h.update(_op_list_digest(Program(cond.roots())).encode())
            count += 1
    return count, h.hexdigest()


def test_every_fixture_tree_is_pinned():
    assert trees_digest() == (FIXTURE_COUNT, TREES_DIGEST)


if __name__ == "__main__":
    print("%d fixtures: %s" % trees_digest())
