"""The benchmark suite leaves the git tree as it found it."""

import pytest


def test_suite_leaves_git_tree_unchanged(git_status_change):
    before, now = git_status_change
    if before is None:
        pytest.skip("not a git checkout")
    assert now == before
