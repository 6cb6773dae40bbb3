import pytest

# helpers.py holds reference checks written as asserts; rewriting them keeps
# them active under ``python -O``, which strips plain assert statements
pytest.register_assert_rewrite("helpers")
