"""The pinned cases of the byte oracle (``test_byte_oracle.py``) whose JSON
holds large float arrays, one test each."""

from test_byte_oracle import pinned_test

test_large_json_stdout_is_byte_stable = pinned_test("large")
