"""The pinned ``graph aut``, ``graph iso`` and ``graph hidden`` cases of the
byte oracle (``test_byte_oracle.py``), one test each."""

from test_byte_oracle import pinned_test

test_graph_stdout_is_byte_stable = pinned_test("graph")
