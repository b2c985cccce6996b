"""The pinned ``isotropy sample`` and ``procrustes family`` cases of the
byte oracle (``test_byte_oracle.py``), one test each."""

from test_byte_oracle import pinned_test

test_sample_stdout_is_byte_stable = pinned_test("sample")
