"""Settings shared by every test module."""
try:
    from hypothesis import settings
except ImportError:  # hypothesis comes with the `test` extras
    settings = None

if settings is not None:
    # Fixed examples, no example database and no deadline: two checkouts
    # run the same examples, and a slow host cannot fail a test on timing.
    settings.register_profile("cylcert", derandomize=True, deadline=None, database=None)
    settings.load_profile("cylcert")
